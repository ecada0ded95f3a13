"""Acceptance suite: the closed-form equality cases and cross-checks
that gate a build of the lab.

Each criterion runs at its pinned tolerance and returns a structured
verdict; the CLI prints one pass/fail line per criterion and the test
suite asserts them.  There is one suite: criterion 2 fits its tails up
to t = 1000 and criterion 3 refines on the 64x64 and 128x128 grids.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conjugate_heat import (
    DensityState,
    check_harnack_identity,
    construct_immortal_density,
    solve_conjugate_backward,
)
from .entropy import (
    asymptotics_report,
    blowdown_gap,
    expander_entropy,
    expander_residual,
    f_energy,
    lambda_bar,
    mu_plus,
    nu_plus,
)
from .flow import blowdown, check_R_lower_bound, evolve, scaled_volume
from .geometry import (
    ConformalTorusMetric,
    HomogeneousMetric,
    ModelSpaceMetric,
    integrate,
)
from .numerics import five_point
from .reduced import (
    EPS_LADDER,
    check_reduced_field,
    ell_plus_field,
    extrapolate_fields,
    geodesic_identity_residual,
    hessian_check_cor21,
    theta_plus,
)

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]

W_MODEL = 1.5 + 1.5 * math.log(math.pi)  # entropy constant of the model expander
THETA_MODEL = math.exp(-1.5) * math.pi ** (-1.5)

HYPERBOLIC3 = ModelSpaceMetric(dim=3, sectional_sign=-1, scale=1.0, base_volume=1.0)
NIL = HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: dict
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"{status}  [{self.number:2d}] {self.name:<38s} {parts}  ({self.elapsed:.1f}s)"


def _criterion(number: int, name: str):
    """Make a criterion that returns (passed, measured) into one that returns
    its timed CriterionResult."""
    def wrap(fn):
        @functools.wraps(fn)
        def timed(art) -> CriterionResult:
            t0 = time.perf_counter()
            passed, measured = fn(art)
            return CriterionResult(number, name, passed, measured, time.perf_counter() - t0)
        return timed
    return wrap


def _fmt(v):
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.3e}" if (v != 0 and abs(v) < 1e-2) or abs(v) >= 1e4 else f"{v:.6g}"
    return str(v)


def sine_torus(n: int) -> ConformalTorusMetric:
    x = (np.arange(n) / n)[:, None]
    return ConformalTorusMetric(0.3 * np.sin(2 * math.pi * x) * np.ones((n, n)))


class _Artifacts:
    """Lazily built shared flows and fields reused across criteria."""

    def __init__(self, suite: str):
        # "full" is the one suite; the argument stays for callers that name it
        if suite != "full":
            raise ValueError("suite must be 'full'")
        self._cache = {}

    def get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def hyperbolic(self, t_end):
        return self.get(("hyp", t_end), lambda: evolve(HYPERBOLIC3, (0.0, t_end)))

    def vertex_expander(self, t_end=4.0):
        m0 = ModelSpaceMetric(dim=3, sectional_sign=-1, scale=4e-9, base_volume=1.0)
        return self.get(("vertex", t_end),
                        lambda: evolve(m0, (0.0, t_end), n_snapshots=129))

    def nil(self, t_end):
        return self.get(("nil", t_end), lambda: evolve(NIL, (0.0, t_end)))

    def flat_static(self):
        return self.get("flat", lambda: evolve(ConformalTorusMetric(np.zeros((32, 32))),
                                               (0.0, 1.5), retain_every=10**9, dt_cap=0.05))

    def torus_flow(self):
        return self.get("torus", lambda: evolve(sine_torus(32), (0.0, 0.26)))

    def torus_theta_field(self):
        def build():
            h = self.torus_flow()
            return h, ell_plus_field(h, 16, np.linspace(0.18, 0.22, 5), oracle_check=False)
        return self.get("torus_theta_field", build)

    def flat_theta_field(self):
        def build():
            h = self.flat_static()
            return h, ell_plus_field(h, 16, np.linspace(0.6, 1.0, 5), oracle_check=False)
        return self.get("flat_theta_field", build)

    def vertex_extrapolated(self):
        def build():
            h = self.vertex_expander()
            radii = np.linspace(0.0, 1.0, 9)
            times = np.linspace(0.8, 1.2, 5)
            fields = [ell_plus_field(h, radii, times, eps=e) for e in EPS_LADDER]
            return h, extrapolate_fields(fields)
        return self.get("vertex_field", build)


@_criterion(1, "model expander entropy constancy")
def crit_1_expander_constancy(art: _Artifacts):
    h = art.hyperbolic(110.0)
    ts = np.geomspace(0.1, 100.0, 33)
    vals = np.array(
        [expander_entropy(h.metric_at(t), 1.0 / h.volume_at(t), t + 0.25) for t in ts]
    )
    dev = float(np.max(np.abs(vals - W_MODEL)))
    return dev <= 1e-6, {"max_deviation": dev, "target": W_MODEL}


@_criterion(2, "long-time limits (tail fits)")
def crit_2_long_time_limits(art: _Artifacts):
    horizon = 1000.0
    h = art.hyperbolic(horizon)
    dens = construct_immortal_density(h, (0.5, 0.9 * horizon))
    rep = asymptotics_report(h, dens)
    want = -math.log(8.0) + 1.5 * (1.0 + math.log(4.0 * math.pi))
    w_gap = abs(rep.w_plus_limit_fit - want)
    lbar_dev = max(
        abs(lambda_bar(h.metric_at(t)) + 6.0) for t in np.geomspace(0.5, horizon * 0.9, 9)
    )
    hn = art.nil(horizon)
    ts = np.geomspace(1.0, 0.98 * horizon, 17)
    lbars = np.array([lambda_bar(hn.metric_at(t)) for t in ts])
    vts = np.array([scaled_volume(hn, t) for t in ts])
    nil_ok = (
        bool(np.all(lbars < 0))
        and bool(np.all(np.diff(lbars) > 0))
        and abs(lbars[-1]) < 0.05
        and bool(np.all(np.diff(vts) < 0))
        and vts[-1] < 1e-3 * vts[0]
    )
    passed = w_gap <= 1e-3 and lbar_dev <= 1e-8 and nil_ok
    return passed, {"w_limit_gap": w_gap, "lambda_bar_dev": lbar_dev,
                    "nil_collapse_ok": nil_ok, "horizon": horizon}


def _torus_harnack_residual(n: int) -> float:
    h = evolve(sine_torus(n), (0.0, 0.012))
    m_fin = h.metric_at(0.012)
    xg = (np.arange(n) / n)[:, None]
    yg = (np.arange(n) / n)[None, :]
    u_fin = 1.0 + 0.4 * np.sin(2 * math.pi * xg) * np.cos(2 * math.pi * yg)
    u_fin = u_fin / integrate(m_fin, u_fin)
    states = solve_conjugate_backward(h, 0.012, u_fin, t_start=0.004, n_retain=9)
    return check_harnack_identity(states[2:7], h, birth_time=-0.05).max_residual


@_criterion(3, "pointwise entropy-density identity")
def crit_3_harnack_identity(art: _Artifacts):
    ladder = (64, 128)
    res = {n: _torus_harnack_residual(n) for n in ladder}
    order = math.log2(res[ladder[0]] / res[ladder[1]])
    hom_max = 0.0
    for h in (art.hyperbolic(3.0), art.nil(3.0)):
        times = np.linspace(1.0, 1.04, 9)
        states = [DensityState(float(t), 1.0 / h.volume_at(t)) for t in times]
        hom_max = max(hom_max, check_harnack_identity(states, h).max_residual)
    passed = order >= 1.8 and hom_max < 1e-8
    return passed, {"refinement_order": order, "homogeneous_residual": hom_max,
                    "grids": str(ladder)}


@_criterion(4, "entropy rate cross-check")
def crit_4_rate_cross_check(art: _Artifacts):
    worst = 0.0
    for h in (art.hyperbolic(5.0), art.nil(5.0)):
        for t in (0.6, 1.5, 3.0):
            d = 0.005
            w = [expander_entropy(h.metric_at(tt), 1.0 / h.volume_at(tt), tt)
                 for tt in (t - 2 * d, t - d, t + d, t + 2 * d)]
            fd = five_point(*w, d)
            rhs = expander_residual(h.metric_at(t), 1.0 / h.volume_at(t), t)
            worst = max(worst, abs(fd - rhs))
    m_flat = ConformalTorusMetric(np.zeros((16, 16)))
    flat_dev = max(
        abs(expander_residual(m_flat, np.ones((16, 16)), t) - 1.0 / t)
        for t in (0.3, 1.0, 4.0)
    )
    passed = worst < 1e-6 and flat_dev < 1e-10
    return passed, {"fd_vs_rate": worst, "flat_rate_dev": flat_dev}


@_criterion(5, "variational mu/nu functionals")
def crit_5_mu_nu(art: _Artifacts):
    m = ConformalTorusMetric(np.zeros((32, 32)))
    mu_dev = 0.0
    for sigma in (0.3, 1.0):
        res = mu_plus(m, sigma)
        want = math.log(4.0 * math.pi * sigma) + 2.0  # volume one
        mu_dev = max(mu_dev, abs(res.value - want),
                     float(np.max(np.abs(res.minimizer_u - 1.0))) * 1e-3)
    nu_h = nu_plus(HYPERBOLIC3)
    nu_gap = abs(nu_h.value - W_MODEL) if nu_h.status == "ok" else math.inf
    sig_gap = abs(nu_h.sigma_star - 0.25) if nu_h.status == "ok" else math.inf
    nu_flat = nu_plus(m)
    passed = (mu_dev <= 1e-6 and nu_h.status == "ok" and nu_gap <= 1e-6
              and sig_gap <= 1e-4 and nu_flat.status == "unbounded")
    return passed, {"mu_dev": mu_dev, "nu_gap": nu_gap, "sigma_star_gap": sig_gap,
                    "flat_unbounded": nu_flat.status == "unbounded"}


@_criterion(6, "reduced length vs closed form/oracle")
def crit_6_reduced_length(art: _Artifacts):
    h = art.flat_static()
    fld = ell_plus_field(h, 10, [1.0], oracle_check=True, oracle_segments=256)

    def dist_sq(p):
        dx = min(p[0] % 1, 1 - p[0] % 1)
        dy = min(p[1] % 1, 1 - p[1] % 1)
        return dx * dx + dy * dy

    want = np.array([dist_sq(p) / 4.0 for p in fld.targets])
    shoot_dev = float(np.max(np.abs(fld.ell[0] - want)))
    oracle_rel = fld.oracle_rel_gap
    res_flat = geodesic_identity_residual(h, np.array([0.2, 0.1]), 1.0)
    res_model = geodesic_identity_residual(art.vertex_expander(), 0.25, 1.0, eps=1e-4)
    resid = max(res_flat, res_model)
    passed = shoot_dev <= 1e-6 and oracle_rel <= 1e-3 and resid <= 1e-6
    return passed, {"shoot_dev": shoot_dev, "oracle_rel": oracle_rel,
                    "identity_residual": resid}


@_criterion(7, "forward reduced volume")
def crit_7_reduced_volume(art: _Artifacts):
    hf, fld_f = art.flat_theta_field()
    sf = theta_plus(fld_f, hf)
    ht, fld_t = art.torus_theta_field()
    st = theta_plus(fld_t, ht)
    mono_ok = sf.monotone_ok and st.monotone_ok
    hv, ext = art.vertex_extrapolated()
    sv = theta_plus(ext, hv)
    bound_ok = sf.bound_ok and st.bound_ok and sv.bound_ok
    theta_rel = float(np.max(np.abs(sv.theta - THETA_MODEL)) / THETA_MODEL)
    nu = nu_plus(hv.metric_at(1.0))
    dual_gap = abs(math.log(sv.theta[2]) + nu.value) if nu.status == "ok" else math.inf
    passed = (mono_ok and bound_ok and theta_rel <= 1e-2 and dual_gap <= 1e-2)
    return passed, {"monotone": mono_ok, "lower_bound": bound_ok,
                    "model_theta_rel": theta_rel, "log_theta_plus_nu": dual_gap}


@_criterion(8, "pointwise inequality suite")
def crit_8_inequalities(art: _Artifacts):
    # flat torus: equality case, checked tightly
    hf = art.flat_static()
    fld = ell_plus_field(hf, 8, np.linspace(0.99, 1.01, 5), oracle_check=False)
    flat_rep = check_reduced_field(fld, hf)
    flat_eq = max(abs(flat_rep.subsolution), abs(flat_rep.entropy_form))
    worst = flat_rep.worst_violation
    # evolving torus
    ht, fld_t = art.torus_theta_field()
    worst = max(worst, check_reduced_field(fld_t, ht).worst_violation)
    # shrinking positive model before extinction
    hs = evolve(ModelSpaceMetric(3, 1, 1.0), (0.0, 1.0))
    radii = np.linspace(0.0, 2.0, 17)
    fld_s = ell_plus_field(hs, radii, np.linspace(0.09, 0.11, 5))
    worst = max(worst, check_reduced_field(fld_s, hs).worst_violation)
    # model expander, extrapolated over the regularization ladder
    hv, ext = art.vertex_extrapolated()
    worst = max(worst, check_reduced_field(ext, hv).worst_violation)
    passed = worst <= 1e-4 and flat_eq <= 1e-8
    return passed, {"worst_violation": worst, "flat_equality_gap": flat_eq}


@_criterion(9, "action Hessian bound")
def crit_9_hessian_bound(art: _Artifacts):
    hs = evolve(ModelSpaceMetric(3, 1, 1.0), (0.0, 1.0))
    rep = hessian_check_cor21(hs, 0.1, np.linspace(0.0, 2.2, 23))
    hh = art.hyperbolic(1.0)
    refused = hessian_check_cor21(hh, 0.5, np.linspace(0.0, 1.0, 9))
    passed = (rep.status == "ok" and rep.min_margin >= -1e-3
              and refused.status == "precondition_not_met")
    return passed, {"sphere_min_margin": rep.min_margin,
                    "negative_case_refused": refused.status == "precondition_not_met"}


@_criterion(10, "property suite")
def crit_10_property_suite(art: _Artifacts):
    measured = {}
    # mass, positivity on a torus solve
    ht = art.torus_flow()
    m_fin = ht.metric_at(0.05)
    u_fin = np.full(ht.template.phi.shape, 1.0)
    u_fin = u_fin / integrate(m_fin, u_fin)
    states = solve_conjugate_backward(ht, 0.05, u_fin, t_start=0.01, n_retain=7)
    mass_dev = max(abs(integrate(ht.metric_at(s.t), s.u) - 1.0) for s in states)
    positive = all(float(np.min(s.u)) > 0 for s in states)
    measured["mass_dev"] = mass_dev
    # curvature lower bound along the testbeds
    r_ok = all(
        check_R_lower_bound(h, tol=1e-8)
        for h in (art.hyperbolic(5.0), art.nil(5.0), ht)
    )
    measured["r_bound_ok"] = r_ok
    # scaled volume and eigenvalue monotone, energy pinched, on the model flow
    h = art.hyperbolic(50.0)
    ts = np.geomspace(0.5, 45.0, 17)
    vts = np.array([scaled_volume(h, t) for t in ts])
    lbars = np.array([lambda_bar(h.metric_at(t)) for t in ts])
    f_vals = np.array([f_energy(h.metric_at(t), 1.0 / h.volume_at(t)) for t in ts])
    mono_ok = bool(np.all(np.diff(vts) <= 1e-10) and np.all(np.diff(lbars) >= -1e-10))
    f_ok = bool(np.all(f_vals >= -1.5 / ts - 1e-8) and np.all(f_vals <= 1e-8))
    measured["monotone_ok"] = mono_ok
    measured["f_bounds_ok"] = f_ok
    # blowdown invariance of the monotone quantities
    inv = blowdown_gap(h, 8.0, (0.5, 2.0))
    hv = art.vertex_expander(8.0)
    bdv = blowdown(hv, 4.0)
    radii = np.linspace(0.0, 1.0, 5)
    f_src = ell_plus_field(hv, radii, [2.0], eps=4e-5)
    f_bd = ell_plus_field(bdv, radii, [0.5], eps=1e-5)
    inv = max(inv, float(np.max(np.abs(f_src.ell[0] - f_bd.ell[0]))))
    sv_src = theta_plus(f_src, hv)
    sv_bd = theta_plus(f_bd, bdv)
    inv = max(inv, abs(sv_src.theta[0] - sv_bd.theta[0]))
    measured["blowdown_invariance"] = inv
    # determinism: identical scenario runs are bitwise identical
    from .cli import run_scenario_doc, builtin_scenarios
    import hashlib, tempfile, os, json

    doc = json.loads(builtin_scenarios()["hyperbolic_expander"].read_text())
    digests = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as td:
            run_scenario_doc(doc, td)
            hasher = hashlib.sha256()
            for root, _dirs, files in sorted(os.walk(td)):
                for fn in sorted(files):
                    hasher.update(fn.encode())
                    hasher.update(Path(root, fn).read_bytes())
            digests.append(hasher.hexdigest())
    deterministic = digests[0] == digests[1]
    measured["deterministic"] = deterministic
    passed = (mass_dev <= 1e-10 and positive and r_ok and mono_ok and f_ok
              and inv <= 1e-6 and deterministic)
    return passed, measured


CRITERIA = [
    crit_1_expander_constancy,
    crit_2_long_time_limits,
    crit_3_harnack_identity,
    crit_4_rate_cross_check,
    crit_5_mu_nu,
    crit_6_reduced_length,
    crit_7_reduced_volume,
    crit_8_inequalities,
    crit_9_hessian_bound,
    crit_10_property_suite,
]


def run_acceptance():
    """Run the acceptance criteria, printing one line each and a summary;
    returns the list of CriterionResult."""
    art = _Artifacts("full")
    results = []
    for fn in CRITERIA:
        res = fn(art)
        results.append(res)
        print(res.line())
    n_pass = sum(r.passed for r in results)
    total = sum(r.elapsed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed ({total:.1f} s total)")
    return results
