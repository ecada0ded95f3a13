"""Unit-mass conjugate-heat densities along a flow and their identities.

The density u solves du/dt = -lap u + R u (well posed backward in t;
integrating forward in tau = t_final - t makes it parabolic), keeps
total mass one, and stays positive.  From u and a vertex offset sigma
the log-density potential is f = -log u - (n/2) log(4 pi sigma); the
module verifies in one pass, by finite differences across retained
states, the pointwise evolution identity of the entropy density

    v = [sigma (2 lap f - |grad f|^2 + R) - f + n] u,

whose right-hand side is twice sigma times the squared soliton residual
weighted by u, its steady-case analogue, and the evolution equation of
the potential itself.

On homogeneous testbeds the density is spatially constant, all spatial
terms vanish, and every check reduces to an ODE identity; the same code
path applies because the geometry helpers return zero for derivatives
of constant fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _conformal_scalar,
    _lap0,
    curvature,
    grad_norm_sq,
    grad_pairing,
    integrate,
    laplacian,
    laplacian_symbol,
    soliton_residual_sq,
    spectral_preconditioner,
    volume,
)
from .flow import SCRATCH_BYTES, FlowHistory, torus_dt_cap
from .numerics import (
    RunningDerivative,
    conjugate_gradient,
    hermite_cubic,
    hermite_interval,
)

__all__ = [
    "DensityState",
    "ImmortalDensity",
    "ResidualReport",
    "solve_conjugate_backward",
    "construct_immortal_density",
    "check_harnack_identity",
]


def log_potential(u, sigma: float, n: int):
    """Potential f with u = exp(-f) / (4 pi sigma)^(n/2); exact round-trip."""
    return -np.log(u) - 0.5 * n * math.log(4.0 * math.pi * sigma)


@dataclass(frozen=True)
class DensityState:
    """A positive unit-mass density u at time t.

    u is a positive grid field on the torus and a positive float on the
    reduced models.  The potential of a vertex offset sigma is
    log_potential(u, sigma, n); each check derives it for its own sigma.
    """

    t: float
    u: object


@dataclass
class ResidualReport:
    """Max-norm residual of a pointwise identity across interior states."""

    max_residual: float
    rhs_min: float = math.inf
    extra: dict | None = None


# ---------------------------------------------------------------------------
# backward solves

def _renormalized(u, mass: float):
    if mass <= 0:
        raise RuntimeError("density lost positivity of total mass")
    return u / mass


def solve_conjugate_backward(h: FlowHistory, t_final: float, u_final,
                             t_start: float | None = None,
                             n_retain: int = 9,
                             dt_cap: float | None = None) -> list:
    """Solve the conjugate equation backward from (t_final, u_final).

    Returns DensityState slices at n_retain uniform times on
    [t_start, t_final], increasing in t, each mass-renormalized exactly.
    u_final must be positive with unit mass.  Positivity loss in the
    torus scheme aborts with a step diagnostic.
    """
    if t_start is None:
        t_start = h.t_min
    t_start, t_final = float(t_start), float(t_final)
    if not (h.t_min - 1e-12 <= t_start < t_final <= h.t_max + 1e-12):
        raise ValueError("solve window must sit inside the history")
    if n_retain < 2 or not (dt_cap is None or dt_cap > 0):
        raise ValueError(f"need n_retain >= 2 and dt_cap > 0 (got {n_retain!r}, {dt_cap!r})")
    mass = integrate(h.metric_at(t_final), u_final)
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"u_final must have unit mass (got {mass})")
    if float(np.min(u_final)) <= 0:
        raise ValueError("u_final must be positive")
    times = np.linspace(t_start, t_final, n_retain)
    if h.kind in ("homogeneous", "model_space"):
        # spatial constancy: the only unit-mass constant density is 1/V,
        # and per-step mass renormalization pins the solve to it exactly
        return [DensityState(float(t), 1.0 / h.volume_at(t)) for t in times]
    return _solve_backward_torus(h, times, np.asarray(u_final, dtype=float), dt_cap)


def _solve_backward_torus(h: FlowHistory, times, u_final, dt_cap) -> list:
    template = h.template
    hx, hy = template.spacing
    if dt_cap is None:
        dt_cap = torus_dt_cap(template)
    t_start, t_final = float(times[0]), float(times[-1])
    seg = (t_final - t_start) / (len(times) - 1)
    per_seg = max(1, math.ceil(seg / dt_cap))
    dt = seg / per_seg
    block = max(1, SCRATCH_BYTES // template.phi.nbytes)  # levels of a batch: its phi fits the cap

    def level_batch(ts):  # (e^{2 phi}, R, mean of e^{-2 phi}) at each of the times ts
        phi = h.params_at_times(ts).reshape(len(ts), *template.phi.shape)
        em2p = np.exp(-2.0 * phi)
        r = _conformal_scalar(phi, hx, hy, em2p)  # before e^{2 phi}, so as not to hold both
        return list(zip(np.exp(2.0 * phi), r, np.mean(em2p.reshape(len(ts), -1), axis=1)))

    def levels(ts):  # the levels at ts, in batches; none is held once it is used up
        for lo in range(0, len(ts), block):
            yield from level_batch(ts[lo:lo + block])

    def apply_l(x, lev):  # lap_g x - R x
        e2p, r, _ = lev
        return _lap0(x, hx, hy) / e2p - r * x

    u, t = u_final, t_final  # every step makes a new u; none is written in place
    states = [DensityState(t, _renormalized(u, integrate(h.metric_at(t), u)))]
    lam = laplacian_symbol(template.phi.shape, template.spacing)
    # the preconditioner's symbol depends on the step only through the
    # rounded mean of e^{-2 phi}; keep the current one, rebuild on a change
    key = precond = None
    for k_out in range(len(times) - 1):
        ts = [t := t - dt for _ in range(per_seg)]
        # levels at the segment's start and steps; each goes before the next batch
        batched = levels([float(times[len(times) - 1 - k_out]), *ts])
        lev = None
        lev = next(batched)
        for t_new in ts:
            u = u + 0.5 * dt * apply_l(u, lev)
            lev = None
            lev = next(batched)
            new_key = round(float(lev[2]), 6)
            if new_key != key:
                key, precond = new_key, spectral_preconditioner(1.0 - 0.5 * dt * new_key * lam)

            def apply_a(x):
                return x - 0.5 * dt * apply_l(x, lev)

            # PCG in the volume-weighted inner product (A self-adjoint there)
            u = conjugate_gradient(apply_a, u, lev[0], precond,
                                   rel_tol=1e-13, max_iter=200, x0=u)
            if float(np.min(u)) <= 0.0:
                raise RuntimeError(
                    f"conjugate solve lost positivity stepping to t = {t_new:.6g} "
                    f"(min u = {float(np.min(u)):.3e})"
                )
            u = _renormalized(u, float(np.sum(u * lev[0])) * hx * hy)
        t = float(times[len(times) - 2 - k_out])  # snap accumulated round-off
        states.append(DensityState(t, u))
    states.reverse()
    return states


@dataclass
class ImmortalDensity:
    """Limit density built by pushing uniform final data to late times.

    The final-data time doubles each round; convergence is declared when
    two successive constructions agree in sup norm on the window below
    the configured tolerance (cauchy_gap records the last gap).
    """

    window: tuple
    states: list
    construction_tail: float
    cauchy_gap: float
    converged: bool
    history: FlowHistory

    def __post_init__(self) -> None:
        # u_at's Hermite slopes: the rate -lap u + R u of each retained torus state
        torus = self.history.kind == "conformal_torus"
        ms = self.history.metrics_at([s.t for s in self.states]) if torus else ()
        self.rates = [-laplacian(m, s.u) + curvature(m).scalar * s.u
                      for m, s in zip(ms, self.states)]

    def u_at(self, t: float):
        if self.history.kind in ("homogeneous", "model_space"):
            return 1.0 / self.history.volume_at(t)
        times = np.array([s.t for s in self.states])
        i, s, h_step = hermite_interval(times, float(t), 1e-12)
        return hermite_cubic(s, h_step, self.states[i].u, self.rates[i],
                             self.states[i + 1].u, self.rates[i + 1])

    def state_at(self, t: float) -> DensityState:
        u = self.u_at(t)
        m = self.history.metric_at(t)
        return DensityState(float(t), _renormalized(u, integrate(m, u)))


def construct_immortal_density(h: FlowHistory, window, tol: float = 1e-8,
                               dt_cap: float | None = None) -> ImmortalDensity:
    """Build the limit conjugate density on a window by tail doubling.

    Solves backward from uniform data 1/V(t_i) with t_i doubling until
    two successive solutions are Cauchy in sup norm on the window; a
    history that ends before convergence yields converged=False
    ("unconverged tail"), never an error.  On the torus every backward
    solve steps at most dt_cap, or at the evolve's own h^2/2
    (flow.torus_dt_cap) when dt_cap is None.
    """
    ta, tb = float(window[0]), float(window[1])
    if not (h.t_min - 1e-12 <= ta < tb):
        raise ValueError("window must start inside the history")
    if h.kind in ("homogeneous", "model_space"):
        states = [DensityState(float(t), 1.0 / h.volume_at(t))
                  for t in np.linspace(ta, tb, 17)]
        tail = min(2.0 * tb, h.t_max)
        return ImmortalDensity((ta, tb), states, tail, 0.0, True, h)
    tail = min(2.0 * tb, h.t_max)
    prev = None
    gap = math.inf
    converged = False
    states = None
    while True:
        m_tail = h.metric_at(tail)
        u_fin = np.full(h.template.phi.shape, 1.0 / volume(m_tail))
        # two legs: march the uniform data down to the window end, then
        # sweep the window itself on its own uniform retained grid
        if tail > tb * (1 + 1e-12):
            leg = solve_conjugate_backward(h, tail, u_fin, t_start=tb, n_retain=2,
                                           dt_cap=dt_cap)
            u_tb = leg[0].u
        else:
            u_tb = u_fin
        cur = solve_conjugate_backward(h, tb, u_tb, t_start=ta, n_retain=17,
                                       dt_cap=dt_cap)
        if prev is not None:
            gap = max(
                float(np.max(np.abs(np.asarray(a.u) - np.asarray(b.u))))
                for a, b in zip(cur, prev)
            )
            states = cur
            if gap < tol:
                converged = True
                break
        prev = cur
        if tail >= h.t_max * (1 - 1e-12):
            states = cur
            break
        tail = min(2.0 * tail, h.t_max)
    return ImmortalDensity((ta, tb), states, tail, float(gap), converged, h)


# ---------------------------------------------------------------------------
# pointwise identities

def check_harnack_identity(states, h: FlowHistory, birth_time: float = 0.0) -> ResidualReport:
    """Residuals of the entropy-density identities across interior states, in one pass.

    max_residual and rhs_min belong to (d/dt + lap - R) v =
    2 sigma u |Ricci + Hess f + g/(2 sigma)|^2.  extra holds the maxima of
    "prefactor" (the heat-operator image of q = 2 lap f - |grad f|^2 + R),
    "steady" (the sigma-free identity, with f = -log u) and "potential"
    (df/dt = -lap f + |grad f|^2 - R - n/(2 sigma)).  Report-only.
    """
    times = [s.t for s in states]
    sigmas = [t - birth_time for t in times]
    if any(sigma <= 0 for sigma in sigmas):
        raise ValueError("all states must sit after the birth time")
    n = h.dim
    # d/dt of v, q, v_s and f, summed from the last state; the fields kept at interior ones
    derivs = [RunningDerivative(times) for _ in range(4)]
    idx, rows = derivs[0].idx, {}

    def feed(i):  # a function, so that a state's temporaries go as it returns
        s, sigma = states[i], sigmas[i]
        m = h.metric_at(s.t)
        r = curvature(m).scalar
        f = log_potential(s.u, sigma, n)
        q = 2.0 * laplacian(m, f) - grad_norm_sq(m, f) + r
        v = (sigma * q - f + n) * s.u
        f_s = -np.log(s.u)  # the steady potential, differenced on its own
        v_s = (2.0 * laplacian(m, f_s) - grad_norm_sq(m, f_s) + r) * s.u
        for d, x in zip(derivs, (v, q, v_s, f)):
            d.add(i, x)
        if i in idx:
            rows[i] = (v, q, v_s, f)

    for i in range(len(states) - 1, -1, -1):
        feed(i)
    dv, dq, dv_s, df = (d.values() for d in derivs)
    res_max, rhs_min = 0.0, math.inf
    extra = dict.fromkeys(("prefactor", "steady", "potential"), 0.0)
    for j, i in enumerate(idx):
        (v, q, v_s, f), u, sigma = rows.pop(i), states[i].u, sigmas[i]
        m = h.metric_at(times[i])  # the rest of the state is rebuilt rather than held
        r = curvature(m).scalar
        rhs = 2.0 * sigma * u * soliton_residual_sq(m, f, sigma)
        res_max = max(res_max, float(np.max(np.abs(dv[j] + laplacian(m, v) - r * v - rhs))))
        rhs_min = min(rhs_min, float(np.min(rhs)))
        del rhs
        residuals = {  # each is built, reduced and dropped in turn
            "prefactor": lambda: dq[j] + laplacian(m, q) - (
                2.0 * soliton_residual_sq(m, f, None) + 2.0 * grad_pairing(m, q, f)),
            "steady": lambda: dv_s[j] + laplacian(m, v_s) - r * v_s
            - 2.0 * u * soliton_residual_sq(m, -np.log(u), None),
            "potential": lambda: df[j] + laplacian(m, f) - grad_norm_sq(m, f) + r
            + n / (2.0 * sigma),
        }
        for key, field in residuals.items():
            extra[key] = max(extra[key], float(np.max(np.abs(field()))))
    return ResidualReport(res_max, rhs_min, extra)
