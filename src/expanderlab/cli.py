"""Scenario runner and report generator.

A scenario JSON configures one testbed flow and the checks to run on
it; the runner emits a deterministic report tree:

    <out>/<scenario-name>/report.json     verdicts, fitted limits, residuals
    <out>/<scenario-name>/series/*.csv    per-time tables
    <out>/<scenario-name>/plots/*.svg     line charts of monotone quantities

Exit codes: 0 all verdicts hold, 1 a check failed, 2 the config is
malformed.  Outputs are a pure function of the config: repeated runs
are bitwise identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .conjugate_heat import check_harnack_identity, construct_immortal_density
from .entropy import (
    asymptotics_report,
    blowdown_gap,
    build_entropy_report,
    long_time_residual_integral,
    mu_plus,
    nu_plus,
)
from .flow import check_R_lower_bound, evolve, torus_dt_cap
from .geometry import ConformalTorusMetric, ModelSpaceMetric, _is_number, model_from_json
from .reduced import (
    EPS_LADDER,
    check_reduced_field,
    ell_plus_field,
    extrapolate_fields,
    theta_plus,
)
from .reports import write_csv, write_json, write_svg_chart

__all__ = ["Scenario", "PARAMS", "TOLERANCES", "run_scenario", "run_scenario_doc",
           "builtin_scenarios", "main"]

KNOWN_CHECKS = ("entropy", "harnack", "mu_nu", "reduced", "theta",
                "asymptotics", "blowdown")


# The default of a key that Scenario.from_doc works out from the model and
# t_span.  JSON cannot produce it: a given value, null included, meets its rule.
DERIVED = object()

MAX_COUNT = 10**6  # the most entropy times, or torus evolve steps, a run may ask for


def _is_count(x) -> bool:
    """A positive int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def _uniform_radii(radii) -> bool:
    """At least three nonnegative, increasing, uniformly spaced numbers."""
    if not (isinstance(radii, list) and len(radii) >= 3
            and all(_is_number(r) for r in radii)):
        return False
    steps = np.diff(radii)
    return (radii[0] >= 0 and steps[0] > 0
            and float(np.max(np.abs(steps - steps[0]))) <= 1e-9 * steps[0])


_FINITE = (_is_number, "a finite number")
_FLAG = (lambda x: isinstance(x, bool), "true or false")

# Every params key with its default and the rule a given value must meet
# (README, "Scenario keys").
PARAMS = {
    "dt_cap": (DERIVED, lambda x: _is_number(x) and x > 0, "a positive finite number"),
    "retain_every": (DERIVED, _is_count, "a positive integer"),
    "target_grid": (12, _is_count, "a positive integer"),
    "reduced_t": (DERIVED, *_FINITE),
    "window_lo": (DERIVED, *_FINITE), "window_hi": (DERIVED, *_FINITE),
    "sigmas": ([0.25, 0.5, 1.0, 2.0], lambda s: (
        isinstance(s, list) and len(s) > 0 and all(_is_number(x) and x > 0 for x in s)
        and len(set(s)) == len(s)), "a nonempty list of distinct positive finite numbers"),
    "radii": ([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0], _uniform_radii,
              "at least 3 nonnegative, increasing, uniformly spaced numbers"),
    "n_times": (17, lambda n: _is_count(n) and n <= MAX_COUNT, "an integer in [1, 10**6]"),
    "alpha": (8.0, lambda a: _is_number(a) and a >= 1, "a finite number >= 1"),
    "birth_time": (DERIVED, *_FINITE),
    "expect_constant_entropy": (False, *_FLAG), "oracle_check": (DERIVED, *_FLAG),
}
# Every tolerances key with its default; each must be a finite number.
TOLERANCES = {"r_bound": 1e-8, "immortal": 1e-8, "harnack": DERIVED, "inequalities": 1e-4,
              "asymptotics": 1e-3, "blowdown": 1e-6}


class ConfigError(ValueError):
    """Malformed scenario configuration (exit code 2)."""


@dataclass
class Scenario:
    """A valid scenario with every default resolved.  params and tolerances
    hold each key of PARAMS and TOLERANCES; the density window and the
    entropy, harnack and reduced-field times are None unless a selected
    check reads them."""

    name: str
    model: object
    t_span: tuple
    checks: tuple
    tolerances: dict
    params: dict
    window: tuple | None = None
    entropy_times: np.ndarray | None = None
    harnack_times: np.ndarray | None = None
    field_times: np.ndarray | None = None

    @staticmethod
    def from_doc(doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ConfigError("scenario must be a JSON object")
        if doc.get("schema") != 1:
            raise ConfigError("missing or unsupported schema field (expected 1)")
        name = doc.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError("scenario needs a nonempty string name")
        if not _is_file_name(name):  # its tree replaces <out>/<name>
            raise ConfigError(f"scenario name {name!r} must be a file name of at most "
                              f"245 bytes, not a path")
        if "model" not in doc:
            raise ConfigError(f"scenario {name!r}: missing model")
        try:
            model = model_from_json(doc["model"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"scenario {name!r}: invalid metric model spec: {exc}") from None
        span = doc.get("t_span")
        if (not isinstance(span, (list, tuple)) or len(span) != 2
                or not all(_is_number(v) for v in span) or not 0 <= span[0] < span[1]):
            raise ConfigError(f"scenario {name!r}: t_span must be [t0, t1], 0 <= t0 < t1")
        t0, t1 = float(span[0]), float(span[1])
        checks = doc.get("checks")
        if not checks or not isinstance(checks, list):
            raise ConfigError(f"scenario {name!r}: checks must be a nonempty list")
        unknown = [c for c in checks if c not in KNOWN_CHECKS]
        if unknown:
            raise ConfigError(
                f"scenario {name!r}: unknown checks {unknown}; known: {list(KNOWN_CHECKS)}"
            )
        raw = doc.get("params", {})
        if not isinstance(raw, dict):
            raise ConfigError(f"scenario {name!r}: params must be a JSON object")
        _reject_unknown(name, "params", raw, PARAMS)
        for key, value in raw.items():
            _, rule, what = PARAMS[key]
            if not rule(value):
                raise ConfigError(f"scenario {name!r}: params.{key} {value!r} must be {what}")
        torus = isinstance(model, ConformalTorusMetric)
        if not torus:  # the density window is fixed off the torus
            raw = {k: v for k, v in raw.items() if k not in ("window_lo", "window_hi")}
        params = {k: raw.get(k, default) for k, (default, _, _) in PARAMS.items()}
        if torus and (t1 - t0) / (cap := raw.get("dt_cap", torus_dt_cap(model))) > MAX_COUNT:
            raise ConfigError(f"scenario {name!r}: the torus evolve would take more than 10**6 "
                              f"steps of dt_cap {cap!r} over t_span [{t0!r}, {t1!r}]")
        reduced = {"reduced", "theta"} & set(checks)
        model_space = isinstance(model, ModelSpaceMetric)
        if reduced and not (torus or model_space):
            raise ConfigError(f"scenario {name!r}: checks {sorted(reduced)} need a "
                              f"conformal_torus or model_space model, not homogeneous")
        nt = params["target_grid"]
        # the target subgrid is a torus metric of its own: at least 8 points a side
        if torus and reduced and (nt < 8 or any(n % nt for n in model.grid_size)):
            raise ConfigError(
                f"scenario {name!r}: target_grid {nt!r} must be at least 8 and divide "
                f"the grid size {list(model.grid_size)}"
            )
        tolerances = doc.get("tolerances", {})
        if not (isinstance(tolerances, dict) and all(map(_is_number, tolerances.values()))):
            raise ConfigError(f"scenario {name!r}: tolerances must map names to finite numbers")
        _reject_unknown(name, "tolerances", tolerances, TOLERANCES)
        tolerances = {k: float(v) for k, v in
                      {**TOLERANCES, "harnack": 1e-2 if torus else 1e-8, **tolerances}.items()}
        derived = {
            "dt_cap": None, "retain_every": None,  # evolve works these out from the grid
            "reduced_t": 0.75 * t1 if torus else 0.5 * t0 + 0.5 * t1,  # t0 + t1 may overflow
            "window_lo": max(t0, 0.02 * t1) if torus else max(t0, t1 / 200.0, 1e-3),
            "window_hi": 0.45 * t1 if torus else 0.9 * t1,
            # the flow's own birth time: the root of an expander's scale factor
            "birth_time": model.scale_root(t0) if model_space and model.rho0 < 0 else 0.0,
            "oracle_check": bool(torus and reduced) and nt <= 12,
        }
        params = {**params, **derived, **raw}
        params["alpha"], params["birth_time"] = float(params["alpha"]), float(params["birth_time"])
        scn = Scenario(name, model, (t0, t1), tuple(checks), tolerances, params)
        # a positive model goes extinct where its scale factor vanishes
        t_ext = model.scale_root(t0) if model_space and model.rho0 > 0 else math.inf
        late = []  # the times of checks that sample at or past t_ext
        if reduced:
            c, what = params["reduced_t"], f"reduced_t {raw.get('reduced_t', 'default')!r}"
            ts = scn.field_times = (np.linspace(c - 0.05 * t1, c + 0.05 * t1, 5) if torus
                                    else np.linspace(0.8 * c, 1.2 * c, 5))
            if not (0 < ts[0] and t0 <= ts[0] and ts[-1] <= t1):
                raise ConfigError(f"scenario {name!r}: the five reduced field times around "
                                  f"{what} must lie inside t_span [{t0!r}, {t1!r}]")
            if ts[-1] >= t_ext:
                late.append(f"the five reduced field times around {what}")
        if {"entropy", "harnack", "asymptotics"} & set(checks):
            scn.window = lo, hi = float(params["window_lo"]), float(params["window_hi"])
            if not t0 <= lo < hi <= t1:
                raise ConfigError(
                    f"scenario {name!r}: density window [{lo!r}, {hi!r}] must satisfy "
                    f"t0 <= window_lo < window_hi <= t1 on t_span [{t0!r}, {t1!r}]"
                )
            if hi >= t_ext:
                late.append(f"the density window [{lo!r}, {hi!r}]")
        if "harnack" in checks:
            # mid-window on the torus, near t = 1 elsewhere
            c, half, n = ((0.5 * (lo + hi), 0.02 * (hi - lo), 5) if torus
                          else (min(max(1.0, 0.3 * t1), 0.9 * t1), 0.02, 9))
            ts = scn.harnack_times = np.linspace(c - half, c + half, n)
            if not (t0 <= ts[0] and ts[-1] <= t1 and params["birth_time"] < ts[0]):
                raise ConfigError(f"scenario {name!r}: the harnack times [{ts[0]:.6g}, "
                                  f"{ts[-1]:.6g}] must lie inside t_span [{t0!r}, {t1!r}] "
                                  f"and after birth_time {params['birth_time']!r}")
            if ts[-1] >= t_ext:
                late.append(f"the harnack times [{ts[0]:.6g}, {ts[-1]:.6g}]")
        if "mu_nu" in checks and 0.5 * (t0 + t1) >= t_ext:
            late.append(f"the mu/nu time {0.5 * (t0 + t1)!r}")
        if late:
            raise ConfigError(f"scenario {name!r}: {', '.join(late)} must lie before the "
                              f"extinction time {t_ext!r} of the model")
        if "entropy" in checks:
            scn.entropy_times = (
                np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), min(params["n_times"], 9))
                if torus else np.geomspace(max(t0, t1 / 100.0, 1e-3), 0.9 * t1, params["n_times"]))
        return scn


def _reject_unknown(name: str, section: str, doc: dict, known: dict) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"scenario {name!r}: unknown {section} keys {unknown}; "
                          f"known: {list(known)}")


def _is_file_name(name: str) -> bool:
    """A name for <out>/<name> and its sibling <out>/.<name>.XXXXXXXX: no
    path, no NUL, and at most 245 bytes, so the sibling fits the 255 of NAME_MAX."""
    try:
        raw = os.fsencode(name)
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return name not in (".", "..") and b"/" not in raw and b"\0" not in raw and len(raw) <= 245


@contextlib.contextmanager
def _sigterm_held():
    """Hold SIGTERM over the block and raise it again, to the handler found on
    entry, when the block ends.  It swaps the handler, not the signal mask:
    the kernel hands a signal this thread blocks to another (a BLAS thread),
    and Python runs the handler in the main thread all the same."""
    if threading.current_thread() is not threading.main_thread():
        yield  # only the main thread runs signal handlers
        return
    caught = []
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: caught.append(signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
        if caught:
            signal.raise_signal(signal.SIGTERM)


def run_scenario_doc(doc: dict, out_dir) -> dict:
    """Run one scenario document; returns the report.  Its tree is built in a
    temporary sibling <out_dir>/.<name>.*, renamed to <out_dir>/<name> (replacing
    an older tree) when the scenario finishes and removed if it raises.

    SIGTERM is held while the sibling is made and while it is removed, so a
    signal at any time leaves no sibling behind."""
    scn = Scenario.from_doc(doc)
    final = Path(out_dir) / scn.name
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = None
    try:
        with _sigterm_held():
            tmp = Path(tempfile.mkdtemp(prefix=f".{final.name}.", dir=final.parent))
        report = _run_into(scn, tmp / "new")
        with _sigterm_held():
            if final.exists():
                final.rename(tmp / "old")
            (tmp / "new").rename(final)
            shutil.rmtree(tmp)
            tmp = None
    finally:
        if tmp is not None:
            with _sigterm_held():
                shutil.rmtree(tmp)
    return report


def _run_into(scn: Scenario, out: Path) -> dict:
    series_dir, plots_dir = out / "series", out / "plots"
    series_dir.mkdir(parents=True)
    plots_dir.mkdir()

    report = {"schema": 1, "tool_version": __version__, "scenario": scn.name,
              "checks": list(scn.checks), "verdicts": {}, "fitted": {}, "residuals": {},
              "tolerances": {}, "failures": []}

    params, tols = scn.params, scn.tolerances
    h = evolve(scn.model, scn.t_span, retain_every=params["retain_every"],
               dt_cap=params["dt_cap"])
    h.export_csv(series_dir / "flow.csv")
    if h.extinct_at is not None:
        report["fitted"]["extinct_at"] = h.extinct_at
    report["verdicts"]["curvature_lower_bound"] = check_R_lower_bound(h, tol=tols["r_bound"])
    report["tolerances"]["curvature_lower_bound"] = tols["r_bound"]

    dens = None
    if scn.window is not None:
        dens = construct_immortal_density(h, scn.window, tol=tols["immortal"],
                                          dt_cap=params["dt_cap"])
        report["fitted"]["immortal_tail"] = dens.construction_tail
        report["fitted"]["immortal_cauchy_gap"] = dens.cauchy_gap
        report["verdicts"]["immortal_converged"] = dens.converged

    if "entropy" in scn.checks:
        rep = build_entropy_report(h, dens, scn.entropy_times, birth_time=params["birth_time"])
        rep.to_csv(series_dir / "entropy.csv")
        for key, val in rep.verdicts.items():
            if key == "w_plus_constant":
                # constancy marks the expander equality case; it is a
                # diagnostic unless the scenario claims an expander
                report["fitted"]["entropy.w_plus_constant"] = bool(val)
                if params["expect_constant_entropy"]:
                    report["verdicts"]["entropy.w_plus_constant"] = bool(val)
            elif isinstance(val, bool):
                report["verdicts"][f"entropy.{key}"] = val
            else:
                report["residuals"][f"entropy.{key}"] = val
        report["tolerances"]["entropy.monotonicity"] = rep.tolerances["monotonicity"]
        write_svg_chart(
            plots_dir / "entropy.svg", f"{scn.name}: monotone quantities",
            rep.times, {k: rep.columns[k] for k in ("W_plus", "N_plus", "lambda_bar", "V_tilde")},
            y_label="value",
        )

    if "harnack" in scn.checks:
        rep_h = check_harnack_identity([dens.state_at(t) for t in scn.harnack_times], h,
                                       birth_time=params["birth_time"])
        report["residuals"]["harnack.identity"] = rep_h.max_residual
        report["residuals"]["harnack.prefactor"] = rep_h.extra["prefactor"]
        report["residuals"]["harnack.steady"] = rep_h.extra["steady"]
        report["residuals"]["harnack.potential_evolution"] = rep_h.extra["potential"]
        report["verdicts"]["harnack.rhs_nonnegative"] = rep_h.rhs_min >= 0.0
        report["verdicts"]["harnack.identity_below_tol"] = rep_h.max_residual <= tols["harnack"]
        report["tolerances"]["harnack"] = tols["harnack"]

    if "mu_nu" in scn.checks:
        m_mid = h.metric_at(0.5 * (scn.t_span[0] + scn.t_span[1]))
        mu_rows = []
        for s in params["sigmas"]:
            res = mu_plus(m_mid, float(s))
            mu_rows.append([float(s), res.value, float(res.converged)])
        write_csv(series_dir / "mu_plus.csv", ["sigma", "mu_plus", "converged"], mu_rows)
        # second divided differences: concavity in sigma at uneven samples
        sig, vals = np.array(mu_rows)[:, :2].T
        d2 = np.diff(np.diff(vals) / np.diff(sig)) / (sig[2:] - sig[:-2])
        report["verdicts"]["mu.concave_on_samples"] = bool(np.all(d2 <= 1e-8))
        nu = nu_plus(m_mid)
        report["fitted"].update(nu_plus=nu.value, nu_sigma_star=nu.sigma_star,
                                nu_status=nu.status, lambda_at_mid=nu.lambda_value)

    if {"reduced", "theta"} & set(scn.checks):
        reduced_field, extra = _build_reduced_field(scn, h)
        reduced_field.to_csv(series_dir / "reduced_field.csv")
        report["fitted"].update(extra)
        rep_r = check_reduced_field(reduced_field, h)

    if "reduced" in scn.checks:
        report["residuals"]["reduced.identity"] = rep_r.identity
        report["residuals"]["reduced.worst_inequality"] = max(
            rep_r.lap_bound, rep_r.subsolution, rep_r.heat_form, rep_r.entropy_form)
        report["residuals"]["reduced.excluded_fraction"] = rep_r.excluded_fraction
        report["verdicts"]["reduced.inequalities_hold"] = (
            rep_r.worst_violation <= tols["inequalities"])
        report["tolerances"]["reduced.inequalities"] = tols["inequalities"]
        gap = reduced_field.oracle_rel_gap
        if gap is not None:
            report["residuals"]["reduced.oracle_rel_gap"] = gap
            report["verdicts"]["reduced.oracle_agrees"] = gap <= 1e-3

    if "theta" in scn.checks:
        series = theta_plus(reduced_field, h)
        series.to_csv(series_dir / "theta.csv")
        report["verdicts"]["theta.nonincreasing"] = series.monotone_ok
        report["verdicts"]["theta.lower_bound"] = series.bound_ok
        report["residuals"]["theta.max_violation"] = series.max_violation
        report["residuals"]["theta.supersolution_max"] = rep_r.supersolution_max
        if h.kind == "model_space":
            report["fitted"]["theta.spread"] = float(np.max(series.theta) - np.min(series.theta))
        write_svg_chart(
            plots_dir / "theta.svg", f"{scn.name}: forward reduced volume",
            series.times, {"theta": series.theta, "lower_bound": series.lower_bound},
            y_label="theta",
        )

    if "asymptotics" in scn.checks:
        rep_a = asymptotics_report(h, dens)
        w_pred = rep_a.w_plus_limit_predicted
        report["fitted"].update(
            v_tilde_inf=rep_a.v_tilde_inf, collapsed=rep_a.collapsed,
            w_plus_limit_fit=rep_a.w_plus_limit_fit,
            w_plus_limit_predicted=None if math.isinf(w_pred) else w_pred,
            lambda_bar_limit_fit=rep_a.lambda_bar_limit_fit,
            lambda_bar_limit_predicted=rep_a.lambda_bar_limit_predicted,
            w_plus_log_growth_rate=rep_a.w_plus_log_growth_rate)
        if not rep_a.collapsed:
            gap = abs(rep_a.w_plus_limit_fit - w_pred)
            report["residuals"]["asymptotics.w_limit_gap"] = gap
            report["verdicts"]["asymptotics.limits_match"] = gap <= tols["asymptotics"]
        t0, t1 = scn.t_span
        p15 = long_time_residual_integral(
            h, dens, dens.window if h.kind == "conformal_torus"
            else (max(t0, t1 / 100.0, 1e-2), 0.9 * t1))
        report["fitted"].update(residual_integral=p15.integral,
                                residual_decay_exponent=p15.decay_exponent)

    if "blowdown" in scn.checks:
        alpha = params["alpha"]
        t_lo, t_hi = h.t_min / alpha, h.t_max / alpha
        worst = blowdown_gap(h, alpha, np.geomspace(max(t_lo, t_hi / 50.0, 1e-4), 0.9 * t_hi, 5))
        report["residuals"]["blowdown.invariance_gap"] = worst
        report["verdicts"]["blowdown.scale_invariant"] = worst <= tols["blowdown"]
        report["tolerances"]["blowdown"] = tols["blowdown"]

    report["failures"] = [k for k, v in report["verdicts"].items() if v is False]
    write_json(out / "report.json", report)
    return report


def _build_reduced_field(scn: Scenario, h):
    if h.kind == "model_space":
        radii = np.asarray(scn.params["radii"])
        if h.metric_at(h.t_min).scale < 1e-6:  # flow born at zero size: regularized ladder
            fields = [ell_plus_field(h, radii, scn.field_times, eps=e) for e in EPS_LADDER]
            return extrapolate_fields(fields), {"reduced_eps_ladder": list(EPS_LADDER)}
        return ell_plus_field(h, radii, scn.field_times, eps=0.0), {}
    fld = ell_plus_field(h, scn.params["target_grid"], scn.field_times,
                         oracle_check=scn.params["oracle_check"])
    return fld, {}


def builtin_scenarios() -> dict:
    """Name -> importlib resource path of the packaged scenario configs."""
    root = resources.files("expanderlab") / "scenarios"
    return {e.name[:-5]: e for e in sorted(root.iterdir(), key=lambda e: e.name)
            if e.name.endswith(".json")}


def run_scenario(config_path, out_dir) -> int:
    """Run a scenario config file; returns the process exit code."""
    path = Path(config_path)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    docs = doc.get("scenarios", [doc]) if isinstance(doc, dict) else None
    if not docs:
        print(f"error: {path}: expected a scenario object or a scenarios list",
              file=sys.stderr)
        return 2
    try:
        scenarios = [Scenario.from_doc(d) for d in docs]
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        print(f"error: {path}: scenario names must be unique per run", file=sys.stderr)
        return 2
    out = Path(out_dir) if out_dir else path.parent / "lab_out"
    exit_code = 0
    for d in docs:
        rep = run_scenario_doc(d, out)
        status = "ok" if not rep["failures"] else f"FAILED: {', '.join(rep['failures'])}"
        print(f"{rep['scenario']}: {status}  -> {out / rep['scenario'] / 'report.json'}")
        exit_code = exit_code if not rep["failures"] else 1
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="desk-scale monotonicity laboratory for long-time curvature flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a scenario JSON config")
    p_run.add_argument("--out", default=None, help="output directory")
    sub.add_parser("accept", help="run the acceptance suite")
    sub.add_parser("list", help="list packaged scenario configs")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so a run removes its temporary sibling
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.command == "run":
            return run_scenario(args.config, args.out)
        if args.command == "accept":
            from .acceptance import run_acceptance

            results = run_acceptance()
            return 0 if all(r.passed for r in results) else 1
        for name, entry in builtin_scenarios().items():  # the command is "list"
            doc = json.loads(entry.read_text())
            desc = doc.get("description", "")
            print(f"{name:<24s} {desc}")
            print(f"{'':<24s} config: {entry}")
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
