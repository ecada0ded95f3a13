"""Monotone functionals of the flow: energy, entropies, eigenvalues, limits.

Conventions shared by every function here: u is a positive density with
unit mass against the model's volume measure, sigma > 0 is the vertex
offset (t - T along a flow), and the potential f is defined through
u = exp(-f)/(4 pi sigma)^(n/2).

The expander entropy is computed in its density form

    W(g, u, sigma) = int [ sigma (|grad f|^2 + R) - f + n ] u dv

with grad f taken as -grad u / u at the stencil level.  The entropy
report cross-checks it against the independent assembly sigma*F_+ + N_+
built from the energy and Nash entropy (its decomposition_gap); the
two routes share the Dirichlet integrand but test the potential
bookkeeping against each other to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate_heat import ImmortalDensity, log_potential
from .flow import FlowHistory, blowdown, scaled_volume
from .geometry import (
    ConformalTorusMetric,
    MetricModel,
    curvature,
    grad_norm_sq,
    integrate,
    laplacian,
    laplacian_symbol,
    measure_weights,
    soliton_residual_sq,
    spectral_preconditioner,
    volume,
)
from .numerics import five_point, maximize_concave_1d, minimize_constrained, smallest_eigenpair

__all__ = [
    "TOL_ODE",
    "TOL_GRID",
    "f_energy",
    "nash_entropy",
    "expander_entropy",
    "expander_residual",
    "lambda_min",
    "lambda_bar",
    "mu_plus",
    "nu_plus",
    "MuPlusResult",
    "NuPlusResult",
    "EntropyReport",
    "build_entropy_report",
    "AsymptoticsReport",
    "asymptotics_report",
    "blowdown_gap",
    "Prop15Report",
    "long_time_residual_integral",
]

# default verdict tolerances: exact-in-ODE claims vs grid-discretized claims
TOL_ODE = 1e-8
TOL_GRID = 1e-4


def f_energy(m: MetricModel, u) -> float:
    """Energy int (|grad u|^2/u + R u) dv of a unit-mass density."""
    r = curvature(m).scalar
    return integrate(m, grad_norm_sq(m, u) / u + r * u)


def nash_entropy(m: MetricModel, u, sigma: float):
    """Entropy int u log u dv and its sigma-normalized companion."""
    n_val = integrate(m, u * np.log(u))
    n_plus = n_val + 0.5 * m.dim * math.log(4.0 * math.pi * sigma) + 0.5 * m.dim
    return n_val, n_plus


def expander_entropy(m: MetricModel, u, sigma: float) -> float:
    """Expander entropy W(g, u, sigma) in its density form; see the module docstring."""
    n = m.dim
    r = curvature(m).scalar
    f = log_potential(u, sigma, n)
    dirichlet = integrate(m, grad_norm_sq(m, u) / u)
    return sigma * (dirichlet + integrate(m, r * u)) + integrate(m, (n - f) * u)


def expander_residual(m: MetricModel, u, sigma: float) -> float:
    """Monotonicity rate: int 2 sigma u |Ricci + Hess f + g/(2 sigma)|^2 dv.

    Nonnegative always; zero exactly when the slice solves the expanding
    soliton equation with vertex offset sigma.
    """
    f = log_potential(u, sigma, m.dim)
    return integrate(m, 2.0 * sigma * u * soliton_residual_sq(m, f, sigma))


# ---------------------------------------------------------------------------
# first eigenvalue of the energy functional

def lambda_min(m: MetricModel) -> float:
    """Infimum of the energy over unit-mass densities.

    Realized as the ground eigenvalue of -4 lap + R acting on w with
    u = w^2, by shifted inverse power iteration (shift min R - 1 keeps
    the shifted operator positive definite).
    """
    r = curvature(m).scalar
    if not isinstance(m, ConformalTorusMetric):
        # spatially constant representation: ground state is the constant
        return float(r)
    shift = float(np.min(r)) - 1.0
    measure = measure_weights(m)

    def op(w):
        return -4.0 * laplacian(m, w) + r * w

    # preconditioner: multiplying (-4 lap_g + R - shift) w = v by the conformal
    # factor gives (-4 lap0 + e^(2 phi)(R - shift)) w = e^(2 phi) v, so the FFT
    # solve of the weighted residual both approximates the inverse and stays
    # self-adjoint in dv (as the inner CG needs)
    e2p = np.exp(2.0 * m.phi)
    c0 = max(float(np.mean(e2p * (r - shift))), 1e-6)
    solve = spectral_preconditioner(c0 - 4.0 * laplacian_symbol(m.phi.shape, m.spacing))
    res = smallest_eigenpair(op, measure, shift, abs_tol=1e-10, max_iter=200,
                             precond=lambda v: solve(e2p * v))
    return res.value


def lambda_bar(m: MetricModel) -> float:
    """Volume-scaled first eigenvalue V^(2/n) * lambda."""
    lam = lambda_min(m)
    return volume(m) ** (2.0 / m.dim) * lam


# ---------------------------------------------------------------------------
# variational functionals

@dataclass
class MuPlusResult:
    value: float
    minimizer_u: object
    converged: bool


@dataclass
class NuPlusResult:
    status: str  # "ok" or "unbounded"
    value: float | None
    sigma_star: float | None
    lambda_value: float


def _entropy_in_w_problem(m: MetricModel, sigma: float):
    n = m.dim
    r = curvature(m).scalar
    const = 0.5 * n * math.log(4.0 * math.pi * sigma) + n

    def functional(w):
        w2 = w * w
        ent = w2 * np.log(np.maximum(w2, 1e-300))
        return integrate(m, sigma * (-4.0 * w * laplacian(m, w) + r * w2) + ent) + const

    def gradient(w):
        safe = np.maximum(w * w, 1e-300)
        return (
            2.0 * sigma * (-4.0 * laplacian(m, w) + r * w)
            + 2.0 * w * np.log(safe)
            + 2.0 * w
        )

    def inner(a, b):
        return integrate(m, a * b)

    def normalize(w):
        w = np.abs(w)
        return w / math.sqrt(max(inner(w, w), 1e-300))

    precond = None
    if isinstance(m, ConformalTorusMetric):
        c_bar = float(np.mean(np.exp(-2.0 * m.phi)))
        precond = spectral_preconditioner(
            2.0 - 8.0 * sigma * c_bar * laplacian_symbol(m.phi.shape, m.spacing))
    return functional, gradient, inner, normalize, precond


def mu_plus(m: MetricModel, sigma: float) -> MuPlusResult:
    """Infimum of the expander entropy over unit-mass densities at fixed sigma.

    Substitutes u = w^2 and minimizes over the unit sphere of w by
    projected gradient descent from the constant density.  The Dirichlet
    term is written -4 w lap w, the form the gradient differentiates, so
    the discrete functional is the one the descent minimizes; it is
    strictly convex in u, so one start finds its minimum.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    functional, gradient, inner, normalize, precond = _entropy_in_w_problem(m, sigma)
    if not isinstance(m, ConformalTorusMetric):
        w = 1.0 / math.sqrt(volume(m))
        value = functional(w)
        return MuPlusResult(value, w * w, True)
    res = minimize_constrained(functional, gradient, normalize, inner, np.ones_like(m.phi),
                               abs_tol=3e-7, max_iter=4000, precond=precond)
    return MuPlusResult(res.value, res.w * res.w, res.converged)


def nu_plus(m: MetricModel) -> NuPlusResult:
    """Supremum of mu over sigma > 0.

    Finite exactly when the first eigenvalue is negative; the positive
    case surfaces as the structured "unbounded" outcome of the bracket
    expansion (the profile keeps rising in sigma).
    """
    lam = lambda_min(m)
    if lam < 0:
        center = -m.dim / (2.0 * lam)
        bracket = (center / 16.0, center * 16.0)
    else:
        bracket = (0.25, 4.0)
    res = maximize_concave_1d(lambda s: mu_plus(m, s).value, bracket,
                              abs_tol=1e-7, max_iter=10_000)
    if res.status == "unbounded":
        return NuPlusResult("unbounded", None, None, lam)
    return NuPlusResult("ok", res.value, res.x, lam)


# ---------------------------------------------------------------------------
# per-time report

@dataclass
class EntropyReport:
    """Per-time table of the monotone quantities with verdicts.

    Columns: t, F, F_plus = F + n/2t, N, N_plus, W_plus, FD time
    derivative of W_plus, the monotonicity rate (soliton-residual
    integral), lambda, lambda_bar, scaled volume.  The decomposition
    W_plus = t F_plus + N_plus holds to round-off and is recorded as a
    gap column.
    """

    times: np.ndarray
    columns: dict
    verdicts: dict
    tolerances: dict

    def to_csv(self, path) -> None:
        from .reports import write_csv

        names = ["t"] + list(self.columns.keys())
        rows = [
            [self.times[i]] + [self.columns[k][i] for k in self.columns]
            for i in range(len(self.times))
        ]
        write_csv(path, names, rows)


def build_entropy_report(h: FlowHistory, dens: ImmortalDensity, times,
                         birth_time: float | None) -> EntropyReport:
    """Assemble the entropy table along a flow with its limit density.

    The vertex offset follows the flow time (sigma = t); a separate
    column evaluates the entropy at the flow's own vertex offset
    sigma = t - birth_time (the history's birth time if None), on
    which the constancy verdict is based -- the expander equality case
    is constant in that gauge only.  The FD derivative of the entropy
    uses the five-point stencil on dense evaluations, so the cross-check
    against the monotonicity rate is fourth order in the half-step.
    """
    times = np.asarray(times, dtype=float)
    n = h.dim
    if birth_time is None:
        birth_time = h.birth_time
    tol_mono = TOL_GRID if h.kind == "conformal_torus" else TOL_ODE
    cols = {k: [] for k in (
        "F", "F_plus", "N", "N_plus", "W_plus", "W_plus_vertex", "dW_dt_fd",
        "rate_rhs", "lambda", "lambda_bar", "V_tilde", "decomposition_gap",
    )}

    def w_at(t):
        s = dens.state_at(t)
        return expander_entropy(h.metric_at(t), s.u, t)

    for t in times:
        m = h.metric_at(t)
        s = dens.state_at(t)
        f_val = f_energy(m, s.u)
        f_plus = f_val + n / (2.0 * t)
        n_val, n_plus = nash_entropy(m, s.u, t)
        w_plus = expander_entropy(m, s.u, t)
        lam = lambda_min(m)
        lbar = volume(m) ** (2.0 / n) * lam
        delta = min(0.005 * max(1.0, t), 0.05 * t)
        lo = dens.window[0] if h.kind == "conformal_torus" else h.t_min
        hi = dens.window[1] if h.kind == "conformal_torus" else h.t_max
        delta = min(delta, 0.49 * (t - lo), 0.49 * (hi - t)) if hi > t and t > lo else 0.0
        if delta > 0:
            dw = five_point(w_at(t - 2 * delta), w_at(t - delta), w_at(t + delta),
                            w_at(t + 2 * delta), delta)
        else:
            dw = math.nan
        cols["F"].append(f_val)
        cols["F_plus"].append(f_plus)
        cols["N"].append(n_val)
        cols["N_plus"].append(n_plus)
        cols["W_plus"].append(w_plus)
        cols["W_plus_vertex"].append(
            expander_entropy(m, s.u, t - birth_time) if t > birth_time else math.nan
        )
        cols["dW_dt_fd"].append(dw)
        cols["rate_rhs"].append(expander_residual(m, s.u, t))
        cols["lambda"].append(lam)
        cols["lambda_bar"].append(lbar)
        cols["V_tilde"].append(scaled_volume(h, t))
        cols["decomposition_gap"].append(abs(w_plus - (t * f_plus + n_plus)))

    cols = {k: np.asarray(v) for k, v in cols.items()}

    def nondecreasing(v, tol):
        return bool(np.all(np.diff(v) >= -tol))

    fd_ok = np.isfinite(cols["dW_dt_fd"])
    verdicts = {
        "w_plus_nondecreasing": nondecreasing(cols["W_plus"], tol_mono),
        "n_plus_nondecreasing": nondecreasing(cols["N_plus"], tol_mono),
        "lambda_bar_nondecreasing": nondecreasing(cols["lambda_bar"], tol_mono),
        "v_tilde_nonincreasing": nondecreasing(-cols["V_tilde"], tol_mono),
        "decomposition_gap_max": float(np.max(cols["decomposition_gap"])),
        "fd_vs_rate_gap_max": float(
            np.max(np.abs(cols["dW_dt_fd"][fd_ok] - cols["rate_rhs"][fd_ok]))
        ) if np.any(fd_ok) else math.nan,
        "f_energy_bounds_ok": bool(
            np.all(cols["F"] >= -n / (2.0 * times) - tol_mono)
            and np.all(cols["F"] <= tol_mono)
        ),
        "w_plus_constant": bool(
            np.max(cols["W_plus_vertex"]) - np.min(cols["W_plus_vertex"]) <= tol_mono
        ) if np.all(np.isfinite(cols["W_plus_vertex"])) else False,
    }
    tolerances = {"monotonicity": tol_mono}
    return EntropyReport(times, cols, verdicts, tolerances)


# ---------------------------------------------------------------------------
# long-time limits

@dataclass
class AsymptoticsReport:
    v_tilde_inf: float
    collapsed: bool
    w_plus_limit_fit: float
    w_plus_limit_predicted: float
    lambda_bar_limit_fit: float
    lambda_bar_limit_predicted: float
    w_plus_log_growth_rate: float


def _tail_fit_inverse(ts, vals) -> float:
    """Least-squares fit of a + b/t over the sampled tail; returns a."""
    return float(np.polyfit(1.0 / np.asarray(ts), np.asarray(vals), 1)[1])


def asymptotics_report(h: FlowHistory, dens: ImmortalDensity) -> AsymptoticsReport:
    """Tail-extrapolated limits of the entropy, eigenvalue, and volume.

    Fits a + b/t over the last decade of the history (on the torus, of
    the density window, cut at the window's start) and compares the
    extrapolated entropy and scaled eigenvalue against the values
    predicted from the scaled-volume limit alone.  A collapsing flow
    (scaled volume tending to zero) is reported as such; the entropy
    then grows like (n/2) log t and the fitted growth rate is recorded
    instead.
    """
    n = h.dim
    t_lo, t_hi = h.t_max / 10.0, h.t_max
    if h.kind == "conformal_torus":  # the torus density lives on its window only
        lo, hi = dens.window
        t_lo, t_hi = max(hi / 10.0, lo), hi
    ts = np.geomspace(t_lo, t_hi, 17)
    v_tilde = np.array([scaled_volume(h, t) for t in ts])
    w_vals = np.array(
        [expander_entropy(h.metric_at(t), dens.state_at(t).u, t) for t in ts]
    )
    lbar_vals = np.array([lambda_bar(h.metric_at(t)) for t in ts])
    v_inf = _tail_fit_inverse(ts, v_tilde)
    collapsed = v_inf <= max(1e-10, 1e-3 * v_tilde[-1])
    v_inf = max(v_inf, 0.0)
    w_fit = _tail_fit_inverse(ts, w_vals)
    lbar_fit = _tail_fit_inverse(ts, lbar_vals)
    growth = float(np.polyfit(np.log(ts), w_vals, 1)[0])
    if collapsed:
        w_pred = math.inf
        lbar_pred = 0.0
    else:
        w_pred = -math.log(v_inf) + 0.5 * n * (1.0 + math.log(4.0 * math.pi))
        lbar_pred = -0.5 * n * v_inf ** (2.0 / n)
    return AsymptoticsReport(
        v_tilde_inf=v_inf,
        collapsed=collapsed,
        w_plus_limit_fit=w_fit,
        w_plus_limit_predicted=w_pred,
        lambda_bar_limit_fit=lbar_fit,
        lambda_bar_limit_predicted=lbar_pred,
        w_plus_log_growth_rate=growth,
    )


def blowdown_gap(h: FlowHistory, alpha: float, times) -> float:
    """Largest change under the blowdown g(alpha t)/alpha at the given times.

    Compares the blowdown at t with the flow at alpha t in three scale-
    invariant quantities: the expander entropy of the uniform density,
    the scaled volume and lambda_bar.
    """
    bd = blowdown(h, alpha)
    worst = 0.0
    for t in times:
        m_b, m_s = bd.metric_at(t), h.metric_at(alpha * t)
        u_b, u_s = 1.0 / volume(m_b), 1.0 / volume(m_s)
        if h.kind == "conformal_torus":
            u_b = np.full(m_b.phi.shape, u_b)
            u_s = np.full(m_s.phi.shape, u_s)
        worst = max(worst, abs(expander_entropy(m_b, u_b, t)
                               - expander_entropy(m_s, u_s, alpha * t)))
        worst = max(worst, abs(scaled_volume(bd, t) - scaled_volume(h, alpha * t)))
        worst = max(worst, abs(lambda_bar(m_b) - lambda_bar(m_s)))
    return worst


@dataclass
class Prop15Report:
    integral: float
    decay_exponent: float


def long_time_residual_integral(h: FlowHistory, dens: ImmortalDensity,
                                t_range) -> Prop15Report:
    """Residual integral of the rescaled flow in logarithmic time.

    The integrand at log-time is t^2 int u |Ricci + Hess f + g/(2t)|^2 dv
    (the rescaled-metric residual; both inverse metrics contribute a
    factor t).  Reports the window integral and the fitted decay
    exponent of the integrand in t; boundedness of the growing-window
    integral requires a noncollapsing scaled volume, and the collapsed
    case shows the integrand flat at n/4.
    """
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    ts = np.geomspace(t_lo, t_hi, 33)
    vals = []
    for t in ts:
        m = h.metric_at(t)
        u = dens.state_at(t).u
        f = log_potential(u, t, h.dim)
        vals.append(t * t * integrate(m, u * soliton_residual_sq(m, f, t)))
    vals = np.asarray(vals)
    log_t = np.log(ts)
    integral = float(np.trapezoid(vals, log_t))
    positive = vals > 1e-300
    if np.count_nonzero(positive) >= 2:
        exponent = float(np.polyfit(log_t[positive], np.log(vals[positive]), 1)[0])
    else:
        exponent = -math.inf
    return Prop15Report(integral, exponent)
