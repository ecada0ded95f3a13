"""Deterministic numerical kernels shared by the lab.

Provides the small set of generic solvers the geometric modules are built
on: an adaptive embedded Runge-Kutta integrator with cubic dense output,
the cubic Hermite interpolant and five-point time derivative shared by
sampled histories, preconditioned conjugate gradients, a shifted
inverse-power smallest-eigenpair solver, golden-section
maximization of a concave function with bracket auto-expansion,
and projected-gradient minimization on the unit sphere of a weighted
L2 space.

All kernels are pure functions of their arguments (no global state, no
hidden randomness) and are safe to call from parallel workers.  Fields
are plain numpy arrays (a scalar field on a homogeneous space is a
0-d array or float); inner products are taken against explicit measure
weights so the same code serves grid and reduced representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OdeTrajectory",
    "OdeFailure",
    "EigenFailure",
    "CGFailure",
    "EigenResult",
    "ConcaveMaxResult",
    "ConstrainedMinResult",
    "integrate_ode",
    "smallest_eigenpair",
    "maximize_concave_1d",
    "minimize_constrained",
    "conjugate_gradient",
    "hermite_interval",
    "hermite_cubic",
    "hermite_rows",
    "five_point",
    "time_derivative",
]


class OdeFailure(RuntimeError):
    """Raised when an integration aborts on non-finite state."""

    def __init__(self, message: str, t_last: float, y_last: np.ndarray):
        super().__init__(message)
        self.t_last = t_last
        self.y_last = y_last


# Dormand-Prince 5(4) tableau.  The fifth-order solution is propagated;
# the embedded fourth-order one supplies the local error estimate.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


@dataclass
class OdeTrajectory:
    """Accepted-step samples of an ODE solution with cubic dense output.

    Dense evaluation uses the Hermite cubic on each accepted step, built
    from the stored states and right-hand-side values at the step ends.
    status is "completed", "truncated" (step-size underflow: the last
    valid time is reported) or "halted" (a caller-supplied stop
    predicate fired).
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    status: str = "completed"
    message: str = ""

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def __call__(self, t):
        if np.ndim(t) == 0:
            i, s, h = hermite_interval(self.times, float(t), 1e-12)
            return hermite_cubic(s, h, self.states[i], self.derivs[i],
                                 self.states[i + 1], self.derivs[i + 1])
        return hermite_rows(self.times, self.states, self.derivs, t, 1e-12)


def hermite_interval(times: np.ndarray, t: float, slack: float):
    """Sample interval i, local coordinate s in [0, 1] and width h of t.

    t may lie up to slack * (1 + |end|) beyond the ends of the increasing
    sample times, where it is clamped; farther out is a ValueError.
    Scalar-only: hermite_rows is the batched lookup.
    """
    lo, hi = times[0], times[-1]
    if not lo - slack * (1 + abs(lo)) <= t <= hi + slack * (1 + abs(hi)):
        raise ValueError(f"time {t} outside the sampled range [{lo}, {hi}]")
    t = min(max(t, lo), hi)
    i = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
    h = times[i + 1] - times[i]
    return i, (t - times[i]) / h, h


def _hermite_basis(s, s2, s3):
    """Cubic Hermite basis h00, h10, h01, h11 at s, from s, s^2 and s^3."""
    return 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2


def hermite_cubic(s, h, ya, fa, yb, fb):
    """Cubic Hermite interpolant at local coordinate s of an interval of
    width h with end values ya, yb and end slopes fa, fb."""
    h00, h10, h01, h11 = _hermite_basis(s, s**2, s**3)
    return h00 * ya + h10 * h * fa + h01 * yb + h11 * h * fb


def hermite_rows(times: np.ndarray, values: np.ndarray, slopes: np.ndarray, ts, slack: float):
    """hermite_interval + hermite_cubic at each of the times ts in one pass:
    rows (len(ts), n) from samples values, slopes (len(times), n).

    Every row has the bits of the per-time evaluation: the range check,
    clamp and interval are the scalar ones elementwise, and the terms are
    summed in hermite_cubic's order.  The powers of s come from Python
    floats, because numpy's array ** rounds differently from its scalar **.
    """
    ts = np.asarray(ts, dtype=float)
    lo, hi = times[0], times[-1]
    inside = (lo - slack * (1 + abs(lo)) <= ts) & (ts <= hi + slack * (1 + abs(hi)))
    if not np.all(inside):
        t = float(ts[np.argmin(inside)])
        raise ValueError(f"time {t} outside the sampled range [{lo}, {hi}]")
    ts = np.where(lo > ts, lo, ts)  # min(max(t, lo), hi) as the scalar path
    ts = np.where(hi < ts, hi, ts)
    i = np.minimum(np.searchsorted(times, ts, side="right") - 1, len(times) - 2)
    h = times[i + 1] - times[i]
    s = (ts - times[i]) / h
    s_list = s.tolist()
    h00, h10, h01, h11 = _hermite_basis(s, np.array([x**2 for x in s_list]),
                                        np.array([x**3 for x in s_list]))
    # in place through one scratch array: two (len(ts), n) arrays live at a time
    out = np.take(values, i, axis=0)
    out *= h00[:, None]
    term = np.empty_like(out)
    for rows, k, w in ((slopes, i, h10 * h), (values, i + 1, h01), (slopes, i + 1, h11 * h)):
        np.take(rows, k, axis=0, out=term, mode="clip")  # unbuffered; k is in range
        term *= w[:, None]
        out += term
    return out


def five_point(f_m2, f_m1, f_p1, f_p2, d: float):
    """Fourth-order centered first derivative from the samples at -2d, -d, +d, +2d."""
    return (-f_p2 + 8 * f_p1 - 8 * f_m1 + f_m2) / (12 * d)


def time_derivative(fields, times):
    """Interior time derivatives of sampled fields, with interior indices.

    Uses the five-point fourth-order stencil when five or more uniformly
    spaced samples are available (the homogeneous checks need residuals
    at the 1e-8 scale), otherwise centered differences.
    """
    times = np.asarray(times, dtype=float)
    k = len(times)
    if k < 3:
        raise ValueError("need at least 3 consecutive states")
    steps = np.diff(times)
    uniform = np.max(np.abs(steps - steps[0])) < 1e-9 * steps[0]
    if uniform and k >= 5:
        idx = list(range(2, k - 2))
        out = [five_point(fields[i - 2], fields[i - 1], fields[i + 1], fields[i + 2], steps[0])
               for i in idx]
    else:
        idx = list(range(1, k - 1))
        out = [(fields[i + 1] - fields[i - 1]) / (times[i + 1] - times[i - 1]) for i in idx]
    return out, idx


def _dp_combine(y, h, coeffs, k):
    """y + h * (0 + c0 k0 + c1 k1 + ...) per component, in numpy's order."""
    out = []
    for yj, kj in zip(y, zip(*k)):
        acc = 0.0
        for c, v in zip(coeffs, kj):
            acc += c * v
        out.append(yj + h * acc)
    return out


# steps, accepted or rejected on their error, that integrate_ode takes before it truncates
ODE_STEP_BUDGET = 1_000_000


def integrate_ode(rhs, y0, t0: float, t1: float, *, abs_tol: float, rel_tol: float,
                  stop=None, max_step=None) -> OdeTrajectory:
    """Adaptive embedded Runge-Kutta integration of y' = rhs(t, y).

    Steps are accepted when the embedded local error estimate, in the
    norm scaled by abs_tol + rel_tol |y|, is below one; step sizes follow a PI
    controller.  Dense output is the cubic Hermite interpolant between
    accepted steps.  rhs maps a 1-D array to one; the stages are built in
    Python floats in numpy's order of operations, so with numpy's bits.

    stop, if given, is a predicate stop(t, y); when it first becomes
    true the trajectory is truncated at the crossing (bisected on the
    dense output) with status "halted".  Step-size underflow returns the
    partial trajectory with status "truncated", as does running past
    ODE_STEP_BUDGET steps; non-finite states raise
    OdeFailure.  max_step, if given, is a callable of t giving the
    largest step there (callers cap steps where the cubic dense output
    must stay at interpolation accuracy well below the step-control
    tolerance).
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    span = t1 - t0
    t = t0
    f = np.asarray(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise OdeFailure("non-finite right-hand side at initial state", t, y)

    # initial step heuristic
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f / scale) ** 2)))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6 * span
    h = min(h, span / 10)
    if max_step is not None:
        h = min(h, max_step(t))

    times = [t]
    states = [y.copy()]  # y as an array; per-step float lists raise the peak RSS
    derivs = [f.copy()]
    y, f = y.tolist(), f.tolist()
    err_prev = 1.0
    status, message = "completed", ""
    n_steps = 0
    h_floor = 1e-14 * span

    while t < t1:
        if n_steps > ODE_STEP_BUDGET:
            status, message = "truncated", "step budget exhausted"
            break
        h = min(h, t1 - t)
        k = [f]
        for i in range(1, 7):
            yi = _dp_combine(y, h, _DP_A[i], k)
            ki = np.asarray(rhs(t + _DP_C[i] * h, np.array(yi)), dtype=float).tolist()
            if not all(map(math.isfinite, ki)):
                break
            k.append(ki)
        if len(k) < 7:  # a non-finite stage
            h *= 0.25
            if h < h_floor:
                status, message = "truncated", "step size underflow (non-finite stages)"
                break
            continue
        y_new = _dp_combine(y, h, _DP_B5, k)
        y4 = _dp_combine(y, h, _DP_B4, k)
        if not all(map(math.isfinite, y_new)):
            raise OdeFailure("non-finite state during integration", t, states[-1])
        y_new_arr = np.array(y_new)
        scale = abs_tol + rel_tol * np.maximum(np.abs(states[-1]), np.abs(y_new_arr))
        err = float(np.sqrt(np.mean(((y_new_arr - np.array(y4)) / scale) ** 2)))
        if err <= 1.0:
            t_new = t + h
            f_new = k[6]  # FSAL stage equals rhs at the new point
            times.append(t_new)
            states.append(y_new_arr)
            derivs.append(np.array(f_new))
            if stop is not None and stop(t_new, y_new_arr):
                status, message = "halted", "stop predicate fired"
                break
            fac = 0.9 * max(err, 1e-10) ** -0.14 * max(err_prev, 1e-10) ** -0.04
            err_prev = max(err, 1e-10)
            t, y, f = t_new, y_new, f_new
            h *= min(6.0, max(0.2, fac))
        else:
            h *= max(0.2, 0.9 * err**-0.2)
        if max_step is not None:
            h = min(h, max_step(t))
        if h < h_floor:
            status, message = "truncated", "step size underflow"
            break
        n_steps += 1

    traj = OdeTrajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        derivs=np.asarray(derivs),
        status=status,
        message=message,
    )
    if status == "halted" and stop is not None and len(times) >= 2:
        # bisect the dense output for the earliest crossing on the last step
        ta, tb = times[-2], times[-1]
        for _ in range(80):
            tm = 0.5 * (ta + tb)
            if stop(tm, traj(tm)):
                tb = tm
            else:
                ta = tm
            if tb - ta <= 1e-13 * (1.0 + abs(tb)):
                break
        yb = traj(tb)
        traj.times = np.append(traj.times[:-1], tb)
        traj.states = np.vstack([traj.states[:-1], yb])
        traj.derivs = np.vstack([traj.derivs[:-1], np.asarray(rhs(tb, yb), dtype=float)])
    return traj


class CGFailure(RuntimeError):
    """Raised when conjugate gradients meets a non-finite residual."""


def conjugate_gradient(apply_a, b: np.ndarray, weight: np.ndarray,
                       precond=None, *, rel_tol: float,
                       max_iter: int = 2000, x0: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free preconditioned CG in the weighted L2 inner product.

    apply_a must be self-adjoint positive definite with respect to
    <f, g> = sum(f * g * weight).  weight may be a scalar, an array
    shaped like b, or None for the plain Euclidean product.  x0 is the
    initial guess (zero by default); the iteration stops once the
    residual norm is below rel_tol * |b| (tested before the
    preconditioner, so an x0 that already meets it costs no call).  A
    non-finite residual raises CGFailure at once: no iteration recovers it.
    """

    def inner(u, v):
        return float(np.sum(u * v if weight is None else u * v * weight))

    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - apply_a(x)
    b_norm = math.sqrt(max(inner(b, b), 1e-300))
    p = None
    for k in range(max_iter):
        rr = inner(r, r)
        if not math.isfinite(rr):
            raise CGFailure(f"conjugate gradients: residual turned non-finite "
                            f"after {k} iterations")
        if math.sqrt(max(rr, 0.0)) <= rel_tol * b_norm:
            return x
        z = precond(r) if precond is not None else r
        rz_new = inner(r, z)
        p = z.copy() if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = apply_a(p)
        alpha = rz / inner(p, ap)
        x += alpha * p
        r -= alpha * ap
    return x


class EigenFailure(RuntimeError):
    """Eigen-iteration did not meet its residual tolerance."""

    def __init__(self, message: str, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


@dataclass
class EigenResult:
    value: float
    vector: np.ndarray
    residuals: list = field(default_factory=list)


def smallest_eigenpair(apply_operator, measure, shift: float, *, abs_tol: float,
                       max_iter: int, w0: np.ndarray | None = None,
                       precond=None) -> EigenResult:
    """Ground eigenpair of a self-adjoint operator by shifted inverse iteration.

    apply_operator maps fields to fields and is self-adjoint in the
    measure-weighted inner product; shift must lie strictly below the
    smallest eigenvalue so the shifted operator is positive definite
    (callers use min of the potential minus one).  The eigenfunction is
    returned with unit weighted L2 norm and positive mean sign.

    Raises EigenFailure with the residual history if max_iter sweeps do
    not bring the weighted residual norm under abs_tol.
    """
    measure = np.asarray(measure, dtype=float)

    def inner(u, v):
        return float(np.sum(u * v * measure))

    def norm(u):
        return math.sqrt(max(inner(u, u), 0.0))

    w = np.ones_like(measure) if w0 is None else np.asarray(w0, dtype=float)
    if norm(w) == 0.0:
        raise ValueError("the initial vector is zero")
    w = w / norm(w)

    def shifted(u):
        return apply_operator(u) - shift * u

    residuals = []
    lam = inner(w, apply_operator(w))
    for _ in range(max_iter):
        w_new = conjugate_gradient(shifted, w, measure, precond=precond,
                                   rel_tol=1e-13, max_iter=max_iter)
        n = norm(w_new)
        if n == 0.0 or not np.all(np.isfinite(w_new)):
            raise EigenFailure("inverse iteration produced a degenerate iterate", residuals)
        w = w_new / n
        aw = apply_operator(w)
        lam = inner(w, aw)
        res = norm(aw - lam * w)
        residuals.append(res)
        if res <= abs_tol:
            break
    else:
        raise EigenFailure(
            f"no convergence in {max_iter} iterations (residual {residuals[-1]:.3e})",
            residuals,
        )
    if inner(w, np.ones_like(w)) < 0:
        w = -w
    return EigenResult(value=float(lam), vector=w, residuals=residuals)


@dataclass
class ConcaveMaxResult:
    status: str  # "ok" or "unbounded"
    x: float
    value: float


def maximize_concave_1d(f, bracket, *, abs_tol: float, max_iter: int) -> ConcaveMaxResult:
    """Golden-section maximization of a concave function of one variable.

    The upper bracket end is doubled while the function is still rising
    there, up to 2**40 times the initial end; if it is still rising the
    structured outcome "unbounded" is returned instead of an error.
    On success |x - argmax| <= abs_tol.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy hi > lo")

    def ev(x):
        return float(f(x))

    cap = hi * 2.0**40
    f_hi = ev(hi)
    f_mid = ev(0.5 * (lo + hi))
    while f_hi >= f_mid:
        if hi >= cap:
            return ConcaveMaxResult(status="unbounded", x=hi, value=f_hi)
        f_mid = f_hi
        hi *= 2.0
        f_hi = ev(hi)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(max_iter):
        if (b - a) <= abs_tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = ev(d)
    x_best = 0.5 * (a + b)
    return ConcaveMaxResult(status="ok", x=x_best, value=ev(x_best))


@dataclass
class ConstrainedMinResult:
    w: np.ndarray
    value: float
    converged: bool
    n_iter: int
    message: str = ""


def minimize_constrained(functional, gradient, normalize, inner, w0, *,
                         abs_tol: float, max_iter: int,
                         precond=None) -> ConstrainedMinResult:
    """Projected gradient descent on the unit sphere of a weighted L2 space.

    functional and gradient are the objective and its weighted-L2
    gradient; normalize retracts a field onto the constraint set
    (callers fold positivity into it); inner is the weighted inner
    product.  precond optionally maps the projected gradient to a
    descent direction (an approximate inverse of the stiff part of the
    Hessian); convergence is still declared on the plain projected
    gradient norm.  Backtracking line search; stagnation without meeting
    the tolerance returns the best iterate flagged unconverged rather
    than raising.
    """
    w = normalize(np.asarray(w0, dtype=float).copy())
    fval = float(functional(w))
    step = 1.0
    for it in range(max_iter):
        g = gradient(w)
        gp = g - inner(g, w) * w
        g_norm = math.sqrt(max(inner(gp, gp), 0.0))
        if g_norm <= abs_tol:
            return ConstrainedMinResult(w, fval, True, it)
        if precond is not None:
            d = precond(gp)
            d = d - inner(d, w) * w
            slope = inner(gp, d)
            if slope <= 0.0:  # preconditioner lost positivity; fall back
                d, slope = gp, g_norm**2
        else:
            d, slope = gp, g_norm**2
        alpha = min(4.0 * step, 1e6)
        accepted = False
        for _ in range(60):
            w_try = normalize(w - alpha * d)
            f_try = float(functional(w_try))
            if f_try <= fval - 1e-4 * alpha * slope:
                w, fval, step, accepted = w_try, f_try, alpha, True
                break
            alpha *= 0.5
        if not accepted:
            return ConstrainedMinResult(
                w, fval, False, it, message="line search stagnated"
            )
    return ConstrainedMinResult(
        w, fval, False, max_iter, message="iteration budget exhausted"
    )
