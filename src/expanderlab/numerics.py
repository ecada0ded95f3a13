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

import bisect
import math
from dataclasses import dataclass

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
    "RunningDerivative",
    "time_derivative",
]


class OdeFailure(RuntimeError):
    """Raised when an integration aborts on non-finite state."""

    def __init__(self, message: str, t_last: float, y_last: np.ndarray):
        super().__init__(message)
        self.t_last = t_last
        self.y_last = y_last


# Dormand-Prince 5(4) tableau.  The fifth-order solution is propagated;
# the embedded fourth-order one supplies the local error estimate.  The
# last row of _DP_A is the fifth-order weights without their zero last
# weight, so the seventh stage is taken at the new state (FSAL).
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
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _dp_row(weights):
    """The stage sum of one tableau row, row(y, h, k) = y + h * (0.0 + w0 * k[0] + ...)
    per component, as straight-line float code over the nonzero weights.

    A dropped zero weight cannot move a bit: the sum starts at +0.0, so it is
    never -0.0, and a finite stage times 0.0 is a signed zero that leaves any
    such sum unchanged.  The terms are added left to right, numpy's order for
    y + h * sum(w * ki ...).  sum() (compensated on Python 3.12+), math.fsum
    (exactly rounded) and math.sumprod (extended precision) would each move
    the rounding."""
    kept = [(j, w) for j, w in enumerate(weights) if w != 0.0]
    terms = "".join(f" + {w!r} * k{j}" for j, w in kept)
    names = "".join(f", k{j}" for j, _ in kept)
    stages = "".join(f", k[{j}]" for j, _ in kept)
    scope = {}
    exec(f"def row(y, h, k):\n"
         f"    return [yj + h * (0.0{terms}) for yj{names} in zip(y{stages})]\n", scope)
    return scope["row"]


_DP_ROWS = tuple(map(_dp_row, _DP_A[1:]))
_DP_ROW4 = _dp_row(_DP_B4)


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

    def __post_init__(self) -> None:
        self.time_list = self.times.tolist()  # hermite_interval's float lookup

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def __call__(self, t: float) -> np.ndarray:
        i, s, h = hermite_interval(self.time_list, float(t), 1e-12)
        return hermite_cubic(s, h, self.states[i], self.derivs[i],
                             self.states[i + 1], self.derivs[i + 1])


def hermite_interval(times, t: float, slack: float):
    """Sample interval i, local coordinate s in [0, 1] and width h of t.

    t may lie up to slack * (1 + |end|) beyond the ends of the increasing
    sample times, where it is clamped; farther out is a ValueError.
    Scalar-only: hermite_rows is the batched lookup.  times is a list of
    Python floats (each history holds one) or a float array, with the same
    (i, s, h) values; on the list, bisect finds i and s, h are floats, whose
    powers in hermite_cubic are the libm ones hermite_rows takes.
    """
    lo, hi = times[0], times[-1]
    if not lo - slack * (1 + abs(lo)) <= t <= hi + slack * (1 + abs(hi)):
        raise ValueError(f"time {t} outside the sampled range [{lo}, {hi}]")
    t = min(max(t, lo), hi)
    i = min(bisect.bisect_right(times, t) - 1, len(times) - 2)
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


class RunningDerivative:
    """Time derivatives at the interior indices `idx` of samples fed last to
    first, as running sums of five_point's terms in its order (or x(+1) - x(-1)),
    each divided last: no sample is kept, and the bits are the stencil's.

    idx runs two in from each end for five or more uniform samples (the
    five-point stencil; the homogeneous checks need residuals at the 1e-8
    scale), else one (centered differences)."""

    def __init__(self, times):
        times = np.asarray(times, dtype=float)
        k = len(times)
        if k < 3:
            raise ValueError("need at least 3 consecutive states")
        steps = np.diff(times)
        five = k >= 5 and np.max(np.abs(steps - steps[0])) < 1e-9 * steps[0]
        self.idx = list(range(2, k - 2)) if five else list(range(1, k - 1))
        self._taps = ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0)) if five else ((1, 1.), (-1, -1.))
        self._scale = {i: 12 * (times[1] - times[0]) if five else times[i + 1] - times[i - 1]
                       for i in self.idx}
        self._sums = {}

    def add(self, j: int, x) -> None:
        """Feed sample j, after sample j + 1."""
        for offset, w in self._taps:
            if (i := j - offset) in self._sums:
                self._sums[i] += w * x  # in place on an array
            elif i in self._scale:
                self._sums[i] = w * x

    def values(self) -> list:
        """The derivatives at idx, once sample 0 is fed."""
        return [self._sums.pop(i) / self._scale[i] for i in self.idx]


def time_derivative(fields, times):
    """Time derivatives of sampled fields at RunningDerivative(times).idx, with those indices."""
    run = RunningDerivative(times)
    for j in range(len(times) - 1, -1, -1):
        run.add(j, fields[j])
    return run.values(), run.idx


def _rms_ratio(num, den) -> float:
    """sqrt(mean((num / den) ** 2)) in floats, in numpy's order for up to 7 components
    (numpy sums 8 or more pairwise): the squares summed from 0.0, over n, the root."""
    acc = 0.0
    for a, b in zip(num, den):
        q = a / b
        acc += q * q
    return math.sqrt(acc / len(num))


# steps, accepted or rejected on their error, that integrate_ode takes before it truncates
ODE_STEP_BUDGET = 1_000_000


def integrate_ode(rhs, y0, t0: float, t1: float, *, abs_tol: float, rel_tol: float,
                  stop, max_step) -> OdeTrajectory:
    """Adaptive embedded Runge-Kutta integration of y' = rhs(t, y).

    Steps are accepted when the embedded local error estimate, in the
    norm scaled by abs_tol + rel_tol |y|, is below one; step sizes follow a PI
    controller.  Dense output is the cubic Hermite interpolant between
    accepted steps.  rhs(t, y) and stop(t, y) take y as a list of Python
    floats, which neither may change, and rhs returns a sequence of floats;
    stages (_dp_row), solutions and error norm (_rms_ratio) are formed in
    floats in numpy's order of operations, so with the bits of the same
    steps on numpy arrays.  The seventh stage's state is the fifth-order
    solution (FSAL), formed once.

    stop, unless None, is a predicate stop(t, y); when it first becomes
    true the trajectory is truncated at the crossing (bisected on the
    dense output) with status "halted".  Step-size underflow returns the
    partial trajectory with status "truncated", as does running past
    ODE_STEP_BUDGET steps; non-finite states raise
    OdeFailure.  max_step, unless None, is a callable of t giving the
    largest step there (callers cap steps where the cubic dense output
    must stay at interpolation accuracy well below the step-control
    tolerance).
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
    span, t = t1 - t0, t0
    f = rhs(t, y)
    if not all(map(math.isfinite, f)):
        raise OdeFailure("non-finite right-hand side at initial state", t, np.array(y))

    # initial step heuristic
    scale = [abs_tol + rel_tol * abs(v) for v in y]
    d0, d1 = _rms_ratio(y, scale), _rms_ratio(f, scale)
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6 * span
    h = min(h, span / 10)
    if max_step is not None:
        h = min(h, max_step(t))

    # states and slopes flat, row after row: a list or array per step would raise the peak
    times, states, derivs = [t], list(y), list(f)
    err_prev = 1.0
    status = "completed"
    n_steps = 0
    h_floor = 1e-14 * span

    while t < t1:
        if n_steps > ODE_STEP_BUDGET:
            status = "truncated"
            break
        h = min(h, t1 - t)
        k = [f]
        for c, row in zip(_DP_C[1:], _DP_ROWS):
            y_new = row(y, h, k)  # the last stage's state is the fifth-order solution
            ki = rhs(t + c * h, y_new)
            if not all(map(math.isfinite, ki)):
                break
            k.append(ki)
        if len(k) < 7:  # a non-finite stage
            h *= 0.25
            if h < h_floor:
                status = "truncated"
                break
            continue
        y4 = _DP_ROW4(y, h, k)
        if not all(map(math.isfinite, y_new)):
            raise OdeFailure("non-finite state during integration", t, np.array(y))
        err = _rms_ratio([a - b for a, b in zip(y_new, y4)],
                         [abs_tol + rel_tol * max(abs(a), abs(b)) for a, b in zip(y, y_new)])
        if err <= 1.0:
            t_new = t + h
            f_new = k[6]  # FSAL stage equals rhs at the new point
            times.append(t_new)
            states.extend(y_new)
            derivs.extend(f_new)
            if stop is not None and stop(t_new, y_new):
                status = "halted"
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
            status = "truncated"
            break
        n_steps += 1

    traj = OdeTrajectory(np.array(times), np.array(states).reshape(len(times), -1),
                         np.array(derivs).reshape(len(times), -1), status)
    if status == "halted":
        # bisect the dense output for the earliest crossing on the last step
        ta, tb = times[-2], times[-1]
        for _ in range(80):
            tm = 0.5 * (ta + tb)
            if stop(tm, traj(tm).tolist()):
                tb = tm
            else:
                ta = tm
            if tb - ta <= 1e-13 * (1.0 + abs(tb)):
                break
        traj.states[-1] = traj(tb)
        traj.times[-1] = traj.time_list[-1] = tb
        traj.derivs[-1] = rhs(tb, traj.states[-1].tolist())
    return traj


class CGFailure(RuntimeError):
    """Raised when conjugate gradients meets a non-finite residual."""


def conjugate_gradient(apply_a, b: np.ndarray, weight: np.ndarray,
                       precond, *, rel_tol: float,
                       max_iter: int, x0: np.ndarray | None = None) -> np.ndarray:
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
        del z  # the preconditioned residual's (complex) buffer goes before A p is built
        ap = apply_a(p)
        alpha = rz / inner(p, ap)
        x += alpha * p
        r -= alpha * ap
        del ap
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


def smallest_eigenpair(apply_operator, measure, shift: float, *, abs_tol: float,
                       max_iter: int, precond) -> EigenResult:
    """Ground eigenpair of a self-adjoint operator by shifted inverse iteration.

    apply_operator maps fields to fields and is self-adjoint in the
    measure-weighted inner product; shift must lie strictly below the
    smallest eigenvalue so the shifted operator is positive definite
    (callers use min of the potential minus one).  The iteration starts
    from the constant field.  The eigenfunction is returned with unit
    weighted L2 norm and positive mean sign.

    Raises EigenFailure with the residual history if max_iter sweeps do
    not bring the weighted residual norm under abs_tol.
    """
    measure = np.asarray(measure, dtype=float)

    def inner(u, v):
        return float(np.sum(u * v * measure))

    def norm(u):
        return math.sqrt(max(inner(u, u), 0.0))

    w = np.ones_like(measure)
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
    return EigenResult(value=float(lam), vector=w)


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


def minimize_constrained(functional, gradient, normalize, inner, w0, *,
                         abs_tol: float, max_iter: int,
                         precond) -> ConstrainedMinResult:
    """Projected gradient descent on the unit sphere of a weighted L2 space.

    functional and gradient are the objective and its weighted-L2
    gradient; normalize retracts a field onto the constraint set
    (callers fold positivity into it); inner is the weighted inner
    product.  precond, unless None, maps the projected gradient to a
    descent direction (an approximate inverse of the stiff part of the
    Hessian); convergence is still declared on the plain projected
    gradient norm.  Backtracking line search; stagnation without meeting
    the tolerance returns the best iterate flagged unconverged rather
    than raising.
    """
    w = normalize(np.asarray(w0, dtype=float).copy())
    fval = float(functional(w))
    step = 1.0
    for _ in range(max_iter):
        g = gradient(w)
        gp = g - inner(g, w) * w
        g_norm = math.sqrt(max(inner(gp, gp), 0.0))
        if g_norm <= abs_tol:
            return ConstrainedMinResult(w, fval, True)
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
        if not accepted:  # the line search stagnated
            break
    return ConstrainedMinResult(w, fval, False)
