import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from expanderlab import numerics
from expanderlab.geometry import _lap0, laplacian_symbol, spectral_preconditioner
from expanderlab.numerics import (
    CGFailure,
    EigenFailure,
    OdeFailure,
    conjugate_gradient,
    integrate_ode,
    maximize_concave_1d,
    minimize_constrained,
    smallest_eigenpair,
)

# tight tolerances, with no stop predicate and no step cap
TIGHT = {"abs_tol": 1e-12, "rel_tol": 1e-12, "stop": None, "max_step": None}


def nil_closed_form(t, a0, b0, c0):
    """Hand-derived exact solution of the diagonal nilpotent frame flow.

    For dA/dt = -A^2/(BC), dB/dt = A/C, dC/dt = A/B the one-parameter
    profile A0*(1+kt)^(-1/3), B0*(1+kt)^(1/3), C0*(1+kt)^(1/3) with
    k = 3*A0/(B0*C0) satisfies all three equations for any initial data
    (checked by direct substitution).
    """
    k = 3.0 * a0 / (b0 * c0)
    u = 1.0 + k * t
    return np.array([a0 * u ** (-1 / 3), b0 * u ** (1 / 3), c0 * u ** (1 / 3)])


def test_conjugate_gradient_initial_guess():
    # weighted SPD system: the solution is the same from zero and from a
    # nearby start, and a start at the solution returns it unchanged
    rng = np.random.default_rng(3)
    q = rng.standard_normal((12, 12))
    mat = q @ q.T + 12.0 * np.eye(12)
    weight = rng.uniform(0.5, 2.0, 12)

    def apply_a(x):
        return mat @ (weight * x)

    b = rng.standard_normal(12)
    exact = np.linalg.solve(mat * weight, b)
    cold = conjugate_gradient(apply_a, b, weight, None, rel_tol=1e-13, max_iter=2000)
    warm = conjugate_gradient(apply_a, b, weight, None, rel_tol=1e-13, x0=b, max_iter=2000)
    assert np.max(np.abs(cold - exact)) < 1e-10
    assert np.max(np.abs(warm - exact)) < 1e-10
    at_solution = conjugate_gradient(apply_a, b, weight, None, rel_tol=1e-6, x0=exact,
                                     max_iter=2000)
    assert np.array_equal(at_solution, exact)


def test_conjugate_gradient_stops_on_a_non_finite_residual():
    # sqrt(max(nan, 0)) <= tol is false, so a NaN system used to run all
    # max_iter iterations; it raises before the operator call that would
    # follow the first non-finite residual
    calls = []

    def apply_a(x):
        calls.append(1)
        return 2.0 * x

    b = np.ones(8)
    b[3] = math.nan
    for x0, n_calls in ((None, 0), (np.zeros(8), 1)):
        calls.clear()
        with pytest.raises(CGFailure, match="non-finite after 0 iterations"):
            conjugate_gradient(apply_a, b, None, None, rel_tol=1e-12, x0=x0, max_iter=2000)
        assert len(calls) == n_calls
    # an operator that turns non-finite midway stops after that call
    calls.clear()
    with pytest.raises(CGFailure, match="non-finite after 1 iterations"):
        conjugate_gradient(lambda x: apply_a(x) * math.nan, np.ones(8), None, None,
                           rel_tol=1e-12, max_iter=2000)
    assert len(calls) == 1


def test_conjugate_gradient_skips_preconditioner_on_solved_start():
    # periodic 16x24 system (I - c lap0) x = b with an FFT preconditioner:
    # a start that already meets rel_tol comes back unchanged and the
    # preconditioner is never applied
    nx, ny, hx, hy, c = 16, 24, 1.0 / 16, 1.7 / 24, 1e-3
    denom = 1.0 - c * laplacian_symbol((nx, ny), (hx, hy))
    solve, calls = spectral_preconditioner(denom), []

    def apply_a(x):
        return x - c * _lap0(x, hx, hy)

    def precond(r):
        calls.append(1)
        return solve(r)

    rng = np.random.default_rng(5)
    b = rng.standard_normal((nx, ny))
    exact = solve(b)
    const = np.full((nx, ny), 0.7)  # lap0 of a constant is exactly 0: zero residual
    for x0, rhs in ((exact, b), (const, apply_a(const))):
        x = conjugate_gradient(apply_a, rhs, None, precond, rel_tol=1e-10, x0=x0, max_iter=2000)
        assert np.array_equal(x, x0) and x is not x0
    assert calls == []
    cold = conjugate_gradient(apply_a, b, None, precond, rel_tol=1e-13, max_iter=2000)
    assert np.max(np.abs(cold - exact)) < 1e-12
    assert 0 < len(calls) <= 5


def test_exponential_growth():
    traj = integrate_ode(lambda t, y: y, [1.0], 0.0, 1.0, **TIGHT)
    assert traj.status == "completed"
    assert abs(traj.states[-1, 0] - math.e) < 1e-9


def test_linear_rhs_exact():
    # constant right-hand side: the scale equation of a negatively curved
    # model space, solution 1 + 4t to round-off
    traj = integrate_ode(lambda t, y: [4.0], [1.0], 0.0, 10.0, **TIGHT)
    ts = np.linspace(0.0, 10.0, 37)
    vals = np.array([traj(t)[0] for t in ts])
    assert np.max(np.abs(vals - (1.0 + 4.0 * ts))) < 1e-12


def test_nil_frame_flow_matches_closed_form():
    def rhs(t, y):
        a, b, c = y
        return [-a * a / (b * c), a / c, a / b]

    y0 = np.array([1.0, 1.0, 1.0])
    traj = integrate_ode(rhs, y0, 0.0, 10.0, abs_tol=1e-11, rel_tol=1e-11, max_step=None, stop=None)
    ts = np.linspace(0.0, 10.0, 101)
    got = np.stack([traj(t) for t in ts])
    want = np.stack([nil_closed_form(t, 1.0, 1.0, 1.0) for t in ts])
    assert np.max(np.abs(got - want)) < 1e-7


def test_linear_system_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) * 0.5
        y0 = rng.normal(size=4)
        traj = integrate_ode(lambda t, y: (m @ y).tolist(), y0, 0.0, 1.5, abs_tol=1e-12,
                             rel_tol=1e-11, max_step=None, stop=None)
        want = expm(1.5 * m) @ y0
        scale = np.max(np.abs(want)) + 1.0
        assert np.max(np.abs(traj.states[-1] - want)) / scale < 1e-8


def test_step_underflow_reports_last_valid_time():
    # finite-time blow-up y' = y^2 from y(0)=1 explodes at t=1
    traj = integrate_ode(lambda t, y: [v * v for v in y], [1.0], 0.0, 2.0, abs_tol=1e-10,
                         rel_tol=1e-10, max_step=None, stop=None)
    assert traj.status == "truncated"
    assert traj.t_end < 1.0 + 1e-3


def test_stop_predicate_halts_and_bisects():
    traj = integrate_ode(lambda t, y: [-2.0], [1.0], 0.0, 1.0,
                         **{**TIGHT, "stop": lambda t, y: y[0] < 0.5})
    assert traj.status == "halted"
    assert abs(traj.t_end - 0.25) < 1e-9


def periodic_lap_1d(w, h):
    return (np.roll(w, -1) + np.roll(w, 1) - 2.0 * w) / (h * h)


def test_eigen_flat_kernel_is_constant():
    n = 32
    h = 1.0 / n
    measure = np.full(n, h)

    def op(w):
        return -4.0 * periodic_lap_1d(w, h)

    res = smallest_eigenpair(op, measure, shift=-1.0, abs_tol=1e-11, max_iter=200, precond=None)
    assert abs(res.value) < 1e-10
    assert np.max(np.abs(res.vector - res.vector.mean())) < 1e-8
    assert res.vector.min() > 0


def test_eigen_constant_potential():
    n = 32
    h = 1.0 / n
    measure = np.full(n, h)
    r_val = -6.0

    def op(w):
        return -4.0 * periodic_lap_1d(w, h) + r_val * w

    res = smallest_eigenpair(op, measure, shift=r_val - 1.0, abs_tol=1e-11, max_iter=200,
                             precond=None)
    assert abs(res.value - r_val) < 1e-10
    assert abs(np.sum(res.vector**2 * measure) - 1.0) < 1e-12


def test_eigen_nonconvergence_raises_with_history():
    # the iteration starts from the constant, so the ground state must not
    # be constant: under a varying potential three sweeps leave a residual
    n = 16
    measure = np.full(n, 1.0 / n)
    r_pot = np.sin(2 * math.pi * np.arange(n) / n)

    def op(w):
        return -4.0 * periodic_lap_1d(w, 1.0 / n) + r_pot * w

    with pytest.raises(EigenFailure) as exc:
        smallest_eigenpair(op, measure, shift=-2.0, abs_tol=1e-30, max_iter=3, precond=None)
    assert len(exc.value.residual_history) == 3
    assert min(exc.value.residual_history) > 0


def test_eigen_rayleigh_bound():
    # the returned eigenvalue is a lower bound for the quotient at random fields
    n = 48
    h = 1.0 / n
    measure = np.full(n, h)
    x = np.arange(n) * h
    r_pot = -3.0 + np.sin(2 * math.pi * x)

    def op(w):
        return -4.0 * periodic_lap_1d(w, h) + r_pot * w

    res = smallest_eigenpair(op, measure, shift=float(r_pot.min()) - 1.0,
                             abs_tol=1e-11, max_iter=300, precond=None)
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = np.abs(rng.normal(size=n)) + 0.1
        w = w / math.sqrt(np.sum(w**2 * measure))
        rayleigh = float(np.sum(w * op(w) * measure))
        assert res.value <= rayleigh + 1e-9


def test_concave_max_quadratic():
    res = maximize_concave_1d(lambda s: -((s - 1.0) ** 2), (0.1, 3.0),
                              abs_tol=1e-9, max_iter=10_000)
    assert res.status == "ok"
    assert abs(res.x - 1.0) < 1e-8


def test_concave_max_log_profile():
    # f' = -6 + 1.5/s vanishes at s = 1/4
    res = maximize_concave_1d(lambda s: -6.0 * s + 1.5 * math.log(s) + 2.0,
                              (1e-3, 1.0), abs_tol=1e-9, max_iter=10_000)
    assert res.status == "ok"
    assert abs(res.x - 0.25) < 1e-7


def test_concave_max_unbounded_signal():
    res = maximize_concave_1d(lambda s: 1.5 * math.log(s) + 0.3, (0.5, 2.0),
                              abs_tol=1e-9, max_iter=500)
    assert res.status == "unbounded"


def test_concave_max_never_below_scan():
    rng = np.random.default_rng(2)
    abs_tol = 1e-9
    for _ in range(10):
        a = float(rng.uniform(0.5, 4.0))
        x0 = float(rng.uniform(0.3, 2.5))

        def f(s, a=a, x0=x0):
            return -a * (s - x0) ** 2 + math.sin(x0)

        res = maximize_concave_1d(f, (0.05, 3.0), abs_tol=abs_tol, max_iter=10_000)
        scan = max(f(s) for s in np.linspace(0.05, 3.0, 100))
        assert res.value >= scan - abs_tol


def _entropy_test_problem(n, r_val, sigma):
    """Unit-square periodic grid version of the entropy functional in w."""
    h = 1.0 / n
    measure = np.full((n, n), h * h)

    def grad_sq(w):
        dx = (np.roll(w, -1, 0) - np.roll(w, 1, 0)) / (2 * h)
        dy = (np.roll(w, -1, 1) - np.roll(w, 1, 1)) / (2 * h)
        return dx * dx + dy * dy

    def lap(w):
        return (np.roll(w, -1, 0) + np.roll(w, 1, 0) + np.roll(w, -1, 1)
                + np.roll(w, 1, 1) - 4.0 * w) / (h * h)

    def functional(w):
        w2 = w * w
        ent = np.where(w2 > 0, w2 * np.log(np.maximum(w2, 1e-300)), 0.0)
        return float(np.sum((sigma * (4.0 * grad_sq(w) + r_val * w2) + ent) * measure))

    def gradient(w):
        safe = np.maximum(w * w, 1e-300)
        return 2.0 * sigma * (-4.0 * lap(w) + r_val * w) + 2.0 * w * np.log(safe) + 2.0 * w

    def inner(u, v):
        return float(np.sum(u * v * measure))

    def normalize(w):
        w = np.abs(w)
        return w / math.sqrt(inner(w, w))

    return functional, gradient, inner, normalize, measure


def _fft_precond(n, sigma):
    kx = np.fft.fftfreq(n, 1.0 / n)
    ky = np.fft.fftfreq(n, 1.0 / n)
    h = 1.0 / n
    lam = (2 - 2 * np.cos(2 * math.pi * kx[:, None] * h)) / h**2 \
        + (2 - 2 * np.cos(2 * math.pi * ky[None, :] * h)) / h**2
    denom = 2.0 + 8.0 * sigma * lam

    def precond(g):
        return np.real(np.fft.ifft2(np.fft.fft2(g) / denom))

    return precond


def test_constrained_min_flat_case_constant():
    n = 16
    sigma = 0.7
    functional, gradient, inner, normalize, measure = _entropy_test_problem(n, 0.0, sigma)
    rng = np.random.default_rng(9)
    w0 = 1.0 + 0.3 * rng.random((n, n))
    res = minimize_constrained(functional, gradient, normalize, inner, w0,
                               abs_tol=1e-7, max_iter=4000,
                               precond=_fft_precond(n, sigma))
    assert res.converged
    # volume one: minimizer is the constant 1, value log(1/V) = 0
    assert np.max(np.abs(res.w - 1.0)) < 1e-6
    assert abs(res.value) < 1e-10


def test_constrained_min_constant_potential_value():
    n = 16
    sigma, r_val = 0.45, -6.0
    functional, gradient, inner, normalize, measure = _entropy_test_problem(n, r_val, sigma)
    res = minimize_constrained(functional, gradient, normalize, inner,
                               np.ones((n, n)), abs_tol=1e-10, max_iter=200, precond=None)
    # constant minimizer: value sigma*R - log V with V = 1
    assert abs(res.value - sigma * r_val) < 1e-9


def test_constrained_min_descent_property():
    n = 16
    functional, gradient, inner, normalize, _ = _entropy_test_problem(n, 0.0, 0.3)
    rng = np.random.default_rng(21)
    w0 = normalize(np.abs(rng.normal(size=(n, n))) + 0.05)
    res = minimize_constrained(functional, gradient, normalize, inner, w0,
                               abs_tol=1e-7, max_iter=500, precond=None)
    assert res.value <= functional(w0) + 1e-12


def test_nonfinite_initial_state_aborts():
    with pytest.raises(OdeFailure):
        integrate_ode(lambda t, y: [math.inf], [1.0], 0.0, 1.0, **TIGHT)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def flow_ode_args(monkeypatch, m0, t_span):
    """The arguments flow.evolve(m0, t_span) passes to integrate_ode: its
    right-hand side, initial state, span, tolerances, stop and max_step."""
    from expanderlab import flow

    seen = []

    def record(*args, **kwargs):
        seen.append((args, kwargs))
        return integrate_ode(*args, **kwargs)

    monkeypatch.setattr(flow, "integrate_ode", record)
    flow.evolve(m0, t_span)
    (args, kwargs), = seen
    return args, kwargs


def nil_flow_ode_args(monkeypatch):
    """flow_ode_args of the packaged nil_flow evolve."""
    import json

    from expanderlab.cli import Scenario, builtin_scenarios

    scn = Scenario.from_doc(json.loads(builtin_scenarios()["nil_flow"].read_text()))
    return flow_ode_args(monkeypatch, scn.model, scn.t_span)


def su2_extinction_ode_args(monkeypatch):
    """flow_ode_args of the round SU(2) flow that halts at its extinction
    (test_flow.test_su2_flow_halts_at_extinction's config): the one
    homogeneous exit whose bisection passes dense-output values to stop
    and rhs."""
    from expanderlab.geometry import HomogeneousMetric

    return flow_ode_args(monkeypatch, HomogeneousMetric((2.0, 2.0, 2.0), (1.0, 1.0, 1.0)),
                         (0.0, 1.0))


def bounded_growth(rejected):
    """y' = (1 + cos t) y, non-finite past y = 2: a stage that steps over
    it is rejected (counted in rejected) and the step retried."""
    def rhs(t, y):
        if y[0] > 2.0:
            rejected.append(t)
            return [math.inf]
        return [(1.0 + math.cos(t)) * y[0]]

    return rhs


def signed_zeros(t, y):
    """y' = (-0.0, y0 - y1 / 2, sign of y0): the first component stays a
    signed zero, and the last turns the sign of that zero in each stage's
    state into a value."""
    return [-0.0 * y[1], y[0] - 0.5 * y[1], math.copysign(1.0, y[0])]


def test_float_stages_match_numpy_stages_bit_for_bit(monkeypatch):
    from oracles import integrate_ode_numpy_stages

    rejected = []
    budget = numerics.ODE_STEP_BUDGET
    # each case: positional arguments, keyword arguments, step budget
    cases = [
        (*nil_flow_ode_args(monkeypatch), budget),
        (*su2_extinction_ode_args(monkeypatch), budget),
        ((lambda t, y: [v * v for v in y], [1.0], 0.0, 2.0),
         {**TIGHT, "abs_tol": 1e-10, "rel_tol": 1e-10}, budget),
        ((lambda t, y: [-2.0], [1.0], 0.0, 1.0),
         {**TIGHT, "stop": lambda t, y: y[0] < 0.5}, budget),
        ((bounded_growth([]), [1.0], 0.0, 3.0), TIGHT, budget),
        ((bounded_growth(rejected), [1.0], 0.0, 3.0),
         {**TIGHT, "stop": lambda t, y: y[0] > 1.99}, budget),
        ((lambda t, y: [0.3 * y[0] - 1.0 * y[1], 1.0 * y[0] - 0.2 * y[1]], [1.0, -0.5], 0.0, 5.0),
         {**TIGHT, "abs_tol": 1e-9, "rel_tol": 1e-9, "max_step": lambda t: 0.02 + 0.001 * t},
         100),
        # signed zeros in the state and every stage: the sums over the kept
        # weights and the seventh stage's state as the new one, signs included
        ((signed_zeros, [-0.0, 1.0, -0.0], 0.0, 2.0), TIGHT, budget),
    ]
    statuses = []
    for args, kwargs, budget in cases:
        monkeypatch.setattr(numerics, "ODE_STEP_BUDGET", budget)
        got = integrate_ode(*args, **kwargs)
        want, way_out = integrate_ode_numpy_stages(*args, **kwargs)
        for name in ("times", "states", "derivs"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert got.status == want.status
        statuses.append((got.status, way_out, len(got.times)))
    # the cases reach every way out of the step loop (each named by the
    # reference, whose steps the lab's match bit for bit)
    assert [s[:2] for s in statuses] == [
        ("completed", ""),
        ("halted", "stop predicate fired"),
        ("truncated", "step size underflow"),
        ("halted", "stop predicate fired"),
        ("truncated", "step size underflow (non-finite stages)"),
        ("halted", "stop predicate fired"),
        ("truncated", "step budget exhausted"),
        ("completed", ""),
    ]
    assert statuses[0][2] > 500
    zeros = integrate_ode(*cases[-1][0], **cases[-1][1])
    assert same_bits(zeros.states[0], [-0.0, 1.0, -0.0])
    assert same_bits(zeros.derivs[:, 0], np.full(len(zeros.times), -0.0))
    assert rejected  # the halted run retried stages and went on


def test_rhs_and_stop_take_float_lists(monkeypatch):
    # the float contract, on the steps and on the bisection of a halted
    # one: every state handed to the flow's rhs and stop is a list of
    # Python floats, and rhs returns a sequence of them
    (rhs, *rest), kwargs = su2_extinction_ode_args(monkeypatch)
    seen = set()

    def spy_rhs(t, y):
        out = rhs(t, y)
        seen.add(("rhs", type(y), *map(type, y), *map(type, out)))
        return out

    def spy_stop(t, y):
        seen.add(("stop", type(y), *map(type, y)))
        return kwargs["stop"](t, y)

    traj = integrate_ode(spy_rhs, *rest, **{**kwargs, "stop": spy_stop})
    assert traj.status == "halted"
    assert seen == {("rhs", list, *[float] * 6), ("stop", list, *[float] * 3)}


def test_nil_flow_evolve_peaks_below_an_array_per_step(monkeypatch):
    """The packaged nil_flow evolve keeps its states and slopes as flat
    float lists until the trajectory is built.  Its traced peak stays
    below the same evolve through the reference integrator, which keeps
    one array per state and slope as integrate_ode once did: ~227 KB
    against ~327 KB.  An array per step in integrate_ode peaked at
    ~326 KB, a float list per step at ~361 KB."""
    import json
    import tracemalloc

    from oracles import integrate_ode_numpy_stages

    from expanderlab import flow
    from expanderlab.cli import Scenario, builtin_scenarios

    scn = Scenario.from_doc(json.loads(builtin_scenarios()["nil_flow"].read_text()))
    peaks = []
    for integrate in (integrate_ode, lambda *a, **kw: integrate_ode_numpy_stages(*a, **kw)[0]):
        monkeypatch.setattr(flow, "integrate_ode", integrate)
        tracemalloc.start()
        try:
            h = flow.evolve(scn.model, scn.t_span)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(h.times) > 500
    assert peaks[0] <= 0.85 * peaks[1], peaks


def test_float_stages_raise_the_numpy_stages_failure():
    from oracles import integrate_ode_numpy_stages

    # stages stay finite while the state overflows in one step
    args = (lambda t, y: [1e300], [1.7e308], 0.0, 1e10)
    failures = []
    for integrate in (integrate_ode, integrate_ode_numpy_stages):
        with np.errstate(over="ignore"), pytest.raises(OdeFailure) as info:
            integrate(*args, **TIGHT)
        failures.append(info.value)
    got, want = failures
    assert str(got) == str(want) == "non-finite state during integration"
    assert got.t_last == want.t_last and same_bits(got.y_last, want.y_last)


@given(
    a=st.floats(min_value=0.2, max_value=5.0),
    x0=st.floats(min_value=0.2, max_value=2.8),
    c=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=25, deadline=None)
def test_concave_max_finds_quadratic_vertex(a, x0, c):
    res = maximize_concave_1d(lambda s: -a * (s - x0) ** 2 + c, (0.05, 3.0),
                              abs_tol=1e-9, max_iter=10_000)
    assert res.status == "ok"
    assert abs(res.x - x0) < 1e-7


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=10, deadline=None)
def test_linear_decay_exact(k):
    # y' = -k y has solution exp(-k t); the integrator meets its tolerance
    traj = integrate_ode(lambda t, y: [-k * v for v in y], [1.0], 0.0, 1.0, abs_tol=1e-12,
                         rel_tol=1e-11, max_step=None, stop=None)
    assert abs(traj.states[-1, 0] - math.exp(-k)) < 1e-9


def test_running_derivatives_have_the_bits_of_the_written_stencils():
    # grids, scalars and the rows of a 2-D array, at seven uniform times
    # (five-point) and five uneven ones (centered): the running sums, fed
    # last to first, equal the stencil formulas on the listed samples, and
    # feeding a sample writes into none of the samples
    from oracles import listed_time_derivative

    rng = np.random.default_rng(11)
    uniform, uneven = np.linspace(0.3, 0.42, 7), np.array([0.0, 0.2, 0.5, 0.55, 1.0])
    for times in (uniform, uneven):
        k = len(times)
        for fields in (list(rng.standard_normal((k, 8, 8))), list(rng.standard_normal(k)),
                       rng.standard_normal((k, 5))):
            before = [np.copy(x) for x in fields]
            got, idx = numerics.time_derivative(fields, times)
            want, want_idx = listed_time_derivative(fields, times)
            assert idx == want_idx
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)
            assert all(np.array_equal(a, b) for a, b in zip(fields, before))
    w = rng.standard_normal(4)
    assert numerics.five_point(*w, 0.01) == (-w[3] + 8 * w[2] - 8 * w[1] + w[0]) / (12 * 0.01)
