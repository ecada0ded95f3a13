import math

import numpy as np
import pytest

from expanderlab.flow import FlowHistory, blowdown, evolve
from expanderlab.geometry import (
    ConformalTorusMetric,
    HomogeneousMetric,
    ModelSpaceMetric,
    curvature,
    curvature_conformal,
    curvature_homogeneous,
    curvature_model_space,
    curvature_operator_nonneg,
    hessian_covariant,
    _d2,
    _dx,
    _dxy,
    _dy,
    _lap0,
    integrate,
    laplacian,
    laplacian_symbol,
    model_from_json,
    soliton_residual_sq,
    spectral_preconditioner,
    volume,
)
from expanderlab.numerics import (
    OdeTrajectory,
    hermite_cubic,
    hermite_interval,
    RunningDerivative,
    time_derivative,
)
from oracles import fft_divide
from oracles import koszul_ricci, model_to_json

HEISENBERG = (1.0, 0.0, 0.0)
SU2 = (2.0, 2.0, 2.0)


def torus(n=32, amp=0.0, lx=1.0, ly=1.0):
    x = (np.arange(n) * lx / n)[:, None]
    phi = amp * np.sin(2 * math.pi * x / lx) * np.ones((n, n))
    return ConformalTorusMetric(phi=phi, periods=(lx, ly))


def test_abelian_is_flat():
    m = HomogeneousMetric((0.0, 0.0, 0.0), (1.3, 0.7, 2.2))
    data = curvature_homogeneous(m)
    assert np.max(np.abs(data.ricci)) == 0.0
    assert data.scalar == 0.0


def test_heisenberg_matches_koszul_oracle():
    m = HomogeneousMetric(HEISENBERG, (1.0, 1.0, 1.0))
    data = curvature_homogeneous(m)
    oracle = koszul_ricci(HEISENBERG, m.diag)
    off = oracle - np.diag(np.diag(oracle))
    assert np.max(np.abs(off)) < 1e-12
    assert np.max(np.abs(np.diag(oracle) - data.ricci)) < 1e-6


def test_su2_round_sphere_cross_check():
    # bracket coefficients (2,2,2) at diag (1,1,1) give the unit round 3-sphere
    m = HomogeneousMetric(SU2, (1.0, 1.0, 1.0))
    data = curvature_homogeneous(m)
    assert np.max(np.abs(data.ricci - 2.0)) < 1e-12  # Ricci = 2 g
    assert abs(data.scalar - 6.0) < 1e-12
    model = ModelSpaceMetric(dim=3, sectional_sign=1, scale=1.0)
    model_data = curvature_model_space(model)
    assert abs(model_data.ricci - 2.0) < 1e-15
    assert abs(model_data.scalar - data.scalar) < 1e-12


def test_koszul_agreement_on_random_samples():
    rng = np.random.default_rng(17)
    for _ in range(50):
        c = tuple(rng.uniform(-2.0, 2.0, size=3))
        diag = tuple(rng.uniform(0.2, 3.0, size=3))
        m = HomogeneousMetric(c, diag)
        data = curvature_homogeneous(m)
        oracle = koszul_ricci(c, diag)
        off = oracle - np.diag(np.diag(oracle))
        assert np.max(np.abs(off)) < 1e-10
        scale = np.max(np.abs(np.diag(oracle))) + 1e-12
        assert np.max(np.abs(np.diag(oracle) - data.ricci)) / scale < 1e-5


def test_curvature_sums_equal_the_numpy_sums_bit_for_bit():
    import json

    from expanderlab.cli import Scenario, builtin_scenarios
    from oracles import curvature_homogeneous_numpy

    scn = Scenario.from_doc(json.loads(builtin_scenarios()["nil_flow"].read_text()))
    h = evolve(scn.model, scn.t_span)
    metrics = list(h.metrics_at(h.times))
    rng = np.random.default_rng(29)
    for _ in range(2000):
        c = tuple(rng.uniform(-2.0, 2.0, size=3).tolist())
        diag = tuple(np.exp(rng.uniform(-4.0, 4.0, size=3)).tolist())
        metrics.append(HomogeneousMetric(c, diag))
    regrouped = 0
    for m in metrics:
        data = curvature_homogeneous(m)
        got = np.array([data.scalar])
        want = np.array([curvature_homogeneous_numpy(m)])
        assert got.tobytes() == want.tobytes()
        q = data.ricci / np.asarray(m.diag, dtype=float)
        regrouped += float(q[0] + (q[1] + q[2])) != data.scalar
    assert regrouped > 100  # the samples tell the summation orders apart


def test_conformal_constant_phi_flat():
    m = torus(16, amp=0.0)
    assert np.max(np.abs(curvature_conformal(m).scalar)) == 0.0


def test_conformal_linearized_curvature():
    eps, n, lx = 1e-4, 64, 1.0
    m = torus(n, amp=eps, lx=lx)
    x = (np.arange(n) / n * lx)[:, None]
    want = 2 * eps * (2 * math.pi / lx) ** 2 * np.sin(2 * math.pi * x / lx) * np.ones((n, n))
    got = curvature_conformal(m).scalar
    h = lx / n
    # linearization error O(eps^2) plus stencil error O(h^2) on the eps-scale
    assert np.max(np.abs(got - want)) < 10 * eps * (eps + h * h) * (2 * math.pi) ** 2


def test_conformal_curvature_second_order_convergence():
    # high-resolution oracle: N=512 values sampled down to coarse grids
    def smooth_phi(n):
        x = (np.arange(n) / n)[:, None]
        y = (np.arange(n) / n)[None, :]
        return 0.2 * np.sin(2 * math.pi * x) * np.cos(4 * math.pi * y) + 0.1 * np.cos(
            2 * math.pi * y
        ) * np.ones((n, n))

    n_fine = 512
    fine = curvature_conformal(ConformalTorusMetric(smooth_phi(n_fine))).scalar
    errs = []
    for n in (32, 64):
        coarse = curvature_conformal(ConformalTorusMetric(smooth_phi(n))).scalar
        stride = n_fine // n
        errs.append(np.max(np.abs(coarse - fine[::stride, ::stride])))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.8


def test_volume_examples():
    assert abs(volume(torus(16, 0.0)) - 1.0) < 1e-12
    assert abs(volume(HomogeneousMetric(SU2, (1.0, 1.0, 1.0), frame_volume=2.5)) - 2.5) < 1e-12
    m = ModelSpaceMetric(dim=3, sectional_sign=-1, scale=1.7, base_volume=0.9)
    assert abs(volume(m) - 1.7**1.5 * 0.9) < 1e-12


def test_volume_scaling_law():
    rng = np.random.default_rng(3)
    for _ in range(10):
        alpha = float(rng.uniform(0.5, 3.0))
        m = ModelSpaceMetric(dim=4, sectional_sign=-1, scale=1.0, base_volume=2.0)
        scaled = ModelSpaceMetric(dim=4, sectional_sign=-1, scale=alpha, base_volume=2.0)
        assert abs(volume(scaled) - alpha ** (4 / 2) * volume(m)) < 1e-12 * volume(scaled)
    # conformal scaling: g -> alpha*g means phi -> phi + log(alpha)/2
    base = torus(16, 0.1)
    alpha = 1.7
    scaled = ConformalTorusMetric(base.phi + 0.5 * math.log(alpha), base.periods)
    assert abs(volume(scaled) - alpha * volume(base)) < 1e-12 * volume(scaled)


def test_laplacian_examples():
    m = torus(64, 0.0)
    assert laplacian(HomogeneousMetric(SU2, (1, 1, 1)), 3.7) == 0.0
    n = 64
    x = (np.arange(n) / n)[:, None] * np.ones((n, n))
    f = np.sin(2 * math.pi * x)
    got = laplacian(m, f)
    want = -((2 * math.pi) ** 2) * f
    assert np.max(np.abs(got - want)) < (2 * math.pi) ** 4 / (n * n)


def test_laplacian_integrates_to_zero():
    # divergence theorem on the closed torus, discrete summation by parts
    rng = np.random.default_rng(8)
    m = torus(32, 0.15)
    x = (np.arange(32) / 32)[:, None]
    y = (np.arange(32) / 32)[None, :]
    f = np.sin(2 * math.pi * x) * np.cos(2 * math.pi * y) + 0.3 * rng.random((32, 32))
    assert abs(integrate(m, laplacian(m, f))) < 1e-10


def test_laplacian_shape_mismatch():
    with pytest.raises(ValueError):
        laplacian(torus(16), np.zeros((8, 8)))


def test_curvature_operator_sign():
    assert curvature_operator_nonneg(ModelSpaceMetric(3, 1, 1.0))
    assert not curvature_operator_nonneg(ModelSpaceMetric(3, -1, 1.0))
    assert curvature_operator_nonneg(torus(16, 0.0))  # flat boundary case
    assert not curvature_operator_nonneg(torus(32, 0.2))
    assert curvature_operator_nonneg(HomogeneousMetric(SU2, (1.0, 1.0, 1.0)))
    assert not curvature_operator_nonneg(HomogeneousMetric(HEISENBERG, (1.0, 1.0, 1.0)))


def test_trace_and_cauchy_schwarz_invariants():
    rng = np.random.default_rng(23)
    models = [
        HomogeneousMetric(tuple(rng.uniform(-2, 2, 3)), tuple(rng.uniform(0.3, 2.5, 3)))
        for _ in range(10)
    ]
    models += [ModelSpaceMetric(3, -1, 1.4), ModelSpaceMetric(5, 1, 0.6), torus(32, 0.25)]
    for m in models:
        data = curvature(m)
        n = m.dim
        if isinstance(m, HomogeneousMetric):
            trace = float(np.sum(np.asarray(data.ricci) / np.asarray(m.diag)))
            assert abs(trace - data.scalar) < 1e-12 * (1 + abs(data.scalar))
        # |Rc|^2 from the Ricci representation
        if isinstance(m, HomogeneousMetric):  # frame components over diag
            ricci_norm_sq = np.sum((np.asarray(data.ricci) / np.asarray(m.diag)) ** 2)
        elif isinstance(m, ModelSpaceMetric):  # Rc = coeff * metric
            ricci_norm_sq = n * data.ricci**2
        else:  # the torus: Rc = R/2 * metric
            ricci_norm_sq = 0.5 * data.ricci**2
        r_sq = np.asarray(data.scalar) ** 2
        bound = n * ricci_norm_sq
        assert np.all(r_sq <= bound + 1e-12 * (1 + np.max(bound)))


def test_soliton_residual_vanishes_on_matched_scale():
    # Ricci + g/(2 sigma) = 0 exactly when sigma = -scale/(2 rho0)
    m = ModelSpaceMetric(dim=3, sectional_sign=-1, scale=2.0)
    sigma = -m.scale / (2.0 * m.rho0)
    assert soliton_residual_sq(m, 0.0, sigma) < 1e-28
    assert soliton_residual_sq(m, 0.0, 2 * sigma) > 1e-3


def test_hessian_covariant_flat_quadratic():
    # flat metric: covariant Hessian of a smooth periodic field matches
    # coordinate second derivatives
    n = 64
    m = torus(n, 0.0)
    x = (np.arange(n) / n)[:, None] * np.ones((n, n))
    f = np.cos(2 * math.pi * x)
    hxx, hxy, hyy = hessian_covariant(m, f)
    assert np.max(np.abs(hxx + (2 * math.pi) ** 2 * f)) < (2 * math.pi) ** 4 / n**2
    assert np.max(np.abs(hxy)) < 1e-10
    assert np.max(np.abs(hyy)) < 1e-10


@pytest.mark.parametrize("n", [32, 64, 128])
def test_spectral_preconditioner_equals_fft_divide(n):
    # the cached complex reciprocal reproduces the divide bit for bit on
    # the symbol of every torus PCG: the backward conjugate step, the
    # Newton system of the forward step, lambda_min and mu_plus
    x = (np.arange(n) / n)[:, None]
    phi = 0.3 * np.sin(2 * math.pi * x) * np.ones((n, n))
    m = ConformalTorusMetric(phi)
    hx, hy = m.spacing
    lam = laplacian_symbol(phi.shape, m.spacing)
    dt = 0.5 * hx * hy
    c_bar = float(np.mean(np.exp(-2.0 * phi)))
    e2p, r = np.exp(2.0 * phi), curvature(m).scalar
    shift = float(np.min(r)) - 1.0
    symbols = {
        "backward": (1.0 - 0.5 * dt * round(c_bar, 6) * lam, 1.0),
        "newton": (1.0 - 0.5 * dt * math.exp(-2.0 * float(np.mean(phi))) * lam, 1.0),
        "lambda_min": (float(np.mean(e2p * (r - shift))) - 4.0 * lam, e2p),
        "mu_plus": (2.0 - 8.0 * 0.7 * c_bar * lam, 1.0),
    }
    rng = np.random.default_rng(n)
    for name, (denom, weight) in symbols.items():
        apply = spectral_preconditioner(denom)
        for scale in (1e-9, 1.0, 1e4):
            v = weight * scale * rng.standard_normal((n, n))
            assert np.array_equal(apply(v), fft_divide(v, denom)), name


@pytest.mark.parametrize("mode", [(1, 0), (0, 1), (3, 5), (7, 11)])
def test_shared_kernels_on_non_square_torus(mode):
    # unequal grid sizes and periods: an hx/hy or axis swap in any shared
    # kernel moves the result far beyond round-off
    nx, ny, periods = 16, 24, (1.0, 1.7)
    hx, hy = periods[0] / nx, periods[1] / ny
    kx, ky = mode
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    theta = 2 * math.pi * (kx * i / nx + ky * j / ny)
    f = np.cos(theta)

    # the FFT symbol is the exact eigenvalue of the periodic Laplacian
    lam = laplacian_symbol((nx, ny), (hx, hy))
    assert lam.shape == (nx, ny)
    scale = float(np.max(np.abs(lam)))
    assert np.max(np.abs(_lap0(f, hx, hy) - lam[kx, ky] * f)) <= 1e-12 * scale
    # mixed difference; the covariant Hessian traces to lap0 for any phi
    a, b = 2 * math.pi * kx / nx, 2 * math.pi * ky / ny
    fxy = -math.sin(a) * math.sin(b) / (hx * hy) * f
    assert np.max(np.abs(_dxy(f, hx, hy) - fxy)) <= 1e-12 * scale
    m = ConformalTorusMetric(0.2 * np.sin(theta + 0.3), periods)
    h_xx, _, h_yy = hessian_covariant(m, f)
    assert np.max(np.abs(h_xx + h_yy - _lap0(f, hx, hy))) <= 1e-12 * scale

    # the five-point time derivative is exact on a quartic in t
    times = 0.3 + 0.05 * np.arange(7)
    derivs, idx = time_derivative([(2 * t**4 - t**3 + 0.5 * t) * f for t in times], times)
    assert idx == [2, 3, 4]
    for d, k in zip(derivs, idx):
        t = times[k]
        assert np.max(np.abs(d - (8 * t**3 - 3 * t**2 + 0.5) * f)) <= 1e-11
    # four samples, or five uneven ones, take centered differences
    assert RunningDerivative(times[:4]).idx == [1, 2]
    assert RunningDerivative([0.0, 0.2, 0.5, 0.55, 1.0]).idx == [1, 2, 3]

    # Hermite reproduces a cubic from exact slopes on uneven samples and
    # refuses times outside them, directly and through both wrappers
    ts = np.array([0.0, 0.2, 0.5, 0.55, 1.0])
    vals = np.array([(t**3 - 2 * t**2 + 0.25) * f for t in ts])
    slopes = np.array([(3 * t**2 - 4 * t) * f for t in ts])
    hist = FlowHistory(m, ts, vals.reshape(5, -1), slopes.reshape(5, -1))
    traj = OdeTrajectory(ts, vals.reshape(5, -1), slopes.reshape(5, -1))
    for t in (0.0, 0.13, 0.5, 0.77, 1.0):
        exact = (t**3 - 2 * t**2 + 0.25) * f
        k, s, h = hermite_interval(ts, t, 1e-12)
        got = hermite_cubic(s, h, vals[k], slopes[k], vals[k + 1], slopes[k + 1])
        assert np.max(np.abs(got - exact)) <= 1e-13
        assert np.max(np.abs(hist.params_at(t).reshape(nx, ny) - exact)) <= 1e-13
        assert np.max(np.abs(traj(t).reshape(nx, ny) - exact)) <= 1e-13
    for bad in (-1e-6, 1.0 + 1e-6, math.nan):
        with pytest.raises(ValueError, match="outside"):
            hermite_interval(ts, bad, 1e-12)
    with pytest.raises(ValueError, match="outside"):
        hist.params_at(1.01)
    with pytest.raises(ValueError, match="outside"):
        traj(1.01)


def test_stencils_equal_roll_formulas_on_non_square_grid():
    # the roll-free shifts must give np.roll's values bit for bit
    rng = np.random.default_rng(7)
    f = rng.standard_normal((16, 24))
    hx, hy = 1.0 / 16, 1.7 / 24

    def roll(k, axis, g=f):
        return np.roll(g, k, axis=axis)

    assert np.array_equal(_dx(f, hx), (roll(-1, 0) - roll(1, 0)) / (2.0 * hx))
    assert np.array_equal(_dy(f, hy), (roll(-1, 1) - roll(1, 1)) / (2.0 * hy))
    for axis, h in ((0, hx), (1, hy)):
        expected = (roll(-1, axis) + roll(1, axis) - 2.0 * f) / (h * h)
        assert np.array_equal(_d2(f, h, axis), expected)
    fp, fm = roll(-1, 0), roll(1, 0)
    expected = (roll(-1, 1, fp) - roll(1, 1, fp) - roll(-1, 1, fm) + roll(1, 1, fm)) / (
        4.0 * hx * hy
    )
    assert np.array_equal(_dxy(f, hx, hy), expected)


def skewed_history():
    # 16x24 history with periods (1, 1.7), uneven sample times and a
    # nonzero evolution right-hand side
    rng = np.random.default_rng(5)
    ts = np.array([0.0, 0.013, 0.05, 0.0625])
    vals = 0.2 * rng.standard_normal((4, 16 * 24))
    m0 = ConformalTorusMetric(vals[0].reshape(16, 24), (1.0, 1.7))
    return FlowHistory(m0, ts, vals, rng.standard_normal((4, 16 * 24)))


def bits(a):
    # == on the bit patterns: tells -0.0 from 0.0
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_batched_history_lookup_equals_params_at():
    # sample nodes, times inside the intervals and times within the clamp
    # slack at both ends, in increasing and decreasing order, on a torus
    # (384 params), a model-space (1) and a homogeneous (3) history and
    # through a blowdown: every row has the bits of a per-time params_at
    rng = np.random.default_rng(9)
    histories = (skewed_history(),
                 evolve(ModelSpaceMetric(3, -1, 1.0, 1.0), (0.0, 3.0)),
                 evolve(HomogeneousMetric(HEISENBERG, (1.0, 1.0, 1.0)), (0.0, 2.0)))
    for h in histories:
        lo, hi = h.t_min - 0.5e-10 * (1 + abs(h.t_min)), h.t_max + 0.5e-10 * (1 + h.t_max)
        ts = np.concatenate([h.times, rng.uniform(h.t_min, h.t_max, 400), [lo, hi]])
        want = np.array([h.params_at(t) for t in ts])
        assert want.shape == (len(ts), h.params.shape[1])
        assert np.array_equal(bits(h.params_at_times(ts)), bits(want))
        assert np.array_equal(bits(h.params_at_times(list(ts[::-1]))), bits(want[::-1]))
        assert h.params_at_times([]).shape == (0, h.params.shape[1])
        for m, t in zip(h.metrics_at(ts[:30]), ts[:30]):
            want_m = h.metric_at(t)
            if h.kind == "conformal_torus":
                assert np.array_equal(bits(m.phi), bits(want_m.phi))
            else:
                assert m == want_m
        bd = blowdown(h, 4.0)
        want_bd = np.array([bd.params_at(t) for t in ts[:40] / 4.0])
        assert np.array_equal(bits(bd.params_at_times(ts[:40] / 4.0)), bits(want_bd))
        # the first time out of range or NaN is the one named, as in params_at
        for bad in (h.t_max + 1e-6, h.t_min - 1e-6, math.nan):
            for batch in ([bad], [0.5 * h.t_max, bad, math.inf]):
                with pytest.raises(ValueError, match=f"time {bad} outside"):
                    h.params_at_times(batch)
            with pytest.raises(ValueError, match=f"time {bad} outside"):
                h.params_at(bad)


def test_stencils_on_stacks_equal_per_grid_calls():
    stack = skewed_history().params.reshape(4, 16, 24)
    hx, hy = 1.0 / 16, 1.7 / 24
    for op in (lambda f: _dx(f, hx), lambda f: _dy(f, hy), lambda f: _d2(f, hx, 0),
               lambda f: _d2(f, hy, 1), lambda f: _lap0(f, hx, hy)):
        assert np.array_equal(op(stack), np.stack([op(f) for f in stack]))


def test_model_json_round_trip():
    models = [
        HomogeneousMetric(HEISENBERG, (1.0, 2.0, 3.0), 1.5),
        torus(16, 0.1),
        ModelSpaceMetric(3, -1, 1.0, 1.0),
    ]
    for m in models:
        doc = model_to_json(m)
        m2 = model_from_json(doc)
        assert type(m2) is type(m)
        assert abs(volume(m2) - volume(m)) < 1e-12


@pytest.mark.parametrize("doc", [5, [], {"kind": "model_space", "dim": 3, "sectional_sign": -1,
                                         "scale": 10**400}])
def test_model_spec_outside_json_objects_and_floats_rejected(doc):
    with pytest.raises((TypeError, ValueError)):
        model_from_json(doc)
