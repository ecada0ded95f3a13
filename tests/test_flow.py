import math
import tracemalloc
import warnings

import numpy as np
import pytest

from expanderlab.acceptance import HYPERBOLIC3
from expanderlab.flow import (
    FlowHistory,
    blowdown,
    check_R_lower_bound,
    evolve,
    scaled_volume,
)
from expanderlab.geometry import (
    ConformalTorusMetric,
    HomogeneousMetric,
    ModelSpaceMetric,
    curvature,
    integrate,
    volume,
)
from oracles import (
    blowdown_params_at,
    blowdown_params_at_times,
    evolve_torus_listed,
    evolve_torus_recomputing,
)

SPHERE3 = ModelSpaceMetric(dim=3, sectional_sign=1, scale=1.0, base_volume=1.0)


def sine_torus(n=32, amp=0.3):
    x = (np.arange(n) / n)[:, None]
    return ConformalTorusMetric(amp * np.sin(2 * math.pi * x) * np.ones((n, n)))


def test_hyperbolic_scale_exact():
    h = evolve(HYPERBOLIC3, (0.0, 10.0))
    ts = np.linspace(0.0, 10.0, 23)
    for t in ts:
        assert abs(h.metric_at(t).scale - (1.0 + 4.0 * t)) < 1e-12
    assert h.extinct_at is None
    assert abs(h.birth_time - (-0.25)) < 1e-15


def test_round_sphere_extinction():
    h = evolve(SPHERE3, (0.0, 1.0))
    assert h.extinct_at is not None
    assert abs(h.extinct_at - 0.25) < 1e-12
    t = 0.2
    assert abs(h.metric_at(t).scale - (1.0 - 4.0 * t)) < 1e-12


def test_torus_constant_phi_static():
    m0 = ConformalTorusMetric(np.full((16, 16), 0.37))
    h = evolve(m0, (0.0, 0.01))
    assert np.max(np.abs(h.metric_at(0.01).phi - 0.37)) < 1e-13


def test_torus_flow_decays_and_conserves_volume():
    m0 = sine_torus(32, 0.3)
    h = evolve(m0, (0.0, 0.05))
    v0, v1 = h.volume_at(0.0), h.volume_at(0.05)
    # closed surface of zero Euler characteristic: total curvature zero,
    # so the volume is constant along the flow up to the O(dt^2) stepping drift
    assert abs(v1 - v0) < 5e-5 * v0
    amp0 = np.max(np.abs(h.metric_at(0.0).phi))
    amp1 = np.max(np.abs(h.metric_at(0.05).phi))
    assert amp1 < 0.35 * amp0


def test_dV_dt_equals_minus_total_curvature():
    h = evolve(HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 2.0))
    for t in (0.3, 1.0, 1.7):
        d = 1e-5
        dv = (h.volume_at(t + d) - h.volume_at(t - d)) / (2 * d)
        m = h.metric_at(t)
        total_r = integrate(m, curvature(m).scalar)
        assert abs(dv + total_r) < 1e-6 * (1 + abs(total_r))


def test_einstein_initial_data_stays_einstein():
    h = evolve(HomogeneousMetric((2.0, 2.0, 2.0), (1.0, 1.0, 1.0)), (0.0, 0.2))
    for t in (0.05, 0.1, 0.18):
        m = h.metric_at(t)
        rho = np.asarray(curvature(m).ricci) / np.asarray(m.diag)
        assert np.max(rho) - np.min(rho) < 1e-8
        # matches the round model-space law a(t) = 1 - 4t
        assert abs(m.diag[0] - (1.0 - 4.0 * t)) < 1e-9


def test_su2_flow_halts_at_extinction():
    h = evolve(HomogeneousMetric((2.0, 2.0, 2.0), (1.0, 1.0, 1.0)), (0.0, 1.0))
    assert h.extinct_at is not None
    assert abs(h.extinct_at - 0.25) < 1e-3


def test_scaled_volume_hyperbolic():
    h = evolve(HYPERBOLIC3, (0.0, 20.0))
    want = (41.0 / 10.0) ** 1.5
    assert abs(scaled_volume(h, 10.0) - want) < 1e-12
    # nonincreasing at the sampled grid
    ts = np.linspace(0.5, 20.0, 40)
    vals = [scaled_volume(h, t) for t in ts]
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        scaled_volume(h, 0.0)


def test_scaled_volume_static_flat_decreasing():
    m0 = ConformalTorusMetric(np.zeros((16, 16)))
    h = evolve(m0, (0.0, 0.05))
    ts = np.linspace(0.005, 0.05, 12)
    vals = [scaled_volume(h, t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_scaled_volume_nonincreasing_on_testbeds():
    histories = [
        evolve(HYPERBOLIC3, (0.0, 5.0)),
        evolve(HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 5.0)),
        evolve(sine_torus(16, 0.2), (0.0, 0.04)),
    ]
    for h in histories:
        ts = np.linspace(max(h.t_min, 1e-2 * h.t_max) + 1e-9, h.t_max, 25)
        vals = [scaled_volume(h, t) for t in ts]
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(vals, vals[1:]))


def test_R_lower_bound_reports():
    for h in (
        evolve(HYPERBOLIC3, (0.0, 10.0)),
        evolve(sine_torus(32, 0.3), (0.0, 0.03)),
        evolve(HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 3.0)),
    ):
        ok = check_R_lower_bound(h, tol=1e-8)
        times = [float(t) for t in h.times if t > 0]
        margin = min(float(np.min(curvature(m).scalar)) + h.dim / (2.0 * t)
                     for t, m in zip(times, h.metrics_at(times)))
        assert ok is True and margin >= -1e-8, f"{h.kind}: min margin {margin}"


def test_blowdown_scale_algebra():
    h = evolve(HYPERBOLIC3, (0.0, 40.0))
    bd = blowdown(h, 8.0)
    for t in (0.5, 1.0, 4.0):
        assert abs(scaled_volume(bd, t) - scaled_volume(h, 8.0 * t)) < 1e-10
        # rescaled metric: a_alpha(t) = (1 + 4 alpha t)/alpha
        assert abs(bd.metric_at(t).scale - (1.0 + 32.0 * t) / 8.0) < 1e-10


def test_blowdown_flat_static_collapses():
    m0 = ConformalTorusMetric(np.zeros((16, 16)))
    h = evolve(m0, (0.0, 1e-2))
    bd = blowdown(h, 4.0)
    assert abs(volume(bd.metric_at(1e-3)) - 1.0 / 4.0) < 1e-12


def test_history_kind_follows_its_template():
    # every history, a blowdown included, takes its kind from its
    # template; a template of no known type is refused at construction
    templates = {"model_space": HYPERBOLIC3,
                 "homogeneous": HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                 "conformal_torus": ConformalTorusMetric(np.zeros((8, 8)))}
    for kind, m0 in templates.items():
        h = evolve(m0, (0.0, 1e-3))
        assert h.kind == blowdown(h, 2.0).kind == kind
    ts = np.array([0.0, 1.0])
    with pytest.raises(TypeError, match="unknown metric model"):
        FlowHistory(object(), ts, np.zeros((2, 1)), np.zeros((2, 1)))


@pytest.mark.parametrize("kwargs", [{"dt_cap": 0.0}, {"dt_cap": -0.05}, {"dt_cap": math.nan},
                                    {"retain_every": 0}, {"retain_every": -3}])
def test_evolve_rejects_nonpositive_step_controls(kwargs):
    # a zero cap or retention stride used to divide by zero, and a negative
    # cap turned into one implicit step over the whole span
    with pytest.raises(ValueError, match="dt_cap"):
        evolve(sine_torus(16), (0.0, 0.01), **kwargs)


def test_torus_step_stops_on_a_non_finite_state():
    # at amplitude 4 the first step overflows; every later step used to run
    # 12 Newton iterations of 200 CG iterations each on NaN.  The named error
    # ends the run even with warnings as errors: the overflow warned first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="torus step .* turned non-finite"):
            evolve(sine_torus(32, 4.0), (0.0, 0.6))


def test_blowdown_requires_alpha_geq_one():
    with pytest.raises(ValueError, match="alpha must be >= 1"):
        blowdown(evolve(HYPERBOLIC3, (0.0, 1.0)), 0.5)


def bits(a):
    # == on the bit patterns: tells -0.0 from 0.0
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_blowdown_has_the_rescaled_lookups_bits_for_powers_of_two():
    # dividing by a power of two is exact, so on model-space and homogeneous
    # histories the rescaled samples give, scalar and batched, the bits of
    # the source's lookup at alpha t divided by alpha
    rng = np.random.default_rng(5)
    for h in (evolve(HYPERBOLIC3, (0.0, 4.0)),
              evolve(HomogeneousMetric((2.0, 2.0, 2.0), (1.0, 1.0, 1.0)), (0.0, 1.0))):
        for alpha in (2.0, 4.0, 8.0):
            bd = blowdown(h, alpha)
            assert bd.kind == h.kind
            assert np.array_equal(bits(bd.times), bits(h.times / alpha))
            assert bd.birth_time == h.birth_time / alpha
            assert bd.extinct_at == (None if h.extinct_at is None else h.extinct_at / alpha)
            ts = np.concatenate([bd.times, rng.uniform(bd.t_min, bd.t_max, 200)])
            want = np.array([blowdown_params_at(h, alpha, t) for t in ts])
            assert np.array_equal(bits([bd.params_at(t) for t in ts]), bits(want))
            assert np.array_equal(bits(bd.params_at_times(ts)),
                                  bits(blowdown_params_at_times(h, alpha, ts)))


def test_blowdown_agrees_with_the_rescaled_lookup_to_round_off():
    # any alpha, and the torus, whose rate gains the factor alpha: between
    # samples the lookups agree to round-off, where an unscaled torus rate
    # would miss by the interpolation step
    cases = ((evolve(HYPERBOLIC3, (0.0, 4.0)), 3.0),
             (evolve(HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 3.0)), 3.0),
             (evolve(sine_torus(16, 0.3), (0.0, 0.02)), 3.0),
             (evolve(sine_torus(16, 0.3), (0.0, 0.02)), 4.0))
    for h, alpha in cases:
        bd = blowdown(h, alpha)
        mid = 0.5 * (bd.times[:-1] + bd.times[1:])
        want = blowdown_params_at_times(h, alpha, mid)
        for got in (bd.params_at_times(mid), np.array([bd.params_at(t) for t in mid])):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (h.kind, alpha)


def test_export_csv(tmp_path):
    h = evolve(HYPERBOLIC3, (0.0, 1.0), n_snapshots=5)
    out = tmp_path / "hist.csv"
    h.export_csv(out)
    text = out.read_text()
    assert text.splitlines()[0] == "t,a,V,R_min,R_max"
    assert len(text.splitlines()) == 6


def test_export_and_bound_share_one_curvature_pass(tmp_path, monkeypatch):
    # export_csv and check_R_lower_bound on one history build each
    # sample's metric and curvature once (they each built both at every
    # sample), and the R_min column has the bits the bound reads: those of
    # the minimum of the curvature at the sample
    import csv

    from expanderlab import flow

    calls, metrics = [], []
    make_metric = flow.FlowHistory._metric

    def spy(m):
        calls.append(m)
        return curvature(m)

    def metric_spy(self, p):
        metrics.append(p)
        return make_metric(self, p)

    monkeypatch.setattr(flow, "curvature", spy)
    monkeypatch.setattr(flow.FlowHistory, "_metric", metric_spy)
    for h in (evolve(HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 3.0)),
              evolve(sine_torus(16, 0.3), (0.0, 0.02)),
              evolve(HYPERBOLIC3, (0.0, 1.0), n_snapshots=5)):
        calls.clear()
        metrics.clear()
        h.export_csv(tmp_path / "flow.csv")
        assert check_R_lower_bound(h, tol=1e-8)
        assert len(calls) == len(metrics) == len(h.times) > 4, h.kind
        with open(tmp_path / "flow.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        r_min = [float(row["R_min"]) for row in rows]
        assert r_min == [lo for _, lo, _ in h.sample_geometry], h.kind
        want = [float(np.min(curvature(m).scalar)) for m in h.metrics_at(h.times)]
        assert np.array_equal(bits(r_min), bits(want)), h.kind
        want = [volume(m) for m in h.metrics_at(h.times)]
        assert [float(row["V"]) for row in rows] == want, h.kind


@pytest.mark.parametrize("n", [32, 64])
def test_torus_newton_reuse_is_bit_identical(n):
    # the stepper hands each residual's exp(-2 psi) and right-hand side to
    # its Newton system and the converged one to the next step; the
    # stored samples equal a stepper that recomputes both every iteration
    h = evolve(sine_torus(n), (0.0, 0.01))
    params, param_rhs = evolve_torus_recomputing(sine_torus(n), 0.01)
    assert np.array_equal(h.params, params)
    assert np.array_equal(h.param_rhs, param_rhs)


@pytest.mark.parametrize("retain_every, dt_cap, n_rows", [
    (1, None, 129),        # every step of the 128
    (16, None, 9),         # a divisor of 128
    (5, None, 27),         # 128 = 25 * 5 + 3: the last step is appended
    (10**9, None, 2),      # beyond the last step, as flat_static passes
    (None, None, 65),      # the default 128 // 64 = 2, a divisor
    (None, 1.5e-3, 85),    # 167 steps, default 2: the last step is appended
])
def test_torus_history_rows_equal_the_listed_reference(retain_every, dt_cap, n_rows):
    # the evolve writes its retained rows into arrays sized up front; they
    # equal the rows collected in lists and stacked at the end, bit for bit
    h = evolve(sine_torus(16), (0.0, 0.25), retain_every=retain_every, dt_cap=dt_cap)
    times, params, param_rhs = evolve_torus_listed(sine_torus(16), (0.0, 0.25),
                                                   retain_every, dt_cap)
    assert len(h.times) == n_rows
    assert np.array_equal(h.times, times)
    assert np.array_equal(h.params, params)
    assert np.array_equal(h.param_rhs, param_rhs)


def test_torus_evolve_holds_its_history_once():
    """The 64x64 evolve to t = 0.012 takes ceil(0.012 / (h^2 / 2)) = 99
    steps and keeps all 100 rows (99 // 64 = 1): params and param_rhs are
    100 x 64^2 x 8 B = 3.3 MB each, 6.6 MB together.  A step works in a
    few grids of 32 KiB (Newton and CG vectors, FFT spectra at 2 grids
    each), so the traced peak stays within the history plus 32 grids
    (1 MiB).  Rows stacked from lists at the end held the history twice:
    ~13 MB."""
    tracemalloc.start()
    try:
        h = evolve(sine_torus(64), (0.0, 0.012))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.params.shape == (100, 64 * 64)
    assert peak <= h.params.nbytes + h.param_rhs.nbytes + 32 * 64 * 64 * 8
