import math
import tracemalloc

import numpy as np
import pytest

from expanderlab.acceptance import HYPERBOLIC3, sine_torus
from expanderlab.conjugate_heat import (
    DensityState,
    check_harnack_identity,
    construct_immortal_density,
    log_potential,
    solve_conjugate_backward,
)
from expanderlab.conjugate_heat import _solve_backward_torus
from expanderlab.flow import LEVEL_BATCH_BYTES, evolve
from expanderlab.geometry import (
    ConformalTorusMetric,
    HomogeneousMetric,
    integrate,
    volume,
)
from oracles import (
    backward_torus_per_step,
    harnack_identity_separate,
    immortal_u_at_per_call,
    potential_evolution_separate,
    steady_harnack_separate,
    v_plus,
)

def torus_history(n=32, t_end=0.04):
    return evolve(sine_torus(n), (0.0, t_end))


def test_potential_round_trip():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.2, 3.0, size=(8, 8))
    sigma, n = 0.37, 2
    f = log_potential(u, sigma, n)
    back = np.exp(-f) / (4.0 * math.pi * sigma) ** (n / 2)
    assert np.max(np.abs(back - u)) < 1e-14 * np.max(u)


def test_homogeneous_backward_solve_is_inverse_volume():
    h = evolve(HYPERBOLIC3, (0.0, 5.0))
    states = solve_conjugate_backward(h, 5.0, 1.0 / h.volume_at(5.0),
                                      t_start=0.5, n_retain=7)
    for s in states:
        assert abs(s.u - 1.0 / h.volume_at(s.t)) < 1e-13
        assert abs(integrate(h.metric_at(s.t), s.u) - 1.0) < 1e-12


def test_flat_static_uniform_stays_uniform():
    h = evolve(ConformalTorusMetric(np.zeros((16, 16))), (0.0, 0.01))
    states = solve_conjugate_backward(h, 0.01, np.ones((16, 16)),
                                      t_start=0.002, n_retain=5)
    for s in states:
        assert np.max(np.abs(s.u - 1.0)) < 1e-12


def test_torus_mass_conserved_and_positive():
    h = torus_history(32, 0.03)
    rng = np.random.default_rng(5)
    m_fin = h.metric_at(0.03)
    u_fin = 1.0 + 0.5 * rng.random((32, 32))
    u_fin = u_fin / integrate(m_fin, u_fin)
    states = solve_conjugate_backward(h, 0.03, u_fin, t_start=0.005, n_retain=9)
    for s in states:
        assert abs(integrate(h.metric_at(s.t), s.u) - 1.0) < 1e-10
        assert float(np.min(s.u)) > 0.0


def test_harnack_identity_homogeneous_exact():
    # negatively curved model flow: the identity is exact along the closed
    # form; only the 5-point time differencing contributes residual
    h = evolve(HYPERBOLIC3, (0.0, 3.0))
    times = np.linspace(1.0, 1.04, 9)
    states = [DensityState(t, 1.0 / h.volume_at(t)) for t in times]
    rep = check_harnack_identity(states, h, birth_time=-0.25)
    assert rep.max_residual < 1e-8
    assert rep.rhs_min >= 0.0
    assert rep.extra["prefactor"] < 1e-8
    # with the generic birth time zero the identity still holds
    rep0 = check_harnack_identity(states, h, birth_time=0.0)
    assert rep0.max_residual < 1e-8


def test_harnack_identity_nilpotent_flow():
    h = evolve(HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 3.0))
    times = np.linspace(1.5, 1.54, 9)
    states = [DensityState(t, 1.0 / h.volume_at(t)) for t in times]
    rep = check_harnack_identity(states, h, birth_time=0.0)
    assert rep.max_residual < 1e-8


def test_harnack_identity_torus_second_order():
    residuals = {}
    for n in (32, 64):
        h = torus_history(n, 0.012)
        m_fin = h.metric_at(0.012)
        x = (np.arange(n) / n)[:, None]
        y = (np.arange(n) / n)[None, :]
        u_fin = 1.0 + 0.4 * np.sin(2 * math.pi * x) * np.cos(2 * math.pi * y)
        u_fin = u_fin / integrate(m_fin, u_fin)
        states = solve_conjugate_backward(h, 0.012, u_fin, t_start=0.004, n_retain=9)
        rep = check_harnack_identity(states[2:7], h, birth_time=-0.05)
        residuals[n] = rep.max_residual
        assert rep.rhs_min >= 0.0
    order = math.log2(residuals[32] / residuals[64])
    assert order > 1.8, f"residuals {residuals}, order {order:.2f}"


def test_steady_harnack_flat_static_zero():
    h = evolve(ConformalTorusMetric(np.zeros((16, 16))), (0.0, 0.02))
    states = solve_conjugate_backward(h, 0.02, np.ones((16, 16)),
                                      t_start=0.004, n_retain=7)
    rep = check_harnack_identity(states, h)
    assert rep.extra["steady"] < 1e-12


def test_steady_harnack_homogeneous_exact():
    h = evolve(HYPERBOLIC3, (0.0, 3.0))
    times = np.linspace(1.0, 1.04, 9)
    states = [DensityState(t, 1.0 / h.volume_at(t)) for t in times]
    rep = check_harnack_identity(states, h)
    assert rep.extra["steady"] < 1e-8


def test_f_plus_evolution_residuals():
    # flat static uniform: d f/dt = -n/(2t) identically
    h = evolve(ConformalTorusMetric(np.zeros((16, 16))), (0.0, 1.1), retain_every=10**9)
    times = np.linspace(1.0, 1.04, 9)
    states = [DensityState(t, np.ones((16, 16))) for t in times]
    rep = check_harnack_identity(states, h, birth_time=0.0)
    assert rep.extra["potential"] < 1e-8
    # homogeneous flow
    hh = evolve(HYPERBOLIC3, (0.0, 3.0))
    states = [DensityState(t, 1.0 / hh.volume_at(t)) for t in np.linspace(1.0, 1.04, 9)]
    rep = check_harnack_identity(states, hh, birth_time=0.0)
    assert rep.extra["potential"] < 1e-8
    # torus flow: grid-level residual
    ht = torus_history(32, 0.012)
    m_fin = ht.metric_at(0.012)
    u_fin = np.full((32, 32), 1.0)
    u_fin = u_fin / integrate(m_fin, u_fin)
    states = solve_conjugate_backward(ht, 0.012, u_fin, t_start=0.004, n_retain=9)
    rep = check_harnack_identity(states[2:7], ht, birth_time=-0.05)
    assert rep.extra["potential"] < 5e-2


def _identity_state_sets():
    ht = torus_history(32, 0.012)
    x = (np.arange(32) / 32)[:, None]
    y = (np.arange(32) / 32)[None, :]
    u_fin = 1.0 + 0.4 * np.sin(2 * math.pi * x) * np.cos(2 * math.pi * y)
    u_fin = u_fin / integrate(ht.metric_at(0.012), u_fin)
    torus = solve_conjugate_backward(ht, 0.012, u_fin, t_start=0.004, n_retain=9)
    yield ht, torus[2:7], -0.05
    hf = evolve(ConformalTorusMetric(np.zeros((16, 16))), (0.0, 0.02))
    yield hf, solve_conjugate_backward(hf, 0.02, np.ones((16, 16)),
                                       t_start=0.004, n_retain=7), 0.0
    for model in (HYPERBOLIC3, HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0))):
        h = evolve(model, (0.0, 3.0))
        yield h, [DensityState(t, 1.0 / h.volume_at(t))
                  for t in np.linspace(1.5, 1.54, 9)], -0.25


def test_one_pass_matches_the_separate_checks_bitwise():
    for h, states, birth in _identity_state_sets():
        rep = check_harnack_identity(states, h, birth_time=birth)
        ref = harnack_identity_separate(states, h, birth_time=birth)
        assert rep.times == ref.times and rep.per_time == ref.per_time
        assert rep.max_residual == ref.max_residual
        assert rep.rhs_min == ref.rhs_min
        assert rep.extra["prefactor"] == ref.extra["prefactor"]
        assert rep.extra["steady"] == steady_harnack_separate(states, h).max_residual
        assert rep.extra["potential"] == potential_evolution_separate(
            states, h, birth_time=birth).max_residual


def test_v_plus_integral_equals_entropy_homogeneous():
    h = evolve(HYPERBOLIC3, (0.0, 2.0))
    t = 1.3
    state = DensityState(t, 1.0 / h.volume_at(t))
    field, total = v_plus(state, h, birth_time=-0.25)
    sigma = t + 0.25
    m = h.metric_at(t)
    from expanderlab.geometry import curvature

    r = curvature(m).scalar
    v = volume(m)
    want = sigma * r - (math.log(v) - 1.5 * math.log(4 * math.pi * sigma)) + 3.0
    assert abs(total - want) < 1e-10


def test_immortal_density_homogeneous_fixed_point():
    h = evolve(HYPERBOLIC3, (0.0, 20.0))
    dens = construct_immortal_density(h, (0.5, 2.0), tol=1e-9)
    assert dens.converged
    assert dens.cauchy_gap == 0.0
    assert abs(dens.u_at(1.0) - 1.0 / h.volume_at(1.0)) < 1e-13


def test_immortal_density_torus_cauchy():
    h = torus_history(32, 0.32)
    dens = construct_immortal_density(h, (0.005, 0.02), tol=1e-5)
    assert dens.converged
    assert dens.cauchy_gap < 1e-5
    for s in dens.states:
        assert abs(integrate(h.metric_at(s.t), s.u) - 1.0) < 1e-10
        assert float(np.min(s.u)) > 0.0
    # the gap at least halves per tail doubling (it decays much faster here)
    full = construct_immortal_density(h, (0.005, 0.02), tol=1e-300)
    for a, b in zip(full.gaps, full.gaps[1:]):
        assert b <= 0.5 * a


def test_immortal_u_at_equals_the_per_call_rate_rule():
    # the rates -lap u + R u are stored once per retained state; u_at has
    # the bits of the rule that builds both end rates at every call
    h = torus_history(16, 0.1)
    dens = construct_immortal_density(h, (0.005, 0.02), tol=1e-6)
    for t in np.linspace(0.005, 0.02, 50):
        got, want = dens.u_at(t), immortal_u_at_per_call(dens, t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_immortal_density_unconverged_tail_flagged():
    h = torus_history(16, 0.02)
    dens = construct_immortal_density(h, (0.005, 0.01), tol=1e-300)
    assert not dens.converged


def test_immortal_sequence_start_insensitivity():
    # the construction should not depend on the choice of tail sequence;
    # probed empirically with two different starting tails
    h = torus_history(16, 0.3)
    d1 = construct_immortal_density(h, (0.005, 0.02), tol=1e-9)
    d2 = construct_immortal_density(h, (0.005, 0.02), tol=1e-9, first_tail=0.057)
    gap = max(
        float(np.max(np.abs(np.asarray(a.u) - np.asarray(b.u))))
        for a, b in zip(d1.states, d2.states)
    )
    assert gap < 1e-7


def test_backward_solve_validates_input():
    h = evolve(HYPERBOLIC3, (0.0, 1.0))
    with pytest.raises(ValueError):
        solve_conjugate_backward(h, 1.0, 3.0)  # mass not one
    ht = torus_history(16, t_end=0.01)
    u_fin = np.full((16, 16), 1.0 / volume(ht.metric_at(0.01)))
    for kwargs in ({"n_retain": 1}, {"n_retain": 0}, {"dt_cap": 0.0}, {"dt_cap": -0.05}):
        with pytest.raises(ValueError):
            solve_conjugate_backward(ht, 0.01, u_fin, **kwargs)


def test_batched_backward_levels_equal_per_step_solve():
    # 16x24 torus with periods (1, 1.7): each segment spans more than one
    # level batch and ends in a partial one; the states are bit-equal to
    # the solve that builds one level per step
    i, j = np.meshgrid(np.arange(16) / 16, np.arange(24) / 24, indexing="ij")
    phi = 0.3 * np.sin(2 * math.pi * i) + 0.1 * np.cos(2 * math.pi * (i + 2 * j))
    h = evolve(ConformalTorusMetric(phi, (1.0, 1.7)), (0.0, 0.3))
    times = np.linspace(0.02, 0.3, 3)
    dt_cap = 0.14 / 200
    per_seg = math.ceil(0.14 / dt_cap)
    block = LEVEL_BATCH_BYTES // (4 * h.template.phi.nbytes)
    assert per_seg > block and per_seg % block
    u_fin = np.full((16, 24), 1.0 / volume(h.metric_at(0.3)))
    got = _solve_backward_torus(h, times, u_fin, dt_cap)
    want = backward_torus_per_step(h, times, u_fin, dt_cap)
    assert [s.t for s in got] == list(times)
    for s, u in zip(got, want):
        assert np.array_equal(s.u, u)


def test_backward_solve_memory_does_not_grow_with_window():
    # every step of an evolving torus has its own preconditioner symbol;
    # the solve keeps only the current one, so with each segment longer
    # than a level batch the traced peak is the same for twice the steps
    h = torus_history(64, t_end=0.02)
    u_fin = np.full((64, 64), 1.0 / volume(h.metric_at(0.02)))
    peaks = []
    for window in (0.005, 0.01):
        tracemalloc.start()
        solve_conjugate_backward(h, 0.02, u_fin, t_start=0.02 - window, n_retain=2)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_integrated_identity_on_torus():
    # the time derivative of the entropy (integral of the density identity)
    # matches the rate integral at grid tolerance
    from expanderlab.geometry import soliton_residual_sq
    from expanderlab.conjugate_heat import log_potential

    h = torus_history(32, 0.012)
    m_fin = h.metric_at(0.012)
    u_fin = np.ones((32, 32)) / integrate(m_fin, np.ones((32, 32)))
    states = solve_conjugate_backward(h, 0.012, u_fin, t_start=0.004, n_retain=9)
    birth = -0.05
    totals = [v_plus(s, h, birth)[1] for s in states]
    times = [s.t for s in states]
    i = 4
    dt = times[i + 1] - times[i - 1]
    fd = (totals[i + 1] - totals[i - 1]) / dt
    m = h.metric_at(times[i])
    sigma = times[i] - birth
    f = log_potential(states[i].u, sigma, 2)
    rate = integrate(m, 2.0 * sigma * states[i].u * soliton_residual_sq(m, f, sigma))
    assert abs(fd - rate) < 1e-3 * (1.0 + abs(rate))
