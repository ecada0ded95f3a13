import collections
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from expanderlab.acceptance import HYPERBOLIC3, sine_torus
from expanderlab.entropy import nu_plus
from expanderlab.flow import LEVEL_BATCH_BYTES, SCRATCH_BYTES, FlowHistory, blowdown, evolve
from expanderlab.geometry import ConformalTorusMetric, HomogeneousMetric, ModelSpaceMetric
from expanderlab.reduced import (
    check_reduced_field,
    ell_plus_field,
    extrapolate_fields,
    geodesic_identity_residual,
    hessian_check_cor21,
    theta_plus,
)
from expanderlab.reduced import (
    _FIELDS,
    _descend,
    _RadialEngine,
    _oracle_torus_batch,
    _PathAction,
    _s_grid,
    _slice_ops,
    _spline_taps,
    _torus_integrate,
    _torus_rhs,
    _torus_shoot_targets,
    _TorusSlices,
)
from oracles import (
    hessian_margins_hand_rolled,
    model_shot_separate,
    radial_integrals_separate,
    reduced_identities_separate,
    reduced_inequalities_separate,
    subgrid_ops_hand_rolled,
    theta_plus_hand_rolled,
    theta_supersolution_separate,
    torus_integrate_per_time,
    torus_shoot_per_time,
    torus_slice_grids,
)

def flat_history(n=32, t_end=1.5):
    return evolve(ConformalTorusMetric(np.zeros((n, n))), (0.0, t_end),
                  retain_every=10**9, dt_cap=0.05)


def vertex_expander_history(t_end=4.0):
    # negatively curved model flow born at zero size: scale 4t
    m0 = ModelSpaceMetric(dim=3, sectional_sign=-1, scale=4e-9, base_volume=1.0)
    h = evolve(m0, (0.0, t_end), n_snapshots=129)
    assert abs(h.metric_at(1.0).scale - (4e-9 + 4.0)) < 1e-12
    return h


def torus_flow_history(n=32, t_end=0.26):
    return evolve(sine_torus(n), (0.0, t_end))


@pytest.fixture(scope="module")
def torus16(read_only):
    """torus_flow_history(16, 0.26), built once for the module, read-only."""
    return read_only(torus_flow_history(16, 0.26))


@pytest.fixture(scope="module")
def torus32(read_only):
    """torus_flow_history(32, 0.1), built once for the module, read-only."""
    return read_only(torus_flow_history(32, 0.1))


def skewed_torus_slices():
    # 16x24 history with periods (1, 1.7) and a field that moves in time
    nx, ny, periods = 16, 24, (1.0, 1.7)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    theta = 2 * math.pi * (i / nx + 2 * j / ny)
    ts = np.array([0.0, 0.5, 1.0])
    vals = np.array([(0.2 + 0.1 * t) * np.sin(theta + t) for t in ts]).reshape(3, -1)
    m0 = ConformalTorusMetric(vals[0].reshape(nx, ny), periods)
    h = FlowHistory(m0, ts, vals, np.zeros_like(vals))
    return _TorusSlices(h, _s_grid(0.8, 4)[2]), periods


def torus_distance_sq(y, lx=1.0, ly=1.0):
    dx = min(abs(y[0]) % lx, lx - abs(y[0]) % lx)
    dy = min(abs(y[1]) % ly, ly - abs(y[1]) % ly)
    return dx * dx + dy * dy


def flat_node_times(t, n_steps):
    """The nodes s of the s-grid to t and the times s**2 past the origin, the
    last at t itself."""
    s = _s_grid(t, n_steps)[1]
    times = s[1:] ** 2
    times[-1] = t
    return s, times


def flat_shot_nodes(h, p, t, n_steps):
    """(s, positions, action tail) of the flat-torus geodesic with momentum p
    at the nodes of its s-grid, from one `_torus_integrate` batch with one row
    per node time: the RK4 step is exact on the flat torus, so each row's end
    is the shot path's node to round-off."""
    s, times = flat_node_times(t, n_steps)
    res = _torus_integrate(h, times, np.tile(p, (len(times), 1)), n_steps)
    positions = np.concatenate([np.zeros((1, 2)), res["end"]])
    return s, positions, float(res["l_tail"][-1])


def shoot_with_momenta(h, targets, times, n_steps):
    """`_torus_shoot_targets` and the momentum of the row each target kept:
    the `momenta` argument of the `_torus_integrate` row whose end, l_tail
    and k gave the kept image, miss, l_tail and k, read from a spy that
    wraps whatever `_torus_integrate` is in place."""
    import expanderlab.reduced as reduced

    inner, sweeps = reduced._torus_integrate, []

    def spy(h, times, momenta, n_steps):
        res = inner(h, times, momenta, n_steps)
        sweeps.append((momenta.copy(), res["end"], res["l_tail"], res["k"]))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduced, "_torus_integrate", spy)
        shot = _torus_shoot_targets(h, targets, times, n_steps)
    p, end, l_tail, k = (np.concatenate(col) for col in zip(*sweeps))
    momenta = np.empty((len(targets), 2))
    for i, image in enumerate(shot["images"]):
        hit = ((np.max(np.abs(end - image), axis=1) == shot["miss"][i])
               & (l_tail == shot["l_tail"][i]) & (k == shot["k"][i]))
        assert len(np.unique(p[hit], axis=0)) == 1, i  # one momentum gave the kept row
        momenta[i] = p[hit][0]
    return shot, momenta


def translate_index(images, targets, periods):
    """The index of each image's translate (images - target, in whole periods)
    among `_lattice_images`' nine, i major."""
    i, j = np.rint((images - targets) / np.asarray(periods)).astype(int).T
    return 3 * (i + 1) + (j + 1)


def test_path_action_lower_bound_from_zero():
    # flows from t = 0 obey action >= -n sqrt(t) along any path
    h = vertex_expander_history()
    t = 1.0
    l_tail, *_, head = _RadialEngine(h, 1e-6, t).solve(2.0 * 0.2)
    assert l_tail + head >= -3.0 * math.sqrt(t) - 1e-9


def test_geodesic_shoot_flat_closed_form():
    h = flat_history()
    t = 1.0
    p = np.array([0.17, -0.08])
    s, positions, l_plus = flat_shot_nodes(h, p, t, 64)
    # X = v / (2 s) at each node, from the per-time reference shot to the
    # node's time, which returns the endpoint velocity v
    x_vel = np.array([torus_integrate_per_time(h, eta, p[None, :], 64)[1][0]
                      for eta in flat_node_times(t, 64)[1]]) / (2.0 * s[1:, None])
    # x(eta) = 2 p sqrt(eta), X = p / sqrt(eta)
    want = 2.0 * p[None, :] * s[:, None]
    assert np.max(np.abs(positions - want)) < 1e-12
    assert np.max(np.abs(x_vel - p[None, :] / s[1:, None])) < 1e-9
    assert abs(l_plus - 2.0 * float(p @ p) * math.sqrt(t)) < 1e-12
    assert geodesic_identity_residual(h, p, t) < 1e-12


def test_geodesic_shoot_vertex_speed_profile():
    # on the zero-size start the radial speed scales like eta^(-3/2)
    h = vertex_expander_history()
    eps, t = 1e-4, 1.0
    eng = _RadialEngine(h, eps, t)
    s = np.linspace(math.sqrt(eps), math.sqrt(t), 193)  # the engine's 192 steps from sqrt(eps)
    # X = v / (2 s) with the reduced speed v = v0 a(eps) / a(s^2), v0 = 2 p
    x_vel = 2.0 * 0.3 * (eng.a_eps / eng.a_nodes) / (2.0 * s)
    ratio = x_vel[1:] * (s[1:] ** 2) ** 1.5
    spread = (np.max(ratio) - np.min(ratio)) / np.max(np.abs(ratio))
    assert spread < 1e-4  # limited by the tiny seed scale of the vertex flow


def test_geodesic_gradient_consistency():
    # coordinate gradient of the action equals 2 sqrt(t) X(t) lowered by g;
    # the comparison needs the finer grid (the endpoint velocity carries an
    # O(h^2) interpolation bias)
    h = torus_flow_history(128, 0.024)
    t = 0.02
    y = np.array([0.21, 0.08])
    # the momentum ell_plus_field shoots y with, and X = v / (2 sqrt t) at its
    # end, from the per-time reference, which returns v
    p = shoot_with_momenta(h, y[None, :], np.array([t]), 96)[1]
    x_end = torus_integrate_per_time(h, t, p, 96)[1][0] / (2.0 * math.sqrt(t))
    m = h.metric_at(t)
    nx, _ = m.phi.shape
    # step large enough to average the C0 kinks of bilinear field sampling
    delta = 2e-3
    grads = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = delta
        lp = ell_plus_field(h, [y + e], [t], oracle_check=False)
        lm = ell_plus_field(h, [y - e], [t], oracle_check=False)
        grads.append(
            (lp.ell[0, 0] - lm.ell[0, 0]) * 2.0 * math.sqrt(t) / (2 * delta)
        )
    hx, hy = m.spacing
    fx, fy = (y[0] / hx) % nx, (y[1] / hy) % nx
    i0, j0 = int(fx), int(fy)
    i1, j1 = (i0 + 1) % nx, (j0 + 1) % nx
    ax, ay = fx - i0, fy - j0
    phi_y = (
        m.phi[i0, j0] * (1 - ax) * (1 - ay) + m.phi[i1, j0] * ax * (1 - ay)
        + m.phi[i0, j1] * (1 - ax) * ay + m.phi[i1, j1] * ax * ay
    )
    want = 2.0 * math.sqrt(t) * math.exp(2.0 * phi_y) * x_end
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.asarray(grads) - want)) / scale < 1e-4


def test_ell_field_flat_torus_closed_form():
    h = flat_history()
    pts = np.array([(i / 10.0, j / 10.0) for i in range(10) for j in range(10)])
    t = 1.0
    fld = ell_plus_field(h, pts, [t], oracle_check=False)
    want = np.array([torus_distance_sq(p) / (4.0 * t) for p in pts])
    assert np.max(np.abs(fld.ell[0] - want)) < 1e-6


def test_ell_field_oracle_agreement_flat():
    h = flat_history()
    pts = np.array([(i / 10.0, j / 10.0) for i in range(10) for j in range(10)])
    t = 1.0
    fld = ell_plus_field(h, pts, [t], oracle_check=True, oracle_segments=256)
    rel = np.abs(fld.ell[0] - fld.oracle_values[0]) / np.maximum(
        1.0, np.abs(fld.oracle_values[0])
    )
    assert np.max(rel) <= 1e-3
    flags = fld.oracle_flags
    assert isinstance(flags, np.ndarray) and flags.dtype == bool and flags.shape == (1, len(pts))
    assert not np.any(flags)
    # the oracle explores a restricted class: never below shooting - tol
    assert np.all(fld.oracle_values[0] >= fld.ell[0] - 1e-9)


def test_ell_field_oracle_agreement_torus_flow(torus32):
    h = torus32
    pts = np.array([(0.25, 0.0), (0.5, 0.25), (0.1, 0.4), (0.45, 0.45)])
    fld = ell_plus_field(h, pts, [0.06], oracle_check=True, oracle_segments=96)
    rel = np.abs(fld.ell[0] - fld.oracle_values[0]) / np.maximum(
        1.0, np.abs(fld.oracle_values[0])
    )
    assert np.max(rel) <= 1e-3


def test_report_verdicts_keep_their_formulas(torus32):
    hr = evolve(HYPERBOLIC3, (0.0, 3.0))
    rad = ell_plus_field(hr, np.linspace(0.0, 1.0, 9), np.linspace(0.8, 1.2, 5))
    assert rad.oracle_rel_gap is None
    h = torus32
    pts = np.array([(0.25, 0.0), (0.5, 0.25), (0.1, 0.4)])
    assert ell_plus_field(h, pts, [0.06], oracle_check=False).oracle_rel_gap is None
    fld = ell_plus_field(h, pts, [0.05, 0.06], oracle_check=True,
                         oracle_segments=32)
    fld.oracle_values[0, 1] = np.nan  # a value the oracle did not supply is skipped
    fin = np.isfinite(fld.oracle_values)
    rel = np.abs(fld.ell[fin] - fld.oracle_values[fin])
    rel = rel / np.maximum(1.0, np.abs(fld.oracle_values[fin]))
    assert fld.oracle_rel_gap == float(np.max(rel)) > 0.0
    # theta above its lower bound, then a field pushed below it
    for f in (rad, dataclasses.replace(rad, ell=rad.ell - 10.0)):
        series = theta_plus(f, hr)
        assert series.bound_ok == bool(np.all(series.theta >= series.lower_bound - 1e-12))
    assert theta_plus(rad, hr).bound_ok and not series.bound_ok


def test_ell_vertex_expander_epsilon_ladder():
    h = vertex_expander_history()
    radii = np.linspace(0.0, 1.0, 9)
    times = np.linspace(0.8, 1.2, 5)
    fields = [
        ell_plus_field(h, radii, times, eps=e) for e in (1e-3, 1e-4, 1e-5)
    ]
    # the lower bound holds at every regularization
    for fld in fields:
        assert np.min(fld.ell) >= -1.5 - 1e-9
    # spatial cost shrinks like sqrt(eps)
    sp3 = fields[0].ell[0, -1] - fields[0].ell[0, 0]
    sp5 = fields[2].ell[0, -1] - fields[2].ell[0, 0]
    assert sp3 > 0 and sp5 > 0
    assert abs(sp3 / sp5 - 10.0) < 1.5
    ext = extrapolate_fields(fields)
    assert np.max(np.abs(ext.ell + 1.5)) < 1e-3


@pytest.fixture(scope="module")
def flat_subgrid(read_only):
    """(history, field): an 8x8 subgrid field on the static flat torus,
    built once for the module, read-only."""
    nt = 8
    h = flat_history(32, 1.3)
    fld = ell_plus_field(h, nt, np.linspace(0.98, 1.02, 5), oracle_check=False)
    return read_only((h, fld))


def test_identity_checks_flat(flat_subgrid):
    h, fld = flat_subgrid
    rep = check_reduced_field(fld, h)
    assert rep.identity < 1e-7
    # flat case: equality in the subsolution and entropy forms
    assert abs(rep.subsolution) < 1e-7
    assert abs(rep.entropy_form) < 1e-7
    assert rep.lap_bound < 1e-7
    assert rep.heat_form < 1e-7


def masked_corruption(fld, nt=8):
    """The clean field and a copy with a corrupted target, both masking the
    target and its four stencil neighbours at every time."""
    i0, j0 = 2, 5
    masked = np.ones((nt, nt), dtype=bool)
    for di, dj in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        masked[(i0 + di) % nt, (j0 + dj) % nt] = False
    mask = np.tile(masked.ravel(), (len(fld.times), 1))
    clean = dataclasses.replace(fld, smooth_mask=mask)
    bad_ell = fld.ell.copy()
    bad_ell[:, i0 * nt + j0] += 0.5
    return clean, dataclasses.replace(fld, ell=bad_ell, ell_tail=bad_ell.copy(), smooth_mask=mask)


def test_checks_skip_masked_targets(flat_subgrid):
    # a corrupted target and its four stencil neighbours, masked at every
    # time, leave every check exactly where the clean field puts it
    h, fld = flat_subgrid
    clean, bad = masked_corruption(fld)
    want, got = check_reduced_field(clean, h), check_reduced_field(bad, h)
    assert got == want
    assert got.excluded_fraction == 5 / 64
    # without the mask the corruption shows
    rep = check_reduced_field(dataclasses.replace(bad, smooth_mask=None), h)
    assert max(rep.lap_bound, rep.subsolution, rep.heat_form, rep.entropy_form) > 1.0
    # radial fields check interior radii and never report exclusions
    hr = evolve(HYPERBOLIC3, (0.0, 3.0))
    rad = ell_plus_field(hr, np.linspace(0.0, 1.0, 9), np.linspace(0.8, 1.2, 5))
    assert check_reduced_field(rad, hr).excluded_fraction == 0


def test_one_pass_matches_the_separate_checks_bitwise(flat_subgrid, acceptance_run):
    h, fld = flat_subgrid
    ht = acceptance_run[0].torus_flow()  # the sine torus evolved to 0.26
    nt = 8
    fld_t = ell_plus_field(ht, nt, np.linspace(0.18, 0.22, 5), oracle_check=False)
    hr = evolve(HYPERBOLIC3, (0.0, 3.0))
    rad = ell_plus_field(hr, np.linspace(0.0, 1.0, 9), np.linspace(0.8, 1.2, 5))
    hv = vertex_expander_history()
    rungs = [ell_plus_field(hv, np.linspace(0.0, 1.0, 9), np.linspace(0.8, 1.2, 5), eps=e)
             for e in (1e-3, 1e-4, 1e-5)]
    # a regularized rung is the one field whose ell carries a head beside ell_tail
    cases = [(h, fld), (h, masked_corruption(fld)[1]), (ht, fld_t), (hr, rad),
             (hv, extrapolate_fields(rungs)), (hv, rungs[1])]
    for hist, f in cases:
        rep = check_reduced_field(f, hist)
        grad_max, time_max, excl_id = reduced_identities_separate(f, hist)
        margins, excl_in = reduced_inequalities_separate(f, hist)
        sup_max, excl_sup = theta_supersolution_separate(f, hist)
        assert rep.gradient_max == grad_max and rep.time_max == time_max
        assert (rep.lap_bound, rep.subsolution, rep.heat_form, rep.entropy_form) == (
            margins["lap_bound"], margins["subsolution"], margins["heat_form"],
            margins["entropy_form"])
        assert rep.supersolution_max == sup_max
        assert rep.excluded_fraction == excl_id == excl_in == excl_sup


def test_subgrid_metric_operators_equal_the_hand_rolled_stencils(flat_subgrid, acceptance_run):
    # the 8x8 flat field and criterion 7's 16x16 field on the sine torus
    for h, fld in (flat_subgrid, acceptance_run[0].torus_theta_field()):
        for i in range(1, len(fld.times) - 1):
            r, grad_sq, lap, _, _ = _slice_ops(fld, h, i)
            want_r, want_grad_sq, want_lap = subgrid_ops_hand_rolled(fld, h, i)
            assert np.array_equal(r, want_r)
            for f in (fld.ell[i], fld.ell_tail[i], np.exp(fld.ell[i])):
                assert np.array_equal(grad_sq(f), want_grad_sq(f))
                assert np.array_equal(lap(f), want_lap(f))
        assert np.array_equal(theta_plus(fld, h).theta, theta_plus_hand_rolled(fld, h))


def test_integer_targets_are_the_subgrid(monkeypatch):
    momenta = []  # the momenta each field's shot kept

    def spy(*args):
        shot, kept = shoot_with_momenta(*args)
        momenta.append(kept)
        return shot

    monkeypatch.setattr("expanderlab.reduced._torus_shoot_targets", spy)
    h = evolve(ConformalTorusMetric(np.zeros((16, 32)), periods=(1.0, 2.0)), (0.0, 1.0),
               retain_every=10**9, dt_cap=0.05)
    n, times = 8, [0.5, 0.6]
    fld = ell_plus_field(h, n, times, oracle_check=False)
    pts = np.array([(i / n, j / n) for i in range(n) for j in range(n)]) * np.asarray((1.0, 2.0))
    assert np.array_equal(fld.targets, pts) and fld.grid == n
    explicit = ell_plus_field(h, pts, times, oracle_check=False)
    assert explicit.grid is None and explicit.smooth_mask is None
    for name in ("ell", "k_effective"):
        assert np.array_equal(getattr(fld, name), getattr(explicit, name))
    assert len(momenta) == 2 and np.array_equal(momenta[0], momenta[1])
    # a model space takes radii, not a grid
    with pytest.raises(ValueError, match="integer grid on a torus"):
        ell_plus_field(vertex_expander_history(), 8, times)


def test_a_target_grid_that_does_not_divide_the_metric_grid_is_refused():
    h = flat_history(32, 1.3)
    fld = ell_plus_field(h, 10, [0.9, 1.0, 1.1], oracle_check=False)
    match = "10x10 target grid must divide the 32x32 metric grid"
    with pytest.raises(ValueError, match=match):
        check_reduced_field(fld, h)
    with pytest.raises(ValueError, match=match):
        theta_plus(fld, h)
    with pytest.raises(ValueError, match=match):
        hessian_check_cor21(h, 1.0, fld)


def test_identity_checks_vertex_expander():
    h = vertex_expander_history()
    radii = np.linspace(0.0, 1.0, 17)
    times = np.linspace(0.9, 1.1, 9)
    fld = ell_plus_field(h, radii, times, eps=1e-4)
    assert check_reduced_field(fld, h).identity < 1e-6
    fields = [
        ell_plus_field(h, radii, times, eps=e) for e in (1e-3, 1e-4, 1e-5)
    ]
    ineq = check_reduced_field(extrapolate_fields(fields), h)
    assert max(ineq.lap_bound, ineq.subsolution, ineq.heat_form, ineq.entropy_form) < 1e-4


def test_identity_checks_torus_flow(acceptance_run):
    # criterion 7's field: the sine torus evolved to 0.26, on the 16x16
    # subgrid at linspace(0.18, 0.22, 5)
    h, fld = acceptance_run[0].torus_theta_field()
    rep = check_reduced_field(fld, h)
    # the Harnack-integral terms carry the O(h^2) field-consistency floor
    assert rep.identity < 5e-3
    assert rep.subsolution < 1e-4
    assert rep.entropy_form < 1e-4
    assert rep.lap_bound < 1e-4
    assert rep.heat_form < 1e-4


def test_harnack_integral_identity_along_geodesics(torus32):
    h = vertex_expander_history()
    assert math.isfinite(_RadialEngine(h, 1e-4, 1.0).solve(2.0 * 0.25)[1])
    assert geodesic_identity_residual(h, 0.25, 1.0, eps=1e-4) < 1e-6
    hf = flat_history()
    assert geodesic_identity_residual(hf, np.array([0.2, 0.1]), 1.0) < 1e-10
    # on the evolving torus the residual bottoms out at the O(h^2)
    # consistency floor of the sampled curvature fields
    ht = torus32
    assert geodesic_identity_residual(ht, np.array([0.6, 0.2]), 0.06) < 1e-3


def radial_cases():
    """(history, eps, t): every start regularization the radial engine serves."""
    hv = vertex_expander_history()
    hv8 = vertex_expander_history(8.0)
    hr = evolve(HYPERBOLIC3, (0.0, 3.0))
    hs = evolve(ModelSpaceMetric(3, 1, 1.0), (0.0, 1.0))
    return [(hv, 1e-3, 1.0), (hv, 1e-4, 1.0), (hv, 1e-5, 1.0), (hr, 0.0, 1.0),
            (hr, 1e-4, 1.0), (hs, 0.0, 0.1), (blowdown(hv8, 4.0), 1e-5, 0.5)]


def test_radial_engine_matches_per_point_lookups_bitwise():
    for h, eps, t in radial_cases():
        eng = _RadialEngine(h, eps, t)
        ref, a_nodes = radial_integrals_separate(h, eps, t)
        assert eng.integrals == ref
        assert np.array_equal(eng.a_nodes, a_nodes)
        l_tail, k_val, boundary, _, head = eng.solve(2.0 * 0.25)
        got = {"l_plus": l_tail + head, "l_plus_tail": l_tail, "head": head,
               "boundary_term": float(boundary), "k_value": k_val,
               "identity_residual": geodesic_identity_residual(h, 0.25, t, eps=eps)}
        want = model_shot_separate(h, 0.25, t, eps=eps)
        for key, val in got.items():
            assert val == want[key], key


def test_radial_engine_looks_a_up_once_per_grid(monkeypatch):
    # counts the times looked up, one by one or in a batch
    hv = vertex_expander_history()
    hr = evolve(HYPERBOLIC3, (0.0, 3.0))
    calls = collections.Counter()
    params_at, params_at_times = FlowHistory.params_at, FlowHistory.params_at_times

    def spy(self, t):
        calls[id(self)] += 1
        return params_at(self, t)

    def spy_times(self, ts):
        calls[id(self)] += len(ts)
        return params_at_times(self, ts)

    monkeypatch.setattr(FlowHistory, "params_at", spy)
    monkeypatch.setattr(FlowHistory, "params_at_times", spy_times)
    n_steps = 192
    _RadialEngine(hv, 1e-4, 1.0, n_steps)
    assert calls[id(hv)] == 2 + (n_steps + 1) + 801
    calls.clear()
    geodesic_identity_residual(hv, 0.25, 1.0, eps=1e-4)
    assert calls[id(hv)] == 2 + (n_steps + 1) + 801
    calls.clear()
    geodesic_identity_residual(hr, 0.25, 1.0)
    assert calls[id(hr)] == 2 + (n_steps + 1)


def test_model_shot_from_a_smooth_start_is_warning_free():
    # at eps = 0 the first node is the base: the shot divides by no s there
    # and carries no start boundary term and no head
    h = evolve(HYPERBOLIC3, (0.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *_, boundary, _, head = _RadialEngine(h, 0.0, 1.0).solve(2.0 * 0.4)
        resid = geodesic_identity_residual(h, 0.4, 1.0)
    assert boundary == 0.0 and head == 0.0
    assert resid < 1e-6


def test_first_variation_vanishes_at_geodesic():
    # perturbing a shot geodesic by an endpoint-fixed field changes the
    # action only at second order; evaluated in the discretization the
    # geodesic is stationary for (straight segments traversed linearly
    # in sqrt time, which on the flat torus is exact)
    h = flat_history()
    t = 1.0
    s, positions, l_plus = flat_shot_nodes(h, np.array([0.15, 0.1]), t, 64)
    ds = np.diff(s)

    def action(pos):
        seg = np.diff(pos, axis=0)
        return float(np.sum(np.sum(seg * seg, axis=1) / (2.0 * ds)))

    base = action(positions)
    assert abs(base - l_plus) < 1e-12
    bump = np.sin(math.pi * s / math.sqrt(t))[:, None] * np.array([0.3, -0.2])
    vals = {}
    for amp in (1e-3, -1e-3, 2e-3, -2e-3):
        vals[amp] = action(positions + amp * bump) - base
    assert vals[1e-3] > 0 and vals[-1e-3] > 0  # never decreases
    first_order = abs(vals[1e-3] - vals[-1e-3]) / 2e-3
    quad_coeff = (vals[1e-3] + vals[-1e-3]) / (2 * 1e-6)
    assert quad_coeff > 0
    assert first_order < 1e-9 * max(1.0, quad_coeff)
    ratio = (vals[2e-3] + vals[-2e-3]) / (vals[1e-3] + vals[-1e-3])
    assert abs(ratio - 4.0) < 1e-6


def test_theta_flat_torus():
    h = flat_history(32, 1.3)
    nt = 16
    times = np.linspace(0.6, 1.0, 5)
    fld = ell_plus_field(h, nt, times, oracle_check=False)
    series = theta_plus(fld, h)
    assert series.monotone_ok
    assert np.all(series.theta >= series.lower_bound - 1e-12)
    # away from the cut locus the kernel solves the backward equation
    assert check_reduced_field(fld, h).supersolution_max < 1e-2


def test_theta_plus_accepts_a_single_time_field():
    h = flat_history(32, 1.3)
    nt = 8
    fld = ell_plus_field(h, nt, [1.0], oracle_check=False)
    series = theta_plus(fld, h)
    assert series.theta.shape == (1,) and series.monotone_ok and series.max_violation == 0.0
    # on the flat unit torus theta is (4 pi t)^(-1) times the integral of exp(ell)
    three = ell_plus_field(h, nt, [0.9, 1.0, 1.1], oracle_check=False)
    assert series.theta[0] == theta_plus(three, h).theta[1]
    # the pointwise relations difference in time and still need three times
    with pytest.raises(ValueError, match="three field times"):
        check_reduced_field(fld, h)


def test_theta_vertex_expander_value_and_nu_duality():
    h = vertex_expander_history()
    radii = np.linspace(0.0, 1.0, 9)
    times = np.linspace(0.8, 1.2, 5)
    fields = [
        ell_plus_field(h, radii, times, eps=e) for e in (1e-3, 1e-4, 1e-5)
    ]
    ext = extrapolate_fields(fields)
    series = theta_plus(ext, h)
    want = math.exp(-1.5) * math.pi ** (-1.5)
    assert np.max(np.abs(series.theta - want)) / want < 1e-2
    # duality with the variational functional on the expander
    nu = nu_plus(h.metric_at(1.0))
    assert nu.status == "ok"
    assert abs(math.log(series.theta[2]) + nu.value) < 1e-2


def test_theta_off_vertex_base_nonconstant():
    # base time at a slice of positive size: the series is no longer
    # constant but stays nonincreasing
    h = evolve(HYPERBOLIC3, (0.0, 3.0))
    radii = np.linspace(0.0, 1.0, 9)
    times = np.linspace(0.8, 1.2, 5)
    fld = ell_plus_field(h, radii, times, eps=0.0)
    series = theta_plus(fld, h)
    assert series.monotone_ok
    assert np.max(series.theta) - np.min(series.theta) > 1e-3


def test_blowdown_invariance_of_reduced_quantities():
    h = vertex_expander_history(8.0)
    bd = blowdown(h, 4.0)
    radii = np.linspace(0.0, 1.0, 5)
    f_src = ell_plus_field(h, radii, [2.0], eps=4e-5)
    f_bd = ell_plus_field(bd, radii, [0.5], eps=1e-5)
    assert np.max(np.abs(f_src.ell[0] - f_bd.ell[0])) < 1e-6
    hf = flat_history(16, 1.0)
    bdf = blowdown(hf, 2.0)
    y = np.array([[0.3, 0.2]])
    f1 = ell_plus_field(hf, y, [0.8], oracle_check=False)
    f2 = ell_plus_field(bdf, y, [0.4], oracle_check=False)
    assert abs(f1.ell[0, 0] - f2.ell[0, 0]) < 1e-6


def test_hessian_bound_flat_equality():
    h = flat_history(32, 1.3)
    nt = 8
    fld = ell_plus_field(h, nt, [1.0], oracle_check=False)
    rep = hessian_check_cor21(h, 1.0, fld)
    assert rep.status == "ok"
    assert abs(rep.min_margin) < 1e-8  # equality case
    xx_min, yy_min = hessian_margins_hand_rolled(h, 1.0, fld)
    assert abs(xx_min) < 1e-8 and rep.min_margin == min(xx_min, yy_min)


def test_hessian_bound_needs_a_field_time():
    # the Hessian of a field at t = 1 is not compared with the metric at 0.5
    h = flat_history(32, 1.3)
    nt = 8
    fld = ell_plus_field(h, nt, [1.0], oracle_check=False)
    for t in (0.5, 1.0 + 1e-9):
        with pytest.raises(ValueError, match="field times"):
            hessian_check_cor21(h, t, fld)
    assert hessian_check_cor21(h, 1.0 + 1e-14, fld).status == "ok"


def test_hessian_bound_shrinking_sphere():
    m0 = ModelSpaceMetric(dim=3, sectional_sign=1, scale=1.0, base_volume=1.0)
    h = evolve(m0, (0.0, 1.0))
    radii = np.linspace(0.0, 2.2, 23)
    rep = hessian_check_cor21(h, 0.1, radii)
    assert rep.status == "ok"
    assert rep.min_margin >= -1e-3


def test_hessian_bound_refuses_negative_curvature():
    h = evolve(HYPERBOLIC3, (0.0, 1.0))
    rep = hessian_check_cor21(h, 0.5, np.linspace(0.0, 1.0, 9))
    assert rep.status == "precondition_not_met"


@pytest.mark.parametrize("consts", [(2.0, 2.0, 2.0), (1.0, 0.0, 0.0)], ids=["su2", "heisenberg"])
def test_hessian_bound_refuses_homogeneous_histories_by_kind(consts):
    # the kind is refused before the curvature sign is read: Heisenberg,
    # whose curvature operator has a negative eigenvalue, used to answer
    # "precondition_not_met" where SU(2) raised
    h = evolve(HomogeneousMetric(consts, (1.0, 1.0, 1.0)), (0.0, 0.1))
    with pytest.raises(ValueError, match="model-space and torus histories"):
        hessian_check_cor21(h, 0.05, np.linspace(0.0, 1.0, 9))


def test_field_csv_export(tmp_path):
    h = flat_history(16, 1.0)
    fld = ell_plus_field(h, np.array([[0.2, 0.1]]), [0.5, 0.6, 0.7],
                         oracle_check=False)
    out = tmp_path / "field.csv"
    fld.to_csv(out)
    assert out.read_text().splitlines()[0] == "t,target_x,target_y,ell,l_bar,k_eff"


def test_consistency_triangle_on_model_expander():
    # three independent routes to the same constant: the entropy along the
    # flow, the variational supremum, and minus the log reduced volume
    from expanderlab.entropy import expander_entropy, nu_plus
    from expanderlab.geometry import volume

    h = vertex_expander_history()
    w_vals = [
        expander_entropy(h.metric_at(t), 1.0 / volume(h.metric_at(t)), t)
        for t in (0.5, 1.0, 2.0)
    ]
    nu = nu_plus(h.metric_at(1.0))
    radii = np.linspace(0.0, 1.0, 9)
    times = np.linspace(0.8, 1.2, 5)
    fields = [ell_plus_field(h, radii, times, eps=e)
              for e in (1e-3, 1e-4, 1e-5)]
    series = theta_plus(extrapolate_fields(fields), h)
    triple = (float(np.mean(w_vals)), nu.value, -math.log(series.theta[2]))
    for a in triple:
        for b in triple:
            assert abs(a - b) <= 1e-3


def test_path_minimization_oracle_direct():
    # displacement (0.3, 0) on the flat unit torus at t = 1: the target's own
    # image beats its translates, and the best action is half the squared
    # distance over the square root of time
    h = flat_history()
    val = _oracle_torus_batch(h, np.array([[0.3, 0.0]]), 1.0, n_segments=128)
    assert val.shape == (1,) and abs(val[0] - 0.045) < 1e-9
    # radial fields are never oracle-checked: the oracle is torus-only
    with pytest.raises(ValueError):
        _oracle_torus_batch(evolve(HYPERBOLIC3, (0.0, 1.0)), np.array([[0.5, 0.0]]), 0.5)


def test_torus_slice_samples_match_fancy_index_gather():
    # 16x24 history with periods (1, 1.7): gathers with a per-point and with
    # one slice index equal the (slice, i, j) fancy-index formula,
    # wraparound taps included, and the spline passes through grid nodes
    slices, periods = skewed_torus_slices()
    nx, ny = slices.nx, slices.ny
    rows = slice(1, 3)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.2, 1.2, (40, 2)) * periods
    pts[:4] = [[0.0, 0.0], [-1e-9, 1.7 - 1e-9], [0.99, 0.01], [0.03, 1.69]]
    slice_idx = rng.integers(0, slices.store.shape[1], len(pts))

    ix, (wx,) = _spline_taps((pts[:, 0] / slices.hx) % nx, slices.wrap_x)
    jy, (wy,) = _spline_taps((pts[:, 1] / slices.hy) % ny, slices.wrap_y)
    assert ix.min() == 0 and ix.max() == nx - 1 and jy.min() == 0 and jy.max() == ny - 1
    got = slices.sample(slice_idx, rows, pts)
    assert got.shape == (2, len(pts))
    for grid, g in zip(slices.store[rows], got):
        ref = grid[slice_idx[None, None, :], ix[:, None, :], jy[None, :, :]]
        assert np.array_equal(g, np.einsum("am,bm,abm->m", wx, wy, ref))
    # the derivative gather brings the same samples and, from the same taps,
    # the derivatives of the interpolant: its weights differentiated
    _, (_, dwx) = _spline_taps((pts[:, 0] / slices.hx) % nx, slices.wrap_x, True)
    _, (_, dwy) = _spline_taps((pts[:, 1] / slices.hy) % ny, slices.wrap_y, True)
    val, ddx, ddy = slices.sample(slice_idx, rows, pts, grad=True)
    assert np.array_equal(val, got)
    for grid, gx, gy in zip(slices.store[rows], ddx, ddy):
        ref = grid[slice_idx[None, None, :], ix[:, None, :], jy[None, :, :]]
        assert np.array_equal(gx, np.einsum("am,bm,abm->m", dwx / slices.hx, wy, ref))
        assert np.array_equal(gy, np.einsum("am,bm,abm->m", wx, dwy / slices.hy, ref))
    for idx in (0, 3):
        for grid, g in zip(slices.store[rows, idx], slices.sample(idx, rows, pts)):
            ref = grid[ix[:, None, :], jy[None, :, :]]
            assert np.array_equal(g, np.einsum("am,bm,abm->m", wx, wy, ref))
        # one slice index equals that index repeated per point
        assert np.array_equal(slices.sample(idx, rows, pts),
                              slices.sample(np.full(len(pts), idx), rows, pts))

    nodes = np.array([[-1, 0], [0, ny], [nx - 1, 5], [7, -3]])
    node_vals = slices.sample(2, slice(1), nodes * np.array([slices.hx, slices.hy]))[0]
    r = slices.store[_FIELDS.index("r"), 2]
    assert np.allclose(node_vals, r[nodes[:, 0] % nx, nodes[:, 1] % ny], rtol=0, atol=1e-12)


def test_slice_store_equals_per_slice_formula(monkeypatch):
    # 16x24 history with periods (1, 1.7) and a nonzero evolution
    # right-hand side; its 401 slices fill more than one batch, the last
    # one partial
    rng = np.random.default_rng(4)
    ts = np.array([0.0, 0.3, 0.7, 1.0])
    vals = 0.2 * rng.standard_normal((4, 16 * 24))
    m0 = ConformalTorusMetric(vals[0].reshape(16, 24), (1.0, 1.7))
    h = FlowHistory(m0, ts, vals, rng.standard_normal((4, 16 * 24)))
    s_all = _s_grid(1.0, 200)[2]
    batches = []
    params_at_times = FlowHistory.params_at_times

    def spy(self, etas):
        batches.append(len(etas))
        return params_at_times(self, etas)

    monkeypatch.setattr(FlowHistory, "params_at_times", spy)
    slices = _TorusSlices(h, s_all)
    block = SCRATCH_BYTES // m0.phi.nbytes
    assert block < len(s_all) and len(s_all) % block
    assert batches == [block] * (len(s_all) // block) + [len(s_all) % block]
    for i, s in enumerate(s_all):
        want = torus_slice_grids(h, float(s**2), slices.hx, slices.hy)
        rows = 3 if i % 2 == 0 else 2  # rdot is built at the nodes only
        assert np.array_equal(slices.store[:rows, i], want[:rows])
    # the gather reads the store itself, not a copy of it
    pts = rng.uniform(0.0, 1.0, (10, 2))
    before = slices.sample(5, slice(0, 3), pts)
    slices.store[0:3, 5] += 1.0
    assert np.allclose(slices.sample(5, slice(0, 3), pts), before + 1.0, rtol=1e-12, atol=1e-12)

    # the oracle's paired store, built in the same batches, is one row: r
    # of the three-row store at the nodes and e2p at the half steps
    batches.clear()
    paired = _TorusSlices(h, s_all, paired=True)
    assert batches == [block] * (len(s_all) // block) + [len(s_all) % block]
    assert paired.store.shape == (1,) + slices.store.shape[1:]
    fresh = _TorusSlices(h, s_all).store
    assert np.array_equal(paired.store[0, 0::2], fresh[0, 0::2])
    assert np.array_equal(paired.store[0, 1::2], fresh[1, 1::2])


def test_oracle_builds_no_rdot_row(torus16, monkeypatch):
    # the oracle reads r at nodes and e2p at midpoints, with the gradients of
    # their interpolants, so its store holds one row of the two, paired;
    # shooting's blocks hold r, e2p and rdot for the Harnack integrand
    h = torus16
    shapes = []

    class Recording(_TorusSlices):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            shapes.append(self.store.shape)

    monkeypatch.setattr("expanderlab.reduced._TorusSlices", Recording)
    pts = np.array([(0.15, 0.1), (0.25, 0.0)])
    _oracle_torus_batch(h, pts, 0.2, 32)
    assert shapes == [(1, 65, 16, 16)]
    _torus_shoot_targets(h, pts, np.full(len(pts), 0.2), 32)
    assert shapes[1] == (3, 65, 16, 16)
    assert all(shape[0] == 3 for shape in shapes[1:])


def test_blockwise_slice_gather_matches_single_block(monkeypatch):
    # gathers in blocks of 7 points equal one block, with a per-point and
    # with one slice index, and the table-wrapped taps equal (base + k) % n,
    # also where float % rounds a point just below 0 up to n
    slices, periods = skewed_torus_slices()
    rows = slice(0, 3)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.2, 1.2, (40, 2)) * periods
    pts[:2] = [[-1e-18, 0.5], [0.3, -1e-18]]
    slice_idx = rng.integers(0, slices.store.shape[1], len(pts))
    whole = [slices.sample(idx, rows, pts) for idx in (slice_idx, 2)]
    blocks = []

    def spy(frac, wrap, slopes=False):
        blocks.append(len(frac))
        return _spline_taps(frac, wrap, slopes)

    monkeypatch.setattr("expanderlab.reduced.SCRATCH_BYTES", 128 * 3 * 7)
    monkeypatch.setattr("expanderlab.reduced._spline_taps", spy)
    for idx, want in zip((slice_idx, 2), whole):
        blocks.clear()
        assert np.array_equal(slices.sample(idx, rows, pts), want)
        assert blocks == [7, 7] * 5 + [5, 5]  # x and y taps of each block
    for col, h, n, wrap in ((0, slices.hx, slices.nx, slices.wrap_x),
                            (1, slices.hy, slices.ny, slices.wrap_y)):
        frac = (pts[:, col] / h) % n
        assert frac[col] == n
        taps, _ = _spline_taps(frac, wrap)
        want = (np.floor(frac).astype(int) + np.arange(-1, 3)[:, None]) % n
        assert np.array_equal(taps, want)


def test_gathers_and_slice_builds_stay_under_the_scratch_cap(torus16, monkeypatch):
    # evolving 16x16 torus, a two-time field with the oracle on: every tap
    # computation inside a gather covers at most SCRATCH_BYTES of taps
    # (16 of 8 bytes per row and point), and every phi lookup inside a
    # slice build at most SCRATCH_BYTES of rows; both are split, since some
    # gathers and builds exceed one block
    h = torus16
    sample, build = _TorusSlices.sample, _TorusSlices.__init__
    params_at_times = FlowHistory.params_at_times
    gathers, taps, builds, lookups = [], [], [], []

    def sample_spy(self, idx, rows, pts, grad=False):
        gathers.append((len(self.store[rows]), len(pts)))
        return sample(self, idx, rows, pts, grad)

    def taps_spy(frac, wrap, slopes=False):
        taps.append((gathers[-1][0], len(frac)))
        return _spline_taps(frac, wrap, slopes)

    def build_spy(self, h, s_all, *args, **kw):
        builds.append(len(s_all))
        build(self, h, s_all, *args, **kw)
        builds.pop()

    def lookup_spy(self, etas):
        if builds:
            lookups.append((builds[-1], len(etas) * self.template.phi.nbytes))
        return params_at_times(self, etas)

    monkeypatch.setattr(_TorusSlices, "sample", sample_spy)
    monkeypatch.setattr(_TorusSlices, "__init__", build_spy)
    monkeypatch.setattr("expanderlab.reduced._spline_taps", taps_spy)
    monkeypatch.setattr(FlowHistory, "params_at_times", lookup_spy)
    pts = np.random.default_rng(6).uniform(0.0, 1.0, (8, 2))
    ell_plus_field(h, pts, np.array([0.15, 0.2]))
    assert taps and lookups
    for n_rows, m in taps:
        assert m <= SCRATCH_BYTES // (128 * n_rows)
    for _, nbytes in lookups:
        assert nbytes <= SCRATCH_BYTES
    assert any(m > SCRATCH_BYTES // (128 * n_rows) for n_rows, m in gathers)
    assert any(n * h.template.phi.nbytes > SCRATCH_BYTES for n, _ in lookups)


def test_shoot_records_integrals_of_the_settling_sweep(torus16, monkeypatch):
    # evolving 16x16 torus: secant sweeps settle rows after different numbers
    # of sweeps, and each row keeps the integrals of the sweep that settled it
    h = torus16
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (24, 2))
    sizes = []

    def spy(h, times, momenta, n_steps):
        sizes.append(len(momenta))
        return _torus_integrate(h, times, momenta, n_steps)

    monkeypatch.setattr("expanderlab.reduced._torus_integrate", spy)
    shot, momenta = shoot_with_momenta(h, pts, np.full(len(pts), 0.2), 32)
    assert len(set(sizes)) > 3
    assert np.all(shot["miss"] < 1e-6)
    fresh = _torus_integrate(h, np.full(len(pts), 0.2), momenta, 32)
    # batched Simpson sums run in node order, so the batch a row shared
    # cannot move its integrals
    assert np.array_equal(fresh["l_tail"], shot["l_tail"])
    assert np.array_equal(fresh["k"], shot["k"])
    alone = _torus_integrate(h, np.full(1, 0.2), momenta[3:4], 32)
    assert alone["l_tail"][0] == fresh["l_tail"][3] and alone["k"][0] == fresh["k"][3]

    # the endpoints are those of plain RK4 that samples every stage afresh
    # and accumulates no integrals, and so are those of the per-time
    # reference, with its endpoint velocities
    n_steps, s_nodes, s_all = _s_grid(0.2, 32)
    slices = _TorusSlices(h, s_all)  # deterministic: the slices the shot used
    x = np.zeros((len(pts), 2))
    v = 2.0 * momenta
    ds = s_nodes[1] - s_nodes[0]
    for k in range(n_steps):
        s = s_nodes[k]

        def acc(i, s, x, v):
            return _torus_rhs(s, v, slices.sample(i, slice(2), x, grad=True))

        k1x, k1v = v, acc(2 * k, s, x, v)
        x2, v2 = x + 0.5 * ds * k1x, v + 0.5 * ds * k1v
        k2x, k2v = v2, acc(2 * k + 1, s + 0.5 * ds, x2, v2)
        x3, v3 = x + 0.5 * ds * k2x, v + 0.5 * ds * k2v
        k3x, k3v = v3, acc(2 * k + 1, s + 0.5 * ds, x3, v3)
        x4, v4 = x + ds * k3x, v + ds * k3v
        k4x, k4v = v4, acc(2 * k + 2, s + ds, x4, v4)
        x = x + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + ds / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    ref_x, ref_v, *_ = torus_integrate_per_time(h, 0.2, momenta, 32)
    assert np.array_equal(fresh["end"], x) and np.array_equal(ref_x, x)
    assert np.array_equal(ref_v, v)


def test_shoot_forces_are_the_interpolant_derivatives(torus16):
    # evolving 16x16 torus at t = 0.2, random points at a half-step slice:
    # the shooting forces are the derivatives of the sampled r and of half
    # the log of the sampled e2p, the interpolants the action integrates
    # (the stencil gradients shooting read before missed them by 5e-2)
    s_all = _s_grid(0.2, 32)[2]
    slices = _TorusSlices(torus16, s_all)
    i = 21
    s = s_all[i]
    pts = np.random.default_rng(8).uniform(0.0, 1.0, (50, 2))
    step = 1e-6

    def central(rows, fn):
        return np.stack([
            (fn(slices.sample(i, rows, pts + step * e)[0])
             - fn(slices.sample(i, rows, pts - step * e)[0])) / (2 * step)
            for e in np.eye(2)], axis=1)

    r, e2p = slices.sample(i, slice(2), pts)
    at_rest = _torus_rhs(s, np.zeros((len(pts), 2)), slices.sample(i, slice(2), pts, grad=True))
    want = 2 * s * s * central(slice(1), lambda r: r) / e2p[:, None]
    assert np.max(np.abs(at_rest - want)) <= 1e-7 * np.max(np.abs(want))
    # with v = (1, 0) the Christoffel terms are (-px, py) beside the force
    # and the friction 2 s r v
    moving = _torus_rhs(s, np.tile([1.0, 0.0], (len(pts), 1)),
                        slices.sample(i, slice(2), pts, grad=True))
    grad_phi = np.stack([at_rest[:, 0] + 2 * s * r - moving[:, 0],
                         moving[:, 1] - at_rest[:, 1]], axis=1)
    want = central(slice(1, 2), lambda e2p: 0.5 * np.log(e2p))
    assert np.max(np.abs(grad_phi - want)) <= 1e-7 * np.max(np.abs(want))


def test_shoot_retries_non_finite_endpoint(torus16, monkeypatch):
    # a NaN endpoint on the first warm sweep must not count as converged:
    # the row is integrated again from the same momentum and settles
    h = torus16
    pts = np.array([(0.15, 0.1), (0.25, 0.0), (0.1, 0.2)])
    clean = _torus_shoot_targets(h, pts, np.full(len(pts), 0.2), 32)
    batches = []

    def flaky(h, times, momenta, n_steps):
        res = _torus_integrate(h, times, momenta, n_steps)
        if not batches:
            res["end"][0] = np.nan
        batches.append(momenta.copy())
        return res

    monkeypatch.setattr("expanderlab.reduced._torus_integrate", flaky)
    shot = _torus_shoot_targets(h, pts, np.full(len(pts), 0.2), 32)
    assert np.array_equal(batches[1][0], batches[0][0])
    assert shot["miss"][0] < 1e-6
    assert shot["l_tail"][0] == pytest.approx(clean["l_tail"][0], rel=1e-9)


def test_shoot_drops_a_repeating_non_finite_endpoint(torus16, monkeypatch):
    # a NaN that repeats from the flat guess leaves the batch after its second
    # sweep; its miss stays inf, so the row cannot win
    h = torus16
    pts = np.array([(0.15, 0.1), (0.5, 0.45), (0.1, 0.2)])
    clean = _torus_shoot_targets(h, pts, np.full(len(pts), 0.2), 32)
    # poison the only image of target 0 and the winning image of target 1
    two_rt = 2.0 * math.sqrt(0.2)
    bad = np.array([pts[0], clean["images"][1]]) / two_rt
    counts = np.zeros(2, dtype=int)

    def poisoned(h, times, momenta, n_steps):
        res = _torus_integrate(h, times, momenta, n_steps)
        for k, p in enumerate(bad):
            hit = np.all(momenta == p, axis=1)
            res["end"][hit] = np.nan
            counts[k] += hit.sum()
        return res

    monkeypatch.setattr("expanderlab.reduced._torus_integrate", poisoned)
    shot = _torus_shoot_targets(h, pts, np.full(len(pts), 0.2), 32)
    assert list(counts) == [2, 2]
    assert shot["miss"][0] == np.inf
    # another translate (images - target) wins target 1
    periods = h.template.periods
    assert translate_index(shot["images"][1:2], pts[1:2], periods) != \
        translate_index(clean["images"][1:2], pts[1:2], periods)
    assert shot["miss"][1] < 1e-6
    assert np.array_equal(shot["l_tail"][2], clean["l_tail"][2])


def test_shoot_restarts_a_row_non_finite_twice_off_the_flat_guess(torus16, monkeypatch):
    # a row poisoned on its second and third sweeps, after it has left the
    # flat guess, is retried once, then restarts from the flat guess with a
    # fresh inverse Jacobian and settles on the clean shot
    h = torus16
    pts = np.array([(0.15, 0.1), (0.25, 0.0), (0.1, 0.2)])
    clean = _torus_shoot_targets(h, pts, np.full(len(pts), 0.2), 32)
    batches = []

    def flaky(h, times, momenta, n_steps):
        res = _torus_integrate(h, times, momenta, n_steps)
        if len(batches) in (1, 2):
            res["end"][0] = np.nan  # row 0 is the only image of target 0
        batches.append(momenta.copy())
        return res

    monkeypatch.setattr("expanderlab.reduced._torus_integrate", flaky)
    shot = _torus_shoot_targets(h, pts, np.full(len(pts), 0.2), 32)
    p_flat = pts[0] / (2.0 * math.sqrt(0.2))
    assert not np.array_equal(batches[1][0], p_flat)
    assert np.array_equal(batches[2][0], batches[1][0])
    assert np.array_equal(batches[3][0], p_flat)
    assert shot["miss"][0] < 1e-6
    assert abs(shot["l_tail"][0] - clean["l_tail"][0]) <= 1e-9


def test_secant_shot_takes_few_sweeps(torus16, monkeypatch):
    # evolving 16x16 torus, 12 targets: the Broyden-updated inverse Jacobian
    # settles every image within 12 sweeps; the fixed flat one I/(2 sqrt t)
    # converges only linearly here
    h = torus16
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (12, 2))
    calls = []

    def spy(h, times, momenta, n_steps):
        calls.append(len(momenta))
        return _torus_integrate(h, times, momenta, n_steps)

    monkeypatch.setattr("expanderlab.reduced._torus_integrate", spy)
    shot = _torus_shoot_targets(h, pts, np.full(len(pts), 0.2), 32)
    assert len(calls) <= 12, calls
    assert np.all(shot["miss"] < 1e-6)


@pytest.mark.parametrize("case", ["torus16", "flat32"])
def test_batched_shoot_equals_the_per_time_shoot(case, torus16, monkeypatch):
    # the rows of all field times run in one batch, over slices built per
    # block of steps, and each time's results equal that time shot alone over
    # a store of all its slices: on an evolving 16x16 torus at three times
    # whose node s**3 and s**4 round differently under numpy's array **, in
    # blocks of three steps while all three times have live rows, and on
    # the flat 32x32 torus's 8x8 subgrid at flat_torus's five times and 96
    # steps, where the targets on the lines x = 1/2 and y = 1/2 have images
    # whose actions tie to within round-off, so a change of tie-picking shows
    if case == "torus16":
        h, times, n_steps = torus16, np.array([0.18, 0.19, 0.2]), 32
        pts = np.random.default_rng(9).uniform(0.0, 1.0, (16, 2))
        monkeypatch.setattr("expanderlab.reduced.LEVEL_BATCH_BYTES", 7 * 3 * 3 * 16 * 16 * 8)
    else:
        h, times, n_steps = flat_history(), np.linspace(0.85, 1.15, 5), 96
        pts = np.array([(i / 8, j / 8) for i in range(8) for j in range(8)])
    m, targets = len(pts), np.tile(pts, (len(times), 1))
    shot, momenta = shoot_with_momenta(h, targets, np.repeat(times, m), n_steps)
    shot["momenta"] = momenta
    shot["translate"] = translate_index(shot["images"], targets, h.template.periods)
    for i, t in enumerate(times):
        want = torus_shoot_per_time(h, pts, float(t), n_steps)
        for key in ("l_tail", "k", "momenta", "translate", "images", "miss"):
            assert np.array_equal(shot[key][i * m:(i + 1) * m], want[key]), (t, key)


def test_shooting_reads_rdot_at_the_nodes_only(torus16, monkeypatch):
    # shooting's stores build rdot at the node slices only, the ones its
    # Harnack integrand reads: with the half-step entries of that row set
    # to NaN, a two-time batch and the per-time reference stay finite and
    # keep their integrals and momenta bit for bit
    h = torus16
    build = _TorusSlices.__init__
    filled = []

    def nan_halves(self, h, s_all, span=None, paired=False):
        build(self, h, s_all, span, paired)
        if not paired:
            half = np.arange(len(s_all)) % (span or len(s_all)) % 2 == 1
            self.store[2, half] = np.nan
            filled.append(int(np.sum(half)))

    monkeypatch.setattr(_TorusSlices, "__init__", nan_halves)
    times = np.array([0.18, 0.2])
    pts = np.random.default_rng(9).uniform(0.0, 1.0, (8, 2))
    m = len(pts)
    shot, momenta = shoot_with_momenta(h, np.tile(pts, (2, 1)), np.repeat(times, m), 32)
    shot["momenta"] = momenta
    assert filled and all(filled)
    for i, t in enumerate(times):
        want = torus_shoot_per_time(h, pts, float(t), 32)
        for key in ("l_tail", "k", "momenta"):
            got = shot[key][i * m:(i + 1) * m]
            assert np.all(np.isfinite(got)) and np.array_equal(got, want[key]), (t, key)


def test_a_field_shoots_all_its_times_in_one_batch_of_capped_blocks(torus16, monkeypatch):
    # evolving 16x16 torus, a three-time field: one shooting call, whose
    # sweeps integrate the rows of every time together, so it makes as many
    # integrate calls as the slowest time alone, not the sum over the times;
    # every block of slices, rebuilt per sweep, stays under the byte cap
    h = torus16
    times = np.array([0.15, 0.2, 0.25])
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (12, 2))
    shoots, calls, stores = [], [], []

    def shoot_spy(h, targets, times, n_steps):
        shoots.append(len(targets))
        return _torus_shoot_targets(h, targets, times, n_steps)

    def integrate_spy(h, times, momenta, n_steps):
        calls.append(len(momenta))
        return _torus_integrate(h, times, momenta, n_steps)

    class Recording(_TorusSlices):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            stores.append(self.store.shape)

    monkeypatch.setattr("expanderlab.reduced._torus_shoot_targets", shoot_spy)
    monkeypatch.setattr("expanderlab.reduced._torus_integrate", integrate_spy)
    monkeypatch.setattr("expanderlab.reduced._TorusSlices", Recording)
    ell_plus_field(h, pts, times, oracle_check=False)
    assert shoots == [len(times) * len(pts)]
    assert len(stores) > len(calls)  # more than one block per sweep
    for shape in stores:
        assert shape[0] == 3 and 8 * math.prod(shape) <= LEVEL_BATCH_BYTES
    batched, per_time = len(calls), []
    for t in times:
        calls.clear()
        _torus_shoot_targets(h, pts, np.full(len(pts), t), 96)
        per_time.append(len(calls))
    assert batched == max(per_time) < sum(per_time), per_time


def count_gathers(monkeypatch):
    """Counts of `_TorusSlices.sample` calls by the field names of their row
    run and whether they gathered derivatives.  The oracle's paired row is
    r at even (node) slices and e2p at odd ones."""
    fields = collections.Counter()
    sample = _TorusSlices.sample

    def spy(self, idx, rows, pts, grad=False):
        names = _FIELDS[rows]
        if len(self.store) == 1:
            odd = set(np.atleast_1d(idx) % 2)
            assert len(odd) == 1  # one gather reads one field
            names = ("e2p",) if odd.pop() else ("r",)
        fields[names, grad] += 1
        return sample(self, idx, rows, pts, grad)

    monkeypatch.setattr(_TorusSlices, "sample", spy)
    return fields


def test_oracle_chunks_match_one_batch(torus16, monkeypatch):
    # evolving 16x16 torus where the line search backtracks: the descent in
    # chunks of 14 paths (36 paths, three chunks, one across the boundary of
    # the two start groups) or of one path, and runs of one target each,
    # give the values of one batch bit for bit
    h = torus16
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (6, 2))
    fields = count_gathers(monkeypatch)
    whole = _oracle_torus_batch(h, pts, 0.2, 32)
    assert fields[("r",), False] > 0  # value-only backtracks happened
    alone = [_oracle_torus_batch(h, pts[i:i + 1], 0.2, 32)[0] for i in range(len(pts))]
    for n_paths in (14, 1):
        monkeypatch.setattr("expanderlab.reduced.SCRATCH_BYTES", 8 * 33 * n_paths)
        fields.clear()
        chunked = _oracle_torus_batch(h, pts, 0.2, 32)
        assert fields[("r",), True] >= -(-36 // n_paths)  # a start gradient per chunk
        assert np.array_equal(chunked, whole)
    assert np.array_equal(np.array(alone), whole)


def test_oracle_keeps_the_gradient_of_an_accepted_trial(monkeypatch):
    # on a flat torus the preconditioned first step from a bent path is
    # exact and accepted: the start gradient and the first trial, evaluated
    # with its gradient, are the only gathers; no sweep gathers again at the
    # accepted point
    h = flat_history(16, 1.0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 1.0, (5, 2))
    fields = count_gathers(monkeypatch)
    action = _PathAction(h, 1.0, 32)
    z = (np.linspace(0.0, 1.0, 33)[1:-1, None] * pts[:, None, :]
         + 0.05 * rng.standard_normal((5, 31, 2)))
    vals = _descend(action, z, pts)
    assert fields == {(("r",), True): 2, (("e2p",), True): 2}
    assert np.allclose(vals, np.sum(pts * pts, axis=1) / 2.0, rtol=1e-6, atol=0)
    # the oracle's starts lie on the flat minimizer already: one gather each
    fields.clear()
    vals = _oracle_torus_batch(h, pts, 1.0, 32)
    assert fields == {(("r",), True): 1, (("e2p",), True): 1}
    want = [torus_distance_sq(p) / 2.0 for p in pts]
    assert np.allclose(vals, want, rtol=1e-6, atol=0)


def test_oracle_gradient_is_the_derivative_of_its_value(torus16):
    # evolving 16x16 torus at t = 0.2, bent paths to random targets: the
    # gradient equals a central difference of the value (the stencil
    # gradients of r and phi the oracle read before missed it by 2e-3)
    h = torus16
    action = _PathAction(h, 0.2, 32)
    rng = np.random.default_rng(0)
    ys = rng.uniform(0.0, 1.0, (4, 2))
    z = (np.linspace(0.0, 1.0, 33)[1:-1, None] * ys[:, None, :]
         + 0.02 * rng.standard_normal((4, 31, 2)))
    val, g = action(z, ys, True)
    assert np.array_equal(val, action(z, ys, False)[0])
    step = 1e-6
    fd = np.empty_like(g)
    for k in range(31):
        for c in range(2):
            zp, zm = z.copy(), z.copy()
            zp[:, k, c] += step
            zm[:, k, c] -= step
            fd[:, k, c] = (action(zp, ys, False)[0] - action(zm, ys, False)[0]) / (2 * step)
    assert np.max(np.abs(g - fd)) <= 1e-7 * np.max(np.abs(g))


def test_oracle_descends_each_row_once(torus16, monkeypatch):
    # evolving 16x16 torus at t = 0.2: every (target, translate) row
    # descends once, from the straight path.  The nodes are uniform in s,
    # so the square-root start profile is the same path, and it descends
    # to the same value
    h = torus16
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (6, 2))
    calls = []

    def spy(action, z, y):
        calls.append((action, z.copy(), y, _descend(action, z, y)))
        return calls[-1][-1]

    monkeypatch.setattr("expanderlab.reduced._descend", spy)
    best = _oracle_torus_batch(h, pts, 0.2, 32)
    straight = np.concatenate([c[-1] for c in calls])
    assert len(straight) == 3 * len(pts)
    assert np.array_equal(best, np.min(straight.reshape(-1, 3), axis=1))
    action = calls[0][0]
    z, y = np.concatenate([c[1] for c in calls]), np.concatenate([c[2] for c in calls])
    s = _s_grid(0.2, 32)[1]
    z_root = (s / s[-1])[1:-1, None] * y[:, None, :]  # paths start at the origin
    assert np.max(np.abs(z_root - z)) <= 1e-15
    root = _descend(action, z_root, y)
    assert np.max(np.abs(straight - root) / np.abs(straight)) <= 1e-12


def test_oracle_memory_is_bounded_by_the_chunk(monkeypatch):
    # four times the targets in chunks of 2**12 path nodes: the traced peak
    # (numpy reports its buffers to tracemalloc) grows by less than 1.5x;
    # in one batch it grew nearly in proportion (16.3 -> 30.5 MB)
    h = flat_history(32, 1.0)
    monkeypatch.setattr("expanderlab.reduced.SCRATCH_BYTES", 8 << 12)
    rng = np.random.default_rng(8)
    peaks = []
    for m in (16, 64):
        pts = rng.uniform(0.0, 1.0, (m, 2))
        tracemalloc.start()
        try:
            _oracle_torus_batch(h, pts, 1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
