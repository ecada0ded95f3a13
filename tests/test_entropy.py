import math

import numpy as np

from expanderlab.acceptance import HYPERBOLIC3, W_MODEL, sine_torus
from expanderlab.conjugate_heat import construct_immortal_density, log_potential
from expanderlab.entropy import (
    _tail_fit_inverse,
    asymptotics_report,
    blowdown_gap,
    build_entropy_report,
    expander_entropy,
    expander_residual,
    f_energy,
    lambda_bar,
    lambda_min,
    long_time_residual_integral,
    mu_plus,
    nash_entropy,
    nu_plus,
)
from expanderlab.flow import blowdown, evolve, scaled_volume
from expanderlab.geometry import (
    ConformalTorusMetric,
    HomogeneousMetric,
    integrate,
    soliton_residual_sq,
    volume,
)
from oracles import mu_plus_lbfgs, torus_ground_state


def flat_torus(n=16):
    return ConformalTorusMetric(np.zeros((n, n)))


def random_density(m, seed):
    rng = np.random.default_rng(seed)
    u = 0.3 + rng.random(m.phi.shape)
    return u / integrate(m, u)


def test_f_energy_flat_uniform_zero():
    m = flat_torus()
    assert abs(f_energy(m, np.ones((16, 16)))) < 1e-14


def test_f_energy_hyperbolic_slice():
    h = evolve(HYPERBOLIC3, (0.0, 5.0))
    for t in (0.5, 2.0, 4.5):
        m = h.metric_at(t)
        got = f_energy(m, 1.0 / volume(m))
        assert abs(got - (-6.0 / (1.0 + 4.0 * t))) < 1e-12


def test_f_energy_bounds_along_immortal_flow():
    h = evolve(HYPERBOLIC3, (0.0, 50.0))
    for t in np.geomspace(0.5, 45.0, 9):
        m = h.metric_at(t)
        f_val = f_energy(m, 1.0 / volume(m))
        assert -3.0 / (2.0 * t) - 1e-10 <= f_val <= 1e-10


def test_nash_entropy_uniform_and_jensen():
    m = flat_torus()
    n_val, n_plus = nash_entropy(m, np.ones((16, 16)), 0.5)
    assert abs(n_val - 0.0) < 1e-14  # -log V with V = 1
    rng = np.random.default_rng(2)
    for seed in range(10):
        u = random_density(m, seed)
        n_val, _ = nash_entropy(m, u, 1.0)
        assert n_val >= -math.log(volume(m)) - 1e-12


def test_expander_entropy_constant_slice_closed_form():
    h = evolve(HYPERBOLIC3, (0.0, 5.0))
    t, sigma = 2.0, 0.8
    m = h.metric_at(t)
    u = 1.0 / volume(m)
    r = -6.0 / (1.0 + 4.0 * t)
    want = sigma * r - math.log(volume(m)) + 1.5 * math.log(4 * math.pi * sigma) + 3.0
    assert abs(expander_entropy(m, u, sigma) - want) < 1e-12


def test_expander_entropy_constant_on_model_expander():
    h = evolve(HYPERBOLIC3, (0.0, 100.0))
    vals = []
    for t in np.geomspace(0.1, 100.0, 21):
        m = h.metric_at(t)
        vals.append(expander_entropy(m, 1.0 / volume(m), t + 0.25))
    vals = np.asarray(vals)
    assert np.max(np.abs(vals - W_MODEL)) < 1e-6


def test_expander_entropy_flat_static_growth():
    m = flat_torus()
    u = np.ones((16, 16))
    for t in (0.3, 1.0, 4.0):
        want = -math.log(volume(m)) + math.log(4 * math.pi * t) + 2.0
        assert abs(expander_entropy(m, u, t) - want) < 1e-12


def test_expander_entropy_two_forms_agree():
    m = ConformalTorusMetric(0.2 * np.sin(2 * math.pi * np.arange(16)[:, None] / 16)
                             * np.ones((16, 16)))
    for seed in range(5):
        u = random_density(m, seed)
        a = expander_entropy(m, u, 0.7)
        # the split assembly sigma F + N + (n/2) log(4 pi sigma) + n
        b = 0.7 * f_energy(m, u) + nash_entropy(m, u, 0.7)[0] + math.log(4.0 * math.pi * 0.7) + 2
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_expander_entropy_scale_invariance():
    m = ConformalTorusMetric(0.2 * np.sin(2 * math.pi * np.arange(16)[:, None] / 16)
                             * np.ones((16, 16)))
    u = random_density(m, 7)
    sigma, alpha = 0.6, 3.0
    scaled = ConformalTorusMetric(m.phi + 0.5 * math.log(alpha), m.periods)
    u_scaled = u / alpha ** (m.dim / 2.0)
    w1 = expander_entropy(m, u, sigma)
    w2 = expander_entropy(scaled, u_scaled, alpha * sigma)
    assert abs(w1 - w2) < 1e-10 * max(1.0, abs(w1))


def test_expander_residual_examples():
    h = evolve(HYPERBOLIC3, (0.0, 5.0))
    for t in (0.3, 1.0, 4.0):
        m = h.metric_at(t)
        u = 1.0 / volume(m)
        assert abs(expander_residual(m, u, t + 0.25)) < 1e-10
    m = flat_torus()
    u = np.ones((16, 16))
    for t in (0.5, 2.0):
        assert abs(expander_residual(m, u, t) - 2.0 / (2.0 * t)) < 1e-12
    for seed in range(5):
        u = random_density(m, seed)
        assert expander_residual(m, u, 0.9) >= 0.0


def test_lambda_flat_and_hyperbolic():
    lam = lambda_min(flat_torus(32))
    assert abs(lam) < 1e-9
    assert abs(lambda_bar(flat_torus(32))) < 1e-9
    h = evolve(HYPERBOLIC3, (0.0, 10.0))
    for t in (0.5, 3.0, 9.0):
        m = h.metric_at(t)
        lam = lambda_min(m)
        assert abs(lam - (-6.0 / (1.0 + 4.0 * t))) < 1e-12
        assert abs(lambda_bar(m) - (-6.0)) < 1e-10


def test_lambda_torus_matches_dense_rayleigh():
    # nonflat torus: eigensolver value is below the quotient of test fields
    m = ConformalTorusMetric(0.25 * np.sin(2 * math.pi * np.arange(24)[:, None] / 24)
                             * np.ones((24, 24)))
    lam = lambda_min(m)
    ground = torus_ground_state(m)
    assert ground.value == lam
    w = ground.vector
    assert abs(integrate(m, w * w) - 1.0) < 1e-10
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = np.abs(rng.normal(size=(24, 24))) + 0.05
        u = v * v / integrate(m, v * v)
        assert lam <= f_energy(m, u) + 1e-8


def test_mu_plus_flat_closed_form():
    m = flat_torus(16)
    for sigma in (0.3, 1.0):
        res = mu_plus(m, sigma)
        want = -math.log(volume(m)) + math.log(4 * math.pi * sigma) + 2.0
        assert abs(res.value - want) < 1e-6
        assert np.max(np.abs(res.minimizer_u - 1.0)) < 1e-4


def test_mu_plus_constant_curvature_closed_form():
    h = evolve(HYPERBOLIC3, (0.0, 2.0))
    m = h.metric_at(1.0)
    sigma = 0.4
    res = mu_plus(m, sigma)
    r = -6.0 / 5.0
    want = sigma * r - math.log(volume(m)) + 1.5 * math.log(4 * math.pi * sigma) + 3.0
    assert abs(res.value - want) < 1e-10


def test_mu_plus_is_the_minimum_of_its_discrete_functional():
    # on the sine torus the Dirichlet term is not zero: the descent must land
    # on the minimum of the functional its gradient differentiates
    m = sine_torus(16)
    low = mu_plus(m, 0.1)
    assert low.converged and abs(low.value - mu_plus_lbfgs(m, 0.1)) < 1e-9
    # at sigma = 2 the descent stops at its iteration cap, its value settled
    assert abs(mu_plus(m, 2.0).value - mu_plus_lbfgs(m, 2.0)) < 1e-9


def test_mu_plus_is_lower_bound():
    m = flat_torus(16)
    sigma = 0.8
    mu = mu_plus(m, sigma).value
    for seed in range(20):
        u = random_density(m, seed)
        assert mu <= expander_entropy(m, u, sigma) + 1e-8


def test_mu_plus_concave_in_sigma():
    h = evolve(HYPERBOLIC3, (0.0, 2.0))
    m = h.metric_at(0.5)
    sigmas = np.linspace(0.1, 1.5, 9)
    vals = [mu_plus(m, s).value for s in sigmas]
    d2 = np.diff(vals, 2)
    assert np.all(d2 <= 1e-10)


def test_nu_plus_hyperbolic():
    res = nu_plus(HYPERBOLIC3)
    assert res.status == "ok"
    assert abs(res.sigma_star - 0.25) < 1e-4
    assert abs(res.value - W_MODEL) < 1e-8


def test_nu_plus_constant_along_model_flow():
    h = evolve(HYPERBOLIC3, (0.0, 20.0))
    vals = [nu_plus(h.metric_at(t)).value for t in (0.5, 2.0, 8.0, 18.0)]
    assert max(vals) - min(vals) < 1e-6


def test_nu_plus_flat_unbounded():
    res = nu_plus(flat_torus(16))
    assert res.status == "unbounded"
    assert abs(res.lambda_value) < 1e-9


def test_entropy_report_hyperbolic():
    h = evolve(HYPERBOLIC3, (0.0, 30.0))
    dens = construct_immortal_density(h, (0.3, 25.0))
    times = np.geomspace(0.5, 20.0, 9)
    rep = build_entropy_report(h, dens, times, birth_time=None)
    v = rep.verdicts
    assert v["w_plus_nondecreasing"]
    assert v["n_plus_nondecreasing"]
    assert v["lambda_bar_nondecreasing"]
    assert v["v_tilde_nonincreasing"]
    assert v["f_energy_bounds_ok"]
    assert v["decomposition_gap_max"] < 1e-10
    assert v["fd_vs_rate_gap_max"] < 1e-6


def test_entropy_report_energy_derivative_bound():
    # dF/dt >= (2/n) F^2 along the immortal flow (equality on the model)
    h = evolve(HYPERBOLIC3, (0.0, 10.0))
    for t in (0.5, 2.0, 8.0):
        d = 1e-3
        vals = []
        for tt in (t - 2 * d, t - d, t + d, t + 2 * d):
            m = h.metric_at(tt)
            vals.append(f_energy(m, 1.0 / volume(m)))
        df = (-vals[3] + 8 * vals[2] - 8 * vals[1] + vals[0]) / (12 * d)
        m = h.metric_at(t)
        f_val = f_energy(m, 1.0 / volume(m))
        assert df >= (2.0 / 3.0) * f_val**2 - 1e-8


def test_asymptotics_hyperbolic_limits():
    h = evolve(HYPERBOLIC3, (0.0, 1000.0))
    dens = construct_immortal_density(h, (0.5, 900.0))
    rep = asymptotics_report(h, dens)
    assert not rep.collapsed
    assert abs(rep.v_tilde_inf - 8.0) < 1e-3
    want = -math.log(8.0) + 1.5 * (1.0 + math.log(4 * math.pi))
    assert abs(want - W_MODEL) < 1e-12  # the two closed forms agree
    assert abs(rep.w_plus_limit_fit - want) < 1e-3
    assert abs(rep.lambda_bar_limit_fit - (-6.0)) < 1e-8
    assert abs(rep.lambda_bar_limit_predicted - (-6.0)) < 1e-3
    # t lambda over the report's tail, fitted as it fits lambda_bar
    ts = np.geomspace(h.t_max / 10.0, h.t_max, 17)
    t_lam = ts * np.array([lambda_min(h.metric_at(t)) for t in ts])
    assert abs(_tail_fit_inverse(ts, t_lam) - (-1.5)) < 1e-3


def test_asymptotics_flat_static_collapsed():
    h = evolve(flat_torus(16), (0.0, 50.0), retain_every=10**9, dt_cap=0.5)
    dens = construct_immortal_density(h, (0.5, 45.0), tol=1e-8, dt_cap=0.25)
    rep = asymptotics_report(h, dens)
    assert rep.collapsed
    assert abs(rep.w_plus_log_growth_rate - 1.0) < 1e-6  # n/2 with n = 2
    assert abs(rep.lambda_bar_limit_fit) < 1e-9


def test_asymptotics_nil_collapsed():
    h = evolve(HomogeneousMetric((1.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 1000.0))
    dens = construct_immortal_density(h, (1.0, 900.0))
    rep = asymptotics_report(h, dens)
    assert rep.collapsed
    # scaled eigenvalue tends to zero from below
    lbars = [lambda_bar(h.metric_at(t)) for t in (1.0, 10.0, 100.0, 900.0)]
    assert all(v < 0 for v in lbars)
    assert all(b > a for a, b in zip(lbars, lbars[1:]))
    assert abs(lbars[-1]) < 0.02


def rescaled_residual(h, dens, t):
    """t^2 int u |Ricci + Hess f + g/(2t)|^2 dv at t, the integrand of
    `long_time_residual_integral`."""
    m, u = h.metric_at(t), dens.state_at(t).u
    return t * t * integrate(m, u * soliton_residual_sq(m, log_potential(u, t, h.dim), t))


def test_long_time_residual_integral():
    h = evolve(HYPERBOLIC3, (0.0, 1000.0))
    dens = construct_immortal_density(h, (0.5, 900.0))
    rep = long_time_residual_integral(h, dens, (1.0, 900.0))
    assert abs(rep.decay_exponent - (-2.0)) < 0.1
    # growing window stays bounded
    small = long_time_residual_integral(h, dens, (1.0, 30.0))
    assert rep.integral < small.integral + 1.0
    # flat static control: integrand flat at n/4, integral grows linearly
    hf = evolve(flat_torus(16), (0.0, 200.0), retain_every=10**9, dt_cap=0.5)
    df = construct_immortal_density(hf, (0.5, 180.0), tol=1e-8, dt_cap=0.25)
    rf = long_time_residual_integral(hf, df, (1.0, 100.0))
    ts = np.geomspace(1.0, 100.0, 33)
    integrand = np.array([rescaled_residual(hf, df, t) for t in ts])
    assert rf.integral == np.trapezoid(integrand, np.log(ts))  # the report's integrand
    assert np.max(np.abs(integrand - 0.5)) < 1e-10
    assert abs(rf.integral - 0.5 * math.log(100.0)) < 1e-6
    assert np.all(integrand >= 0.0)


def test_blowdown_invariance_of_monotone_quantities():
    h = evolve(HYPERBOLIC3, (0.0, 40.0))
    bd = blowdown(h, 8.0)
    for t in (0.5, 2.0):
        m_b = bd.metric_at(t)
        m_s = h.metric_at(8.0 * t)
        u_b, u_s = 1.0 / volume(m_b), 1.0 / volume(m_s)
        assert abs(
            expander_entropy(m_b, u_b, t) - expander_entropy(m_s, u_s, 8.0 * t)
        ) < 1e-8
        assert abs(lambda_bar(m_b) - lambda_bar(m_s)) < 1e-8


def test_blowdown_gap_is_the_largest_of_the_three_changes():
    # the model flow compares scalar densities, the torus flow density grids
    torus = ConformalTorusMetric(0.2 * np.sin(2 * math.pi * np.arange(16) / 16)[:, None]
                                 * np.ones((16, 16)))
    for h, alpha, times in ((evolve(HYPERBOLIC3, (0.0, 40.0)), 8.0, (0.5, 2.0)),
                            (evolve(torus, (0.0, 0.2)), 4.0, (0.01, 0.04))):
        bd = blowdown(h, alpha)
        want = 0.0
        for t in times:
            m_b, m_s = bd.metric_at(t), h.metric_at(alpha * t)
            u_b, u_s = 1.0 / volume(m_b), 1.0 / volume(m_s)
            if h.kind == "conformal_torus":
                u_b, u_s = np.full(m_b.phi.shape, u_b), np.full(m_s.phi.shape, u_s)
            want = max(want, abs(expander_entropy(m_b, u_b, t)
                                 - expander_entropy(m_s, u_s, alpha * t)),
                       abs(lambda_bar(m_b) - lambda_bar(m_s)),
                       abs(scaled_volume(bd, t) - scaled_volume(h, alpha * t)))
        assert blowdown_gap(h, alpha, times) == want


def test_entropy_report_csv(tmp_path):
    h = evolve(HYPERBOLIC3, (0.0, 5.0))
    dens = construct_immortal_density(h, (0.3, 4.0))
    rep = build_entropy_report(h, dens, np.linspace(0.5, 3.0, 5), birth_time=None)
    out = tmp_path / "entropy.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,F,F_plus,N,N_plus,W_plus")
    assert len(lines) == 6


def test_entropy_rate_fd_second_order():
    # the FD/rate gap of the monotonicity cross-check shrinks at least at
    # second order when the differencing step is halved
    h = evolve(HYPERBOLIC3, (0.0, 5.0))
    t = 1.0

    def gap(delta):
        w = [expander_entropy(h.metric_at(tt), 1.0 / volume(h.metric_at(tt)), tt)
             for tt in (t - delta, t + delta)]
        fd = (w[1] - w[0]) / (2 * delta)
        rate = expander_residual(h.metric_at(t), 1.0 / volume(h.metric_at(t)), t)
        return abs(fd - rate)

    g1, g2 = gap(0.04), gap(0.02)
    assert g1 / g2 > 3.4  # ratio 4 at second order


def test_nash_normalized_derivative_matches_energy():
    # FD derivative of the normalized entropy equals F + n/2t along the
    # flow with its limit density, hence the nondecreasing verdict
    h = evolve(HYPERBOLIC3, (0.0, 10.0))
    for t in (0.5, 2.0, 8.0):
        d = 1e-3
        vals = []
        for tt in (t - 2 * d, t - d, t + d, t + 2 * d):
            m = h.metric_at(tt)
            vals.append(nash_entropy(m, 1.0 / volume(m), tt)[1])
        fd = (-vals[3] + 8 * vals[2] - 8 * vals[1] + vals[0]) / (12 * d)
        m = h.metric_at(t)
        f_plus = f_energy(m, 1.0 / volume(m)) + 1.5 / t
        assert abs(fd - f_plus) < 1e-9
        assert f_plus >= -1e-12
