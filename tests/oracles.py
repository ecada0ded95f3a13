"""Independent brute-force oracles and per-step reference implementations
used only by the test suite."""

import math

import numpy as np


def koszul_ricci(structure_constants, diag):
    """Ricci of a diagonal left-invariant 3-D metric from first principles.

    Builds the full bracket tensor, derives the connection coefficients
    from the Koszul formula (purely algebraic for left-invariant data),
    assembles the curvature tensor from them, and traces.  Shares no
    code or closed-form expressions with the production path.

    Returns the full 3x3 frame Ricci matrix (off-diagonals should
    vanish; the caller asserts this).
    """
    c1, c2, c3 = structure_constants
    g = np.asarray(diag, dtype=float)

    # bracket coefficients f[i, j, k]: [e_i, e_j] = sum_k f[i,j,k] e_k
    f = np.zeros((3, 3, 3))
    f[1, 2, 0] = c1
    f[2, 1, 0] = -c1
    f[2, 0, 1] = c2
    f[0, 2, 1] = -c2
    f[0, 1, 2] = c3
    f[1, 0, 2] = -c3

    def ip(idx_a, idx_b):
        return g[idx_a] if idx_a == idx_b else 0.0

    # Koszul: 2 <nabla_i e_j, e_k> = <[e_i,e_j],e_k> - <[e_j,e_k],e_i> + <[e_k,e_i],e_j>
    gamma = np.zeros((3, 3, 3))  # gamma[i, j, k]: nabla_{e_i} e_j = gamma[i,j,k] e_k
    for i in range(3):
        for j in range(3):
            for k in range(3):
                val = f[i, j, k] * g[k] - f[j, k, i] * g[i] + f[k, i, j] * g[j]
                gamma[i, j, k] = val / (2.0 * g[k])

    # R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k
    def curv(i, j, k):
        out = np.zeros(3)
        for m in range(3):
            out += gamma[j, k, m] * gamma[i, m, :]
            out -= gamma[i, k, m] * gamma[j, m, :]
            out -= f[i, j, m] * gamma[m, k, :]
        return out

    ricci = np.zeros((3, 3))
    for j in range(3):
        for k in range(3):
            # trace of X -> R(X, e_j) e_k
            ricci[j, k] = sum(curv(i, j, k)[i] for i in range(3))
    return ricci


def fft_divide(r, denom):
    """The constant-coefficient operator with real Fourier symbol 1/denom
    applied to r, by the literal divide of the complex spectrum."""
    return np.real(np.fft.ifft2(np.fft.fft2(r) / denom))


def evolve_torus_recomputing(m0, t1):
    """The torus flow on [0, t1] at the default step cap and retention,
    with each Newton iteration recomputing exp(-2 psi) and the
    right-hand side and preconditioning by `fft_divide`.

    Reference for `flow.TorusStepper`, which passes the residual's
    exp(-2 psi) and right-hand side to the Newton system and reuses the
    converged one as the next step's.  Returns (params, param_rhs).
    """
    from expanderlab.geometry import _lap0, laplacian_symbol
    from expanderlab.numerics import conjugate_gradient

    hx, hy = m0.spacing
    lam = laplacian_symbol(m0.phi.shape, m0.spacing)

    def rhs(phi):
        return np.exp(-2.0 * phi) * _lap0(phi, hx, hy)

    def newton_delta(psi, dt, g):
        d = np.exp(-2.0 * psi)
        sqrt_d = np.sqrt(d)
        f_val = d * _lap0(psi, hx, hy)
        denom = 1.0 - 0.5 * dt * float(np.exp(-2.0 * np.mean(psi))) * lam

        def apply_a(x):
            return x + dt * f_val * x - 0.5 * dt * sqrt_d * _lap0(sqrt_d * x, hx, hy)

        x = conjugate_gradient(apply_a, -g / sqrt_d, None, lambda r: fft_divide(r, denom),
                               rel_tol=1e-13, max_iter=200)
        return sqrt_d * x

    n_steps = max(1, math.ceil(t1 / (0.5 * min(hx, hy) ** 2)))
    dt, every = t1 / n_steps, max(1, n_steps // 64)
    phi = np.asarray(m0.phi, dtype=float).copy()
    params, rhs_rows = [phi.ravel().copy()], [rhs(phi).ravel()]
    for k in range(1, n_steps + 1):
        f_old = rhs(phi)
        psi, target = phi + dt * f_old, phi + 0.5 * dt * f_old
        scale = 1.0 + float(np.max(np.abs(phi)))
        for _ in range(12):
            g = psi - target - 0.5 * dt * rhs(psi)
            if float(np.max(np.abs(g))) <= 1e-13 * scale:
                break
            psi = psi + newton_delta(psi, dt, g)
        phi = psi
        if k % every == 0 or k == n_steps:
            params.append(phi.ravel().copy())
            rhs_rows.append(rhs(phi).ravel())
    return np.asarray(params), np.asarray(rhs_rows)


def evolve_torus_listed(m0, t_span, retain_every=None, dt_cap=None):
    """The torus evolve with its retained rows collected in Python lists
    and stacked by np.asarray at the end.

    Reference for `flow._evolve_torus`, which writes each retained row
    into arrays sized up front.  Returns (times, params, param_rhs).
    """
    from expanderlab.flow import TorusStepper, torus_dt_cap

    t0, t1 = float(t_span[0]), float(t_span[1])
    stepper = TorusStepper(m0)
    if dt_cap is None:
        dt_cap = torus_dt_cap(m0)
    n_steps = max(1, math.ceil((t1 - t0) / dt_cap))
    dt = (t1 - t0) / n_steps
    if retain_every is None:
        retain_every = max(1, n_steps // 64)
    phi = np.asarray(m0.phi, dtype=float).copy()
    f = stepper.rhs(phi)
    times, params, rhs_list = [t0], [phi.ravel().copy()], [f.ravel()]
    for k in range(1, n_steps + 1):
        phi, f = stepper.step(phi, dt, f)
        if k % retain_every == 0 or k == n_steps:
            times.append(t0 + k * dt)
            params.append(phi.ravel().copy())
            rhs_list.append(f.ravel())
    return np.asarray(times), np.asarray(params), np.asarray(rhs_list)


def backward_torus_per_step(h, times, u_final, dt_cap=None):
    """The torus conjugate solve with one time level built per step.

    Reference for `conjugate_heat._solve_backward_torus`, which builds
    the same levels in stacked batches: each level does its own history
    lookup, metric object, `e^{+-2 phi}`, curvature and mean.  Returns
    the density grids at `times`, increasing in t.
    """
    from expanderlab.geometry import _lap0, laplacian_symbol
    from expanderlab.numerics import conjugate_gradient

    template = h.template
    hx, hy = template.spacing
    if dt_cap is None:
        dt_cap = 0.5 * min(hx, hy) ** 2
    t_start, t_final = float(times[0]), float(times[-1])
    seg = (t_final - t_start) / (len(times) - 1)
    per_seg = max(1, math.ceil(seg / dt_cap))
    dt = seg / per_seg

    def level(t):  # (metric, e^{2 phi}, R, e^{-2 phi})
        m = h.metric_at(t)
        em2p = np.exp(-2.0 * m.phi)
        return m, np.exp(2.0 * m.phi), -2.0 * em2p * _lap0(m.phi, hx, hy), em2p

    def apply_l(x, lev):
        _, e2p, r, _ = lev
        return _lap0(x, hx, hy) / e2p - r * x

    u = np.asarray(u_final, dtype=float).copy()
    t = t_final
    old = level(t)
    out = [u / (float(np.sum(u * old[1])) * hx * hy)]
    lam, denoms = laplacian_symbol(template.phi.shape, template.spacing), {}
    for k_out in range(len(times) - 1):
        for _ in range(per_seg):
            t_new = t - dt
            new = level(t_new)
            b = u + 0.5 * dt * apply_l(u, old)
            key = round(float(np.mean(new[3])), 6)
            if key not in denoms:
                denoms[key] = 1.0 - 0.5 * dt * key * lam

            def apply_a(x, new=new):
                return x - 0.5 * dt * apply_l(x, new)

            u = conjugate_gradient(apply_a, b, new[1],
                                   lambda r, d=denoms[key]: fft_divide(r, d),
                                   rel_tol=1e-13, max_iter=200, x0=b)
            u = u / (float(np.sum(u * new[1])) * hx * hy)
            t, old = t_new, new
        t = float(times[len(times) - 2 - k_out])
        old = level(t)
        out.append(u)
    return out[::-1]


def torus_slice_grids(h, eta, hx, hy):
    """The three `reduced._FIELDS` grids of a torus history at time eta,
    each computed from its own metric lookup as one slice at a time."""
    from expanderlab.geometry import _lap0, curvature

    m = h.metric_at(min(max(eta, h.t_min), h.t_max))
    phi = m.phi
    r = curvature(m).scalar
    e2p = np.exp(2.0 * phi)
    rdot = _lap0(r, hx, hy) / e2p + r * r
    return np.stack([r, e2p, rdot])


def torus_integrate_per_time(h, t, momenta, n_steps):
    """RK4 of the reduced torus system for a batch of momenta at one time t,
    over one store of every slice of that time, with scalar s and ds: the
    endpoints, the endpoint velocities v, the action tails and the Harnack
    integrals.

    Reference for `reduced._torus_integrate`, which marches the rows of
    several times in lockstep over slices built per block of steps, with
    per-row s from tables."""
    from expanderlab.reduced import (_node_order_sum, _s_grid, _simpson_weights, _torus_rhs,
                                     _TorusSlices)

    n_steps, s_nodes, s_all = _s_grid(t, n_steps)
    slices = _TorusSlices(h, s_all)
    ds = s_nodes[1] - s_nodes[0]
    x = np.zeros_like(momenta)
    v = 2.0 * momenta.copy()
    act = np.empty((n_steps + 1, len(momenta)))
    kin = np.empty_like(act)

    def node_integrands(s, v, fields):
        (r, e2p, rdot), (rx, _, _), (ry, _, _) = fields
        speed_sq = e2p * np.sum(v * v, axis=1)
        action = 2 * s * s * r + 0.5 * speed_sq
        hk = (2 * s**4 * rdot + 2 * s**3 * (rx * v[:, 0] + ry * v[:, 1])
              + 0.5 * s * s * r * speed_sq + 2 * s * s * r)
        return action, hk

    node = slices.sample(0, slice(3), x, grad=True)
    act[0], kin[0] = node_integrands(0.0, v, node)
    for k in range(n_steps):
        s = s_nodes[k]
        i1, i2 = 2 * k + 1, 2 * k + 2
        k1x, k1v = v, _torus_rhs(s, v, node)
        x2, v2 = x + 0.5 * ds * k1x, v + 0.5 * ds * k1v
        k2x, k2v = v2, _torus_rhs(s + 0.5 * ds, v2, slices.sample(i1, slice(2), x2, grad=True))
        x3, v3 = x + 0.5 * ds * k2x, v + 0.5 * ds * k2v
        k3x, k3v = v3, _torus_rhs(s + 0.5 * ds, v3, slices.sample(i1, slice(2), x3, grad=True))
        x4, v4 = x + ds * k3x, v + ds * k3v
        k4x, k4v = v4, _torus_rhs(s + ds, v4, slices.sample(i2, slice(2), x4, grad=True))
        x = x + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + ds / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        node = slices.sample(i2, slice(3), x, grad=True)
        act[k + 1], kin[k + 1] = node_integrands(s + ds, v, node)
    w = _simpson_weights(n_steps)[:, None]  # Simpson summed in node order
    return x, v, _node_order_sum(act * w) * ds / 3.0, _node_order_sum(kin * w) * ds / 3.0


def torus_shoot_per_time(h, targets, t, n_steps):
    """The good-Broyden shooting of targets at one time t, sweep by sweep
    over that time's rows alone.

    Reference for `reduced._torus_shoot_targets`, which runs the rows of
    all its targets' times in one batch of sweeps."""
    from expanderlab.reduced import _lattice_images

    m_t = len(targets)
    all_images, dists = _lattice_images(h.template.periods, targets)
    phis = h.params_at_times([min(max(e, h.t_min), h.t_max) for e in (0.0, 0.25 * t, t)])
    spread = max(float(np.max(ph) - np.min(ph)) for ph in phis)
    cutoff = np.exp(spread) * dists.min(axis=1) + 0.12 * min(h.template.periods)
    rows, shift_idx = np.nonzero(dists <= cutoff[:, None])
    images = all_images[rows, shift_idx]
    q = len(images)
    two_rt = 2.0 * math.sqrt(t)
    p_flat = images / two_rt
    p = p_flat.copy()
    h_flat = np.eye(2) / two_rt
    h_inv = np.tile(h_flat, (q, 1, 1))
    f_old = np.full((q, 2), np.nan)
    step = np.zeros((q, 2))
    l_tail, k_val, miss = np.empty((3, q))
    mom = np.empty((q, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        live = np.arange(q)
        stuck = np.zeros(q, dtype=bool)
        for _ in range(50):
            if len(live) == 0:
                break
            end, _, l_tail[live], k_val[live] = torus_integrate_per_time(h, t, p[live], n_steps)
            f = end - images[live]
            mom[live] = p[live]
            miss[live] = np.max(np.abs(f), axis=1)
            finite = np.all(np.isfinite(f), axis=1)
            pair = finite & np.all(np.isfinite(f_old[live]), axis=1)
            up = live[pair]
            s, hy = step[up], np.einsum("rij,rj->ri", h_inv[up], f[pair] - f_old[up])
            sh = np.einsum("ri,rij->rj", s, h_inv[up])
            denom = np.sum(s * hy, axis=1)[:, None, None]
            h_inv[up] += (s - hy)[:, :, None] * sh[:, None, :] / denom
            f_old[live] = f
            conv = finite & (miss[live] < 1e-11)
            move = finite & ~conv
            mv = live[move]
            step[mv] = -np.einsum("rij,rj->ri", h_inv[mv], f[move])
            p[mv] += step[mv]
            again = stuck[live] & ~finite
            at_flat = np.all(p[live] == p_flat[live], axis=1)
            restart = live[again & ~at_flat]
            p[restart], h_inv[restart] = p_flat[restart], h_flat
            stuck[live] = ~finite & ~again
            live = live[~conv & ~(again & at_flat)]
    miss, l_tail = (np.where(np.isfinite(a), a, np.inf) for a in (miss, l_tail))
    # the last of equal minima wins a target
    l_pick = np.where(miss < 1e-6, l_tail, np.inf)
    best = np.full(m_t, np.inf)
    np.minimum.at(best, rows, l_pick)
    win = np.full(m_t, -1, dtype=int)
    for idx in range(q):
        if l_pick[idx] <= best[rows[idx]]:
            win[rows[idx]] = idx
    return {"l_tail": l_tail[win], "k": k_val[win], "momenta": mom[win],
            "translate": shift_idx[win], "images": images[win], "miss": miss[win]}


def harnack_identity_separate(states, h, birth_time=0.0):
    """The entropy-density identity and its pre-factor identity, checked alone:
    the interior times and their ResidualReport.

    Reference for `conjugate_heat.check_harnack_identity`, which checks
    them in one pass together with the steady and potential identities
    (`steady_harnack_separate`, `potential_evolution_separate`); each of
    the three references re-walks the states on its own.
    """
    from expanderlab.conjugate_heat import ResidualReport, log_potential
    from expanderlab.geometry import (
        curvature,
        grad_norm_sq,
        grad_pairing,
        laplacian,
        soliton_residual_sq,
    )
    from expanderlab.numerics import time_derivative

    times = [s.t for s in states]
    n = h.dim
    v_fields, q_fields, rhs_fields, extras = [], [], [], []
    for s in states:
        sigma = s.t - birth_time
        if sigma <= 0:
            raise ValueError("all states must sit after the birth time")
        m = h.metric_at(s.t)
        f = log_potential(s.u, sigma, n)
        r = curvature(m).scalar
        q = 2.0 * laplacian(m, f) - grad_norm_sq(m, f) + r
        v_fields.append((sigma * q - f + n) * s.u)
        q_fields.append(q)
        rhs_fields.append(2.0 * sigma * s.u * soliton_residual_sq(m, f, sigma))
        extras.append((m, f, r))
    dv, idx = time_derivative(v_fields, times)
    dq, _ = time_derivative(q_fields, times)
    res_max = 0.0
    rhs_min = math.inf
    q_res_max = 0.0
    for j, i in enumerate(idx):
        m, f, r = extras[i]
        lhs = dv[j] + laplacian(m, v_fields[i]) - r * v_fields[i]
        res = float(np.max(np.abs(lhs - rhs_fields[i])))
        res_max = max(res_max, res)
        rhs_min = min(rhs_min, float(np.min(rhs_fields[i])))
        q_rhs = 2.0 * soliton_residual_sq(m, f, None) + 2.0 * grad_pairing(
            m, q_fields[i], f
        )
        q_lhs = dq[j] + laplacian(m, q_fields[i])
        q_res_max = max(q_res_max, float(np.max(np.abs(q_lhs - q_rhs))))
    return [times[i] for i in idx], ResidualReport(res_max, rhs_min, {"prefactor": q_res_max})


def steady_harnack_separate(states, h):
    """The sigma-free (steady-case) identity, checked alone."""
    from expanderlab.conjugate_heat import ResidualReport
    from expanderlab.geometry import curvature, grad_norm_sq, laplacian, soliton_residual_sq
    from expanderlab.numerics import time_derivative

    times = [s.t for s in states]
    v_fields, rhs_fields, extras = [], [], []
    for s in states:
        m = h.metric_at(s.t)
        f = -np.log(s.u)
        r = curvature(m).scalar
        v_fields.append((2.0 * laplacian(m, f) - grad_norm_sq(m, f) + r) * s.u)
        rhs_fields.append(2.0 * s.u * soliton_residual_sq(m, f, None))
        extras.append((m, r))
    dv, idx = time_derivative(v_fields, times)
    res_max = 0.0
    rhs_min = math.inf
    for j, i in enumerate(idx):
        m, r = extras[i]
        lhs = dv[j] + laplacian(m, v_fields[i]) - r * v_fields[i]
        res = float(np.max(np.abs(lhs - rhs_fields[i])))
        res_max = max(res_max, res)
        rhs_min = min(rhs_min, float(np.min(rhs_fields[i])))
    return ResidualReport(res_max, rhs_min)


def potential_evolution_separate(states, h, birth_time=0.0):
    """The potential evolution df/dt = -lap f + |grad f|^2 - R - n/(2 sigma), checked alone."""
    from expanderlab.conjugate_heat import ResidualReport, log_potential
    from expanderlab.geometry import curvature, grad_norm_sq, laplacian
    from expanderlab.numerics import time_derivative

    times = [s.t for s in states]
    n = h.dim
    f_fields, extras = [], []
    for s in states:
        sigma = s.t - birth_time
        if sigma <= 0:
            raise ValueError("all states must sit after the birth time")
        m = h.metric_at(s.t)
        f_fields.append(log_potential(s.u, sigma, n))
        extras.append((m, sigma))
    df, idx = time_derivative(f_fields, times)
    res_max = 0.0
    for j, i in enumerate(idx):
        m, sigma = extras[i]
        f = f_fields[i]
        r = curvature(m).scalar
        res_field = df[j] + laplacian(m, f) - grad_norm_sq(m, f) + r + n / (2.0 * sigma)
        res_max = max(res_max, float(np.max(np.abs(res_field))))
    return ResidualReport(res_max)


def _immortal_rounds(h, window, tail):
    """The window states of `conjugate_heat.construct_immortal_density`'s
    tail doubling from the first tail tail, round by round to the end of
    the history, from its two-leg backward solves of uniform data."""
    from expanderlab.conjugate_heat import solve_conjugate_backward
    from expanderlab.geometry import volume

    ta, tb = window
    while True:
        u_fin = np.full(h.template.phi.shape, 1.0 / volume(h.metric_at(tail)))
        if tail > tb * (1 + 1e-12):
            u_fin = solve_conjugate_backward(h, tail, u_fin, t_start=tb, n_retain=2)[0].u
        yield solve_conjugate_backward(h, tb, u_fin, t_start=ta, n_retain=17)
        if tail >= h.t_max * (1 - 1e-12):
            return
        tail = min(2.0 * tail, h.t_max)


def _sup_gap(cur, prev):
    return max(float(np.max(np.abs(a.u - b.u))) for a, b in zip(cur, prev))


def immortal_gaps(h, window):
    """The Cauchy gaps of `conjugate_heat.construct_immortal_density`'s tail
    doubling, round by round to the end of the history (as with a tolerance
    no gap meets)."""
    rounds = list(_immortal_rounds(h, window, min(2.0 * window[1], h.t_max)))
    return [_sup_gap(cur, prev) for prev, cur in zip(rounds, rounds[1:])]


def immortal_states_from(h, window, first_tail, tol):
    """The states of `conjugate_heat.construct_immortal_density` with its
    tail doubling started at first_tail: those of the first round within
    tol of the round before, or else of the last round."""
    prev = None
    for cur in _immortal_rounds(h, window, first_tail):
        if prev is not None and _sup_gap(cur, prev) < tol:
            break
        prev = cur
    return cur


def torus_ground_state(m):
    """`numerics.smallest_eigenpair` on `entropy.lambda_min`'s operator
    -4 lap + R of a conformal torus, with its shift and preconditioner:
    lambda_min's eigenvalue and the unit ground state w behind it."""
    from expanderlab.geometry import (curvature, laplacian, laplacian_symbol,
                                      measure_weights, spectral_preconditioner)
    from expanderlab.numerics import smallest_eigenpair

    r = curvature(m).scalar
    shift = float(np.min(r)) - 1.0
    e2p = np.exp(2.0 * m.phi)
    c0 = max(float(np.mean(e2p * (r - shift))), 1e-6)
    solve = spectral_preconditioner(c0 - 4.0 * laplacian_symbol(m.phi.shape, m.spacing))
    return smallest_eigenpair(lambda w: -4.0 * laplacian(m, w) + r * w, measure_weights(m),
                              shift, abs_tol=1e-10, max_iter=200,
                              precond=lambda v: solve(e2p * v))


def listed_time_derivative(fields, times):
    """Derivatives of sampled fields at `numerics.RunningDerivative(times).idx`,
    each from the whole list of samples by the stencil formula written out."""
    from expanderlab.numerics import RunningDerivative

    times = np.asarray(times, dtype=float)
    idx = RunningDerivative(times).idx
    if idx[0] == 2:
        d = times[1] - times[0]
        out = [(-fields[i + 2] + 8 * fields[i + 1] - 8 * fields[i - 1] + fields[i - 2]) / (12 * d)
               for i in idx]
    else:
        out = [(fields[i + 1] - fields[i - 1]) / (times[i + 1] - times[i - 1]) for i in idx]
    return out, idx


def harnack_identity_listed(states, h, birth_time=0.0):
    """The one-pass Harnack check with v, q, v_s and f listed at every state
    and their time derivatives taken from the lists: the interior times and
    their ResidualReport.

    Reference for `conjugate_heat.check_harnack_identity`, which sums the
    derivatives as it walks the states from last to first and keeps the
    four fields at the interior states only."""
    from expanderlab.conjugate_heat import ResidualReport, log_potential
    from expanderlab.geometry import (
        curvature,
        grad_norm_sq,
        grad_pairing,
        laplacian,
        soliton_residual_sq,
    )

    times = [s.t for s in states]
    sigmas = [t - birth_time for t in times]
    n = h.dim
    rows, v, q, v_s, f = [], [], [], [], []
    for s, sigma in zip(states, sigmas):
        m = h.metric_at(s.t)
        r = curvature(m).scalar
        f.append(log_potential(s.u, sigma, n))
        lap_f, grad_sq = laplacian(m, f[-1]), grad_norm_sq(m, f[-1])
        q.append(2.0 * lap_f - grad_sq + r)
        v.append((sigma * q[-1] - f[-1] + n) * s.u)
        f_s = -np.log(s.u)
        v_s.append((2.0 * laplacian(m, f_s) - grad_norm_sq(m, f_s) + r) * s.u)
        rows.append((m, r, sigma, s.u, lap_f, grad_sq, f_s))
    (dv, idx), (dq, _), (dv_s, _), (df, _) = (listed_time_derivative(x, times)
                                              for x in (v, q, v_s, f))
    per_time, rhs_min = [], math.inf
    extra = dict.fromkeys(("prefactor", "steady", "potential"), 0.0)
    for j, i in enumerate(idx):
        m, r, sigma, u, lap_f, grad_sq, f_s = rows[i]
        rhs = 2.0 * sigma * u * soliton_residual_sq(m, f[i], sigma)
        per_time.append(float(np.max(np.abs(dv[j] + laplacian(m, v[i]) - r * v[i] - rhs))))
        rhs_min = min(rhs_min, float(np.min(rhs)))
        residuals = {
            "prefactor": dq[j] + laplacian(m, q[i]) - (
                2.0 * soliton_residual_sq(m, f[i], None) + 2.0 * grad_pairing(m, q[i], f[i])),
            "steady": dv_s[j] + laplacian(m, v_s[i]) - r * v_s[i]
            - 2.0 * u * soliton_residual_sq(m, f_s, None),
            "potential": df[j] + lap_f - grad_sq + r + n / (2.0 * sigma),
        }
        for key, field in residuals.items():
            extra[key] = max(extra[key], float(np.max(np.abs(field))))
    return [times[i] for i in idx], ResidualReport(max([0.0, *per_time]), rhs_min, extra)


def v_plus(s, h, birth_time=0.0):
    """Entropy density v at a slice and its integral (the entropy itself).

    The density formula `conjugate_heat.check_harnack_identity` differences
    in time, evaluated at one state.
    """
    from expanderlab.conjugate_heat import log_potential
    from expanderlab.geometry import curvature, grad_norm_sq, integrate, laplacian

    sigma = s.t - birth_time
    if sigma <= 0:
        raise ValueError("state time must exceed the birth time")
    m = h.metric_at(s.t)
    f = log_potential(s.u, sigma, h.dim)
    r = curvature(m).scalar
    field = (
        sigma * (2.0 * laplacian(m, f) - grad_norm_sq(m, f) + r) - f + h.dim
    ) * s.u
    return field, integrate(m, field)


def reduced_identities_separate(fld, h):
    """The gradient and time identities of a reduced field, checked alone.

    Reference for `reduced.check_reduced_field`, which checks them in one
    pass together with the inequality suite (`reduced_inequalities_separate`)
    and the kernel supersolution residual (`theta_supersolution_separate`);
    each of the three references re-walks the field times on its own.
    Returns (gradient_max, time_max, excluded_fraction).
    """
    from expanderlab.numerics import time_derivative
    from expanderlab.reduced import _require_uniform_times, _slice_ops

    _require_uniform_times(fld)
    d_ell, idx = time_derivative(fld.ell_tail, fld.times)
    grad_res_max, dt_res_max = 0.0, 0.0
    excluded = 0.0
    for j, i in enumerate(idx):
        t = float(fld.times[i])
        ell = fld.ell_tail[i]
        k_eff = fld.k_effective[i]
        r, grad_sq, _, keep, frac = _slice_ops(fld, h, i)
        excluded = max(excluded, frac)
        g_res = np.abs(grad_sq(ell) - (-r + ell / t + k_eff / t**1.5))
        t_res = np.abs(d_ell[j] - (r - k_eff / (2 * t**1.5) - ell / t))
        grad_res_max = max(grad_res_max, float(np.max(g_res[keep])))
        dt_res_max = max(dt_res_max, float(np.max(t_res[keep])))
    return grad_res_max, dt_res_max, excluded


def reduced_inequalities_separate(fld, h):
    """The four inequality margins of a reduced field, checked alone.

    Returns ({lap_bound, subsolution, heat_form, entropy_form}, excluded_fraction).
    """
    from expanderlab.numerics import time_derivative
    from expanderlab.reduced import _require_uniform_times, _slice_ops

    _require_uniform_times(fld)
    d_ell, idx = time_derivative(fld.ell, fld.times)
    n = h.dim
    worst = {"lap_bound": -math.inf, "subsolution": -math.inf,
             "heat_form": -math.inf, "entropy_form": -math.inf}
    excluded = 0.0
    for j, i in enumerate(idx):
        t = float(fld.times[i])
        ell, k_v, dl = fld.ell[i], fld.k_effective[i], d_ell[j]
        r, grad_sq_op, lap_op, keep, frac = _slice_ops(fld, h, i)
        excluded = max(excluded, frac)
        lap, grad_sq = lap_op(ell), grad_sq_op(ell)
        checks = {
            "lap_bound": lap - (r + n / (2 * t) - k_v / (2 * t**1.5)),
            "subsolution": dl + lap + grad_sq - r - n / (2 * t),
            "heat_form": -(4 * ell + 4 * t * dl + 2 * n - 4 * t * lap),
            "entropy_form": t * (2 * lap + grad_sq - r) - ell - n,
        }
        for k, v in checks.items():
            worst[k] = max(worst[k], float(np.max(v[keep])))
    return worst, excluded


def theta_supersolution_separate(fld, h):
    """The supersolution residual of the kernel exp(ell)/(4 pi t)^(n/2), checked alone.

    Returns (supersolution_max, excluded_fraction).
    """
    from expanderlab.numerics import time_derivative
    from expanderlab.reduced import _require_uniform_times, _slice_ops

    n = h.dim
    u_hats = [np.exp(fld.ell[i]) / (4.0 * math.pi * t) ** (n / 2.0)
              for i, t in enumerate(fld.times)]
    _require_uniform_times(fld)
    du, idx = time_derivative(np.asarray(u_hats), fld.times)
    sup_max = -math.inf
    excluded = 0.0
    for j, i in enumerate(idx):
        r, _, lap, keep, frac = _slice_ops(fld, h, i)
        excluded = max(excluded, frac)
        res = du[j] + lap(u_hats[i]) - r * u_hats[i]
        sup_max = max(sup_max, float(np.max(res[keep])))
    return sup_max, excluded


def _scale_factor_per_point(h, eta):
    """a(eta) from one params_at lookup per point."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0:
        return float(h.params_at(float(eta))[0])
    return np.array([float(h.params_at(float(e))[0]) for e in eta])


def _log_grid_integral(fn, s_lo, s_hi, n=800):
    """Simpson in log s of fn(s)."""
    from expanderlab.reduced import _simpson

    u = np.linspace(math.log(s_lo), math.log(s_hi), n + 1)
    s = np.exp(u)
    return float(_simpson(fn(s) * s, (u[-1] - u[0]) / n))


def radial_integrals_separate(h, eps, t, n_steps=192):
    """(J, I_R, I_g, K_R, K_g) and a on the s-grid of a radial engine.

    Looks a(eta) up point by point for every integrand, and writes the
    eps > 0 (log grid) and eps = 0 (uniform grid) integrals separately.
    """
    from expanderlab.reduced import _simpson

    n, rho0 = h.dim, h.template.rho0
    n_steps = n_steps + n_steps % 2
    s_lo = math.sqrt(eps) if eps > 0 else 0.0
    s_hi = math.sqrt(t)
    s = np.linspace(s_lo, s_hi, n_steps + 1)
    ds = (s_hi - s_lo) / n_steps
    a_eps = _scale_factor_per_point(h, max(eps, 0.0))
    a_nodes = _scale_factor_per_point(h, s**2)
    r_nodes = n * rho0 / a_nodes
    i_r = float(_simpson(2.0 * s**2 * r_nodes, ds))
    k_r = float(
        _simpson(2.0 * s**4 * (2.0 * n * rho0**2 / a_nodes**2)
                 + 2.0 * s**2 * n * rho0 / a_nodes, ds)
    )
    if eps > 0:
        def w_of(s_arr):
            return a_eps / _scale_factor_per_point(h, s_arr**2)

        j = _log_grid_integral(w_of, s_lo, s_hi)
        i_g = _log_grid_integral(
            lambda sa: 0.5 * _scale_factor_per_point(h, sa**2) * w_of(sa) ** 2, s_lo, s_hi)
        k_g = _log_grid_integral(lambda sa: rho0 * sa**2 * w_of(sa) ** 2, s_lo, s_hi)
    else:
        w_nodes = a_eps / a_nodes
        j = float(_simpson(w_nodes, ds))
        i_g = float(_simpson(0.5 * a_nodes * w_nodes**2, ds))
        k_g = float(_simpson(rho0 * s**2 * w_nodes**2, ds))
    return (j, i_r, i_g, k_r, k_g), a_nodes


def model_shot_separate(h, momentum, t_end, eps=0.0, n_steps=192):
    """The action, Harnack data and identity residual of a model-space shot,
    from per-point a(eta) lookups.  Reference for `reduced._RadialEngine.solve`
    and `reduced.geodesic_identity_residual`."""
    from expanderlab.reduced import _analytic_head

    n, rho0 = h.dim, h.template.rho0
    (_, i_r, i_g, k_r, k_g), a_nodes = radial_integrals_separate(h, eps, t_end, n_steps)
    a_eps = _scale_factor_per_point(h, max(eps, 0.0))
    a_end = _scale_factor_per_point(h, t_end)
    v0 = 2.0 * float(momentum)
    l_tail = i_r + v0**2 * i_g
    k_val = k_r + v0**2 * k_g
    x_sq_end = a_end * (v0 * (a_eps / a_end)) ** 2 / (4.0 * t_end)
    if eps > 0:
        r_eps = n * rho0 / a_eps
        boundary = eps**1.5 * (r_eps + a_eps * v0**2 / (4.0 * eps))
    else:
        r_eps, boundary = 0.0, 0.0
    head = _analytic_head(r_eps, eps)
    r_end = n * rho0 / a_nodes[-1]
    resid = abs(t_end**1.5 * (r_end + x_sq_end) - (boundary + k_val + 0.5 * l_tail))
    return {
        "l_plus": l_tail + head, "l_plus_tail": l_tail, "head": head,
        "boundary_term": float(boundary), "k_value": k_val,
        "identity_residual": float(resid),
    }


def model_to_json(m):
    """The JSON model spec of a metric model, the inverse of `geometry.model_from_json`."""
    from expanderlab.geometry import ConformalTorusMetric, HomogeneousMetric, ModelSpaceMetric

    if isinstance(m, HomogeneousMetric):
        return {
            "kind": "homogeneous",
            "structure_constants": list(m.structure_constants),
            "diag": list(m.diag),
            "frame_volume": m.frame_volume,
        }
    if isinstance(m, ConformalTorusMetric):
        return {
            "kind": "conformal_torus",
            "grid_size": list(m.phi.shape),
            "periods": list(m.periods),
            "phi": np.asarray(m.phi).tolist(),
        }
    if isinstance(m, ModelSpaceMetric):
        return {
            "kind": "model_space",
            "dim": m.dim,
            "sectional_sign": m.sectional_sign,
            "scale": m.scale,
            "base_volume": m.base_volume,
        }
    raise TypeError(f"unknown metric model {type(m)!r}")


# Dormand-Prince 5(4) tableau as numpy arrays, for the reference integrator
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def integrate_ode_numpy_stages(rhs, y0, t0, t1, *, abs_tol, rel_tol, stop=None, max_step=None):
    """Bit-for-bit reference for numerics.integrate_ode: the same
    Dormand-Prince controller with every stage and solution formed as a
    numpy array, y + h * sum(a * ki for a, ki in zip(row, k)).  Returns the
    trajectory and the way out of the step loop it took."""
    from expanderlab.numerics import ODE_STEP_BUDGET, OdeFailure, OdeTrajectory

    def error_norm(err, y_old, y_new):
        scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
        return float(np.sqrt(np.mean((err / scale) ** 2)))

    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    span = t1 - t0
    t = t0
    f = np.asarray(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise OdeFailure("non-finite right-hand side at initial state", t, y)
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f / scale) ** 2)))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6 * span
    h = min(h, span / 10)
    if max_step is not None:
        h = min(h, max_step(t))
    times, states, derivs = [t], [y.copy()], [f.copy()]
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
        failed_stage = False
        for i in range(1, 7):
            yi = y + h * sum(a * ki for a, ki in zip(_DP_A[i], k))
            ki = np.asarray(rhs(t + _DP_C[i] * h, yi), dtype=float)
            if not np.all(np.isfinite(ki)):
                failed_stage = True
                break
            k.append(ki)
        if failed_stage:
            h *= 0.25
            if h < h_floor:
                status, message = "truncated", "step size underflow (non-finite stages)"
                break
            continue
        y_new = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        if not np.all(np.isfinite(y_new)):
            raise OdeFailure("non-finite state during integration", t, y)
        err = error_norm(y_new - y4, y, y_new)
        if err <= 1.0:
            t_new = t + h
            f_new = k[6]
            times.append(t_new)
            states.append(y_new.copy())
            derivs.append(f_new.copy())
            if stop is not None and stop(t_new, y_new):
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
    traj = OdeTrajectory(np.asarray(times), np.asarray(states), np.asarray(derivs), status)
    if status == "halted" and len(times) >= 2:
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
    return traj, message


def curvature_homogeneous_numpy(m):
    """Reference scalar curvature of a homogeneous metric, as the numpy sum
    over the frame np.sum(rc / diag)."""
    from expanderlab.geometry import milnor_ricci_diag

    q = milnor_ricci_diag(m.structure_constants, m.diag) / np.asarray(m.diag, dtype=float)
    return float(np.sum(q))


def blowdown_params_at(h, alpha, t):
    """The parameters of the blowdown g(alpha t)/alpha at t, rescaled at
    lookup: h's at alpha t divided by alpha, or phi - log(alpha)/2 on the
    torus.  Reference for `flow.blowdown`, which rescales the samples."""
    p = h.params_at(alpha * float(t))
    if h.kind == "conformal_torus":
        return p - 0.5 * math.log(alpha)
    return p / alpha


def blowdown_params_at_times(h, alpha, ts):
    """`blowdown_params_at` at each of the times ts, from one batched lookup."""
    p = h.params_at_times(alpha * np.asarray(ts, dtype=float))
    if h.kind == "conformal_torus":
        return p - 0.5 * math.log(alpha)
    return p / alpha


def immortal_u_at_per_call(dens, t):
    """The immortal torus density at t by Hermite rule, with both end
    slopes -lap u + R u built from their own metric lookups at each call.
    Reference for `conjugate_heat.ImmortalDensity.u_at`, which stores the
    slopes once."""
    from expanderlab.geometry import curvature, laplacian
    from expanderlab.numerics import hermite_cubic, hermite_interval

    times = np.array([s.t for s in dens.states])
    i, s, h_step = hermite_interval(times, float(t), 1e-12)

    def slope(k):
        m = dens.history.metric_at(times[k])
        u = dens.states[k].u
        return -laplacian(m, u) + curvature(m).scalar * u

    return hermite_cubic(s, h_step, dens.states[i].u, slope(i),
                         dens.states[i + 1].u, slope(i + 1))


def _subgrid_hand_rolled(fld, m):
    """The subgrid index and spacing of an n x n target field, by hand."""
    n, (nx, ny) = fld.grid, m.phi.shape
    lx, ly = m.periods
    return np.s_[::nx // n, ::ny // n], (lx / n, ly / n)


def subgrid_ops_hand_rolled(fld, h, i):
    """(R, grad_sq, lap) on the n x n subgrid of torus field time i, each
    stencil formed from exp(-2 phi) sampled on the subgrid and the flat
    difference at the subgrid spacing.  Reference for `reduced._slice_ops`,
    which applies geometry's operators to the subgrid metric."""
    from expanderlab.geometry import _dx, _dy, _lap0, curvature

    m = h.metric_at(float(fld.times[i]))
    sub, (hsx, hsy) = _subgrid_hand_rolled(fld, m)
    em2p = np.exp(-2 * m.phi[sub])
    shape = (fld.grid, fld.grid)

    def grad_sq(f):
        f = f.reshape(shape)
        fx, fy = _dx(f, hsx), _dy(f, hsy)
        return (em2p * (fx * fx + fy * fy)).ravel()

    def lap(f):
        return (em2p * _lap0(f.reshape(shape), hsx, hsy)).ravel()

    return curvature(m).scalar[sub].ravel(), grad_sq, lap


def theta_plus_hand_rolled(fld, h):
    """theta_+ of a subgrid torus field: the sum of exp(ell)/(4 pi t) times
    exp(2 phi) on the subgrid, times the subgrid cell area.  Reference for
    `reduced.theta_plus`, which integrates against the subgrid metric."""
    theta = []
    for i, t in enumerate(fld.times):
        u_hat = np.exp(fld.ell[i]) / (4.0 * math.pi * t) ** (h.dim / 2.0)
        m = h.metric_at(t)
        sub, (hsx, hsy) = _subgrid_hand_rolled(fld, m)
        theta.append(float(np.sum(u_hat * np.exp(2 * m.phi[sub]).ravel())) * hsx * hsy)
    return np.array(theta)


def hessian_margins_hand_rolled(h, t, fld):
    """(xx_min, yy_min) of the torus Hessian bound at field time t, with the
    covariant Hessian of exp(2 phi) * flat written out on the subgrid.
    Reference for `reduced.hessian_check_cor21`, which applies
    `geometry.hessian_covariant` to the subgrid metric."""
    from expanderlab.geometry import _d2, _dx, _dxy, _dy, curvature

    i = int(np.flatnonzero(fld.times == t)[0])
    m = h.metric_at(t)
    sub, (hx, hy) = _subgrid_hand_rolled(fld, m)
    f = (2.0 * math.sqrt(t) * fld.ell[i]).reshape(fld.grid, fld.grid)
    phi = m.phi[sub]
    fx, fy = _dx(f, hx), _dy(f, hy)
    px, py = _dx(phi, hx), _dy(phi, hy)
    h_xx = _d2(f, hx, 0) - px * fx + py * fy
    h_yy = _d2(f, hy, 1) + px * fx - py * fy
    e2p = np.exp(2.0 * phi)
    bound = 1.0 / math.sqrt(t) + 2.0 * math.sqrt(t) * 0.5 * curvature(m).scalar[sub]
    mx, my = bound - h_xx / e2p, bound - h_yy / e2p
    if fld.smooth_mask is not None:
        keep = fld.smooth_mask[i].reshape(fld.grid, fld.grid)
        mx, my = mx[keep], my[keep]
    return float(np.min(mx)), float(np.min(my))


def mu_plus_lbfgs(m, sigma):
    """mu_+ of a conformal torus at sigma by scipy's L-BFGS-B: the discrete
    functional sum of [sigma (-4 w lap w + R w^2) + w^2 log w^2] dv over
    w = v / |v| on the unit sphere of L^2(dv), with its own roll stencils.
    Reference for `entropy.mu_plus`, which runs a preconditioned projected
    descent on the same functional."""
    from scipy.optimize import minimize

    phi = m.phi
    (nx, ny), (lx, ly) = phi.shape, m.periods
    hx, hy = lx / nx, ly / ny

    def lap0(f):
        return ((np.roll(f, -1, 0) + np.roll(f, 1, 0) - 2 * f) / hx**2
                + (np.roll(f, -1, 1) + np.roll(f, 1, 1) - 2 * f) / hy**2)

    weight = np.exp(2.0 * phi) * hx * hy            # dv per point
    r = -2.0 * np.exp(-2.0 * phi) * lap0(phi)
    const = math.log(4.0 * math.pi * sigma) + 2.0   # n/2 log(4 pi sigma) + n at n = 2

    def value_and_grad(v):
        v = v.reshape(phi.shape)
        norm = math.sqrt(float(np.sum(weight * v * v)))
        w = v / norm
        w2 = np.maximum(w * w, 1e-300)
        lap_w = np.exp(-2.0 * phi) * lap0(w)
        val = float(np.sum(weight * (sigma * (-4.0 * w * lap_w + r * w * w) + w2 * np.log(w2))))
        g = weight * (sigma * (-8.0 * lap_w + 2.0 * r * w) + 2.0 * w * np.log(w2) + 2.0 * w)
        g_v = (g - weight * w * float(np.sum(g * w))) / norm
        return val + const, g_v.ravel()

    res = minimize(value_and_grad, np.ones(phi.size), jac=True, method="L-BFGS-B",
                   options={"ftol": 0.0, "gtol": 1e-11, "maxiter": 2000})
    return float(res.fun)
