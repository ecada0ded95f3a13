"""Forward reduced length and reduced volume from space-time path actions.

The action of a path (x(eta), eta) from the base (0, 0) to (y, t) is

    L(path) = int_0^t sqrt(eta) (R + |x'(eta)|^2) d(eta),

its normalized form is ell = L / (2 sqrt t), and the forward reduced
volume is theta(t) = int exp(ell) dv / (4 pi t)^(n/2).  Minimizing paths
satisfy a geodesic equation whose velocity blows up like 1/sqrt(eta) at
the base; integrating in s = sqrt(eta) with the reduced velocity
v = dx/ds removes the singular friction term, and the natural shooting
datum is the momentum p = lim sqrt(eta) x'(eta) = v(0)/2.  Paths start
at the origin, from which radial targets and torus images are measured.

Two testbed families are supported:

* homothety model spaces -- minimizers run along a fixed unit-metric
  geodesic with a scalar speed profile v(s) = v0 * a(eps)/a(s^2) (exact
  for a linear scale factor), so fields over radial targets reduce to
  one-dimensional quadratures.  Flows born at zero size are started at
  eta = eps > 0 with an analytic head estimate for the clipped R-part,
  and results are extrapolated over a ladder of eps values.
* conformal torus -- full two-parameter shooting per target, batched
  over targets, the nine nearest lattice translates of each and all field
  times, with one secant (good Broyden) iteration on the momentum.  Each
  sweep rebuilds the field slices it reads, one block of steps at a time,
  so no store of a whole time's slices is kept.

Along a geodesic the weighted trace-Harnack integral

    K = int eta^(3/2) H(X) d(eta),
    H(X) = dR/dt + 2 <grad R, X> + 2 Ric(X, X) + R/eta,

ties the endpoint speed to the action: t^(3/2)(R + |X|^2) equals
K + L/2 plus, for a regularized start, the boundary term
eps^(3/2)(R + |X|^2)(eps).  The identity and inequality checks below
carry that boundary term so they are exact at finite eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import LEVEL_BATCH_BYTES, SCRATCH_BYTES, FlowHistory, scaled_volume
from .geometry import (
    ConformalTorusMetric,
    _conformal_scalar,
    _lap0,
    curvature,
    grad_norm_sq,
    hessian_covariant,
    integrate,
    laplacian,
)
from .numerics import time_derivative

__all__ = [
    "ReducedField",
    "ThetaSeries",
    "geodesic_identity_residual",
    "ell_plus_field",
    "EPS_LADDER",
    "extrapolate_fields",
    "check_reduced_field",
    "theta_plus",
    "hessian_check_cor21",
]


# ---------------------------------------------------------------------------
# data types

@dataclass
class ReducedField:
    """Normalized reduced-length values over targets at several times.

    ell includes the analytic head; ell_tail is the bare path integral.
    k_effective stores K plus the start boundary term, the combination
    entering the gradient/time identities.  The torus variant records
    a smoothness mask (cut-locus detector) and, with the oracle on, the
    path-minimization values; grid is n when the targets are the n x n
    subgrid (i/n, j/n) * periods, i major, so the field can be
    differenced and integrated.
    """

    kind: str                     # "radial" or "torus"
    times: np.ndarray
    targets: np.ndarray
    ell: np.ndarray               # (n_times, n_targets)
    ell_tail: np.ndarray
    k_effective: np.ndarray
    eps: float
    smooth_mask: np.ndarray | None = None
    oracle_values: np.ndarray | None = None
    oracle_flags: np.ndarray | None = None
    grid: int | None = None

    @property
    def l_bar(self) -> np.ndarray:
        return 4.0 * self.times[:, None] * self.ell

    @property
    def oracle_rel_gap(self) -> float | None:
        """max |ell - oracle| / max(1, |oracle|) over the finite oracle values."""
        if self.oracle_values is None or not np.any(np.isfinite(self.oracle_values)):
            return None
        fin = np.isfinite(self.oracle_values)
        rel = np.abs(self.ell[fin] - self.oracle_values[fin])
        return float(np.max(rel / np.maximum(1.0, np.abs(self.oracle_values[fin]))))

    def to_csv(self, path) -> None:
        from .reports import write_csv

        rows = []
        for i, t in enumerate(self.times):
            for j in range(self.ell.shape[1]):
                tgt = self.targets[j]
                tgt_cols = list(np.atleast_1d(tgt).astype(float))
                rows.append([t, *tgt_cols, self.ell[i, j], self.l_bar[i, j],
                             self.k_effective[i, j]])
        tgt_names = ["target"] if self.kind == "radial" else ["target_x", "target_y"]
        write_csv(path, ["t", *tgt_names, "ell", "l_bar", "k_eff"], rows)


@dataclass
class ThetaSeries:
    """Forward reduced volume along the flow with its verdicts."""

    times: np.ndarray
    theta: np.ndarray
    lower_bound: np.ndarray
    monotone_ok: bool
    bound_ok: bool                # theta >= lower_bound - 1e-12 at every time
    max_violation: float

    def to_csv(self, path) -> None:
        from .reports import write_csv

        rows = [
            [t, th, lb]
            for t, th, lb in zip(self.times, self.theta, self.lower_bound)
        ]
        write_csv(path, ["t", "theta", "lower_bound"], rows)


# ---------------------------------------------------------------------------
# quadrature helpers

def _node_order_sum(terms: np.ndarray) -> np.ndarray:
    """Node-order sums of (nodes, batch), batch of one included (np.sum pairs it)."""
    return np.cumsum(terms, axis=0)[-1] if terms.shape[1] == 1 else np.sum(terms, axis=0)


def _simpson_weights(n_steps: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1 over an even step count."""
    if n_steps % 2 != 0:
        raise ValueError("simpson needs an even interval count")
    w = np.ones(n_steps + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return w


def _simpson(vals: np.ndarray, ds) -> float:
    """Composite Simpson of the node values vals with step ds."""
    return np.sum(vals * _simpson_weights(len(vals) - 1)) * ds / 3.0


def _analytic_head(r_at_eps: float, eps: float) -> float:
    """Estimate of the clipped R-part int_0^eps sqrt(eta) R d(eta).

    Models R as r(eps) * eps/eta when negative (the borderline profile
    allowed by the lower curvature bound R >= -n/(2 eta), exact on the
    model expander) and as constant when nonnegative.
    """
    if eps == 0.0:
        return 0.0
    if r_at_eps < 0.0:
        return 2.0 * r_at_eps * eps**1.5
    return r_at_eps * (2.0 / 3.0) * eps**1.5


# ---------------------------------------------------------------------------
# homothety (radial) machinery

def _radial_ct(sign: int, sigma):
    """Hessian factor of the unit-model distance in tangential directions."""
    sigma = np.asarray(sigma, dtype=float)
    if sign > 0:
        return np.cos(sigma) / np.sin(sigma)
    if sign < 0:
        return np.cosh(sigma) / np.sinh(sigma)
    return 1.0 / sigma


class _RadialEngine:
    """Shared quadratures for geodesics on one homothety slice (eps, t).

    a(eta) is looked up once per grid: at eps and t, on the uniform
    s-grid, and for eps > 0 on a log grid in s, where the speed profile
    v(s)/v0 = a(eps)/a(s^2) concentrates.  integrals holds (J, I_R, I_g,
    K_R, K_g): J converts the reduced speed v0 to unit arc length, the
    action tail is I_R + v0^2 I_g and the Harnack integral K_R + v0^2 K_g.
    """

    def __init__(self, h: FlowHistory, eps: float, t: float, n_steps: int):
        if h.kind != "model_space":
            raise ValueError("radial engine needs a model-space history")
        self.n, self.rho0 = n, rho0 = h.dim, h.template.rho0
        self.eps, self.t = float(eps), float(t)
        n_steps += n_steps % 2  # Simpson needs an even count
        s_lo, s_hi = (math.sqrt(eps) if eps > 0 else 0.0), math.sqrt(t)
        s = np.linspace(s_lo, s_hi, n_steps + 1)
        ds = (s_hi - s_lo) / n_steps
        self.a_eps, self.a_end = map(float, h.params_at_times([max(eps, 0.0), self.t])[:, 0])
        self.a_nodes = a_nodes = h.params_at_times(s**2)[:, 0]
        i_r = float(_simpson(2.0 * s**2 * (n * rho0 / a_nodes), ds))
        k_r = float(_simpson(2.0 * s**4 * (2.0 * n * rho0**2 / a_nodes**2)
                             + 2.0 * s**2 * n * rho0 / a_nodes, ds))
        # the speed-weighted pieces on one grid: nodes s_q, jac = ds/du, step du
        if self.eps > 0:
            u = np.linspace(math.log(s_lo), math.log(s_hi), 801)
            s_q = jac = np.exp(u)
            step, a_q = (u[-1] - u[0]) / 800, h.params_at_times(s_q**2)[:, 0]
        else:
            s_q, jac, step, a_q = s, 1.0, ds, a_nodes
        w = self.a_eps / a_q
        self.integrals = (float(_simpson(w * jac, step)), i_r,
                          float(_simpson(0.5 * a_q * w**2 * jac, step)), k_r,
                          float(_simpson(rho0 * s_q**2 * w**2 * jac, step)))

    def solve(self, v0):
        """(l_tail, k, boundary, x_speed_sq_end, head) for reduced speeds v0."""
        _, i_r, i_g, k_r, k_g = self.integrals
        l_tail = i_r + v0**2 * i_g
        k_val = k_r + v0**2 * k_g
        w_end = self.a_eps / self.a_end
        x_sq_end = self.a_end * (v0 * w_end) ** 2 / (4.0 * self.t)
        if self.eps > 0:
            r_eps = self.n * self.rho0 / self.a_eps
            boundary = self.eps**1.5 * (r_eps + self.a_eps * v0**2 / (4.0 * self.eps))
        else:
            r_eps, boundary = 0.0, np.zeros_like(v0)
        return l_tail, k_val, boundary, x_sq_end, _analytic_head(r_eps, self.eps)


def _radial_field(h: FlowHistory, radii, times, eps: float, n_steps: int) -> ReducedField:
    radii = np.asarray(radii, dtype=float)
    times = np.asarray(times, dtype=float)
    ell = np.empty((len(times), len(radii)))
    ell_tail = np.empty_like(ell)
    k_eff = np.empty_like(ell)
    for i, t in enumerate(times):
        eng = _RadialEngine(h, eps, float(t), n_steps)
        l_tail, k_val, boundary, _, head = eng.solve(radii / eng.integrals[0])
        ell_tail[i] = l_tail / (2.0 * math.sqrt(t))
        ell[i] = (l_tail + head) / (2.0 * math.sqrt(t))
        k_eff[i] = k_val + boundary
    return ReducedField(
        kind="radial", times=times, targets=radii, ell=ell,
        ell_tail=ell_tail, k_effective=k_eff, eps=eps,
    )


# start regularizations of a flow born at zero size, extrapolated to eps = 0
EPS_LADDER = (1e-3, 1e-4, 1e-5)


def extrapolate_fields(fields) -> ReducedField:
    """Extrapolate a ladder of eps-regularized fields to eps = 0.

    Values behave like value(eps) = value(0) + c sqrt(eps) + O(eps);
    fits a polynomial in sqrt(eps) of degree len(fields)-1 and keeps the
    constant term, entrywise for ell and the effective Harnack integral.
    """
    if len(fields) < 2:
        raise ValueError("need at least two regularizations to extrapolate")
    fields = sorted(fields, key=lambda f: -f.eps)
    x = np.array([math.sqrt(f.eps) for f in fields])
    deg = len(fields) - 1

    def fit(stack):
        coef = np.polynomial.polynomial.polyfit(x, stack.reshape(len(fields), -1), deg)
        return coef[0].reshape(stack.shape[1:])

    ell0 = fit(np.stack([f.ell for f in fields]))
    k0 = fit(np.stack([f.k_effective for f in fields]))
    base = fields[0]
    return ReducedField(
        kind=base.kind, times=base.times, targets=base.targets, ell=ell0,
        ell_tail=ell0, k_effective=k0, eps=0.0, grid=base.grid,
        smooth_mask=base.smooth_mask,
    )


# ---------------------------------------------------------------------------
# torus machinery

# slice store rows of shooting; every caller gathers r and e2p with the
# gradients of their interpolants
_FIELDS = ("r", "e2p", "rdot")


def _s_grid(t: float, n_steps: int):
    """An even step count over s in [0, sqrt t] (Simpson needs one), its
    nodes, and the refined ladder of their half steps, where RK4 stages and
    oracle midpoints sample the fields."""
    n_steps += n_steps % 2
    return (n_steps, np.linspace(0.0, math.sqrt(t), n_steps + 1),
            np.linspace(0.0, math.sqrt(t), 2 * n_steps + 1))


class _TorusSlices:
    """Field slices of a torus history at the s-values s_all (eta = s^2), in one
    store filled in batches whose temporaries stay under `SCRATCH_BYTES`.  s_all
    runs in ladders of `span` slices from a node: even slices are nodes, odd ones
    half steps.  The rows are `_FIELDS`, rdot at nodes only (all shooting reads),
    or, `paired`, one row of r at nodes and e2p at half steps (all the oracle reads)."""

    def __init__(self, h: FlowHistory, s_all: np.ndarray, span: int | None = None,
                 paired: bool = False):
        self.nx, self.ny = h.template.phi.shape
        self.hx, self.hy = h.template.spacing
        self.spacing = np.array([[self.hx], [self.hy]])
        # per axis, the wrapped taps -1 .. 2 (rows) of each base 0 .. n (float `%`
        # can round a fraction up to n); x taps as rows of a flattened slice
        self.taps_x, self.taps_y = ((np.arange(-1, 3)[:, None] + np.arange(n + 1)) % n * k
                                    for n, k in ((self.nx, self.ny), (self.ny, 1)))
        # (rows, n_slices, nx, ny)
        self.store = np.empty((1 if paired else len(_FIELDS), len(s_all), self.nx, self.ny))
        node = np.arange(len(s_all)) % (span or len(s_all)) % 2 == 0
        block = max(1, SCRATCH_BYTES // h.template.phi.nbytes)
        hx, hy = self.hx, self.hy
        for lo in range(0, len(s_all), block):
            etas = [min(max(float(s**2), h.t_min), h.t_max) for s in s_all[lo:lo + block]]
            phi = h.params_at_times(etas).reshape(len(etas), self.nx, self.ny)
            at = node[lo:lo + len(etas)]
            out = self.store[:, lo:lo + len(etas)]
            if paired:
                out[0, at] = _conformal_scalar(phi[at], hx, hy)
                out[0, ~at] = np.exp(2.0 * phi[~at])
                continue
            out[0] = r = _conformal_scalar(phi, hx, hy)
            out[1] = e2p = np.exp(2.0 * phi)
            r, e2p = r[at], e2p[at]  # curvature evolution dR/dt = lap R + R^2 in two dimensions
            out[2, at] = _lap0(r, hx, hy) / e2p + r * r

    def sample(self, idx, fields: slice, pts: np.ndarray, grad: bool) -> np.ndarray:
        """Smooth periodic samples (n_fields, m) of the store rows `fields` at
        points (m, 2), from slice idx: one int, or one index per point.  With
        `grad`, (3, n_fields, m): the samples, then their x and y derivatives,
        which are those of the same interpolant from the same taps.

        Points run in blocks whose taps (16 of 8 bytes per field and point)
        stay under the scratch cap; every field of a block takes one gather.
        Blocks run in runs of whole blocks, and one `_spline_taps` call over
        a run's x, then y, fractions gives its tap plan, whose weights (128
        bytes a point) stay under the cap too; each half takes its taps from
        its own axis's table, where non-finite points clip to a base of 0.
        """
        grids = self.store[fields].reshape(-1, self.store[0].size)  # a view: rows are contiguous
        out = np.empty((3 if grad else 1, len(grids), len(pts)))
        offset = idx * (self.nx * self.ny)  # of the slice in a flattened row
        block = max(1, SCRATCH_BYTES // (128 * len(grids)))
        run = max(block, SCRATCH_BYTES // 128 // block * block)
        for lo in range(0, len(pts), run):
            m = min(run, len(pts) - lo)
            base, w = _spline_taps(np.concatenate([(pts[lo:lo + m, 0] / self.hx) % self.nx,
                                                   (pts[lo:lo + m, 1] / self.hy) % self.ny]), grad)
            if grad:  # slopes per unit length
                slopes = w[1].reshape(4, 2, m)
                slopes /= self.spacing
            rows = self.taps_x.take(base[:m], axis=1, mode="clip")
            rows += offset[lo:lo + m] if np.ndim(offset) else offset
            cols = self.taps_y.take(base[m:], axis=1, mode="clip")
            wx, wy = w[:, :, :m], w[:, :, m:]
            for b in range(0, m, block):
                blk, at = slice(b, b + block), slice(lo + b, lo + min(b + block, m))
                taps = grids.take(rows[:, None, blk] + cols[None, :, blk], axis=1)
                np.einsum("am,bm,fabm->fm", wx[0, :, blk], wy[0, :, blk], taps, out=out[0, :, at])
                if grad:
                    np.einsum("am,bm,fabm->fm", wx[1, :, blk], wy[0, :, blk], taps, out=out[1, :, at])
                    np.einsum("am,bm,fabm->fm", wx[0, :, blk], wy[1, :, blk], taps, out=out[2, :, at])
        return out if grad else out[0]


# Catmull-Rom weights of the taps -1 .. 2 as cubics in u: rows hold the
# coefficients of u^3, u^2, u and 1.  Terms are summed from the highest
# power down; flat-torus reduced values depend on the weights' round-off.
# A weight and its slope share one product per power of u, with the pairs
# of coefficients (c1, 3 c0) of u^2, (c2, 2 c1) of u and (c3, c2) of 1;
# the weight's c0 u^3 joins its first sum
_CATMULL_ROM = np.array([[-0.5, 1.5, -1.5, 0.5], [1.0, -2.5, 2.0, -0.5],
                         [-0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0]])[:, :, None]
_SPLINE_TERMS = np.stack([_CATMULL_ROM[1:], [[[3.0]], [[2.0]], [[1.0]]] * _CATMULL_ROM[:3]], axis=1)


def _spline_taps(frac: np.ndarray, slopes: bool):
    """Catmull-Rom bases (m,), whose taps are base - 1 .. base + 2, and
    weights (1, 4, m) of grid fractions in [0, n] (or non-finite), where a
    cast truncates to the floor; with `slopes`, weights (2, 4, m) whose
    second row differentiates in `frac`.

    C1 interpolation keeps shot geodesics smooth functions of the
    target, which the stencil checks on reduced fields rely on
    (piecewise-bilinear sampling leaves derivative kinks that a divided
    second difference amplifies).
    """
    base = frac.astype(int)
    u = frac - base
    k = 2 if slopes else 1
    w = _SPLINE_TERMS[0, :k] * u**2
    w[0] += _CATMULL_ROM[0] * u**3
    w += _SPLINE_TERMS[1, :k] * u
    w += _SPLINE_TERMS[2, :k]
    return base, w


def _torus_rhs(s, v: np.ndarray, fields):
    """Reduced-velocity system dv/ds on the torus from a derivative gather of
    store rows r and e2p, the interpolants the action samples; s is one
    value or one per row."""
    (r, e2p), (rx, ex), (ry, ey) = fields[:, :2]
    px, py = ex / (2 * e2p), ey / (2 * e2p)
    vx, vy = v[:, 0], v[:, 1]
    gamma_x = px * vx * vx + 2 * py * vx * vy - px * vy * vy
    gamma_y = -py * vx * vx + 2 * px * vx * vy + py * vy * vy
    acc = np.empty_like(v)
    acc[:, 0] = -gamma_x + 2 * s * s * rx / e2p + 2 * s * r * vx
    acc[:, 1] = -gamma_y + 2 * s * s * ry / e2p + 2 * s * r * vy
    return acc


def _torus_integrate(h: FlowHistory, times: np.ndarray, momenta: np.ndarray, n_steps: int):
    """RK4 integration of the reduced system for a batch of momenta from the
    origin, each row to its own time.

    Every row takes the same n_steps steps in lockstep, with its own ds, s
    and t.  Returns endpoints, the action tail, the Harnack integral and
    endpoint speed data.  One derivative gather per node serves the node
    integrands and the next step's first stage.
    The slices live for one block of steps: a block builds its steps'
    slices at every time that has rows, as many steps as keep the block's
    store under `LEVEL_BATCH_BYTES`, and at least one.  No array of every
    node's integrands is kept: the integrals are running Simpson sums.
    """
    ts, row_t = np.unique(times, return_inverse=True)
    grids = [_s_grid(float(t), n_steps) for t in ts]
    n_steps = grids[0][0]
    ds = np.array([s_nodes[1] - s_nodes[0] for _, s_nodes, _ in grids])
    # per time and step: s at the start, half step and end, and the end's
    # cube and fourth power, from numpy's scalar ** (its array ** rounds
    # differently); the end, the next node's s, is s_nodes[k] + ds, which
    # may differ from s_nodes[k + 1] in the last bit
    s_tab = np.array([[(s, s + 0.5 * d, s + d, (s + d)**3, (s + d)**4) for s in s_nodes[:-1]]
                      for (_, s_nodes, _), d in zip(grids, ds)])
    per_time = LEVEL_BATCH_BYTES // (len(_FIELDS) * h.template.phi.nbytes) // len(ts)
    blk = max(1, (per_time - 1) // 2)  # steps of a block, whose 2 blk + 1 slices per time fit
    ds = ds[row_t, None]
    x = np.zeros_like(momenta)
    v = 2.0 * momenta
    # Simpson sums of the node integrands run as they are made, in node
    # order, the order np.sum adds the rows of a (nodes, rows) array
    weights = _simpson_weights(n_steps)

    def node_integrands(s, s3, s4, v, fields):
        (r, e2p, rdot), (rx, _, _), (ry, _, _) = fields
        speed_sq = e2p * np.sum(v * v, axis=1)
        action = 2 * s * s * r + 0.5 * speed_sq
        hk = (
            2 * s4 * rdot
            + 2 * s3 * (rx * v[:, 0] + ry * v[:, 1])
            + 0.5 * s * s * r * speed_sq
            + 2 * s * s * r
        )
        return action, hk

    stage, nodes = slice(2), slice(3)  # store rows of an RK4 stage and of a node
    for k in range(n_steps):
        if k % blk == 0:  # a new block: the slices 2k .. 2k + span - 1 of every time
            span = 2 * min(blk, n_steps - k) + 1
            slices = None  # the last block's store is freed before the next is built
            slices = _TorusSlices(h, np.concatenate([s_all[2 * k:2 * k + span]
                                                     for *_, s_all in grids]), span)
            at = row_t * span - 2 * k  # a row's slice i is at + i in the block
            if k == 0:
                node = slices.sample(at, nodes, x, grad=True)
                act, kin = node_integrands(0.0, 0.0, 0.0, v, node)  # weight 1
        s, s_half, s_end, s3, s4 = s_tab[row_t, k].T
        i1, i2 = at + 2 * k + 1, at + 2 * k + 2
        k1x, k1v = v, _torus_rhs(s, v, node)
        x2, v2 = x + 0.5 * ds * k1x, v + 0.5 * ds * k1v
        k2x, k2v = v2, _torus_rhs(s_half, v2, slices.sample(i1, stage, x2, grad=True))
        x3, v3 = x + 0.5 * ds * k2x, v + 0.5 * ds * k2v
        k3x, k3v = v3, _torus_rhs(s_half, v3, slices.sample(i1, stage, x3, grad=True))
        x4, v4 = x + ds * k3x, v + ds * k3v
        k4x, k4v = v4, _torus_rhs(s_end, v4, slices.sample(i2, stage, x4, grad=True))
        x = x + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + ds / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        node = slices.sample(i2, nodes, x, grad=True)
        action, hk = node_integrands(s_end, s3, s4, v, node)
        act = act + weights[k + 1] * action
        kin = kin + weights[k + 1] * hk
    r_end, e2p_end = node[0, :2]
    x_speed_sq = e2p_end * np.sum(v * v, axis=1) / (4.0 * ts[row_t])
    return {
        "end": x, "l_tail": act * ds[:, 0] / 3.0, "k": kin * ds[:, 0] / 3.0,
        "r_end": r_end, "x_speed_sq": x_speed_sq,
    }


def _lattice_images(periods, targets: np.ndarray):
    """The nine nearest lattice translates (m, 9, 2) of each target and their
    flat distances (m, 9) from the origin."""
    lx, ly = periods
    shifts = np.array([(i * lx, j * ly) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    images = targets[:, None, :] + shifts[None, :, :]
    return images, np.linalg.norm(images, axis=2)


def _torus_shoot_targets(h: FlowHistory, targets: np.ndarray, times: np.ndarray, n_steps: int):
    """Best action over the nearby lattice translates of each target, each
    at its own time.

    The rows of all times run in one batch: a sweep integrates every live
    row in lockstep, over slices built per block of steps and rebuilt on
    every sweep, so no slice store outlives a sweep.  Translates that
    cannot win are dropped up front: the conformal factor bounds the
    kinetic cost of any path between multiples of the flat one, so an
    image farther than the distortion factor times the nearest image
    distance (plus a safety margin) is excluded.  One secant iteration
    (good Broyden) finds each momentum: a row starts at the flat guess
    with the inverse Jacobian I/(2 sqrt t) of the flat endpoint map
    p -> 2 sqrt(t) p, and settled rows leave the batch.  A row still live
    after 50 sweeps keeps its last miss, which the caller treats as a
    missed shot.
    """
    m_t = len(targets)
    all_images, dists = _lattice_images(h.template.periods, targets)

    def distortion(t):
        phis = h.params_at_times([min(max(e, h.t_min), h.t_max) for e in (0.0, 0.25 * t, t)])
        return np.exp(max(float(np.max(ph) - np.min(ph)) for ph in phis))

    ts, target_t = np.unique(times, return_inverse=True)
    factor = np.array([distortion(t) for t in ts])[target_t]
    cutoff = factor * dists.min(axis=1) + 0.12 * min(h.template.periods)
    keep = dists <= cutoff[:, None]
    rows, images = np.nonzero(keep)[0], all_images[keep]     # (q,), (q, 2)
    row_t = times[rows]
    q = len(images)
    two_rt = 2.0 * np.sqrt(row_t)[:, None]
    p_flat = images / two_rt
    p = p_flat.copy()
    h_flat = np.eye(2) / two_rt[:, :, None]
    h_inv = h_flat.copy()  # inverse Jacobian of each row's endpoint map
    f_old = np.full((q, 2), np.nan)  # the row's last residual, paired with its last step
    step = np.zeros((q, 2))
    l_tail, k_val, miss = np.empty((3, q))

    with np.errstate(over="ignore", invalid="ignore"):
        # one secant iteration with live masking: every sweep records the
        # integrals of the momenta it integrated, so a settled row keeps
        # those of its settling sweep
        live = np.arange(q)
        stuck = np.zeros(q, dtype=bool)  # the row's last endpoint was not finite
        for _ in range(50):
            if len(live) == 0:
                break
            res = _torus_integrate(h, row_t[live], p[live], n_steps)
            f = res["end"] - images[live]
            miss[live] = np.max(np.abs(f), axis=1)
            l_tail[live], k_val[live] = res["l_tail"], res["k"]
            finite = np.all(np.isfinite(f), axis=1)
            # good Broyden: H += (s - H y) s^T H / (s^T H y) after two finite residuals
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
            # a non-finite endpoint is retried once from the same momentum,
            # then restarts from the flat guess, or leaves if it was there
            again = stuck[live] & ~finite
            at_flat = np.all(p[live] == p_flat[live], axis=1)
            restart = live[again & ~at_flat]
            p[restart], h_inv[restart] = p_flat[restart], h_flat[restart]
            stuck[live] = ~finite & ~again
            live = live[~conv & ~(again & at_flat)]
    miss, l_tail = (np.where(np.isfinite(a), a, np.inf) for a in (miss, l_tail))
    # reduce (image rows) -> per-target winner; missed shots cannot win
    l_pick = np.where(miss < 1e-6, l_tail, np.inf)
    best = np.full(m_t, np.inf)
    np.minimum.at(best, rows, l_pick)
    win = np.full(m_t, -1, dtype=int)
    for idx in range(q):
        if l_pick[idx] <= best[rows[idx]]:
            win[rows[idx]] = idx
    return {"l_tail": l_tail[win], "k": k_val[win], "images": images[win], "miss": miss[win]}


# ---------------------------------------------------------------------------
# public operations

def geodesic_identity_residual(h: FlowHistory, momentum, t_end: float,
                               eps: float = 0.0) -> float:
    """|t^(3/2)(R + |X|^2) - (boundary + K + L/2)| at the end of the reduced
    geodesic shot from the origin with a momentum datum, at t = t_end, in
    192 steps."""
    if h.kind == "model_space":
        eng = _RadialEngine(h, eps, t_end, 192)
        l_tail, k_val, boundary, x_sq_end, _ = eng.solve(2.0 * float(momentum))
        r_end = h.dim * eng.rho0 / eng.a_nodes[-1]
    elif h.kind == "conformal_torus":
        mom = np.asarray(momentum, dtype=float).reshape(1, 2)
        res = _torus_integrate(h, np.array([t_end], dtype=float), mom, 192)
        l_tail, k_val, r_end, x_sq_end = (float(res[key][0])
                                          for key in ("l_tail", "k", "r_end", "x_speed_sq"))
        boundary = 0.0
    else:
        raise ValueError("geodesic shooting supports model-space and torus histories")
    return float(abs(t_end**1.5 * (r_end + x_sq_end) - (boundary + k_val + 0.5 * l_tail)))


class _PathAction:
    """Discretized action of piecewise-linear paths from the origin to time t, on
    the squared uniform s-grid of n_segments segments over a paired store (r
    at the nodes, e2p at the midpoints), and its gradient.

    A batch of paths holds interior nodes z (B, M-1, 2) and endpoints y
    (B, 2).  Straight segments are traversed linearly in s = sqrt(eta): the
    kinetic weight integrates exactly and the square-root start profile is
    represented without discretization loss.  The gradient samples the
    derivatives of the interpolants the value samples, so it is the exact
    derivative of the value.
    """

    def __init__(self, h: FlowHistory, t: float, n_segments: int):
        m, s_nodes, s_all = _s_grid(t, n_segments)
        self.n_segments = m
        self.slices = _TorusSlices(h, s_all, paired=True)
        eta = s_nodes**2
        self.d_eta = np.diff(eta)
        self.seg_w = self.d_eta**2 / (2.0 * np.diff(s_nodes))
        self.node_w = np.zeros(m + 1)
        self.node_w[:-1] += 0.5 * np.sqrt(eta[:-1]) * self.d_eta
        self.node_w[1:] += 0.5 * np.sqrt(eta[1:]) * self.d_eta
        # the kinetic part is a quadratic form with a fixed tridiagonal
        # Hessian per coordinate, which `precondition` solves against
        self.c_seg = 2.0 * self.seg_w / self.d_eta**2
        self.diag = self.c_seg[:-1] + self.c_seg[1:]

    def __call__(self, z: np.ndarray, y: np.ndarray, want_grad: bool):
        """Values (B,) and, if wanted, gradients (B, M-1, 2) in z."""
        bb, m = len(z), self.n_segments
        pos = np.concatenate([np.zeros((bb, 1, 2)), z, y[:, None, :]], axis=1)
        # node curvature part: r at all nodes in one gather (node-major layout)
        node = self.slices.sample(np.repeat(2 * np.arange(m + 1), bb), slice(0, 1),
                                  pos.transpose(1, 0, 2).reshape(-1, 2),
                                  want_grad).reshape(-1, m + 1, bb)
        val = np.zeros(bb)
        val += _node_order_sum(self.node_w[:, None] * node[0])
        # segment kinetic part with the midpoint conformal factor e2p (odd slices)
        mids = 0.5 * (pos[:, :-1, :] + pos[:, 1:, :])
        mid = self.slices.sample(np.repeat(2 * np.arange(m) + 1, bb), slice(0, 1),
                                 mids.transpose(1, 0, 2).reshape(-1, 2),
                                 want_grad).reshape(-1, m, bb)
        dxs = (pos[:, 1:, :] - pos[:, :-1, :]).transpose(1, 0, 2)  # (M, B, 2)
        sp = np.sum(dxs * dxs, axis=2) / self.d_eta[:, None] ** 2
        val += _node_order_sum(self.seg_w[:, None] * mid[0] * sp)
        if not want_grad:
            return val, None
        (_, rx, ry), (e2p, ex, ey) = node, mid
        grads = np.zeros_like(z)
        grads[:, :, 0] += (self.node_w[1:-1, None] * rx[1:-1]).T
        grads[:, :, 1] += (self.node_w[1:-1, None] * ry[1:-1]).T
        common = self.seg_w[:, None] * e2p                     # (M, B)
        dvec = 2.0 * common[:, :, None] * dxs / self.d_eta[:, None, None] ** 2
        grads -= dvec[1:].transpose(1, 0, 2)
        grads += dvec[:-1].transpose(1, 0, 2)
        # a segment's midpoint moves half as far as either end
        half = 0.5 * self.seg_w[:, None] * sp
        grads[:, :, 0] += (half[1:] * ex[1:]).T + (half[:-1] * ex[:-1]).T
        grads[:, :, 1] += (half[1:] * ey[1:]).T + (half[:-1] * ey[:-1]).T
        return val, grads

    def precondition(self, g: np.ndarray) -> np.ndarray:
        """Solve the kinetic Hessian against g (Thomas algorithm), which makes
        the descent mesh-independent."""
        c_seg, diag = self.c_seg, self.diag
        bb, m1, _ = g.shape
        x = np.empty_like(g)
        cp = np.empty(m1)
        dp = np.empty((bb, m1, 2))
        beta = diag[0]
        cp[0] = -c_seg[1] / beta
        dp[:, 0] = g[:, 0] / beta
        for k in range(1, m1):
            beta = diag[k] + c_seg[k] * cp[k - 1]
            cp[k] = -c_seg[k + 1] / beta if k < m1 - 1 else 0.0
            dp[:, k] = (g[:, k] + c_seg[k] * dp[:, k - 1]) / beta
        x[:, m1 - 1] = dp[:, m1 - 1]
        for k in range(m1 - 2, -1, -1):
            x[:, k] = dp[:, k] - cp[k] * x[:, k + 1]
        return x


def _descend(action: _PathAction, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Descend a chunk of paths in place from their starts; returns their values.

    Each path runs on its own (live mask, step, backtracking, stall test).
    The first line-search trial brings its gradient, so a path accepted
    there skips the next sweep's gather.
    """
    val, g = action(z, y, True)
    step = np.full(len(z), 1.0)
    live_idx = np.arange(len(z))
    stale = np.zeros(len(z), dtype=bool)  # live paths whose row of g is not current
    for _ in range(200):
        if len(live_idx) == 0:
            break
        z_l = z[live_idx]
        if np.any(stale):
            g[stale] = action(z_l[stale], y[live_idx[stale]], True)[1]
        d = action.precondition(g)
        gn = np.max(np.abs(g), axis=(1, 2))
        still = gn > 1e-12
        live_idx = live_idx[still]
        if len(live_idx) == 0:
            break
        z_l, d = z_l[still], d[still]
        v_l = val[live_idx]
        alpha = np.minimum(step[live_idx] * 2.0, 1.0)
        pending = np.arange(len(live_idx))
        improved = np.zeros(len(live_idx), dtype=bool)
        for bt in range(24):
            trial = z_l[pending] - alpha[pending, None, None] * d[pending]
            # the first trial brings its gradient, kept where it is accepted
            v_try, g_try = action(trial, y[live_idx[pending]], bt == 0)
            ok = v_try < v_l[pending] - 1e-14 * (1.0 + np.abs(v_l[pending]))
            if bt == 0:
                g, stale = g_try, ~ok
            hit = pending[ok]
            z_l[hit] = trial[ok]
            v_l[hit] = v_try[ok]
            step[live_idx[hit]] = alpha[hit]
            improved[hit] = True
            pending = pending[~ok]
            if len(pending) == 0:
                break
            alpha[pending] *= 0.5
        z[live_idx] = z_l
        val[live_idx] = v_l
        live_idx = live_idx[improved]  # stalled paths are converged
        g, stale = g[improved], stale[improved]
    return val


def _oracle_torus_batch(h, targets, t, n_segments):
    """Direct descent over discrete paths on a torus for many targets at once;
    an upper-bound cross-check of shooting.

    Each (target, translate) row descends once, from the straight path
    (nodes are uniform in s, so it is also the square-root start profile),
    in contiguous chunks of at most 2**14 path nodes, with the values of
    one batch and a bounded working set.  Per target only the three closest
    lattice translates by flat distance are explored (the conformal
    factor is bounded, so far images cannot win).  Only an upper bound
    over the restricted path class: a value is never below the shooting
    value beyond quadrature error.  Returns the per-target best value.
    """
    if h.kind != "conformal_torus":
        raise ValueError("the path-minimization oracle supports torus histories")
    action = _PathAction(h, t, n_segments)
    m_t = len(targets)
    images, dist = _lattice_images(h.template.periods, targets)
    order = np.argsort(dist, axis=1)[:, :3]
    rows = np.repeat(np.arange(m_t), 3)
    ys = images[rows, order.ravel()]                            # (m*k, 2)
    prof = np.linspace(0, 1, n_segments + 1)[1:-1]
    z = prof[:, None] * ys[:, None, :]                          # (q, M-1, 2)
    # at most 2**14 nodes a chunk: one float per node fills the scratch cap
    chunk = max(1, SCRATCH_BYTES // 8 // (n_segments + 1))
    val = np.concatenate([_descend(action, z[lo:lo + chunk], ys[lo:lo + chunk])
                          for lo in range(0, len(z), chunk)])
    # fold the translate axis back into per-target minima
    best = np.full(m_t, np.inf)
    np.minimum.at(best, rows, val)
    return best


def ell_plus_field(h: FlowHistory, targets, times, eps: float = 0.0,
                   oracle_check: bool = True, oracle_segments: int = 64) -> ReducedField:
    """Normalized reduced length over targets at the given times.

    targets are radii on a model space; on the torus they are points, or an
    integer n for the n x n subgrid (i/n, j/n) * periods, i major, the one
    form the subgrid checks and theta_+ accept.

    Shooting supplies the values (one-parameter momenta on homothety
    models, two-parameter on the torus, minimized over the nine nearest
    lattice translates); each torus value is cross-checked against the
    direct path-minimization oracle and flagged beyond a relative gap of
    1e-3; a target whose shot misses beyond tolerance falls back to the
    oracle value and is flagged.  The radial quadrature takes 128 steps
    and the torus shooting 96; the targets of all times shoot in one batch.
    """
    times = np.asarray(times, dtype=float)
    grid = int(targets) if isinstance(targets, (int, np.integer)) else None
    if h.kind == "model_space" and grid is None:
        return _radial_field(h, targets, times, eps, n_steps=128)
    if h.kind != "conformal_torus":
        raise ValueError("reduced fields take radii on a model space and points "
                         "or an integer grid on a torus")
    if grid is not None:
        targets = np.array([(i / grid, j / grid) for i in range(grid) for j in range(grid)])
        targets = targets * np.asarray(h.template.periods)
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    m_t = len(targets)
    # every target once per time, in one shooting batch, time major
    shot = _torus_shoot_targets(h, np.tile(targets, (len(times), 1)), np.repeat(times, m_t), 96)
    shot = {key: val.reshape(len(times), m_t, *val.shape[1:]) for key, val in shot.items()}
    ell = shot["l_tail"] / (2.0 * np.sqrt(times))[:, None]
    k_eff, images = shot["k"], shot["images"]
    missed = shot["miss"] > 1e-6
    oracle_vals = np.full((len(times), m_t), np.nan)
    flags = np.zeros((len(times), m_t), dtype=bool)
    for i, t in enumerate(times):
        if oracle_check or np.any(missed[i]):
            two_rt = 2.0 * math.sqrt(t)
            o_vals = _oracle_torus_batch(h, targets, float(t), oracle_segments) / two_rt
            oracle_vals[i] = o_vals
            rel = np.abs(ell[i] - o_vals) / np.maximum(1.0, np.abs(o_vals))
            flags[i] = rel > 1e-3
            ell[i] = np.where(missed[i], o_vals, ell[i])
            flags[i] |= missed[i]
    mask = None if grid is None else _torus_smooth_mask(images, grid, h.template.periods)
    return ReducedField(
        kind="torus", times=times, targets=targets, ell=ell, ell_tail=ell.copy(),
        k_effective=k_eff, eps=0.0, smooth_mask=mask, oracle_values=oracle_vals, oracle_flags=flags, grid=grid,
    )


def _torus_smooth_mask(images: np.ndarray, n: int, periods) -> np.ndarray:
    """Mark subgrid targets whose minimizing branch continues smoothly.

    images holds the unwrapped covering-plane endpoint of the winning
    geodesic per (time, target).  Along one smooth branch the image
    moves exactly with the target, including across the representative
    seam, so a neighbor-difference far from the subgrid spacing marks a
    cut-locus branch switch; the flagged pairs, over all times, are
    dilated by one cell to keep difference stencils clear of the kink.
    A target is kept at every time or at none.
    """
    lx, ly = periods
    steps = {0: np.array([lx / n, 0.0]), 1: np.array([0.0, ly / n])}
    bad = np.zeros((n, n), dtype=bool)
    for img in images.reshape(len(images), n, n, 2):
        for ax in (0, 1):
            jump = np.roll(img, -1, axis=ax) - img - steps[ax]
            switch = np.max(np.abs(jump), axis=2) > 0.25 * min(lx, ly)
            bad |= switch
            bad |= np.roll(switch, 1, axis=ax)
    grown = bad.copy()
    for ax, sh in ((0, 1), (0, -1), (1, 1), (1, -1)):
        grown |= np.roll(bad, sh, axis=ax)
    return np.tile(~grown.ravel(), (len(images), 1))


# ---------------------------------------------------------------------------
# identity and inequality checks over a field

@dataclass
class ReducedCheckReport:
    """Worst values of the field relations over FD-smooth points at interior times.

    gradient_max and time_max are absolute residuals; the four inequality
    margins and supersolution_max are violations when positive.
    """

    gradient_max: float
    time_max: float
    lap_bound: float
    subsolution: float
    heat_form: float
    entropy_form: float
    supersolution_max: float
    excluded_fraction: float

    @property
    def identity(self) -> float:
        return max(self.gradient_max, self.time_max)

    @property
    def worst_violation(self) -> float:
        """The subsolution and entropy forms, the margins every verdict bounds."""
        return max(self.subsolution, self.entropy_form)


def _require_uniform_times(fld: ReducedField) -> None:
    ts = fld.times
    if len(ts) < 3:
        raise ValueError("need at least three field times for time differencing")
    steps = np.diff(ts)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ValueError("field times must be uniform for differencing")


def _radial_derivatives(fld: ReducedField, values: np.ndarray):
    """(first, second) radial derivatives on the target grid, centered.

    End entries are copies of their interior neighbors; callers slice to
    the interior before asserting anything.
    """
    d = fld.targets
    dd = np.diff(d)
    if np.max(np.abs(dd - dd[0])) > 1e-9 * dd[0]:
        raise ValueError("radial targets must be uniform")
    h_d = float(dd[0])
    first = np.gradient(values, h_d, axis=-1, edge_order=2)
    second = np.empty_like(np.asarray(values, dtype=float))
    second[..., 1:-1] = (
        values[..., 2:] - 2 * values[..., 1:-1] + values[..., :-2]
    ) / h_d**2
    second[..., 0] = second[..., 1]
    second[..., -1] = second[..., -2]
    return first, second


def _subgrid(fld: ReducedField, m):
    """Index of the field's n x n target subgrid in the metric grid, and the
    metric of the subgrid: phi sampled there, on the same periods."""
    if fld.grid is None:
        raise ValueError("torus checks need a subgrid ReducedField")
    n, (nx, ny) = fld.grid, m.phi.shape
    if nx % n or ny % n:
        raise ValueError(f"the {n}x{n} target grid must divide the {nx}x{ny} metric grid")
    sub = np.s_[::nx // n, ::ny // n]
    return sub, ConformalTorusMetric(m.phi[sub], m.periods)


def _slice_ops(fld: ReducedField, h: FlowHistory, i: int):
    """Spatial operators on the targets of field time i.

    Returns (R, grad_sq, lap, keep, excluded): the scalar curvature on
    the targets, |grad f|^2 and lap f of a target field, the points the
    stencils may be trusted at (interior radii; smooth subgrid points),
    and the fraction the smoothness mask excluded.
    """
    t = float(fld.times[i])
    m = h.metric_at(t)
    if fld.kind == "radial":
        a_t = float(h.params_at(t)[0])
        ct = _radial_ct(h.template.sectional_sign, np.maximum(fld.targets, 1e-10))

        def grad_sq(f):
            first, _ = _radial_derivatives(fld, f)
            return first**2 / a_t

        def lap(f):
            first, second = _radial_derivatives(fld, f)
            return (second + (h.dim - 1) * ct * first) / a_t

        keep = np.zeros(len(fld.targets), dtype=bool)
        keep[1:-1] = True
        return float(curvature(m).scalar), grad_sq, lap, keep, 0.0
    sub, ms = _subgrid(fld, m)

    def grad_sq(f):
        return grad_norm_sq(ms, f.reshape(ms.grid_size)).ravel()

    def lap(f):
        return laplacian(ms, f.reshape(ms.grid_size)).ravel()

    r = curvature(m).scalar[sub].ravel()
    if fld.smooth_mask is None:
        return r, grad_sq, lap, np.ones(len(fld.targets), dtype=bool), 0.0
    keep = fld.smooth_mask[i]
    return r, grad_sq, lap, keep, 1.0 - float(np.mean(keep))


def check_reduced_field(fld: ReducedField, h: FlowHistory) -> ReducedCheckReport:
    """One pass over the pointwise relations of a reduced field.

    With K_eff the Harnack integral plus the start boundary term, the
    gradient and time identities are checked on the bare tail ell_tail
    (the analytic head is a y-independent offset handled by its own time
    derivative):
      |grad ell|^2 = -R + ell/t + K_eff/t^(3/2)
      d(ell)/dt = R - K_eff/(2 t^(3/2)) - ell/t
    and the inequality suite on the full normalized length ell:
      laplacian bound:  lap ell <= R + n/2t - K_eff/(2 t^(3/2))
      subsolution form: d(ell)/dt + lap ell + |grad ell|^2 - R - n/2t <= 0
      heat form:        (d/dt - lap)(4t ell + 2nt) >= 0
      entropy form:     t (2 lap ell + |grad ell|^2 - R) - ell - n <= 0
    together with the supersolution residual d(u_hat)/dt + lap u_hat
    - R u_hat <= 0 of the kernel u_hat = exp(ell)/(4 pi t)^(n/2).  Each is
    maximized over the points the smoothness mask keeps, at every
    interior time, with the spatial operators built once per time.
    """
    _require_uniform_times(fld)
    n = h.dim
    u_hats = [np.exp(ell) / (4.0 * math.pi * t) ** (n / 2.0)
              for ell, t in zip(fld.ell, fld.times)]
    d_tail, idx = time_derivative(fld.ell_tail, fld.times)
    d_ell, _ = time_derivative(fld.ell, fld.times)
    d_u, _ = time_derivative(u_hats, fld.times)
    worst = {"gradient_max": 0.0, "time_max": 0.0, "lap_bound": -math.inf,
             "subsolution": -math.inf, "heat_form": -math.inf, "entropy_form": -math.inf,
             "supersolution_max": -math.inf}
    excluded = 0.0
    for j, i in enumerate(idx):
        t = float(fld.times[i])
        tail, ell, k_v, dl, u = fld.ell_tail[i], fld.ell[i], fld.k_effective[i], d_ell[j], u_hats[i]
        r, grad_sq_op, lap_op, keep, frac = _slice_ops(fld, h, i)
        excluded = max(excluded, frac)
        lap, grad_sq = lap_op(ell), grad_sq_op(ell)
        fields = {
            "gradient_max": np.abs(grad_sq_op(tail) - (-r + tail / t + k_v / t**1.5)),
            "time_max": np.abs(d_tail[j] - (r - k_v / (2 * t**1.5) - tail / t)),
            "lap_bound": lap - (r + n / (2 * t) - k_v / (2 * t**1.5)),
            "subsolution": dl + lap + grad_sq - r - n / (2 * t),
            "heat_form": -(4 * ell + 4 * t * dl + 2 * n - 4 * t * lap),
            "entropy_form": t * (2 * lap + grad_sq - r) - ell - n,
            "supersolution_max": d_u[j] + lap_op(u) - r * u,
        }
        for key, v in fields.items():
            worst[key] = max(worst[key], float(np.max(v[keep])))
    return ReducedCheckReport(**worst, excluded_fraction=excluded)


def theta_plus(fld: ReducedField, h: FlowHistory) -> ThetaSeries:
    """Forward reduced volume series with monotonicity and bound verdicts.

    The torus integral uses the field's uniform target subgrid; the
    radial variant averages exp(ell) over the radial samples against the
    total volume (the profiles of interest are spatially constant in the
    extrapolated limit).  The pointwise supersolution residual of the
    kernel is checked by check_reduced_field.
    """
    n = h.dim
    times = fld.times
    theta = np.empty(len(times))
    lower = np.empty(len(times))
    for i, t in enumerate(times):
        norm = (4.0 * math.pi * t) ** (n / 2.0)
        u_hat = np.exp(fld.ell[i]) / norm
        m = h.metric_at(t)
        if fld.kind == "torus":
            _, ms = _subgrid(fld, m)
            theta[i] = integrate(ms, u_hat.reshape(ms.grid_size))
        else:
            theta[i] = integrate(m, np.mean(u_hat))
        lower[i] = scaled_volume(h, float(t)) / (4.0 * math.pi * math.e) ** (n / 2.0)
    diffs = np.diff(theta)
    return ThetaSeries(
        times=times, theta=theta, lower_bound=lower,
        monotone_ok=bool(np.all(diffs <= 1e-5 * np.maximum(1.0, np.abs(theta[:-1])))),
        bound_ok=bool(np.all(theta >= lower - 1e-12)),
        max_violation=float(np.max(diffs)) if len(diffs) else 0.0,
    )


# ---------------------------------------------------------------------------
# Hessian bound under nonnegative curvature operator

@dataclass
class HessianReport:
    status: str  # "ok" or "precondition_not_met"
    min_margin: float = math.nan


def hessian_check_cor21(h: FlowHistory, t: float, targets) -> HessianReport:
    """Second-derivative bound on the action under nonnegative curvature.

    Verifies Hess L(Y, Y) <= |Y|^2/sqrt(t) + 2 sqrt(t) Ric(Y, Y) by
    finite differences in the endpoint, for unit radial and tangential
    test vectors on model spaces and for the coordinate directions on a
    flat torus grid.  A slice failing the curvature-operator
    precondition is refused with a structured report.
    """
    from .geometry import curvature_operator_nonneg

    if h.kind not in ("model_space", "conformal_torus"):
        raise ValueError("hessian check supports model-space and torus histories")
    m = h.metric_at(t)
    if not curvature_operator_nonneg(m):
        return HessianReport(status="precondition_not_met")
    if h.kind == "model_space":
        radii = np.asarray(targets, dtype=float)
        fld = _radial_field(h, radii, [t], eps=0.0, n_steps=192)
        l_vals = 2.0 * math.sqrt(t) * fld.ell[0]
        first, second = _radial_derivatives(fld, l_vals)
        a_t = float(h.params_at(t)[0])
        rho = h.template.rho0 / a_t
        bound = 1.0 / math.sqrt(t) + 2.0 * math.sqrt(t) * rho
        sel = slice(1, -1)
        hess_rad = second[sel] / a_t
        ct = _radial_ct(h.template.sectional_sign, radii[sel])
        hess_tan = first[sel] * ct / a_t
        min_margin = min(float(np.min(bound - hess_rad)),
                         float(np.min(bound - hess_tan)))
        return HessianReport("ok", min_margin)
    fld = targets  # the torus: a precomputed subgrid field at [t]
    if not isinstance(fld, ReducedField) or fld.grid is None:
        raise ValueError("torus variant expects a subgrid ReducedField")
    hit = np.flatnonzero(np.abs(fld.times - t) <= 1e-12 * abs(t))
    if not len(hit):
        raise ValueError(f"t = {t!r} is not one of the field times {fld.times.tolist()}")
    i = int(hit[0])
    sub, ms = _subgrid(fld, m)
    l_vals = (2.0 * math.sqrt(t) * fld.ell[i]).reshape(ms.grid_size)
    h_xx, _, h_yy = hessian_covariant(ms, l_vals)
    e2p = np.exp(2.0 * ms.phi)
    bound = 1.0 / math.sqrt(t) + 2.0 * math.sqrt(t) * 0.5 * curvature(m).scalar[sub]
    mx = bound - h_xx / e2p
    my = bound - h_yy / e2p
    if fld.smooth_mask is not None:
        keep = fld.smooth_mask[i].reshape(ms.grid_size)
        mx, my = mx[keep], my[keep]
    return HessianReport("ok", min(float(np.min(mx)), float(np.min(my))))
