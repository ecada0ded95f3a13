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
  over targets and the nine nearest lattice translates of each, with one
  secant (good Broyden) iteration on the momentum.

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

from .flow import LEVEL_BATCH_BYTES, FlowHistory, scaled_volume
from .geometry import _conformal_scalar, _dx, _dy, _hessian_conformal, _lap0, curvature, volume
from .numerics import time_derivative

__all__ = [
    "PathSample",
    "GeodesicSolution",
    "ReducedField",
    "ThetaSeries",
    "geodesic_shoot",
    "ell_plus_field",
    "EPS_LADDER",
    "extrapolate_fields",
    "subgrid_targets",
    "check_reduced_field",
    "theta_plus",
    "hessian_check_cor21",
]


# ---------------------------------------------------------------------------
# data types

@dataclass(frozen=True)
class PathSample:
    """A discrete space-time path from the base point.

    positions are radial coordinates (unit-metric arc length) for
    homothety models and 2-d coordinates in the covering plane for the
    torus; eta_grid starts at the start regularization eps (zero for
    smooth starts).
    """

    eta_grid: np.ndarray
    positions: np.ndarray
    start_regularization: float = 0.0

    def __post_init__(self) -> None:
        eta = np.asarray(self.eta_grid, dtype=float)
        if eta.ndim != 1 or len(eta) < 2 or not np.all(np.diff(eta) > 0):
            raise ValueError("eta_grid must be strictly increasing")
        if abs(eta[0] - self.start_regularization) > 1e-14 * (1 + eta[-1]):
            raise ValueError("eta_grid must start at the regularization")
        if not np.all(np.isfinite(np.asarray(self.positions, dtype=float))):
            raise ValueError("positions must be finite")


@dataclass
class GeodesicSolution:
    """A shot geodesic with its action, Harnack data, and residual."""

    path: PathSample
    velocity: np.ndarray          # X at the eta nodes (first node excluded at eps=0)
    momentum: object              # lim sqrt(eta) X
    l_plus: float                 # action including the analytic head
    l_plus_tail: float            # integral over [eps, t] only
    head: float
    boundary_term: float          # eps^(3/2) (R + |X|^2) at the start
    k_value: float
    h_samples: np.ndarray
    identity_residual: float


@dataclass
class ReducedField:
    """Normalized reduced-length values over targets at several times.

    ell includes the analytic head; ell_tail is the bare path integral.
    k_effective stores K plus the start boundary term, the combination
    entering the gradient/time identities.  The torus variant records
    a smoothness mask (cut-locus detector) and, with the oracle on, the
    path-minimization values; grid_shape is set when targets form a full
    uniform subgrid so the field can be integrated.
    """

    kind: str                     # "radial" or "torus"
    times: np.ndarray
    targets: np.ndarray
    ell: np.ndarray               # (n_times, n_targets)
    ell_tail: np.ndarray
    k_effective: np.ndarray
    eps: float
    momenta: np.ndarray | None = None
    smooth_mask: np.ndarray | None = None
    oracle_values: np.ndarray | None = None
    oracle_flags: np.ndarray | None = None
    grid_shape: tuple | None = None

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


def _simpson(vals: np.ndarray, ds: float) -> np.ndarray:
    """Composite Simpson along axis 0; a 2-d batch sums in node order."""
    n = len(vals) - 1
    if n % 2 != 0:
        raise ValueError("simpson needs an even interval count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    terms = vals * w.reshape((-1,) + (1,) * (vals.ndim - 1))
    return (_node_order_sum(terms) if vals.ndim > 1 else np.sum(terms)) * ds / 3.0


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

    def __init__(self, h: FlowHistory, eps: float, t: float, n_steps: int = 192):
        if h.kind != "model_space":
            raise ValueError("radial engine needs a model-space history")
        self.n, self.rho0 = n, rho0 = h.dim, h.template.rho0
        self.eps, self.t = float(eps), float(t)
        n_steps += n_steps % 2  # Simpson needs an even count
        s_lo, s_hi = (math.sqrt(eps) if eps > 0 else 0.0), math.sqrt(t)
        self.s_nodes = s = np.linspace(s_lo, s_hi, n_steps + 1)
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
        ell_tail=ell0, k_effective=k0, eps=0.0, grid_shape=base.grid_shape,
        smooth_mask=base.smooth_mask,
    )


# ---------------------------------------------------------------------------
# torus machinery

# slice store rows: shooting reads all three, the oracle builds the leading
# two; every caller gathers r and e2p with the gradients of their interpolants
_FIELDS = ("r", "e2p", "rdot")


class _TorusSlices:
    """Field slices of a torus history along a fixed s-grid, in one store with
    the leading `n_fields` rows of `_FIELDS`."""

    def __init__(self, h: FlowHistory, t: float, n_steps: int, n_fields: int = len(_FIELDS)):
        self.t = float(t)
        self.n_steps = n_steps = n_steps + n_steps % 2  # Simpson needs an even count
        self.s_nodes = np.linspace(0.0, math.sqrt(t), n_steps + 1)
        self.ds = self.s_nodes[1] - self.s_nodes[0]
        # RK4 needs half-step stages: slices on the refined ladder
        self.s_all = np.linspace(0.0, math.sqrt(t), 2 * n_steps + 1)
        self.nx, self.ny = h.template.phi.shape
        self.hx, self.hy = h.template.spacing
        self.lx, self.ly = h.template.periods
        # tap index tables of -1 .. n + 2, wrapped, for every gather of the store
        self.wrap_x, self.wrap_y = (np.arange(-1, n + 3) % n for n in (self.nx, self.ny))
        # (n_fields, n_slices, nx, ny), built in batches of slices whose
        # fields stay under the byte cap
        self.store = np.empty((n_fields, len(self.s_all), self.nx, self.ny))
        block = max(1, LEVEL_BATCH_BYTES // (n_fields * h.template.phi.nbytes))
        hx, hy = self.hx, self.hy
        for lo in range(0, len(self.s_all), block):
            etas = [min(max(float(s**2), h.t_min), h.t_max) for s in self.s_all[lo:lo + block]]
            phi = h.params_at_times(etas).reshape(len(etas), self.nx, self.ny)
            out = self.store[:, lo:lo + len(etas)]
            out[0] = r = _conformal_scalar(phi, hx, hy)
            out[1] = e2p = np.exp(2.0 * phi)
            if n_fields > 2:  # curvature evolution dR/dt = lap R + R^2 in two dimensions
                out[2] = _lap0(r, hx, hy) / e2p + r * r

    def sample(self, idx, fields: slice, pts: np.ndarray, grad: bool = False) -> np.ndarray:
        """Smooth periodic samples (n_fields, m) of the store rows `fields` at
        points (m, 2), from slice idx: one int, or one index per point.  With
        `grad`, (3, n_fields, m): the samples, then their x and y derivatives,
        which are those of the same interpolant from the same taps.

        Points run in blocks whose taps (16 of 8 bytes per field and point)
        stay under the byte cap; every field of a block takes one gather.
        """
        grids = self.store[fields].reshape(-1, self.store[0].size)  # a view: rows are contiguous
        out = np.empty((3 if grad else 1, len(grids), len(pts)))
        offset = idx * (self.nx * self.ny)  # of the slice in a flattened row
        per_point = isinstance(offset, np.ndarray)
        block = max(1, LEVEL_BATCH_BYTES // (128 * len(grids)))
        for lo in range(0, len(pts), block):
            blk = slice(lo, lo + block)
            ix, wx = _spline_taps((pts[blk, 0] / self.hx) % self.nx, self.wrap_x, grad)
            jy, wy = _spline_taps((pts[blk, 1] / self.hy) % self.ny, self.wrap_y, grad)
            rows = ix * self.ny + (offset[blk] if per_point else offset)
            taps = np.take(grids, rows[:, None, :] + jy[None, :, :], axis=1)
            np.einsum("am,bm,fabm->fm", wx[0], wy[0], taps, out=out[0, :, blk])
            if grad:
                np.einsum("am,bm,fabm->fm", wx[1] / self.hx, wy[0], taps, out=out[1, :, blk])
                np.einsum("am,bm,fabm->fm", wx[0], wy[1] / self.hy, taps, out=out[2, :, blk])
        return out if grad else out[0]


# Catmull-Rom weights of the taps -1 .. 2 as cubics in u: rows hold the
# coefficients of u^3, u^2, u and 1.  Terms are summed from the highest
# power down; flat-torus reduced values depend on the weights' round-off
_CATMULL_ROM = np.array([[-0.5, 1.5, -1.5, 0.5], [1.0, -2.5, 2.0, -0.5],
                         [-0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0]])[:, :, None]
_TAP_OFFSETS = np.arange(4)[:, None]


def _spline_taps(frac: np.ndarray, wrap: np.ndarray, slopes: bool = False):
    """Catmull-Rom tap indices (4, m) and weights (1, 4, m) on a periodic axis
    of n points; with `slopes`, weights (2, 4, m) whose second row
    differentiates in `frac`.

    C1 interpolation keeps shot geodesics smooth functions of the
    target, which the stencil checks on reduced fields rely on
    (piecewise-bilinear sampling leaves derivative kinks that a divided
    second difference amplifies).  Float `%` can round `frac` up to n, so
    taps wrap through `wrap`, the table of -1 .. n + 2 modulo n;
    non-finite points clip.
    """
    base = np.floor(frac).astype(int)
    u = frac - base
    u2 = u**2
    c = _CATMULL_ROM
    w = np.empty((2 if slopes else 1, 4, len(u)))
    np.multiply(c[0], u**3, out=w[0])
    w[0] += c[1] * u2
    w[0] += c[2] * u
    w[0] += c[3]
    if slopes:
        np.multiply(3.0 * c[0], u2, out=w[1])
        w[1] += 2.0 * c[1] * u
        w[1] += c[2]
    return np.take(wrap, base + _TAP_OFFSETS, mode="clip"), w


def _torus_rhs(s: float, v: np.ndarray, fields):
    """Reduced-velocity system dv/ds on the torus from a derivative gather of
    store rows r and e2p, the interpolants the action samples."""
    (r, e2p), (rx, ex), (ry, ey) = fields[:, :2]
    px, py = ex / (2 * e2p), ey / (2 * e2p)
    vx, vy = v[:, 0], v[:, 1]
    gamma_x = px * vx * vx + 2 * py * vx * vy - px * vy * vy
    gamma_y = -py * vx * vx + 2 * px * vx * vy + py * vy * vy
    acc = np.empty_like(v)
    acc[:, 0] = -gamma_x + 2 * s * s * rx / e2p + 2 * s * r * vx
    acc[:, 1] = -gamma_y + 2 * s * s * ry / e2p + 2 * s * r * vy
    return acc


def _torus_integrate(slices: _TorusSlices, momenta: np.ndarray, want_traces: bool = False):
    """RK4 integration of the reduced system for a batch of momenta from the origin.

    Returns endpoints, the action tail, the Harnack integral, endpoint
    speed data and, optionally, full traces.  One derivative gather per
    node serves the node integrands and the next step's first stage.
    """
    x = np.zeros_like(momenta)
    v = 2.0 * momenta.copy()
    ds = slices.ds
    act = np.empty((slices.n_steps + 1, len(momenta)))
    kin = np.empty_like(act)
    traces_x = [x.copy()] if want_traces else None
    traces_v = [v.copy()] if want_traces else None

    def node_integrands(s, v, fields):
        (r, e2p, rdot), (rx, _, _), (ry, _, _) = fields
        speed_sq = e2p * np.sum(v * v, axis=1)
        action = 2 * s * s * r + 0.5 * speed_sq
        hk = (
            2 * s**4 * rdot
            + 2 * s**3 * (rx * v[:, 0] + ry * v[:, 1])
            + 0.5 * s * s * r * speed_sq
            + 2 * s * s * r
        )
        return action, hk

    stage, nodes = slice(2), slice(3)  # store rows of an RK4 stage and of a node
    node = slices.sample(0, nodes, x, grad=True)
    act[0], kin[0] = node_integrands(0.0, v, node)
    for k in range(slices.n_steps):
        s = slices.s_nodes[k]
        i1, i2 = 2 * k + 1, 2 * k + 2
        k1x, k1v = v, _torus_rhs(s, v, node)
        x2, v2 = x + 0.5 * ds * k1x, v + 0.5 * ds * k1v
        k2x, k2v = v2, _torus_rhs(s + 0.5 * ds, v2, slices.sample(i1, stage, x2, grad=True))
        x3, v3 = x + 0.5 * ds * k2x, v + 0.5 * ds * k2v
        k3x, k3v = v3, _torus_rhs(s + 0.5 * ds, v3, slices.sample(i1, stage, x3, grad=True))
        x4, v4 = x + ds * k3x, v + ds * k3v
        k4x, k4v = v4, _torus_rhs(s + ds, v4, slices.sample(i2, stage, x4, grad=True))
        x = x + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + ds / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        node = slices.sample(i2, nodes, x, grad=True)
        act[k + 1], kin[k + 1] = node_integrands(s + ds, v, node)
        if want_traces:
            traces_x.append(x.copy())
            traces_v.append(v.copy())
    r_end, e2p_end = node[0, :2]
    x_speed_sq = e2p_end * np.sum(v * v, axis=1) / (4.0 * slices.t)
    out = {
        "end": x, "v_end": v,
        "l_tail": _simpson(act, ds), "k": _simpson(kin, ds),
        "r_end": r_end, "x_speed_sq": x_speed_sq,
    }
    if want_traces:
        out["trace_x"] = np.asarray(traces_x)
        out["trace_v"] = np.asarray(traces_v)
        out["kin_nodes"] = kin
    return out


def _lattice_images(slices: _TorusSlices, targets: np.ndarray):
    """The nine nearest lattice translates (m, 9, 2) of each target and their
    flat distances (m, 9) from the origin."""
    shifts = np.array([(i * slices.lx, j * slices.ly) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    images = targets[:, None, :] + shifts[None, :, :]
    return images, np.linalg.norm(images, axis=2)


def _torus_shoot_targets(h: FlowHistory, targets: np.ndarray, t: float, n_steps: int):
    """Best action over the nearby lattice translates of each target.

    Translates that cannot win are dropped up front: the conformal
    factor bounds the kinetic cost of any path between multiples of the
    flat one, so an image farther than the distortion factor times the
    nearest image distance (plus a safety margin) is excluded.  One
    secant iteration (good Broyden) finds each momentum: a row starts at
    the flat guess with the inverse Jacobian I/(2 sqrt t) of the flat
    endpoint map p -> 2 sqrt(t) p, and settled rows leave the batch.
    A row still live after 50 sweeps keeps its last miss, which the
    caller treats as a missed shot.
    """
    slices = _TorusSlices(h, t, n_steps)
    m_t = len(targets)
    all_images, dists = _lattice_images(slices, targets)
    phis = h.params_at_times([min(max(e, h.t_min), h.t_max) for e in (0.0, 0.25 * t, t)])
    spread = max(float(np.max(ph) - np.min(ph)) for ph in phis)
    cutoff = np.exp(spread) * dists.min(axis=1) + 0.12 * min(slices.lx, slices.ly)
    keep = dists <= cutoff[:, None]
    rows, shift_idx = np.nonzero(keep)
    images = all_images[rows, shift_idx]                     # (q, 2)
    q = len(images)
    two_rt = 2.0 * math.sqrt(t)
    p_flat = images / two_rt
    p = p_flat.copy()
    h_flat = np.eye(2) / two_rt
    h_inv = np.tile(h_flat, (q, 1, 1))  # inverse Jacobian of each row's endpoint map
    f_old = np.full((q, 2), np.nan)  # the row's last residual, paired with its last step
    step = np.zeros((q, 2))
    l_tail, k_val, miss = np.empty((3, q))
    mom = np.empty((q, 2))  # the momentum of the row's last sweep

    with np.errstate(over="ignore", invalid="ignore"):
        # one secant iteration with live masking: every sweep records the
        # integrals of the momenta it integrated, so a settled row keeps
        # those of its settling sweep
        live = np.arange(q)
        stuck = np.zeros(q, dtype=bool)  # the row's last endpoint was not finite
        for _ in range(50):
            if len(live) == 0:
                break
            res = _torus_integrate(slices, p[live])
            f = res["end"] - images[live]
            mom[live] = p[live]
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
            p[restart], h_inv[restart] = p_flat[restart], h_flat
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
    return {
        "l_tail": l_tail[win],
        "k": k_val[win],
        "momenta": mom[win],
        "translate": shift_idx[win],
        "images": images[win],
        "miss": miss[win],
    }


# ---------------------------------------------------------------------------
# public operations

def geodesic_shoot(h: FlowHistory, momentum, t_end: float,
                   eps: float = 0.0, n_steps: int = 192) -> GeodesicSolution:
    """Integrate the reduced geodesic system from the origin with a momentum datum."""
    n = h.dim
    if h.kind == "model_space":
        eng = _RadialEngine(h, eps, t_end, n_steps)
        v0 = 2.0 * float(momentum)
        l_tail, k_val, boundary, x_sq_end, head = eng.solve(v0)
        s, a_nodes = eng.s_nodes, eng.a_nodes
        w = eng.a_eps / a_nodes
        sigma = np.concatenate(
            [[0.0], np.cumsum(0.5 * (w[:-1] + w[1:]) * np.diff(s))]
        ) * v0
        r_end = n * eng.rho0 / a_nodes[-1]
        resid = abs(t_end**1.5 * (r_end + x_sq_end) - (boundary + k_val + 0.5 * l_tail))
        with np.errstate(divide="ignore", invalid="ignore"):
            x_vel = np.where(s > 0, v0 * w / (2.0 * s), np.inf)
            h_samples = (
                2.0 * n * eng.rho0**2 / a_nodes**2
                + eng.rho0 * (v0 * w) ** 2 / (2.0 * s**2)
                + n * eng.rho0 / (a_nodes * s**2)
            )
        if s[0] == 0:
            h_samples[0] = math.nan  # the weighted integrand vanishes at the base
        path = PathSample(s**2, sigma, eps)
        return GeodesicSolution(path, x_vel, float(momentum), l_tail + head,
                                l_tail, head, float(boundary), k_val,
                                h_samples, float(resid))
    if h.kind == "conformal_torus":
        slices = _TorusSlices(h, t_end, n_steps)
        mom = np.asarray(momentum, dtype=float).reshape(1, 2)
        res = _torus_integrate(slices, mom, want_traces=True)
        s = slices.s_nodes
        xs = res["trace_x"][:, 0, :]
        vs = res["trace_v"][:, 0, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            x_vel = vs / (2.0 * np.maximum(s, 1e-300))[:, None]
        l_tail = float(res["l_tail"][0])
        k_val = float(res["k"][0])
        resid = abs(
            t_end**1.5 * (float(res["r_end"][0]) + float(res["x_speed_sq"][0]))
            - (k_val + 0.5 * l_tail)
        )
        path = PathSample(s**2, xs, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_samples = res["kin_nodes"][:, 0] / (2.0 * np.maximum(s, 1e-300) ** 4)
        h_samples[0] = math.nan  # the weighted integrand vanishes at the base
        return GeodesicSolution(path, x_vel, np.asarray(momentum, dtype=float),
                                l_tail, l_tail, 0.0, 0.0, k_val,
                                h_samples, float(resid))
    raise ValueError("geodesic shooting supports model-space and torus histories")


class _PathAction:
    """Discretized action of piecewise-linear paths from the origin on the squared
    uniform s-grid of a store of rows r and e2p, and its gradient.

    A batch of paths holds interior nodes z (B, M-1, 2) and endpoints y
    (B, 2).  Straight segments are traversed linearly in s = sqrt(eta): the
    kinetic weight integrates exactly and the square-root start profile is
    represented without discretization loss.  The gradient samples the
    derivatives of the interpolants the value samples, so it is the exact
    derivative of the value.
    """

    def __init__(self, slices: _TorusSlices):
        self.slices = slices
        self.n_segments = m = slices.n_steps
        eta = slices.s_nodes**2
        self.d_eta = np.diff(eta)
        self.seg_w = self.d_eta**2 / (2.0 * np.diff(slices.s_nodes))
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
        # segment kinetic part with the midpoint conformal factor e2p
        mids = 0.5 * (pos[:, :-1, :] + pos[:, 1:, :])
        mid = self.slices.sample(np.repeat(2 * np.arange(m) + 1, bb), slice(1, 2),
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


def _oracle_torus_batch(h, targets, t, n_segments=64):
    """Direct descent over discrete paths on a torus for many targets at once;
    an upper-bound cross-check of shooting.

    Each (target, translate) row descends once, from the straight path
    (nodes are uniform in s, so it is also the square-root start profile),
    in contiguous chunks of at most 2**16 path nodes, with the values of
    one batch and a bounded working set.  Per target only the three closest
    lattice translates by flat distance are explored (the conformal
    factor is bounded, so far images cannot win).  Only an upper bound
    over the restricted path class: a value is never below the shooting
    value beyond quadrature error.  Returns the per-target best value.
    """
    if h.kind != "conformal_torus":
        raise ValueError("the path-minimization oracle supports torus histories")
    action = _PathAction(_TorusSlices(h, t, n_segments, 2))
    m_t = len(targets)
    images, dist = _lattice_images(action.slices, targets)
    order = np.argsort(dist, axis=1)[:, :3]
    rows = np.repeat(np.arange(m_t), 3)
    ys = images[rows, order.ravel()]                            # (m*k, 2)
    prof = np.linspace(0, 1, n_segments + 1)[1:-1]
    z = prof[:, None] * ys[:, None, :]                          # (q, M-1, 2)
    chunk = max(1, LEVEL_BATCH_BYTES // 32 // (n_segments + 1))  # at most 2**16 nodes a chunk
    val = np.concatenate([_descend(action, z[lo:lo + chunk], ys[lo:lo + chunk])
                          for lo in range(0, len(z), chunk)])
    # fold the translate axis back into per-target minima
    best = np.full(m_t, np.inf)
    np.minimum.at(best, rows, val)
    return best


def ell_plus_field(h: FlowHistory, targets, times, eps: float = 0.0,
                   oracle_check: bool = True, oracle_segments: int = 64,
                   grid_shape: tuple | None = None) -> ReducedField:
    """Normalized reduced length over targets at the given times.

    Shooting supplies the values (one-parameter momenta on homothety
    models, two-parameter on the torus, minimized over the nine nearest
    lattice translates); each torus value is cross-checked against the
    direct path-minimization oracle and flagged beyond a relative gap of
    1e-3; a target whose shot misses beyond tolerance falls back to the
    oracle value and is flagged.  The radial quadrature takes 128 steps
    and the torus shooting 96.
    """
    times = np.asarray(times, dtype=float)
    if h.kind == "model_space":
        return _radial_field(h, targets, times, eps, n_steps=128)
    if h.kind != "conformal_torus":
        raise ValueError("reduced fields support model-space and torus histories")
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    m_t = len(targets)
    ell = np.empty((len(times), m_t))
    k_eff = np.empty_like(ell)
    momenta = np.empty((len(times), m_t, 2))
    images = np.empty((len(times), m_t, 2))
    oracle_vals = np.full((len(times), m_t), np.nan)
    flags = np.zeros((len(times), m_t), dtype=bool)
    for i, t in enumerate(times):
        shot = _torus_shoot_targets(h, targets, float(t), 96)
        two_rt = 2.0 * math.sqrt(t)
        ell[i] = shot["l_tail"] / two_rt
        k_eff[i] = shot["k"]
        momenta[i] = shot["momenta"]
        images[i] = shot["images"]
        missed = shot["miss"] > 1e-6
        if oracle_check or np.any(missed):
            o_vals = _oracle_torus_batch(h, targets, float(t), oracle_segments) / two_rt
            oracle_vals[i] = o_vals
            rel = np.abs(ell[i] - o_vals) / np.maximum(1.0, np.abs(o_vals))
            flags[i] = rel > 1e-3
            ell[i] = np.where(missed, o_vals, ell[i])
            flags[i] |= missed
    if grid_shape:
        mask = _torus_smooth_mask(images, grid_shape, h.template.periods)
        mask = np.tile(np.all(mask, axis=0), (len(times), 1))
    else:
        mask = None
    return ReducedField(
        kind="torus", times=times, targets=targets, ell=ell, ell_tail=ell.copy(),
        k_effective=k_eff, eps=0.0, momenta=momenta,
        smooth_mask=mask, oracle_values=oracle_vals, oracle_flags=flags,
        grid_shape=grid_shape,
    )


def subgrid_targets(nt: int, periods) -> np.ndarray:
    """The nt x nt torus targets (i/nt, j/nt) * periods, i major: the
    layout of a field with grid_shape (nt, nt)."""
    pts = np.array([(i / nt, j / nt) for i in range(nt) for j in range(nt)])
    return pts * np.asarray(periods)


def _torus_smooth_mask(images: np.ndarray, grid_shape: tuple, periods) -> np.ndarray:
    """Mark subgrid targets whose minimizing branch continues smoothly.

    images holds the unwrapped covering-plane endpoint of the winning
    geodesic per (time, target).  Along one smooth branch the image
    moves exactly with the target, including across the representative
    seam, so a neighbor-difference far from the subgrid spacing marks a
    cut-locus branch switch; the flagged pairs are dilated by one cell
    to keep difference stencils clear of the kink.
    """
    n_times = images.shape[0]
    ntx, nty = grid_shape
    lx, ly = periods
    steps = {0: np.array([lx / ntx, 0.0]), 1: np.array([0.0, ly / nty])}
    mask = np.ones((n_times, ntx * nty), dtype=bool)
    for i in range(n_times):
        img = images[i].reshape(ntx, nty, 2)
        bad = np.zeros((ntx, nty), dtype=bool)
        for ax in (0, 1):
            jump = np.roll(img, -1, axis=ax) - img - steps[ax]
            switch = np.max(np.abs(jump), axis=2) > 0.25 * min(lx, ly)
            bad |= switch
            bad |= np.roll(switch, 1, axis=ax)
        grown = bad.copy()
        for ax, sh in ((0, 1), (0, -1), (1, 1), (1, -1)):
            grown |= np.roll(bad, sh, axis=ax)
        mask[i] = (~grown).ravel()
    return mask


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
    """Index of the field's target subgrid in the metric grid, and its spacing."""
    if fld.grid_shape is None:
        raise ValueError("torus checks need a subgrid ReducedField")
    (ntx, nty), (nx, ny) = fld.grid_shape, m.phi.shape
    lx, ly = m.periods
    return np.s_[::nx // ntx, ::ny // nty], (lx / ntx, ly / nty)


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
    sub, (hsx, hsy) = _subgrid(fld, m)
    em2p = np.exp(-2 * m.phi[sub])

    def grad_sq(f):
        f = f.reshape(fld.grid_shape)
        fx, fy = _dx(f, hsx), _dy(f, hsy)
        return (em2p * (fx * fx + fy * fy)).ravel()

    def lap(f):
        return (em2p * _lap0(f.reshape(fld.grid_shape), hsx, hsy)).ravel()

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
            sub, (hsx, hsy) = _subgrid(fld, m)
            theta[i] = float(np.sum(u_hat * np.exp(2 * m.phi[sub]).ravel())) * hsx * hsy
        else:
            theta[i] = float(np.mean(u_hat)) * volume(m)
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
    margins: dict | None = None
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
        margins = {
            "radial": (bound - hess_rad).tolist(),
            "tangential": (bound - hess_tan).tolist(),
        }
        min_margin = min(float(np.min(bound - hess_rad)),
                         float(np.min(bound - hess_tan)))
        return HessianReport("ok", margins, min_margin)
    fld = targets  # the torus: a precomputed subgrid field at [t]
    if not isinstance(fld, ReducedField) or fld.grid_shape is None:
        raise ValueError("torus variant expects a subgrid ReducedField")
    hit = np.flatnonzero(np.abs(fld.times - t) <= 1e-12 * abs(t))
    if not len(hit):
        raise ValueError(f"t = {t!r} is not one of the field times {fld.times.tolist()}")
    i = int(hit[0])
    l_vals = (2.0 * math.sqrt(t) * fld.ell[i]).reshape(fld.grid_shape)
    sub, (hsx, hsy) = _subgrid(fld, m)
    phi_sub, r_sub = m.phi[sub], curvature(m).scalar[sub]
    h_xx, _, h_yy = _hessian_conformal(l_vals, phi_sub, hsx, hsy)
    e2p = np.exp(2.0 * phi_sub)
    bound = 1.0 / math.sqrt(t) + 2.0 * math.sqrt(t) * 0.5 * r_sub
    mx = bound - h_xx / e2p
    my = bound - h_yy / e2p
    if fld.smooth_mask is not None:
        keep = fld.smooth_mask[i].reshape(fld.grid_shape)
        mx, my = mx[keep], my[keep]
    min_margin = min(float(np.min(mx)), float(np.min(my)))
    return HessianReport("ok", {"xx_min": float(np.min(mx)), "yy_min": float(np.min(my))},
                         min_margin)
