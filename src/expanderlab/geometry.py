"""Testbed metric models and their curvature.

Three symmetry-reduced families cover the lab's runs:

* HomogeneousMetric -- a diagonal left-invariant metric on a 3-D
  unimodular Lie group written in a Milnor frame (a frame of
  left-invariant fields diagonalizing both the metric and the bracket).
  A compact quotient enters only through a total-volume scalar; every
  quantity we evolve depends on the three metric eigenvalues and that
  volume alone.
* ConformalTorusMetric -- g = exp(2 phi) * flat on a periodic uniform
  grid, the 2-D conformal reduction.  Spatial operators are centered
  second-order periodic stencils.
* ModelSpaceMetric -- a constant-curvature space of any dimension with
  abstract volume bookkeeping (metric = scale * unit model metric).

Fields on the torus are (nx, ny) float arrays indexed [i, j] with
x_i = i*lx/nx, y_j = j*ly/ny; fields on the other models are plain
floats (spatially constant).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HomogeneousMetric",
    "ConformalTorusMetric",
    "ModelSpaceMetric",
    "CurvatureData",
    "MetricModel",
    "curvature",
    "curvature_homogeneous",
    "curvature_conformal",
    "curvature_model_space",
    "volume",
    "laplacian",
    "curvature_operator_nonneg",
    "integrate",
    "grad_norm_sq",
    "grad_pairing",
    "hessian_covariant",
    "laplacian_symbol",
    "spectral_preconditioner",
    "soliton_residual_sq",
    "model_from_json",
]


@dataclass(frozen=True)
class HomogeneousMetric:
    """Diagonal left-invariant 3-D metric in a Milnor frame.

    structure_constants (c1, c2, c3) are the bracket coefficients
    [e2,e3] = c1 e1, [e3,e1] = c2 e2, [e1,e2] = c3 e3; diag = (A, B, C)
    are the metric eigenvalues on the frame; frame_volume is the volume
    of the compact quotient at A = B = C = 1, so the volume of the
    metric is sqrt(A*B*C) * frame_volume.
    """

    structure_constants: tuple
    diag: tuple
    frame_volume: float = 1.0

    def __post_init__(self) -> None:
        if len(self.structure_constants) != 3 or len(self.diag) != 3:
            raise ValueError("structure_constants and diag must have length 3")
        if not all(d > 0 for d in self.diag):
            raise ValueError("metric eigenvalues must be positive")
        if not self.frame_volume > 0:
            raise ValueError("frame_volume must be positive")

    @property
    def dim(self) -> int:
        return 3


@dataclass(frozen=True)
class ConformalTorusMetric:
    """g = exp(2 phi) * flat on a periodic (nx, ny) grid with periods (lx, ly)."""

    phi: np.ndarray
    periods: tuple = (1.0, 1.0)

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 2 or phi.shape[0] < 8 or phi.shape[1] < 8:
            raise ValueError("phi must be 2-d with at least 8 points per direction")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite everywhere")
        if not (self.periods[0] > 0 and self.periods[1] > 0):
            raise ValueError("periods must be positive")
        phi = phi.copy()
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def grid_size(self) -> tuple:
        return self.phi.shape

    @property
    def spacing(self) -> tuple:
        return (self.periods[0] / self.phi.shape[0], self.periods[1] / self.phi.shape[1])

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class ModelSpaceMetric:
    """Constant-curvature model: metric = scale * (unit model metric).

    The unit model has Ricci = rho0 * (unit metric) with
    rho0 = sectional_sign * (dim - 1); volume = scale**(dim/2) * base_volume.
    """

    dim: int
    sectional_sign: int
    scale: float
    base_volume: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.sectional_sign not in (-1, 0, 1):
            raise ValueError("sectional_sign must be -1, 0 or +1")
        if not (self.scale > 0 and self.base_volume > 0):
            raise ValueError("scale and base_volume must be positive")

    @property
    def rho0(self) -> float:
        return float(self.sectional_sign * (self.dim - 1))

    def scale_root(self, t0: float) -> float:
        """The time t0 + scale/(2 rho0) where the flow's scale factor
        a(t) = scale - 2 rho0 (t - t0) vanishes: the extinction time if
        rho0 > 0, the birth time of the expander if rho0 < 0."""
        return t0 + self.scale / (2.0 * self.rho0)


MetricModel = HomogeneousMetric | ConformalTorusMetric | ModelSpaceMetric


@dataclass(frozen=True)
class CurvatureData:
    """Ricci tensor in the reduced representation plus scalar invariants.

    ricci holds the diagonal frame components (length-3 array) for a
    homogeneous metric, the scalar coefficient rho0/scale (Ricci =
    coeff * metric) for a model space, and the scalar-curvature field
    for the torus (where Ricci = R/2 * metric identically in 2-D).
    scalar is a field on the torus, a float otherwise.
    """

    ricci: np.ndarray | float
    scalar: np.ndarray | float


# ---------------------------------------------------------------------------
# periodic stencils (torus)

def _shift(f: np.ndarray, k: int, axis: int) -> np.ndarray:
    """np.roll(f, k, axis - 2) for k = +-1 on (..., nx, ny) grids, without roll's per-call cost."""
    if axis == 0:
        return np.concatenate((f[..., -k:, :], f[..., :-k, :]), axis=-2)
    return np.concatenate((f[..., -k:], f[..., :-k]), axis=-1)


def _dx(f: np.ndarray, h: float) -> np.ndarray:
    return (_shift(f, -1, 0) - _shift(f, 1, 0)) / (2.0 * h)


def _dy(f: np.ndarray, h: float) -> np.ndarray:
    return (_shift(f, -1, 1) - _shift(f, 1, 1)) / (2.0 * h)


def _d2(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    out = _shift(f, -1, axis)  # (f+ + f- - 2 f) / h^2, accumulated in place
    out += _shift(f, 1, axis)
    out -= 2.0 * f
    out /= h * h
    return out


def _dxy(f: np.ndarray, hx: float, hy: float) -> np.ndarray:
    fp, fm = _shift(f, -1, 0), _shift(f, 1, 0)
    return (
        _shift(fp, -1, 1) - _shift(fp, 1, 1)
        - _shift(fm, -1, 1) + _shift(fm, 1, 1)
    ) / (4.0 * hx * hy)


def _lap0(f: np.ndarray, hx: float, hy: float) -> np.ndarray:
    out = _d2(f, hx, 0)
    out += _d2(f, hy, 1)
    return out


def laplacian_symbol(shape, spacing) -> np.ndarray:
    """Eigenvalues of _lap0 on the discrete Fourier modes, laid out like fft2."""
    (nx, ny), (hx, hy) = shape, spacing
    kx = 2.0 * np.cos(2 * math.pi * np.arange(nx) / nx) - 2.0
    ky = 2.0 * np.cos(2 * math.pi * np.arange(ny) / ny) - 2.0
    return kx[:, None] / hx**2 + ky[None, :] / hy**2


def spectral_preconditioner(denom: np.ndarray):
    """r -> Re ifft2(fft2(r) / denom) for a real symbol denom laid out like fft2,
    by an in-place multiply with the complex reciprocal, built once: complex
    division by a real number is that multiply, so the bits are the divide's."""
    inv = (1.0 / denom).astype(complex)

    def apply(r):
        spec = np.fft.fft2(r)
        spec *= inv
        return np.fft.ifft2(spec, out=spec).real

    return apply


def flat_gradient(m: ConformalTorusMetric, f: np.ndarray):
    """Coordinate gradient (f_x, f_y) by centered periodic differences."""
    hx, hy = m.spacing
    return _dx(f, hx), _dy(f, hy)


# ---------------------------------------------------------------------------
# curvature

def milnor_ricci_diag(structure_constants, diag) -> tuple:
    """Frame Ricci components of a diagonal left-invariant 3-D metric, a float triple,
    from the structure constants and diag as Python floats (the homogeneous
    flow floats its constants once, not on each right-hand side).

    Standard closed form Rc_ii = ((c_i X_i)^2 - (c_j X_j - c_k X_k)^2)
    / (2 X_j X_k) with (i, j, k) cyclic and X = diag; the from-scratch
    bracket/connection oracle in the test suite certifies the
    transcription.  Operates on raw values (no positivity validation) so
    flow integrators may probe trial states freely.
    """
    c1, c2, c3 = structure_constants
    a, b, c = diag
    return (
        ((c1 * a) ** 2 - (c2 * b - c3 * c) ** 2) / (2.0 * b * c),
        ((c2 * b) ** 2 - (c3 * c - c1 * a) ** 2) / (2.0 * c * a),
        ((c3 * c) ** 2 - (c1 * a - c2 * b) ** 2) / (2.0 * a * b),
    )


def curvature_homogeneous(m: HomogeneousMetric) -> CurvatureData:
    """Diagonal Milnor-frame Ricci of a homogeneous metric."""
    diag = tuple(map(float, m.diag))
    rc = milnor_ricci_diag(tuple(map(float, m.structure_constants)), diag)
    # np.sum(rc / diag) in floats: numpy sums 3 elements left to right from 0.0 (-0.0 to 0.0)
    q0, q1, q2 = (r / d for r, d in zip(rc, diag))
    return CurvatureData(ricci=np.array(rc), scalar=0.0 + q0 + q1 + q2)


def _conformal_scalar(phi: np.ndarray, hx: float, hy: float, em2p=None) -> np.ndarray:
    """R = -2 exp(-2 phi) lap0 phi on (..., nx, ny) grids; em2p may pass exp(-2 phi) in."""
    return -2.0 * (np.exp(-2.0 * phi) if em2p is None else em2p) * _lap0(phi, hx, hy)


def curvature_conformal(m: ConformalTorusMetric) -> CurvatureData:
    """Scalar curvature field R = -2 exp(-2 phi) lap0 phi of the conformal torus."""
    r = _conformal_scalar(m.phi, *m.spacing)
    return CurvatureData(ricci=r, scalar=r)


def curvature_model_space(m: ModelSpaceMetric) -> CurvatureData:
    """Ricci = (rho0/scale) * metric on a constant-curvature model."""
    coeff = m.rho0 / m.scale
    return CurvatureData(ricci=coeff, scalar=m.dim * coeff)


def curvature(m: MetricModel) -> CurvatureData:
    if isinstance(m, HomogeneousMetric):
        return curvature_homogeneous(m)
    if isinstance(m, ConformalTorusMetric):
        return curvature_conformal(m)
    if isinstance(m, ModelSpaceMetric):
        return curvature_model_space(m)
    raise TypeError(f"unknown metric model {type(m)!r}")


def volume(m: MetricModel) -> float:
    """Total Riemannian volume of the model."""
    if isinstance(m, HomogeneousMetric):
        a, b, c = m.diag
        return math.sqrt(a * b * c) * m.frame_volume
    if isinstance(m, ConformalTorusMetric):
        hx, hy = m.spacing
        return float(np.sum(np.exp(2.0 * m.phi))) * hx * hy
    if isinstance(m, ModelSpaceMetric):
        return m.scale ** (m.dim / 2.0) * m.base_volume
    raise TypeError(f"unknown metric model {type(m)!r}")


def laplacian(m: MetricModel, f):
    """Laplace-Beltrami operator of the model applied to a field.

    On the conformal torus this is exp(-2 phi) * lap0 f; on the reduced
    models fields are spatially constant so the result is zero.
    """
    if isinstance(m, ConformalTorusMetric):
        f = np.asarray(f, dtype=float)
        if f.shape != m.phi.shape:
            raise ValueError(f"field shape {f.shape} != grid {m.phi.shape}")
        return np.exp(-2.0 * m.phi) * _lap0(f, *m.spacing)
    if np.ndim(f) != 0:
        raise ValueError("fields on reduced models are scalars")
    return 0.0


def curvature_operator_nonneg(m: MetricModel) -> bool:
    """True iff the curvature operator is positive semidefinite pointwise.

    Model spaces: sectional sign >= 0.  Conformal torus: Gauss curvature
    R/2 >= 0 everywhere.  Homogeneous metrics: the operator assembled on
    the frame two-planes is diagonal (the mixed curvature components
    vanish for a diagonal metric with diagonal Ricci in three
    dimensions), with eigenvalues the frame sectional curvatures
    rho_i + rho_j - R/2.
    """
    if isinstance(m, ModelSpaceMetric):
        return m.sectional_sign >= 0
    if isinstance(m, ConformalTorusMetric):
        return bool(np.min(curvature_conformal(m).scalar) >= -1e-12)
    if isinstance(m, HomogeneousMetric):
        data = curvature_homogeneous(m)
        rho = np.asarray(data.ricci) / np.asarray(m.diag)
        r_half = 0.5 * data.scalar
        sec = np.array(
            [rho[0] + rho[1] - r_half, rho[1] + rho[2] - r_half, rho[2] + rho[0] - r_half]
        )
        return bool(np.min(sec) >= -1e-12)
    raise TypeError(f"unknown metric model {type(m)!r}")


# ---------------------------------------------------------------------------
# field calculus against the model's measure

def integrate(m: MetricModel, f) -> float:
    """Integral of a field against the Riemannian volume measure."""
    if isinstance(m, ConformalTorusMetric):
        hx, hy = m.spacing
        return float(np.sum(np.asarray(f) * np.exp(2.0 * m.phi))) * hx * hy
    return float(f) * volume(m)


def measure_weights(m: MetricModel):
    """Per-point volume weights (dv) in the model's field representation."""
    if isinstance(m, ConformalTorusMetric):
        hx, hy = m.spacing
        return np.exp(2.0 * m.phi) * hx * hy
    return np.asarray(volume(m))


def grad_norm_sq(m: MetricModel, f):
    """|grad f|^2 in the model metric (zero on spatially constant fields)."""
    if isinstance(m, ConformalTorusMetric):
        fx, fy = flat_gradient(m, f)
        return np.exp(-2.0 * m.phi) * (fx * fx + fy * fy)
    return 0.0


def grad_pairing(m: MetricModel, f, g):
    """<grad f, grad g> in the model metric."""
    if isinstance(m, ConformalTorusMetric):
        fx, fy = flat_gradient(m, f)
        gx, gy = flat_gradient(m, g)
        return np.exp(-2.0 * m.phi) * (fx * gx + fy * gy)
    return 0.0


def hessian_covariant(m: ConformalTorusMetric, f: np.ndarray):
    """Covariant Hessian components (H_xx, H_xy, H_yy) on the conformal torus.

    The Christoffel symbols reduce to first derivatives of phi and the
    Hessian of f is the coordinate Hessian corrected by phi-gradient
    terms.
    """
    hx, hy = m.spacing
    fx, fy = flat_gradient(m, f)
    px, py = flat_gradient(m, m.phi)
    h_xx = _d2(f, hx, 0) - px * fx + py * fy
    h_xy = _dxy(f, hx, hy) - py * fx - px * fy
    h_yy = _d2(f, hy, 1) + px * fx - py * fy
    return h_xx, h_xy, h_yy


def soliton_residual_sq(m: MetricModel, f_potential, sigma: float | None):
    """Pointwise |Ricci + Hess(f) + g/(2 sigma)|^2 in the model metric.

    f_potential is the log-density potential field; sigma = None drops
    the g/(2 sigma) term (the steady-case residual).  On reduced models
    the potential is spatially constant so the Hessian vanishes.
    """
    half_inv = 0.0 if sigma is None else 0.5 / float(sigma)
    if isinstance(m, HomogeneousMetric):
        data = curvature_homogeneous(m)
        rho = np.asarray(data.ricci) / np.asarray(m.diag)
        return float(np.sum((rho + half_inv) ** 2))
    if isinstance(m, ModelSpaceMetric):
        coeff = m.rho0 / m.scale
        return m.dim * (coeff + half_inv) ** 2
    if isinstance(m, ConformalTorusMetric):
        h_xx, h_xy, h_yy = hessian_covariant(m, np.asarray(f_potential, dtype=float))
        e2p = np.exp(2.0 * m.phi)
        r = curvature_conformal(m).scalar
        t_xx = 0.5 * r * e2p + h_xx + half_inv * e2p
        t_xy = h_xy
        t_yy = 0.5 * r * e2p + h_yy + half_inv * e2p
        return np.exp(-4.0 * m.phi) * (t_xx**2 + 2.0 * t_xy**2 + t_yy**2)
    raise TypeError(f"unknown metric model {type(m)!r}")


# ---------------------------------------------------------------------------
# JSON model specs of scenario configs

def _is_number(x) -> bool:
    """A finite int or float that fits a float; exact comparison, so a huge int cannot raise."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _finite(value) -> bool:
    """A number as _is_number, or a list of such values at any depth."""
    return all(map(_finite, value)) if isinstance(value, list) else _is_number(value)


def model_from_json(doc: dict) -> MetricModel:
    """Build a model from its JSON spec (outside input): every entry but kind
    holds finite numbers, dim and sectional_sign are integral, periods a pair."""
    if not isinstance(doc, dict):
        raise TypeError("a model spec must be a JSON object")
    kind = doc.get("kind")
    bad = [key for key, value in doc.items() if key != "kind" and not _finite(value)]
    if bad:
        raise ValueError(f"{bad} must hold finite numbers only")
    if not all(float(doc[k]).is_integer() for k in ("dim", "sectional_sign") if k in doc):
        raise ValueError("dim and sectional_sign must be integers")
    if len(doc.get("periods", (1.0, 1.0))) != 2:
        raise ValueError("periods must hold exactly two numbers")
    if kind == "homogeneous":
        return HomogeneousMetric(
            structure_constants=tuple(doc["structure_constants"]),
            diag=tuple(doc["diag"]),
            frame_volume=float(doc.get("frame_volume", 1.0)),
        )
    if kind == "conformal_torus":
        if "phi" in doc:
            phi = np.asarray(doc["phi"], dtype=float)
        else:
            nx, ny = doc["grid_size"]
            lx = float(doc.get("periods", [1.0, 1.0])[0])
            x = (np.arange(nx) * lx / nx)[:, None]
            amp = float(doc.get("phi_sine_amplitude", 0.0))
            phi = amp * np.sin(2.0 * math.pi * x / lx) * np.ones((nx, ny))
        return ConformalTorusMetric(phi=phi, periods=tuple(doc.get("periods", (1.0, 1.0))))
    if kind == "model_space":
        return ModelSpaceMetric(
            dim=int(doc["dim"]),
            sectional_sign=int(doc["sectional_sign"]),
            scale=float(doc["scale"]),
            base_volume=float(doc.get("base_volume", 1.0)),
        )
    raise ValueError(f"unknown model kind {kind!r}")
