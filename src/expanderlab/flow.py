"""Metric evolution on the testbeds and flow-history bookkeeping.

A FlowHistory stores a time-sampled trajectory of one metric model
together with the evolution right-hand side at the sample times, so
dense evaluation is a cubic Hermite interpolant whose slopes come from
the evolution equation itself (minus twice the Ricci tensor) rather
than from differencing snapshots.

Evolution routes per model kind:

* model space      -- the scale factor solves a linear equation exactly,
                      a(t) = a0 - 2 rho0 t; extinction at a = 0 is a
                      structured outcome (positive case).
* homogeneous      -- the three metric eigenvalues follow the reduced
                      system dX_i/dt = -2 Rc_ii(X); integrated with the
                      adaptive embedded pair, halted when an eigenvalue
                      collapses.
* conformal torus  -- method of lines for d(phi)/dt = exp(-2 phi) lap0 phi
                      with implicit trapezoidal stepping capped at
                      dt = h^2/2, Newton inner iteration, and an FFT
                      preconditioned conjugate-gradient linear solver.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .geometry import (
    ConformalTorusMetric,
    HomogeneousMetric,
    MetricModel,
    ModelSpaceMetric,
    _lap0,
    curvature,
    laplacian_symbol,
    milnor_ricci_diag,
    spectral_preconditioner,
    volume,
)
from .numerics import (conjugate_gradient, hermite_cubic, hermite_interval, hermite_rows,
                       integrate_ode)

__all__ = [
    "FlowHistory",
    "evolve",
    "torus_dt_cap",
    "scaled_volume",
    "check_R_lower_bound",
    "blowdown",
]

LEVEL_BATCH_BYTES = 1 << 21  # cap on one batch of stacked torus time levels and their fields
# cap of every scratch array of a torus level or slice batch and of a gather: glibc's
# mmap threshold, below which temporaries are reused from the heap, not mapped anew
SCRATCH_BYTES = 1 << 17


# the history kind of each metric model type
_KINDS = {ModelSpaceMetric: "model_space", HomogeneousMetric: "homogeneous",
          ConformalTorusMetric: "conformal_torus"}


class FlowHistory:
    """Time-sampled flow trajectory with Hermite dense evaluation.

    params holds the reduced representation per sample: the (A, B, C)
    triple, the scale a, or the full phi grid.  param_rhs holds the
    evolution right-hand side at the same samples.  params_at serves one
    time; params_at_times evaluates many in one numpy pass
    (numerics.hermite_rows) whose rows have params_at's bits, its powers
    of the local coordinate taken as Python-float ** because numpy's
    array ** rounds differently.  The torus kernels build their time
    levels from it in byte-capped batches; metrics_at builds the metrics
    of many times from one such pass.
    """

    def __init__(self, template: MetricModel, times, params, param_rhs,
                 birth_time: float = 0.0, extinct_at: float | None = None):
        if type(template) not in _KINDS:
            raise TypeError(f"unknown metric model {type(template)!r}")
        self.template = template
        self.times = np.asarray(times, dtype=float)
        self.params = np.asarray(params, dtype=float)
        self.param_rhs = np.asarray(param_rhs, dtype=float)
        self.birth_time = float(birth_time)
        self.extinct_at = extinct_at
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("history needs at least two samples")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    # -- dense access -------------------------------------------------------

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.template.dim

    @property
    def kind(self) -> str:
        """"model_space", "homogeneous" or "conformal_torus", by the template's type."""
        return _KINDS[type(self.template)]

    def params_at(self, t):
        i, s, h = hermite_interval(self.times, float(t), 1e-10)
        return hermite_cubic(s, h, self.params[i], self.param_rhs[i],
                             self.params[i + 1], self.param_rhs[i + 1])

    def params_at_times(self, ts):
        """params_at at each of the times ts, stacked (len(ts), n_params)."""
        return hermite_rows(self.times, self.params, self.param_rhs, ts, 1e-10)

    def metric_at(self, t) -> MetricModel:
        return self._metric(self.params_at(t))

    def metrics_at(self, ts):
        """Yields metric_at at each of the times ts, from one params_at_times
        pass; one metric at a time is built."""
        return (self._metric(p) for p in self.params_at_times(ts))

    def _metric(self, p) -> MetricModel:
        if self.kind == "homogeneous":
            return HomogeneousMetric(
                self.template.structure_constants, tuple(p), self.template.frame_volume
            )
        if self.kind == "model_space":
            return ModelSpaceMetric(
                self.template.dim,
                self.template.sectional_sign,
                float(p[0]),
                self.template.base_volume,
            )
        return ConformalTorusMetric(p.reshape(self.template.phi.shape), self.template.periods)

    def volume_at(self, t) -> float:
        return volume(self.metric_at(t))

    @cached_property
    def sample_geometry(self) -> list:
        """(V, R_min, R_max) at each sample, from one pass that builds each
        sample's metric and curvature once: export_csv's columns and
        check_R_lower_bound's data."""
        rows = []
        for m in self.metrics_at(self.times):
            r = curvature(m).scalar
            r_range = (float(np.min(r)), float(np.max(r))) if isinstance(r, np.ndarray) else (r, r)
            rows.append((volume(m), *r_range))
        return rows

    def export_csv(self, path) -> None:
        """One row per sample: t, reduced parameters, V, R_min, R_max."""
        from .reports import write_csv

        torus = self.kind == "conformal_torus"
        names = (["phi_min", "phi_max"] if torus
                 else ["A", "B", "C"] if self.kind == "homogeneous" else ["a"])
        rows = []
        # the parameters as the metrics get them: the interpolant at a sample
        # sums signed zeros, so a stored -0.0 may read +0.0
        for t, p, geo in zip(self.times.tolist(), self.params_at_times(self.times),
                             self.sample_geometry):
            par = [float(np.min(p)), float(np.max(p))] if torus else p.tolist()
            rows.append([t, *par, *geo])
        write_csv(path, ["t", *names, "V", "R_min", "R_max"], rows)


def blowdown(h: FlowHistory, alpha: float) -> FlowHistory:
    """History of the rescaled flow g(alpha t)/alpha, alpha >= 1, from
    rescaled samples: the torus phi drops by log(alpha)/2 and its rate
    gains a factor alpha; the other parameters divide by alpha and keep
    their rates.  Times, birth and extinction divide by alpha."""
    if not alpha >= 1.0:
        raise ValueError("alpha must be >= 1")
    if h.kind == "conformal_torus":
        params, rhs = h.params - 0.5 * math.log(alpha), alpha * h.param_rhs
    else:
        params, rhs = h.params / alpha, h.param_rhs
    return FlowHistory(h.template, h.times / alpha, params, rhs, h.birth_time / alpha,
                       None if h.extinct_at is None else h.extinct_at / alpha)


def scaled_volume(h: FlowHistory, t: float) -> float:
    """V(t) / t^(n/2), the volume of the rescaled metric g(t)/t."""
    t = float(t)
    if t <= 0:
        raise ValueError("scaled volume requires t > 0")
    return h.volume_at(t) / t ** (h.dim / 2.0)


def check_R_lower_bound(h: FlowHistory, tol: float) -> bool:
    """Whether R + n/(2t) >= -tol pointwise at the sampled times."""
    return all(r_min + h.dim / (2.0 * t) >= -tol
               for t, (_, r_min, _) in zip(h.times.tolist(), h.sample_geometry) if t > 0)


# ---------------------------------------------------------------------------
# evolution

def evolve(m0: MetricModel, t_span, n_snapshots: int = 65, retain_every: int | None = None,
           dt_cap: float | None = None) -> FlowHistory:
    """Evolve a testbed metric by the curvature flow over t_span.

    Extinction (a metric eigenvalue reaching zero) truncates the history
    with the extinction time recorded; it is a structured outcome, not
    an error.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 < 0 or t1 <= t0:
        raise ValueError("need 0 <= t0 < t1")
    if not ((dt_cap is None or dt_cap > 0) and (retain_every is None or retain_every >= 1)):
        raise ValueError(f"need dt_cap > 0, retain_every >= 1 (got {dt_cap!r}, {retain_every!r})")
    if isinstance(m0, ModelSpaceMetric):
        return _evolve_model_space(m0, t0, t1, n_snapshots)
    if isinstance(m0, HomogeneousMetric):
        return _evolve_homogeneous(m0, t0, t1)
    if isinstance(m0, ConformalTorusMetric):
        return _evolve_torus(m0, t0, t1, retain_every, dt_cap)
    raise TypeError(f"unknown metric model {type(m0)!r}")


def _evolve_model_space(m0: ModelSpaceMetric, t0, t1, n_snapshots) -> FlowHistory:
    rho0 = m0.rho0
    extinct_at = None
    t_end = t1
    if rho0 > 0:
        t_ext = m0.scale_root(t0)
        if t_ext <= t1:
            extinct_at = t_ext
            t_end = t_ext * (1.0 - 1e-9) - 1e-15 * abs(t_ext)
    times = np.linspace(t0, t_end, n_snapshots)
    a0 = m0.scale
    scales = a0 - 2.0 * rho0 * (times - t0)
    params = scales[:, None]
    rhs = np.full_like(params, -2.0 * rho0)
    # birth time of the expander normal form a(t) = -2 rho0 (t - T), negative case
    birth = m0.scale_root(t0) if rho0 < 0 else 0.0
    return FlowHistory(m0, times, params, rhs, birth_time=birth, extinct_at=extinct_at)


def _evolve_homogeneous(m0: HomogeneousMetric, t0, t1) -> FlowHistory:
    floor = 1e-7 * min(m0.diag)
    consts = m0.structure_constants

    def rhs(t, y):
        if min(y) <= 0:  # past extinction: trial stage, reject via non-finite
            return [math.inf] * 3
        return [-2.0 * r for r in milnor_ricci_diag(consts, y)]

    # cap steps so the cubic dense output stays near round-off: the
    # identity checks difference interpolated histories at the 1e-8 scale
    traj = integrate_ode(rhs, m0.diag, t0, t1, abs_tol=1e-12, rel_tol=1e-11,
                         stop=lambda t, y: min(y) < floor, max_step=lambda t: 0.01 * max(1.0, t))
    extinct_at = traj.t_end if traj.status in ("halted", "truncated") else None
    return FlowHistory(m0, traj.times, traj.states, traj.derivs, extinct_at=extinct_at)


class TorusStepper:
    """Implicit trapezoidal stepper for d(phi)/dt = exp(-2 phi) lap0 phi.

    The Newton linear systems are solved by conjugate gradients on a
    symmetrized form with an FFT constant-coefficient preconditioner;
    the periodic Laplacian is diagonal in the discrete Fourier basis.
    """

    def __init__(self, template: ConformalTorusMetric):
        self.hx, self.hy = template.spacing
        self.lam = laplacian_symbol(template.phi.shape, template.spacing)

    def rhs(self, phi):
        return np.exp(-2.0 * phi) * _lap0(phi, self.hx, self.hy)

    def step(self, phi, dt, f_old):
        """One step from phi, whose rhs is f_old; returns (psi, rhs(psi)).
        Each Newton system (I - dt/2 J(psi)) delta = -g reuses its residual's
        exp(-2 psi) and rhs(psi).  A residual that is not finite aborts the
        step: no later Newton or CG iteration could recover it."""
        hx, hy = self.hx, self.hy
        psi = phi + dt * f_old  # explicit predictor
        target = phi + 0.5 * dt * f_old
        scale = 1.0 + float(np.max(np.abs(phi)))
        for _ in range(12):
            # an overflow here shows as a non-finite residual, reported below
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.exp(-2.0 * psi)
                f_val = d * _lap0(psi, hx, hy)
                g = psi - target - 0.5 * dt * f_val
            g_max = float(np.max(np.abs(g)))
            if g_max <= 1e-13 * scale:
                return psi, f_val
            if not math.isfinite(g_max):
                raise RuntimeError(
                    f"torus step of dt = {dt:.6g} turned non-finite (Newton residual {g_max})")
            sqrt_d = np.sqrt(d)
            dt_f, half_dt_sqrt_d = dt * f_val, 0.5 * dt * sqrt_d

            def apply_a(x):
                return x + dt_f * x - half_dt_sqrt_d * _lap0(sqrt_d * x, hx, hy)

            c_bar = float(np.exp(-2.0 * np.mean(psi)))
            # plain Euclidean inner product: the symmetrized operator is SPD
            x = conjugate_gradient(apply_a, -g / sqrt_d, None,
                                   spectral_preconditioner(1.0 - 0.5 * dt * c_bar * self.lam),
                                   rel_tol=1e-13, max_iter=200)
            psi = psi + sqrt_d * x
        return psi, self.rhs(psi)


def torus_dt_cap(m0: ConformalTorusMetric) -> float:
    """The torus evolve's default step cap h²/2, a stability/accuracy cap."""
    h = min(m0.spacing)
    return 0.5 * h * h


def _evolve_torus(m0: ConformalTorusMetric, t0, t1, retain_every, dt_cap) -> FlowHistory:
    stepper = TorusStepper(m0)
    if dt_cap is None:
        dt_cap = torus_dt_cap(m0)
    n_steps = max(1, math.ceil((t1 - t0) / dt_cap))
    dt = (t1 - t0) / n_steps
    if retain_every is None:
        retain_every = max(1, n_steps // 64)
    phi = np.asarray(m0.phi, dtype=float).copy()
    f = stepper.rhs(phi)
    # rows sized up front: the start, every retain_every-th step and the last
    n_rows = 1 + n_steps // retain_every + (n_steps % retain_every > 0)
    params, param_rhs = np.empty((n_rows, phi.size)), np.empty((n_rows, phi.size))
    params[0], param_rhs[0], times = phi.ravel(), f.ravel(), [t0]
    for k in range(1, n_steps + 1):
        phi, f = stepper.step(phi, dt, f)
        if k % retain_every == 0 or k == n_steps:
            params[len(times)], param_rhs[len(times)] = phi.ravel(), f.ravel()
            times.append(t0 + k * dt)
    return FlowHistory(m0, times, params, param_rhs)
