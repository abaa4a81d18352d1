"""Semi-implicit 1-D integrator: implicit diffusion, explicit reaction.

Fields are evolved in carrying-capacity-scaled form internally; the public
types carry physical units. Non-negativity and the beta < b_i bound are
enforced at every step: round-off sized violations (within 1e-12 * b_i) are
clamped, anything larger raises InvariantError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvariantError, ParameterError
from .params import ModelParams

CLAMP_TOL = 1e-12          # scaled by b_i
DT_SAFETY = 0.2            # explicit-reaction stability margin


@dataclass(frozen=True)
class Domain1D:
    """Uniform 1-D grid on [0, length] with Neumann ends; the defaults are
    the canonical 3 cm, 10 um grid."""

    length: float = 0.03
    n_points: int = 3000

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ParameterError(f"length must be positive, got {self.length!r}")
        if self.n_points < 16:
            raise ParameterError(f"n_points must be >= 16, got {self.n_points}")

    @property
    def dx(self) -> float:
        return self.length / (self.n_points - 1)

    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_points)


@dataclass(frozen=True)
class FieldState:
    """Paired spatial profiles at one instant; densities in units/m^3."""

    time: float
    beta: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class SimConfig:
    """Time stepping and initial-condition description.

    ``ic`` selects between a localized bacterial spot on an empty background
    ("spot") and a relative-noise perturbation of the homogeneous equilibrium
    ("perturbation", deterministic for a fixed seed).
    """

    dt: float = 1.0
    t_end: float = 20160.0
    snapshot_every: float = 1440.0
    ic: str = "spot"
    spot_center: float = 0.015
    spot_half_width: float = 5e-5
    spot_amplitude: float = 1e15
    background: float = 0.0
    noise_rel: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt!r}")
        if self.t_end < self.dt:
            raise ParameterError(f"t_end must be >= dt, got {self.t_end!r}")
        if not _is_multiple(self.t_end, self.dt):
            raise ParameterError(f"t_end must be a multiple of dt, got {self.t_end!r}")
        if not (self.snapshot_every >= self.dt and _is_multiple(self.snapshot_every, self.dt)):
            raise ParameterError(f"snapshot_every must be a positive multiple of dt, got {self.snapshot_every!r}")
        if self.ic not in ("spot", "perturbation"):
            raise ParameterError(f"unknown initial condition {self.ic!r}")
        if self.spot_amplitude < 0.0 or self.background < 0.0 or self.noise_rel < 0.0:
            raise ParameterError("initial-condition amplitudes must be non-negative")
        if self.ic == "perturbation" and self.noise_rel > 1.0:
            raise ParameterError(
                f"noise_rel must be <= 1 for a perturbation (larger draws negative densities), "
                f"got {self.noise_rel!r}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


def _is_multiple(span: float, dt: float) -> bool:
    ratio = span / dt
    return abs(ratio - round(ratio)) <= 1e-9


def max_stable_dt(p: ModelParams) -> float:
    """Conservative explicit-reaction step bound.

    The limiting rates are the linear self-decay scales of the two fields:
    r_b + f_e*kappa for bacteria near the equilibrium balance, f_b and r_c
    for phagocytes.
    """
    rate = max(p.r_b + p.f_e * p.kappa, p.f_b, p.r_c)
    return DT_SAFETY / rate


def initial_state(p: ModelParams, dom: Domain1D, cfg: SimConfig) -> FieldState:
    """Build the initial fields; physical units."""
    x = dom.x()
    if cfg.ic == "spot":
        beta = np.full(dom.n_points, cfg.background, dtype=float)
        beta[np.abs(x - cfg.spot_center) <= cfg.spot_half_width] = cfg.spot_amplitude
        gamma = np.zeros(dom.n_points)
    else:
        from .params import steady_state

        eq = steady_state(p)
        rng = np.random.default_rng(cfg.seed)
        beta = eq.beta_bar * (1.0 + cfg.noise_rel * rng.uniform(-1.0, 1.0, dom.n_points))
        gamma = eq.gamma_bar * (1.0 + cfg.noise_rel * rng.uniform(-1.0, 1.0, dom.n_points))
    if np.any(beta >= p.b_i):
        raise ParameterError("initial bacterial density must stay below b_i")
    return FieldState(time=0.0, beta=beta, gamma=gamma)


def _check_and_clamp(b: np.ndarray, g: np.ndarray, t: float) -> None:
    """Enforce field invariants in scaled units, in place."""
    # NaN propagates through min and max, and an infinity is one of them.
    b_min, b_max, g_min, g_max = b.min(), b.max(), g.min(), g.max()
    if not all(map(math.isfinite, (b_min, b_max, g_min, g_max))):
        raise InvariantError(f"non-finite field value at t={t} min")
    if b_min < -CLAMP_TOL or g_min < -CLAMP_TOL:
        raise InvariantError(
            f"negativity beyond tolerance at t={t} min "
            f"(min beta/b_i={b_min:.3e}, min gamma/b_i={g_min:.3e}); dt too large?"
        )
    if b_min < 0.0:
        np.clip(b, 0.0, None, out=b)
    if g_min < 0.0:
        np.clip(g, 0.0, None, out=g)
    # clipping negatives to 0 leaves b_max's comparisons with 1 as they were
    if b_max >= 1.0 + CLAMP_TOL:
        raise InvariantError(f"beta exceeded b_i at t={t} min (beta/b_i={b_max:.6e})")
    if b_max >= 1.0:
        np.minimum(b, np.nextafter(1.0, 0.0), out=b)


class _Integrator:
    """Steps scaled fields for one (p, dom, dt).

    Holds what stays fixed over a run: ``s = s_b/b_i``, the solve of both
    fields' diffusion matrices, factored together once by
    :func:`kernels.factor`, and two kernel work arrays. Each step writes
    into the work array its input did not come from, so a step's output,
    the next step's input, is never overwritten while it is read; it stays
    valid until the step after next.
    """

    def __init__(self, p: ModelParams, dom: Domain1D, dt: float):
        _check_dt(p, dt)
        self.p = p
        self.dt = dt
        self.s = p.s_b / p.b_i
        self.solve = kernels.factor(dom.n_points, *_diffusion_numbers(p, dom, dt))
        self.work = (kernels.work_array(dom.n_points), kernels.work_array(dom.n_points))

    def advance(self, b, g, t_next):
        """Return the scaled fields one step on, checked and clamped at ``t_next``.

        The result lives in a work array that the step after next reuses.
        """
        p = self.p
        work, spare = self.work
        self.work = (spare, work)
        b_new, g_new = kernels.step_arrays(b, g, self.dt, self.solve,
                                           p.r_b, p.a, self.s, p.f_e, p.f_b, p.r_c, work)
        _check_and_clamp(b_new, g_new, t_next)
        return b_new, g_new


def _check_dt(p: ModelParams, dt: float) -> None:
    if dt <= 0.0:
        raise ParameterError(f"dt must be positive, got {dt!r}")
    bound = max_stable_dt(p)
    if dt > bound:
        raise ParameterError(f"dt={dt} exceeds the explicit-reaction bound {bound:.4g} min")


def _diffusion_numbers(p: ModelParams, dom: Domain1D, dt: float) -> tuple[float, float]:
    """``dt*d/dx^2`` of both fields; ParameterError unless both are positive
    and finite, as they are not when dx^2 overflows or underflows."""
    try:
        mu = (dt * p.d_b / dom.dx**2, dt * p.d_c / dom.dx**2)
    except (OverflowError, ZeroDivisionError):
        mu = (math.nan, math.nan)
    if not all(0.0 < m < math.inf for m in mu):
        raise ParameterError(
            f"diffusion numbers dt*d/dx^2 = {mu!r} must be positive and finite "
            f"(length {dom.length!r}, n_points {dom.n_points})"
        )
    return mu


def check_run(p: ModelParams, dom: Domain1D, cfg: SimConfig) -> None:
    """Raise ParameterError if :func:`simulate` would reject these inputs."""
    _check_dt(p, cfg.dt)
    _diffusion_numbers(p, dom, cfg.dt)
    initial_state(p, dom, cfg)


def simulate(p: ModelParams, dom: Domain1D, cfg: SimConfig) -> list[FieldState]:
    """Integrate to t_end, returning snapshots on the configured cadence.

    The final state is always included. Step failures propagate with the
    offending time attached.
    """
    integrator = _Integrator(p, dom, cfg.dt)
    state0 = initial_state(p, dom, cfg)
    b = state0.beta / p.b_i
    g = state0.gamma / p.b_i
    n_steps = int(round(cfg.t_end / cfg.dt))
    stride = int(round(cfg.snapshot_every / cfg.dt))
    snapshots = [state0]
    for k in range(1, n_steps + 1):
        t = k * cfg.dt
        b, g = integrator.advance(b, g, t)
        if k % stride == 0 or k == n_steps:
            snapshots.append(FieldState(time=t, beta=b * p.b_i, gamma=g * p.b_i))
    return snapshots
