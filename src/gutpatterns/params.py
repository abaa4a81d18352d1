"""Model parameters, the positive homogeneous steady state and the run's grid and time stepping.

The model couples a bacterial density beta (logistic growth, Holling type II
predation, porosity feedback) to a phagocyte density gamma (recruitment
proportional to beta, linear death). All rates are 1/min, densities units/m^3.

Internally the steady-state solve works in densities scaled by the carrying
capacity ``b_i`` so every intermediate stays O(1). This module, like the
command-line configuration built on it, imports no numpy.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace

from .errors import CalibrationError, ParameterError

# Fields that must be strictly positive; the remaining rates (r_b, a, f_e)
# may be zero so that degenerate limits (no growth / no predation / no
# feedback) stay expressible.
_STRICT = ("r_c", "d_b", "d_c", "b_i", "f_b", "s_b")
_NONNEG = ("r_b", "a", "f_e")

# The largest node or sample count: numpy arrays hold at most sys.maxsize
# bytes, and the solver holds both float64 fields of n_points nodes in one.
MAX_COUNT = sys.maxsize // 16


def check_count(name: str, value: int, least: int) -> None:
    """ParameterError unless ``least <= value <= MAX_COUNT``. A larger count
    would make numpy raise ValueError, IndexError or OverflowError rather than
    MemoryError."""
    if not least <= value <= MAX_COUNT:
        raise ParameterError(f"{name} must lie in [{least}, {MAX_COUNT}], got {value}")


def check_theta(theta: float) -> None:
    """ParameterError unless the target equilibrium load lies in (0, 1)."""
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta_target must lie in (0, 1), got {theta!r}")


@dataclass(frozen=True)
class ModelParams:
    """The nine kinetic/transport coefficients of the model.

    r_b : bacterial reproduction rate (1/min)
    r_c : phagocyte intrinsic death rate (1/min)
    d_b : bacterial diffusivity (m^2/min)
    d_c : phagocyte diffusivity (m^2/min)
    b_i : luminal bacterial carrying capacity (units/m^3)
    f_b : immune recruitment rate (1/min)
    a   : maximal phagocytosis rate (1/min); a = 1/tau = s_b * p_c
    s_b : half-saturation density of the Holling-II term (units/m^3)
    f_e : epithelial-porosity feedback coefficient (1/min)
    """

    r_b: float
    r_c: float
    d_b: float
    d_c: float
    b_i: float
    f_b: float
    a: float
    s_b: float
    f_e: float

    def __post_init__(self):
        for name in _STRICT + _NONNEG:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        for name in _STRICT:
            if getattr(self, name) <= 0.0:
                raise ParameterError(f"{name} must be strictly positive, got {getattr(self, name)!r}")
        for name in _NONNEG:
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        # an s that underflows to 0 makes the predation term 0/0 wherever beta is 0
        if not self.s > 0.0:
            raise ParameterError(f"s_b/b_i must be positive, got {self.s_b!r}/{self.b_i!r} = {self.s!r}")

    @property
    def s(self) -> float:
        """The half-saturation density in units of b_i."""
        return self.s_b / self.b_i

    @property
    def kappa(self) -> float:
        """Equilibrium phagocyte/bacteria ratio f_b / r_c."""
        return self.f_b / self.r_c


@dataclass(frozen=True)
class Equilibrium:
    """Positive homogeneous steady state (beta_bar, gamma_bar = kappa*beta_bar)."""

    beta_bar: float
    gamma_bar: float
    theta: float  # beta_bar / b_i


# Canonical parameter values; f_e is the calibrated value (the published
# rounded figure is 0.0856).
TABLE1 = {
    "r_b": 0.0347,
    "r_c": 0.02,
    "d_b": 1e-13,
    "d_c": 1e-10,
    "b_i": 1e17,
    "f_b": 0.002,
    "a": 0.3129,
    "s_b": 1e15,
}

DEFAULT_THETA = 0.3
PEAK_THRESHOLD = 0.1  # default peak cut of pattern analysis, relative to max(beta)


def _equilibrium_residual(p: ModelParams, x: float) -> float:
    """Scaled steady-state residual at x = beta / b_i."""
    return (p.r_b + p.f_e * p.kappa) * (1.0 - x) - p.a * p.kappa * x / (p.s + x)


def _quadratic_root(p: ModelParams) -> float:
    """Closed-form positive root of the residual, in scaled units.

    Clearing denominators gives R x^2 + (a*kappa - R(1-s)) x - R s = 0 with
    R = r_b + f_e*kappa; the product of roots is -s < 0 so exactly one root
    is positive. Cancellation-safe evaluation.
    """
    s = p.s
    R = p.r_b + p.f_e * p.kappa
    B = p.a * p.kappa - R * (1.0 - s)
    disc = math.sqrt(B * B + 4.0 * R * R * s)
    if B <= 0.0:
        return (-B + disc) / (2.0 * R)
    return 2.0 * R * s / (B + disc)


def steady_state(p: ModelParams) -> Equilibrium:
    """Unique positive homogeneous steady state.

    The closed-form quadratic root, Newton-polished to machine precision
    (the tests check it against a bisection of the residual). With a = 0
    (or f_b = 0) predation vanishes and the logistic root beta = b_i is
    returned exactly.
    """
    ak = p.a * p.kappa
    R = p.r_b + p.f_e * p.kappa
    if ak == 0.0:
        if R == 0.0:
            raise ParameterError("degenerate kinetics: every density is a steady state")
        return Equilibrium(beta_bar=p.b_i, gamma_bar=p.kappa * p.b_i, theta=1.0)
    if R == 0.0:
        raise ParameterError("no positive steady state: growth terms all vanish")

    # Newton polish from the closed-form root.
    s = p.s
    x = _quadratic_root(p)
    for _ in range(3):
        f = _equilibrium_residual(p, x)
        try:
            df = -R - ak * s / (s + x) ** 2
        except (OverflowError, ZeroDivisionError):  # (s + x)**2 overflows or underflows to 0
            raise ParameterError(
                f"the steady state's Newton derivative is not finite in floating point (s={s!r}, theta={x!r})"
            ) from None
        x -= f / df
    x = min(max(x, 0.0), 1.0)

    beta_bar = x * p.b_i
    gamma_bar = p.kappa * beta_bar
    if not (math.isfinite(x) and math.isfinite(gamma_bar)):
        raise ParameterError(
            f"the steady state is not finite in floating point (theta={x!r}, gamma_bar={gamma_bar!r})"
        )
    return Equilibrium(beta_bar=beta_bar, gamma_bar=gamma_bar, theta=x)


def calibrate_fe(p: ModelParams, theta_target: float) -> float:
    """Porosity coefficient that places the equilibrium at beta = theta_target * b_i.

    ``p.f_e`` is ignored. Raises CalibrationError when no positive f_e can
    balance the steady-state relation at the requested theta.
    """
    check_theta(theta_target)
    kappa = p.kappa
    if kappa == 0.0:
        raise ParameterError("calibration requires f_b > 0")
    f_e = (p.a * kappa * theta_target / ((p.s + theta_target) * (1.0 - theta_target)) - p.r_b) / kappa
    if f_e <= 0.0:
        raise CalibrationError(
            f"no positive porosity feedback holds the equilibrium at theta={theta_target}"
            f" (formula gives f_e={f_e:.6g})"
        )
    return f_e


def table1_params(f_e: float | None = None) -> ModelParams:
    """Canonical parameter set; f_e calibrated at theta=0.3 unless given."""
    p = ModelParams(f_e=1.0, **TABLE1)
    if f_e is None:
        f_e = calibrate_fe(p, DEFAULT_THETA)
    return replace(p, f_e=f_e)


@dataclass(frozen=True)
class Domain1D:
    """Uniform 1-D grid on [0, length] with Neumann ends; the defaults are
    the canonical 3 cm, 10 um grid."""

    length: float = 0.03
    n_points: int = 3000

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ParameterError(f"length must be positive, got {self.length!r}")
        check_count("n_points", self.n_points, 16)

    @property
    def dx(self) -> float:
        return self.length / (self.n_points - 1)

    def x(self) -> np.ndarray:
        import numpy as np  # only here, so the subcommands that build no field never load it
        return np.linspace(0.0, self.length, self.n_points)


@dataclass(frozen=True)
class SimConfig:
    """Time stepping and initial-condition description.

    ``ic`` selects between a localized bacterial spot on an empty background
    ("spot") and a relative-noise perturbation of the homogeneous equilibrium
    ("perturbation"). The perturbation's draws come from the standard
    library's ``random.Random(seed)``, whose sequence for a seed Python keeps
    the same across versions, so a seed gives the same initial fields on
    every supported Python and numpy. ``seed`` is a non-negative integer.
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
        # no run of ~sys.maxsize steps ends; since snapshot_every >= dt, this
        # also keeps the snapshots, which snapshot_times lists, below the
        # sys.maxsize items a list can hold
        steps = self.t_end / self.dt
        if steps >= sys.maxsize - 2:
            raise ParameterError(f"t_end/dt = {steps!r}: too many steps")
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
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ParameterError(f"seed must be an integer, got {self.seed!r}") from None
        if seed < 0:
            raise ParameterError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "seed", seed)


def _is_multiple(span: float, dt: float) -> bool:
    """Whether span/dt lies within 1e-9 of an integer; false when it overflows."""
    ratio = span / dt
    return math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9
