"""Model parameters, reaction kinetics, and the positive homogeneous steady state.

The model couples a bacterial density beta (logistic growth, Holling type II
predation, porosity feedback) to a phagocyte density gamma (recruitment
proportional to beta, linear death). All rates are 1/min, densities units/m^3.

Internally the steady-state solve works in densities scaled by the carrying
capacity ``b_i`` so every intermediate stays O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, ConsistencyError, ParameterError

# Fields that must be strictly positive; the remaining rates (r_b, a, f_e)
# may be zero so that degenerate limits (no growth / no predation / no
# feedback) stay expressible.
_STRICT = ("r_c", "d_b", "d_c", "b_i", "f_b", "s_b")
_NONNEG = ("r_b", "a", "f_e")

REL_TOL_ROOT = 1e-12     # bisection convergence, relative
REL_TOL_CROSSCHECK = 1e-9  # bisection vs closed-form agreement


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

    @property
    def kappa(self) -> float:
        """Equilibrium phagocyte/bacteria ratio f_b / r_c."""
        return self.f_b / self.r_c

    @property
    def delta(self) -> float:
        """Diffusivity ratio d_b / d_c."""
        return self.d_b / self.d_c

    @property
    def p_c(self) -> float:
        """Per-density encounter rate a / s_b."""
        return self.a / self.s_b

    @property
    def tau(self) -> float:
        """Handling time 1 / a (min)."""
        if self.a == 0.0:
            return math.inf
        return 1.0 / self.a


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


def reaction_terms(p: ModelParams, beta, gamma):
    """Reaction right-hand sides (d beta/dt, d gamma/dt), no diffusion.

    Accepts scalars or numpy arrays; inputs must be non-negative and finite.
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma))):
        raise ParameterError("densities must be finite")
    if np.any(beta < 0.0) or np.any(gamma < 0.0):
        raise ParameterError("densities must be non-negative")
    logistic = 1.0 - beta / p.b_i
    dbeta = p.r_b * logistic * beta - p.a * beta * gamma / (p.s_b + beta) + p.f_e * logistic * gamma
    dgamma = p.f_b * beta - p.r_c * gamma
    if dbeta.ndim == 0:
        return float(dbeta), float(dgamma)
    return dbeta, dgamma


def _equilibrium_residual(p: ModelParams, x: float) -> float:
    """Scaled steady-state residual at x = beta / b_i."""
    s = p.s_b / p.b_i
    return (p.r_b + p.f_e * p.kappa) * (1.0 - x) - p.a * p.kappa * x / (s + x)


def _quadratic_root(p: ModelParams) -> float:
    """Closed-form positive root of the residual, in scaled units.

    Clearing denominators gives R x^2 + (a*kappa - R(1-s)) x - R s = 0 with
    R = r_b + f_e*kappa; the product of roots is -s < 0 so exactly one root
    is positive. Cancellation-safe evaluation.
    """
    s = p.s_b / p.b_i
    R = p.r_b + p.f_e * p.kappa
    B = p.a * p.kappa - R * (1.0 - s)
    disc = math.sqrt(B * B + 4.0 * R * R * s)
    if B <= 0.0:
        return (-B + disc) / (2.0 * R)
    return 2.0 * R * s / (B + disc)


def steady_state(p: ModelParams) -> Equilibrium:
    """Unique positive homogeneous steady state.

    Found by bisection on (0, b_i), cross-checked against the closed-form
    quadratic root, then Newton-polished to machine precision. With a = 0
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

    # Bisection: residual is strictly decreasing, positive at 0+, negative at 1.
    lo, hi = 0.0, 1.0
    while hi - lo > REL_TOL_ROOT * hi:
        mid = 0.5 * (lo + hi)
        if _equilibrium_residual(p, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x_bis = 0.5 * (lo + hi)

    x_quad = _quadratic_root(p)
    if abs(x_bis - x_quad) > REL_TOL_CROSSCHECK * max(x_bis, x_quad):
        raise ConsistencyError(
            f"steady-state solvers disagree: bisection {x_bis!r} vs quadratic {x_quad!r}"
        )

    # Newton polish from the closed-form root.
    s = p.s_b / p.b_i
    x = x_quad
    for _ in range(3):
        f = _equilibrium_residual(p, x)
        df = -R - ak * s / (s + x) ** 2
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
    if not 0.0 < theta_target < 1.0:
        raise ParameterError(f"theta_target must lie in (0, 1), got {theta_target!r}")
    kappa = p.kappa
    if kappa == 0.0:
        raise ParameterError("calibration requires f_b > 0")
    s = p.s_b / p.b_i
    f_e = (p.a * kappa * theta_target / ((s + theta_target) * (1.0 - theta_target)) - p.r_b) / kappa
    if f_e <= 0.0:
        raise CalibrationError(
            f"no positive porosity feedback holds the equilibrium at theta={theta_target}"
            f" (formula gives f_e={f_e:.6g})"
        )
    return f_e


def with_calibrated_fe(p: ModelParams, theta_target: float = DEFAULT_THETA) -> ModelParams:
    """Copy of ``p`` with f_e replaced by the calibrated value."""
    return replace(p, f_e=calibrate_fe(p, theta_target))


def table1_params(f_e: float | None = None) -> ModelParams:
    """Canonical parameter set; f_e calibrated at theta=0.3 unless given."""
    p = ModelParams(f_e=1.0, **TABLE1)
    if f_e is None:
        f_e = calibrate_fe(p, DEFAULT_THETA)
    return replace(p, f_e=f_e)
