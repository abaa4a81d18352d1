"""Linearized stability: Jacobian, ODE/Turing classification, dispersion relation.

A Fourier perturbation ~ exp(lambda*t + i*xi*x) of the homogeneous equilibrium
grows at the largest root of lambda^2 + a1*lambda + a2 = 0 with

    a1 = -tr(M) + (d_b + d_c) * xi^2
    a2 = det(M) - (M11*d_c + M22*d_b) * xi^2 + d_b*d_c * xi^4

so the unstable wavenumber band is exactly the interval where a2 < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError
from .params import Equilibrium, ModelParams

REL_TOL_IDENTITY = 1e-9  # Turing condition value vs M11 agreement
DISPERSION_SAMPLES = 512  # default sample count of dispersion()


@dataclass(frozen=True)
class Jacobian2x2:
    """Linearization matrix at the positive equilibrium; entries in 1/min."""

    m11: float
    m12: float
    m21: float
    m22: float

    @property
    def trace(self) -> float:
        return self.m11 + self.m22

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class StabilityVerdict:
    """ODE stability and Turing classification at the equilibrium.

    ``turing_condition_value`` and ``turing`` stay None until
    :func:`turing_classify` fills them in.
    """

    trace: float
    det: float
    ode_stable: bool
    turing_condition_value: float | None = None
    turing: bool | None = None


@dataclass(frozen=True)
class DispersionCurve:
    xi2_samples: np.ndarray    # squared wavenumbers, 1/m^2
    growth_rates: np.ndarray   # largest real part of the two roots, 1/min
    lambda_minus: float        # band endpoints, nan when band_nonempty is False
    lambda_plus: float
    band_nonempty: bool


def jacobian(p: ModelParams, eq: Equilibrium) -> Jacobian2x2:
    """Jacobian of the reaction kinetics at (beta_bar, gamma_bar)."""
    beta = eq.beta_bar
    theta = eq.theta
    kappa = p.kappa
    denom = p.s_b + beta
    try:
        m11 = p.r_b * (1.0 - 2.0 * theta) - p.a * p.s_b * kappa * beta / denom**2 - p.f_e * kappa * theta
    except OverflowError:  # denom**2
        m11 = math.nan
    m12 = -p.a * beta / denom + p.f_e * (1.0 - theta)
    if not (math.isfinite(m11) and math.isfinite(m12)):
        raise ParameterError(f"the Jacobian at the equilibrium is not finite (m11={m11!r}, m12={m12!r})")
    return Jacobian2x2(m11=m11, m12=m12, m21=p.f_b, m22=-p.r_c)


def ode_stability(j: Jacobian2x2) -> StabilityVerdict:
    """Stability of the space-free kinetics: stable iff trace < 0 (strict).

    det(M) > 0 is guaranteed for valid parameters; det <= 0 therefore raises
    ConsistencyError.
    """
    det = j.det
    if det <= 0.0:
        raise ConsistencyError(f"det(M) = {det!r} <= 0 contradicts the positivity guarantee")
    return StabilityVerdict(trace=j.trace, det=det, ode_stable=j.trace < 0.0)


def turing_condition_value(p: ModelParams, eq: Equilibrium) -> float:
    """Left side of the Turing double inequality 0 < value < r_c."""
    kappa = p.kappa
    beta = eq.beta_bar
    return p.a * kappa * beta**2 / (p.s_b + beta) ** 2 - p.r_b * eq.theta - p.f_e * kappa


def turing_classify(p: ModelParams, eq: Equilibrium, j: Jacobian2x2) -> StabilityVerdict:
    """Full classification: ODE stability plus the diffusion-driven instability test.

    At equilibrium the condition value coincides with M11 (substituting the
    steady-state relation into the M11 formula); disagreement beyond 1e-9
    relative raises ConsistencyError.
    """
    base = ode_stability(j)
    value = turing_condition_value(p, eq)
    scale = max(abs(value), abs(j.m11), 1e-300)
    if abs(value - j.m11) > REL_TOL_IDENTITY * scale:
        raise ConsistencyError(
            f"Turing condition value {value!r} != M11 {j.m11!r}; equilibrium inconsistent"
        )
    turing = 0.0 < value < p.r_c  # strict at both boundaries
    return StabilityVerdict(
        trace=base.trace,
        det=base.det,
        ode_stable=base.ode_stable,
        turing_condition_value=value,
        turing=turing,
    )


def band_edges(p: ModelParams, j: Jacobian2x2) -> tuple[float, float, bool]:
    """Roots of a2(xi^2) = 0, the endpoints of the unstable band.

    Cancellation-safe: the larger-magnitude root comes from the quadratic
    formula with the matching sign, the other from the product of roots.
    Returns (nan, nan, False) when a2 never becomes negative; raises
    ParameterError when d_b*d_c is not a positive finite float.
    """
    A = p.d_b * p.d_c
    if not 0.0 < A < math.inf:
        raise ParameterError(f"d_b*d_c = {A!r} must be positive and finite")
    B = -(j.m11 * p.d_c + j.m22 * p.d_b)
    C = j.det
    disc = B * B - 4.0 * A * C
    if disc <= 0.0 or B >= 0.0:
        # Complex roots, or both real roots non-positive: a2 > 0 for xi^2 > 0.
        return math.nan, math.nan, False
    q = -0.5 * (B - math.sqrt(disc))  # B < 0 here
    lam_plus = q / A
    lam_minus = C / q
    if lam_minus > lam_plus:
        lam_minus, lam_plus = lam_plus, lam_minus
    if lam_plus <= 0.0:
        return math.nan, math.nan, False
    return lam_minus, lam_plus, True


def growth_rate(p: ModelParams, j: Jacobian2x2, xi2):
    """Largest real part among the two roots of lambda^2 + a1*lambda + a2 = 0."""
    xi2 = np.asarray(xi2, dtype=float)
    a1 = -j.trace + (p.d_b + p.d_c) * xi2
    a2 = j.det - (j.m11 * p.d_c + j.m22 * p.d_b) * xi2 + p.d_b * p.d_c * xi2**2
    disc = a1 * a1 - 4.0 * a2
    real_roots = 0.5 * (-a1 + np.sqrt(np.maximum(disc, 0.0)))
    complex_roots = -0.5 * a1
    out = np.where(disc >= 0.0, real_roots, complex_roots)
    if out.ndim == 0:
        return float(out)
    return out


def dispersion(
    p: ModelParams,
    j: Jacobian2x2,
    xi2_max: float | None = None,
    samples: int = DISPERSION_SAMPLES,
) -> DispersionCurve:
    """Growth rate over a range of squared wavenumbers plus the unstable band.

    With ``xi2_max`` given, samples are linear on [0, xi2_max]. Otherwise,
    when a band exists, ``samples`` log-spaced points span
    [lambda_minus/100, lambda_plus*100]; without a band the sampling spans
    six decades around the characteristic scale sqrt(det/(d_b*d_c)).
    Non-finite band edges, samples or growth rates raise ParameterError.
    """
    if samples < 2:
        raise ParameterError(f"samples must be >= 2, got {samples}")
    lam_minus, lam_plus, nonempty = band_edges(p, j)
    if nonempty and not (math.isfinite(lam_minus) and math.isfinite(lam_plus)):
        raise ParameterError(f"unstable band edges must be finite, got ({lam_minus!r}, {lam_plus!r})")
    if xi2_max is not None:
        if not (math.isfinite(xi2_max) and xi2_max > 0.0):
            raise ParameterError(f"xi2_max must be positive and finite, got {xi2_max!r}")
        xi2 = np.linspace(0.0, xi2_max, samples)
    else:
        if nonempty:
            lo = max(lam_minus, 0.0)
            lo = lo / 100.0 if lo > 0.0 else lam_plus * 1e-6
            hi = lam_plus * 100.0
        else:
            x_char = math.sqrt(max(j.det, 0.0) / (p.d_b * p.d_c))
            lo, hi = x_char * 1e-3, x_char * 1e3
        if not 0.0 < lo < hi < math.inf:
            raise ParameterError(f"dispersion sampling range [{lo!r}, {hi!r}] is not finite and positive")
        xi2 = np.geomspace(lo, hi, samples)
    with np.errstate(all="ignore"):
        rates = growth_rate(p, j, xi2)
    if not np.isfinite(rates).all():
        raise ParameterError("growth rates are not finite over the sampled wavenumbers")
    return DispersionCurve(
        xi2_samples=xi2,
        growth_rates=rates,
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        band_nonempty=nonempty,
    )


def unstable_band(curve: DispersionCurve) -> tuple[float, float] | None:
    """(lambda_minus, lambda_plus) when the band is non-empty, else None."""
    if not curve.band_nonempty:
        return None
    return curve.lambda_minus, curve.lambda_plus
