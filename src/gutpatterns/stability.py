"""Linearized stability: Jacobian, ODE/Turing classification, dispersion relation.

A Fourier perturbation ~ exp(lambda*t + i*xi*x) of the homogeneous equilibrium
grows at the largest root of lambda^2 + a1*lambda + a2 = 0 with

    a1 = -tr(M) + (d_b + d_c) * xi^2
    a2 = det(M) - (M11*d_c + M22*d_b) * xi^2 + d_b*d_c * xi^4

so the unstable wavenumber band is exactly the interval where a2 < 0. A band
is a ``(lambda_minus, lambda_plus)`` pair of squared wavenumbers in 1/m^2;
None stands for an empty band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, ParameterError
from .params import Equilibrium, ModelParams, check_count

DISPERSION_SAMPLES = 512  # default sample count of dispersion()
_GROWTH_RATE_BLOCK = 65536  # samples per block of growth_rate


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
    """ODE stability and Turing classification at the equilibrium."""

    trace: float
    det: float
    ode_stable: bool
    turing_condition_value: float
    turing: bool
    critical_diffusivity_ratio: float  # least d_c/d_b with a band; inf when M11 <= 0


@dataclass(frozen=True)
class DispersionCurve:
    xi2_samples: np.ndarray    # squared wavenumbers, 1/m^2
    growth_rates: np.ndarray   # largest real part of the two roots, 1/min
    band: tuple[float, float] | None  # (lambda_minus, lambda_plus), None when empty


def jacobian(p: ModelParams, eq: Equilibrium) -> Jacobian2x2:
    """Jacobian of the reaction kinetics at (beta_bar, gamma_bar)."""
    beta = eq.beta_bar
    theta = eq.theta
    kappa = p.kappa
    denom = p.s_b + beta
    try:
        m11 = p.r_b * (1.0 - 2.0 * theta) - p.a * p.s_b * kappa * beta / denom**2 - p.f_e * kappa * theta
    except (OverflowError, ZeroDivisionError):  # denom**2 overflows or underflows to 0
        m11 = math.nan
    m12 = -p.a * beta / denom + p.f_e * (1.0 - theta)
    if not (math.isfinite(m11) and math.isfinite(m12)):
        raise ParameterError(f"the Jacobian at the equilibrium is not finite (m11={m11!r}, m12={m12!r})")
    return Jacobian2x2(m11=m11, m12=m12, m21=p.f_b, m22=-p.r_c)


def ode_stability(j: Jacobian2x2) -> bool:
    """Stability of the space-free kinetics: stable iff trace < 0 (strict).

    det(M) > 0 is guaranteed for valid parameters; det <= 0 therefore raises
    ConsistencyError.
    """
    if j.det <= 0.0:
        raise ConsistencyError(f"det(M) = {j.det!r} <= 0 contradicts the positivity guarantee")
    return j.trace < 0.0


def turing_classify(p: ModelParams, j: Jacobian2x2) -> StabilityVerdict:
    """Full classification: ODE stability plus the diffusion-driven instability test.

    The Turing condition is 0 < value < r_c, where the paper's condition
    value equals M11 at the equilibrium (the tests check that identity).
    Since trace = M11 - r_c, a Turing verdict implies ODE stability.

    The critical diffusivity ratio, ((sqrt(det) + sqrt(det - M11*M22))/M11)^2,
    is the d_c/d_b above which a band exists; with M11 <= 0 no ratio gives
    one, and it is inf. ``turing`` is the sign condition alone.
    """
    ode_stable = ode_stability(j)  # det > 0 from here on
    root = (math.sqrt(j.det) + math.sqrt(j.det - j.m11 * j.m22)) / j.m11 if j.m11 > 0.0 else math.inf
    return StabilityVerdict(
        trace=j.trace,
        det=j.det,
        ode_stable=ode_stable,
        turing_condition_value=j.m11,
        turing=0.0 < j.m11 < p.r_c,  # strict at both boundaries
        critical_diffusivity_ratio=root * root,
    )


def band_edges(p: ModelParams, j: Jacobian2x2) -> tuple[float, float] | None:
    """Roots of a2(xi^2) = 0, the endpoints of the unstable band.

    Cancellation-safe: the larger-magnitude root comes from the quadratic
    formula with the matching sign, the other from the product of roots.
    Returns (lambda_minus, lambda_plus), or None when a2 never becomes
    negative; raises ParameterError when d_b*d_c or an edge is not a
    positive finite float.
    """
    A = p.d_b * p.d_c
    if not 0.0 < A < math.inf:
        raise ParameterError(f"d_b*d_c = {A!r} must be positive and finite")
    B = -(j.m11 * p.d_c + j.m22 * p.d_b)
    C = j.det
    disc = B * B - 4.0 * A * C
    if disc <= 0.0 or B >= 0.0:
        # Complex roots, or both real roots non-positive: a2 > 0 for xi^2 > 0.
        return None
    q = -0.5 * (B - math.sqrt(disc))  # B < 0 here
    lam_plus = q / A
    lam_minus = C / q
    if lam_minus > lam_plus:
        lam_minus, lam_plus = lam_plus, lam_minus
    if lam_plus <= 0.0:
        return None
    if not (math.isfinite(lam_minus) and math.isfinite(lam_plus)):
        raise ParameterError(f"unstable band edges must be finite, got ({lam_minus!r}, {lam_plus!r})")
    return lam_minus, lam_plus


def growth_rate(p: ModelParams, j: Jacobian2x2, xi2):
    """Largest real part among the two roots of lambda^2 + a1*lambda + a2 = 0,
    evaluated _GROWTH_RATE_BLOCK samples at a time, so that the formula's
    temporaries stay one block in size."""
    import numpy as np
    xi2 = np.asarray(xi2, dtype=float)
    samples = xi2.ravel()
    out = np.empty_like(samples)
    for start in range(0, samples.size, _GROWTH_RATE_BLOCK):
        x = samples[start:start + _GROWTH_RATE_BLOCK]
        a1 = -j.trace + (p.d_b + p.d_c) * x
        a2 = j.det - (j.m11 * p.d_c + j.m22 * p.d_b) * x + p.d_b * p.d_c * x**2
        disc = a1 * a1 - 4.0 * a2
        real_roots = 0.5 * (-a1 + np.sqrt(np.maximum(disc, 0.0)))
        complex_roots = -0.5 * a1
        out[start:start + _GROWTH_RATE_BLOCK] = np.where(disc >= 0.0, real_roots, complex_roots)
    if xi2.ndim == 0:
        return float(out[0])
    return out.reshape(xi2.shape)


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
    import numpy as np
    check_count("samples", samples, 2)
    band = band_edges(p, j)
    if xi2_max is not None:
        if not (math.isfinite(xi2_max) and xi2_max > 0.0):
            raise ParameterError(f"xi2_max must be positive and finite, got {xi2_max!r}")
        xi2 = np.linspace(0.0, xi2_max, samples)
    else:
        if band is not None:
            lam_minus, lam_plus = band
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
    return DispersionCurve(xi2_samples=xi2, growth_rates=rates, band=band)
