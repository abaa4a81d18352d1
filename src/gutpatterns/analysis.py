"""Pattern quantification: peak detection and dominant-wavelength extraction.

The spectral path mean-subtracts the bacterial profile, extends it evenly
(reflectively, consistent with Neumann ends) and reads the squared wavenumber
of the strongest nonzero mode, which can then be compared against the
linear-theory unstable band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ParameterError
from .solver import Domain1D, FieldState

CONSTANT_FIELD_RTOL = 1e-14
LOW_VARIANCE_FACTOR = 1e-6  # of beta_ref^2: skip band checking below this
PEAK_THRESHOLD = 0.1  # default peak cut, relative to max(beta)


@dataclass(frozen=True)
class PatternReport:
    peak_count: int
    peak_positions: list[float]
    dominant_xi2: float            # 1/m^2, nan on the low-variance path
    dominant_wavelength: float     # m, = 2*pi/sqrt(dominant_xi2)
    in_predicted_band: bool
    spatial_variance: float        # (units/m^3)^2

    @property
    def patterned(self) -> bool:
        """True when the field shows a genuine multi-spot pattern.

        Requires at least three peaks and a spectral result (fields on the
        low-variance path never count as patterned).
        """
        return self.peak_count >= 3 and not math.isnan(self.dominant_xi2)


def check_threshold(rel_threshold: float) -> None:
    """Raise ParameterError unless 0 < rel_threshold < 1."""
    if not 0.0 < rel_threshold < 1.0:
        raise ParameterError(f"rel_threshold must lie in (0, 1), got {rel_threshold!r}")


def detect_peaks(s: FieldState, dom: Domain1D, rel_threshold: float = PEAK_THRESHOLD):
    """Strict local maxima of beta above rel_threshold * max(beta).

    Plateaus report their midpoint; boundary nodes are eligible via the
    one-sided comparison. Returns (count, positions in m).
    """
    check_threshold(rel_threshold)
    b = np.asarray(s.beta, dtype=float)
    n = b.shape[0]
    x = dom.x()
    peak_max = b.max()
    if peak_max <= 0.0:
        return 0, []
    threshold = rel_threshold * peak_max
    # Runs of equal values: starts[k]..ends[k] is run k, heights[k] its value.
    change = np.flatnonzero(b[1:] != b[:-1])
    if change.size == 0:
        return 0, []  # a run covering the whole grid is constant
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [n - 1]))
    heights = b[starts]
    # A run is a peak when both neighbouring runs are lower; a boundary run
    # has only one neighbour, so the -inf padding stands in for the other.
    padded = np.concatenate(([-np.inf], heights, [-np.inf]))
    peak = (heights > threshold) & (padded[:-2] < heights) & (padded[2:] < heights)
    positions = (0.5 * (x[starts[peak]] + x[ends[peak]])).tolist()
    return len(positions), positions


def dominant_wavelength(s: FieldState, dom: Domain1D) -> tuple[float, float]:
    """(squared wavenumber, wavelength) of the strongest nonzero spatial mode.

    Raises DegenerateSpectrumError on fields constant to 1e-14 relative.
    """
    b = np.asarray(s.beta, dtype=float)
    n = b.shape[0]
    if n < 16:
        raise ParameterError(f"need at least 16 nodes, got {n}")
    scale = max(np.abs(b).max(), 1.0)
    if b.max() - b.min() <= CONSTANT_FIELD_RTOL * scale:
        raise DegenerateSpectrumError("field is constant; no dominant wavelength")
    dev = b - b.mean()
    # even extension: [d0..d_{n-1}, d_{n-2}..d_1], period 2(n-1)*dx
    ext = np.concatenate([dev, dev[-2:0:-1]])
    spectrum = np.abs(np.fft.rfft(ext))
    k = int(np.argmax(spectrum[1:])) + 1
    length = dom.length
    xi = math.pi * k / length
    return xi * xi, 2.0 * math.pi / xi


def spatial_variance(values: np.ndarray) -> float:
    return float(np.var(np.asarray(values, dtype=float)))


def analyze_pattern(
    s: FieldState,
    dom: Domain1D,
    band: tuple[float, float] | None,
    beta_ref: float | None = None,
    rel_threshold: float = PEAK_THRESHOLD,
) -> PatternReport:
    """Full pattern report for one state.

    ``band`` is the predicted unstable interval of squared wavenumbers (None
    when linear theory predicts no instability). When the spatial variance is
    below 1e-6 * beta_ref^2 the field counts as pattern-free: the spectral
    step is skipped and ``in_predicted_band`` is False.
    """
    variance = spatial_variance(s.beta)
    count, positions = detect_peaks(s, dom, rel_threshold)
    low_variance = beta_ref is not None and variance < LOW_VARIANCE_FACTOR * beta_ref**2
    b = np.asarray(s.beta, dtype=float)
    constant = b.max() - b.min() <= CONSTANT_FIELD_RTOL * max(np.abs(b).max(), 1.0)
    if low_variance or constant:
        return PatternReport(
            peak_count=count,
            peak_positions=positions,
            dominant_xi2=math.nan,
            dominant_wavelength=math.nan,
            in_predicted_band=False,
            spatial_variance=variance,
        )
    xi2, wavelength = dominant_wavelength(s, dom)
    in_band = band is not None and band[0] < xi2 < band[1]
    return PatternReport(
        peak_count=count,
        peak_positions=positions,
        dominant_xi2=xi2,
        dominant_wavelength=wavelength,
        in_predicted_band=in_band,
        spatial_variance=variance,
    )


def snapshot_stats(s: FieldState, dom: Domain1D, rel_threshold: float = PEAK_THRESHOLD) -> dict:
    """Per-snapshot row for the time-series output."""
    count, _ = detect_peaks(s, dom, rel_threshold)
    return {
        "t": s.time,
        "beta_variance": spatial_variance(s.beta),
        "gamma_variance": spatial_variance(s.gamma),
        "beta_max": float(np.max(s.beta)),
        "peak_count": count,
    }
