"""Pattern quantification: peak detection and dominant-wavelength extraction.

The spectral path mean-subtracts the bacterial profile, extends it evenly
(reflectively, consistent with Neumann ends) and reads the squared wavenumber
of the strongest nonzero mode, which can then be compared against the
linear-theory unstable band.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ParameterError
from .solver import Domain1D, FieldState

FLAT_FIELD_RTOL = 1e-12  # of max|beta|: a field whose range is within this is flat
LOW_VARIANCE_FACTOR = 1e-6  # of beta_ref^2: skip band checking below this
PEAK_THRESHOLD = 0.1  # default peak cut, relative to max(beta)


@dataclass(frozen=True)
class PatternReport:
    """Summary of one state; its fields are the CLI's ``report.json`` keys."""

    peak_count: int
    dominant_xi2: float            # 1/m^2, nan when the field is pattern-free
    dominant_wavelength_m: float   # m, = 2*pi/sqrt(dominant_xi2)
    in_predicted_band: bool
    spatial_variance: float        # (units/m^3)^2

    @property
    def patterned(self) -> bool:
        """True when the field shows a genuine multi-spot pattern.

        Requires at least three peaks and a spectral result (pattern-free
        fields never count as patterned).
        """
        return self.peak_count >= 3 and not math.isnan(self.dominant_xi2)


def _is_flat(b: np.ndarray) -> bool:
    """True when beta's range is round-off: at most FLAT_FIELD_RTOL of max|beta|.

    A flat field has neither peaks nor a dominant wavelength.
    """
    b_max, b_min = b.max(), b.min()
    return b_max - b_min <= FLAT_FIELD_RTOL * max(abs(b_max), abs(b_min))


def _peak_runs(s: FieldState, rel_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(starts, k): the runs of equal beta values that start at ``starts``,
    and the indices ``k`` of the runs that are detect_peaks' peaks; both are
    empty for a field with none. ParameterError unless 0 < rel_threshold < 1."""
    if not 0.0 < rel_threshold < 1.0:
        raise ParameterError(f"rel_threshold must lie in (0, 1), got {rel_threshold!r}")
    b = np.asarray(s.beta, dtype=float)
    peak_max = b.max()
    if peak_max <= 0.0 or _is_flat(b):
        none = np.empty(0, dtype=np.intp)
        return none, none
    threshold = rel_threshold * peak_max
    # Runs of equal values: run k covers starts[k] to starts[k + 1] - 1, and
    # heights[k] is its value; the last of starts is n.
    starts = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1], [True])))
    heights = b[starts[:-1]]
    # A run is a peak when both neighbouring runs are lower; a boundary run
    # has only one neighbour.
    peak = heights > threshold
    peak[1:] &= heights[:-1] < heights[1:]
    peak[:-1] &= heights[1:] < heights[:-1]
    return starts, np.flatnonzero(peak)


def detect_peaks(s: FieldState, dom: Domain1D, rel_threshold: float = PEAK_THRESHOLD):
    """Strict local maxima of beta above rel_threshold * max(beta).

    Plateaus report their midpoint; boundary nodes are eligible via the
    one-sided comparison. A flat field has none, so round-off ripples are
    not peaks. Returns (count, positions in m); ParameterError unless
    0 < rel_threshold < 1.
    """
    starts, k = _peak_runs(s, rel_threshold)
    if not k.size:
        return 0, []
    x = dom.x()
    positions = (0.5 * (x[starts[k]] + x[starts[k + 1] - 1])).tolist()
    return len(positions), positions


def dominant_wavelength(s: FieldState, dom: Domain1D) -> tuple[float, float]:
    """(squared wavenumber, wavelength) of the strongest nonzero spatial mode.

    Raises DegenerateSpectrumError on a flat field.
    """
    b = np.asarray(s.beta, dtype=float)
    n = b.shape[0]
    if n < 16:
        raise ParameterError(f"need at least 16 nodes, got {n}")
    if _is_flat(b):
        raise DegenerateSpectrumError("field is flat; no dominant wavelength")
    # even extension of b - mean: [d0..d_{n-1}, d_{n-2}..d_1], period 2(n-1)*dx
    ext = np.concatenate([b, b[-2:0:-1]])
    ext -= b.mean()
    spectrum = np.fft.rfft(ext)
    del ext  # before the amplitudes are made
    k = int(np.argmax(np.abs(spectrum[1:]))) + 1
    xi = math.pi * k / dom.length
    return xi * xi, 2.0 * math.pi / xi


def analyze_pattern(
    s: FieldState,
    dom: Domain1D,
    band: tuple[float, float] | None,
    beta_ref: float,
    rel_threshold: float = PEAK_THRESHOLD,
) -> PatternReport:
    """Full pattern report for one state.

    ``band`` is the predicted unstable interval of squared wavenumbers (None
    when linear theory predicts no instability). A field whose spatial
    variance is below 1e-6 * beta_ref^2 (beta_ref: the equilibrium beta_bar),
    or that is flat, is pattern-free: its dominant xi^2 and wavelength are
    nan, so it is not in the band.
    """
    variance = float(np.var(s.beta))
    count, _ = detect_peaks(s, dom, rel_threshold)
    xi2 = wavelength = math.nan
    if variance >= LOW_VARIANCE_FACTOR * beta_ref**2:
        with contextlib.suppress(DegenerateSpectrumError):
            xi2, wavelength = dominant_wavelength(s, dom)
    return PatternReport(
        peak_count=count,
        dominant_xi2=xi2,
        dominant_wavelength_m=wavelength,
        in_predicted_band=band is not None and band[0] < xi2 < band[1],  # False for nan
        spatial_variance=variance,
    )


def snapshot_stats(s: FieldState, dom: Domain1D, rel_threshold: float = PEAK_THRESHOLD) -> dict:
    """Per-snapshot row; its keys are the CLI's ``series.csv`` columns. Its
    peak count is detect_peaks', counted without the positions."""
    count = _peak_runs(s, rel_threshold)[1].size
    return {
        "t": s.time,
        "beta_variance": float(np.var(s.beta)),
        "gamma_variance": float(np.var(s.gamma)),
        "beta_max": float(np.max(s.beta)),
        "peak_count": count,
    }
