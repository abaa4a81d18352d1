"""Pattern quantification: peak detection and the median peak spacing.

The median gap between neighbouring peaks gives the squared wavenumber
(2*pi/spacing)^2, which can then be compared against the linear-theory
unstable band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .solver import Domain1D, FieldState

FLAT_FIELD_RTOL = 1e-12  # of max|beta|: a field whose range is within this is flat
LOW_VARIANCE_FACTOR = 1e-6  # of beta_ref^2: skip band checking below this
PEAK_THRESHOLD = 0.1  # default peak cut, relative to max(beta)


@dataclass(frozen=True)
class PatternReport:
    """Summary of one state; its fields are the CLI's ``report.json`` keys."""

    peak_count: int
    median_spacing_m: float        # m, nan when pattern-free or below 2 peaks
    in_predicted_band: bool        # (2*pi/median_spacing_m)^2 inside the band
    spatial_variance: float        # (units/m^3)^2

    @property
    def patterned(self) -> bool:
        """True when the field shows a genuine multi-spot pattern.

        Requires at least three peaks and a median spacing (pattern-free
        fields never count as patterned).
        """
        return self.peak_count >= 3 and not math.isnan(self.median_spacing_m)


def _is_flat(b: np.ndarray) -> bool:
    """True when beta's range is round-off: at most FLAT_FIELD_RTOL of max|beta|.

    A flat field has no peaks.
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


def _median_gap(positions: list[float]) -> float:
    """Median gap between neighbouring sorted positions; nan for fewer than 2."""
    gaps = sorted(right - left for left, right in zip(positions, positions[1:]))
    if not gaps:
        return math.nan
    mid = len(gaps) // 2
    return gaps[mid] if len(gaps) % 2 else 0.5 * (gaps[mid - 1] + gaps[mid])


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
    or that is flat, is pattern-free: its median peak spacing is nan, as it
    is with fewer than 2 peaks, and a nan spacing is not in the band.
    """
    variance = float(np.var(s.beta))
    count, positions = detect_peaks(s, dom, rel_threshold)
    spacing = _median_gap(positions) if variance >= LOW_VARIANCE_FACTOR * beta_ref**2 else math.nan
    xi = 2.0 * math.pi / spacing
    return PatternReport(
        peak_count=count,
        median_spacing_m=spacing,
        in_predicted_band=band is not None and band[0] < xi * xi < band[1],  # False for nan
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
