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
from .params import PEAK_THRESHOLD, Domain1D
from .solver import FieldState

FLAT_FIELD_RTOL = 1e-12  # of max|beta|: a field whose range is within this is flat
LOW_VARIANCE_FACTOR = 1e-6  # of beta_ref^2: skip band checking below this


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
    """(first, last): bool masks of the first and the last node of each run of
    equal beta values that is one of detect_peaks' peaks; both are empty for a
    field with none. ParameterError unless 0 < rel_threshold < 1."""
    if not 0.0 < rel_threshold < 1.0:
        raise ParameterError(f"rel_threshold must lie in (0, 1), got {rel_threshold!r}")
    b = np.asarray(s.beta, dtype=float)
    peak_max = b.max()
    if not peak_max > 0.0 or _is_flat(b):  # a NaN max is no peak either
        none = np.zeros(0, dtype=bool)
        return none, none
    threshold = rel_threshold * peak_max
    # Byte masks over the n - 1 neighbour pairs, kept only where the value
    # changes: the j-th change starts run j + 1, and run 0 starts at node 0.
    # A field left here is finite (an infinity makes it flat) and not constant,
    # so it changes at least once.
    left, right = b[:-1], b[1:]
    peak = right > left  # so far: the field rises into the run
    fall = right < left
    change = peak | fall
    peak, fall = peak[change], fall[change]
    # Run j + 1 is a peak when the field rises into it, falls out of it (or
    # ends) and it lies above the cut; run 0 needs only the fall.
    peak &= (right > threshold)[change]
    peak[:-1] &= fall[1:]
    head = bool(b[0] > threshold and fall[0])
    del fall
    # Back onto the nodes: run j + 1 starts after change j, and run j ends at it.
    first = np.zeros(b.size, dtype=bool)
    first[0] = head
    first[1:][change] = peak
    last = np.zeros(b.size, dtype=bool)
    last[-1] = peak[-1]
    peak[1:] = peak[:-1]
    peak[0] = head
    last[:-1][change] = peak
    return first, last


def detect_peaks(s: FieldState, dom: Domain1D, rel_threshold: float = PEAK_THRESHOLD):
    """Strict local maxima of beta above rel_threshold * max(beta).

    Plateaus report their midpoint; boundary nodes are eligible via the
    one-sided comparison. A flat field has none, so round-off ripples are
    not peaks. Returns (count, positions in m as a float64 array);
    ParameterError unless 0 < rel_threshold < 1.
    """
    first, last = _peak_runs(s, rel_threshold)
    first, last = np.flatnonzero(first), np.flatnonzero(last)
    if not first.size:
        return 0, np.zeros(0)
    x = dom.x()
    positions = x[first]
    positions += x[last]
    positions *= 0.5
    return first.size, positions


def _median_gap(positions: np.ndarray) -> float:
    """Median gap between neighbouring sorted positions; nan for fewer than 2."""
    # sorted in Python: np.sort here raised the canonical run's peak RSS by ~0.3 MB
    gaps = sorted(np.diff(positions).tolist())
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
    count = np.count_nonzero(_peak_runs(s, rel_threshold)[0])
    return {
        "t": s.time,
        "beta_variance": float(np.var(s.beta)),
        "gamma_variance": float(np.var(s.gamma)),
        "beta_max": float(np.max(s.beta)),
        "peak_count": count,
    }
