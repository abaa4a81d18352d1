import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gutpatterns import (
    Domain1D,
    FieldState,
    ParameterError,
    analyze_pattern,
    detect_peaks,
)
from gutpatterns.analysis import FLAT_FIELD_RTOL, _is_flat, snapshot_stats


def field(beta, gamma=None):
    beta = np.asarray(beta, dtype=float)
    if gamma is None:
        gamma = np.zeros_like(beta)
    return FieldState(time=0.0, beta=beta, gamma=gamma)


def detect_peaks_loop(b: np.ndarray, x: np.ndarray, rel_threshold: float):
    """Element-by-element peak scan: the reference for detect_peaks."""
    n = b.shape[0]
    peak_max = b.max()
    if peak_max <= 0.0 or peak_max - b.min() <= FLAT_FIELD_RTOL * peak_max:
        return 0, []
    threshold = rel_threshold * peak_max
    positions = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and b[j + 1] == b[i]:
            j += 1
        # run of equal values on [i, j]
        left_lower = i > 0 and b[i - 1] < b[i]
        right_lower = j < n - 1 and b[j + 1] < b[i]
        left_ok = left_lower or i == 0
        right_ok = right_lower or j == n - 1
        interior_run = i > 0 or j < n - 1  # a run covering the whole grid is constant
        if b[i] > threshold and left_ok and right_ok and interior_run and (left_lower or right_lower):
            positions.append(0.5 * (x[i] + x[j]))
        i = j + 1
    return len(positions), positions


def detect_peaks_run_starts(b: np.ndarray, x: np.ndarray, rel_threshold: float):
    """Peaks from the start of every run of equal values: the reference that
    detect_peaks' byte masks replaced."""
    peak_max = b.max()
    if peak_max <= 0.0 or _is_flat(b):
        return 0, []
    # run k covers starts[k] to starts[k + 1] - 1, and heights[k] is its value
    starts = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1], [True])))
    heights = b[starts[:-1]]
    # a run is a peak when both neighbouring runs are lower; a boundary run
    # has only one neighbour
    peak = heights > rel_threshold * peak_max
    peak[1:] &= heights[:-1] < heights[1:]
    peak[:-1] &= heights[1:] < heights[:-1]
    k = np.flatnonzero(peak)
    positions = (0.5 * (x[starts[k]] + x[starts[k + 1] - 1])).tolist()
    return len(positions), positions


@st.composite
def peak_cases(draw):
    """(beta, rel_threshold): short fields rich in plateaus and edge cases."""
    n = draw(st.integers(16, 59))
    kind = draw(st.sampled_from(["plateaus", "plateaus", "floats", "flat"]))
    if kind == "plateaus":
        # integer levels in runs of up to n / 2 nodes, so long plateaus and
        # plateaus at either wall both occur
        levels = st.integers(-2, 4).map(float)
        runs = draw(st.lists(st.tuples(levels, st.integers(1, n // 2)), min_size=1, max_size=n))
        beta = np.repeat([v for v, _ in runs], [k for _, k in runs])[:n]
        beta = np.concatenate((beta, np.full(n - beta.size, beta[-1])))
    elif kind == "floats":
        beta = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    else:
        # a constant, or a range of 0.5 to 2 FLAT_FIELD_RTOL of max|beta|
        beta = np.full(n, draw(st.sampled_from([-1.0, 0.0, 2.5, 3e16])))
        ripple = draw(st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0])) * FLAT_FIELD_RTOL
        beta[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))] *= 1.0 + ripple
    rel = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    below = beta[(beta > 0.0) & (beta < beta.max())]
    if below.size and draw(st.booleans()):
        # a threshold equal to a value of the field: rel * max gives that
        # value back exactly where max is a power of two, as 1, 2 and 4 are
        rel = draw(st.sampled_from(below.tolist())) / beta.max()
    if draw(st.sampled_from([False, False, False, True])):
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            beta[i] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return beta, rel


def plateau_rich_fields(rng, n):
    """Profiles full of ties: few levels, runs, constants and edge maxima."""
    yield rng.integers(0, 3, n).astype(float)
    yield rng.integers(-3, 4, n) * 0.25
    yield np.repeat(rng.integers(0, 6, n), rng.integers(1, 9, n))[:n].astype(float)
    yield np.full(n, 2.5)
    yield np.zeros(n)
    edges = rng.integers(0, 4, n).astype(float)
    edges[[0, -1]] = 4.0
    yield edges
    edges = np.repeat(rng.integers(0, 4, n), 3)[:n].astype(float)
    edges[:5] = edges[-5:] = 4.0
    yield edges
    yield rng.uniform(0.0, 1.0, n)


class TestDetectPeaks:
    @pytest.mark.parametrize("n", [16, 17, 64, 1001, 30000])
    def test_matches_loop_reference(self, rng, n):
        dom = Domain1D(length=0.03, n_points=n)
        for beta in plateau_rich_fields(rng, n):
            for rel in (0.1, 0.5, 0.9):
                count, positions = detect_peaks(field(beta), dom, rel)
                expected_count, expected_positions = detect_peaks_loop(beta, dom.x(), rel)
                assert type(count) is int and count == expected_count
                assert positions.dtype == np.float64 and np.array_equal(positions, expected_positions)

    @settings(max_examples=400, deadline=None, database=None)
    @given(case=peak_cases())
    def test_matches_run_start_reference(self, case):
        beta, rel = case
        dom = Domain1D(length=1.0, n_points=beta.size)
        count, positions = detect_peaks_run_starts(beta, dom.x(), rel)
        got_count, got_positions = detect_peaks(field(beta), dom, rel)
        assert got_count == count and np.array_equal(got_positions, positions)
        with np.errstate(invalid="ignore"):  # the variances of a field with an infinity
            assert snapshot_stats(field(beta), dom, rel)["peak_count"] == count

    def test_constant_field(self):
        dom = Domain1D(length=1.0, n_points=100)
        count, positions = detect_peaks(field(np.full(100, 5.0)), dom)
        assert count == 0
        assert np.array_equal(positions, [])

    @pytest.mark.parametrize("ripple,count", [(0.5 * FLAT_FIELD_RTOL, 0), (2.0 * FLAT_FIELD_RTOL, 2)])
    def test_round_off_ripple_is_not_a_peak(self, ripple, count):
        # two maxima of height ripple * max(beta) above an otherwise flat field
        dom = Domain1D(length=1.0, n_points=64)
        beta = np.full(64, 3e16)
        beta[[10, 40]] *= 1.0 + ripple
        assert detect_peaks(field(beta), dom)[0] == count
        assert detect_peaks_loop(beta, dom.x(), 0.1)[0] == count

    def test_synthetic_cosine_train(self):
        # five full periods, phase-shifted so every maximum is interior
        lam = 0.2
        dom = Domain1D(length=1.0, n_points=2001)
        x = dom.x()
        beta = 2.0 + np.cos(2.0 * np.pi * (x - lam / 2.0) / lam)
        count, positions = detect_peaks(field(beta), dom, 0.1)
        assert count == 5
        expected = lam / 2.0 + lam * np.arange(5)
        np.testing.assert_allclose(positions, expected, atol=dom.dx)
        spacings = np.diff(positions)
        np.testing.assert_allclose(spacings, lam, atol=dom.dx)

    def test_plateau_midpoint(self):
        dom = Domain1D(length=1.0, n_points=101)
        beta = np.zeros(101)
        beta[40:61] = 1.0  # flat top over x in [0.40, 0.60]
        count, positions = detect_peaks(field(beta), dom, 0.1)
        assert count == 1
        assert positions[0] == pytest.approx(0.5, abs=1e-12)

    def test_boundary_peak_one_sided(self):
        dom = Domain1D(length=1.0, n_points=101)
        beta = np.linspace(1.0, 0.0, 101)
        count, positions = detect_peaks(field(beta), dom, 0.1)
        assert count == 1
        assert positions[0] == 0.0

    def test_scale_invariance(self, rng):
        dom = Domain1D(length=1.0, n_points=500)
        beta = rng.uniform(0.0, 1.0, 500)
        c1, p1 = detect_peaks(field(beta), dom, 0.3)
        c2, p2 = detect_peaks(field(beta * 1e17), dom, 0.3)
        assert c1 == c2
        assert np.array_equal(p1, p2)

    def test_threshold_validation(self):
        dom = Domain1D(length=1.0, n_points=100)
        with pytest.raises(ParameterError):
            detect_peaks(field(np.ones(100)), dom, 1.5)


class TestSnapshotStats:
    def test_counts_peaks_without_positions(self, rng, monkeypatch):
        # the count is detect_peaks', but no node position is made for it
        n = 1001
        dom = Domain1D(length=0.03, n_points=n)
        cases = [(beta, rel, detect_peaks(field(beta), dom, rel)[0])
                 for beta in plateau_rich_fields(rng, n) for rel in (0.1, 0.5, 0.9)]
        counts = {count for *_, count in cases}
        assert 0 in counts and max(counts) > 1

        def no_x(self):
            raise AssertionError("x was built")

        monkeypatch.setattr(Domain1D, "x", no_x)
        for beta, rel, count in cases:
            assert snapshot_stats(field(beta), dom, rel)["peak_count"] == count

    def test_threshold_validation(self):
        dom = Domain1D(length=1.0, n_points=100)
        with pytest.raises(ParameterError):
            snapshot_stats(field(np.ones(100)), dom, 1.5)


# In units of the field's 8n bytes at n = 100000, the traced peak reads 1.00
# for snapshot_stats, np.var's one temporary, and 1.03 for detect_peaks, whose
# node positions are most of it; with an intp array of run starts and a float
# array of run heights both read 2.25. At one peak in 7 nodes, the canonical
# run's density, detect_peaks reads 1.57 with its positions in an array and
# 2.00 with them in a list of Python floats.
@pytest.mark.parametrize("stat, period, bound",
                         [(snapshot_stats, 7e-5, 1.25), (detect_peaks, 7e-5, 1.4),
                          (detect_peaks, 7 * 0.03 / 99999, 1.7)],
                         ids=["snapshot_stats", "detect_peaks", "detect_peaks_dense"])
def test_traced_peak_in_field_sizes(stat, period, bound):
    n = 100000
    dom = Domain1D(length=0.03, n_points=n)
    # 430 peaks 70 um apart, or 14286 peaks 7 nodes apart
    state = field(1e16 * (1.5 + np.cos(2.0 * np.pi * dom.x() / period)))
    tracemalloc.start()
    try:
        stat(state, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n) < bound


class TestMedianSpacing:
    @pytest.mark.parametrize("k", [2, 7, 10, 40])
    def test_single_mode_recovery(self, k):
        # each maximum of a Neumann-compatible cosine mode is read at its nearest node
        dom = Domain1D(length=1.0, n_points=512)
        lam = 2.0 * dom.length / k
        beta = 3.0 * (1.0 + np.cos(2.0 * np.pi * dom.x() / lam))
        report = analyze_pattern(field(beta), dom, band=None, beta_ref=3.0)
        assert report.peak_count == k // 2 + 1
        assert report.median_spacing_m == pytest.approx(lam, abs=dom.dx)

    # gaps in node order, with their median and mean (dx = 0.01): the median
    # is taken over the sorted gaps, not the middle ones in node order
    @pytest.mark.parametrize("nodes,median,mean", [
        ((10, 20, 50, 60), 0.1, 0.5 / 3.0),         # 3 gaps: 0.1, 0.3, 0.1
        ((10, 20, 40, 70, 80), 0.15, 0.175),        # 4 gaps: 0.1, 0.2, 0.3, 0.1
    ], ids=["odd_gaps", "even_gaps"])
    def test_median_of_unequal_gaps(self, nodes, median, mean):
        dom = Domain1D(length=1.0, n_points=101)
        xi2 = (2.0 * np.pi / median) ** 2
        band = (0.9 * xi2, 1.1 * xi2)  # holds the median's xi^2, not the mean's
        assert not band[0] < (2.0 * np.pi / mean) ** 2 < band[1]
        beta = np.zeros(101)
        beta[list(nodes)] = 1.0  # one peak at each of nodes
        report = analyze_pattern(field(beta), dom, band, beta_ref=1.0)
        assert report.peak_count == len(nodes)
        assert report.median_spacing_m == pytest.approx(median, rel=1e-12)
        assert report.in_predicted_band
        assert report.patterned

    @pytest.mark.parametrize("beta,beta_ref", [
        (np.full(101, 2.0), 0.0),            # flat: 0 peaks (beta_ref 0 passes the variance guard)
        (np.linspace(1.0, 0.0, 101), 1.0),   # a ramp: 1 peak, at the boundary
    ], ids=["no_peaks", "one_peak"])
    def test_fewer_than_two_peaks_is_nan(self, beta, beta_ref):
        dom = Domain1D(length=1.0, n_points=101)
        report = analyze_pattern(field(beta), dom, band=(0.0, math.inf), beta_ref=beta_ref)
        assert report.peak_count == detect_peaks(field(beta), dom)[0] < 2
        assert math.isnan(report.median_spacing_m)
        assert not report.in_predicted_band
        assert not report.patterned


class TestAnalyzePattern:
    def test_patterned_field(self):
        dom = Domain1D(length=1.0, n_points=1001)  # every maximum on a node
        x = dom.x()
        beta = 2.0 + np.cos(2.0 * np.pi * (x - 0.05) / 0.1)
        xi2 = (2.0 * np.pi / 0.1) ** 2
        report = analyze_pattern(field(beta), dom, band=(0.5 * xi2, 2.0 * xi2), beta_ref=2.0)
        assert report.peak_count == 10
        assert report.in_predicted_band
        assert report.patterned
        assert report.median_spacing_m == pytest.approx(0.1)

    def test_low_variance_path(self):
        dom = Domain1D(length=1.0, n_points=1024)
        beta = 1e16 * (1.0 + 1e-8 * np.cos(20.0 * np.pi * dom.x()))
        report = analyze_pattern(field(beta), dom, band=(1.0, 1e6), beta_ref=1e16)
        assert math.isnan(report.median_spacing_m)
        assert not report.in_predicted_band
        assert not report.patterned

    def test_no_band_means_not_in_band(self):
        dom = Domain1D(length=1.0, n_points=1024)
        beta = 2.0 + np.cos(20.0 * np.pi * dom.x())
        report = analyze_pattern(field(beta), dom, band=None, beta_ref=2.0)
        assert not report.in_predicted_band
