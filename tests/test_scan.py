import numpy as np
import pytest

from gutpatterns import ParameterError, Verdict, classify_point, scan_region
from gutpatterns.params import DEFAULT_THETA
from gutpatterns.scan import F_B_COUPLING, turing_window

CANONICAL_RECT = ((1e-3, 5e-2), (5e-2, 1.0))


def condition_values(base, a, theta=DEFAULT_THETA):
    """(feasible, value) per a: a positive calibrated f_e exists, and M11 at
    the calibrated equilibrium."""
    s = base.s_b / base.b_i
    f_e_kappa = a * F_B_COUPLING * theta / ((s + theta) * (1.0 - theta)) - base.r_b
    value = a * F_B_COUPLING * theta**2 / (s + theta) ** 2 - base.r_b * theta - f_e_kappa
    return f_e_kappa > 0.0, value


def scan_region_reference(base, r_c_range, a_range, resolution, theta=DEFAULT_THETA):
    """The verdict grid built cell by cell from three whole-grid masks."""
    r_c = np.linspace(r_c_range[0], r_c_range[1], resolution[0])
    a = np.linspace(a_range[0], a_range[1], resolution[1])
    feasible, value = condition_values(base, a, theta)
    r_c_col = r_c[:, None]
    verdicts = np.full(resolution, int(Verdict.STABLE_ONLY), dtype=np.int8)
    verdicts[np.broadcast_to(value >= r_c_col, verdicts.shape)] = int(Verdict.ODE_UNSTABLE)
    turing = (value > 0.0) & (value < r_c_col)
    verdicts[np.broadcast_to(turing, verdicts.shape)] = int(Verdict.TURING)
    verdicts[:, ~feasible] = int(Verdict.INFEASIBLE)
    return verdicts


class TestClassifyPoint:
    def test_table1_point_is_turing(self, p_table1):
        assert classify_point(p_table1, 0.02, 0.3129) is Verdict.TURING

    def test_zero_predation_infeasible(self, p_table1):
        assert classify_point(p_table1, 0.02, 0.0) is Verdict.INFEASIBLE

    def test_small_a_infeasible(self, p_table1):
        # calibration needs a*kappa*theta/((s+theta)(1-theta)) > r_b
        assert classify_point(p_table1, 0.02, 0.05) is Verdict.INFEASIBLE

    def test_ode_unstable_cell(self, p_table1):
        # feasible predation but a tiny death rate leaves the trace positive
        assert classify_point(p_table1, 1e-4, 0.3) is Verdict.ODE_UNSTABLE

    def test_stable_only_cell(self, p_table1):
        assert classify_point(p_table1, 0.02, 0.9) is Verdict.STABLE_ONLY


class TestScanRegion:
    def test_shapes_and_full_classification(self, p_table1):
        grid = scan_region(p_table1, (1e-3, 5e-2), (5e-2, 1.0), (40, 50))
        assert grid.verdicts.shape == (40, 50)
        assert set(np.unique(grid.verdicts)) <= {-1, 0, 1, 2}

    def test_matches_scalar_pipeline(self, p_table1):
        grid = scan_region(p_table1, *CANONICAL_RECT, (40, 50))
        scalar = [[int(classify_point(p_table1, r_c, a)) for a in grid.a_axis.tolist()]
                  for r_c in grid.r_c_axis.tolist()]
        np.testing.assert_array_equal(grid.verdicts, np.array(scalar, dtype=np.int8))

    @pytest.mark.parametrize("r_c_range, a_range, resolution, codes", [
        (*CANONICAL_RECT, (40, 50), {-1, 0, 1, 2}),
        (*CANONICAL_RECT, (300, 300), {-1, 0, 1, 2}),
        ((0.02, float(np.nextafter(0.02, 1.0))), CANONICAL_RECT[1], (50, 60), {-1, 1, 2}),
        (CANONICAL_RECT[0], (1e-3, 0.2), (35, 45), {Verdict.INFEASIBLE}),
        (CANONICAL_RECT[0], (0.6, 1.0), (35, 45), {Verdict.STABLE_ONLY}),
    ], ids=["canonical-40x50", "canonical-300x300", "one-ulp-r_c", "all-infeasible", "all-stable-only"])
    def test_matches_mask_reference(self, p_table1, r_c_range, a_range, resolution, codes):
        grid = scan_region(p_table1, r_c_range, a_range, resolution)
        assert grid.verdicts.dtype == np.int8
        assert set(np.unique(grid.verdicts).tolist()) == codes
        np.testing.assert_array_equal(grid.verdicts,
                                      scan_region_reference(p_table1, r_c_range, a_range, resolution))

    def test_r_c_equal_to_a_column_value(self, p_table1):
        # r_c_min and r_c_max are each exactly some column's M11: that column's
        # first (last) row satisfies r_c <= value with equality, so is ODE_UNSTABLE
        a_range, resolution = CANONICAL_RECT[1], (30, 50)
        feasible, value = condition_values(p_table1, np.linspace(*a_range, resolution[1]))
        positive = np.flatnonzero(feasible & (value > 0.0))
        lo, hi = sorted(value[positive[[0, -1]]].tolist())
        grid = scan_region(p_table1, (lo, hi), a_range, resolution)
        assert grid.r_c_axis[0] == lo and grid.r_c_axis[-1] == hi
        np.testing.assert_array_equal(grid.verdicts,
                                      scan_region_reference(p_table1, (lo, hi), a_range, resolution))
        assert grid.verdicts[0, np.flatnonzero(value == lo)[0]] == Verdict.ODE_UNSTABLE
        assert np.all(grid.verdicts[:, np.flatnonzero(value == hi)[0]] == Verdict.ODE_UNSTABLE)

    def test_turing_region_nonempty_and_contains_table1(self, p_table1):
        grid = scan_region(p_table1, (1e-3, 5e-2), (5e-2, 1.0), (50, 96))
        assert np.any(grid.verdicts == int(Verdict.TURING))
        i = int(np.argmin(np.abs(grid.r_c_axis - 0.02)))
        k = int(np.argmin(np.abs(grid.a_axis - 0.3129)))
        assert grid.verdicts[i, k] == int(Verdict.TURING)

    def test_refinement_preserves_coincident_points(self, p_table1):
        coarse = scan_region(p_table1, (1e-3, 5e-2), (5e-2, 1.0), (11, 11))
        fine = scan_region(p_table1, (1e-3, 5e-2), (5e-2, 1.0), (21, 21))
        np.testing.assert_array_equal(coarse.verdicts, fine.verdicts[::2, ::2])

    def test_bad_ranges(self, p_table1):
        with pytest.raises(ParameterError):
            scan_region(p_table1, (0.0, 1e-2), (5e-2, 1.0), (10, 10))
        with pytest.raises(ParameterError):
            scan_region(p_table1, (1e-2, 1e-3), (5e-2, 1.0), (10, 10))
        with pytest.raises(ParameterError):
            scan_region(p_table1, (1e-3, 5e-2), (5e-2, 1.0), (1, 10))
        with pytest.raises(ParameterError, match="r_c_range"):
            scan_region(p_table1, (float("nan"), 5e-2), (5e-2, 1.0), (10, 10))
        with pytest.raises(ParameterError, match="r_c_range"):
            scan_region(p_table1, (1e-3, float("inf")), (5e-2, 1.0), (10, 10))
        with pytest.raises(ParameterError, match="a_range"):
            scan_region(p_table1, (1e-3, 5e-2), (5e-2, float("nan")), (10, 10))


def test_narrow_window_at_small_rc(p_table1):
    a_values = np.linspace(0.05, 1.0, 1500)
    wide = turing_window(p_table1, 0.02, a_values)
    narrow = turing_window(p_table1, 1e-3, a_values)
    assert wide is not None and narrow is not None

    def rel_width(window):
        lo, hi = window
        return (hi - lo) / (0.5 * (hi + lo))

    assert rel_width(narrow) < rel_width(wide)
