import math
from dataclasses import replace

import numpy as np
import pytest

from gutpatterns import (
    CalibrationError,
    ModelParams,
    ParameterError,
    calibrate_fe,
    steady_state,
)
from gutpatterns.params import _equilibrium_residual, _quadratic_root
from tests.conftest import reaction

REL_TOL_ROOT = 1e-12       # bisection convergence, relative
REL_TOL_CROSSCHECK = 1e-9  # bisection vs closed-form agreement


def bisection_root(p):
    """The residual's root in (0, 1) by bisection: the residual is strictly
    decreasing, positive at 0+ and negative at 1."""
    lo, hi = 0.0, 1.0
    while hi - lo > REL_TOL_ROOT * hi:
        mid = 0.5 * (lo + hi)
        if _equilibrium_residual(p, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_params(rng):
    def lu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return ModelParams(
        r_b=lu(1e-3, 1e-1), r_c=lu(1e-3, 1e-1),
        d_b=lu(1e-14, 1e-10), d_c=lu(1e-11, 1e-9),
        b_i=lu(1e16, 1e18), f_b=lu(1e-4, 1e-2),
        a=lu(1e-2, 1.0), s_b=lu(1e13, 1e16), f_e=lu(1e-3, 1.0),
    )


class TestModelParams:
    def test_table1_derived_quantities(self, p_table1):
        assert p_table1.kappa == pytest.approx(0.1)

    @pytest.mark.parametrize("name", ["r_c", "d_b", "d_c", "b_i", "f_b", "s_b"])
    def test_strictly_positive_fields(self, name):
        kwargs = dict(r_b=0.03, r_c=0.02, d_b=1e-13, d_c=1e-10, b_i=1e17,
                      f_b=2e-3, a=0.3, s_b=1e15, f_e=0.08)
        kwargs[name] = 0.0
        with pytest.raises(ParameterError, match=name):
            ModelParams(**kwargs)

    def test_scaled_saturation_underflow_rejected(self):
        # s_b and b_i are each positive, but s = s_b/b_i underflows to 0
        with pytest.raises(ParameterError, match=r"s_b/b_i must be positive, got 5e-324/1e\+17 = 0\.0"):
            ModelParams(r_b=0.03, r_c=0.02, d_b=1e-13, d_c=1e-10, b_i=1e17,
                        f_b=2e-3, a=0.3, s_b=5e-324, f_e=0.08)

    def test_scaled_saturation_overflow_rejected(self):
        # s_b and b_i are each finite, but s = s_b/b_i overflows to inf
        with pytest.raises(ParameterError, match=r"s_b/b_i must be finite, got 1e\+16/5e-324 = inf"):
            ModelParams(r_b=0.03, r_c=0.02, d_b=1e-13, d_c=1e-10, b_i=5e-324,
                        f_b=2e-3, a=0.3, s_b=1e16, f_e=0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams(r_b=math.nan, r_c=0.02, d_b=1e-13, d_c=1e-10, b_i=1e17,
                        f_b=2e-3, a=0.3, s_b=1e15, f_e=0.08)


def scaled_reaction(p, b, g):
    """The conftest oracle at Table 1's rates, on fields scaled by b_i."""
    return reaction(b, g, p.r_b, p.a, p.s, p.f_e, p.f_b, p.r_c)


class TestReactionTerms:
    def test_trivial_equilibrium(self, p_table1):
        assert scaled_reaction(p_table1, 0.0, 0.0) == (0.0, 0.0)

    def test_positive_equilibrium_vanishes(self, p_table1, eq_table1):
        theta = eq_table1.theta
        dbeta, dgamma = scaled_reaction(p_table1, theta, p_table1.kappa * theta)
        # scale by the magnitude of the individual reaction terms
        term_scale = p_table1.r_b * 0.7 * theta
        assert abs(dbeta) < 1e-9 * term_scale
        assert abs(dgamma) < 1e-9 * p_table1.f_b * theta

    def test_no_phagocytes(self, p_table1):
        # hand evaluation: r_b*(1-0.01)*0.01 and f_b*0.01
        dbeta, dgamma = scaled_reaction(p_table1, 0.01, 0.0)
        assert dbeta == pytest.approx(3.43530e-4, rel=1e-4)
        assert dgamma == pytest.approx(2e-5, rel=1e-12)


class TestSteadyState:
    def test_table1(self, p_table1, eq_table1):
        assert eq_table1.beta_bar == pytest.approx(3.0e16, rel=1e-6)
        assert eq_table1.gamma_bar == pytest.approx(3.0e15, rel=1e-6)
        assert eq_table1.theta == pytest.approx(0.3, rel=1e-6)
        assert eq_table1.gamma_bar == p_table1.kappa * eq_table1.beta_bar

    def test_no_predation_limit(self, p_table1):
        p = replace(p_table1, a=0.0)
        eq = steady_state(p)
        assert eq.beta_bar == p.b_i
        assert eq.theta == 1.0

    def test_residual_small(self, p_table1, eq_table1):
        res = _equilibrium_residual(p_table1, eq_table1.theta)
        assert abs(res) / (p_table1.r_b + p_table1.f_e * p_table1.kappa) < 1e-10

    def test_randomized_interior_root(self, rng):
        for _ in range(200):
            p = random_params(rng)
            eq = steady_state(p)
            assert 0.0 < eq.beta_bar < p.b_i
            x_bis, x_quad = bisection_root(p), _quadratic_root(p)
            assert abs(x_bis - x_quad) <= REL_TOL_CROSSCHECK * max(x_bis, x_quad)
            assert abs(x_bis - eq.theta) <= REL_TOL_CROSSCHECK * max(x_bis, eq.theta)
            res = _equilibrium_residual(p, eq.theta)
            assert abs(res) / (p.r_b + p.f_e * p.kappa) < 1e-10

    def test_residual_strictly_decreasing(self, p_table1, rng):
        xs = np.sort(rng.uniform(1e-6, 1.0 - 1e-6, 64))
        vals = [_equilibrium_residual(p_table1, x) for x in xs]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


class TestCalibration:
    def test_published_value(self, p_table1):
        f_e = calibrate_fe(p_table1, 0.3)
        assert f_e == pytest.approx(0.0856, rel=5e-3)

    def test_back_substitution_residual(self, p_table1):
        p = replace(p_table1, f_e=calibrate_fe(p_table1, 0.3))
        res = _equilibrium_residual(p, 0.3)
        assert abs(res) / (p.r_b + p.f_e * p.kappa) < 1e-12

    def test_infeasible_without_predation(self, p_table1):
        p = replace(p_table1, a=0.0)
        with pytest.raises(CalibrationError):
            calibrate_fe(p, 0.3)

    def test_round_trip(self, rng):
        for _ in range(50):
            p = random_params(rng)
            theta = float(rng.uniform(0.05, 0.9))
            try:
                q = replace(p, f_e=calibrate_fe(p, theta))
            except CalibrationError:
                continue
            eq = steady_state(q)
            assert eq.theta == pytest.approx(theta, abs=1e-9)

    def test_theta_out_of_range(self, p_table1):
        with pytest.raises(ParameterError):
            calibrate_fe(p_table1, 0.0)
        with pytest.raises(ParameterError):
            calibrate_fe(p_table1, 1.0)

