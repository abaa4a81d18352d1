import math
from dataclasses import replace

import numpy as np
import pytest

from gutpatterns import (
    ConsistencyError,
    Jacobian2x2,
    ParameterError,
    band_edges,
    dispersion,
    growth_rate,
    jacobian,
    ode_stability,
    steady_state,
    turing_classify,
    unstable_band,
    with_calibrated_fe,
)
from tests.test_params import random_params


def a2_coefficient(p, j, xi2):
    """Independent evaluation of the xi^2-quadratic coefficient."""
    return j.det - (j.m11 * p.d_c + j.m22 * p.d_b) * xi2 + p.d_b * p.d_c * xi2**2


def bisect_a2_root(p, j, lo, hi, iters=200):
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if a2_coefficient(p, j, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


class TestJacobian:
    def test_table1_entries(self, jac_table1):
        assert jac_table1.m11 == pytest.approx(1.0335e-2, rel=1e-3)
        assert jac_table1.m12 == pytest.approx(-2.4289e-1, rel=1e-3)
        assert jac_table1.m21 == 2e-3
        assert jac_table1.m22 == -2e-2

    def test_table1_trace_det(self, jac_table1):
        assert jac_table1.det == pytest.approx(2.791e-4, rel=1e-3)
        assert jac_table1.trace == pytest.approx(-9.665e-3, rel=1e-3)

    def test_fixed_entries_random(self, rng):
        for _ in range(50):
            p = random_params(rng)
            j = jacobian(p, steady_state(p))
            assert j.m21 == p.f_b
            assert j.m22 == -p.r_c


class TestOdeStability:
    def test_table1_stable(self, jac_table1):
        v = ode_stability(jac_table1)
        assert v.ode_stable
        assert v.trace < 0

    def test_large_rc_stable(self, p_table1):
        p = with_calibrated_fe(replace(p_table1, r_c=1.0, f_b=0.1), 0.3)
        eq = steady_state(p)
        j = jacobian(p, eq)
        assert ode_stability(j).ode_stable

    def test_zero_trace_not_stable(self):
        j = Jacobian2x2(m11=0.02, m12=-1.0, m21=0.002, m22=-0.02)
        assert j.trace == 0.0
        assert not ode_stability(j).ode_stable

    def test_nonpositive_det_rejected(self):
        j = Jacobian2x2(m11=1.0, m12=0.0, m21=0.0, m22=-1.0)
        with pytest.raises(ConsistencyError):
            ode_stability(j)


class TestTuringClassify:
    def test_table1(self, p_table1, eq_table1, jac_table1):
        v = turing_classify(p_table1, eq_table1, jac_table1)
        assert v.turing_condition_value == pytest.approx(1.033e-2, rel=1e-3)
        assert 0.0 < v.turing_condition_value < p_table1.r_c
        assert v.turing

    def test_no_predation_not_turing(self, p_table1):
        p = replace(p_table1, a=0.0)
        eq = steady_state(p)
        v = turing_classify(p, eq, jacobian(p, eq))
        assert v.turing_condition_value < 0.0
        assert not v.turing

    def test_small_rc_matches_arithmetic(self, p_table1):
        p = with_calibrated_fe(replace(p_table1, r_c=1e-3, f_b=1e-4), 0.3)
        eq = steady_state(p)
        v = turing_classify(p, eq, jacobian(p, eq))
        # independent evaluation of the condition's left side
        kappa = p.f_b / p.r_c
        value = p.a * kappa * eq.beta_bar**2 / (p.s_b + eq.beta_bar) ** 2 \
            - p.r_b * eq.theta - p.f_e * kappa
        assert v.turing_condition_value == pytest.approx(value, rel=1e-12)
        assert v.turing == (0.0 < value < p.r_c)

    def test_identity_and_consistency_random(self, rng):
        for _ in range(300):
            p = random_params(rng)
            eq = steady_state(p)
            j = jacobian(p, eq)
            v = turing_classify(p, eq, j)
            assert v.det > 0.0
            assert abs(v.turing_condition_value - j.m11) <= 1e-9 * abs(j.m11)
            assert v.ode_stable == (v.trace < 0.0)
            if v.turing:
                assert v.ode_stable


class TestDispersion:
    def test_band_matches_sign_change_oracle(self, p_table1, jac_table1):
        lam_minus, lam_plus, nonempty = band_edges(p_table1, jac_table1)
        assert nonempty
        oracle_minus = bisect_a2_root(p_table1, jac_table1, 1.0, math.sqrt(lam_minus * lam_plus))
        # a2 flips back to positive past the band: bisect on the reversed sign
        hi = lam_plus * 1e3
        lo = math.sqrt(lam_minus * lam_plus)
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if a2_coefficient(p_table1, jac_table1, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        oracle_plus = math.sqrt(lo * hi)
        assert lam_minus == pytest.approx(oracle_minus, rel=1e-6)
        assert lam_plus == pytest.approx(oracle_plus, rel=1e-6)

    def test_zero_wavenumber_equals_matrix_eigenvalues(self, p_table1, jac_table1):
        j = jac_table1
        eig = np.linalg.eigvals([[j.m11, j.m12], [j.m21, j.m22]])
        assert growth_rate(p_table1, j, 0.0) == pytest.approx(max(eig.real), abs=1e-12)

    def test_taylor_forms_agree(self, p_table1, jac_table1):
        lam_minus, lam_plus, _ = band_edges(p_table1, jac_table1)
        j = jac_table1
        taylor_minus = j.det / (p_table1.d_c * j.m11)
        taylor_plus = j.m11 / (p_table1.d_c * p_table1.delta)
        assert lam_minus == pytest.approx(taylor_minus, rel=0.02)
        assert lam_plus == pytest.approx(taylor_plus, rel=0.02)

    def test_growth_sign_pattern(self, p_table1, jac_table1):
        curve = dispersion(p_table1, jac_table1)
        band = unstable_band(curve)
        assert band is not None
        inside = (curve.xi2_samples > band[0]) & (curve.xi2_samples < band[1])
        assert np.all(curve.growth_rates[inside] > 0.0)
        # guard against round-off exactly at the edges
        a2 = a2_coefficient(p_table1, jac_table1, curve.xi2_samples[~inside])
        assert np.all(curve.growth_rates[~inside][a2 > 1e-12] <= 0.0)

    def test_equal_diffusivities_no_band(self, p_table1):
        p = replace(p_table1, d_b=p_table1.d_c)
        eq = steady_state(p)
        j = jacobian(p, eq)
        assert unstable_band(dispersion(p, j)) is None

    def test_no_predation_no_band(self, p_table1):
        p = replace(p_table1, a=0.0)
        eq = steady_state(p)
        j = jacobian(p, eq)
        assert unstable_band(dispersion(p, j)) is None

    def test_band_widens_as_delta_shrinks(self, p_table1, jac_table1):
        widths = []
        for factor in (1.0, 0.5, 0.25, 0.1, 0.01):
            p = replace(p_table1, d_b=p_table1.d_b * factor)
            lam_minus, lam_plus, nonempty = band_edges(p, jac_table1)
            assert nonempty
            widths.append(lam_plus - lam_minus)
        assert all(w2 >= w1 for w1, w2 in zip(widths, widths[1:]))

    def test_explicit_xi2_max_sampling(self, p_table1, jac_table1):
        curve = dispersion(p_table1, jac_table1, xi2_max=1e12, samples=64)
        assert curve.xi2_samples[0] == 0.0
        assert curve.xi2_samples[-1] == 1e12
        assert len(curve.xi2_samples) == 64

    @pytest.mark.parametrize("xi2_max", [0.0, -1.0, math.inf, math.nan])
    def test_bad_xi2_max_rejected(self, p_table1, jac_table1, xi2_max):
        with pytest.raises(ParameterError, match="xi2_max"):
            dispersion(p_table1, jac_table1, xi2_max=xi2_max)
