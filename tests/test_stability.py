import math
from dataclasses import replace

import numpy as np
import pytest

from gutpatterns import stability
from gutpatterns import (
    ConsistencyError,
    Jacobian2x2,
    ParameterError,
    band_edges,
    calibrate_fe,
    dispersion,
    growth_rate,
    jacobian,
    ode_stability,
    steady_state,
    turing_classify,
)
from tests.test_params import random_params


def condition_value(p, eq):
    """The paper's Turing condition value, which equals M11 at the equilibrium."""
    kappa = p.f_b / p.r_c
    return p.a * kappa * eq.beta_bar**2 / (p.s_b + eq.beta_bar) ** 2 - p.r_b * eq.theta - p.f_e * kappa


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
        assert ode_stability(jac_table1)
        assert jac_table1.trace < 0

    def test_large_rc_stable(self, p_table1):
        p = replace(p_table1, r_c=1.0, f_b=0.1)
        p = replace(p, f_e=calibrate_fe(p, 0.3))
        eq = steady_state(p)
        j = jacobian(p, eq)
        assert ode_stability(j)

    def test_zero_trace_not_stable(self):
        j = Jacobian2x2(m11=0.02, m12=-1.0, m21=0.002, m22=-0.02)
        assert j.trace == 0.0
        assert not ode_stability(j)

    def test_nonpositive_det_rejected(self):
        j = Jacobian2x2(m11=1.0, m12=0.0, m21=0.0, m22=-1.0)
        with pytest.raises(ConsistencyError):
            ode_stability(j)


class TestTuringClassify:
    def test_table1(self, p_table1, jac_table1):
        v = turing_classify(p_table1, jac_table1)
        assert v.turing_condition_value == pytest.approx(1.033e-2, rel=1e-3)
        assert 0.0 < v.turing_condition_value < p_table1.r_c
        assert v.turing

    def test_no_predation_not_turing(self, p_table1):
        p = replace(p_table1, a=0.0)
        v = turing_classify(p, jacobian(p, steady_state(p)))
        assert v.turing_condition_value < 0.0
        assert not v.turing
        # with M11 <= 0 no diffusivity ratio opens a band
        assert v.critical_diffusivity_ratio == math.inf
        assert band_edges(replace(p, d_c=p.d_b * 1e12), jacobian(p, steady_state(p))) is None

    def test_small_rc_matches_arithmetic(self, p_table1):
        p = replace(p_table1, r_c=1e-3, f_b=1e-4)
        p = replace(p, f_e=calibrate_fe(p, 0.3))
        eq = steady_state(p)
        v = turing_classify(p, jacobian(p, eq))
        value = condition_value(p, eq)  # independent of M11's formula
        assert v.turing_condition_value == pytest.approx(value, rel=1e-12)
        assert v.turing == (0.0 < value < p.r_c)

    def test_critical_diffusivity_ratio_is_band_onset(self, p_table1, jac_table1):
        ratio = turing_classify(p_table1, jac_table1).critical_diffusivity_ratio
        assert ratio == pytest.approx(14.053424, rel=1e-7)
        below, above = (replace(p_table1, d_c=p_table1.d_b * ratio * (1.0 + eps)) for eps in (-1e-6, 1e-6))
        assert band_edges(below, jac_table1) is None
        # just above onset the band is a narrow one around sqrt(det/(d_b*d_c))
        lam_minus, lam_plus = band_edges(above, jac_table1)
        xi2_c = math.sqrt(jac_table1.det / (above.d_b * above.d_c))
        assert lam_minus < xi2_c < lam_plus < 1.01 * lam_minus

    def test_critical_diffusivity_ratio_random(self, rng):
        for _ in range(300):
            p = random_params(rng)
            j = jacobian(p, steady_state(p))
            ratio = turing_classify(p, j).critical_diffusivity_ratio
            if j.m11 <= 0.0:
                assert ratio == math.inf
                continue
            assert band_edges(replace(p, d_c=p.d_b * ratio * (1.0 - 1e-6)), j) is None
            assert band_edges(replace(p, d_c=p.d_b * ratio * (1.0 + 1e-6)), j) is not None

    def test_identity_and_consistency_random(self, rng):
        for _ in range(300):
            p = random_params(rng)
            eq = steady_state(p)
            j = jacobian(p, eq)
            v = turing_classify(p, j)
            assert v.det > 0.0
            assert v.turing_condition_value == j.m11
            assert abs(condition_value(p, eq) - j.m11) <= 1e-9 * abs(j.m11)
            assert v.ode_stable == (v.trace < 0.0)
            if v.turing:
                assert v.ode_stable


class TestDispersion:
    def test_band_matches_sign_change_oracle(self, p_table1, jac_table1):
        lam_minus, lam_plus = band_edges(p_table1, jac_table1)
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

    # growth_rate evaluates an array a block at a time; each sample must come
    # out bit for bit as the whole-array formula gives it, on both sides of
    # disc = 0 (complex roots below xi2 ~ 1.4e8 for Table 1, real above)
    @pytest.mark.parametrize("xi2", [
        0.0, 1e6, 6.68e9, 1e13,
        np.geomspace(1e3, 1e15, 2 * stability._GROWTH_RATE_BLOCK + 3),
        np.geomspace(1e3, 1e15, 30).reshape(3, 10),
    ], ids=["zero", "complex", "peak", "real", "three-blocks", "2-d"])
    def test_growth_rate_matches_whole_array_formula(self, p_table1, jac_table1, xi2):
        p, j = p_table1, jac_table1
        x = np.asarray(xi2, dtype=float)
        a1 = -j.trace + (p.d_b + p.d_c) * x
        a2 = j.det - (j.m11 * p.d_c + j.m22 * p.d_b) * x + p.d_b * p.d_c * x**2
        disc = a1 * a1 - 4.0 * a2
        expected = np.where(disc >= 0.0, 0.5 * (-a1 + np.sqrt(np.maximum(disc, 0.0))), -0.5 * a1)
        rates = growth_rate(p, j, xi2)
        if x.ndim == 0:
            assert type(rates) is float and rates == float(expected)
        else:
            assert (disc < 0.0).any() and (disc >= 0.0).any()
            assert rates.shape == x.shape and rates.tobytes() == expected.tobytes()

    def test_taylor_forms_agree(self, p_table1, jac_table1):
        lam_minus, lam_plus = band_edges(p_table1, jac_table1)
        j = jac_table1
        taylor_minus = j.det / (p_table1.d_c * j.m11)
        taylor_plus = j.m11 / p_table1.d_b
        assert lam_minus == pytest.approx(taylor_minus, rel=0.02)
        assert lam_plus == pytest.approx(taylor_plus, rel=0.02)

    def test_growth_sign_pattern(self, p_table1, jac_table1):
        curve = dispersion(p_table1, jac_table1)
        assert curve.band == band_edges(p_table1, jac_table1)
        lam_minus, lam_plus = curve.band
        inside = (curve.xi2_samples > lam_minus) & (curve.xi2_samples < lam_plus)
        assert np.all(curve.growth_rates[inside] > 0.0)
        # guard against round-off exactly at the edges
        a2 = a2_coefficient(p_table1, jac_table1, curve.xi2_samples[~inside])
        assert np.all(curve.growth_rates[~inside][a2 > 1e-12] <= 0.0)

    def test_equal_diffusivities_no_band(self, p_table1):
        p = replace(p_table1, d_b=p_table1.d_c)
        eq = steady_state(p)
        j = jacobian(p, eq)
        assert band_edges(p, j) is None
        assert dispersion(p, j).band is None

    def test_no_predation_no_band(self, p_table1):
        p = replace(p_table1, a=0.0)
        eq = steady_state(p)
        j = jacobian(p, eq)
        assert band_edges(p, j) is None
        assert dispersion(p, j).band is None

    def test_band_widens_as_delta_shrinks(self, p_table1, jac_table1):
        widths = []
        for factor in (1.0, 0.5, 0.25, 0.1, 0.01):
            p = replace(p_table1, d_b=p_table1.d_b * factor)
            lam_minus, lam_plus = band_edges(p, jac_table1)
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
