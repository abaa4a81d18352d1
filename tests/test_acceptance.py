"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavy simulations are shared session fixtures that also record
their wall-clock times.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gutpatterns import (
    FieldState,
    Verdict,
    analyze_pattern,
    band_edges,
    calibrate_fe,
    classify_point,
    growth_rate,
    jacobian,
    scan_region,
    steady_state,
    turing_classify,
)
from gutpatterns.params import _equilibrium_residual
from gutpatterns.cli import main
from gutpatterns.solver import _Integrator
from tests.test_params import random_params
from tests.test_scan import turing_window
from tests.test_solver import advance_state
from tests.test_stability import a2_coefficient, bisect_a2_root, condition_value

from tests.conftest import FIG2_DOMAIN as DOM

GAMMA_ENVELOPE_FACTOR = 10.0  # gamma stays below 10 * kappa * b_i throughout


def _passed(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {detail}")


def test_criterion_1_equilibrium(p_table1):
    eq = steady_state(p_table1)
    assert eq.beta_bar == pytest.approx(3.0e16, rel=1e-6)
    assert eq.gamma_bar == pytest.approx(3.0e15, rel=1e-6)
    start = time.perf_counter()
    for _ in range(100):
        steady_state(p_table1)
    per_call = (time.perf_counter() - start) / 100
    assert per_call < 1e-3
    _passed(1, f"beta_bar={eq.beta_bar:.6e}, gamma_bar={eq.gamma_bar:.6e}, "
               f"{per_call * 1e6:.0f} us/solve")


def test_criterion_2_calibration(p_table1):
    f_e = calibrate_fe(p_table1, 0.3)
    assert f_e == pytest.approx(0.0856, rel=5e-3)
    p = replace(p_table1, f_e=f_e)
    residual = _equilibrium_residual(p, 0.3) / (p.r_b + p.f_e * p.kappa)
    assert abs(residual) < 1e-12
    _passed(2, f"f_e={f_e:.6f}, residual={residual:.2e}")


def test_criterion_3_turing_verdict(p_table1, jac_table1):
    v = turing_classify(p_table1, jac_table1)
    assert v.turing_condition_value == pytest.approx(1.033e-2, rel=1e-3)
    assert 0.0 < v.turing_condition_value < 0.02
    assert v.turing
    _passed(3, f"condition value={v.turing_condition_value:.6e}, turing=true")


def test_criterion_4_randomized_identity():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        eq = steady_state(p)
        j = jacobian(p, eq)
        v = turing_classify(p, j)
        worst = max(worst, abs(condition_value(p, eq) - j.m11) / abs(j.m11))
        assert v.det > 0.0
        assert v.ode_stable == (v.trace < 0.0)
    assert worst <= 1e-9
    _passed(4, f"1000 parameter sets, worst identity deviation {worst:.2e}")


def test_criterion_5_dispersion_band(p_table1, jac_table1):
    lam_minus, lam_plus = band_edges(p_table1, jac_table1)
    assert lam_minus == pytest.approx(2.70e8, rel=0.01)
    assert lam_plus == pytest.approx(1.03e11, rel=0.01)
    oracle_minus = bisect_a2_root(p_table1, jac_table1, 1.0, math.sqrt(lam_minus * lam_plus))
    assert lam_minus == pytest.approx(oracle_minus, rel=1e-6)
    j = jac_table1
    assert lam_minus == pytest.approx(j.det / (p_table1.d_c * j.m11), rel=0.02)
    assert lam_plus == pytest.approx(j.m11 / p_table1.d_b, rel=0.02)
    eig = np.linalg.eigvals([[j.m11, j.m12], [j.m21, j.m22]])
    assert growth_rate(p_table1, j, 0.0) == pytest.approx(max(eig.real), abs=1e-12)
    _passed(5, f"band=({lam_minus:.3e}, {lam_plus:.3e}) 1/m^2, oracle and Taylor agree")


def test_criterion_6_pattern_formation(p_table1, jac_table1, fig2_run):
    snaps, elapsed = fig2_run
    assert elapsed < 60.0
    lam_minus, lam_plus = band_edges(p_table1, jac_table1)
    eq = steady_state(p_table1)
    report = analyze_pattern(snaps[-1], DOM, (lam_minus, lam_plus), beta_ref=eq.beta_bar)
    assert report.peak_count >= 3
    xi2 = (2.0 * math.pi / report.median_spacing_m) ** 2
    assert lam_minus < xi2 < lam_plus
    assert report.patterned
    _passed(6, f"{report.peak_count} peaks, median spacing {report.median_spacing_m * 1e6:.2f} um, "
               f"xi^2={xi2:.3e} inside band, {elapsed:.1f} s")


def test_criterion_7_stable_control(p_table1, control_run):
    snaps, elapsed = control_run
    assert elapsed < 60.0
    eq = steady_state(replace(p_table1, d_b=p_table1.d_c))
    variances = np.array([float(np.var(s.beta)) for s in snaps])
    floor = 1e-6 * eq.beta_bar**2
    peak_idx = int(np.argmax(variances))
    above_floor = variances[peak_idx:][variances[peak_idx:] > floor]
    assert np.all(np.diff(above_floor) < 0.0), "variance must decay after the transient"
    assert variances[-1] < floor
    report = analyze_pattern(snaps[-1], DOM, None, beta_ref=eq.beta_bar)
    assert not report.patterned
    _passed(7, f"variance {variances[peak_idx]:.2e} -> {variances[-1]:.2e}, "
               f"no pattern, {elapsed:.1f} s")


def test_criterion_8_solver_invariants(p_table1, eq_table1, fig2_run, control_run,
                                        perturbation_run):
    envelope = GAMMA_ENVELOPE_FACTOR * p_table1.kappa * p_table1.b_i
    for snaps in (fig2_run[0], control_run[0], perturbation_run):
        for s in snaps:
            assert np.all(s.beta >= 0.0)
            assert np.all(s.gamma >= 0.0)
            assert np.all(s.beta < p_table1.b_i)
            assert np.all(np.isfinite(s.gamma))
            assert float(np.max(s.gamma)) < envelope

    # homogeneous equilibrium preserved to 1e-12 per step
    s = FieldState(0.0, np.full(DOM.n_points, eq_table1.beta_bar),
                   np.full(DOM.n_points, eq_table1.gamma_bar))
    s1 = advance_state(_Integrator(p_table1, DOM, 1.0), s)
    assert np.max(np.abs(s1.beta / eq_table1.beta_bar - 1.0)) < 1e-12

    # pure-diffusion mass conservation over 100 steps
    p_diff = replace(p_table1, a=0.0, f_e=0.0, r_b=0.0)
    beta = np.zeros(DOM.n_points)
    beta[DOM.n_points // 2] = 1e15
    state = FieldState(0.0, beta, np.zeros(DOM.n_points))
    mass0 = state.beta.sum() * DOM.dx
    integrator = _Integrator(p_diff, DOM, 1.0)
    for _ in range(100):
        state = advance_state(integrator, state)
    mass_err = abs(state.beta.sum() * DOM.dx - mass0) / mass0
    assert mass_err < 1e-10
    _passed(8, f"all snapshots non-negative with beta<b_i, mass error {mass_err:.2e}")


def test_criterion_9_scan(p_table1):
    start = time.perf_counter()
    grid = scan_region(p_table1, (1e-3, 5e-2), (5e-2, 1.0), (200, 200))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert np.any(grid.verdicts == int(Verdict.TURING))
    assert classify_point(p_table1, 0.02, 0.3129) is Verdict.TURING

    a_values = np.linspace(5e-2, 1.0, 1500)
    wide = turing_window(p_table1, 0.02, a_values)
    narrow = turing_window(p_table1, 1e-3, a_values)

    def rel_width(window):
        lo, hi = window
        return (hi - lo) / (0.5 * (hi + lo))

    assert rel_width(narrow) < rel_width(wide)
    _passed(9, f"200x200 scan in {elapsed:.2f} s, canonical point TURING, "
               f"window widths {rel_width(narrow):.3f} < {rel_width(wide):.3f}")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("t_end = 600\nsnapshot_every = 300\nn_points = 500\nlength = 0.005\n"
                   "spot_center = 0.0025\nic = perturbation\nseed = 5\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    files1 = {f.name: f.read_bytes() for f in sorted(out1.iterdir())}
    files2 = {f.name: f.read_bytes() for f in sorted(out2.iterdir())}
    assert files1 == files2
    _passed(10, f"{len(files1)} output files byte-identical across repeated runs")
