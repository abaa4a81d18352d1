import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from gutpatterns import (
    Domain1D,
    FieldState,
    InvariantError,
    ParameterError,
    SimConfig,
    initial_state,
    reaction_terms,
    simulate,
    steady_state,
)
from gutpatterns.solver import _check_and_clamp, _Integrator, max_stable_dt


def advance_state(integrator, s):
    """``s`` one step on: scaled by b_i, advanced, and scaled back."""
    b_i = integrator.p.b_i
    b, g = integrator.advance(s.beta / b_i, s.gamma / b_i, s.time + integrator.dt)
    return FieldState(time=s.time + integrator.dt, beta=b * b_i, gamma=g * b_i)


class TestDomain:
    def test_dx(self):
        dom = Domain1D(length=0.03, n_points=3000)
        assert dom.dx == pytest.approx(0.03 / 2999)
        assert dom.x().shape == (3000,)

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            Domain1D(length=1.0, n_points=8)


class TestSimConfig:
    def test_bad_dt(self):
        with pytest.raises(ParameterError):
            SimConfig(t_end=10.0, dt=0.0)

    def test_snapshot_not_multiple(self):
        # 1e-300 rounds to zero multiples of dt, which would make a zero stride
        for snapshot_every in (10.0, 1e-300):
            with pytest.raises(ParameterError):
                SimConfig(t_end=9.0, dt=3.0, snapshot_every=snapshot_every)

    def test_t_end_not_multiple(self):
        with pytest.raises(ParameterError, match="t_end"):
            SimConfig(t_end=2.5, dt=1.0, snapshot_every=1.0)

    def test_negative_seed(self):
        with pytest.raises(ParameterError, match="seed"):
            SimConfig(t_end=10.0, snapshot_every=10.0, ic="perturbation", seed=-1)

    def test_perturbation_noise_above_one_rejected(self):
        with pytest.raises(ParameterError, match="noise_rel"):
            SimConfig(t_end=10.0, snapshot_every=10.0, ic="perturbation", noise_rel=1.5)
        SimConfig(t_end=10.0, snapshot_every=10.0, ic="perturbation", noise_rel=1.0)

    def test_unknown_ic(self):
        with pytest.raises(ParameterError):
            SimConfig(t_end=10.0, snapshot_every=10.0, dt=1.0, ic="gaussian")


class TestStep:
    def test_equilibrium_fixed_point(self, p_table1, eq_table1, domain):
        s = FieldState(
            time=0.0,
            beta=np.full(domain.n_points, eq_table1.beta_bar),
            gamma=np.full(domain.n_points, eq_table1.gamma_bar),
        )
        s1 = advance_state(_Integrator(p_table1, domain, 1.0), s)
        assert np.max(np.abs(s1.beta / eq_table1.beta_bar - 1.0)) < 1e-12
        assert np.max(np.abs(s1.gamma / eq_table1.gamma_bar - 1.0)) < 1e-12
        assert s1.time == 1.0

    def test_zero_state_exact(self, p_table1, domain):
        s = FieldState(0.0, np.zeros(domain.n_points), np.zeros(domain.n_points))
        s1 = advance_state(_Integrator(p_table1, domain, 1.0), s)
        assert np.all(s1.beta == 0.0)
        assert np.all(s1.gamma == 0.0)

    def test_pure_diffusion_mass_conserved(self, p_table1, domain):
        p = replace(p_table1, a=0.0, f_e=0.0, r_b=0.0)
        beta = np.zeros(domain.n_points)
        beta[domain.n_points // 2] = 1e15
        s = FieldState(0.0, beta, np.zeros(domain.n_points))
        mass0 = s.beta.sum() * domain.dx
        integrator = _Integrator(p, domain, 1.0)
        for _ in range(100):
            s = advance_state(integrator, s)
        assert s.beta.sum() * domain.dx == pytest.approx(mass0, rel=1e-10)

    def test_dt_above_bound_rejected(self, p_table1, domain):
        with pytest.raises(ParameterError, match="bound"):
            _Integrator(p_table1, domain, 2.0 * max_stable_dt(p_table1))

    def test_overdriven_depletion_raises(self, p_table1, domain):
        # heavy phagocyte load over sparse bacteria: explicit depletion rate
        # exceeds 1/dt and the negativity guard must fire, not clamp
        p = replace(p_table1, f_e=1e-6)
        s = FieldState(
            time=0.0,
            beta=np.full(domain.n_points, 1e14),
            gamma=np.full(domain.n_points, 0.1 * p.b_i),
        )
        with pytest.raises(InvariantError, match="negativity"):
            advance_state(_Integrator(p, domain, 1.0), s)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the reaction
    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("field", ["beta", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_invariant_error(self, p_table1, domain, value, field, index):
        fields = {"beta": np.zeros(domain.n_points), "gamma": np.zeros(domain.n_points)}
        fields[field][index] = value
        s = FieldState(0.0, **fields)
        with pytest.raises(InvariantError, match="non-finite"):
            advance_state(_Integrator(p_table1, domain, 1.0), s)
        # a step spreads these inputs as NaN over both fields; the check must
        # also catch a lone infinity among finite values
        with pytest.raises(InvariantError, match="non-finite"):
            _check_and_clamp(fields["beta"] / p_table1.b_i, fields["gamma"] / p_table1.b_i, 1.0)


class TestSimulate:
    def test_snapshot_cadence_and_final(self, p_table1, domain):
        cfg = SimConfig(t_end=500.0, dt=1.0, snapshot_every=200.0)
        snaps = simulate(p_table1, domain, cfg)
        assert [s.time for s in snaps] == [0.0, 200.0, 400.0, 500.0]

    def test_snapshots_share_no_memory(self, p_table1, domain):
        # the integrator steps in reused work arrays; a snapshot must not be one
        cfg = SimConfig(t_end=5.0, dt=1.0, snapshot_every=1.0)
        arrays = [a for s in simulate(p_table1, domain, cfg) for a in (s.beta, s.gamma)]
        assert len(arrays) == 12
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_invariants_along_run(self, p_table1, domain):
        cfg = SimConfig(t_end=2000.0, dt=1.0, snapshot_every=500.0)
        snaps = simulate(p_table1, domain, cfg)
        for s in snaps:
            assert np.all(s.beta >= 0.0)
            assert np.all(s.gamma >= 0.0)
            assert np.all(s.beta < p_table1.b_i)
            assert np.all(np.isfinite(s.gamma))

    @pytest.mark.parametrize("b_i,rtol", [(2.0**56, 0.0), (None, 1e-13)])
    @pytest.mark.parametrize("ic", ["spot", "perturbation"])
    def test_simulate_matches_repeated_step(self, p_table1, ic, b_i, rtol):
        # advance_state converts to scaled fields and back on every step. With
        # a power-of-two b_i that round trip is exact, so both paths must agree
        # bitwise; at the Table 1 b_i = 1e17 it costs a few ulp per step.
        p = p_table1 if b_i is None else replace(p_table1, b_i=b_i)
        dom = Domain1D(length=0.004, n_points=400)
        cfg = SimConfig(t_end=50.0, dt=1.0, snapshot_every=10.0, ic=ic,
                        spot_center=0.002, noise_rel=0.01, seed=3)
        snaps = simulate(p, dom, cfg)
        s = initial_state(p, dom, cfg)
        stepped = [s]
        integrator = _Integrator(p, dom, cfg.dt)
        for k in range(1, 51):
            s = advance_state(integrator, s)
            if k % 10 == 0:
                stepped.append(s)
        assert len(snaps) == len(stepped) == 6
        assert not np.array_equal(snaps[-1].beta, snaps[0].beta)
        for a, b in zip(snaps, stepped):
            assert a.time == b.time
            np.testing.assert_allclose(a.beta, b.beta, rtol=rtol, atol=0.0)
            np.testing.assert_allclose(a.gamma, b.gamma, rtol=rtol, atol=0.0)

    def test_trajectory_matches_dense_lu_reference(self, p_table1):
        # An independent stepper on the unsymmetric ghost-node matrix, solved
        # by dense LU. Kept before the pattern locks in (t <= 360): later,
        # round-off differences move the peaks and pointwise errors mean nothing.
        dom = Domain1D(length=0.004, n_points=400)
        cfg = SimConfig(t_end=360.0, dt=1.0, snapshot_every=360.0, spot_center=0.002)
        final = simulate(p_table1, dom, cfg)[-1]

        def dense_lu(d):
            mu = cfg.dt * d / dom.dx**2
            n = dom.n_points
            A = np.diag(np.full(n, 1.0 + 2.0 * mu)) - mu * (np.eye(n, k=1) + np.eye(n, k=-1))
            A[0, 1] = A[-1, -2] = -2.0 * mu  # ghost-node reflection
            return lu_factor(A)

        lu_b, lu_c = dense_lu(p_table1.d_b), dense_lu(p_table1.d_c)
        s = initial_state(p_table1, dom, cfg)
        beta, gamma = s.beta, s.gamma
        for _ in range(360):
            dbeta, dgamma = reaction_terms(p_table1, beta, gamma)
            beta = lu_solve(lu_b, beta + cfg.dt * dbeta)
            gamma = lu_solve(lu_c, gamma + cfg.dt * dgamma)
        assert final.time == 360.0
        for got, ref in ((final.beta, beta), (final.gamma, gamma)):
            assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-12

    def test_perturbation_ic_deterministic(self, p_table1, domain):
        cfg = SimConfig(t_end=10.0, dt=1.0, snapshot_every=10.0, ic="perturbation", seed=42)
        a = initial_state(p_table1, domain, cfg)
        b = initial_state(p_table1, domain, cfg)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.gamma, b.gamma)
        eq = steady_state(p_table1)
        assert np.max(np.abs(a.beta / eq.beta_bar - 1.0)) <= cfg.noise_rel

    def test_spot_ic_above_capacity_rejected(self, p_table1, domain):
        cfg = SimConfig(t_end=10.0, dt=1.0, snapshot_every=10.0,
                        spot_amplitude=2e17)
        with pytest.raises(ParameterError):
            initial_state(p_table1, domain, cfg)

    def test_perturbation_variance_grows_then_saturates(self, p_table1):
        dom = Domain1D(length=0.01, n_points=1000)
        cfg = SimConfig(t_end=2500.0, dt=1.0, snapshot_every=100.0,
                        ic="perturbation", noise_rel=1e-3, seed=3)
        snaps = simulate(p_table1, dom, cfg)
        variances = [float(np.var(s.beta)) for s in snaps]
        assert max(variances) >= 10.0 * variances[0]

    def test_grid_refinement_converged_spacing(self, p_table1, fig2_run):
        # halving dx must not move the pattern's wavelength; the mean peak
        # spacing is the refinement-stable wavelength measure (the single
        # strongest FFT bin hops within the broad spectral hump)
        from gutpatterns import detect_peaks
        from tests.conftest import FIG2_CFG, FIG2_DOMAIN

        coarse = fig2_run[0][-1]
        fine_dom = Domain1D(length=FIG2_DOMAIN.length, n_points=2 * FIG2_DOMAIN.n_points - 1)
        fine = simulate(p_table1, fine_dom, FIG2_CFG)[-1]
        _, pos_c = detect_peaks(coarse, FIG2_DOMAIN, 0.1)
        _, pos_f = detect_peaks(fine, fine_dom, 0.1)
        spacing_c = float(np.mean(np.diff(pos_c)))
        spacing_f = float(np.mean(np.diff(pos_f)))
        assert abs(spacing_f - spacing_c) / spacing_c < 0.05

    def test_temporal_order_is_one(self, p_table1):
        # IMEX Euler is first order: halving dt halves the change in the
        # final beta, so successive differences shrink by 2**1
        dom = Domain1D(length=0.004, n_points=400)
        finals = [
            simulate(p_table1, dom, SimConfig(t_end=360.0, dt=dt, snapshot_every=360.0,
                                              ic="perturbation", seed=3))[-1].beta
            for dt in (1.0, 0.5, 0.25, 0.125)
        ]
        diffs = [np.linalg.norm(c - f) / np.linalg.norm(f) for c, f in zip(finals, finals[1:])]
        orders = [math.log2(d0 / d1) for d0, d1 in zip(diffs, diffs[1:])]
        assert all(0.8 <= q <= 1.2 for q in orders), orders

    def test_diffusivity_rescaling_is_spatial_rescaling(self, p_table1, domain):
        # scaling d_b, d_c by 4 and the length by 2 must reproduce the run
        cfg = SimConfig(t_end=300.0, dt=1.0, snapshot_every=300.0)
        ref = simulate(p_table1, domain, cfg)[-1]
        p4 = replace(p_table1, d_b=4 * p_table1.d_b, d_c=4 * p_table1.d_c)
        dom4 = Domain1D(length=2 * domain.length, n_points=domain.n_points)
        cfg4 = SimConfig(t_end=300.0, dt=1.0, snapshot_every=300.0,
                         spot_center=2 * cfg.spot_center,
                         spot_half_width=2 * cfg.spot_half_width)
        scaled = simulate(p4, dom4, cfg4)[-1]
        denom = np.maximum(np.abs(ref.beta), 1e-300)
        assert np.max(np.abs(scaled.beta - ref.beta) / denom) < 1e-9
