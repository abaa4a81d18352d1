import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import lu_factor, lu_solve

from gutpatterns import (
    Domain1D,
    FieldState,
    InvariantError,
    ParameterError,
    SimConfig,
    initial_state,
    jacobian,
    simulate,
    steady_state,
)
from gutpatterns import kernels
from gutpatterns.analysis import snapshot_stats
from gutpatterns.solver import _check_and_clamp, _Integrator, max_stable_dt, snapshot_times
from tests.conftest import reaction


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

    def test_seed_must_be_an_integer(self, p_table1):
        # np.int64 is an integer and seeds like the int it equals
        for seed in (1.5, "3"):
            with pytest.raises(ParameterError, match="seed"):
                SimConfig(t_end=10.0, snapshot_every=10.0, ic="perturbation", seed=seed)
        dom = Domain1D(length=0.004, n_points=16)
        cfg = SimConfig(t_end=10.0, snapshot_every=10.0, ic="perturbation", seed=np.int64(3))
        assert type(cfg.seed) is int
        ref = initial_state(p_table1, dom, replace(cfg, seed=3))
        got = initial_state(p_table1, dom, cfg)
        assert np.array_equal(got.beta, ref.beta) and np.array_equal(got.gamma, ref.gamma)

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

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_dt_rejected(self, p_table1, domain, dt):
        # SimConfig rejects these first; a direct caller meets the diffusion numbers' check
        with pytest.raises(ParameterError, match="diffusion numbers"):
            _Integrator(p_table1, domain, dt)

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

    @pytest.mark.parametrize("n", [64, 400])
    def test_one_step_matches_discrete_dispersion(self, p_table1, eq_table1, n):
        # Near the equilibrium a step is linear, and each DCT-I mode
        # cos(k*pi*i/(n-1)) of the Neumann second difference evolves alone:
        # its (beta, gamma) amplitudes are multiplied by
        # (I - dt*mu_k*D)^-1 (I + dt*M), mu_k = -(4/dx^2) sin^2(k*pi/(2(n-1))).
        dom = Domain1D(length=(n - 1) * 1e-5, n_points=n)  # the canonical dx = 10 um
        dt, eps = 1.0, 1e-6
        integrator = _Integrator(p_table1, dom, dt)
        modes = np.array([1, 5, n // 3, n // 2, n - 2, n - 1])
        amplitudes = np.random.default_rng(n).uniform(0.5, 1.0, (2, modes.size))  # field x mode
        u0 = np.array([eq_table1.beta_bar, eq_table1.gamma_bar]) / p_table1.b_i
        cosines = np.cos(np.pi * np.outer(modes, np.arange(n)) / (n - 1))
        delta = u0[:, None] * (amplitudes @ cosines)
        # copied: the step after next reuses the output slot a result lives in
        plus = np.array(integrator.advance(*(u0[:, None] + eps * delta), dt))
        minus = np.array(integrator.advance(*(u0[:, None] - eps * delta), dt))
        coefficients = scipy.fft.dct((plus - minus) / (2.0 * eps), type=1, axis=1) / (n - 1)
        coefficients[:, [0, -1]] *= 0.5
        j = jacobian(p_table1, eq_table1)
        reaction = np.eye(2) + dt * np.array([[j.m11, j.m12], [j.m21, j.m22]])
        diffusivities = np.diag([p_table1.d_b, p_table1.d_c])

        def worst_relative_error(mu):
            worst = 0.0
            for k, mu_k, amplitude in zip(modes, mu, amplitudes.T):
                expected = np.linalg.solve(np.eye(2) - dt * mu_k * diffusivities, reaction @ (u0 * amplitude))
                worst = max(worst, np.max(np.abs(coefficients[:, k] / expected - 1.0)))
            return worst

        # measured: 4.3e-11 (n = 64) and 3.5e-11 (n = 400)
        assert worst_relative_error(-(4.0 / dom.dx**2) * np.sin(modes * np.pi / (2 * (n - 1))) ** 2) < 1e-9
        # the continuous Laplacian's -(k*pi/L)^2 misses by 117%: the check tells the two apart
        assert worst_relative_error(-(modes * np.pi / dom.length) ** 2) > 0.5

class TestSimulate:
    def test_snapshot_cadence_and_final(self, p_table1, domain):
        cfg = SimConfig(t_end=500.0, dt=1.0, snapshot_every=200.0)
        snaps = simulate(p_table1, domain, cfg)
        assert [s.time for s in snaps] == [0.0, 200.0, 400.0, 500.0]

    @pytest.mark.parametrize("cfg", [
        SimConfig(t_end=500.0, dt=1.0, snapshot_every=200.0),
        SimConfig(t_end=3.0, dt=0.1, snapshot_every=0.7),
        SimConfig(t_end=2.0, dt=0.5, snapshot_every=5.0),
        SimConfig(t_end=4.0, dt=1.0, snapshot_every=1.0),
    ])
    def test_snapshot_times_are_simulated_times(self, p_table1, cfg):
        snaps = simulate(p_table1, Domain1D(length=0.001, n_points=64), cfg)
        assert snapshot_times(cfg) == [s.time for s in snaps]

    def test_snapshots_share_no_memory(self, p_table1, domain):
        # the integrator steps in its reused state array; a snapshot must not be in it
        cfg = SimConfig(t_end=5.0, dt=1.0, snapshot_every=1.0)
        arrays = [a for s in simulate(p_table1, domain, cfg) for a in (s.beta, s.gamma)]
        assert len(arrays) == 12
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_emitted_snapshots_match_list(self, p_table1, domain):
        # an emitted state that aliased the state array would change as the run
        # went on, so each is compared with a copy taken when it was emitted
        cfg = SimConfig(t_end=7.0, dt=1.0, snapshot_every=2.0, ic="perturbation", seed=3)
        emitted, copies = [], []

        def emit(state):
            emitted.append(state)
            copies.append((state.time, state.beta.copy(), state.gamma.copy()))

        returned = simulate(p_table1, domain, cfg, emit=emit)
        listed = simulate(p_table1, domain, cfg)
        assert [s.time for s in listed] == [0.0, 2.0, 4.0, 6.0, 7.0]
        assert len(returned) == 1 and returned[0] is emitted[-1]
        assert len(emitted) == len(copies) == len(listed)
        for state, (t, beta, gamma), ref in zip(emitted, copies, listed):
            assert state.time == t == ref.time
            for got, at_emit, want in ((state.beta, beta, ref.beta), (state.gamma, gamma, ref.gamma)):
                assert got.tobytes() == at_emit.tobytes() == want.tobytes()

    # A run holds one set of n-sized arrays: the factors (4n floats), the
    # integrator's state (5n), one snapshot (2n) and the temporaries of its
    # statistics. In units of 8n bytes at n = 100000 the traced peak reads
    # 12.0 (spot and perturbation); with two (4, n) work arrays and
    # whole-field temporaries it read 18.0 and 23.8.
    @pytest.mark.parametrize("ic, bound", [("spot", 14.5), ("perturbation", 16.5)])
    def test_traced_peak_in_field_sizes(self, p_table1, ic, bound):
        n = 100000
        dom = Domain1D(length=0.03, n_points=n)
        cfg = SimConfig(t_end=4.0, dt=1.0, snapshot_every=2.0, ic=ic)
        simulate(p_table1, Domain1D(length=0.001, n_points=64), cfg)  # loads LAPACK untraced
        tracemalloc.start()
        try:
            simulate(p_table1, dom, cfg, emit=lambda state: snapshot_stats(state, dom))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n) < bound

    def test_one_kernel_call_per_step(self, p_table1, domain, monkeypatch):
        # the benchmark times and counts the steps through kernels.step_arrays,
        # so a step that bypassed it would read as no stepping at all
        calls = []
        step = kernels.step_arrays
        monkeypatch.setattr(kernels, "step_arrays", lambda *args: calls.append(args) or step(*args))
        simulate(p_table1, domain, SimConfig(t_end=50.0, dt=1.0, snapshot_every=20.0))
        assert len(calls) == 50

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

    @pytest.mark.parametrize("ic", [dict(ic="spot"), dict(ic="perturbation", seed=3, noise_rel=0.01)],
                             ids=["spot", "perturbation"])
    def test_trajectory_matches_dense_lu_reference(self, p_table1, ic):
        # An independent stepper on the unsymmetric ghost-node matrix, solved
        # by dense LU. Kept before the pattern locks in (t <= 360): later,
        # round-off differences move the peaks and pointwise errors mean nothing.
        dom = Domain1D(length=0.004, n_points=400)
        cfg = SimConfig(t_end=360.0, dt=1.0, snapshot_every=360.0, spot_center=0.002, **ic)
        final = simulate(p_table1, dom, cfg)[-1]

        def dense_lu(d):
            mu = cfg.dt * d / dom.dx**2
            n = dom.n_points
            A = np.diag(np.full(n, 1.0 + 2.0 * mu)) - mu * (np.eye(n, k=1) + np.eye(n, k=-1))
            A[0, 1] = A[-1, -2] = -2.0 * mu  # ghost-node reflection
            return lu_factor(A)

        p = p_table1
        lu_b, lu_c = dense_lu(p.d_b), dense_lu(p.d_c)
        s = initial_state(p, dom, cfg)
        b, g = s.beta / p.b_i, s.gamma / p.b_i
        for _ in range(360):
            reaction_b, reaction_g = reaction(b, g, p.r_b, p.a, p.s, p.f_e, p.f_b, p.r_c)
            b = lu_solve(lu_b, b + cfg.dt * reaction_b)
            g = lu_solve(lu_c, g + cfg.dt * reaction_g)
        assert final.time == 360.0
        for got, ref in ((final.beta / p.b_i, b), (final.gamma / p.b_i, g)):
            assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-12

    def test_perturbation_ic_deterministic(self, p_table1, domain):
        cfg = SimConfig(t_end=10.0, dt=1.0, snapshot_every=10.0, ic="perturbation", seed=42)
        a = initial_state(p_table1, domain, cfg)
        b = initial_state(p_table1, domain, cfg)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.gamma, b.gamma)
        eq = steady_state(p_table1)
        assert np.max(np.abs(a.beta / eq.beta_bar - 1.0)) <= cfg.noise_rel

    def test_perturbation_ic_is_pythons_random_stream(self, p_table1):
        # A plain loop over random.Random(seed).random(): the first n draws
        # perturb beta, the next n gamma. Python keeps a seed's stream the same
        # across versions and numpy does not enter it, so the pinned reprs hold
        # on every supported Python and numpy.
        n = 16
        dom = Domain1D(length=0.004, n_points=n)
        cfg = SimConfig(t_end=10.0, snapshot_every=10.0, ic="perturbation", noise_rel=0.01, seed=7)
        eq = steady_state(p_table1)
        rng = random.Random(7)
        draws = [-1.0 + 2.0 * rng.random() for _ in range(2 * n)]
        s = initial_state(p_table1, dom, cfg)
        assert s.beta.tolist() == [eq.beta_bar * (1.0 + cfg.noise_rel * d) for d in draws[:n]]
        assert s.gamma.tolist() == [eq.gamma_bar * (1.0 + cfg.noise_rel * d) for d in draws[n:]]
        assert repr(s.beta[0].item()) == "2.9894299658899908e+16"
        assert repr(s.gamma[-1].item()) == "2992343852563545.0"

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


class TestPredationStiffness:
    def test_default_dt_keeps_predation_rate_within_half_euler_limit(self, p_table1):
        # max_stable_dt leaves out the explicit predation rate a*g*s/(s + b)^2
        # (scaled fields), largest where b -> 0. Over a two-week spot run at
        # the canonical dx and the default dt, dt times that rate peaks near
        # 0.48 (0.96 at dt = 2, 1.92 at dt = 4). It must stay below 1, half
        # of explicit Euler's real-axis limit of 2, until the bound accounts
        # for it.
        dom = Domain1D(length=0.003, n_points=301)
        cfg = SimConfig(spot_center=0.0015)
        integrator = _Integrator(p_table1, dom, cfg.dt)
        s = initial_state(p_table1, dom, cfg)
        b, g = s.beta / p_table1.b_i, s.gamma / p_table1.b_i
        n_steps = round(cfg.t_end / cfg.dt)
        worst = 0.0
        for k in range(n_steps + 1):
            if k:
                b, g = integrator.advance(b, g, k * cfg.dt)
            worst = max(worst, float(np.max(g / (b + p_table1.s) ** 2)))
        assert cfg.t_end == 20160.0 and worst > 0.0
        assert cfg.dt * p_table1.a * p_table1.s * worst < 1.0


class TestManufacturedSolution:
    """The production step on exact fields b, g (scaled by b_i) that it does
    not solve by itself: the source S = u_t - d*u_xx - R(u), at t_n, is
    added to each step through a second solve, so the step's reaction,
    walls and dpttrs are checked together against known fields."""

    L = 4e-4       # m
    T_END = 100.0  # min
    DECAY = 200.0  # min, the exact fields' time scale
    # (mean, amplitude, shift) of b and of g: u = mean + amplitude*(cos(pi*x/L) + shift)*exp(-t/DECAY)
    B = (0.3, 0.1, 0.0)
    G = (0.2, 0.05, 0.0)
    SPACE_RUNS = [(26, 4.0), (51, 1.0), (101, 0.25), (201, 0.0625)]  # (n, dt), dt following dx^2
    TIME_RUNS = (201, (4.0, 2.0, 1.0, 0.5))  # (n, dts)

    def field(self, spec, x, t):
        """(u, u_t, u_xx) of the exact field of (mean, amplitude, shift) ``spec``."""
        mean, amplitude, shift = spec
        decay = amplitude * math.exp(-t / self.DECAY)
        cosine = decay * np.cos(math.pi * x / self.L)
        wave = cosine + shift * decay
        return mean + wave, -wave / self.DECAY, -(math.pi / self.L) ** 2 * cosine

    def source(self, p, x, t):
        """(S_b, S_g) at time t."""
        b, b_t, b_xx = self.field(self.B, x, t)
        g, g_t, g_xx = self.field(self.G, x, t)
        reaction_b, reaction_g = reaction(b, g, p.r_b, p.a, p.s, p.f_e, p.f_b, p.r_c)
        return b_t - p.d_b * b_xx - reaction_b, g_t - p.d_c * g_xx - reaction_g

    def max_error(self, p, n, dt):
        dom = Domain1D(length=self.L, n_points=n)
        x = dom.x()
        bind = kernels.factor(n, dt * p.d_b / dom.dx**2, dt * p.d_c / dom.dx**2)
        out, forced = np.empty((2, n)), np.empty((2, n))
        solve, solve_forced = bind(out), bind(forced)
        scratch = np.empty(n)
        b, g = self.field(self.B, x, 0.0)[0], self.field(self.G, x, 0.0)[0]
        steps = round(self.T_END / dt)
        for k in range(steps):
            forced[:] = self.source(p, x, k * dt)
            forced *= dt
            forced[:, [0, -1]] *= 0.5  # the end rows, halved like the step's
            kernels.step_arrays(b, g, dt, solve, p.r_b, p.a, p.s, p.f_e, p.f_b, p.r_c,
                                out, scratch)
            solve_forced()
            out += forced
            b, g = out.copy()
        t = steps * dt
        return max(np.max(np.abs(b - self.field(self.B, x, t)[0])),
                   np.max(np.abs(g - self.field(self.G, x, t)[0])))

    @staticmethod
    def orders(errors):
        return [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]

    def test_second_order_in_space(self, p_table1):
        # dt follows dx^2, so the first-order time error shrinks as fast as the space error
        errors = [self.max_error(p_table1, n, dt) for n, dt in self.SPACE_RUNS]
        assert all(1.9 <= q <= 2.1 for q in self.orders(errors)), (errors, self.orders(errors))

    def test_first_order_in_time(self, p_table1):
        n, dts = self.TIME_RUNS
        errors = [self.max_error(p_table1, n, dt) for dt in dts]
        assert all(0.9 <= q <= 1.1 for q in self.orders(errors)), (errors, self.orders(errors))


class TestManufacturedSolutionNearZero(TestManufacturedSolution):
    """b = 1e-3 + 0.1*(1 + cos(pi*x/L))*exp(-t/DECAY) stays at 1e-3 at x = L,
    where the predation term's s + b is smallest (s = s_b/b_i = 0.01). There
    the explicit predation term's rate a*g*s/(s + b)^2 is ~4 /min, so the
    step is stable only below dt ~0.5 min: the first case's dt = 4 and 1
    overflow. Orders read 2.00, 2.00 in dx and 0.99, 0.99, 0.98 in dt."""

    B = (1e-3, 0.1, 1.0)
    SPACE_RUNS = [(26, 0.25), (51, 0.0625), (101, 0.015625)]
    # n = 401: at n = 201 the space error, ~1.4e-6, bends the last order in dt to 0.92
    TIME_RUNS = (401, (0.375, 0.1875, 0.09375, 0.046875))
