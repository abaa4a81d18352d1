"""Semi-implicit 1-D integrator: implicit diffusion, explicit reaction.

Fields are evolved in carrying-capacity-scaled form internally; the public
types carry physical units. Non-negativity and the beta < b_i bound are
enforced at every step: round-off sized violations (within 1e-12 * b_i) are
clamped, anything larger raises InvariantError.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvariantError, ParameterError
from .params import Domain1D, ModelParams, SimConfig, steady_state

CLAMP_TOL = 1e-12          # scaled by b_i
DT_SAFETY = 0.2            # explicit-reaction stability margin


@dataclass(frozen=True)
class FieldState:
    """Paired spatial profiles at one instant; densities in units/m^3."""

    time: float
    beta: np.ndarray
    gamma: np.ndarray


def max_stable_dt(p: ModelParams) -> float:
    """Conservative explicit-reaction step bound.

    The limiting rates are the linear self-decay scales of the two fields:
    r_b + f_e*kappa for bacteria near the equilibrium balance, f_b and r_c
    for phagocytes. It leaves out the explicit predation rate
    a*g*s/(s + b)^2 (scaled densities), which is largest where b -> 0.
    """
    rate = max(p.r_b + p.f_e * p.kappa, p.f_b, p.r_c)
    return DT_SAFETY / rate


def initial_state(p: ModelParams, dom: Domain1D, cfg: SimConfig) -> FieldState:
    """Build the initial fields; physical units. ParameterError when the
    spot covers no node.

    The perturbation multiplies each equilibrium density by
    ``1 + noise_rel * (-1 + 2u)``, with u the next ``random.Random(seed).random()``:
    the first n draws go to beta, the next n to gamma.
    """
    n = dom.n_points
    if cfg.ic == "spot":
        spot = np.abs(dom.x() - cfg.spot_center) <= cfg.spot_half_width
        if not spot.any():
            raise ParameterError(
                f"the spot (spot_center {cfg.spot_center!r}, spot_half_width {cfg.spot_half_width!r}) "
                f"covers no node of the domain [0, {dom.length!r}]"
            )
        beta = np.full(n, cfg.background, dtype=float)
        beta[spot] = cfg.spot_amplitude
        gamma = np.zeros(n)
    else:
        eq = steady_state(p)
        # random() never returns the sentinel -1.0; the formula is applied in
        # place, factor by factor, which gives its bits
        draw = np.fromiter(iter(random.Random(cfg.seed).random, -1.0), float, 2 * n).reshape(2, n)
        draw *= 2.0
        draw -= 1.0
        draw *= cfg.noise_rel
        draw += 1.0
        draw *= [[eq.beta_bar], [eq.gamma_bar]]
        beta, gamma = draw
    if beta.max() >= p.b_i:
        raise ParameterError("initial bacterial density must stay below b_i")
    return FieldState(time=0.0, beta=beta, gamma=gamma)


def _check_and_clamp(b: np.ndarray, g: np.ndarray, t: float) -> None:
    """Enforce field invariants in scaled units, in place."""
    # NaN propagates through min and max, and an infinity is one of them.
    b_min, b_max, g_min, g_max = b.min(), b.max(), g.min(), g.max()
    if not all(map(math.isfinite, (b_min, b_max, g_min, g_max))):
        raise InvariantError(f"non-finite field value at t={t} min")
    if b_min < -CLAMP_TOL or g_min < -CLAMP_TOL:
        raise InvariantError(
            f"negativity beyond tolerance at t={t} min "
            f"(min beta/b_i={b_min:.3e}, min gamma/b_i={g_min:.3e}); dt too large?"
        )
    if b_min < 0.0:
        np.clip(b, 0.0, None, out=b)
    if g_min < 0.0:
        np.clip(g, 0.0, None, out=g)
    # clipping negatives to 0 leaves b_max's comparisons with 1 as they were
    if b_max >= 1.0 + CLAMP_TOL:
        raise InvariantError(f"beta exceeded b_i at t={t} min (beta/b_i={b_max:.6e})")
    if b_max >= 1.0:
        np.minimum(b, np.nextafter(1.0, 0.0), out=b)


class _Integrator:
    """Steps scaled fields for one (p, dom, dt).

    Holds what stays fixed over a run: both fields' diffusion matrices,
    factored together once by :func:`kernels.factor`, and one C-contiguous
    (5, n) array ``state``: rows 0-1 and 2-3 are two output slots, each with
    the solve bound to it, and row 4 is a step's scratch row. The steps
    alternate between the slots, the first writing rows 2-3, so the initial
    fields may go in rows 0-1. A step's output, the next step's input, is not
    overwritten until the step after next.
    """

    def __init__(self, p: ModelParams, dom: Domain1D, dt: float):
        bound = max_stable_dt(p)
        if dt > bound:
            raise ParameterError(f"dt={dt} exceeds the explicit-reaction bound {bound:.4g} min")
        self.p = p
        self.dt = dt
        bind = kernels.factor(dom.n_points, *_diffusion_numbers(p, dom, dt))
        self.state = np.empty((5, dom.n_points))
        self.slots = tuple((out, bind(out)) for out in (self.state[2:4], self.state[:2]))

    def advance(self, b, g, t_next):
        """Return the scaled fields one step on, checked and clamped at ``t_next``.

        The result lives in an output slot that the step after next reuses.
        """
        p = self.p
        current, spare = self.slots
        self.slots = (spare, current)
        out, solve = current
        b_new, g_new = kernels.step_arrays(b, g, self.dt, solve, p.r_b, p.a, p.s,
                                           p.f_e, p.f_b, p.r_c, out, self.state[4])
        _check_and_clamp(b_new, g_new, t_next)
        return b_new, g_new


def _diffusion_numbers(p: ModelParams, dom: Domain1D, dt: float) -> tuple[float, float]:
    """``dt*d/dx^2`` of both fields; ParameterError unless both are positive
    and finite, as they are not when dx^2 overflows or underflows."""
    try:
        mu = (dt * p.d_b / dom.dx**2, dt * p.d_c / dom.dx**2)
    except (OverflowError, ZeroDivisionError):
        mu = (math.nan, math.nan)
    if not all(0.0 < m < math.inf for m in mu):
        raise ParameterError(
            f"diffusion numbers dt*d/dx^2 = {mu!r} must be positive and finite "
            f"(length {dom.length!r}, n_points {dom.n_points})"
        )
    return mu


def _step_counts(cfg: SimConfig) -> tuple[int, int]:
    """The run's number of steps and the steps between snapshots."""
    return int(round(cfg.t_end / cfg.dt)), int(round(cfg.snapshot_every / cfg.dt))


def snapshot_times(cfg: SimConfig) -> list[float]:
    """The times of the states :func:`simulate` returns, in order: 0, each
    multiple of snapshot_every, and t_end."""
    n_steps, stride = _step_counts(cfg)
    steps = [0, *range(stride, n_steps + 1, stride)]
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return [k * cfg.dt for k in steps]


def simulate(p: ModelParams, dom: Domain1D, cfg: SimConfig,
             emit: Callable[[FieldState], None] | None = None) -> list[FieldState]:
    """Integrate to t_end, returning snapshots on the configured cadence.

    The final state is always included. Every input is checked, and
    rejected with ParameterError, before the first snapshot is made; step
    failures propagate with the offending time attached. With ``emit``,
    each snapshot is passed to ``emit(state)`` as soon as it is made, in
    time order, and the returned list holds only the final state, so the
    run keeps no snapshot. Every snapshot owns its arrays, never the
    integrator's state array, so ``emit`` may hold on to it or hand it to
    another thread.
    """
    integrator = _Integrator(p, dom, cfg.dt)
    state = initial_state(p, dom, cfg)
    b, g = integrator.state[:2]
    np.divide(state.beta, p.b_i, out=b)
    np.divide(state.gamma, p.b_i, out=g)
    n_steps, stride = _step_counts(cfg)
    snapshots = []
    keep = snapshots.append if emit is None else emit
    keep(state)
    del state  # with emit, the run no longer holds the initial fields
    for k in range(1, n_steps + 1):
        t = k * cfg.dt
        b, g = integrator.advance(b, g, t)
        if k % stride == 0 or k == n_steps:
            state = None  # with emit, no earlier snapshot is held while this one is made
            state = FieldState(time=t, beta=b * p.b_i, gamma=g * p.b_i)
            keep(state)
    return snapshots if emit is None else [state]
