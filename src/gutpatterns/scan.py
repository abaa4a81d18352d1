"""Classification of a (r_c, a) rectangle by the Turing condition.

Each grid point follows the calibration recipe: f_b = 0.1 * r_c and f_e
chosen so the equilibrium sits at theta * b_i; points where no positive f_e
exists are INFEASIBLE. The Turing condition reduces to 0 < M11 < r_c with
M11 = value(a) independent of r_c, so each a-column is a step in r_c:
scan_region finds one r_c threshold per column and returns the grid as those
thresholds plus each column's verdict past them, in memory proportional to
r_c_steps + a_steps; ScanGrid.verdicts builds the dense grid on request. A
scalar path (classify_point) runs the same pipeline through the model-core
and stability modules and stays the cross-check oracle in tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import CalibrationError, ParameterError
from .params import DEFAULT_THETA, ModelParams, calibrate_fe, check_count, steady_state
from .stability import jacobian, turing_classify

F_B_COUPLING = 0.1  # f_b = 0.1 * r_c across the scan


class Verdict(IntEnum):
    INFEASIBLE = -1
    ODE_UNSTABLE = 0
    STABLE_ONLY = 1
    TURING = 2


@dataclass(frozen=True)
class ScanGrid:
    """Verdicts of a (r_c, a) grid, one step per a-column: column k is
    ODE_UNSTABLE in its first ``steps[k]`` rows and ``above[k]`` below them."""

    r_c_axis: np.ndarray
    a_axis: np.ndarray
    steps: np.ndarray  # int, per a-column, 0 <= steps <= len(r_c_axis)
    above: np.ndarray  # int8 Verdict code per a-column

    @functools.cached_property
    def verdicts(self) -> np.ndarray:
        """The dense int8 grid, shape (len(r_c_axis), len(a_axis))."""
        rows = np.arange(self.r_c_axis.size)[:, None]
        return np.where(rows < self.steps, np.int8(Verdict.ODE_UNSTABLE), self.above)


def classify_point(base: ModelParams, r_c: float, a: float, theta: float = DEFAULT_THETA) -> Verdict:
    """Classify one (r_c, a) pair through the scalar pipeline."""
    p = replace(base, r_c=r_c, a=a, f_b=F_B_COUPLING * r_c)
    try:
        f_e = calibrate_fe(p, theta)
    except CalibrationError:
        return Verdict.INFEASIBLE
    p = replace(p, f_e=f_e)
    verdict = turing_classify(p, jacobian(p, steady_state(p)))
    if verdict.turing:
        return Verdict.TURING
    if not verdict.ode_stable:
        return Verdict.ODE_UNSTABLE
    return Verdict.STABLE_ONLY


def scan_region(
    base: ModelParams,
    r_c_range: tuple[float, float],
    a_range: tuple[float, float],
    resolution: tuple[int, int],
    theta: float = DEFAULT_THETA,
) -> ScanGrid:
    """Classify the full rectangle; cells are independent of evaluation order."""
    for name, bounds in (("r_c_range", r_c_range), ("a_range", a_range)):
        if not all(math.isfinite(v) for v in bounds):
            raise ParameterError(f"scan {name} must be finite, got {tuple(bounds)!r}")
    if r_c_range[0] <= 0.0 or a_range[0] <= 0.0:
        raise ParameterError("scan ranges must be positive")
    if r_c_range[1] <= r_c_range[0] or a_range[1] <= a_range[0]:
        raise ParameterError("scan ranges must be non-empty")
    for axis, count in zip(("r_c", "a"), resolution):
        check_count(f"{axis} resolution", count, 2)

    r_c = np.linspace(r_c_range[0], r_c_range[1], resolution[0])
    a = np.linspace(a_range[0], a_range[1], resolution[1])
    kappa = F_B_COUPLING  # f_b/r_c is constant by construction
    s = base.s_b / base.b_i

    # Calibrated feedback per a-column, a * kappa * theta / ((s + theta) *
    # (1 - theta)) - r_b; independent of r_c since kappa is. Each whole-axis
    # value is worked out in place on one array, in the order its formula
    # gives, and freed once used.
    with np.errstate(over="ignore"):
        f_e_kappa = a * kappa
        f_e_kappa *= theta
        f_e_kappa /= (s + theta) * (1.0 - theta)
        f_e_kappa -= base.r_b
        finite = np.isfinite(f_e_kappa / kappa)
    if not finite.all():
        raise ParameterError(f"calibrated f_e must be finite; it overflows from a = {float(a[~finite][0])!r}")
    del finite
    feasible = f_e_kappa > 0.0

    # Turing condition value, a * kappa * theta^2 / (s + theta)^2 - r_b * theta
    # - f_e_kappa; equals M11 at the calibrated equilibrium.
    value = a * kappa
    value *= theta**2
    value /= (s + theta) ** 2
    value -= base.r_b * theta
    value -= f_e_kappa
    del f_e_kappa

    # A feasible column is ODE_UNSTABLE in its first `steps` rows (r_c <= value;
    # linspace is non-decreasing), then TURING if value > 0, else STABLE_ONLY.
    # An infeasible column has no unstable rows and is INFEASIBLE throughout.
    above = np.where(value > 0.0, Verdict.TURING, Verdict.STABLE_ONLY).astype(np.int8)
    above[~feasible] = Verdict.INFEASIBLE
    steps = np.searchsorted(r_c, value, side="right")
    del value
    steps = np.where(feasible, steps, 0)
    return ScanGrid(r_c_axis=r_c, a_axis=a, steps=steps, above=above)

