"""Classification of a (r_c, a) rectangle by the Turing condition.

Each grid point follows the calibration recipe: f_b = 0.1 * r_c and f_e
chosen so the equilibrium sits at theta * b_i; points where no positive f_e
exists are INFEASIBLE. The Turing condition reduces to 0 < M11 < r_c with
M11 = value(a) independent of r_c, so each a-column is a step in r_c:
scan_region works out one closed form per column and finds its r_c
threshold by bisection, and returns the grid as those thresholds plus each
column's verdict past them, in memory proportional to r_c_steps + a_steps;
ScanGrid.verdicts builds the dense grid on request. It runs on the standard
library alone; only ScanGrid.verdicts loads numpy. A scalar path
(classify_point) runs the same pipeline through the model-core and
stability modules and stays the cross-check oracle in tests.
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import IntEnum

from .errors import CalibrationError, ParameterError
from .params import (DEFAULT_THETA, ModelParams, calibrate_fe, check_count, check_theta,
                     steady_state)
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

    r_c_axis: array  # 'd'
    a_axis: array  # 'd'
    steps: array  # 'q', per a-column, 0 <= steps <= len(r_c_axis)
    above: array  # 'b', Verdict code per a-column

    @functools.cached_property
    def verdicts(self) -> np.ndarray:
        """The dense int8 grid, shape (len(r_c_axis), len(a_axis))."""
        import numpy as np
        rows = np.arange(len(self.r_c_axis))[:, None]
        return np.where(rows < np.asarray(self.steps), np.int8(Verdict.ODE_UNSTABLE),
                        np.asarray(self.above, dtype=np.int8))


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


def _linspace(lo: float, hi: float, n: int) -> array:
    """``np.linspace(lo, hi, n)`` for n >= 2, bit for bit: ``i * step + lo``,
    or ``(i / div) * delta + lo`` where the step underflows to 0 (numpy's
    gh-5437 branch), and ``hi`` last."""
    axis = array("d", [0.0]) * n
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        for i in range(n):
            axis[i] = i / div * delta + lo
    else:
        for i in range(n):
            axis[i] = i * step + lo
    axis[-1] = hi
    return axis


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
    check_theta(theta)

    r_c = _linspace(r_c_range[0], r_c_range[1], resolution[0])
    a = _linspace(a_range[0], a_range[1], resolution[1])
    steps = array("q", [0]) * len(a)
    above = array("b", [Verdict.INFEASIBLE]) * len(a)
    kappa = F_B_COUPLING  # f_b/r_c is constant by construction
    s, r_b = base.s, base.r_b
    f_e_scale, r_b_theta = (s + theta) * (1.0 - theta), r_b * theta
    try:
        value_factor, value_scale = theta**2, (s + theta) ** 2
    except OverflowError:
        value_scale = math.nan
    if not value_scale > 0.0:  # (s + theta)**2 overflowed, or underflowed to 0
        raise ParameterError(f"(s + theta)^2 is not finite and positive (s={s!r}, theta={theta!r})")
    turing, stable_only = Verdict.TURING, Verdict.STABLE_ONLY  # one enum lookup each
    for k, a_k in enumerate(a):
        # Calibrated feedback, a * kappa * theta / ((s + theta) * (1 - theta))
        # - r_b; independent of r_c since kappa is.
        f_e_kappa = a_k * kappa * theta / f_e_scale - r_b
        if not math.isfinite(f_e_kappa / kappa):
            raise ParameterError(f"calibrated f_e must be finite; it overflows from a = {a_k!r}")
        if f_e_kappa > 0.0:
            # Turing condition value, a * kappa * theta^2 / (s + theta)^2 -
            # r_b * theta - f_e_kappa; equals M11 at the calibrated equilibrium.
            # A feasible column is ODE_UNSTABLE in its first `steps` rows (r_c
            # <= value; the axis is non-decreasing), then TURING if value > 0,
            # else STABLE_ONLY. An infeasible column is INFEASIBLE throughout.
            value = a_k * kappa * value_factor / value_scale - r_b_theta - f_e_kappa
            steps[k] = bisect_right(r_c, value)
            above[k] = turing if value > 0.0 else stable_only
    return ScanGrid(r_c_axis=r_c, a_axis=a, steps=steps, above=above)
