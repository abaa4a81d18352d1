"""Classification of a (r_c, a) rectangle by the Turing condition.

Each grid point follows the calibration recipe: f_b = 0.1 * r_c and f_e
chosen so the equilibrium sits at theta * b_i; points where no positive f_e
exists are INFEASIBLE. The Turing condition reduces to 0 < M11 < r_c with
M11 = value(a) independent of r_c, so each a-column is a step in r_c:
scan_region finds one r_c threshold per column and fills the grid from it.
A scalar path (classify_point) runs the same pipeline through the model-core
and stability modules and stays the cross-check oracle in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import CalibrationError, ParameterError
from .params import DEFAULT_THETA, ModelParams, calibrate_fe, steady_state
from .stability import jacobian, turing_classify

F_B_COUPLING = 0.1  # f_b = 0.1 * r_c across the scan


class Verdict(IntEnum):
    INFEASIBLE = -1
    ODE_UNSTABLE = 0
    STABLE_ONLY = 1
    TURING = 2


@dataclass(frozen=True)
class ScanGrid:
    r_c_axis: np.ndarray
    a_axis: np.ndarray
    verdicts: np.ndarray  # int8, shape (len(r_c_axis), len(a_axis)), Verdict codes


def classify_point(base: ModelParams, r_c: float, a: float, theta: float = DEFAULT_THETA) -> Verdict:
    """Classify one (r_c, a) pair through the scalar pipeline."""
    p = replace(base, r_c=r_c, a=a, f_b=F_B_COUPLING * r_c)
    try:
        f_e = calibrate_fe(p, theta)
    except CalibrationError:
        return Verdict.INFEASIBLE
    p = replace(p, f_e=f_e)
    eq = steady_state(p)
    verdict = turing_classify(p, eq, jacobian(p, eq))
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
    if resolution[0] < 2 or resolution[1] < 2:
        raise ParameterError("resolution must be at least 2x2")

    r_c = np.linspace(r_c_range[0], r_c_range[1], resolution[0])
    a = np.linspace(a_range[0], a_range[1], resolution[1])
    kappa = F_B_COUPLING  # f_b/r_c is constant by construction
    s = base.s_b / base.b_i

    # Calibrated feedback per a-column; independent of r_c since kappa is.
    with np.errstate(over="ignore"):
        f_e_kappa = a * kappa * theta / ((s + theta) * (1.0 - theta)) - base.r_b
        finite = np.isfinite(f_e_kappa / kappa)
    if not finite.all():
        raise ParameterError(f"calibrated f_e must be finite; it overflows from a = {float(a[~finite][0])!r}")
    feasible = f_e_kappa > 0.0

    # Turing condition value; equals M11 at the calibrated equilibrium.
    value = a * kappa * theta**2 / (s + theta) ** 2 - base.r_b * theta - f_e_kappa

    # A feasible column is ODE_UNSTABLE in its first `steps` rows (r_c <= value;
    # linspace is non-decreasing), then TURING if value > 0, else STABLE_ONLY.
    # An infeasible column has no unstable rows and is INFEASIBLE throughout.
    steps = np.where(feasible, np.searchsorted(r_c, value, side="right"), 0)
    above = np.where(value > 0.0, Verdict.TURING, Verdict.STABLE_ONLY).astype(np.int8)
    above[~feasible] = Verdict.INFEASIBLE
    rows = np.arange(resolution[0])[:, None]
    verdicts = np.where(rows < steps, np.int8(Verdict.ODE_UNSTABLE), above)
    return ScanGrid(r_c_axis=r_c, a_axis=a, verdicts=verdicts)


def turing_window(base: ModelParams, r_c: float, a_values: np.ndarray, theta: float = DEFAULT_THETA):
    """(a_lo, a_hi) bounds of the TURING cells in a dense 1-D sweep, or None."""
    verdicts = np.array([classify_point(base, r_c, float(a), theta) for a in a_values])
    mask = verdicts == Verdict.TURING
    if not mask.any():
        return None
    hits = a_values[mask]
    return float(hits.min()), float(hits.max())
