"""Bacteria-phagocyte reaction-diffusion model of patchy gut inflammation.

Library layout:

- :mod:`gutpatterns.params` — parameters, steady state, calibration
- :mod:`gutpatterns.stability` — Jacobian, ODE/Turing verdicts, dispersion
- :mod:`gutpatterns.solver` — semi-implicit 1-D integrator
- :mod:`gutpatterns.analysis` — peak detection and median peak spacing
- :mod:`gutpatterns.scan` — (r_c, a) region classification
- :mod:`gutpatterns.cli` — command-line interface
"""

import importlib

from .errors import (
    CalibrationError,
    ConfigError,
    ConsistencyError,
    GutPatternsError,
    InvariantError,
    ParameterError,
)
from .params import (
    Domain1D,
    Equilibrium,
    ModelParams,
    SimConfig,
    calibrate_fe,
    steady_state,
    table1_params,
)
from .stability import (
    DispersionCurve,
    Jacobian2x2,
    StabilityVerdict,
    band_edges,
    dispersion,
    growth_rate,
    jacobian,
    ode_stability,
    turing_classify,
)

__version__ = "0.1.0"

# name -> its module, imported on first access (PEP 562), so that importing
# the package loads no numpy
_LAZY = {
    **dict.fromkeys(("PatternReport", "analyze_pattern", "detect_peaks"), "analysis"),
    **dict.fromkeys(("ScanGrid", "Verdict", "classify_point", "scan_region"), "scan"),
    **dict.fromkeys(("FieldState", "initial_state", "simulate"), "solver"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name))

__all__ = [
    "CalibrationError",
    "ConfigError",
    "ConsistencyError",
    "DispersionCurve",
    "Domain1D",
    "Equilibrium",
    "FieldState",
    "GutPatternsError",
    "InvariantError",
    "Jacobian2x2",
    "ModelParams",
    "ParameterError",
    "PatternReport",
    "ScanGrid",
    "SimConfig",
    "StabilityVerdict",
    "Verdict",
    "analyze_pattern",
    "band_edges",
    "calibrate_fe",
    "classify_point",
    "detect_peaks",
    "dispersion",
    "growth_rate",
    "initial_state",
    "jacobian",
    "ode_stability",
    "scan_region",
    "simulate",
    "steady_state",
    "table1_params",
    "turing_classify",
]
