"""Bacteria-phagocyte reaction-diffusion model of patchy gut inflammation.

Library layout:

- :mod:`gutpatterns.params` — parameters, steady state, calibration
- :mod:`gutpatterns.stability` — Jacobian, ODE/Turing verdicts, dispersion
- :mod:`gutpatterns.solver` — semi-implicit 1-D integrator
- :mod:`gutpatterns.analysis` — peak detection and median peak spacing
- :mod:`gutpatterns.scan` — (r_c, a) region classification
- :mod:`gutpatterns.cli` — command-line interface
"""

from .analysis import PatternReport, analyze_pattern, detect_peaks
from .errors import (
    CalibrationError,
    ConfigError,
    ConsistencyError,
    GutPatternsError,
    InvariantError,
    ParameterError,
)
from .params import (
    Equilibrium,
    ModelParams,
    calibrate_fe,
    steady_state,
    table1_params,
)
from .scan import ScanGrid, Verdict, classify_point, scan_region
from .solver import Domain1D, FieldState, SimConfig, initial_state, simulate
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
