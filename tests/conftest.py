import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gutpatterns import Domain1D, SimConfig, jacobian, kernels, simulate, steady_state, table1_params

FIG2_DOMAIN = Domain1D(length=0.03, n_points=3000)
FIG2_CFG = SimConfig(t_end=20160.0, dt=1.0, snapshot_every=1440.0)


def reaction(b, g, r_b, a, s, f_e, f_b, r_c):
    """The reaction's right-hand sides (R_b, R_g) on fields scaled by b_i, as
    allocating expressions evaluated left to right: the oracle that
    ``kernels.step_arrays`` matches bitwise."""
    return r_b * (1.0 - b) * b - a * b * g / (s + b) + f_e * (1.0 - b) * g, f_b * b - r_c * g


def patterned(report) -> bool:
    """Whether a PatternReport shows a multi-spot pattern: at least three
    peaks and a median spacing, which a pattern-free field never has."""
    return report.peak_count >= 3 and not math.isnan(report.median_spacing_m)


@pytest.fixture(scope="session")
def p_table1():
    return table1_params()


@pytest.fixture(scope="session")
def fig2_run(p_table1):
    """Two-week pattern run: (snapshots, wall seconds)."""
    start = time.perf_counter()
    snaps = simulate(p_table1, FIG2_DOMAIN, FIG2_CFG)
    return snaps, time.perf_counter() - start


@pytest.fixture(scope="session")
def control_run(p_table1):
    """Equal-diffusivity control of the two-week run."""
    p = replace(p_table1, d_b=p_table1.d_c)
    start = time.perf_counter()
    snaps = simulate(p, FIG2_DOMAIN, FIG2_CFG)
    return snaps, time.perf_counter() - start


@pytest.fixture(scope="session")
def perturbation_run(p_table1):
    cfg = SimConfig(t_end=4320.0, dt=1.0, snapshot_every=60.0,
                    ic="perturbation", noise_rel=1e-3, seed=11)
    return simulate(p_table1, FIG2_DOMAIN, cfg)


@pytest.fixture(scope="session")
def eq_table1(p_table1):
    return steady_state(p_table1)


@pytest.fixture(scope="session")
def jac_table1(p_table1, eq_table1):
    return jacobian(p_table1, eq_table1)


@pytest.fixture()
def domain():
    return Domain1D(length=0.03, n_points=3000)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture()
def no_lapack_name_resolves(monkeypatch):
    """Make no candidate name of kernels._lapack resolve; yields the names tried."""
    candidates = [("no_such_" + template, integer) for template, integer in kernels._CANDIDATES]
    monkeypatch.setattr(kernels, "_CANDIDATES", candidates)
    kernels._lapack.cache_clear()
    yield [template.format(name) for template, _ in candidates for name in ("dpttrf", "dpttrs")]
    kernels._lapack.cache_clear()
