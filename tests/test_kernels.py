import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf, dpttrs

from gutpatterns import kernels
from gutpatterns.errors import InvariantError, ParameterError
from tests.conftest import reaction


def dense_system(n, mu):
    A = np.eye(n) * (1.0 + 2.0 * mu)
    for i in range(n - 1):
        A[i, i + 1] = -mu
        A[i + 1, i] = -mu
    A[0, 1] = -2.0 * mu
    A[n - 1, n - 2] = -2.0 * mu
    return A


def diffusion_solve(rhs, mu):
    """The solve inside ``step_arrays``: with every rate zero the update is
    ``(I - mu*L) x = rhs``."""
    n = rhs.shape[0]
    out = np.empty((2, n))
    solve = kernels.factor(n, mu, mu)(out)
    x, _ = kernels.step_arrays(rhs, np.zeros(n), 1.0, solve, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, out, np.empty(n))
    return x


@pytest.mark.parametrize("n,mu", [(16, 0.3), (257, 12.5), (1000, 1e-4), (40, 0.0)])
def test_banded_solve_matches_dense(n, mu, rng):
    rhs = rng.standard_normal(n)
    x = diffusion_solve(rhs, mu)
    expected = np.linalg.solve(dense_system(n, mu), rhs)
    np.testing.assert_allclose(x, expected, rtol=1e-10, atol=1e-12)
    if mu == 0.0:
        np.testing.assert_array_equal(x, rhs)


def test_singular_matrix_raises():
    # mu = -1/2 on an odd grid makes I - mu*L exactly singular, in either field
    for mu_b, mu_c in [(-0.5, -0.5), (0.3, -0.5)]:
        with pytest.raises(InvariantError, match="dpttrf"):
            kernels.factor(17, mu_b, mu_c)


def field_factors(n, mu):
    """``dpttrf`` of one field's row-scaled matrix: ``I - mu*L`` with its
    two end rows halved."""
    d = np.full(n, 1.0 + 2.0 * mu)
    d[0] = d[-1] = 0.5 + mu
    d, e, info = dpttrf(d, np.full(n - 1, -mu))
    assert info == 0
    return d, e


def field_solve(factors, rhs):
    """Solve one field's system for an unscaled right-hand side."""
    rhs = rhs.copy()
    rhs[[0, -1]] *= 0.5
    return dpttrs(*factors, rhs)[0]


@pytest.mark.parametrize("n", [16, 3000])
def test_stacked_solve_matches_per_field_solves(n, rng):
    mu_b, mu_c = 0.37, 412.5
    rhs = rng.standard_normal(2 * n)
    expected = np.concatenate([dpttrs(*field_factors(n, mu_b), rhs[:n])[0],
                               dpttrs(*field_factors(n, mu_c), rhs[n:])[0]])
    x = rhs.copy()
    kernels.factor(n, mu_b, mu_c)(x)()
    np.testing.assert_array_equal(x.view(np.int64), expected.view(np.int64))  # bitwise, in place


def reference_step(b, g, dt, factors_b, factors_c, *rates):
    """The step as allocating expressions, each evaluated left to right,
    then one solve per field."""
    reaction_b, reaction_g = reaction(b, g, *rates)
    return field_solve(factors_b, b + dt * reaction_b), field_solve(factors_c, g + dt * reaction_g)


@pytest.mark.parametrize("n", [16, 3000])
def test_step_in_work_array_matches_allocating_reference(n, rng):
    factors_b, factors_c = field_factors(n, 0.37), field_factors(n, 412.5)
    rates = (0.0347, 0.3129, 0.01, 0.0856, 2.05e-3, 0.02)
    out, scratch = np.empty((2, n)), np.empty(n)
    solve = kernels.factor(n, 0.37, 412.5)(out)
    out[...] = scratch[...] = np.nan  # whatever a previous step left there must not leak in
    for _ in range(3):
        b = rng.uniform(0.0, 1.0, n)
        g = rng.uniform(0.0, 0.5, n) * rng.choice([0.0, 1.0, 1e-9], n)
        dt = rng.uniform(0.1, 2.0)
        expected = reference_step(b, g, dt, factors_b, factors_c, *rates)
        b_in, g_in = b.copy(), g.copy()
        got = kernels.step_arrays(b, g, dt, solve, *rates, out, scratch)
        for x, ref, row in zip(got, expected, out, strict=True):
            np.testing.assert_array_equal(x.view(np.int64), ref.view(np.int64))  # bitwise
            assert np.shares_memory(x, row)
        np.testing.assert_array_equal(b, b_in)
        np.testing.assert_array_equal(g, g_in)


def bad_right_hand_sides(n):
    """Right-hand sides that are not a writeable C-contiguous float64 array
    of 2n values, by name, each with the buffer it lies in."""
    buffer = np.arange(4.0 * n)
    read_only = np.arange(2.0 * n)
    read_only.flags.writeable = False
    single = np.arange(2 * n, dtype=np.float32)
    fortran = np.zeros((n, 2)).T  # shape (2, n), but column-major
    return {
        "short": (buffer[:2 * n - 1], buffer),
        "long": (buffer[:2 * n + 1], buffer),
        "strided": (buffer[::2], buffer),
        "read_only": (read_only, read_only),
        "float32": (single, single),
        "fortran": (fortran, fortran),
        "list": (list(range(2 * n)), np.arange(0)),
    }


@pytest.mark.parametrize("name", ["short", "long", "strided", "read_only", "float32", "fortran", "list"])
def test_solve_rejects_bad_right_hand_side(name):
    # ctypes checks no argument, so LAPACK would read and write whatever memory it is given
    n = 16
    rhs, buffer = bad_right_hand_sides(n)[name]
    before = buffer.copy()
    bind = kernels.factor(n, 0.37, 412.5)
    with pytest.raises(ValueError, match=f"C-contiguous float64 array of {2 * n} values"):
        bind(rhs)
    np.testing.assert_array_equal(buffer, before)


def test_unresolvable_lapack_names_the_symbols_tried(no_lapack_name_resolves):
    with pytest.raises(ImportError) as info:
        kernels._lapack()
    for name in no_lapack_name_resolves:
        assert name in str(info.value)
    with pytest.raises(ImportError):
        kernels.factor(16, 0.37, 412.5)


def test_node_count_beyond_lapack_integers_rejected(monkeypatch):
    # a LAPACK with 32-bit INTEGERs cannot index 2*n_points >= 2^31 values;
    # an 8-bit integer type shows the same check at a small n
    monkeypatch.setattr(kernels, "_lapack", lambda: (None, None, ctypes.c_int8))
    with pytest.raises(ParameterError, match="overflows"):
        kernels.factor(64, 0.37, 412.5)


# Solves one random SPD tridiagonal system with the routines kernels._lapack()
# loads from numpy's LAPACK and with those of scipy.linalg.lapack, in the order
# given, and prints whether the factors and solutions are equal and whether
# scipy was imported by the first load.
_LAPACK_PROBE = """\
import ctypes
import sys
import numpy as np
from gutpatterns import kernels
def via_kernels():
    lib_dpttrf, lib_dpttrs, integer = kernels._lapack()
    byref, pointer = ctypes.byref, kernels._pointer
    def dpttrf(d, e):
        d, e, n, info = d.copy(), e.copy(), integer(d.size), integer(0)
        lib_dpttrf(byref(n), pointer(d), pointer(e), byref(info))
        return d, e, info.value
    def dpttrs(d, e, rhs):
        x, n, info = rhs.copy(), integer(d.size), integer(0)
        lib_dpttrs(byref(n), byref(integer(1)), pointer(d), pointer(e), pointer(x), byref(n), byref(info))
        return x, info.value
    return dpttrf, dpttrs
def via_scipy():
    from scipy.linalg.lapack import dpttrf, dpttrs
    return dpttrf, dpttrs
rng = np.random.default_rng(5)
n = 500
e = rng.uniform(-1.0, 1.0, n - 1)
d = 2.0 + rng.uniform(0.0, 1.0, n)  # diagonally dominant, so SPD
rhs = rng.standard_normal(n)
results, scipy_loaded = [], []
for load in (via_kernels, via_scipy)[::int(sys.argv[1])]:
    dpttrf, dpttrs = load()
    df, ef, info = dpttrf(d, e)
    x, info_s = dpttrs(df, ef, rhs)
    assert info == info_s == 0
    results.append((df, ef, x))
    scipy_loaded.append("scipy" in sys.modules)
print(all(np.array_equal(a, b) for a, b in zip(*results)), scipy_loaded[0])
"""


@pytest.mark.parametrize("order,scipy_after_first", [(1, False), (-1, True)],
                         ids=["kernels_first", "scipy_first"])
def test_loaded_lapack_is_scipys_bit_for_bit(order, scipy_after_first):
    src = str(Path(kernels.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _LAPACK_PROBE, str(order)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", str(scipy_after_first)]
