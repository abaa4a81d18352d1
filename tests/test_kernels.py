import numpy as np
import pytest
from scipy.linalg.lapack import dgttrs

from gutpatterns import kernels
from gutpatterns.errors import InvariantError


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
    lu = kernels.factor(n, mu)
    x, _ = kernels.step_arrays(rhs, np.zeros(n), 1.0, lu, lu, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
                               kernels.work_array(n))
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
    # mu = -1/2 on an odd grid makes I - mu*L exactly singular
    with pytest.raises(InvariantError, match="dgttrf"):
        kernels.factor(17, -0.5)


def reference_step(b, g, dt, lu_b, lu_c, r_b, a, s, f_e, f_b, r_c):
    """The step as allocating expressions, each evaluated left to right."""
    logistic = 1.0 - b
    rhs_b = b + dt * (r_b * logistic * b - a * b * g / (s + b) + f_e * logistic * g)
    rhs_g = g + dt * (f_b * b - r_c * g)
    return (dgttrs(*lu_b, rhs_b)[0], dgttrs(*lu_c, rhs_g)[0])


@pytest.mark.parametrize("n", [16, 3000])
def test_step_in_work_array_matches_allocating_reference(n, rng):
    lu_b = kernels.factor(n, 0.37)
    lu_c = kernels.factor(n, 412.5)
    rates = (0.0347, 0.3129, 0.01, 0.0856, 2.05e-3, 0.02)
    work = kernels.work_array(n)
    work[...] = np.nan  # whatever a previous step left there must not leak in
    for _ in range(3):
        b = rng.uniform(0.0, 1.0, n)
        g = rng.uniform(0.0, 0.5, n) * rng.choice([0.0, 1.0, 1e-9], n)
        dt = rng.uniform(0.1, 2.0)
        expected = reference_step(b, g, dt, lu_b, lu_c, *rates)
        b_in, g_in = b.copy(), g.copy()
        got = kernels.step_arrays(b, g, dt, lu_b, lu_c, *rates, work)
        for x, ref, row in zip(got, expected, work):
            np.testing.assert_array_equal(x.view(np.int64), ref.view(np.int64))  # bitwise
            assert np.shares_memory(x, row)
        np.testing.assert_array_equal(b, b_in)
        np.testing.assert_array_equal(g, g_in)
