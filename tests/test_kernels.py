import numpy as np
import pytest

from gutpatterns import kernels


def dense_system(n, mu):
    A = np.eye(n) * (1.0 + 2.0 * mu)
    for i in range(n - 1):
        A[i, i + 1] = -mu
        A[i + 1, i] = -mu
    A[0, 1] = -2.0 * mu
    A[n - 1, n - 2] = -2.0 * mu
    return A


@pytest.mark.parametrize("n,mu", [(16, 0.3), (257, 12.5), (1000, 1e-4)])
def test_banded_solve_matches_dense(n, mu, rng):
    rhs = rng.standard_normal(n)
    x = kernels._banded_solve(rhs, mu)
    expected = np.linalg.solve(dense_system(n, mu), rhs)
    np.testing.assert_allclose(x, expected, rtol=1e-10, atol=1e-12)
