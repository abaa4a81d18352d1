import numpy as np
import pytest

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
    x, _ = kernels.step_arrays(rhs, np.zeros(n), 1.0, lu, lu, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
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
