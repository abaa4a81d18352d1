"""Time-stepping kernel: one semi-implicit update in numpy/scipy.

The update acts on carrying-capacity-scaled fields b = beta/b_i,
g = gamma/b_i:

    (I - dt*mu*L) u_new = u + dt * reaction(u)

with L the second-difference operator closed by ghost-node reflection
(homogeneous Neumann) and mu = d/dx^2.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def step_arrays(b, g, dt, mu_b, mu_c, r_b, a, s, f_e, f_b, r_c):
    """One step of both fields; ``mu_b``/``mu_c`` already include ``dt``."""
    logistic = 1.0 - b
    rhs_b = b + dt * (r_b * logistic * b - a * b * g / (s + b) + f_e * logistic * g)
    rhs_g = g + dt * (f_b * b - r_c * g)
    return _banded_solve(rhs_b, mu_b), _banded_solve(rhs_g, mu_c)


def _banded_solve(rhs, mu):
    n = rhs.shape[0]
    if mu == 0.0:
        return rhs
    ab = np.zeros((3, n))
    ab[0, 1:] = -mu
    ab[0, 1] = -2.0 * mu
    ab[1, :] = 1.0 + 2.0 * mu
    ab[2, :-1] = -mu
    ab[2, n - 2] = -2.0 * mu
    return solve_banded((1, 1), ab, rhs)
