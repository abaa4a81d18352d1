"""Time-stepping kernel: one semi-implicit update in numpy/scipy.

The update acts on carrying-capacity-scaled fields b = beta/b_i,
g = gamma/b_i:

    (I - dt*mu*L) u_new = u + dt * reaction(u)

with L the second-difference operator closed by ghost-node reflection
(homogeneous Neumann) and mu = d/dx^2. The matrix depends only on dt, dx
and d, so it is LU-factored once with LAPACK ``dgttrf`` and each step
only back-substitutes with ``dgttrs`` (Anderson et al., *LAPACK Users'
Guide*, 1999).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import InvariantError


def factor(n: int, mu: float) -> tuple:
    """LU factors of the n-node reflecting-end matrix ``I - mu*L``.

    ``mu`` already includes ``dt``. Returns ``(dl, d, du, du2, ipiv)`` as
    ``dgttrs`` takes them.
    """
    dl = np.full(n - 1, -mu)
    du = np.full(n - 1, -mu)
    du[0] = -2.0 * mu
    dl[-1] = -2.0 * mu
    d = np.full(n, 1.0 + 2.0 * mu)
    *lu, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise InvariantError(f"diffusion matrix is singular (LAPACK dgttrf info={info}, mu={mu!r})")
    return tuple(lu)


def step_arrays(b, g, dt, lu_b, lu_c, r_b, a, s, f_e, f_b, r_c):
    """One step of both fields; ``lu_b``/``lu_c`` come from :func:`factor`."""
    logistic = 1.0 - b
    rhs_b = b + dt * (r_b * logistic * b - a * b * g / (s + b) + f_e * logistic * g)
    rhs_g = g + dt * (f_b * b - r_c * g)
    return _solve(lu_b, rhs_b), _solve(lu_c, rhs_g)


def _solve(lu, rhs):
    x, _ = dgttrs(*lu, rhs, overwrite_b=1)
    return x
