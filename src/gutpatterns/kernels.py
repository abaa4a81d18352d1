"""Time-stepping kernel: one semi-implicit update in numpy/scipy.

The update acts on carrying-capacity-scaled fields b = beta/b_i,
g = gamma/b_i:

    (I - dt*mu*L) u_new = u + dt * reaction(u)

with L the second-difference operator closed by ghost-node reflection
(homogeneous Neumann) and mu = d/dx^2. The matrix depends only on dt, dx
and d, so it is LU-factored once with LAPACK ``dgttrf`` and each step
only back-substitutes with ``dgttrs`` (Anderson et al., *LAPACK Users'
Guide*, 1999).

A step allocates no arrays: the reaction update writes its intermediates
into a caller-owned work array with ``out=`` and in-place ufuncs, and
``dgttrs`` solves in place on the right-hand sides it leaves there.
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


def work_array(n: int) -> np.ndarray:
    """A work array for :func:`step_arrays` on ``n`` nodes."""
    return np.empty((4, n))


def step_arrays(b, g, dt, lu_b, lu_c, r_b, a, s, f_e, f_b, r_c, work):
    """One step of both fields; ``lu_b``/``lu_c`` come from :func:`factor`.

    Every intermediate is written into ``work`` (from :func:`work_array`),
    and the two returned fields are its first two rows, so ``b`` and ``g``
    must not share memory with it. The operations and their order are those
    of ``rhs_b = b + dt*(r_b*(1 - b)*b - a*b*g/(s + b) + f_e*(1 - b)*g)``
    and ``rhs_g = g + dt*(f_b*b - r_c*g)`` evaluated left to right, so the
    result is bitwise that of the expressions.
    """
    rhs_b, rhs_g, logistic, tmp = work
    np.subtract(1.0, b, out=logistic)
    np.multiply(r_b, logistic, out=rhs_b)
    rhs_b *= b                        # growth
    np.multiply(f_e, logistic, out=rhs_g)
    rhs_g *= g                        # leakage, held in rhs_g until it is added
    np.multiply(a, b, out=tmp)
    tmp *= g
    np.add(s, b, out=logistic)        # logistic is not read again
    tmp /= logistic                   # predation
    rhs_b -= tmp
    rhs_b += rhs_g
    rhs_b *= dt
    rhs_b += b
    np.multiply(f_b, b, out=rhs_g)
    np.multiply(r_c, g, out=tmp)
    rhs_g -= tmp
    rhs_g *= dt
    rhs_g += g
    return _solve(lu_b, rhs_b), _solve(lu_c, rhs_g)


def _solve(lu, rhs):
    """Solve in place: ``dgttrs`` overwrites ``rhs`` with the solution."""
    x, _ = dgttrs(*lu, rhs, overwrite_b=1)
    return x
