"""Time-stepping kernel: one semi-implicit update in numpy/scipy.

The update acts on carrying-capacity-scaled fields b = beta/b_i,
g = gamma/b_i:

    (I - dt*mu*L) u_new = u + dt * reaction(u)

with L the second-difference operator closed by ghost-node reflection
(homogeneous Neumann) and mu = d/dx^2. Ghost-node reflection doubles the
off-diagonal of the two end rows, so ``I - dt*mu*L`` is not symmetric;
halving those two rows makes it symmetric positive definite, with
diagonal ``0.5 + mu`` at the ends, ``1 + 2*mu`` inside and ``-mu`` off
the diagonal. The same two rows of the right-hand side are halved to
match. Both fields' row-scaled matrices are stacked into one 2n-node
tridiagonal matrix whose coupling entry between them is zero, so one
LAPACK ``dpttrf`` factors it as L*D*L^T once per run and each step makes
one ``dpttrs`` call, which solves without pivoting and with no division
in its loop-carried chain (Anderson et al., *LAPACK Users' Guide*, 1999).
The zero coupling leaves the factors and the solution of each field
bitwise those of factoring and solving it alone.

A step allocates no arrays: the reaction update writes its intermediates
into a caller-owned work array with ``out=`` and in-place ufuncs, and
``dpttrs`` solves in place on the right-hand sides it leaves there.

LAPACK is loaded by :func:`factor`, not here, so the subcommands that
never step do not pay for loading it. :func:`_lapack` imports the
top-level ``scipy`` package, which sets up its bundled libraries, and then
loads scipy's LAPACK extension module ``scipy.linalg._flapack`` straight
from its file, so the package init of ``scipy.linalg`` (hundreds of Python
modules, ~0.2 s and ~27 MB) never runs. ``dpttrf`` and ``dpttrs`` are the
same compiled routines that ``scipy.linalg.lapack`` exports.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

from .errors import InvariantError


@functools.cache
def _lapack():
    """scipy's LAPACK extension module, loaded without ``scipy.linalg``."""
    import scipy

    name = "scipy.linalg._flapack"
    path = [os.path.join(entry, "linalg") for entry in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ImportError(f"cannot find {name} in {path}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def factor(n: int, mu_b: float, mu_c: float) -> functools.partial:
    """Factor both fields' row-scaled n-node matrices ``I - mu*L`` at once.

    ``mu_b`` and ``mu_c`` already include ``dt``. Returns the solve: a
    callable that overwrites a contiguous 2n right-hand side (bacteria
    first, end entries halved) with the solution.
    """
    lapack = _lapack()
    mu = np.repeat([mu_b, mu_c], n)
    d = 1.0 + 2.0 * mu
    ends = [0, n - 1, n, 2 * n - 1]
    d[ends] = 0.5 + mu[ends]
    e = -mu[:-1]
    e[n - 1] = 0.0  # the two fields do not couple through diffusion
    d, e, info = lapack.dpttrf(d, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise InvariantError(
            f"diffusion matrix is not positive definite "
            f"(LAPACK dpttrf info={info}, mu_b={mu_b!r}, mu_c={mu_c!r})"
        )
    return functools.partial(lapack.dpttrs, d, e, overwrite_b=1)


def work_array(n: int) -> np.ndarray:
    """A work array for :func:`step_arrays` on ``n`` nodes."""
    return np.empty((4, n))


def step_arrays(b, g, dt, solve, r_b, a, s, f_e, f_b, r_c, work):
    """One step of both fields; ``solve`` comes from :func:`factor`.

    Every intermediate is written into ``work`` (from :func:`work_array`),
    and the two returned fields are its first two rows, so ``b`` and ``g``
    must not share memory with it. The operations and their order are those
    of ``rhs_b = b + dt*(r_b*(1 - b)*b - a*b*g/(s + b) + f_e*(1 - b)*g)``
    and ``rhs_g = g + dt*(f_b*b - r_c*g)`` evaluated left to right, so the
    right-hand sides are bitwise those of the expressions.
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
    work[:2, ::work.shape[1] - 1] *= 0.5  # the end rows, halved like those of the matrices
    solve(work[:2].reshape(-1))       # rows 0 and 1 are contiguous: a view, solved in place
    return rhs_b, rhs_g
