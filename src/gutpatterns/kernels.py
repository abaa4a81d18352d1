"""Time-stepping kernel: one semi-implicit update in numpy and LAPACK.

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
into two caller-owned arrays, a (2, n) output and one n-node scratch row,
with ``out=`` and in-place ufuncs, and ``dpttrs`` solves in place on the
right-hand sides it leaves in the output.

LAPACK is loaded by :func:`factor`, not here, so the subcommands that
never step do not pay for loading it. :func:`_lapack` takes ``dpttrf`` and
``dpttrs`` from the LAPACK that numpy itself links: it opens numpy's
already loaded extension module ``numpy.linalg._umath_linalg`` with
``ctypes``, and on Linux and macOS the dynamic loader's symbol lookup
also searches that module's dependencies, numpy's bundled OpenBLAS among
them. numpy imports ``ctypes`` and that module itself, so no module and
no library is loaded for it, and scipy is never imported. The routines
are called through ``ctypes``, which checks no argument, so :func:`factor`
checks a right-hand side once, when a solve is bound to it, and the solve
reuses the addresses it recorded then.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable

import numpy as np

from .errors import InvariantError, ParameterError

# The names of dpttrf in the LAPACK builds numpy may link, in the order
# tried (dpttrs is spelled alike), with the C type of their INTEGERs.
_CANDIDATES = (
    ("scipy_{}_64_", ctypes.c_int64),  # numpy >= 2.0 wheels: scipy-openblas, 64-bit integers
    ("{}_64_", ctypes.c_int64),        # numpy 1.24-1.26 wheels: OpenBLAS, 64-bit integers
    ("{}_", ctypes.c_int),             # a system or conda LAPACK with 32-bit integers
)


@functools.cache
def _lapack():
    """``(dpttrf, dpttrs, integer)`` from the LAPACK that numpy links, with
    ``integer`` the ctypes type of their INTEGER arguments."""
    from numpy.linalg import _umath_linalg

    path = _umath_linalg.__file__
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise ImportError(f"cannot open numpy's {path} for its LAPACK: {exc}") from exc
    for template, integer in _CANDIDATES:
        try:
            dpttrf, dpttrs = (getattr(lib, template.format(name)) for name in ("dpttrf", "dpttrs"))
        except AttributeError:
            continue
        # no argtypes: converting through them costs ~2 us a call, 2% of a
        # canonical step; factor builds every argument but the right-hand
        # side, which bind checks
        dpttrf.restype = dpttrs.restype = None
        return dpttrf, dpttrs, integer
    tried = ", ".join(template.format("dpttrf") + "/" + template.format("dpttrs")
                      for template, _ in _CANDIDATES)
    raise ImportError(f"no LAPACK dpttrf/dpttrs found through numpy's {path}: tried {tried}")


def _pointer(a: np.ndarray) -> ctypes.c_void_p:
    """The address of ``a``'s data; the pointer keeps ``a`` alive."""
    return a.ctypes.data_as(ctypes.c_void_p)


def factor(n: int, mu_b: float, mu_c: float) -> Callable[[np.ndarray], Callable[[], None]]:
    """Factor both fields' row-scaled n-node matrices ``I - mu*L`` at once.

    ``mu_b`` and ``mu_c`` already include ``dt``. Returns ``bind``:
    ``bind(rhs)`` checks that ``rhs`` is a writeable C-contiguous float64
    array of 2n values, bacteria first with end entries halved, else raises
    ValueError, and returns the solve, a callable without arguments that
    overwrites ``rhs`` with the solution. Bind each output array once: the
    solve reuses the addresses recorded at binding, so it neither checks
    nor looks up anything.
    """
    dpttrf, dpttrs, integer = _lapack()
    size = integer(2 * n)
    if size.value != 2 * n:
        raise ParameterError(f"n_points={n}: 2*n_points overflows this LAPACK's {integer.__name__}")
    d = np.repeat([mu_b, mu_c], n)
    e = -d[:-1]
    e[n - 1] = 0.0  # the two fields do not couple through diffusion
    d *= 2.0
    d += 1.0  # 1 + 2*mu, in place
    d[[0, n - 1, n, 2 * n - 1]] = [0.5 + mu_b, 0.5 + mu_b, 0.5 + mu_c, 0.5 + mu_c]
    d_factor, e_factor, info = _pointer(d), _pointer(e), integer(0)
    dpttrf(ctypes.byref(size), d_factor, e_factor, ctypes.byref(info))  # in place
    if info.value != 0:
        raise InvariantError(
            f"diffusion matrix is not positive definite "
            f"(LAPACK dpttrf info={info.value}, mu_b={mu_b!r}, mu_c={mu_c!r})"
        )
    one = ctypes.byref(integer(1))

    def bind(rhs: np.ndarray) -> Callable[[], None]:
        if not (isinstance(rhs, np.ndarray) and rhs.dtype == np.float64 and rhs.size == 2 * n
                and rhs.flags.c_contiguous and rhs.flags.writeable):
            raise ValueError(f"a right-hand side must be a writeable C-contiguous float64 array "
                             f"of {2 * n} values")
        # dpttrs(N, NRHS, D, E, B, LDB, INFO); with the checks above and a
        # factorization that succeeded, INFO can only be 0
        return functools.partial(dpttrs, ctypes.byref(size), one, d_factor, e_factor,
                                 _pointer(rhs), ctypes.byref(size), ctypes.byref(integer(0)))

    return bind


def step_arrays(b, g, dt, solve, r_b, a, s, f_e, f_b, r_c, out, scratch):
    """One step of both fields: the package's one statement of the reaction.

    ``out`` is a (2, n) C-contiguous array and ``solve`` is :func:`factor`'s
    ``bind`` applied to it; ``scratch`` is one more n-node row. Every
    intermediate is written into those two, and the two returned fields are
    the rows of ``out``, so ``b`` and ``g`` must not share memory with
    either. The operations and their order are those of
    ``rhs_b = b + dt*(r_b*(1 - b)*b - a*b*g/(s + b) + f_e*(1 - b)*g)`` and
    ``rhs_g = g + dt*(f_b*b - r_c*g)`` evaluated left to right, with the
    predation term computed first, so the right-hand sides are bitwise those
    of the expressions; the tests check them bitwise against those
    expressions, written once as ``reaction`` in ``tests/conftest.py``.
    """
    rhs_b, rhs_g = out
    np.add(s, b, out=rhs_b)
    np.multiply(a, b, out=scratch)
    scratch *= g
    scratch /= rhs_b                  # predation
    np.subtract(1.0, b, out=rhs_g)    # 1 - b, held in rhs_g until leakage is made
    np.multiply(r_b, rhs_g, out=rhs_b)
    rhs_b *= b                        # growth
    rhs_b -= scratch
    np.multiply(f_e, rhs_g, out=scratch)
    scratch *= g                      # leakage
    rhs_b += scratch
    rhs_b *= dt
    rhs_b += b
    np.multiply(f_b, b, out=rhs_g)
    np.multiply(r_c, g, out=scratch)
    rhs_g -= scratch
    rhs_g *= dt
    rhs_g += g
    out[:, ::out.shape[1] - 1] *= 0.5  # the end rows, halved like those of the matrices
    solve()                           # both rows, in place
    return rhs_b, rhs_g
