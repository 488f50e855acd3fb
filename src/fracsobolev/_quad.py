"""Shared quadrature building blocks.

Gauss-Legendre rules on [0, 1], Gauss rules on the reference simplex in
barycentric form, the one order-doubling driver that ``norms`` and
``bubble`` refine their rules with, and the error a quadrature raises
when it misses its target.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


# refine raises the order n to this, so the finest rule has 2 MAX_ORDER points
MAX_ORDER = 14


class QuadratureError(RuntimeError):
    """A quadrature did not reach its accuracy target."""


@lru_cache(maxsize=128, typed=True)
def unit_gauss(n: int):
    """Gauss-Legendre nodes and weights transplanted to [0, 1].

    Exact for polynomials of degree <= 2n - 1. Returned arrays are shared;
    callers must not mutate them.  A fractional order raises rather than
    being truncated and cached under its own key.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"quadrature order must be an integer >= 1, got {n!r}")
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# typed, so an order 2.0 misses the entry of 2 and reaches unit_gauss's check
@lru_cache(maxsize=None, typed=True)
def reference_rule(dim: int, order: int):
    """Gauss rule on the reference simplex with ``order`` points per direction.

    Returns (lam (n, dim+1), weights (n,)): the barycentric coordinates of
    the points and weights summing to the reference measure, 1 or 1/2.  In
    1D it is Gauss on [0, 1], exact to degree 2 order - 1; in 2D the tensor
    rule collapsed onto {a, b >= 0, a + b <= 1}, exact to total degree
    2 order - 2 (the collapse raises the degree in a by one).  The arrays
    are shared and read-only.
    """
    x, w = unit_gauss(order)
    if dim == 1:
        pts, wts = x[:, None], w.copy()
    elif dim == 2:
        a, b = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([a.ravel(), (b * (1.0 - a)).ravel()])
        wts = (np.outer(w, w) * (1.0 - a)).ravel()
    else:
        raise ValueError("dim must be 1 or 2")
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts])
    lam.flags.writeable = wts.flags.writeable = False
    return lam, wts


def refine(name: str, integral_at, order: int, rtol: float):
    """Evaluate ``integral_at(n)`` at doubled orders until the change is below ``rtol``.

    The order n starts at ``order`` and grows by 2 until the result at 2n
    moves from the one at n by at most ``rtol`` times its size (both
    measured in the max norm).  Past MAX_ORDER the result at 2n is
    returned with a RuntimeWarning naming the change achieved, reported
    at the line that called refine's caller.
    """
    n = max(order, 2)
    coarse = integral_at(n)
    while True:
        fine = integral_at(2 * n)
        change = float(np.max(np.abs(fine - coarse)))
        size = float(np.max(np.abs(fine)))
        if change <= rtol * size:
            return fine
        if n >= MAX_ORDER:
            warnings.warn(
                f"{name}: stopped at Gauss order {2 * n} with relative change "
                f"{change / size if size else np.inf:.3g}, above the tolerance {rtol:.0e}",
                RuntimeWarning,
                stacklevel=3,
            )
            return fine
        n += 2
        coarse = integral_at(n)
