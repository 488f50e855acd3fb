"""Shared quadrature building blocks.

Gauss-Legendre rules on [0, 1], collapsed tensor rules on the reference
triangle, and the error a quadrature raises when it misses its target.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


class QuadratureError(RuntimeError):
    """A quadrature did not reach its accuracy target.

    ``estimate`` carries the best available value.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@lru_cache(maxsize=128)
def unit_gauss(n: int):
    """Gauss-Legendre nodes and weights transplanted to [0, 1].

    Exact for polynomials of degree <= 2n - 1. Returned arrays are shared;
    callers must not mutate them.
    """
    x, w = leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=128)
def triangle_rule(n: int):
    """Tensor Gauss rule collapsed onto the triangle {a, b >= 0, a + b <= 1}.

    Returns (points (n*n, 2), weights (n*n,)); weights sum to the reference
    area 1/2. Exact for total degree <= 2n - 2 (the collapse map raises the
    degree in the first coordinate by one).
    """
    x, w = unit_gauss(int(n))
    a, b = np.meshgrid(x, x, indexing="ij")
    wts = np.outer(w, w) * (1.0 - a)
    pts = np.column_stack([a.ravel(), (b * (1.0 - a)).ravel()])
    return pts, wts.ravel()
