"""L^q norms of piecewise-linear functions and the critical-exponent residual.

Per-element Gauss quadrature with a doubling audit.  An affine function
raised to a non-integer power is smooth except where it vanishes, so
elements on which the function changes sign are split along the exact
zero set before integrating.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quad import triangle_rule, unit_gauss
from .mesh import FeFunction, element_geometry

__all__ = ["QuadratureRule", "reference_rule", "lq_norm", "nonlinear_residual"]

_DEFAULT_ORDER = 6
_MAX_ORDER = 14
_NORM_RTOL = 1e-8
_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class QuadratureRule:
    """Point/weight set on the reference simplex.

    ``points`` has shape (n_points, dim) in reference coordinates
    (interval [0,1] or the unit triangle), ``weights`` sums to the
    reference measure, and ``degree`` is the polynomial exactness.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        if self.points.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("points must be (n, dim), weights (n,)")
        if len(self.points) != len(self.weights):
            raise ValueError("points/weights length mismatch")
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def barycentric(self) -> np.ndarray:
        """Barycentric coordinates of the points, shape (n, dim+1)."""
        first = 1.0 - self.points.sum(axis=1)
        return np.column_stack([first, self.points])


@lru_cache(maxsize=None)
def reference_rule(dim: int, order: int) -> QuadratureRule:
    """Gauss rule on the reference simplex with ``order`` points per direction."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if dim == 1:
        x, w = unit_gauss(order)
        return QuadratureRule(x[:, None].copy(), w.copy(), 2 * order - 1)
    if dim == 2:
        pts, wts = triangle_rule(order)
        return QuadratureRule(pts.copy(), wts.copy(), 2 * order - 2)
    raise ValueError("dim must be 1 or 2")


def _split_simplices(w: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Partition the reference simplex along the zero set of an affine function.

    ``w`` holds the vertex values, with min(w) < 0 < max(w).  Returns
    (barycentric vertex matrix, reference-measure fraction) pairs; the
    function is one-signed on each piece.
    """
    k = len(w)
    if k == 2:
        t = w[0] / (w[0] - w[1])
        left = np.array([[1.0, 0.0], [1.0 - t, t]])
        right = np.array([[1.0 - t, t], [0.0, 1.0]])
        return [(left, t), (right, 1.0 - t)]

    eye = np.eye(3)

    def cross_point(i, j):
        t = w[i] / (w[i] - w[j])
        return (1.0 - t) * eye[i] + t * eye[j]

    pos = np.flatnonzero(w > 0)
    neg = np.flatnonzero(w < 0)
    pieces: list[np.ndarray] = []
    if len(pos) == 1 and len(neg) == 1:
        # one vertex sits exactly on the zero line
        zero = int(np.flatnonzero(w == 0)[0])
        i, j = int(pos[0]), int(neg[0])
        z = cross_point(i, j)
        pieces = [np.stack([eye[zero], eye[i], z]), np.stack([eye[zero], z, eye[j]])]
    else:
        a = int(pos[0]) if len(pos) == 1 else int(neg[0])
        b, c = [v for v in range(3) if v != a]
        zb = cross_point(a, b)
        zc = cross_point(a, c)
        pieces = [
            np.stack([eye[a], zb, zc]),
            np.stack([zb, eye[b], eye[c]]),
            np.stack([zb, eye[c], zc]),
        ]
    out = []
    for bary in pieces:
        edges = bary[1:, 1:] - bary[0, 1:]
        frac = 2.0 * abs(0.5 * np.linalg.det(edges))
        out.append((bary, frac))
    return out


def _element_integrals(u: FeFunction, order: int, integrand) -> np.ndarray:
    """Per-element integrals of ``integrand`` over the mesh, one rule lookup.

    ``integrand(vals, lam, weights)`` contracts function values at the
    rule points (leading axes are elements or none) against the rule
    weights; ``lam`` holds the barycentric coordinates of those points.
    Elements on which u changes sign are integrated piece by piece.
    """
    mesh = u.mesh
    rule = reference_rule(mesh.dim, order)
    lam = rule.barycentric()
    w_elem = u.values[mesh.elements]

    per_elem = integrand(w_elem @ lam.T, lam, rule.weights)
    mixed = np.flatnonzero((w_elem.min(axis=1) < 0) & (w_elem.max(axis=1) > 0))
    for e in mixed:
        total = 0.0
        for bary, frac in _split_simplices(w_elem[e]):
            lam_sub = lam @ bary
            total += frac * integrand(lam_sub @ w_elem[e], lam_sub, rule.weights)
        per_elem[e] = total
    # transposes so the Jacobian scales the element axis, scalar or vector
    return (per_elem.T * element_geometry(mesh).jacobian).T


def _refine(name: str, integral_at, order: int, rtol: float):
    """Evaluate ``integral_at(n)`` at doubled orders until the change is below ``rtol``.

    The order n starts at ``order`` and grows by 2 until the result at 2n
    moves from the one at n by at most ``rtol`` times its size (both
    measured in the max norm).  Past _MAX_ORDER the result at 2n is
    returned with a RuntimeWarning naming the change achieved.
    """
    n = max(int(order), 2)
    coarse = integral_at(n)
    while True:
        fine = integral_at(2 * n)
        change = float(np.max(np.abs(fine - coarse)))
        size = float(np.max(np.abs(fine)))
        if change <= rtol * size:
            return fine
        if n >= _MAX_ORDER:
            warnings.warn(
                f"{name}: stopped at Gauss order {2 * n} with relative change "
                f"{change / size if size else np.inf:.3g}, above the tolerance {rtol:.0e}",
                RuntimeWarning,
                stacklevel=3,
            )
            return fine
        n += 2
        coarse = integral_at(n)


def lq_norm(u: FeFunction, q: float, order: int = _DEFAULT_ORDER) -> float:
    """The L^q norm of a piecewise-linear function over the mesh.

    The per-element Gauss order starts at ``order`` and is raised until
    doubling it moves the result by at most a 1e-8 relative tolerance.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not np.any(u.values):
        return 0.0

    def power(vals, lam, weights):
        return np.abs(vals) ** q @ weights

    def norm_at(n):
        return float(_element_integrals(u, n, power).sum()) ** (1.0 / q)

    return _refine("lq_norm", norm_at, order, _NORM_RTOL)


def nonlinear_residual(u: FeFunction, q: float, order: int = _DEFAULT_ORDER) -> np.ndarray:
    """Free-node vector b(u)_i = integral of |u|^{q-2} u phi_i.

    This is (1/q) times the gradient of the q-th power of the L^q norm
    with respect to the nodal coefficients.
    """
    if q <= 2:
        raise ValueError("q must be > 2")
    if not np.any(u.values):
        raise ValueError("residual requires a nonzero function")
    mesh = u.mesh

    def tested(vals, lam, weights):
        g = np.abs(vals) ** (q - 2.0) * vals
        return np.einsum("q,...q,qa->...a", weights, g, lam)

    def residual_at(n):
        b = np.zeros(mesh.n_nodes)
        np.add.at(b, mesh.elements, _element_integrals(u, n, tested))
        return b[: mesh.free_count]

    return _refine("nonlinear_residual", residual_at, order, _RESIDUAL_RTOL)
