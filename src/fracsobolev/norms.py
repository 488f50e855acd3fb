"""L^q norms of piecewise-linear functions and the critical-exponent residual.

Per-element Gauss quadrature with a doubling audit: ``_quad.refine``,
the order-doubling driver ``bubble``'s radial norm shares, raises the
order, and each element pass looks its rule up once through
``reference_rule``.  An affine function
raised to a non-integer power is smooth except where it vanishes, so the
elements on which the function changes sign are cut along the exact zero
set, all in one array pass, by one rule for segments and triangles: take
the lone vertex ``a`` (the only positive vertex, or else the only
non-positive one), cut the edges from ``a`` where u = 0 and keep the corner
``[a, cuts]``, and fan the rest from the first cut (``[cut, b]`` in 1D,
``[cut_b, b, c]`` and ``[cut_b, c, cut_c]`` in 2D).  A cut on a vertex
where u is exactly zero gives a piece of zero measure.
"""

from __future__ import annotations

import numpy as np

from ._quad import reference_rule, refine
from .mesh import FeFunction, element_geometry

__all__ = ["lq_norm", "nonlinear_residual"]

_DEFAULT_ORDER = 6
_NORM_RTOL = 1e-8
_RESIDUAL_RTOL = 1e-10


def _sign_split(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut M sign-changing simplices, vertex values ``w`` (M, k), by the module's rule.

    Returns the barycentric vertex matrices of the k pieces per simplex,
    shape (k, M, k, k), and their fractions |det| of the reference
    measure, shape (k, M); u is one-signed at the vertices of every piece.
    """
    k = w.shape[1]
    pos = w > 0
    a = np.where(pos.sum(axis=1) == 1, pos.argmax(axis=1), (~pos).argmax(axis=1))
    order = (a[:, None] + np.arange(k)) % k
    vert = np.eye(k)[order]
    wv = np.take_along_axis(w, order, axis=1)
    t = (wv[:, :1] / (wv[:, :1] - wv[:, 1:]))[..., None]
    cut = (1.0 - t) * vert[:, :1] + t * vert[:, 1:]
    v, z = np.swapaxes(vert, 0, 1), np.swapaxes(cut, 0, 1)
    pieces = [[v[0], *z], [z[0], *v[1:]]]
    if k == 3:
        pieces.append([z[0], v[2], z[1]])
    bary = np.stack([np.stack(p, axis=1) for p in pieces])
    return bary, np.abs(np.linalg.det(bary[..., 1:, 1:] - bary[..., :1, 1:]))


def _element_integrals(u: FeFunction, order: int, integrand) -> np.ndarray:
    """Per-element integrals of ``integrand`` over the mesh, one rule lookup.

    ``integrand(vals, lam, weights)`` contracts the values at the rule
    points, whose barycentric coordinates are ``lam``, against the weights:
    to a scalar, or tested against ``lam`` to one entry per simplex vertex.
    The leading axes of ``vals`` are the elements or, for the elements cut
    by ``_sign_split``, the pieces and then the elements; per-vertex results
    of a piece go back to its element's vertices through its barycentric
    vertex matrix.  Without a sign-changing element the split is skipped.
    """
    mesh = u.mesh
    lam, weights = reference_rule(mesh.dim, order)
    w_elem = u.values[mesh.elements]

    per_elem = integrand(w_elem @ lam.T, lam, weights)
    mixed = np.flatnonzero((w_elem.min(axis=1) < 0) & (w_elem.max(axis=1) > 0))
    if mixed.size:
        bary, frac = _sign_split(w_elem[mixed])
        corners = np.einsum("pmjb,mb->pmj", bary, w_elem[mixed])
        parts = integrand(corners @ lam.T, lam, weights)
        if parts.ndim == 3:
            parts = np.einsum("pmj,pmjb->pmb", parts, bary)
        per_elem[mixed] = np.einsum("pm,pm...->m...", frac, parts)
    # transposes so the Jacobian scales the element axis, scalar or vector
    return (per_elem.T * element_geometry(mesh).jacobian).T


def lq_norm(u: FeFunction, q: float, order: int = _DEFAULT_ORDER) -> float:
    """The L^q norm of a piecewise-linear function over the mesh.

    The per-element Gauss order starts at ``order`` and is raised until
    doubling it moves the result by at most a 1e-8 relative tolerance.
    """
    if not 1.0 <= q < np.inf:
        raise ValueError(f"q must be a finite number >= 1, got {q!r}")
    if not np.any(u.values):
        return 0.0

    def power(vals, lam, weights):
        return np.abs(vals) ** q @ weights

    def norm_at(n):
        return float(_element_integrals(u, n, power).sum()) ** (1.0 / q)

    return refine("lq_norm", norm_at, order, _NORM_RTOL)


def nonlinear_residual(u: FeFunction, q: float) -> np.ndarray:
    """Free-node vector b(u)_i = integral of |u|^{q-2} u phi_i.

    This is (1/q) times the gradient of the q-th power of the L^q norm
    with respect to the nodal coefficients.
    """
    if not 2.0 < q < np.inf:
        raise ValueError(f"q must be a finite number > 2, got {q!r}")
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

    return refine("nonlinear_residual", residual_at, _DEFAULT_ORDER, _RESIDUAL_RTOL)
