"""Assembly of the nonlocal bilinear form behind the fractional seminorm.

For piecewise-linear u, v vanishing outside the unit ball,

    a(u, v) = s(1-s) [ double integral over B_h x B_h of
                       (u(x)-u(y))(v(x)-v(y)) |x-y|^(-N-2s)
                       + 2 * integral of u v kappa ],

where kappa(x) integrates the kernel over the complement of the unit
ball, in closed form.  In 2D the mesh domain B_h is the inscribed
polygon, so the interaction of B_h with the slivers between it and the
disk, where the zero extension also vanishes, is left out (ROADMAP
item 3).  Element pairs are integrated by category: identical and
touching pairs through tensor transforms that cancel the singularity,
disjoint pairs by plain Gauss on both elements, and the complement term
by one Gauss rule per element: kappa blows up like depth^(-2s) at the
sphere, but u vanishes linearly there, so u^2 kappa behaves like
depth^(2-2s), which plain Gauss resolves.  The pair categories and the
shared-node order of touching pairs come from ``mesh.element_pairs``,
decided once per mesh.  Near disjoint pairs come from its table and take
_NEAR_BONUS more points per direction; the far pairs, almost all of the
m^2/2, are streamed in row blocks by ``mesh.far_pairs`` and never held
whole.  Above rule level 0 (the audits), far pairs _DISTANT_RATIO
diameters apart take the distant order, which grows more slowly with the
level than the far order.

Each category yields terms (category, node idx, g, wK), one row per
element pair or element: row b adds sum_q wK[b, q] (g_q . u[idx[b]])^2.
``assemble`` scatters each term's block sum_q wK g_q g_q^T into the
matrix; ``seminorm_sq_direct`` sums the terms at the points and forms
no block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from math import fsum, gamma

import numpy as np
from scipy.special import hyp2f1

from ._quad import reference_rule, unit_gauss
from .mesh import (
    BallMesh,
    FeFunction,
    SizeLimitError,
    element_geometry,
    element_pairs,
    far_pairs,
)
from .params import check_order

__all__ = [
    "AssemblyError",
    "AssemblyReport",
    "NonlocalForm",
    "assemble",
    "complement_weight",
    "element_self_interaction",
    "seminorm_sq",
    "seminorm_sq_direct",
]

_BOUNDARY_TOL = 1e-12
# extra Gauss points per direction on "near" disjoint pairs (see mesh.element_pairs)
_NEAR_BONUS = 2
# far pairs whose centroids lie at least this many larger diameters apart
# take the distant order of _orders
_DISTANT_RATIO = 4.0
_DENSE_BYTES_CAP = 2e9
# the element-pair categories, in the order the terms stream them
_CATEGORIES = ("identical", "vertex", "edge", "disjoint_near", "disjoint_far")
# quadrature points per yielded term, in every category: 2^16 keeps a
# term's float arrays at 512 KiB, small enough for a typical L2 cache,
# through the kernel passes and the scatter; the matrix is added into in
# place, so small terms add no per-term n^2 work
_TERM_POINTS = 1 << 16


class AssemblyError(RuntimeError):
    """Assembly produced an invalid matrix, local block or quadrature sum."""


def _orders(dim, boost):
    """Orders (far, distant, vertex, edge, angular, complement) at rule level boost.

    Orders count Gauss points per direction.  The far order serves the
    far pairs (near ones take _NEAR_BONUS more), except those whose
    centroids lie at least _DISTANT_RATIO larger diameters apart, which
    take the distant order; complement is the rule on each element for
    the complement term.  Level 0 is the default rule, where far and
    distant are equal, so the far pairs do not split.  Each level adds 2
    to far and 1 to distant, which keeps the audit finer on every pair
    for less work than 2 on all of them, 4 to vertex, edge and complement,
    and 16 to angular.
    """
    # a fractional level would reach unit_gauss, which truncates its order
    if not isinstance(boost, (int, np.integer)) or boost < 0:
        raise ValueError(f"rule level must be an integer >= 0, got {boost!r}")
    far, vertex = (4, 24) if dim == 1 else (3, 10)
    return (
        far + 2 * boost,
        far + boost,
        vertex + 4 * boost,
        12 + 4 * boost,
        24 + 16 * boost,
        8 + 4 * boost,
    )


@dataclass(frozen=True)
class AssemblyReport:
    """Work statistics for one assembly run.

    phase_seconds times each phase of the term generators (classify,
    singular, disjoint, complement) across its yields, so it includes the
    caller's per-term work while the generator waits: in assemble, the block
    and the scatter of every term. At 1D level 10, disjoint reads about
    0.9 s in assemble against 0.5 s for the generators alone. "total" is
    the whole assemble call. kernel_evals counts the quadrature points of
    each category's terms (0 for the closed-form 1D identical pairs), and
    complement_points those of the complement terms. complement_cells is
    the element count, one complement rule per element; budget_exceeded
    is always 0, kept because perfbench reads it by name until its
    capped-cells metric goes (ROADMAP item 9).
    """

    pair_counts: dict
    kernel_evals: dict
    complement_cells: int
    complement_points: int
    budget_exceeded: int
    phase_seconds: dict


@dataclass(frozen=True)
class NonlocalForm:
    """Assembled bilinear form restricted to the free (interior) nodes."""

    mesh: BallMesh
    s: float
    matrix: np.ndarray
    assembly_report: AssemblyReport
    boost: int


# -------------------------------------------------------------------- terms

def _row_chunks(rows, points):
    """Slices of rows holding at most _TERM_POINTS quadrature points each."""
    step = max(1, _TERM_POINTS // points)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _sum_sq(coords):
    """Sum of squares of per-coordinate arrays, added in index order.

    The floats of np.sum(z * z, axis=-1) over a trailing coordinate
    axis, without numpy's slow reduction over that short axis.  Each
    array is squared in place, so pass arrays nothing else reads.
    """
    coords = iter(coords)
    total = next(coords)
    np.multiply(total, total, out=total)
    for z in coords:
        np.multiply(z, z, out=z)
        total += z
    return total


def _term_block(g, wK):
    """Local blocks sum_q wK[b, q] g_q g_q^T of one term.

    A shared g, (points, n), takes one matmul against its point outer
    products; a per-row g, (B, points, n), one batched matmul.
    """
    if g.ndim == 2:
        n = g.shape[1]
        outer = (g[:, :, None] * g[:, None, :]).reshape(len(g), n * n)
        return (wK @ outer).reshape(len(wK), n, n)
    return np.swapaxes(g * wK[:, :, None], 1, 2) @ g


# --------------------------------------------------------------- complement

def complement_weight(x, N: int, s: float):
    """kappa(x) = integral of |x-y|^(-N-2s) over the complement of the ball.

    Closed form in both dimensions: on the disk
    (pi/s) (1-|x|^2)^(-2s) 2F1(-s, 1-s; 1; |x|^2), whose hypergeometric
    factor is elementary on the line.  Assembly evaluates it at every
    point of the complement rule, so this is the package's only kappa.
    """
    check_order(N, s)
    if N not in (1, 2):
        raise ValueError("complement weight is implemented for N in {1, 2}")
    pts = np.asarray(x, dtype=float)
    if N == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts[..., None]
    if pts.shape[-1] != N:
        raise ValueError(f"points must have last dimension {N}")
    rsq = _sum_sq(pts[..., d].copy() for d in range(N))
    radius = np.sqrt(rsq)
    if np.any(radius >= 1.0 - _BOUNDARY_TOL):
        raise ValueError("complement weight diverges at the boundary sphere")
    if N == 1:
        t = pts[..., 0]
        return ((1.0 - t) ** (-2 * s) + (1.0 + t) ** (-2 * s)) / (2 * s)
    gap = (1.0 - radius) * (1.0 + radius)
    return (np.pi / s) * gap ** (-2 * s) * hyp2f1(-s, 1 - s, 1, rsq)


def _complement_terms(mesh, s, geo, order):
    """Yield 2 * integral of u v kappa, one element per row.

    Every element takes the complement rule; g is its shared lam.
    """
    lam, weights = reference_rule(mesh.dim, order)
    scale = 2.0 * geo.jacobian
    for part in _row_chunks(mesh.n_elements, len(lam)):
        kap = complement_weight(lam @ geo.verts[part], mesh.dim, s)
        yield "complement", mesh.elements[part], lam, (scale[part, None] * weights) * kap


# ----------------------------------------------------------- local formulas

def _ident_terms_1d(mesh, s, geo):
    h = geo.measure
    g = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, None, :]
    wK = (2.0 * h ** (3 - 2 * s) / ((2 - 2 * s) * (3 - 2 * s)))[:, None]
    for part in _row_chunks(mesh.n_elements, 1):
        yield "identical", mesh.elements[part], g[part], wK[part]


def _vertex_terms_1d(mesh, s, pairs, order):
    mu, wmu = unit_gauss(order)
    n_pairs = len(pairs.vertex)
    coords = mesh.nodes[:, 0]
    shared, other_a, other_b = pairs.vertex_nodes.T
    # orient: left element's far node lies below the shared node
    left = np.where(coords[other_a] < coords[shared], other_a, other_b)
    right = np.where(coords[other_a] < coords[shared], other_b, other_a)
    h1 = coords[shared] - coords[left]
    h2 = coords[right] - coords[shared]
    idx = np.stack([left, shared, right], axis=1)
    scale = 2.0 * h1 * h2 / (3 - 2 * s)
    g0 = np.stack([np.ones_like(mu), mu - 1.0, -mu], axis=1)
    g1 = np.stack([mu, 1.0 - mu, -np.ones_like(mu)], axis=1)
    for part in _row_chunks(n_pairs, len(mu)):
        a, b = h1[part, None], h2[part, None]
        for g, gap in ((g0, a + b * mu), (g1, a * mu + b)):
            wK = (scale[part, None] * wmu) * gap ** (-1.0 - 2 * s)
            yield "vertex", idx[part], g, wK


def _ident_terms_2d(mesh, s, geo, order):
    """Identical pairs by angular sector; each sector runs over the elements in order."""
    m = mesh.n_elements
    verts = geo.verts
    beta = gamma(2 - 2 * s) * gamma(3) / gamma(5 - 2 * s)
    L = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 1]], axis=-1)
    scale = 4.0 * beta * geo.measure * geo.measure
    xg, wg = np.polynomial.legendre.leggauss(order)
    for a, b in ((0, np.pi / 4), (np.pi / 4, np.pi / 2), (np.pi / 2, np.pi)):
        th = 0.5 * (b - a) * xg + 0.5 * (a + b)
        w = 0.5 * (b - a) * wg
        om = np.stack([np.cos(th), np.sin(th)], axis=-1)
        tau = 0.5 * (np.abs(om[:, 0]) + np.abs(om[:, 1]) + np.abs(om[:, 0] - om[:, 1]))
        for part in _row_chunks(m, len(th)):
            z = np.einsum("nc,bdc->bnd", om, L[part])
            gz = np.einsum("bkd,bnd->bnk", geo.grads[part], z)
            # squares z in place: nothing reads it after
            kz = _sum_sq(z[..., c] for c in range(2)) ** (-(2 + 2 * s) / 2)
            wK = kz * (tau ** (2 * s - 2) * w) * scale[part, None]
            yield "identical", mesh.elements[part], gz, wK


def element_self_interaction(mesh: BallMesh, s: float) -> np.ndarray:
    """Per-element local blocks of the kernel integral over K x K.

    Entry (k, i, j) is the double integral over element k with itself of
    (phi_i(x) - phi_i(y))(phi_j(x) - phi_j(y)) |x-y|^(-N-2s), without the
    s(1-s) factor, at the default quadrature of the dimension.
    """
    check_order(mesh.dim, s)
    geo = element_geometry(mesh)
    if mesh.dim == 1:
        terms = _ident_terms_1d(mesh, s, geo)
    else:
        terms = _ident_terms_2d(mesh, s, geo, _orders(2, 0)[4])
    local = np.concatenate([_term_block(g, wK) for _, _, g, wK in terms])
    k = mesh.dim + 1
    return local.reshape(-1, mesh.n_elements, k, k).sum(axis=0)


def _vertex_terms_2d(mesh, s, geo, pairs, order):
    x01, w01 = unit_gauss(order)
    Sg, Tg, Mg = (a.ravel() for a in np.meshgrid(x01, x01, x01, indexing="ij"))
    Wg = (w01[:, None, None] * w01[None, :, None] * w01[None, None, :]).ravel()
    g_br = (
        np.stack([Mg - 1, 1 - Sg, Sg, -Mg * (1 - Tg), -Mg * Tg], axis=1),
        np.stack([1 - Mg, Mg * (1 - Sg), Mg * Sg, -(1 - Tg), -Tg], axis=1),
    )
    idx = pairs.vertex_nodes
    # edges from the shared node: two of the first element, two of the second
    edges = mesh.nodes[idx[:, 1:]] - mesh.nodes[idx[:, :1]]
    area = geo.measure[pairs.vertex]
    scale = 2.0 * 4.0 * area[:, 0] * area[:, 1] / (4 - 2 * s)
    Sc, Tc = 1 - Sg, 1 - Tg
    for part in _row_chunks(len(idx), len(Mg)):
        # per coordinate c: (B, points) points on the two far edges
        a1, a2, b1, b2 = (e[:, :, None] for e in np.moveaxis(edges[part], 1, 0))
        ea = [Sc * a1[:, c] + Sg * a2[:, c] for c in range(2)]
        eb = [Tc * b1[:, c] + Tg * b2[:, c] for c in range(2)]
        for branch, g in enumerate(g_br):
            if branch == 0:
                K = _sum_sq(ea[c] - Mg * eb[c] for c in range(2))
            else:
                K = _sum_sq(Mg * ea[c] - eb[c] for c in range(2))
            K **= -(2 + 2 * s) / 2
            yield "vertex", idx[part], g, (scale[part, None] * (Wg * Mg)) * K


def _edge_subregions(n):
    x01, w01 = unit_gauss(n)
    U, Vv = (a.ravel() for a in np.meshgrid(x01, x01, indexing="ij"))
    Wsq = np.outer(w01, w01).ravel()
    lam, Wt = reference_rule(2, n)
    At, Bt = lam[:, 1], lam[:, 2]
    one_t = np.ones_like(At)
    return [
        (1 - U, U, Vv, Wsq),
        (At, Bt, one_t, Wt),
        (-(1 - U), Vv, U, Wsq),
        (-At, one_t, Bt, Wt),
    ]


def _edge_terms_2d(mesh, s, geo, pairs, order):
    regions = _edge_subregions(order)
    # rows (v1, v2, apex a, apex b): shared edge v1 -> v2, then the two apexes
    idx = pairs.edge_nodes
    E, Ga, Gb = np.moveaxis(mesh.nodes[idx[:, 1:]] - mesh.nodes[idx[:, :1]], 1, 0)
    area = geo.measure[pairs.edge]
    scale = 2.0 * 4.0 * area[:, 0] * area[:, 1] / ((3 - 2 * s) * (4 - 2 * s))
    for d, b, dl, w in regions:
        g = np.stack([-d - b + dl, d, b, -dl], axis=1)
        for part in _row_chunks(len(idx), len(d)):
            e, ga, gb = (x[part, :, None] for x in (E, Ga, Gb))
            K = _sum_sq(d * e[:, c] + b * ga[:, c] - dl * gb[:, c] for c in range(2))
            K **= -(2 + 2 * s) / 2
            yield "edge", idx[part], g, (scale[part, None] * w) * K


def _disjoint_terms(mesh, s, geo, blocks, tag):
    """Plain Gauss on both elements of each (ia, ib, order) block.

    A point pair (p, q) has g = [lam_p, -lam_q].  The rule's points on
    every element are formed once per order as a (dim, points, m)
    table, and each chunk gathers its rows from it point-major: the
    kernel passes run along the rows, and wK is the transpose of a
    (points, rows) array.
    """
    expo = -(mesh.dim + 2 * s) / 2.0
    rules = {}
    for ia, ib, order in blocks:
        if order not in rules:
            lam, weights = reference_rule(mesh.dim, order)
            nq = len(lam)
            g = np.concatenate([np.repeat(lam, nq, axis=0), -np.tile(lam, (nq, 1))], axis=1)
            ww = 2.0 * np.outer(weights, weights).reshape(-1, 1)
            rules[order] = g, ww, np.einsum("qk,mkd->dqm", lam, geo.verts, order="C")
        g, ww, X = rules[order]
        for part in _row_chunks(len(ia), len(g)):
            a, b = ia[part], ib[part]
            K = _sum_sq(x[:, None, a] - x[None, :, b] for x in X).reshape(len(g), len(a))
            K **= expo
            K *= ww
            K *= geo.jacobian[a] * geo.jacobian[b]
            idx = np.concatenate([mesh.elements[a], mesh.elements[b]], axis=1)
            yield tag, idx, g, K.T


def _far_blocks(mesh, geo, far_order, distant_order):
    """Far pairs as (ia, ib, order) blocks, in the order ``far_pairs`` streams them.

    Pairs whose centroids lie at least _DISTANT_RATIO larger diameters
    apart take distant_order, the rest far_order; equal orders skip the
    split.
    """
    if distant_order == far_order:
        for ia, ib in far_pairs(mesh):
            yield ia, ib, far_order
        return
    centroid = geo.verts.mean(axis=1)
    for ia, ib in far_pairs(mesh):
        reach = _DISTANT_RATIO * np.maximum(geo.diameter[ia], geo.diameter[ib])
        sep = _sum_sq(centroid[ia, c] - centroid[ib, c] for c in range(mesh.dim))
        distant = sep >= reach * reach
        yield ia[~distant], ib[~distant], far_order
        yield ia[distant], ib[distant], distant_order


def _terms(mesh, s, boost, geo, work):
    """Yield (category, node idx (B, n), g, wK) covering the whole form at rule level boost.

    Row b of a term contributes sum_q wK[b, q] (g_q . u[idx[b]])^2 to
    the double integral over B_h x B_h plus twice the complement
    integral; g is shared, (points, n), or per row, (B, points, n).
    Unordered distinct pairs and the complement carry their factor 2
    in wK.  Rows may repeat across terms (branches, regions, sectors).

    Once the stream ends, ``work`` holds the AssemblyReport fields
    pair_counts, kernel_evals, complement_cells, complement_points and
    phase_seconds, counted from the terms and timed around their yields.
    """
    far, distant, vertex, edge, angular, complement = _orders(mesh.dim, boost)
    m = mesh.n_elements
    seconds = {}
    t0 = time.perf_counter()
    pairs = element_pairs(mesh)
    seconds["classify"] = time.perf_counter() - t0

    if mesh.dim == 1:
        singular = chain(_ident_terms_1d(mesh, s, geo), _vertex_terms_1d(mesh, s, pairs, vertex))
    else:
        singular = chain(
            _ident_terms_2d(mesh, s, geo, angular),
            _vertex_terms_2d(mesh, s, geo, pairs, vertex),
            _edge_terms_2d(mesh, s, geo, pairs, edge),
        )
    near = (pairs.near[:, 0], pairs.near[:, 1], far + _NEAR_BONUS)
    disjoint = chain(
        _disjoint_terms(mesh, s, geo, [near], "disjoint_near"),
        _disjoint_terms(mesh, s, geo, _far_blocks(mesh, geo, far, distant), "disjoint_far"),
    )
    phases = (
        ("singular", singular),
        ("disjoint", disjoint),
        ("complement", _complement_terms(mesh, s, geo, complement)),
    )
    points = dict.fromkeys(_CATEGORIES + ("complement",), 0)
    for phase, stream in phases:
        t0 = time.perf_counter()
        for category, idx, g, wK in stream:
            points[category] += wK.size
            yield category, idx, g, wK
        seconds[phase] = time.perf_counter() - t0
    if mesh.dim == 1:
        # the identical pairs are integrated in closed form
        points["identical"] = 0
    far_count = m * (m - 1) // 2 - len(pairs.not_far)
    counts = (m, len(pairs.vertex), len(pairs.edge), len(pairs.near), far_count)
    work.update(
        pair_counts=dict(zip(_CATEGORIES, counts)),
        complement_points=points.pop("complement"),
        kernel_evals=points,
        complement_cells=m,
        phase_seconds=seconds,
    )


def _check_finite(category, values):
    if not np.all(np.isfinite(values)):
        raise AssemblyError(f"non-finite values in {category} quadrature")


def assemble(mesh: BallMesh, s: float, boost: int = 0) -> NonlocalForm:
    """Assemble the bilinear form matrix on the free nodes at rule level boost."""
    check_order(mesh.dim, s)
    n = mesh.n_nodes
    need = 3 * n * n * 8
    if need > _DENSE_BYTES_CAP:
        raise SizeLimitError(
            f"dense assembly needs about {need / 1e9:.1f} GB for {n} nodes; "
            "reduce the refinement level"
        )
    geo = element_geometry(mesh)
    work = {}
    t_total = time.perf_counter()

    flat = np.zeros(n * n)
    for category, idx, g, wK in _terms(mesh, s, boost, geo, work):
        local = _term_block(g, wK)
        _check_finite(category, local)
        np.add.at(flat, (idx[:, :, None] * n + idx[:, None, :]).ravel(), local.ravel())
    flat *= s * (1 - s)
    fc = mesh.free_count
    matrix = np.ascontiguousarray(flat.reshape(n, n)[:fc, :fc])
    del flat

    scale = float(np.max(np.abs(matrix))) or 1.0
    # row blocks against column blocks: no fc^2 temporary beside the matrix
    skew = max(
        float(np.max(np.abs(matrix[i : i + 256] - matrix[:, i : i + 256].T)))
        for i in range(0, fc, 256)
    )
    if skew > 1e-12 * scale:
        raise AssemblyError(f"assembled matrix asymmetry {skew:.2e} exceeds tolerance")
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("assembled matrix is not positive definite") from exc

    work["phase_seconds"]["total"] = time.perf_counter() - t_total
    report = AssemblyReport(budget_exceeded=0, **work)
    return NonlocalForm(mesh=mesh, s=s, matrix=matrix, assembly_report=report, boost=boost)


def seminorm_sq(form: NonlocalForm, u: FeFunction) -> float:
    """Squared fractional seminorm of the zero-extended function."""
    if u.mesh is not form.mesh:
        raise ValueError("function and form live on different meshes")
    w = u.free_values
    return float(w @ form.matrix @ w)


def seminorm_sq_direct(mesh: BallMesh, s: float, u: FeFunction, boost: int = 0) -> float:
    """Squared seminorm at rule level boost, summed at the quadrature points.

    Every term adds sum wK (g . u)^2 from the quadrature that assemble
    scatters; useful for meshes too large for a dense matrix and for the
    audits at higher rule levels. The per-term sums are added exactly
    (fsum), so the order and number of terms add no rounding of their own.
    """
    check_order(mesh.dim, s)
    if u.mesh is not mesh:
        raise ValueError("function does not live on the given mesh")
    geo = element_geometry(mesh)
    vals = u.values
    parts = []
    for category, idx, g, wK in _terms(mesh, s, boost, geo, {}):
        w = vals[idx]
        if g.ndim == 3:
            gu = (g @ w[:, :, None])[..., 0]
        elif wK.flags.f_contiguous:
            # a point-major term: sum in its (points, rows) order
            wK, gu = wK.T, g @ w.T
        else:
            gu = w @ g.T
        part = float(np.sum(wK * gu * gu))
        _check_finite(category, part)
        parts.append(part)
    return s * (1 - s) * fsum(parts)
