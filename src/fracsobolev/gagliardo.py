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
depth^(2-2s), which plain Gauss resolves.  The touching pairs and their
shared-node order come from ``mesh.element_pairs``, decided once per
mesh.  The disjoint pairs, almost all of the m^2/2, are streamed in row
blocks by ``mesh.disjoint_pairs`` and never held whole;
``_disjoint_blocks`` gives each the Gauss order of its band, near, far
or distant, from its separation.

Each category yields terms (category, node idx, g, wK), one row per
element pair or element: row b adds sum_q wK[b, q] (g_q . u[idx[b]])^2.
An element-pair category supplies only its rule, pieces (g, w), its
node rows and a scale per row; ``_pair_terms`` evaluates the kernel for
all of them from g . X, the rule's point gaps in the row's coordinates.
``assemble`` scatters each term's block sum_q wK g_q g_q^T into the
matrix; ``seminorm_sq_direct`` sums the terms at the points and forms
no block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import fsum, gamma

import numpy as np
from scipy.special import hyp2f1

from ._quad import reference_rule, unit_gauss
from .mesh import (
    BallMesh,
    FeFunction,
    SizeLimitError,
    disjoint_pairs,
    element_geometry,
    element_pairs,
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
# disjoint pairs whose centroids lie at least this many larger diameters
# apart take the distant order of _orders
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
    """Orders (near, far, distant, vertex, edge, angular, complement) at rule level boost.

    Orders count Gauss points per direction.  The first three serve the
    disjoint pairs by band (see ``_disjoint_blocks``); complement is the
    rule on each element for the complement term.  Level 0 is the
    default rule, where far and distant are equal.  Each level adds 2 to
    near and far and 1 to distant, which keeps the audit finer on every
    pair for less work than 2 on all of them, 4 to vertex, edge and
    complement, and 16 to angular.
    """
    # unit_gauss rejects a fractional order too; this error names the level
    if not isinstance(boost, (int, np.integer)) or boost < 0:
        raise ValueError(f"rule level must be an integer >= 0, got {boost!r}")
    far, vertex = (4, 24) if dim == 1 else (3, 10)
    return (
        far + 2 + 2 * boost,
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
    0.8 s in assemble against 0.45 s for the generators alone (one
    thread). "total" is
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

    One matmul of wK against the point outer products of the shared g.
    """
    n = g.shape[1]
    outer = (g[:, :, None] * g[:, None, :]).reshape(len(g), n * n)
    return (wK @ outer).reshape(len(wK), n, n)


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

def _pair_terms(mesh, s, category, idx, scale, rule):
    """Yield the terms of element pairs with node rows idx from their rule.

    rule is a list of pieces (g (points, n), w (points,)).  Each rule is
    a regularising transform whose g_q . f[idx[b]], for affine f, is a
    fixed multiple of f(x_q) - f(y_q); the node coordinates are affine,
    so g_q . X is the same multiple of x_q - y_q, and row b takes
    wK[b, q] = scale[b] w_q |g_q . X|^(-N-2s).  X holds the row's nodes
    less its first node: the rows of g sum to 0, so the first node
    drops out and close pairs keep the digits of their gap.
    """
    expo = -(mesh.dim + 2 * s) / 2
    for g, w in rule:
        for part in _row_chunks(len(idx), len(g)):
            rows = idx[part]
            K = _sum_sq((x[rows] - x[rows[:, :1]]) @ g.T for x in mesh.nodes.T)
            K **= expo
            K *= w
            K *= scale[part, None]
            yield category, rows, g, K


def _ident_terms_1d(mesh, s, geo):
    # (u(x) - u(y))^2 = (u1 - u0)^2 (x - y)^2 / h^2 on the element
    g = np.array([[-1.0, 1.0]])
    wK = (2.0 * geo.measure ** (1 - 2 * s) / ((2 - 2 * s) * (3 - 2 * s)))[:, None]
    for part in _row_chunks(mesh.n_elements, 1):
        yield "identical", mesh.elements[part], g, wK[part]


def _ident_terms_2d(mesh, s, geo, order):
    """Identical pairs by angular sector; each sector runs over the elements in order.

    The direction z = om0 (v1 - v0) + om1 (v2 - v1) meets the affine
    basis in grad phi_k . z = [-om0, om0 - om1, om1]_k, the sector's g;
    the radial integral is closed, leaving the weight tau^(2s-2) w_theta.
    """
    beta = gamma(2 - 2 * s) * gamma(3) / gamma(5 - 2 * s)
    xg, wg = np.polynomial.legendre.leggauss(order)
    rule = []
    for a, b in ((0, np.pi / 4), (np.pi / 4, np.pi / 2), (np.pi / 2, np.pi)):
        th = 0.5 * (b - a) * xg + 0.5 * (a + b)
        om0, om1 = np.cos(th), np.sin(th)
        tau = 0.5 * (np.abs(om0) + np.abs(om1) + np.abs(om0 - om1))
        g = np.stack([-om0, om0 - om1, om1], axis=1)
        rule.append((g, tau ** (2 * s - 2) * (0.5 * (b - a) * wg)))
    scale = 4.0 * beta * geo.measure * geo.measure
    return _pair_terms(mesh, s, "identical", mesh.elements, scale, rule)


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
        terms = _ident_terms_2d(mesh, s, geo, _orders(2, 0)[5])
    local = np.concatenate([_term_block(g, wK) for _, _, g, wK in terms])
    k = mesh.dim + 1
    return local.reshape(-1, mesh.n_elements, k, k).sum(axis=0)


def _vertex_rule(dim, order):
    """Rule for two elements sharing one node, on rows (shared, far nodes of a, of b).

    From the shared node, x = r p_a and y = t p_b with p_a, p_b on the
    far faces: (1-S, S) on the far edge in 2D, the far node in 1D.  The
    branch t = M r gives x - y = r (p_a - M p_b) and the branch r = M t
    gives t (M p_a - p_b); the radial integral is closed, leaving the
    weight M^(N-1) of the face coordinates.
    """
    x, w = unit_gauss(order)
    if dim == 1:
        M, W = x, w
        face_a = face_b = np.ones((len(x), 1))
    else:
        S, T, M = (a.ravel() for a in np.meshgrid(x, x, x, indexing="ij"))
        W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel() * M
        face_a, face_b = np.stack([1 - S, S], axis=1), np.stack([1 - T, T], axis=1)
    return [
        (np.column_stack([M - 1, face_a, -M[:, None] * face_b]), W),
        (np.column_stack([1 - M, M[:, None] * face_a, -face_b]), W),
    ]


def _edge_rule(order):
    """Rule for two triangles sharing an edge, on rows (v1, v2, apex a, apex b).

    Four subregions; a region's point (d, b, dl) gives x - y =
    d (v2 - v1) + b (apex a - v1) - dl (apex b - v1) up to its radial
    factor, so its g is [-d - b + dl, d, b, -dl].
    """
    x01, w01 = unit_gauss(order)
    U, Vv = (a.ravel() for a in np.meshgrid(x01, x01, indexing="ij"))
    Wsq = np.outer(w01, w01).ravel()
    lam, Wt = reference_rule(2, order)
    At, Bt = lam[:, 1], lam[:, 2]
    one_t = np.ones_like(At)
    regions = (
        (1 - U, U, Vv, Wsq),
        (At, Bt, one_t, Wt),
        (-(1 - U), Vv, U, Wsq),
        (-At, one_t, Bt, Wt),
    )
    return [(np.stack([-d - b + dl, d, b, -dl], axis=1), w) for d, b, dl, w in regions]


def _singular_terms(mesh, s, geo, pairs, boost):
    """Identical and touching pairs at rule level boost.

    The touching pairs' radial integrals are closed: rho^(2N-1) from the
    transform, rho^2 from (u(x) - u(y))^2 and the kernel's rho^(-N-2s)
    give 1/(N+2-2s), and the edge transform one more 1/(3-2s).
    """
    vertex, edge, angular = _orders(mesh.dim, boost)[3:6]
    if mesh.dim == 1:
        yield from _ident_terms_1d(mesh, s, geo)
    else:
        yield from _ident_terms_2d(mesh, s, geo, angular)
    ja, jb = geo.jacobian[pairs.vertex].T
    scale = 2.0 * ja * jb / (mesh.dim + 2 - 2 * s)
    yield from _pair_terms(mesh, s, "vertex", pairs.vertex_nodes, scale, _vertex_rule(mesh.dim, vertex))
    if mesh.dim == 2:
        ja, jb = geo.jacobian[pairs.edge].T
        scale = 2.0 * ja * jb / ((3 - 2 * s) * (4 - 2 * s))
        yield from _pair_terms(mesh, s, "edge", pairs.edge_nodes, scale, _edge_rule(edge))


def _disjoint_terms(mesh, s, geo, blocks):
    """Plain Gauss on both elements of each (category, ia, ib, order) block.

    A point pair (p, q) has g = [lam_p, -lam_q] and w = 2 w_p w_q, and a
    row's scale is J_a J_b.  The rows and their scales are formed one
    chunk at a time, never for a whole block.
    """
    for category, ia, ib, order in blocks:
        lam, weights = reference_rule(mesh.dim, order)
        nq = len(lam)
        g = np.concatenate([np.repeat(lam, nq, axis=0), -np.tile(lam, (nq, 1))], axis=1)
        rule = [(g, 2.0 * np.outer(weights, weights).ravel())]
        for part in _row_chunks(len(ia), len(g)):
            a, b = ia[part], ib[part]
            idx = np.concatenate([mesh.elements[a], mesh.elements[b]], axis=1)
            yield from _pair_terms(mesh, s, category, idx, geo.jacobian[a] * geo.jacobian[b], rule)


def _disjoint_blocks(mesh, geo, near, far, distant):
    """Disjoint pairs as (category, ia, ib, order) blocks, per ``disjoint_pairs`` block.

    With D the larger diameter: centroids _DISTANT_RATIO D apart or more
    take the distant order (their vertices lie over 2 D apart), other
    pairs with a vertex distance below D the near order, the rest far.
    """
    centroid = geo.verts.mean(axis=1).T.copy()
    for ia, ib in disjoint_pairs(mesh):
        larger = np.maximum(geo.diameter[ia], geo.diameter[ib])
        reach = _DISTANT_RATIO * larger
        sep = _sum_sq(x[ia] - x[ib] for x in centroid)
        apart = sep >= reach * reach
        a, b = ia[~apart], ib[~apart]
        va, vb, k = geo.verts[a], geo.verts[b], range(mesh.dim + 1)
        # the smallest squared vertex distance, one vertex pair per pass
        sq = [_sum_sq(va[:, p, c] - vb[:, q, c] for c in range(mesh.dim)) for p in k for q in k]
        close = np.sqrt(np.min(sq, axis=0)) < larger[~apart]
        yield "disjoint_near", a[close], b[close], near
        yield "disjoint_far", a[~close], b[~close], far
        yield "disjoint_far", ia[apart], ib[apart], distant


def _terms(mesh, s, boost, geo, work):
    """Yield (category, node idx (B, n), g, wK) covering the whole form at rule level boost.

    Row b of a term contributes sum_q wK[b, q] (g_q . u[idx[b]])^2 to
    the double integral over B_h x B_h plus twice the complement
    integral; g, (points, n), is shared by the rows, and wK is a
    C-ordered (B, points) array.
    Unordered distinct pairs and the complement carry their factor 2
    in wK.  Rows may repeat across terms (branches, regions, sectors),
    but a disjoint pair is one row of one term.

    Once the stream ends, ``work`` holds the AssemblyReport fields
    pair_counts, kernel_evals, complement_cells, complement_points and
    phase_seconds, counted from the terms and timed around their yields.
    """
    near, far, distant, *_, complement = _orders(mesh.dim, boost)
    m = mesh.n_elements
    seconds = {}
    t0 = time.perf_counter()
    pairs = element_pairs(mesh)
    seconds["classify"] = time.perf_counter() - t0

    phases = (
        ("singular", _singular_terms(mesh, s, geo, pairs, boost)),
        ("disjoint", _disjoint_terms(mesh, s, geo, _disjoint_blocks(mesh, geo, near, far, distant))),
        ("complement", _complement_terms(mesh, s, geo, complement)),
    )
    counts = dict(zip(_CATEGORIES, (m, len(pairs.vertex), len(pairs.edge), 0, 0)))
    points = dict.fromkeys(_CATEGORIES + ("complement",), 0)
    for phase, stream in phases:
        t0 = time.perf_counter()
        for category, idx, g, wK in stream:
            points[category] += wK.size
            if phase == "disjoint":
                counts[category] += len(wK)
            yield category, idx, g, wK
        seconds[phase] = time.perf_counter() - t0
    if mesh.dim == 1:
        # the identical pairs are integrated in closed form
        points["identical"] = 0
    work.update(
        pair_counts=counts,
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
        gu = vals[idx] @ g.T
        part = float(np.sum(wK * gu * gu))
        _check_finite(category, part)
        parts.append(part)
    return s * (1 - s) * fsum(parts)
