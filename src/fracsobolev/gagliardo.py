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
depth^(2-2s), which plain Gauss resolves.  The cached cluster tree of
the elements and its block walk (Hackbusch, *Hierarchical Matrices*,
2015) are the one spatial search: ``mesh.element_pairs`` finds the
touching pairs and their shared-node order among the walk's leaf
pairs, once per mesh, and the disjoint pairs, almost all of the m^2/2,
come from ``mesh.disjoint_partition``, the walk's blocks, and are
never held whole.  The tiles, the walk's admissible blocks, pair two
clusters whose centroid boxes lie _DISTANT_RATIO diameters apart, so
every pair in them takes the distant order, with no row per pair (98%
of the pairs at 1D level 10, 80% at 2D level 3).  ``_tile_chunks``
interpolates a tile's kernel between the two clusters' Gauss points by
tensor Chebyshev interpolation on their boxes, K ~ Pa Kc Pb^T, with Kc
the kernel at the node pairs (Boerm, *Efficient Numerical Methods for
Non-local Operators*, 2010, ch. 4), whenever that takes fewer values
than the dense kernel array, which it evaluates otherwise.  The points
per side come from an a priori bound that keeps the interpolant within
unit roundoff of the tile's smallest kernel value, so the slack takes
no term for it: at 1D level 10 two thirds of the tiles are
interpolated, with at most 27 points per side, and the kernel values
fall from 33.5M to 1.4M; no 2D tile through level 3 passes the cost
test.  The remaining leaf rows stream in blocks through
``_disjoint_blocks``, which gives each pair the Gauss order of its band,
near, far or distant, from its separation.

The slack audit differences rule levels k and k+1 only on the band of
``audit_band``: the identical, touching and complement rows and the
disjoint pairs whose centroids lie less than R larger diameters apart,
found among the walk's leaf pairs, so no O(m^2) stream.
``tail_bound`` bounds the level-k Gauss error of every pair beyond R a
priori: the integrand is analytic in each reference direction on a
Bernstein ellipse whose size grows with the separation over the
diameter (Trefethen, *Approximation Theory and Approximation Practice*,
Thm 19.3; Sauter & Schwab, *Boundary Element Methods*, ch. 5), and the
sum over the far pairs is bounded by a radial integral per element in
closed form.

The form streams as terms (category, node idx, g, wK), one row per
element pair or element: row b adds sum_q wK[b, q] (g_q . u[idx[b]])^2.
Each element-pair category, the 1D identical pairs too, is a pair set
(category, node rows, row scale, rule of pieces (g, w)); ``_terms``
counts its rows and expands it through ``_pair_terms``, which
evaluates the kernel from g . X, the rule's point gaps in the rows.
``assemble`` scatters each term's block sum_q wK g_q g_q^T into the
matrix; ``seminorm_sq_direct`` sums the terms at the points and forms
no block.  The tile chunks go to a consumer beside the terms, in one
format whose kernel is K, or Pa K Pb^T for an interpolated tile:
``assemble`` adds a chunk's cross blocks -2 (W lam)^T K (W lam) through
matmuls, k^2 entries per pair each way instead of (2k)^2, or for an
interpolated tile -2 Ha Kc Hb^T, H the basis projected onto the
cluster's nodes, one indexed add per tile, and its points' row and
column sums to the diagonal blocks; ``seminorm_sq_direct`` adds
sum W U^2 (K W) + sum (W K) W U^2 - 2 (W U)^T K (W U), U the values at
the points, projecting the three weighted vectors through Pa and Pb
first for an interpolated tile.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import fsum, gamma

import numpy as np
from scipy.special import hyp2f1

from ._quad import reference_rule, unit_gauss
from .mesh import (
    BallMesh,
    FeFunction,
    SizeLimitError,
    disjoint_partition,
    element_geometry,
    element_pairs,
    leaf_pairs,
    shares_node,
)
from .params import check_order

__all__ = [
    "AssemblyError",
    "AssemblyReport",
    "NonlocalForm",
    "assemble",
    "audit_band",
    "complement_weight",
    "element_self_interaction",
    "seminorm_sq",
    "seminorm_sq_direct",
    "tail_bound",
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
    caller's per-term work while the generator waits: in assemble, the
    block and the scatter of every term and tile chunk. At 1D level 10,
    s = 0.25, disjoint reads about 0.18-0.19 s in assemble against
    0.055-0.075 s for the generators alone, tile kernels included (one
    thread of a 2-vCPU Linux VM; 0.43-0.47 s and 0.20-0.23 s with dense
    tiles). "total" is the whole assemble call. kernel_evals counts the
    kernel values computed: the quadrature points of each category's
    terms (one per element for the 1D identical pairs), and for the
    tiles, in disjoint_far, the entries of their chunks' K, the node
    pairs' of an interpolated tile, so it follows the tiles' boxes while
    pair_counts follows the pairs alone. complement_points counts the
    points of the complement terms. complement_cells is the element
    count, one complement rule per element; budget_exceeded is always 0,
    kept because perfbench reads it by name until its capped-cells
    metric goes (ROADMAP item 9).
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

def _pair_terms(mesh, s, idx, scale, rule):
    """Yield the terms (rows, g, wK) of element pairs with node rows idx from their rule.

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
            yield rows, g, K


def _ident_rule(dim, s, order):
    """Rule for an element with itself, on rows (its nodes), row scale J^2.

    In 1D, (u(x) - u(y))^2 = (u1 - u0)^2 (x - y)^2 / h^2, so one point
    g = [-1, 1] carries the closed form.  In 2D, by angular sector: the
    direction z = om0 (v1 - v0) + om1 (v2 - v1) meets the affine basis in
    grad phi_k . z = [-om0, om0 - om1, om1]_k, the sector's g; the radial
    integral is closed, leaving the weight beta tau^(2s-2) w_theta.
    """
    if dim == 1:
        return [(np.array([[-1.0, 1.0]]), np.array([2.0 / ((2 - 2 * s) * (3 - 2 * s))]))]
    beta = gamma(2 - 2 * s) * gamma(3) / gamma(5 - 2 * s)
    xg, wg = np.polynomial.legendre.leggauss(order)
    rule = []
    for a, b in ((0, np.pi / 4), (np.pi / 4, np.pi / 2), (np.pi / 2, np.pi)):
        th = 0.5 * (b - a) * xg + 0.5 * (a + b)
        om0, om1 = np.cos(th), np.sin(th)
        tau = 0.5 * (np.abs(om0) + np.abs(om1) + np.abs(om0 - om1))
        g = np.stack([-om0, om0 - om1, om1], axis=1)
        rule.append((g, beta * tau ** (2 * s - 2) * (0.5 * (b - a) * wg)))
    return rule


def element_self_interaction(mesh: BallMesh, s: float) -> np.ndarray:
    """Per-element local blocks of the kernel integral over K x K.

    Entry (k, i, j) is the double integral over element k with itself of
    (phi_i(x) - phi_i(y))(phi_j(x) - phi_j(y)) |x-y|^(-N-2s), without the
    s(1-s) factor, at the default quadrature of the dimension.
    """
    check_order(mesh.dim, s)
    rule = _ident_rule(mesh.dim, s, _orders(mesh.dim, 0)[5])
    terms = _pair_terms(mesh, s, mesh.elements, element_geometry(mesh).jacobian ** 2, rule)
    local = np.concatenate([_term_block(g, wK) for _, g, wK in terms])
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


def _singular_sets(mesh, s, geo, pairs, boost):
    """Pair sets (category, node rows, row scale, rule) of the identical and touching pairs.

    The touching pairs' radial integrals are closed: rho^(2N-1) from the
    transform, rho^2 from (u(x) - u(y))^2 and the kernel's rho^(-N-2s)
    give 1/(N+2-2s), and the edge transform one more 1/(3-2s).
    """
    vertex, edge, angular = _orders(mesh.dim, boost)[3:6]
    yield "identical", mesh.elements, geo.jacobian ** 2, _ident_rule(mesh.dim, s, angular)
    ja, jb = geo.jacobian[pairs.vertex].T
    scale = 2.0 * ja * jb / (mesh.dim + 2 - 2 * s)
    yield "vertex", pairs.vertex_nodes, scale, _vertex_rule(mesh.dim, vertex)
    if mesh.dim == 2:
        ja, jb = geo.jacobian[pairs.edge].T
        scale = 2.0 * ja * jb / ((3 - 2 * s) * (4 - 2 * s))
        yield "edge", pairs.edge_nodes, scale, _edge_rule(edge)


def _disjoint_sets(mesh, geo, blocks):
    """Plain Gauss on both elements of each (category, ia, ib, order) block, as pair sets.

    A point pair (p, q) has g = [lam_p, -lam_q] and w = 2 w_p w_q, and a
    row's scale is J_a J_b.  One set per ``_row_chunks`` chunk: the rows
    and their scales are never formed for a whole block.
    """
    for category, ia, ib, order in blocks:
        lam, weights = reference_rule(mesh.dim, order)
        nq = len(lam)
        g = np.concatenate([np.repeat(lam, nq, axis=0), -np.tile(lam, (nq, 1))], axis=1)
        rule = [(g, 2.0 * np.outer(weights, weights).ravel())]
        for part in _row_chunks(len(ia), len(g)):
            a, b = ia[part], ib[part]
            idx = np.concatenate([mesh.elements[a], mesh.elements[b]], axis=1)
            yield category, idx, geo.jacobian[a] * geo.jacobian[b], rule


# a chunk's kernel values are Pa K Pb^T, or K itself where Pa, Pb are None
_TileChunk = namedtuple("_TileChunk", "a b wa wb K Pa Pb", defaults=(None, None))
# unit roundoff, and the grid of tau, the share of a tile's gap that a
# Bernstein ellipse reaches past its box along the real axis, over which
# _chebyshev_order takes its least bound (in 2D, shares of the largest
# tau at which the kernel stays analytic)
_ROUNDOFF = np.finfo(float).eps / 2
_ELLIPSE_SHARES = np.linspace(0.0, 1.0, 34)[1:-1]


def _chebyshev_order(dim, s, boxes, most):
    """(p, bound) per tile: the fewest Chebyshev points per side that interpolate its kernel to unit roundoff.

    boxes (B, 2, 2, N) holds each tile's two boxes as (low, high)
    corners and most (B,) the most points per side it may take.  Along
    one side of half-width r, the other coordinates fixed in their
    boxes, |x - y|^(-N-2s) is analytic on the Bernstein ellipse E_rho of
    a = (rho + 1/rho)/2 = 1 + tau d / r, d the boxes' gap: the ellipse
    reaches tau d off the box along the real axis and r sqrt(a^2 - 1)
    off it, so the kernel there is at most M = ((1 - tau) d)^(-N-2s) in
    1D, where x - y keeps its sign, and
    M = (((1 - tau) d)^2 - r^2 (a^2 - 1))^(-N/2-s) in 2D, where the
    squared distance keeps a positive real part (tau < d / (2 (d + r))).
    Interpolation in p Chebyshev points then errs by at most
    E = 4 M rho^(1-p) / (rho - 1) (Trefethen, *Approximation Theory and
    Approximation Practice*, Thm 8.2), least over a grid of tau, and
    largest on the side of largest r / d.  The tensor interpolant applies
    the 2N sides one after another, each with Lebesgue constant at most
    Lam = (2/pi) log p + 1 (ATAP Thm 15.2), so it errs by at most
    bound = E (1 + Lam + ... + Lam^(2N-1)).  p is the least from 2 up
    with bound below unit roundoff times the tile's smallest kernel
    value, or 0, with bound inf, where that p exceeds most.
    """
    lo, hi = boxes[:, :, 0], boxes[:, :, 1]
    gap = np.linalg.norm(np.maximum(np.maximum(lo[:, 1] - hi[:, 0], lo[:, 0] - hi[:, 1]), 0.0), axis=1)
    reach = np.linalg.norm(np.maximum(hi[:, 1] - lo[:, 0], hi[:, 0] - lo[:, 1]), axis=1)
    # the widest side over the gap, and the bound in units of gap^(-N-2s)
    x = 0.5 * np.max(hi - lo, axis=(1, 2)) / gap
    power = dim + 2 * s
    tau = _ELLIPSE_SHARES if dim == 1 else _ELLIPSE_SHARES / (2.0 * (1.0 + x[:, None]))
    a = 1.0 + tau / x[:, None]
    rho = a + np.sqrt(a * a - 1.0)
    if dim == 1:
        log_m = -power * np.log1p(-tau)
    else:
        log_m = -0.5 * power * np.log((1.0 - tau) ** 2 - x[:, None] ** 2 * (a * a - 1.0))
    # log E = c - (p - 1) log rho, per tile and tau
    c = np.log(4.0) + log_m - np.log(rho - 1.0)
    log_rho = np.log(rho)
    target = (np.log(_ROUNDOFF) - power * np.log(reach / gap))[:, None]

    def log_lebesgue_sum(p):
        lebesgue = 2.0 / np.pi * np.log(p) + 1.0
        return np.log(np.sum(lebesgue[:, None] ** np.arange(2 * dim), axis=1))[:, None]

    # the least p for the Lebesgue sum at the last p, which grows with p,
    # climbs from 2 to the least p whose bound is below the target
    p = np.full(len(boxes), 2)
    while True:
        need = np.min(np.floor((c + log_lebesgue_sum(p) - target) / log_rho), axis=1) + 2
        step = np.clip(need, p, np.maximum(most, 2) + 1).astype(int)
        if np.array_equal(step, p):
            break
        p = step
    bound = np.exp(np.min(c - (p[:, None] - 1) * log_rho, axis=1) + log_lebesgue_sum(p)[:, 0] - power * np.log(gap))
    dense = p > most
    p[dense], bound[dense] = 0, np.inf
    return p, bound


@lru_cache(maxsize=None)
def _chebyshev_points(p):
    """The p Chebyshev points cos(j pi / (p-1)) and their barycentric weights (ATAP ch. 5)."""
    t = np.cos(np.pi * np.arange(p) / (p - 1))
    w = (-1.0) ** np.arange(p)
    w[[0, -1]] *= 0.5
    return t, w


def _chebyshev_basis(x, box, p):
    """(nodes, P): the tensor Chebyshev nodes of the box and their Lagrange basis at the points x.

    x holds N coordinate arrays of n points and box its (low, high)
    corners.  The nodes, N arrays of p^N, take p points per side, the
    last coordinate varying fastest; P (n, p^N) is the product of the
    sides' bases, each by the barycentric formula.  A point on a node
    takes that node's unit row.
    """
    t, w = _chebyshev_points(p)
    sides, basis = [], None
    for coord, lo, hi in zip(x, *box):
        side = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        diff = coord[:, None] - side
        hit = None if diff.all() else diff == 0.0
        if hit is not None:
            diff[hit] = 1.0
        L = np.divide(w, diff, out=diff)
        L /= L.sum(axis=1, keepdims=True)
        if hit is not None:
            on = hit.any(axis=1)
            L[on] = hit[on]
        basis = L if basis is None else (basis[:, :, None] * L[:, None, :]).reshape(len(coord), -1)
        sides.append(side)
    if len(sides) > 1:
        sides = [g.ravel() for g in np.meshgrid(*sides, indexing="ij")]
    return sides, basis


def _interpolate_tile(xa, xb, box, p, expo):
    """(Pa, K, Pb): the tensor Chebyshev interpolant of |x - y|^(2 expo) with p points per side on the boxes box.

    K holds the kernel at the node pairs of the two boxes, and Pa, Pb the
    Lagrange bases at the points xa, xb, N coordinate arrays each.
    """
    (ya, Pa), (yb, Pb) = (_chebyshev_basis(x, corners, p) for x, corners in zip((xa, xb), box))
    K = _sum_sq(x[:, None] - y[None, :] for x, y in zip(ya, yb))
    K **= expo
    return Pa, K, Pb


def _tile_chunks(mesh, s, geo, tiles, order):
    """Kernel chunks of the cluster tiles ``(a, b, box)`` at Gauss order ``order``.

    A chunk holds elements a and b of one tile, the point weights wa, wb
    (J w_p, element-major) and the kernel
    K[(i, p), (j, q)] = |x_p - y_q|^(-N-2s) for the points x_p of a[i]
    and y_q of b[j]: the plain-Gauss terms that ``_disjoint_sets`` gives
    these pairs, with no index row per pair.  A tile is compressed when
    the kernel's tensor Chebyshev interpolant on its clusters' vertex
    boxes box, with the points per side p of ``_chebyshev_order``, takes
    fewer values than the dense array, p^2N + p^N (n_a + n_b) < n_a n_b
    for n_a, n_b points: its one chunk holds the kernel at the node
    pairs as K and the clusters' Lagrange bases as Pa, Pb, and its
    values are Pa K Pb^T.  The interpolant differs from the kernel by
    less than unit roundoff times the tile's smallest kernel value, so
    by less than the dense values' own rounding, and the compressed sums
    differ from the dense sums by rounding alone: the slack takes no
    term for the compression.  (Evaluated in floats, the values carry the barycentric
    formula's rounding too, up to 4.4e-15 of the tile's largest value
    at 1D level 10.)  A dense tile comes in chunks of at most
    _TERM_POINTS entries.  The points and nodes are formed relative to a
    vertex of the tile, so near tiles keep more digits of their gap.
    """
    if not tiles:
        return
    lam, weights = reference_rule(mesh.dim, order)
    nq, dim = len(lam), mesh.dim
    expo = -(dim + 2 * s) / 2
    boxes = np.array([box for _, _, box in tiles])
    # the most points per side at which a compressed tile is smaller:
    # p^N below the positive root q of q^2 + q (na + nb) = na nb
    na, nb = (nq * np.array([len(tile[i]) for tile in tiles], dtype=float) for i in (0, 1))
    most = np.floor((0.5 * (np.sqrt((na + nb) ** 2 + 4 * na * nb) - na - nb)) ** (1 / dim)).astype(int)
    most -= most ** (2 * dim) + most**dim * (na + nb) >= na * nb
    points = _chebyshev_order(dim, s, boxes, most)[0]
    for (a, b, box), p in zip(tiles, points):
        origin = geo.verts[a[0], 0]
        xa, xb = (np.matmul(lam, geo.verts[e] - origin).reshape(-1, dim).T for e in (a, b))
        wa, wb = ((geo.jacobian[e, None] * weights).ravel() for e in (a, b))
        if p:
            Pa, K, Pb = _interpolate_tile(xa, xb, box - origin, p, expo)
            yield _TileChunk(a, b, wa, wb, K, Pa, Pb)
            continue
        for cols in _row_chunks(len(b), nq * nq):
            cp = slice(cols.start * nq, cols.stop * nq)
            for rows in _row_chunks(len(a), len(b[cols]) * nq * nq):
                rp = slice(rows.start * nq, rows.stop * nq)
                K = _sum_sq(x[rp, None] - y[None, cp] for x, y in zip(xa, xb))
                K **= expo
                yield _TileChunk(a[rows], b[cols], wa[rp], wb[cp], K)


def _separation(centroid, geo, ia, ib):
    """(squared centroid distance, larger diameter) of the element pairs (ia, ib).

    centroid holds the element centroids, one array per coordinate.
    """
    sep = _sum_sq(x[ia] - x[ib] for x in centroid)
    return sep, np.maximum(geo.diameter[ia], geo.diameter[ib])


def _disjoint_blocks(mesh, geo, near, far, distant, pairs):
    """Disjoint pairs as (category, ia, ib, order) blocks, per (ia, ib) block of pairs.

    With D the larger diameter: centroids _DISTANT_RATIO D apart or more
    take the distant order (their vertices lie over 2 D apart), other
    pairs with a vertex distance below D the near order, the rest far.
    """
    centroid = geo.verts.mean(axis=1).T.copy()
    for ia, ib in pairs:
        sep, larger = _separation(centroid, geo, ia, ib)
        reach = _DISTANT_RATIO * larger
        apart = sep >= reach * reach
        a, b = ia[~apart], ib[~apart]
        va, vb, k = geo.verts[a], geo.verts[b], range(mesh.dim + 1)
        # the smallest squared vertex distance, a running minimum over
        # the vertex pairs
        least = np.full(len(a), np.inf)
        for p in k:
            for q in k:
                sq = _sum_sq(va[:, p, c] - vb[:, q, c] for c in range(mesh.dim))
                np.minimum(least, sq, out=least)
        close = np.sqrt(least) < larger[~apart]
        yield "disjoint_near", a[close], b[close], near
        yield "disjoint_far", a[~close], b[~close], far
        yield "disjoint_far", ia[apart], ib[apart], distant


def audit_band(mesh: BallMesh, ratio: float, inner: float = 0.0):
    """Disjoint pairs (ia, ib), a < b in triu order, with centroids under ratio larger diameters apart.

    ``_disjoint_blocks``' separation test over ``mesh.leaf_pairs`` at
    ratio, or 2 if larger, which hold every such pair; the test runs
    before the node comparison that drops the touching pairs, and no
    tile is grouped or evaluated.  With inner, the pairs under inner
    larger diameters apart are left out, by the same test in the same
    floats, so the band at inner and this annulus split the band at
    ratio exactly.
    """
    geo = element_geometry(mesh)
    centroid = geo.verts.mean(axis=1).T.copy()

    def keep(ia, ib):
        sep, larger = _separation(centroid, geo, ia, ib)
        band = sep < (ratio * larger) ** 2
        if inner:
            band &= sep >= (inner * larger) ** 2
        band[band] = ~shares_node(mesh, ia[band], ib[band])
        return band

    return leaf_pairs(mesh, max(ratio, 2.0), keep)


def _terms(mesh, s, boost, geo, work, band=None, tile=None, pairs_only=False):
    """Yield (category, node idx (B, n), g, wK) covering the whole form at rule level boost.

    Row b of a term contributes sum_q wK[b, q] (g_q . u[idx[b]])^2 to
    the double integral over B_h x B_h plus twice the complement
    integral; g, (points, n), is shared by the rows, and wK is a
    C-ordered (B, points) array.
    Unordered distinct pairs and the complement carry their factor 2
    in wK.  Rows may repeat across terms (branches, regions, sectors),
    but an element pair is one row of one pair set.

    Without band, the disjoint pairs come from ``disjoint_partition``:
    the leaf rows stream as terms, and each ``_tile_chunks`` chunk of the
    tiles, all distant pairs, goes to the consumer ``tile`` instead,
    counted as disjoint_far pairs and kernel values (its K's entries)
    and timed in the disjoint phase.  With band, a pair (ia, ib) of
    ``audit_band``, the disjoint pairs are those of the band alone, as
    rows; with pairs_only too, the identical, touching and complement
    rows are left out.

    Once the stream ends, ``work`` holds the AssemblyReport fields
    pair_counts, counted from the pair sets' rows, kernel_evals,
    complement_cells and complement_points, from the terms, and
    phase_seconds, timed around their yields.
    """
    near, far, distant, *_, complement = _orders(mesh.dim, boost)
    seconds = {}
    t0 = time.perf_counter()
    pairs = element_pairs(mesh)
    seconds["classify"] = time.perf_counter() - t0
    counts = dict.fromkeys(_CATEGORIES, 0)
    points = dict.fromkeys(_CATEGORIES + ("complement",), 0)

    def expand(sets):
        for category, idx, scale, rule in sets:
            counts[category] += len(idx)
            for rows, g, wK in _pair_terms(mesh, s, idx, scale, rule):
                yield category, rows, g, wK

    if band is None:
        if tile is None:
            raise ValueError("a pass over every pair needs a tile consumer")
        tiles, rows = disjoint_partition(mesh, _DISTANT_RATIO)
    else:
        ia, ib = band
        tiles, rows = [], ((ia[part], ib[part]) for part in _row_chunks(len(ia), 1))

    def disjoint():
        yield from expand(_disjoint_sets(mesh, geo, _disjoint_blocks(mesh, geo, near, far, distant, rows)))
        for chunk in _tile_chunks(mesh, s, geo, tiles, distant):
            counts["disjoint_far"] += len(chunk.a) * len(chunk.b)
            points["disjoint_far"] += chunk.K.size
            tile(chunk)

    phases = [("disjoint", disjoint())]
    if not pairs_only:
        phases.insert(0, ("singular", expand(_singular_sets(mesh, s, geo, pairs, boost))))
        phases.append(("complement", _complement_terms(mesh, s, geo, complement)))
    for phase, stream in phases:
        t0 = time.perf_counter()
        for category, idx, g, wK in stream:
            points[category] += wK.size
            yield category, idx, g, wK
        seconds[phase] = time.perf_counter() - t0
    work.update(
        pair_counts=counts,
        complement_points=points.pop("complement"),
        kernel_evals=points,
        complement_cells=mesh.n_elements,
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

    def add(category, idx, g, wK):
        local = _term_block(g, wK)
        _check_finite(category, local)
        np.add.at(flat, (idx[:, :, None] * n + idx[:, None, :]).ravel(), local.ravel())

    # a tile pair adds 2 wK g g^T with g = [lam_p, -lam_q] and wK =
    # wa K wb: the cross blocks are -2 (wa lam)^T K (wb lam), added both
    # ways round, and the diagonal blocks gather each point's row or
    # column sum of 2 wK into sums, added once at the end
    lam = reference_rule(mesh.dim, _orders(mesh.dim, boost)[2])[0]
    nq, k = lam.shape
    sums = np.zeros((mesh.n_elements, nq))

    def node_basis(e, w, P):
        """(nodes, H): the cluster's distinct nodes and (W lam)^T P summed onto them."""
        width = P.shape[1]
        per = np.matmul(lam.T, (w[:, None] * P).reshape(len(e), nq, width)).reshape(-1, width)
        at = mesh.elements[e].ravel()
        order = np.argsort(at, kind="stable")
        at = at[order]
        first = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])
        return at[first], np.add.reduceat(per[order], first, axis=0)

    def add_compressed(chunk):
        # the sums and the cross block through the node pairs' K: the two
        # clusters share no node, so one indexed add places each block
        a, b, wa, wb, K, Pa, Pb = chunk
        rows, cols = 2.0 * wa * (Pa @ (K @ (wb @ Pb))), 2.0 * wb * (Pb @ ((wa @ Pa) @ K))
        _check_finite("disjoint_far", rows)
        _check_finite("disjoint_far", cols)
        sums[a] += rows.reshape(len(a), nq)
        sums[b] += cols.reshape(len(b), nq)
        (na, Ha), (nb, Hb) = node_basis(a, wa, Pa), node_basis(b, wb, Pb)
        cross = -2.0 * (Ha @ K @ Hb.T)
        _check_finite("disjoint_far", cross)
        square = flat.reshape(n, n)
        square[np.ix_(na, nb)] += cross
        square[np.ix_(nb, na)] += cross.T

    def add_tile(chunk):
        if chunk.Pa is not None:
            return add_compressed(chunk)
        a, b, wa, K = chunk.a, chunk.b, chunk.wa, chunk.K
        K *= chunk.wb
        rows, cols = 2.0 * wa * K.sum(axis=1), 2.0 * (wa @ K)
        _check_finite("disjoint_far", rows)
        _check_finite("disjoint_far", cols)
        sums[a] += rows.reshape(len(a), nq)
        sums[b] += cols.reshape(len(b), nq)
        half = (K.reshape(-1, nq) @ lam).reshape(len(a), nq, len(b) * k)
        wlam = wa.reshape(len(a), nq, 1) * lam
        cross = -2.0 * np.matmul(wlam.transpose(0, 2, 1), half).ravel()
        ea, eb = mesh.elements[a][:, :, None, None], mesh.elements[b][None, None]
        np.add.at(flat, (ea * n + eb).ravel(), cross)
        np.add.at(flat, (eb * n + ea).ravel(), cross)

    for category, idx, g, wK in _terms(mesh, s, boost, geo, work, tile=add_tile):
        add(category, idx, g, wK)
    add("disjoint_far", mesh.elements, lam, sums)
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


def seminorm_sq_direct(
    mesh: BallMesh, s: float, u: FeFunction, boost: int = 0, band=None, pairs_only=False
) -> float:
    """Squared seminorm at rule level boost, summed at the quadrature points.

    Every term adds sum wK (g . u)^2 from the quadrature that assemble
    scatters; useful for meshes too large for a dense matrix and for the
    audits at higher rule levels. The per-term sums are added exactly
    (fsum), so the order and number of terms add no rounding of their own.
    A tile chunk of the far field adds sum 2 wK (U_p - U_q)^2, U the
    values at its points, as sum W U^2 (K W) + sum (W K) W U^2 -
    2 (W U)^T K (W U), one fsum part per chunk; for an interpolated
    tile, K = Pa Kc Pb^T, the three weighted vectors of each side go
    through its basis first, O(p^N (n_a + n_b) + p^2N) per tile.  With band, the disjoint
    pairs (ia, ib) of ``audit_band``, the sum keeps every identical,
    touching and complement row but only the band's disjoint pairs: the
    part of the slack audit that is computed.  With pairs_only too, it
    is the sum over the band's disjoint pairs alone.
    """
    check_order(mesh.dim, s)
    if u.mesh is not mesh:
        raise ValueError("function does not live on the given mesh")
    geo = element_geometry(mesh)
    vals = u.values
    parts = []
    # u at the tiles' points, element-major as the chunks' weights
    at_points = vals[mesh.elements] @ reference_rule(mesh.dim, _orders(mesh.dim, boost)[2])[0].T

    def add_tile(chunk):
        ua, ub = at_points[chunk.a].ravel(), at_points[chunk.b].ravel()
        wa, wb = chunk.wa * ua, chunk.wb * ub
        left, right = np.array([wa * ua, chunk.wa, wa]), np.array([chunk.wb, wb * ub, wb])
        if chunk.Pa is not None:
            left, right = left @ chunk.Pa, right @ chunk.Pb
        left = left @ chunk.K
        part = 2.0 * float(left[0] @ right[0] + left[1] @ right[1] - 2.0 * (left[2] @ right[2]))
        _check_finite("disjoint_far", part)
        parts.append(part)

    for category, idx, g, wK in _terms(mesh, s, boost, geo, {}, band, add_tile, pairs_only):
        gu = vals[idx] @ g.T
        part = float(np.sum(wK * gu * gu))
        _check_finite(category, part)
        parts.append(part)
    return s * (1 - s) * fsum(parts)


def _pair_error_constant(dim, s, order, least):
    """(K, q): a tail pair's Gauss error is at most K J_a J_b (U_a + U_b)^2 D^q d^(-q-N-2s).

    d is the pair's gap, D its larger diameter and least a lower bound of
    d / D; U_a is the largest |u| on element a's nodes.  The plain Gauss
    rule is a tensor of 2N rules of ``order`` points on [0, 1], so its
    error is at most the sum over the 2N directions of the 1D error,
    (32/15) M rho^(-2n) / (rho^2 - 1) for an integrand bounded by M on
    the Bernstein ellipse E_rho (Trefethen, ATAP Thm 19.3).  Along a
    direction the point moves by at most D per unit, so E_rho with
    a = (rho + 1/rho)/2 = 1 + 2 tau d/D takes it at most tau d off its
    element and (D/2) sqrt(a^2 - 1) off the real space.  There
    |x - y|^(-N-2s) is analytic and at most (theta d)^(-N-2s), with
    theta = 1 - tau in 1D and theta^2 = 1 - 2 tau - tau D/d in 2D; u is
    at most a U_a, and in 2D the collapsed rule's Jacobian at most a, so
    M = 2 J_a J_b a^p (U_a + U_b)^2 (theta d)^(-N-2s) with p = N + 1.
    Each factor of a^p rho^(-2n) / (rho^2 - 1) (d/D)^q, q = 2n + 2 - p,
    is largest at d/D = least or as d/D grows without bound, which
    gives K for every tau; K is the least over a grid of tau.
    """
    p = dim + 1
    q = 2 * order + 2 - p
    top = 1.0 if dim == 1 else 1.0 / (2.0 + 1.0 / least)
    tau = top * np.linspace(0.0, 1.0, 1001)[1:-1]
    theta_sq = (1.0 - tau) ** 2 if dim == 1 else 1.0 - 2.0 * tau - tau / least
    a = 1.0 + 2.0 * tau * least
    rho = a + np.sqrt(a * a - 1.0)
    shape = (a / rho) ** p * (4.0 * tau) ** -q * rho**2 / (rho**2 - 1.0)
    K = 128.0 * dim / 15.0 * theta_sq ** (-(dim + 2 * s) / 2) * shape
    return float(np.min(K)), q


def tail_bound(mesh: BallMesh, s: float, u: FeFunction, boost: int, ratio: float) -> float:
    """Bound on the rule-level boost and boost+1 errors over the pairs outside ``audit_band(mesh, ratio)``.

    The sum of the two bounds bounds |Q_boost+1 - Q_boost| over those
    pairs, and |Q_j - Q_boost| for higher levels j, whose bounds fall
    with the order, so the slack audit adds it to the band's shift.  Every such pair takes the distant order (ratio >=
    _DISTANT_RATIO), the smallest of its level.  With r_c D the reach
    of an element from its centroid (r_c = 1/2 in 1D, 2/3 for a
    triangle), a pair c >= ratio D apart has gap d >= kappa c and
    D <= min(h, c / ratio), with kappa = 1 - 2 r_c / ratio, so its
    ``_pair_error_constant`` weight D^q d^(-q-N-2s) is at most k(c),
    decreasing in c.  (U_a + U_b)^2 <= 2 U_a^2 + 2 U_b^2 splits the
    pair sum into per-element sums of J_b k(c_ab), and every point y of
    such an element b has |y - c_a| / lam <= c_ab, lam = 1 + r_c /
    ratio, and |y - c_a| >= (ratio - r_c) D_a; so the sum is at most the
    integral of k(|y - c_a| / lam) over that far region, in closed form.
    O(m), with no pair formed; in the units of seminorm_sq_direct.
    """
    check_order(mesh.dim, s)
    if u.mesh is not mesh:
        raise ValueError("function does not live on the given mesh")
    if ratio < _DISTANT_RATIO:
        raise ValueError(f"tail bound needs a ratio of at least {_DISTANT_RATIO}, got {ratio!r}")
    dim = mesh.dim
    geo = element_geometry(mesh)
    r_c = 0.5 if dim == 1 else 2.0 / 3.0
    kappa, lam = 1.0 - 2.0 * r_c / ratio, 1.0 + r_c / ratio
    # the unit sphere's measure times lam^N, over the reference element's
    # measure, as J_b is b's measure over it
    sphere = 2.0 * lam if dim == 1 else 4.0 * np.pi * lam**2
    reach = ratio * mesh.h
    inner = (ratio - r_c) * geo.diameter / lam
    weight = geo.jacobian * np.max(u.values[mesh.elements] ** 2, axis=1)
    total = 0.0
    for level in (boost, boost + 1):
        K, q = _pair_error_constant(dim, s, _orders(dim, level)[2], ratio - 2.0 * r_c)
        # integral over t >= inner of t^(N-1) k(t), split at t = reach
        radial = (inner ** (-2 * s) - reach ** (-2 * s)) / (2 * s) + reach ** (-2 * s) / (q + 2 * s)
        total += 2.0 * K * kappa ** (-q - dim - 2 * s) * sphere * ratio**-q * float(weight @ radial)
    return s * (1 - s) * total
