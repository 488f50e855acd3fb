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
disjoint pairs by plain Gauss graded with distance, and the complement
term by one Gauss rule per element: kappa blows up like depth^(-2s) at
the sphere, but u vanishes linearly there, so u^2 kappa behaves like
depth^(2-2s), which plain Gauss resolves.  The pair categories and the
shared-node order of touching pairs come from ``mesh.element_pairs``,
decided once per mesh.

Each category yields terms (category, node idx, g, wK), one row per
element pair or element: row b adds sum_q wK[b, q] (g_q . u[idx[b]])^2.
``assemble`` scatters each term's block sum_q wK g_q g_q^T into the
matrix; ``seminorm_sq_direct`` sums the terms at the points and forms
no block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from math import fsum, gamma

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import hyp2f1

from ._quad import reference_rule, unit_gauss
from .mesh import BallMesh, FeFunction, SizeLimitError, element_geometry, element_pairs
from .params import check_order

__all__ = [
    "AssemblyError",
    "AssemblyReport",
    "NonlocalForm",
    "QuadSpec",
    "assemble",
    "complement_weight",
    "element_self_interaction",
    "seminorm_sq",
    "seminorm_sq_direct",
]

_BOUNDARY_TOL = 1e-12
# extra Gauss points per direction on "near" disjoint pairs (see mesh.element_pairs)
_NEAR_BONUS = 2
_DENSE_BYTES_CAP = 2e9
# quadrature points per yielded term, in every category: 2^16 keeps a
# term's float arrays at 512 KiB, small enough for a typical L2 cache,
# through the kernel passes and the scatter; the matrix is added into in
# place, so small terms add no per-term n^2 work
_TERM_POINTS = 1 << 16


class AssemblyError(RuntimeError):
    """Assembly produced an invalid matrix, local block or quadrature sum."""


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature configuration for one assembly.

    Orders count Gauss points per direction; ``complement_order`` is
    the rule on each element for the complement term.
    """

    disjoint_order: int
    vertex_order: int = 24
    edge_order: int = 12
    angular_order: int = 24
    complement_order: int = 8

    @classmethod
    def for_dim(cls, dim: int) -> "QuadSpec":
        if dim == 1:
            return cls(disjoint_order=4, vertex_order=24)
        if dim == 2:
            return cls(disjoint_order=3, vertex_order=10)
        raise ValueError("dim must be 1 or 2")

    def boosted(self) -> "QuadSpec":
        """A strictly finer configuration, used for quadrature audits."""
        return replace(
            self,
            disjoint_order=self.disjoint_order + 2,
            vertex_order=self.vertex_order + 4,
            edge_order=self.edge_order + 4,
            angular_order=self.angular_order + 16,
            complement_order=self.complement_order + 4,
        )


@dataclass(frozen=True)
class AssemblyReport:
    """Work statistics for one assembly run.

    phase_seconds times each phase of the term generators (classify,
    singular, disjoint, complement) across its yields, so it includes the
    caller's per-term work while the generator waits: in assemble, the block
    and the scatter of every term. At 1D level 10, disjoint reads about
    0.9 s in assemble against 0.55 s for the generators alone. "total" is
    the whole assemble call. complement_cells is the element count, one
    complement rule per element; budget_exceeded is always 0, kept because
    perfbench reads it by name until its capped-cells metric goes
    (ROADMAP item 9).
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
    quad_spec: QuadSpec


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
    factor is elementary on the line.
    """
    check_order(N, s)
    if N not in (1, 2):
        raise ValueError("complement weight is implemented for N in {1, 2}")
    pts = np.asarray(x, dtype=float)
    if N == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts[..., None]
    if pts.shape[-1] != N:
        raise ValueError(f"points must have last dimension {N}")
    rsq, radius = _radius(pts)
    if N == 1:
        t = pts[..., 0]
        return ((1.0 - t) ** (-2 * s) + (1.0 + t) ** (-2 * s)) / (2 * s)
    gap = (1.0 - radius) * (1.0 + radius)
    return (np.pi / s) * gap ** (-2 * s) * hyp2f1(-s, 1 - s, 1, rsq)


@lru_cache(maxsize=8)
def _radial_complement_table(s: float) -> tuple[np.ndarray, np.ndarray]:
    """Cubic table of kappa * depth^(2s) against log depth, depth = 1 - |x|.

    kappa depends on |x| only, and a hypergeometric call near the sphere
    costs far more than a table lookup, so the closed form is tabulated
    once per s, directly in the depth d:
    (pi/s) (2-d)^(-2s) 2F1(-s, 1-s; 1; (1-d)^2), as a not-a-knot cubic
    spline on a uniform grid in log d from log(5e-12) to 0.  Returns its
    knots t and its coefficients c, shape (4, len(t) - 1), the piece on
    [t[i], t[i+1]] being sum_k c[k, i] (x - t[i])^(3-k).  Interpolation
    error stays below 1e-8 relative for depths 1e-11..1 at s = 1/4..3/4.
    """
    t = np.linspace(np.log(5e-12), 0.0, 3072)
    d = np.exp(t)
    scaled = (np.pi / s) * (2.0 - d) ** (-2 * s) * hyp2f1(-s, 1 - s, 1, (1.0 - d) ** 2)
    spline = CubicSpline(t, scaled)
    # cached and shared by every caller
    spline.x.flags.writeable = spline.c.flags.writeable = False
    return spline.x, spline.c


def _radius(pts):
    """|x|^2 and |x| of points (..., N); raises on or beyond the sphere."""
    rsq = _sum_sq(pts[..., d].copy() for d in range(pts.shape[-1]))
    radius = np.sqrt(rsq)
    if np.any(radius >= 1.0 - _BOUNDARY_TOL):
        raise ValueError("complement weight diverges at the boundary sphere")
    return rsq, radius


def _kappa_fast(pts: np.ndarray, dim: int, s: float) -> np.ndarray:
    """Complement weight for assembly batches; read from the table on the disk.

    The piece of a point is found by direct index on the uniform knot
    grid, clipped to the end pieces, so depths below the first knot
    extrapolate its cubic as the spline does; the offset is taken from
    the knot itself.  The cubic is summed term by term in the order
    scipy's piecewise-polynomial evaluation uses, so the values are
    CubicSpline's to the last bit, except within rounding of a knot,
    where the neighbouring piece may be read, 1 ulp apart.
    """
    if dim == 1:
        return complement_weight(pts, 1, s)
    depth = 1.0 - _radius(pts)[1]
    t, c = _radial_complement_table(s)
    x = np.log(depth)
    piece = ((x - t[0]) * ((len(t) - 1) / (t[-1] - t[0]))).astype(np.intp)
    np.clip(piece, 0, len(t) - 2, out=piece)
    dx = x - t.take(piece)
    val = c[3].take(piece)
    val += c[2].take(piece) * dx
    power = dx * dx
    val += c[1].take(piece) * power
    power *= dx
    val += c[0].take(piece) * power
    val *= depth ** (-2.0 * s)
    return val


def _complement_terms(mesh, s, spec, geo, counters):
    """Yield 2 * integral of u v kappa, one element per row.

    Every element takes the complement rule; g is its shared lam.
    """
    t0 = time.perf_counter()
    lam, weights = reference_rule(mesh.dim, spec.complement_order)
    counters["complement_cells"] = mesh.n_elements
    scale = 2.0 * geo.jacobian
    npts = 0
    for part in _row_chunks(mesh.n_elements, len(lam)):
        kap = _kappa_fast(lam @ geo.verts[part], mesh.dim, s)
        npts += kap.size
        yield "complement", mesh.elements[part], lam, (scale[part, None] * weights) * kap
    counters["complement_points"] = npts
    counters["phase_seconds"]["complement"] = time.perf_counter() - t0


# ----------------------------------------------------------- local formulas

def _ident_terms_1d(mesh, s, geo, counters):
    h = geo.measure
    g = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, None, :]
    wK = (2.0 * h ** (3 - 2 * s) / ((2 - 2 * s) * (3 - 2 * s)))[:, None]
    counters["pair_counts"]["identical"] = mesh.n_elements
    counters["kernel_evals"]["identical"] = 0
    for part in _row_chunks(mesh.n_elements, 1):
        yield "identical", mesh.elements[part], g[part], wK[part]


def _vertex_terms_1d(mesh, s, pairs, spec, counters):
    mu, wmu = unit_gauss(spec.vertex_order)
    n_pairs = len(pairs.vertex)
    counters["pair_counts"]["vertex"] = n_pairs
    counters["kernel_evals"]["vertex"] = 2 * n_pairs * len(mu)
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


def _ident_terms_2d(mesh, s, geo, spec, counters):
    """Identical pairs by angular sector; each sector runs over the elements in order."""
    m = mesh.n_elements
    verts = geo.verts
    beta = gamma(2 - 2 * s) * gamma(3) / gamma(5 - 2 * s)
    L = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 1]], axis=-1)
    scale = 4.0 * beta * geo.measure * geo.measure
    xg, wg = np.polynomial.legendre.leggauss(spec.angular_order)
    counters["pair_counts"]["identical"] = m
    counters["kernel_evals"]["identical"] = 3 * m * len(xg)
    for a, b in ((0, np.pi / 4), (np.pi / 4, np.pi / 2), (np.pi / 2, np.pi)):
        th = 0.5 * (b - a) * xg + 0.5 * (a + b)
        w = 0.5 * (b - a) * wg
        om = np.stack([np.cos(th), np.sin(th)], axis=-1)
        tau = 0.5 * (np.abs(om[:, 0]) + np.abs(om[:, 1]) + np.abs(om[:, 0] - om[:, 1]))
        for part in _row_chunks(m, len(th)):
            z = np.einsum("nc,bdc->bnd", om, L[part])
            kz = np.sum(z * z, axis=-1) ** (-(2 + 2 * s) / 2)
            gz = np.einsum("bkd,bnd->bnk", geo.grads[part], z)
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
    counters = _new_counters()
    if mesh.dim == 1:
        terms = _ident_terms_1d(mesh, s, geo, counters)
    else:
        terms = _ident_terms_2d(mesh, s, geo, QuadSpec.for_dim(2), counters)
    local = np.concatenate([_term_block(g, wK) for _, _, g, wK in terms])
    k = mesh.dim + 1
    return local.reshape(-1, mesh.n_elements, k, k).sum(axis=0)


def _vertex_terms_2d(mesh, s, geo, pairs, spec, counters):
    x01, w01 = unit_gauss(spec.vertex_order)
    Sg, Tg, Mg = (a.ravel() for a in np.meshgrid(x01, x01, x01, indexing="ij"))
    Wg = (w01[:, None, None] * w01[None, :, None] * w01[None, None, :]).ravel()
    g_br = (
        np.stack([Mg - 1, 1 - Sg, Sg, -Mg * (1 - Tg), -Mg * Tg], axis=1),
        np.stack([1 - Mg, Mg * (1 - Sg), Mg * Sg, -(1 - Tg), -Tg], axis=1),
    )
    counters["pair_counts"]["vertex"] = len(pairs.vertex)
    counters["kernel_evals"]["vertex"] = 2 * len(pairs.vertex) * len(Mg)
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


def _edge_terms_2d(mesh, s, geo, pairs, spec, counters):
    regions = _edge_subregions(spec.edge_order)
    counters["pair_counts"]["edge"] = len(pairs.edge)
    counters["kernel_evals"]["edge"] = len(pairs.edge) * sum(len(r[0]) for r in regions)
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


def _disjoint_terms(mesh, s, geo, pairs, order, tag, counters):
    """Plain Gauss on both elements; a point pair (p, q) has g = [lam_p, -lam_q].

    The rule's points on every element are formed once, coordinate
    major, and each chunk gathers its rows from that table.
    """
    lam, weights = reference_rule(mesh.dim, order)
    nq = len(lam)
    counters["pair_counts"][tag] = len(pairs)
    counters["kernel_evals"][tag] = len(pairs) * nq * nq
    g = np.concatenate([np.repeat(lam, nq, axis=0), -np.tile(lam, (nq, 1))], axis=1)
    ww = 2.0 * np.outer(weights, weights).ravel()
    expo = -(mesh.dim + 2 * s) / 2.0
    ia, ib = pairs[:, 0], pairs[:, 1]
    idx = np.concatenate([mesh.elements[ia], mesh.elements[ib]], axis=1)
    jac = geo.jacobian[ia] * geo.jacobian[ib]
    X = np.einsum("qk,mkd->dmq", lam, geo.verts)
    for part in _row_chunks(len(pairs), nq * nq):
        a, b = ia[part], ib[part]
        K = _sum_sq(x[a][:, :, None] - x[b][:, None, :] for x in X).reshape(len(a), -1)
        K **= expo
        K *= ww
        K *= jac[part, None]
        yield tag, idx[part], g, K


def _terms(mesh, s, spec, geo, counters):
    """Yield (category, node idx (B, n), g, wK) covering the whole form.

    Row b of a term contributes sum_q wK[b, q] (g_q . u[idx[b]])^2 to
    the double integral over B_h x B_h plus twice the complement
    integral; g is shared, (points, n), or per row, (B, points, n).
    Unordered distinct pairs and the complement carry their factor 2
    in wK.  Rows may repeat across terms (branches, regions, sectors).
    """
    t0 = time.perf_counter()
    pairs = element_pairs(mesh)
    counters["phase_seconds"]["classify"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if mesh.dim == 1:
        yield from _ident_terms_1d(mesh, s, geo, counters)
        yield from _vertex_terms_1d(mesh, s, pairs, spec, counters)
        counters["pair_counts"]["edge"] = 0
        counters["kernel_evals"]["edge"] = 0
    else:
        yield from _ident_terms_2d(mesh, s, geo, spec, counters)
        yield from _vertex_terms_2d(mesh, s, geo, pairs, spec, counters)
        yield from _edge_terms_2d(mesh, s, geo, pairs, spec, counters)
    counters["phase_seconds"]["singular"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    yield from _disjoint_terms(
        mesh, s, geo, pairs.near, spec.disjoint_order + _NEAR_BONUS, "disjoint_near", counters
    )
    yield from _disjoint_terms(
        mesh, s, geo, pairs.far, spec.disjoint_order, "disjoint_far", counters
    )
    counters["phase_seconds"]["disjoint"] = time.perf_counter() - t0

    yield from _complement_terms(mesh, s, spec, geo, counters)


def _new_counters():
    return {
        "pair_counts": {},
        "kernel_evals": {},
        "complement_cells": 0,
        "complement_points": 0,
        "budget_exceeded": 0,
        "phase_seconds": {},
    }


def _check_finite(category, values):
    if not np.all(np.isfinite(values)):
        raise AssemblyError(f"non-finite values in {category} quadrature")


def assemble(mesh: BallMesh, s: float, quad_spec: QuadSpec | None = None) -> NonlocalForm:
    """Assemble the bilinear form matrix on the free nodes of the mesh."""
    check_order(mesh.dim, s)
    spec = quad_spec if quad_spec is not None else QuadSpec.for_dim(mesh.dim)
    n = mesh.n_nodes
    need = 3 * n * n * 8
    if need > _DENSE_BYTES_CAP:
        raise SizeLimitError(
            f"dense assembly needs about {need / 1e9:.1f} GB for {n} nodes; "
            "reduce the refinement level"
        )
    geo = element_geometry(mesh)
    counters = _new_counters()
    t_total = time.perf_counter()

    flat = np.zeros(n * n)
    for category, idx, g, wK in _terms(mesh, s, spec, geo, counters):
        local = _term_block(g, wK)
        _check_finite(category, local)
        np.add.at(flat, (idx[:, :, None] * n + idx[:, None, :]).ravel(), local.ravel())
    flat *= s * (1 - s)
    fc = mesh.free_count
    matrix = np.ascontiguousarray(flat.reshape(n, n)[:fc, :fc])

    scale = float(np.max(np.abs(matrix))) or 1.0
    skew = float(np.max(np.abs(matrix - matrix.T)))
    if skew > 1e-12 * scale:
        raise AssemblyError(f"assembled matrix asymmetry {skew:.2e} exceeds tolerance")
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("assembled matrix is not positive definite") from exc

    counters["phase_seconds"]["total"] = time.perf_counter() - t_total
    report = AssemblyReport(
        pair_counts=counters["pair_counts"],
        kernel_evals=counters["kernel_evals"],
        complement_cells=counters["complement_cells"],
        complement_points=counters["complement_points"],
        budget_exceeded=counters["budget_exceeded"],
        phase_seconds=counters["phase_seconds"],
    )
    return NonlocalForm(mesh=mesh, s=s, matrix=matrix, assembly_report=report, quad_spec=spec)


def seminorm_sq(form: NonlocalForm, u: FeFunction) -> float:
    """Squared fractional seminorm of the zero-extended function."""
    if u.mesh is not form.mesh:
        raise ValueError("function and form live on different meshes")
    w = u.free_values
    return float(w @ form.matrix @ w)


def seminorm_sq_direct(
    mesh: BallMesh, s: float, u: FeFunction, quad_spec: QuadSpec | None = None
) -> float:
    """Squared seminorm summed at the quadrature points, no matrix or block.

    Every term adds sum wK (g . u)^2 from the quadrature that assemble
    scatters; useful for meshes too large for a dense matrix and for
    independent-order audits. The per-term sums are added exactly (fsum),
    so the order and number of terms add no rounding of their own.
    """
    check_order(mesh.dim, s)
    if u.mesh is not mesh:
        raise ValueError("function does not live on the given mesh")
    spec = quad_spec if quad_spec is not None else QuadSpec.for_dim(mesh.dim)
    geo = element_geometry(mesh)
    vals = u.values
    parts = []
    for category, idx, g, wK in _terms(mesh, s, spec, geo, _new_counters()):
        w = vals[idx]
        gu = w @ g.T if g.ndim == 2 else (g @ w[:, :, None])[..., 0]
        part = float(np.sum(wK * gu * gu))
        _check_finite(category, part)
        parts.append(part)
    return s * (1 - s) * fsum(parts)
