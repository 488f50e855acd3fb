"""Meshes of the unit ball and nodal interpolation.

1D meshes are uniform partitions of [-1, 1]; 2D meshes are structured
concentric-ring triangulations of the unit disk with every outer-ring node
placed exactly on the circle. Nodes are ordered interior first, boundary
last, so the free (interior) degrees of freedom are a prefix.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BallMesh",
    "FeFunction",
    "build_mesh",
    "make_ball_mesh",
    "mesh_quality",
    "interpolate",
    "SizeLimitError",
]

_BOUNDARY_TOL = 1e-12


class SizeLimitError(ValueError):
    """A mesh or matrix would exceed its memory cap; refused before allocating."""


@dataclass(frozen=True, eq=False)
class BallMesh:
    """Conforming simplicial mesh of the unit ball in dimension 1 or 2."""

    dim: int
    nodes: np.ndarray          # (n_nodes, dim), interior first
    elements: np.ndarray       # (n_elements, dim + 1) int
    boundary_mask: np.ndarray  # (n_nodes,) bool
    h: float
    h_min: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def free_count(self):
        """Number of interior nodes; they occupy indices 0..free_count-1."""
        return int(np.sum(~self.boundary_mask))


@dataclass(frozen=True, eq=False)
class FeFunction:
    """Piecewise-linear function on a BallMesh, zero outside the mesh.

    Boundary node values must be exactly zero so the extension by zero
    beyond the meshed polytope stays continuous.
    """

    mesh: BallMesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"expected {self.mesh.n_nodes} nodal values, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("nodal values must be finite")
        if np.any(values[self.mesh.boundary_mask] != 0.0):
            raise ValueError("boundary node values must be zero")
        object.__setattr__(self, "values", values)

    @property
    def free_values(self):
        return self.values[: self.mesh.free_count]

    @classmethod
    def from_free(cls, mesh, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (mesh.free_count,):
            raise ValueError("coefficient vector length mismatch")
        values = np.zeros(mesh.n_nodes)
        values[: mesh.free_count] = coeffs
        return cls(mesh, values)

    def scaled(self, t):
        return FeFunction(self.mesh, self.values * float(t))


def mesh_quality(mesh):
    """(sigma, rho, h, h_min) of the mesh, from its element geometry.

    sigma is the worst element diameter over inscribed-ball diameter, rho the
    smallest over largest element diameter. Degenerate elements are reported
    by index.
    """
    return _quality(element_geometry(mesh))


def _quality(geo):
    h = float(np.max(geo.diameter))
    h_min = float(np.min(geo.diameter))
    return float(np.max(geo.diameter / geo.inball)), h_min / h, h, h_min


def _check_conformity(dim, n_nodes, elements, boundary_mask, nodes):
    """Faces must match node-for-node; boundary faces only on the sphere."""
    if dim == 1:
        order = np.argsort(nodes[elements].min(axis=1)[:, 0])
        seq = elements[order]
        lo = np.sort(nodes[seq, 0], axis=1)
        if not np.allclose(lo[1:, 0], lo[:-1, 1], rtol=0, atol=1e-14):
            raise ValueError("1D elements do not tile the interval")
        return
    faces = np.sort(
        np.concatenate(
            [elements[:, [0, 1]], elements[:, [1, 2]], elements[:, [0, 2]]]
        ),
        axis=1,
    )
    keys = faces[:, 0].astype(np.int64) * n_nodes + faces[:, 1]
    uniq, counts = np.unique(keys, return_counts=True)
    if np.any(counts > 2):
        raise ValueError("non-conforming mesh: a face is shared by > 2 elements")
    outer = uniq[counts == 1]
    a, b = outer // n_nodes, outer % n_nodes
    if not (np.all(boundary_mask[a]) and np.all(boundary_mask[b])):
        raise ValueError("a boundary face has a node off the unit sphere")


def make_ball_mesh(dim, nodes, elements):
    """Build a validated BallMesh from raw node/element arrays.

    Detects boundary nodes (distance to the unit sphere below 1e-12),
    reorders nodes interior-first, checks conformity and orientation, and
    builds the element geometry once, from which h and h_min come.  Element
    entries must be integer values; integer-valued floats are accepted.
    """
    nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    raw = np.asarray(elements)
    elements = np.ascontiguousarray(raw, dtype=np.int64)
    if not np.array_equal(elements, raw):
        raise ValueError("element node indices must be integers")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if nodes.shape[1] != dim or elements.shape[1] != dim + 1:
        raise ValueError("node or element array has the wrong width")
    if np.any((elements < 0) | (elements >= len(nodes))):
        raise ValueError(f"element node index outside [0, {len(nodes)})")
    radii = np.linalg.norm(nodes, axis=1)
    if np.any(radii > 1.0 + _BOUNDARY_TOL):
        raise ValueError("node outside the closed unit ball")
    boundary = np.abs(radii - 1.0) <= _BOUNDARY_TOL

    # interior nodes first; stable so construction order is preserved
    perm = np.argsort(boundary, kind="stable")
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    nodes = nodes[perm]
    boundary = boundary[perm]
    elements = inverse[elements]

    if dim == 2:
        verts = nodes[elements]
        cross = (verts[:, 1, 0] - verts[:, 0, 0]) * (
            verts[:, 2, 1] - verts[:, 0, 1]
        ) - (verts[:, 2, 0] - verts[:, 0, 0]) * (verts[:, 1, 1] - verts[:, 0, 1])
        flip = cross < 0.0
        elements[flip] = elements[flip][:, [0, 2, 1]]

    _check_conformity(dim, len(nodes), elements, boundary, nodes)
    geo = _build_geometry(dim, nodes[elements])
    _, _, h, h_min = _quality(geo)
    return BallMesh(
        dim=dim,
        nodes=nodes,
        elements=elements,
        boundary_mask=boundary,
        h=h,
        h_min=h_min,
        _cache={"geometry": geo},
    )


def _disk_nodes_elements(rings):
    """Concentric-ring triangulation with 6j nodes on ring j of radius j/M."""
    M = rings
    bases = np.zeros(M + 1, dtype=np.int64)
    for j in range(1, M + 1):
        bases[j] = 1 + 3 * j * (j - 1)
    pts = [np.zeros((1, 2))]
    for j in range(1, M + 1):
        t = np.arange(6 * j)
        ang = 2.0 * np.pi * t / (6 * j)
        r = j / M
        pts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    nodes = np.concatenate(pts)

    tris = []
    # innermost fan
    first = bases[1] + np.arange(6)
    tris.append(
        np.column_stack([np.zeros(6, dtype=np.int64), first, bases[1] + (np.arange(6) + 1) % 6])
    )
    for j in range(2, M + 1):
        ni, no = 6 * (j - 1), 6 * j
        m = np.arange(6)[:, None]
        k = np.arange(j)[None, :]
        to0 = bases[j] + (m * j + k) % no
        to1 = bases[j] + (m * j + k + 1) % no
        ti0 = bases[j - 1] + (m * (j - 1) + k) % ni
        tris.append(
            np.column_stack([to0.ravel(), to1.ravel(), ti0.ravel()])
        )
        k = np.arange(j - 1)[None, :]
        ti0 = bases[j - 1] + (m * (j - 1) + k) % ni
        ti1 = bases[j - 1] + (m * (j - 1) + k + 1) % ni
        to1 = bases[j] + (m * j + k + 1) % no
        tris.append(
            np.column_stack([ti0.ravel(), ti1.ravel(), to1.ravel()])
        )
    return nodes, np.concatenate(tris)


def build_mesh(N, level):
    """Mesh of the unit ball at the given refinement level.

    N=1: uniform partition of [-1, 1] into 2^(level+1) segments (a nested
    family with h = 2^-level). N=2: ring triangulation with 2^(level+1)
    rings. Element diameters halve per level within 20%.
    """
    if N not in (1, 2):
        raise ValueError("N must be 1 or 2")
    if not isinstance(level, (int, np.integer)) or level < 0:
        raise ValueError("level must be a nonnegative integer")
    if N == 1:
        m = 2 ** (level + 1)
        est = (m + 1) * 8 * 12
        if est > 1.5e9:
            raise SizeLimitError(
                f"level {level} needs about {est / 1e9:.1f} GB of mesh storage; "
                "refusing"
            )
        xs = np.linspace(-1.0, 1.0, m + 1)
        elements = np.column_stack([np.arange(m), np.arange(1, m + 1)])
        return make_ball_mesh(1, xs, elements)
    rings = 2 ** (level + 1)
    n_nodes = 1 + 3 * rings * (rings + 1)
    est = n_nodes * 8 * 12 + 6 * rings**2 * 8 * 30
    if est > 1.5e9:
        raise SizeLimitError(
            f"level {level} gives {n_nodes} nodes, about {est / 1e9:.1f} GB of "
            "mesh storage; refusing"
        )
    nodes, elements = _disk_nodes_elements(rings)
    return make_ball_mesh(2, nodes, elements)


def element_geometry(mesh):
    """Cached per-element arrays used by quadrature, assembly and mesh quality.

    Returns an object with verts (m, k, dim), measure (m,), diameter (m,),
    inball (m,), the inscribed-ball diameter, jacobian (m,), the measure
    over that of the reference simplex, and grads (m, k, dim) holding the
    constant gradients of the k nodal basis functions.  ``make_ball_mesh``
    seeds the cache.
    """
    if "geometry" not in mesh._cache:
        mesh._cache["geometry"] = _build_geometry(mesh.dim, mesh.nodes[mesh.elements])
    return mesh._cache["geometry"]


def _build_geometry(dim, verts):
    """Element geometry of the simplices ``verts`` (m, dim+1, dim).

    A degenerate element raises before anything divides by its length or
    determinant.  The inscribed ball of a segment is the segment itself;
    that of a triangle has diameter 4 area / perimeter.
    """
    if dim == 1:
        lengths = verts[:, 1, 0] - verts[:, 0, 0]
        measure = diameter = np.abs(lengths)
    else:
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        e12 = verts[:, 2] - verts[:, 1]
        l01, l12, l20 = (np.linalg.norm(e, axis=1) for e in (e1, e12, e2))
        measure = 0.5 * np.abs(det)
        diameter = np.maximum(np.maximum(l01, l12), l20)
    bad = np.nonzero(measure <= 1e-14 * diameter**dim)[0]
    if bad.size:
        raise ValueError(f"degenerate element {bad[0]} (measure ~ 0)")
    if dim == 1:
        inball = measure
        grads = np.stack([-1.0 / lengths, 1.0 / lengths], axis=1)[:, :, None]
    else:
        inball = 4.0 * measure / (l01 + l12 + l20)
        # rows of J^{-T} applied to the reference gradients
        gx1 = np.column_stack([e2[:, 1], -e2[:, 0]]) / det[:, None]
        gx2 = np.column_stack([-e1[:, 1], e1[:, 0]]) / det[:, None]
        grads = np.stack([-gx1 - gx2, gx1, gx2], axis=1)
    return _ElementGeometry(
        verts=verts,
        measure=measure,
        diameter=diameter,
        inball=inball,
        jacobian=measure / (1.0 if dim == 1 else 0.5),
        grads=grads,
    )


@dataclass(frozen=True, eq=False)
class _ElementGeometry:
    verts: np.ndarray
    measure: np.ndarray
    diameter: np.ndarray
    inball: np.ndarray
    jacobian: np.ndarray
    grads: np.ndarray


_ElementPairs = namedtuple("_ElementPairs", "vertex edge vertex_nodes edge_nodes")
_ClusterTree = namedtuple("_ClusterTree", "order start stop children lo hi diameter box")

# elements per cluster-tree leaf, at most
_LEAF_SIZE = 16
# pairs per leaf-row block of disjoint_partition: each block's pairs make
# their own terms, so the block size fixes the fsum parts of
# seminorm_sq_direct and the scatter order of assemble, and with them
# the last bits of both
_ROW_PAIRS = 1 << 15


def element_pairs(mesh):
    """Cached shared-node topology of the unordered distinct element pairs.

    Returns an object with (P, 2) element-index arrays vertex and edge
    (one and two shared nodes), a < b in triu order, and the node tables
    vertex_nodes (P, 2N+1) and edge_nodes (P, 2N).  Every other pair is
    disjoint; ``disjoint_partition`` hands them over as cluster tiles and
    leaf rows, so the cache stays O(m).  A table row holds the first
    element's nodes in cyclic order from its first shared node, then the
    second element's unshared nodes in cyclic order, so the shared nodes
    lead.
    """
    if "pairs" not in mesh._cache:
        mesh._cache["pairs"] = _enumerate_pairs(mesh)
    return mesh._cache["pairs"]


def cluster_tree(mesh):
    """Cached binary cluster tree of the elements, O(m) arrays.

    Node 0 is the root, and children come after their parent.  Node i
    holds the elements order[start[i]:stop[i]], its two children
    children[i] (-1 at a leaf), the box lo[i]..hi[i] of its element
    centroids, the largest diameter of its elements and box[i], the
    (low, high) corners of its elements' vertices.  A node of more
    than _LEAF_SIZE elements splits at the median of its centroids along
    the widest side of their box (Hackbusch, *Hierarchical Matrices*,
    2015, ch. 5).
    """
    if "tree" not in mesh._cache:
        mesh._cache["tree"] = _build_tree(mesh)
    return mesh._cache["tree"]


def _build_tree(mesh):
    geo = element_geometry(mesh)
    centroid = geo.verts.mean(axis=1)
    order = np.arange(mesh.n_elements)
    # spans grows as nodes split, so the loop reaches every child after
    # its parent
    spans, children = [(0, mesh.n_elements)], []
    for lo, hi in spans:
        members = order[lo:hi]
        if hi - lo <= _LEAF_SIZE:
            children.append((-1, -1))
            continue
        axis = np.argmax(np.ptp(centroid[members], axis=0))
        order[lo:hi] = members[np.argsort(centroid[members, axis], kind="stable")]
        children.append((len(spans), len(spans) + 1))
        spans += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
    start, stop = np.array(spans).T
    boxes = [centroid[order[lo:hi]] for lo, hi in spans]
    verts = [geo.verts[order[lo:hi]] for lo, hi in spans]
    return _ClusterTree(
        order=order,
        start=start,
        stop=stop,
        children=np.array(children),
        lo=np.array([box.min(axis=0) for box in boxes]),
        hi=np.array([box.max(axis=0) for box in boxes]),
        diameter=np.array([np.max(geo.diameter[order[lo:hi]]) for lo, hi in spans]),
        box=np.array([[v.min(axis=(0, 1)), v.max(axis=(0, 1))] for v in verts]),
    )


def _block_walk(tree, ratio):
    """(tiles, leaves): the blocks of the block tree at ratio, as (B, 2) node pairs.

    The walk splits the cluster pair (root, root), each cluster into its
    children, until a block (t, u) is admissible, its centroid boxes at
    least ratio times its largest diameter apart, or holds two leaves.
    The test carries a 1e-9 relative margin, so each pair of an
    admissible block has centroids ratio larger diameters apart or more
    however its distance rounds; with ratio >= 2 no such pair shares a
    node (a vertex lies within one diameter of its centroid).  tiles
    holds the admissible blocks, leaves the other leaf blocks.
    """
    if ratio < 2.0:
        raise ValueError(f"tiles need a ratio of at least 2, got {ratio!r}")
    kids = tree.children
    t = u = np.zeros(1, dtype=np.intp)
    tiles, leaves = [], []
    while len(t):
        gap = np.maximum(np.maximum(tree.lo[u] - tree.hi[t], tree.lo[t] - tree.hi[u]), 0.0)
        reach = ratio * (1.0 + 1e-9) * np.maximum(tree.diameter[t], tree.diameter[u])
        far = (t != u) & (np.sum(gap * gap, axis=1) >= reach * reach)
        leaf = (kids[t, 0] < 0) & (kids[u, 0] < 0) & ~far
        tiles.append(np.stack([t[far], u[far]], axis=1))
        leaves.append(np.stack([t[leaf], u[leaf]], axis=1))
        t, u = t[~far & ~leaf], u[~far & ~leaf]
        # a diagonal block splits into (c0, c0), (c0, c1), (c1, c1); any
        # other into the halves of its sides, a leaf being its own half
        diag = kids[t[t == u]]
        ht, hu = _halves(kids, t[t != u]), _halves(kids, u[t != u])
        pairs = [(diag[:, 0], diag[:, 0]), (diag[:, 0], diag[:, 1]), (diag[:, 1], diag[:, 1])]
        pairs += [(ht[:, i], hu[:, j]) for i in (0, 1) for j in (0, 1)]
        t, u = (np.concatenate(side) for side in zip(*pairs))
        real = (t >= 0) & (u >= 0)
        t, u = t[real], u[real]
    return np.concatenate(tiles), np.concatenate(leaves)


def disjoint_partition(mesh, ratio):
    """(tiles, rows): every disjoint element pair once, as cluster tiles or leaf rows.

    The blocks come from the walk of ``_block_walk`` at ratio >= 2.
    tiles lists its admissible blocks (t, u) as they are, as
    (a, b, box): the element arrays of the two clusters, each (a[i], b[j])
    one pair, and their vertex boxes, box[0] t's and box[1] u's (low,
    high) corners.  rows yields the leaf blocks' pairs less the touching
    ones as (ia, ib) blocks, ia < ib, of at most _ROW_PAIRS pairs.  Only
    the tree is cached.
    """
    tree = cluster_tree(mesh)
    tiles, leaves = _block_walk(tree, ratio)
    order, start, stop = tree.order, tree.start, tree.stop
    blocks = [(order[start[t] : stop[t]], order[start[u] : stop[u]], tree.box[[t, u]]) for t, u in tiles]
    return blocks, _leaf_pairs(tree, leaves, lambda ia, ib: ~shares_node(mesh, ia, ib))


def leaf_pairs(mesh, ratio, keep):
    """(ia, ib), a < b in triu order: the walk's leaf pairs at ratio that keep(ia, ib) holds for.

    The leaf pairs are the pairs of distinct elements in the leaf blocks
    of ``_block_walk`` at ratio >= 2, touching pairs included; they hold
    every pair whose centroids lie under ratio larger diameters apart,
    since the tiles hold none.  keep takes them in blocks of at most
    _ROW_PAIRS and returns a mask; no tile is grouped or evaluated.
    """
    tree = cluster_tree(mesh)
    m = mesh.n_elements
    keys = [np.empty(0, dtype=np.intp)]
    keys += [ia * m + ib for ia, ib in _leaf_pairs(tree, _block_walk(tree, ratio)[1], keep)]
    return np.divmod(np.sort(np.concatenate(keys)), m)


def shares_node(mesh, ia, ib):
    """Whether elements ia[i] and ib[i] share a node: one == per pair of their nodes."""
    a, b = mesh.elements[ia].T, mesh.elements[ib].T
    return np.any([x == y for x in a for y in b], axis=0)


def _halves(kids, nodes):
    """The two children of each cluster in nodes; (node, -1) for a leaf."""
    halves = kids[nodes]
    leaf = halves[:, 0] < 0
    halves[leaf, 0] = nodes[leaf]
    return halves


def _leaf_pairs(tree, leaves, keep):
    """Yield the leaf blocks' pairs that keep(ia, ib) holds for, as (ia, ib) blocks, ia < ib.

    Whole leaf blocks are taken up to _ROW_PAIRS cells at a time, so a
    stream holds only its yielded pairs.
    """
    t, u = leaves.T
    cells = (tree.stop[t] - tree.start[t]) * (tree.stop[u] - tree.start[u])
    end = np.cumsum(cells)
    lo = 0
    while lo < len(t):
        hi = max(lo + 1, int(np.searchsorted(end, end[lo] - cells[lo] + _ROW_PAIRS, side="right")))
        ia, ib = _block_cells(tree, t[lo:hi], u[lo:hi])
        mask = keep(ia, ib)
        yield ia[mask], ib[mask]
        lo = hi


def _block_cells(tree, t, u):
    """(ia, ib), ia < ib: the pairs of distinct elements of the cluster blocks (t, u).

    A diagonal block gives each of its pairs once.
    """
    width = tree.stop[u] - tree.start[u]
    cells = (tree.stop[t] - tree.start[t]) * width
    block = np.repeat(np.arange(len(t)), cells)
    i, j = np.divmod(np.arange(len(block)) - (np.cumsum(cells) - cells)[block], width[block])
    a = tree.order[tree.start[t[block]] + i]
    b = tree.order[tree.start[u[block]] + j]
    keep = (t[block] != u[block]) | (i < j)
    return np.minimum(a, b)[keep], np.maximum(a, b)[keep]


def _enumerate_pairs(mesh):
    """Find the touching element pairs among the leaf pairs of the walk at ratio 2.

    A vertex lies within one diameter of its element's centroid, so two
    elements that share a node have centroids under 2 larger diameters
    apart, and no tile at ratio 2 holds them.  The leaf pairs compare
    their nodes; the touching ones, in triu order, build the tables.
    """
    els = mesh.elements
    ii, jj = leaf_pairs(mesh, 2.0, lambda ia, ib: shares_node(mesh, ia, ib))
    eq = els[ii][:, :, None] == els[jj][:, None, :]
    shared = eq.sum(axis=(1, 2))
    tables = {}
    for n_shared, name in ((1, "vertex"), (2, "edge")):
        mask = shared == n_shared
        tables[name] = np.stack([ii[mask], jj[mask]], axis=1)
        a = _from_first_shared(els[ii[mask]], eq[mask].any(axis=2))
        b = _from_first_shared(els[jj[mask]], eq[mask].any(axis=1))
        tables[name + "_nodes"] = np.concatenate([a, b[:, n_shared:]], axis=1)
    return _ElementPairs(**tables)


def _from_first_shared(nodes, shared):
    """Rotate rows cyclically to start at the shared node after an unshared one."""
    k = nodes.shape[1]
    start = np.argmax(shared & ~np.roll(shared, 1, axis=1), axis=1)
    return nodes[np.arange(len(nodes))[:, None], (start[:, None] + np.arange(k)) % k]


def interpolate(mesh, f):
    """Nodal interpolant of f as an FeFunction.

    f is called once with the (n_nodes, dim) node array and must return the
    whole value vector, shape (n_nodes,). Boundary values are forced to zero
    so the result lies in the discrete space whether or not f vanishes on
    the sphere.
    """
    vals = np.asarray(f(mesh.nodes), dtype=float)
    if vals.shape != (mesh.n_nodes,):
        raise ValueError(
            f"interpolated function returned shape {vals.shape}, expected ({mesh.n_nodes},)"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("interpolated function returned a non-finite value")
    vals = vals.copy()
    vals[mesh.boundary_mask] = 0.0
    return FeFunction(mesh, vals)
