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
from scipy.spatial import cKDTree

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
    sigma: float
    rho: float
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
    builds the element geometry once, from which the quality metrics come.
    """
    nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    elements = np.ascontiguousarray(np.asarray(elements, dtype=np.int64))
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
    sigma, rho, h, h_min = _quality(geo)
    return BallMesh(
        dim=dim,
        nodes=nodes,
        elements=elements,
        boundary_mask=boundary,
        h=h,
        h_min=h_min,
        sigma=sigma,
        rho=rho,
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


_ElementPairs = namedtuple("_ElementPairs", "vertex edge near vertex_nodes edge_nodes not_far")

# strict-upper-triangle cells per far_pairs block: its index arrays take a
# few MB, however many elements the mesh has
_FAR_CELLS = 1 << 16


def element_pairs(mesh):
    """Cached shared-node topology of the unordered distinct element pairs.

    Returns an object with (P, 2) element-index arrays vertex and edge
    (one and two shared nodes) and near (no shared node, but the smallest
    vertex distance is below the larger element diameter), the node
    tables vertex_nodes (P, 2N+1) and edge_nodes (P, 2N), and not_far,
    the sorted triu positions of all those pairs.  Every other pair is
    far; ``far_pairs`` streams them, so the cache stays O(m).  A table
    row holds the first element's nodes in cyclic order from its first
    shared node, then the second element's unshared nodes in cyclic
    order, so the shared nodes lead.
    """
    if "pairs" not in mesh._cache:
        mesh._cache["pairs"] = _enumerate_pairs(mesh)
    return mesh._cache["pairs"]


def far_pairs(mesh):
    """Yield the far element pairs (a < b) in triu order, as (ia, ib) blocks.

    Each block covers the next _FAR_CELLS cells of the strict upper
    triangle in row-major order and drops the positions in
    ``element_pairs(mesh).not_far``, so the blocks concatenate to every
    far pair and no O(m^2) array is formed.
    """
    not_far = element_pairs(mesh).not_far
    m = mesh.n_elements
    rows = np.arange(m)
    # triu position of cell (i, i + 1); the last entry is the cell count
    first = rows * (2 * m - rows - 1) // 2
    total = int(first[-1])
    for lo in range(0, total, _FAR_CELLS):
        hi = min(lo + _FAR_CELLS, total)
        r0 = np.searchsorted(first, lo, side="right") - 1
        r1 = np.searchsorted(first, hi - 1, side="right")
        ia = np.repeat(rows[r0:r1], np.diff(np.clip(first[r0 : r1 + 1], lo, hi)))
        ib = np.arange(lo, hi) - first[ia] + ia + 1
        keep = np.ones(hi - lo, dtype=bool)
        keep[not_far[np.searchsorted(not_far, lo) : np.searchsorted(not_far, hi)] - lo] = False
        yield ia[keep], ib[keep]


def _enumerate_pairs(mesh):
    """Classify the element pairs, testing only those a near search finds.

    A vertex lies within one diameter D (the largest) of its element's
    centroid, so centroids more than 3 D apart put every vertex pair more
    than D apart: no shared node and not close, hence far.  The search
    radius 4 D leaves a margin for rounding in the tree's distances.  The
    candidates run the exact test in triu order, and the ones that are
    not far keep their triu positions for ``far_pairs`` to skip.
    """
    els = mesh.elements
    geo = element_geometry(mesh)
    m = mesh.n_elements
    found = cKDTree(geo.verts.mean(axis=1)).query_pairs(
        4.0 * float(np.max(geo.diameter)), output_type="ndarray"
    )
    ii, jj = np.divmod(np.sort(found[:, 0] * m + found[:, 1]), m)
    eq = els[ii][:, :, None] == els[jj][:, None, :]
    shared = eq.sum(axis=(1, 2))
    d = geo.verts[ii][:, :, None, :] - geo.verts[jj][:, None, :, :]
    mind = np.sqrt(np.min(np.sum(d * d, axis=-1), axis=(1, 2)))
    close = mind < np.maximum(geo.diameter[ii], geo.diameter[jj])
    masks = dict(vertex=shared == 1, edge=shared == 2, near=(shared == 0) & close)
    tables = {name: np.stack([ii[mask], jj[mask]], axis=1) for name, mask in masks.items()}
    for n_shared, name in ((1, "vertex"), (2, "edge")):
        mask = masks[name]
        a = _from_first_shared(els[ii[mask]], eq[mask].any(axis=2))
        b = _from_first_shared(els[jj[mask]], eq[mask].any(axis=1))
        tables[name + "_nodes"] = np.concatenate([a, b[:, n_shared:]], axis=1)
    not_far = (shared > 0) | close
    a, b = ii[not_far], jj[not_far]
    return _ElementPairs(not_far=a * (2 * m - a - 1) // 2 + b - a - 1, **tables)


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
