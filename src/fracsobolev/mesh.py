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


def _element_metrics(dim, verts):
    """Per-element (measure, diameter, inscribed-ball diameter).

    verts has shape (m, dim+1, dim). For segments the inscribed ball is the
    segment itself; for triangles its diameter is 4*area/perimeter.
    """
    if dim == 1:
        lengths = np.abs(verts[:, 1, 0] - verts[:, 0, 0])
        return lengths, lengths, lengths
    e01 = verts[:, 1] - verts[:, 0]
    e12 = verts[:, 2] - verts[:, 1]
    e20 = verts[:, 0] - verts[:, 2]
    l01 = np.linalg.norm(e01, axis=1)
    l12 = np.linalg.norm(e12, axis=1)
    l20 = np.linalg.norm(e20, axis=1)
    area = 0.5 * np.abs(e01[:, 0] * (-e20[:, 1]) - e01[:, 1] * (-e20[:, 0]))
    diam = np.maximum(np.maximum(l01, l12), l20)
    perim = l01 + l12 + l20
    inball = 4.0 * area / perim
    return area, diam, inball


def mesh_quality(mesh):
    """Recompute (sigma, rho, h, h_min) from scratch.

    sigma is the worst element diameter over inscribed-ball diameter, rho the
    smallest over largest element diameter. Degenerate elements are reported
    by index.
    """
    verts = mesh.nodes[mesh.elements]
    measure, diam, inball = _element_metrics(mesh.dim, verts)
    bad = np.nonzero(measure <= 1e-14 * diam**mesh.dim)[0]
    if bad.size:
        raise ValueError(f"degenerate element {bad[0]} (measure ~ 0)")
    h = float(np.max(diam))
    h_min = float(np.min(diam))
    sigma = float(np.max(diam / inball))
    rho = h_min / h
    return sigma, rho, h, h_min


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
    computes the quality metrics.
    """
    nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    elements = np.ascontiguousarray(np.asarray(elements, dtype=np.int64))
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    if nodes.shape[1] != dim or elements.shape[1] != dim + 1:
        raise ValueError("node or element array has the wrong width")
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
    probe = BallMesh(
        dim=dim,
        nodes=nodes,
        elements=elements,
        boundary_mask=boundary,
        h=np.nan,
        h_min=np.nan,
        sigma=np.nan,
        rho=np.nan,
    )
    sigma, rho, h, h_min = mesh_quality(probe)
    return BallMesh(
        dim=dim,
        nodes=nodes,
        elements=elements,
        boundary_mask=boundary,
        h=h,
        h_min=h_min,
        sigma=sigma,
        rho=rho,
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
    """Cached per-element arrays used by quadrature and assembly.

    Returns an object with verts (m, k, dim), measure (m,), diameter (m,),
    jacobian (m,), the measure over that of the reference simplex, and
    grads (m, k, dim) holding the constant gradients of the k nodal basis
    functions.
    """
    geo = mesh._cache.get("geometry")
    if geo is not None:
        return geo
    verts = mesh.nodes[mesh.elements]
    measure, diam, _ = _element_metrics(mesh.dim, verts)
    if mesh.dim == 1:
        lengths = verts[:, 1, 0] - verts[:, 0, 0]
        grads = np.stack(
            [-1.0 / lengths, 1.0 / lengths], axis=1
        )[:, :, None]
    else:
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        # rows of J^{-T} applied to the reference gradients
        gx1 = np.column_stack([e2[:, 1], -e2[:, 0]]) / det[:, None]
        gx2 = np.column_stack([-e1[:, 1], e1[:, 0]]) / det[:, None]
        grads = np.stack([-gx1 - gx2, gx1, gx2], axis=1)
    geo = _ElementGeometry(
        verts=verts,
        measure=measure,
        diameter=diam,
        jacobian=measure / (1.0 if mesh.dim == 1 else 0.5),
        grads=grads,
    )
    mesh._cache["geometry"] = geo
    return geo


@dataclass(frozen=True, eq=False)
class _ElementGeometry:
    verts: np.ndarray
    measure: np.ndarray
    diameter: np.ndarray
    jacobian: np.ndarray
    grads: np.ndarray


_ElementPairs = namedtuple("_ElementPairs", "vertex edge near far vertex_nodes edge_nodes")


def element_pairs(mesh):
    """Cached shared-node topology of the unordered distinct element pairs.

    Returns an object with (P, 2) element-index arrays vertex and edge
    (one and two shared nodes), near and far (no shared node; near when
    the smallest vertex distance is below the larger element diameter),
    and the node tables vertex_nodes (P, 2N+1) and edge_nodes (P, 2N).
    A table row holds the first element's nodes in cyclic order from its
    first shared node, then the second element's unshared nodes in
    cyclic order, so the shared nodes lead.
    """
    if "pairs" not in mesh._cache:
        mesh._cache["pairs"] = _enumerate_pairs(mesh)
    return mesh._cache["pairs"]


def _enumerate_pairs(mesh):
    """Classify the element pairs, testing only those a near search finds.

    A vertex lies within one diameter D (the largest) of its element's
    centroid, so centroids more than 3 D apart put every vertex pair more
    than D apart: no shared node and not close, hence far.  The search
    radius 4 D leaves a margin for rounding in the tree's distances.  The
    candidates run the exact test in triu order, and far is the triu
    complement of the pairs that are not.
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
    not_far = (shared > 0) | close
    for n_shared, name in ((1, "vertex"), (2, "edge")):
        mask = masks[name]
        a = _from_first_shared(els[ii[mask]], eq[mask].any(axis=2))
        b = _from_first_shared(els[jj[mask]], eq[mask].any(axis=1))
        tables[name + "_nodes"] = np.concatenate([a, b[:, n_shared:]], axis=1)
    far = np.triu(np.ones((m, m), dtype=bool), 1)
    far[ii[not_far], jj[not_far]] = False
    return _ElementPairs(far=np.argwhere(far), **tables)


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
