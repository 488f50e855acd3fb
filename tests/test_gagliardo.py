"""Nonlocal form assembly against independent quadrature oracles.

The 1D matrices are pinned to frozen adaptive-quadrature references; the
2D singular-pair reductions are checked against a level-by-level subdivision
oracle (touching pairs) and a covariogram reduction (identical pairs),
the 2D disjoint pairs against a per-pair loop over the kernel at the same
Gauss points, and the complement term in both dimensions against
per-element adaptive quadrature of the closed-form weight, all
implemented here from scratch.
"""

import dataclasses
import itertools
import json
import tracemalloc
from math import fsum
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.spatial.distance import cdist
from scipy.special import ellipe

from fracsobolev import gagliardo, reference_rule
from fracsobolev import solver as solver_module
from fracsobolev import mesh as mesh_module
from fracsobolev.bubble import truncated_bubble
from fracsobolev.gagliardo import (
    AssemblyError,
    AssemblyReport,
    assemble,
    audit_band,
    complement_weight,
    seminorm_sq,
    seminorm_sq_direct,
    tail_bound,
)
from fracsobolev.gagliardo import (
    _DISTANT_RATIO,
    _TERM_POINTS,
    _chebyshev_order,
    _complement_terms,
    _disjoint_blocks,
    _disjoint_sets,
    _interpolate_tile,
    _orders,
    _pair_terms,
    _row_chunks,
    _singular_sets,
    _term_block,
    _terms,
    _tile_chunks,
)
from fracsobolev.mesh import (
    FeFunction,
    SizeLimitError,
    build_mesh,
    disjoint_partition,
    element_geometry,
    element_pairs,
    interpolate,
    make_ball_mesh,
)
from fracsobolev.solver import default_start, solve

# --------------------------------------------------------------- helpers


def _custom_1d_mesh():
    nodes = np.array([-1.0, -0.2, 0.55, 1.0])[:, None]
    return make_ball_mesh(1, nodes, np.array([[0, 1], [1, 2], [2, 3]]))


def _mesh_for_key(key):
    if key.startswith("custom"):
        return _custom_1d_mesh()
    return build_mesh(1, int(key.split(",")[0][5:]))


def _set_blocks(mesh, s, sets):
    """Per-row node indices and local blocks of pair sets.

    Expands each set through the package's kernel evaluator, applies its
    block former to each term and sums the terms of a row (rows repeat
    across branches, regions and sectors); rows keep the order in which
    they first appear.
    """
    terms = [t for _, idx, scale, rule in sets for t in _pair_terms(mesh, s, idx, scale, rule)]
    idx = np.concatenate([rows for rows, _, _ in terms])
    blocks = np.concatenate([_term_block(g, wK) for _, g, wK in terms])
    _, first, inv = np.unique(idx, axis=0, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    out = np.zeros((len(first),) + blocks.shape[1:])
    np.add.at(out, rank[inv.ravel()], blocks)
    return idx[np.sort(first)], out


def _category_blocks(mesh, s, category):
    """Per-row node indices and local blocks of one singular category at the default rule."""
    sets = _singular_sets(mesh, s, element_geometry(mesh), element_pairs(mesh), 0)
    return _set_blocks(mesh, s, [st for st in sets if st[0] == category])


def _pair_table(blocks):
    """(ia, ib) blocks concatenated into one (P, 2) table."""
    blocks = [np.stack([ia, ib], axis=1) for ia, ib in blocks]
    return np.concatenate([np.empty((0, 2), dtype=np.intp)] + blocks)


def _partition_tables(mesh):
    """(tile pairs, row pairs) of disjoint_partition at the distant ratio, as (P, 2) tables."""
    tiles, rows = disjoint_partition(mesh, _DISTANT_RATIO)
    grids = [np.meshgrid(a, b, indexing="ij") for a, b, _ in tiles]
    return _pair_table((ia.ravel(), ib.ravel()) for ia, ib in grids), _pair_table(rows)


def _triu_sorted(pairs):
    """The pairs oriented a < b, in triu order."""
    pairs = np.sort(pairs, axis=1)
    return pairs[np.lexsort(pairs.T[::-1])]


def _disjoint_table(mesh):
    """Every disjoint pair of disjoint_partition, a < b in triu order, as one (P, 2) table."""
    return _triu_sorted(np.concatenate(_partition_tables(mesh)))


def _bands(mesh, pairs):
    """The pair tables of _disjoint_blocks over pairs by band, its order argument naming the band."""
    bands = {}
    blocks = [(pairs[part, 0], pairs[part, 1]) for part in gagliardo._row_chunks(len(pairs), 1)]
    for category, ia, ib, band in _disjoint_blocks(mesh, element_geometry(mesh), "near", "far", "distant", blocks):
        assert category == ("disjoint_near" if band == "near" else "disjoint_far"), band
        bands.setdefault(band, []).append((ia, ib))
    return {band: _pair_table(bands.get(band, [])) for band in ("near", "far", "distant")}


def _sorted_free_matrix(form):
    order = np.argsort(form.mesh.nodes[: form.mesh.free_count, 0])
    return form.matrix[np.ix_(order, order)]


# ---------------------------------------------------- frozen 1D references


def test_matrix_entries_match_adaptive_oracle(goldens):
    for key, ref in goldens["assembly_1d"].items():
        s = float(key.split(",")[-1])
        mesh = _mesh_for_key(key)
        A = _sorted_free_matrix(assemble(mesh, s))
        ref = np.array(ref)
        assert A.shape == ref.shape, key
        rel = np.abs(A - ref) / np.abs(ref)
        assert rel.max() < 1e-4, (key, rel.max())


def test_assembled_matrix_symmetric_positive():
    for dim, level, s in [(1, 3, 0.25), (1, 2, 0.1), (2, 1, 0.5)]:
        form = assemble(build_mesh(dim, level), s)
        A = form.matrix
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))
        assert np.linalg.eigvalsh(A)[0] > 0.0


def test_assembly_report_pair_coverage():
    for dim, level in [(1, 3), (2, 1)]:
        form = assemble(build_mesh(dim, level), 0.25 if dim == 1 else 0.5)
        report = form.assembly_report
        counts = report.pair_counts
        m = form.mesh.n_elements
        assert counts["identical"] == m
        distinct = counts["vertex"] + counts["edge"] + counts["disjoint_near"] + counts["disjoint_far"]
        assert distinct == m * (m - 1) // 2
        # one complement rule per element, nothing to cap
        assert report.complement_cells == m
        assert report.budget_exceeded == 0
        assert report.complement_points > 0
        assert set(report.phase_seconds) >= {"classify", "singular", "disjoint"}


@pytest.mark.parametrize(
    "make_mesh", [lambda: build_mesh(1, 3), _custom_1d_mesh, lambda: build_mesh(2, 1)]
)
def test_element_pairs_cover_and_orient(make_mesh):
    mesh = make_mesh()
    pairs = element_pairs(mesh)
    m, k = mesh.n_elements, mesh.dim + 1
    cats = {0: (_disjoint_table(mesh),), 1: (pairs.vertex,), 2: (pairs.edge,)}
    every = np.concatenate([p for group in cats.values() for p in group])
    assert len(every) == m * (m - 1) // 2
    assert np.all(every[:, 0] < every[:, 1])
    assert len(np.unique(every, axis=0)) == len(every)
    for n_shared, group in cats.items():
        for ea, eb in np.concatenate(group):
            assert len(set(mesh.elements[ea]) & set(mesh.elements[eb])) == n_shared
    for n_shared, elems, table in (
        (1, pairs.vertex, pairs.vertex_nodes),
        (2, pairs.edge, pairs.edge_nodes),
    ):
        assert table.shape == (len(elems), 2 * k - n_shared)
        for (ea, eb), row in zip(elems, table.tolist()):
            na, nb = mesh.elements[ea].tolist(), mesh.elements[eb].tolist()
            shared = set(na) & set(nb)
            assert set(row[:n_shared]) == shared
            i, j = na.index(row[0]), nb.index(row[0])
            assert row[:k] == na[i:] + na[:i]
            assert row[k:] == [x for x in nb[j:] + nb[:j] if x not in shared]


def test_element_pairs_enumerated_once_per_mesh(monkeypatch):
    calls = []
    enumerate_pairs = mesh_module._enumerate_pairs
    monkeypatch.setattr(
        mesh_module, "_enumerate_pairs", lambda mesh: calls.append(1) or enumerate_pairs(mesh)
    )
    mesh = build_mesh(1, 4)
    u = FeFunction.from_free(mesh, np.ones(mesh.free_count))
    assemble(mesh, 0.25)
    seminorm_sq_direct(mesh, 0.25, u)
    seminorm_sq_direct(mesh, 0.25, u, boost=1)
    assert len(calls) == 1


def _brute_force_pairs(mesh):
    """All m(m-1)/2 element pairs classified row by row, in triu order.

    Element a against every b > a at once: shared nodes by comparing
    node indices, the smallest vertex distance by cdist; a disjoint pair
    is distant when its squared centroid distance reaches that of
    _DISTANT_RATIO larger diameters, else near when its vertices come
    closer than the larger diameter less 1e-9 of it, else far.  A touching pair's node
    row is the first element's nodes rotated to start at the shared node
    that follows an unshared one, then the second element's unshared
    nodes in its own cyclic order.
    """
    els = mesh.elements
    verts = mesh.nodes[els]
    m, k = els.shape
    diam = np.array([cdist(v, v).max() for v in verts])
    cen = verts.mean(axis=1)
    names = ("vertex", "edge", "near", "far", "distant", "vertex_nodes", "edge_nodes")
    out = {name: [] for name in names}

    def rotated(nodes, shared):
        i = next(i for i in range(len(nodes)) if nodes[i] in shared and nodes[i - 1] not in shared)
        return nodes[i:] + nodes[:i]

    for a in range(m):
        b = np.arange(a + 1, m)
        shared = np.sum(els[b][:, :, None] == els[a], axis=(1, 2))
        for other in b[shared > 0]:
            common = set(els[a].tolist()) & set(els[other].tolist())
            name = {1: "vertex", 2: "edge"}[len(common)]
            out[name].append([[a, other]])
            tail = [x for x in rotated(els[other].tolist(), common) if x not in common]
            out[name + "_nodes"].append([rotated(els[a].tolist(), common) + tail])
        b = b[shared == 0]
        larger = np.maximum(diam[a], diam[b])
        distant = np.sum((cen[a] - cen[b]) ** 2, axis=1) >= (_DISTANT_RATIO * larger) ** 2
        gap = cdist(verts[a], verts[b].reshape(-1, mesh.dim)).reshape(k, len(b), k).min(axis=(0, 2))
        near = ~distant & (gap < larger * (1 - 1e-9))
        for name, mask in (("distant", distant), ("near", near), ("far", ~distant & ~near)):
            out[name].append(np.stack([np.full(mask.sum(), a), b[mask]], axis=1))
    widths = dict(vertex_nodes=2 * k - 1, edge_nodes=2 * k - 2)
    return {
        name: np.concatenate([np.empty((0, widths.get(name, 2)))] + rows).astype(np.intp)
        for name, rows in out.items()
    }


def _graded_1d_mesh():
    # nodes 0, +-(1 - 2^-j) and +-1: the largest diameter, 1/2, is 512 times the
    # smallest, 2^-10, at the ends
    half = 1.0 - 2.0 ** -np.arange(1, 11)
    nodes = np.concatenate([-half[::-1], [0.0], half, [-1.0, 1.0]])
    order = np.argsort(nodes)
    elements = np.column_stack([order[:-1], order[1:]])
    return make_ball_mesh(1, nodes, elements)


def _disk_polygon_mesh(corners):
    """The inscribed regular polygon with ``corners`` vertices, fanned from vertex 0."""
    ang = 2.0 * np.pi * np.arange(corners) / corners
    nodes = np.column_stack([np.cos(ang), np.sin(ang)])
    elements = np.column_stack([np.zeros(corners - 2, int), np.arange(1, corners - 1), np.arange(2, corners)])
    return make_ball_mesh(2, nodes, elements)


@pytest.mark.parametrize(
    "make_mesh",
    [pytest.param(lambda level=level: build_mesh(1, level), id=f"1d-L{level}") for level in range(1, 7)]
    + [
        pytest.param(_custom_1d_mesh, id="1d-custom"),
        pytest.param(_graded_1d_mesh, id="1d-graded"),
    ]
    + [pytest.param(lambda level=level: build_mesh(2, level), id=f"2d-L{level}") for level in range(3)]
    # one and two elements: the tables keep their widths when they have no rows
    + [
        pytest.param(lambda: make_ball_mesh(1, np.array([-1.0, 1.0]), np.array([[0, 1]])), id="1d-one"),
        pytest.param(
            lambda: make_ball_mesh(1, np.array([-1.0, 0.3, 1.0]), np.array([[0, 1], [1, 2]])),
            id="1d-two",
        ),
        pytest.param(lambda: _disk_polygon_mesh(3), id="2d-one"),
        pytest.param(lambda: _disk_polygon_mesh(4), id="2d-two"),
    ],
)
def test_element_pairs_match_brute_force(make_mesh, monkeypatch):
    mesh = make_mesh()
    pairs = element_pairs(mesh)
    ref = _brute_force_pairs(mesh)
    bands = {band: ref.pop(band) for band in ("near", "far", "distant")}
    for name, want in ref.items():
        got = getattr(pairs, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    # the bands of the partition's pairs, at the default leaf size and at
    # leaves of one and two elements, whose trees reach every pair by tiles
    # and rows of other shapes, and in row blocks of all pairs and of 7
    # pairs, which split leaf blocks
    for leaf, row_pairs in itertools.product((mesh_module._LEAF_SIZE, 1, 2), (mesh_module._ROW_PAIRS, 7)):
        monkeypatch.setattr(mesh_module, "_LEAF_SIZE", leaf)
        monkeypatch.setattr(mesh_module, "_ROW_PAIRS", row_pairs)
        mesh._cache.pop("tree", None)
        for band, got in _bands(mesh, _disjoint_table(mesh)).items():
            want = bands[band]
            assert got.dtype == want.dtype and got.shape == want.shape, (leaf, row_pairs, band)
            assert np.array_equal(_triu_sorted(got), want), (leaf, row_pairs, band)


def _shuffled_2d_mesh():
    """The 2D level-2 mesh with its elements in a seeded random order."""
    mesh = build_mesh(2, 2)
    order = np.random.default_rng(25).permutation(mesh.n_elements)
    return make_ball_mesh(2, mesh.nodes, mesh.elements[order])


@pytest.mark.parametrize(
    "make_mesh",
    [pytest.param(lambda level=level: build_mesh(1, level), id=f"1d-L{level}") for level in range(10)]
    + [pytest.param(lambda level=level: build_mesh(2, level), id=f"2d-L{level}") for level in range(4)]
    + [
        pytest.param(_custom_1d_mesh, id="1d-custom"),
        pytest.param(_graded_1d_mesh, id="1d-graded"),
        pytest.param(_shuffled_2d_mesh, id="2d-shuffled"),
    ],
)
def test_disjoint_partition_matches_brute_force(make_mesh):
    # tiles and leaf rows hold every disjoint pair once and no touching
    # pair, and every tile pair is distant by _disjoint_blocks' own test
    mesh = make_mesh()
    ref = _brute_force_pairs(mesh)
    want = _triu_sorted(np.concatenate([ref["near"], ref["far"], ref["distant"]]))
    tiles, rows = _partition_tables(mesh)
    assert np.all(rows[:, 0] < rows[:, 1])
    every = np.concatenate([tiles, rows])
    got = _triu_sorted(every)
    assert len(got) == len(every) == len(want) and np.array_equal(got, want)
    a, b = got.T
    assert not np.any(mesh.elements[a][:, :, None] == mesh.elements[b][:, None, :])
    bands = _bands(mesh, tiles)
    assert len(bands["near"]) == len(bands["far"]) == 0
    assert len(bands["distant"]) == len(tiles)


@pytest.mark.parametrize("dim, level", [(1, 10), (2, 3)])
def test_cached_pair_tables_stay_linear_in_the_elements(dim, level):
    # the disjoint pairs are streamed, so the cache holds O(m) bytes, not
    # O(m^2): an explicit far table would take 33.6 MB at 1D L10 and 19.2 MB
    # at 2D L3
    mesh = build_mesh(dim, level)
    held = sum(table.nbytes for table in element_pairs(mesh))
    assert held < 2e6, held


def test_element_pairs_need_no_block_walk(monkeypatch):
    # touching is a fact of topology: the pairs come from the element-node
    # incidence, so no cluster-tree walk runs
    def refuse(tree, ratio):
        raise AssertionError("element_pairs walked the cluster tree")

    monkeypatch.setattr(mesh_module, "_block_walk", refuse)
    for dim, level in ((1, 6), (2, 2)):
        mesh = build_mesh(dim, level)
        pairs = element_pairs(mesh)
        assert len(pairs.vertex) + len(pairs.edge) > 0


def test_classification_holds_no_all_candidate_float_temporary():
    # element_pairs compares the nodes of the touching pairs only; a
    # (P, k, k, dim) float array of vertex distances over candidate pairs
    # would take a 47 MiB peak here
    mesh = build_mesh(2, 3)
    tracemalloc.start()
    try:
        element_pairs(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize(
    "dim, level, s",
    [pytest.param(1, 6, 0.25, id="1-6"), pytest.param(2, 1, 0.5, id="2-1")],
)
def test_scatter_matches_dense_accumulation(dim, level, s):
    # the reference streams every disjoint pair as a row, the tiles too
    mesh = build_mesh(dim, level)
    n = mesh.n_nodes
    dense = np.zeros(n * n)
    every = tuple(_disjoint_table(mesh).T)
    for _, idx, g, wK in _terms(mesh, s, 0, element_geometry(mesh), {}, every):
        pos = (idx[:, :, None] * n + idx[:, None, :]).ravel()
        dense += np.bincount(pos, weights=_term_block(g, wK).ravel(), minlength=n * n)
    fc = mesh.free_count
    ref = s * (1 - s) * dense.reshape(n, n)[:fc, :fc]
    A = assemble(mesh, s).matrix
    assert np.max(np.abs(A - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("boost", [0, 1], ids=["default", "boosted"])
@pytest.mark.parametrize(
    "make_mesh",
    [lambda: build_mesh(1, 4), lambda: build_mesh(1, 8), _custom_1d_mesh, lambda: build_mesh(2, 1)],
    ids=["1d-L4", "1d-L8", "1d-custom", "2d-L1"],
)
def test_term_stream_has_one_format(make_mesh, boost):
    # every term shares one g (points, n) across its rows, with a C-ordered
    # (rows, points) wK, so the block product and the direct sum have one
    # path; a tile chunk's kernel values are Pa K Pb^T, or a dense K of at
    # most _TERM_POINTS entries, one (a points, b points) array
    mesh = make_mesh()
    nq = len(reference_rule(mesh.dim, _orders(mesh.dim, boost)[2])[0])
    kinds = set()

    def check(chunk):
        points = (len(chunk.a) * nq, len(chunk.b) * nq)
        assert (len(chunk.wa), len(chunk.wb)) == points
        if chunk.Pa is None:
            assert chunk.Pb is None
            assert chunk.K.shape == points
            assert chunk.K.size <= _TERM_POINTS
        else:
            # the kernel at the node pairs, and compressed only where that
            # is smaller than the dense tile
            nodes = len(chunk.K)
            assert chunk.K.shape == (nodes, nodes)
            assert chunk.Pa.shape == (points[0], nodes) and chunk.Pb.shape == (points[1], nodes)
            assert nodes * nodes + nodes * sum(points) < points[0] * points[1]
        kinds.add(chunk.Pa is None)

    for _, idx, g, wK in _terms(mesh, 0.25, boost, element_geometry(mesh), {}, tile=check):
        assert g.ndim == 2
        assert g.shape == (wK.shape[1], idx.shape[1])
        assert wK.shape == (len(idx), len(g))
        assert wK.flags.c_contiguous
    # of these meshes, only 1D L8 has tiles large enough to compress
    assert (False in kinds) == (mesh.n_elements == 512)


@pytest.mark.parametrize("boost", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_every_pair_rule_differences_constants_to_zero(dim, boost):
    # each row of g sums to 0, so g . X reads x - y whichever node X is
    # translated to; the complement is a single-element term and is left out
    meshes = [_custom_1d_mesh(), build_mesh(1, 3)] if dim == 1 else [build_mesh(2, 1)]
    seen = set()
    for mesh in meshes:
        for category, _, g, _ in _terms(mesh, 0.25, boost, element_geometry(mesh), {}, tile=lambda chunk: None):
            if category == "complement":
                continue
            seen.add(category)
            bound = 4 * np.finfo(float).eps * np.max(np.abs(g))
            assert np.max(np.abs(g.sum(axis=1))) <= bound, (category, boost)
    assert seen == set(gagliardo._CATEGORIES) - ({"edge"} if dim == 1 else set())


def test_close_disjoint_pairs_keep_their_digits():
    # pairs one element apart at 1D L12: their points lie h ~ 2.4e-4 apart
    # at coordinates of size 1, so forming the points first loses the digits
    # of the gap; the reference forms each point as a0 + lam1 (a1 - a0)
    s, mp = 0.25, mpmath.mp.clone()
    mp.dps = 40
    mesh = build_mesh(1, 12)
    geo = element_geometry(mesh)
    left = np.argsort(geo.verts[:, :, 0].min(axis=1))
    pos = np.linspace(0, mesh.n_elements - 3, 40).astype(int)
    ia, ib = left[pos], left[pos + 2]
    for order in sorted(set(_orders(1, 0)[:3])):
        lam, weights = reference_rule(1, order)
        sets = list(_disjoint_sets(mesh, geo, [("disjoint_near", ia, ib, order)]))
        assert len(sets) == 1
        terms = list(_pair_terms(mesh, s, *sets[0][1:]))
        assert len(terms) == 1
        wK = terms[0][2]
        worst = 0.0
        for row, (ea, eb) in enumerate(zip(ia, ib)):
            a0, a1 = (mp.mpf(float(x)) for x in mesh.nodes[mesh.elements[ea], 0])
            b0, b1 = (mp.mpf(float(x)) for x in mesh.nodes[mesh.elements[eb], 0])
            assert not set(mesh.elements[ea]) & set(mesh.elements[eb])
            for p in range(order):
                for q in range(order):
                    x = a0 + mp.mpf(float(lam[p, 1])) * (a1 - a0)
                    y = b0 + mp.mpf(float(lam[q, 1])) * (b1 - b0)
                    w = 2 * mp.mpf(float(weights[p])) * mp.mpf(float(weights[q]))
                    ref = w * abs(a1 - a0) * abs(b1 - b0) * abs(x - y) ** (-1 - 2 * s)
                    worst = max(worst, float(abs(wK[row, p * order + q] / ref - 1)))
        assert worst < 1e-14, (order, worst)


def _stream_work(mesh, s, boost):
    """The AssemblyReport fields a pass over the whole form at rule level boost records."""
    work = {}
    for _ in _terms(mesh, s, boost, element_geometry(mesh), work, tile=lambda chunk: None):
        pass
    return work


@pytest.mark.parametrize("boost", [0, 1], ids=["default", "boosted"])
@pytest.mark.parametrize("dim, level, s", [(1, 5, 0.25), (1, 8, 0.3), (2, 1, 0.5), (2, 2, 0.5)])
def test_work_counts_follow_the_term_stream(dim, level, s, boost):
    # the counts a pass records against what its terms really carry: a
    # tile chunk's kernel values are those of its K, the node pairs' of a
    # compressed tile, and its pairs are those of its two clusters; at the
    # default rule they are the assembly report's, and at level 1 those of
    # a seminorm_sq_direct pass of the audit
    mesh = build_mesh(dim, level)
    work = {}
    evals = dict.fromkeys(gagliardo._CATEGORIES, 0)
    cells = tile_pairs = 0

    def count(chunk):
        nonlocal tile_pairs
        evals["disjoint_far"] += chunk.K.size
        tile_pairs += len(chunk.a) * len(chunk.b)

    for category, _, _, wK in _terms(mesh, s, boost, element_geometry(mesh), work, tile=count):
        if category == "complement":
            cells += len(wK)
        evals[category] = evals.get(category, 0) + wK.size
    report = AssemblyReport(budget_exceeded=0, **work)
    if boost == 0:
        assembled = assemble(mesh, s).assembly_report
        for field in ("pair_counts", "kernel_evals", "complement_cells", "complement_points"):
            assert getattr(assembled, field) == getattr(report, field), field
    if dim == 1:
        # the closed form of a 1D identical pair is one point of its rule
        assert report.kernel_evals["identical"] == mesh.n_elements
    assert report.complement_points == evals.pop("complement")
    assert report.complement_cells == cells
    assert report.kernel_evals == evals
    pairs = element_pairs(mesh)
    assert tile_pairs == len(_partition_tables(mesh)[0])
    disjoint = _disjoint_table(mesh)
    # the near pairs by their smallest vertex distance, all pairs at once
    verts = mesh.nodes[mesh.elements]
    gap = verts[disjoint[:, 0]][:, :, None, :] - verts[disjoint[:, 1]][:, None, :, :]
    diam = element_geometry(mesh).diameter
    larger = np.maximum(diam[disjoint[:, 0]], diam[disjoint[:, 1]])
    near = int(np.sum(np.sqrt(np.min(np.sum(gap**2, axis=-1), axis=(1, 2))) < larger * (1 - 1e-9)))
    assert report.pair_counts == {
        "identical": mesh.n_elements,
        "vertex": len(pairs.vertex),
        "edge": len(pairs.edge),
        "disjoint_near": near,
        "disjoint_far": len(disjoint) - near,
    }


@pytest.mark.parametrize(
    "dim, boost, orders",
    [
        (1, 0, (6, 4, 4, 24, 12, 24, 8)),
        (1, 1, (8, 6, 5, 28, 16, 40, 12)),
        (1, 2, (10, 8, 6, 32, 20, 56, 16)),
        (2, 0, (5, 3, 3, 10, 12, 24, 8)),
        (2, 1, (7, 5, 4, 14, 16, 40, 12)),
        (2, 2, (9, 7, 5, 18, 20, 56, 16)),
    ],
)
def test_rule_level_orders(dim, boost, orders):
    # (near, far, distant, vertex, edge, angular, complement) Gauss orders
    assert _orders(dim, boost) == orders


@pytest.mark.parametrize("boost", [-1, 0.5], ids=["negative", "fractional"])
def test_bad_rule_level_raises(boost):
    mesh = build_mesh(1, 2)
    u = FeFunction.from_free(mesh, np.ones(mesh.free_count))
    with pytest.raises(ValueError, match="rule level"):
        _orders(1, boost)
    with pytest.raises(ValueError, match="rule level"):
        seminorm_sq_direct(mesh, 0.25, u, boost=boost)


@pytest.mark.parametrize(
    "dim, level, s",
    [pytest.param(1, 3, 0.25, id="1-3-0.25-default"), pytest.param(2, 1, 0.5, id="2-1-0.5-default")],
)
def test_assembly_report_is_json_safe(dim, level, s):
    # the report is serialised with dataclasses.asdict: plain ints and floats only
    report = assemble(build_mesh(dim, level), s).assembly_report
    fields = dataclasses.asdict(report)
    assert json.loads(json.dumps(fields)) == fields


def test_assemble_rejects_bad_order():
    mesh = build_mesh(1, 1)
    with pytest.raises(ValueError):
        assemble(mesh, 0.5)
    with pytest.raises(ValueError):
        assemble(mesh, 0.0)


# ----------------------------------------------------- complement weight


def test_complement_weight_1d_closed_form():
    s = 0.3
    xs = np.array([-0.9, -0.4, 0.0, 0.37, 0.85])
    got = complement_weight(xs[:, None], 1, s)
    ref = ((1 - xs) ** (-2 * s) + (1 + xs) ** (-2 * s)) / (2 * s)
    assert np.allclose(got, ref, rtol=1e-14)
    # independent integral route for one point
    val, _ = integrate.quad(lambda y: abs(0.37 - y) ** (-1 - 2 * s), 1.0, np.inf)
    val2, _ = integrate.quad(lambda y: abs(0.37 - y) ** (-1 - 2 * s), -np.inf, -1.0)
    assert abs(got[3] - (val + val2)) / got[3] < 1e-10


def test_complement_weight_2d_annulus_oracle():
    # kappa(x) = int_{|y|>1} |x-y|^{-2-2s} dy; polar quadrature in y over
    # [1, R] plus the exact-to-O(|x|^2/R^2) far-field tail
    s = 0.5
    R = 400.0
    for x in ([0.0, 0.0], [0.3, -0.2], [0.55, 0.3]):
        x = np.array(x)

        def rho_integral(theta):
            om = np.array([np.cos(theta), np.sin(theta)])
            val, _ = integrate.quad(
                lambda rho: rho
                * (rho**2 - 2 * rho * (x @ om) + x @ x) ** (-(1 + s)),
                1.0,
                R,
                limit=200,
            )
            return val

        bulk, _ = integrate.quad(rho_integral, 0.0, 2 * np.pi, limit=200)
        tail = 2 * np.pi / (2 * s) * R ** (-2 * s)
        ref = bulk + tail
        got = float(complement_weight(x, 2, s))
        assert abs(got - ref) / ref < 1e-6, x


def test_complement_weight_2d_rotation_invariance():
    s = 0.5
    for r in (0.0, 0.35, 0.7, 0.95):
        angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        pts = r * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        vals = complement_weight(pts, 2, s)
        assert np.max(np.abs(vals - vals[0])) <= 1e-8 * vals[0]


def test_complement_weight_2d_elliptic_identity():
    # at s = 1/2 the disk weight is 2 pi (1-r^2)^(-1) 2F1(-1/2, 1/2; 1; r^2)
    # = 4 E(r^2) / (1-r^2), with E Legendre's complete elliptic integral
    r = 1.0 - np.concatenate([np.linspace(1.0, 0.01, 25), np.geomspace(1e-2, 1e-11, 40)])
    got = complement_weight(np.column_stack([r, np.zeros_like(r)]), 2, 0.5)
    ref = 4.0 * ellipe(r * r) / ((1.0 - r) * (1.0 + r))
    assert np.max(np.abs(got / ref - 1.0)) < 1e-12


def test_complement_weight_monotone_and_divergent():
    for N, s in [(1, 0.25), (2, 0.5)]:
        rs = np.linspace(0.0, 0.999, 40)
        pts = np.zeros((40, N))
        pts[:, 0] = rs
        vals = complement_weight(pts, N, s)
        assert np.all(np.diff(vals) > 0.0)
    with pytest.raises(ValueError):
        complement_weight(np.array([[1.0]]), 1, 0.25)
    with pytest.raises(ValueError):
        complement_weight(np.zeros((1, 3)), 3, 0.4)


@pytest.mark.parametrize("level", [12, 13])
def test_boosted_complement_finite_on_fine_1d_meshes(level):
    # the boosted rule keeps every point off the sphere on the finest meshes
    mesh = build_mesh(1, level)
    order = _orders(1, 1)[6]
    terms = list(_complement_terms(mesh, 0.25, element_geometry(mesh), order))
    assert all(np.all(np.isfinite(wK)) and np.all(wK > 0.0) for _, _, _, wK in terms)
    assert sum(len(wK) for _, _, _, wK in terms) == mesh.n_elements
    assert sum(wK.size for _, _, _, wK in terms) == mesh.n_elements * order


def _complement_rule_errors(u, s, ref):
    """Relative errors of 2 * integral of u^2 kappa by the default and boosted rules."""
    mesh = u.mesh
    geo = element_geometry(mesh)
    errors = []
    for boost in (0, 1):
        got = 0.0
        for _, idx, g, wK in _complement_terms(mesh, s, geo, _orders(mesh.dim, boost)[6]):
            gu = u.values[idx] @ g.T
            got += float(np.sum(wK * gu * gu))
        errors.append(abs(got - ref) / ref)
    return errors


def _complement_integral_oracle(u, s):
    """2 * integral of u^2 kappa by adaptive quadrature, element by element.

    kappa is the closed form ((1-x)^(-2s) + (1+x)^(-2s)) / (2s) and u the
    hat expansion of the nodal values, both written out here.
    """
    x = u.mesh.nodes[:, 0]
    total = 0.0
    for i, j in u.mesh.elements:
        a, b, ua, ub = x[i], x[j], u.values[i], u.values[j]

        def f(t):
            val = ua + (ub - ua) * (t - a) / (b - a)
            return val * val * ((1 - t) ** (-2 * s) + (1 + t) ** (-2 * s)) / (2 * s)

        val, _ = integrate.quad(f, min(a, b), max(a, b), epsabs=0.0, epsrel=1e-13, limit=200)
        total += val
    return 2.0 * total


@pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
def test_complement_term_matches_adaptive_oracle(s):
    # u^2 kappa behaves like depth^(2-2s) at the sphere: one Gauss rule per
    # element resolves it, and the boosted rule more closely
    mesh = build_mesh(1, 4)
    u = FeFunction.from_free(mesh, np.random.default_rng(11).normal(size=mesh.free_count))
    errors = _complement_rule_errors(u, s, _complement_integral_oracle(u, s))
    default, boosted = errors
    assert default <= 1.5e-6, errors
    assert boosted <= 3e-7, errors
    assert boosted < default, errors


def _complement_integral_oracle_2d(u):
    """2 * integral of u^2 kappa at s = 1/2 by adaptive quadrature per triangle.

    kappa is 4 E(|x|^2) / (1 - |x|^2), the elliptic form of the disk weight
    at s = 1/2, and u the barycentric expansion of the nodal values, both
    written out here.
    """
    total = 0.0
    for tri in u.mesh.elements:
        v0, v1, v2 = u.mesh.nodes[tri]
        u0, u1, u2 = u.values[tri]
        e1, e2 = v1 - v0, v2 - v0
        jac = abs(e1[0] * e2[1] - e1[1] * e2[0])

        def f(b, a):
            x = v0 + a * e1 + b * e2
            r = np.hypot(x[0], x[1])
            val = u0 + a * (u1 - u0) + b * (u2 - u0)
            return val * val * 4.0 * ellipe(r * r) / ((1.0 - r) * (1.0 + r))

        val, _ = integrate.dblquad(f, 0.0, 1.0, 0.0, lambda a: 1.0 - a, epsabs=0.0, epsrel=1e-11)
        total += jac * val
    return 2.0 * total


def test_complement_term_2d_matches_adaptive_oracle():
    # the one-rule-per-element complement on the disk, where kappa is the
    # hypergeometric closed form and u^2 kappa behaves like depth^(2-2s)
    mesh = build_mesh(2, 0)
    u = FeFunction.from_free(mesh, np.random.default_rng(11).normal(size=mesh.free_count))
    errors = _complement_rule_errors(u, 0.5, _complement_integral_oracle_2d(u))
    default, boosted = errors
    assert default <= 1e-5, errors
    assert boosted <= 1e-6, errors
    assert boosted < default, errors


# ---------------------------------------------------- seminorm evaluation


def test_seminorm_matches_matrix_quadratic_form():
    mesh = build_mesh(1, 3)
    form = assemble(mesh, 0.25)
    rng = np.random.default_rng(2)
    u = FeFunction.from_free(mesh, rng.normal(size=mesh.free_count))
    direct = seminorm_sq(form, u)
    w = u.free_values
    assert direct == float(w @ form.apply(w))
    # symv sums in another order than w @ A @ w: equal within rounding
    A = form.matrix
    assert abs(direct - float(w @ A @ w)) <= len(w) * np.finfo(float).eps * float(abs(w) @ abs(A) @ abs(w))
    other = build_mesh(1, 2)
    v = FeFunction.from_free(other, np.zeros(other.free_count))
    with pytest.raises(ValueError):
        seminorm_sq(form, v)


def test_seminorm_direct_agrees_with_assembled():
    for dim, level, s in [(1, 3, 0.25), (2, 0, 0.5), (2, 1, 0.25)]:
        mesh = build_mesh(dim, level)
        rng = np.random.default_rng(4 + dim)
        u = FeFunction.from_free(mesh, rng.normal(size=mesh.free_count))
        a = seminorm_sq(assemble(mesh, s), u)
        b = seminorm_sq_direct(mesh, s, u)
        assert abs(a - b) / a < 1e-12, (dim, level, s)


def test_non_finite_complement_raises_on_both_paths(monkeypatch):
    mesh = build_mesh(2, 0)
    u = FeFunction.from_free(mesh, np.ones(mesh.free_count))
    monkeypatch.setattr(
        gagliardo, "complement_weight", lambda pts, N, s: np.full(pts.shape[:-1], np.inf)
    )
    with np.errstate(invalid="ignore"), pytest.raises(AssemblyError, match="complement"):
        assemble(mesh, 0.5)
    with np.errstate(invalid="ignore"), pytest.raises(AssemblyError, match="complement"):
        seminorm_sq_direct(mesh, 0.5, u)


@pytest.mark.parametrize("dense", [False, True], ids=["interpolated", "dense"])
@pytest.mark.parametrize("direct", [False, True], ids=["assemble", "direct"])
def test_non_finite_tile_raises_on_both_paths(monkeypatch, direct, dense):
    # an inf in one tile chunk's kernel: assemble meets it in the final
    # row-sum term or, for an interpolated tile, in its cross block
    mesh = build_mesh(1, 8)
    if dense:
        monkeypatch.setattr(gagliardo, "_chebyshev_order", _dense_tiles)
    hit = []

    def poisoned(*args):
        for chunk in _tile_chunks(*args):
            if not hit and (chunk.Pa is None) == dense:
                chunk.K[0, 0] = np.inf
                hit.append(chunk)
            yield chunk

    monkeypatch.setattr(gagliardo, "_tile_chunks", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(AssemblyError, match="disjoint_far"):
        if direct:
            seminorm_sq_direct(mesh, 0.25, default_start(mesh, 0.25))
        else:
            assemble(mesh, 0.25)
    assert hit


@pytest.mark.parametrize(
    "make_mesh",
    [
        pytest.param(lambda: make_ball_mesh(1, np.array([-1.0, 1.0]), np.array([[0, 1]])), id="1d-one"),
        pytest.param(lambda: _disk_polygon_mesh(3), id="2d-one"),
    ],
)
def test_assemble_rejects_a_mesh_with_no_free_node(make_mesh, monkeypatch):
    mesh = make_mesh()
    # the refusal comes before any quadrature
    monkeypatch.setattr(gagliardo, "_terms", None)
    with pytest.raises(ValueError, match="no free \\(interior\\) node"):
        assemble(mesh, 0.25)


def test_dense_cap_counts_one_array(monkeypatch):
    # the cap counts the form alone, 8 n^2 bytes, since the solver factors
    # it in place; the refusal comes before any quadrature
    mesh = build_mesh(1, 4)
    n = mesh.n_nodes
    monkeypatch.setattr(gagliardo, "_DENSE_BYTES_CAP", 8 * n * n)
    assert assemble(mesh, 0.25).matrix.shape == (mesh.free_count,) * 2
    monkeypatch.setattr(gagliardo, "_DENSE_BYTES_CAP", 8 * n * n - 1)
    monkeypatch.setattr(gagliardo, "_terms", None)
    with pytest.raises(SizeLimitError, match=f"for {n} nodes, the form;"):
        assemble(mesh, 0.25)


@pytest.mark.parametrize("dim, level, s", [(1, 3, 0.25), (2, 1, 0.5)])
def test_assemble_rejects_an_asymmetric_matrix(monkeypatch, dim, level, s):
    rng = np.random.default_rng(3)

    def skewed(g, wK):
        local = _term_block(g, wK)
        local[:, 0, -1] += rng.random(len(local))
        return local

    monkeypatch.setattr(gagliardo, "_term_block", skewed)
    with pytest.raises(AssemblyError, match="asymmetry"):
        assemble(build_mesh(dim, level), s)


@pytest.mark.parametrize("dim, level, s", [(1, 3, 0.25), (2, 1, 0.5)])
def test_assemble_rejects_an_indefinite_matrix(monkeypatch, dim, level, s):
    # negated blocks keep the matrix symmetric, so assemble returns it, and
    # the solver's factorization, the one positivity decision, rejects it
    monkeypatch.setattr(gagliardo, "_term_block", lambda g, wK: -_term_block(g, wK))
    form = assemble(build_mesh(dim, level), s)
    before = form.matrix.copy()
    with pytest.raises(AssemblyError, match="not positive definite"):
        solve(form)
    assert np.array_equal(form.matrix, before)


@pytest.mark.parametrize("dim, level, s", [(2, 1, 0.5), (2, 2, 0.25), (1, 8, 0.1)])
def test_the_solver_factorization_is_the_one_positivity_decision(dim, level, s):
    # 2D L1 at s = 0.5 is diagonally dominant, the others are not; either
    # way assemble audits symmetry alone, and the level is factored once,
    # in place, by the solver
    factor = solver_module.cho_factor
    with patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky, patch.object(
        solver_module, "cho_factor", wraps=factor
    ) as cho_factor:
        form = assemble(build_mesh(dim, level), s)
        assert solve(form).converged
    assert cholesky.call_count == 0
    assert cho_factor.call_count == 1
    report = form.assembly_report
    assert 0 <= report.phase_seconds["audit"] <= report.phase_seconds["total"]


@pytest.mark.parametrize("dim, level, s", [(1, 8, 0.25), (2, 2, 0.5), (2, 3, 0.5)])
def test_assembled_matrix_is_exactly_symmetric(dim, level, s):
    # the audit sets a_ij and a_ji to their mean where they differ, as 2D
    # L3's triangles do within the 1e-12 tolerance, so the solver can
    # factor one triangle in place and restore it bitwise from the other
    A = assemble(build_mesh(dim, level), s).matrix
    assert A.flags.c_contiguous
    assert np.array_equal(A, A.T)


def test_assemble_holds_one_dense_array():
    # the matrix is the free block of the array the terms were scattered
    # into, so a form peaks near one n x n array whether or not it is
    # diagonally dominant, as it is not at s = 0.1; a copy of the free
    # block beside the scatter array, or a factor of it, reads 2.0 arrays
    mesh = build_mesh(1, 10)
    n = mesh.n_nodes
    for s in (0.25, 0.1):
        assemble(mesh, s)  # warms the mesh's pair, tree and partition caches
        tracemalloc.start()
        try:
            assemble(mesh, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n, (s, peak / (8 * n * n))


@pytest.mark.parametrize("dim, level, s", [(1, 6, 0.25), (2, 2, 0.5)])
def test_assemble_keeps_the_free_block_and_one_discard_slot(dim, level, s):
    # the terms scatter straight into the free block, and every pair that
    # touches a boundary node into one slot past it: at 2D L2 the buffer
    # holds f^2 + 1 = 28,562 floats, where the all-node array held n^2 = 47,089
    mesh = build_mesh(dim, level)
    A = assemble(mesh, s).matrix
    f = mesh.free_count
    assert A.shape == (f, f)
    assert A.base.nbytes == 8 * (f * f + 1)


@pytest.mark.parametrize(
    "dim, level, s, boost, direct_tol",
    [
        pytest.param(1, 5, 0.25, 0, 1e-14, id="1-5-0.25"),
        pytest.param(2, 1, 0.5, 0, 1e-14, id="2-1-0.5"),
        pytest.param(2, 1, 0.5, 1, 1e-14, id="2-1-0.5-boosted"),
    ],
)
def test_term_chunks_do_not_change_the_form(monkeypatch, dim, level, s, boost, direct_tol):
    # at 2^16 points per term the 1D level-5 mesh still fits one term per category
    # and branch, while the 2D level-1 terms already split (12 vertex terms by
    # default, 32 boosted); a 256-point cap splits every category whose rows carry
    # more than one point (boosted: near pairs at order 7, 2401 points).
    # The direct path adds its per-term sums exactly (fsum), so the 5,451 terms of
    # the boosted sliced run add no rounding walk of their own to the total.
    # The assembled matrix is the default rule's; at level 1 the direct
    # sums and the counts of the stream are compared.
    mesh = build_mesh(dim, level)
    u = FeFunction.from_free(mesh, np.random.default_rng(7).normal(size=mesh.free_count))
    runs = []
    for cap in (gagliardo._TERM_POINTS, 256):
        monkeypatch.setattr(gagliardo, "_TERM_POINTS", cap)
        matrix = None if boost else assemble(mesh, s).matrix
        runs.append((matrix, _stream_work(mesh, s, boost), seminorm_sq_direct(mesh, s, u, boost)))
    (whole, r, a), (sliced, q, b) = runs
    if not boost:
        assert np.max(np.abs(whole - sliced)) <= 1e-14 * np.max(np.abs(whole))
    assert abs(a - b) <= direct_tol * abs(a)
    for field in ("kernel_evals", "pair_counts", "complement_cells", "complement_points"):
        assert r[field] == q[field], field


def test_quadrature_boost_drift_small():
    mesh = build_mesh(1, 3)
    u = interpolate(mesh, truncated_bubble(1.3, 0.25, 1, 0.25))
    v1 = seminorm_sq(assemble(mesh, 0.25), u)
    v2 = seminorm_sq_direct(mesh, 0.25, u, 1)
    assert abs(v1 - v2) / v2 < 1e-7
    mesh2 = build_mesh(2, 1)
    u2 = interpolate(mesh2, truncated_bubble(1.0, 0.4, 2, 0.5))
    w1 = seminorm_sq(assemble(mesh2, 0.5), u2)
    w2 = seminorm_sq_direct(mesh2, 0.5, u2, 1)
    assert abs(w1 - w2) / w2 < 5e-5


# ------------------------------------------- 1D singular-pair mini-oracles


def test_ident_block_1d_against_nested_quad():
    # element [a, a+h], hats with slopes 1/h and -1/h; double integral of
    # (phi_i(x)-phi_i(y))(phi_j(x)-phi_j(y)) |x-y|^{-1-2s} over the square
    s, h, a = 0.23, 0.75, -0.2
    closed = 2.0 * (1.0 / h) * (-1.0 / h) * h ** (3 - 2 * s) / ((2 - 2 * s) * (3 - 2 * s))

    def inner(x):
        val, _ = integrate.quad(
            lambda y: -((x - y) ** 2) / h**2 * abs(x - y) ** (-1 - 2 * s),
            a,
            a + h,
            points=[x],
            limit=200,
        )
        return val

    brute, _ = integrate.quad(inner, a, a + h, limit=200)
    assert abs(closed - brute) / abs(brute) < 1e-9
    # the in-package identical block carries exactly this closed form
    mesh = _custom_1d_mesh()
    geo = element_geometry(mesh)
    _, loc = _category_blocks(mesh, s, "identical")
    for e in range(mesh.n_elements):
        he = geo.measure[e]
        ref = 2.0 * he ** (3 - 2 * s) / ((2 - 2 * s) * (3 - 2 * s)) / he**2
        assert abs(loc[e, 0, 1] + ref) < 1e-14 * ref
        assert abs(loc[e, 0, 0] - ref) < 1e-14 * ref


def test_vertex_block_1d_against_nested_quad():
    # adjacent nonuniform intervals sharing one node
    s = 0.31
    mesh = _custom_1d_mesh()
    idx, loc = _category_blocks(mesh, s, "vertex")
    coords = mesh.nodes[:, 0]
    for row in range(len(idx)):
        # the row leads with the shared node; hat 0, 1, 2 is left, shared, right
        xm = coords[idx[row, 0]]
        xl, xr = sorted(coords[idx[row, 1:]])
        hat_of = [1] + [0 if coords[n] < xm else 2 for n in idx[row, 1:]]

        def hat(k):
            def f(x):
                if k == 0:
                    return max(0.0, (xm - x) / (xm - xl)) if x <= xm else 0.0
                if k == 1:
                    return (x - xl) / (xm - xl) if x <= xm else (xr - x) / (xr - xm)
                return max(0.0, (x - xm) / (xr - xm)) if x >= xm else 0.0

            return f

        def pair_integral(i, j):
            fi, fj = hat(i), hat(j)

            def inner(x):
                val, _ = integrate.quad(
                    lambda y: (fi(x) - fi(y)) * (fj(x) - fj(y)) * abs(x - y) ** (-1 - 2 * s),
                    xm,
                    xr,
                    limit=300,
                    points=[xm] if x > xm - 1e-12 else None,
                )
                return val

            val, _ = integrate.quad(inner, xl, xm, limit=300)
            return 2.0 * val

        for i, j in [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]:
            ref = pair_integral(hat_of[i], hat_of[j])
            scale = max(abs(ref), 1e-3)
            assert abs(loc[row, i, j] - ref) / scale < 1e-6, (row, i, j)


# ------------------------------------- 2D oracles: covariogram/subdivision


def _clip_halfplane(poly, a, b):
    out = []
    d = b - a
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp = d[0] * (p[1] - a[1]) - d[1] * (p[0] - a[0])
        sq = d[0] * (q[1] - a[1]) - d[1] * (q[0] - a[0])
        if sp >= 0:
            out.append(p)
        if (sp > 0 > sq) or (sp < 0 < sq):
            out.append(p + sp / (sp - sq) * (q - p))
    return out


def _poly_area(poly):
    if len(poly) < 3:
        return 0.0
    P = np.asarray(poly)
    x, y = P[:, 0], P[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _covariogram(V, z):
    poly = [V[0] + z, V[1] + z, V[2] + z]
    for i in range(3):
        poly = _clip_halfplane(poly, V[i], V[(i + 1) % 3])
        if not poly:
            return 0.0
    return _poly_area(poly)


def _tri_grads(V):
    M = np.column_stack([np.ones(3), V])
    return np.linalg.inv(M)[1:, :].T


def _ident_oracle_covariogram(V, s, n_ang=64, n_rad=64):
    """Identical-pair block via mu_T(z) = |T cap (T+z)| in polar form."""
    if np.linalg.det(np.column_stack([V[1] - V[0], V[2] - V[0]])) < 0:
        V = V[[0, 2, 1]]
    g = _tri_grads(V)
    diffs = [V[i] - V[j] for i in range(3) for j in range(3) if i != j]
    angs = np.sort(np.mod([np.arctan2(d[1], d[0]) for d in diffs], 2 * np.pi))
    angs = np.concatenate([angs, [angs[0] + 2 * np.pi]])
    xg, wg = leggauss(n_ang)
    ug, uw = leggauss(n_rad)
    u01, w01 = 0.5 * (ug + 1.0), 0.5 * uw
    p = 1.0 / (2.0 - 2.0 * s)
    total = np.zeros((3, 3))
    for a, b in zip(angs[:-1], angs[1:]):
        if b - a < 1e-13:
            continue
        th = 0.5 * (b - a) * xg + 0.5 * (a + b)
        wth = 0.5 * (b - a) * wg
        for t, wt in zip(th, wth):
            om = np.array([np.cos(t), np.sin(t)])
            R = max(float(np.dot(d, om)) for d in diffs)
            if R <= 0:
                continue
            # r = R u^p turns the r^{1-2s} dr weight into R^{2-2s} p du
            mu = np.array([_covariogram(V, r * om) for r in R * u01**p])
            gz = g @ om
            total += np.outer(gz, gz) * (R ** (2 - 2 * s) * p * float(w01 @ mu)) * wt
    return total


def _collapsed_tri_rule(n):
    x, w = leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    A, B = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w) * (1.0 - A)
    return np.column_stack([A.ravel(), (B * (1 - A)).ravel()]), W.ravel()


_TRI_RULE = _collapsed_tri_rule(5)


def _tri_area(V):
    """Areas of a stack of triangles V (..., 3, 2)."""
    edges = np.stack([V[..., 1, :] - V[..., 0, :], V[..., 2, :] - V[..., 0, :]], axis=-1)
    return 0.5 * np.abs(np.linalg.det(edges))


def _map_tri(V, P):
    """Reference points P (n, 2) mapped into each triangle of V (B, 3, 2)."""
    V0 = V[:, None, 0]
    return V0 + P[:, :1] * (V[:, None, 1] - V0) + P[:, 1:] * (V[:, None, 2] - V0)


def _gauss_pairs(Va, Vb, s, phi_a, phi_b):
    """Tensor Gauss blocks of separated triangle pairs (B, 3, 2), summed over the pairs."""
    P, W = _TRI_RULE
    total = 0.0
    chunk = 2048
    for lo in range(0, len(Va), chunk):
        Ta, Tb = Va[lo : lo + chunk], Vb[lo : lo + chunk]
        Xa, Xb = _map_tri(Ta, P), _map_tri(Tb, P)
        wa = W * 2 * _tri_area(Ta)[:, None]
        wb = W * 2 * _tri_area(Tb)[:, None]
        fa = phi_a(Xa.reshape(-1, 2)).reshape(-1, *Xa.shape[:2])
        fb = phi_b(Xb.reshape(-1, 2)).reshape(-1, *Xb.shape[:2])
        D = Xa[:, :, None, :] - Xb[:, None, :, :]
        K = np.sum(D * D, axis=-1) ** (-(2 + 2 * s) / 2) * wa[:, :, None] * wb[:, None, :]
        t1 = np.einsum("bp,ibp,jbp->bij", K.sum(axis=2), fa, fa)
        t2 = np.einsum("bpq,ibp,jbq->bij", K, fa, fb, optimize=True)
        t3 = np.einsum("bq,ibq,jbq->bij", K.sum(axis=1), fb, fb)
        # combine per pair before summing: the four parts nearly cancel
        total = total + np.sum(t1 - t2 - np.swapaxes(t2, 1, 2) + t3, axis=0)
    return total


def _split4(V):
    """The four midpoint children of each triangle of V (B, 3, 2): (B, 4, 3, 2)."""
    m01, m12, m02 = (0.5 * (V[:, i] + V[:, j]) for i, j in ((0, 1), (1, 2), (0, 2)))
    return np.stack(
        [
            np.stack([V[:, 0], m01, m02], axis=1),
            np.stack([m01, V[:, 1], m12], axis=1),
            np.stack([m02, m12, V[:, 2]], axis=1),
            np.stack([m01, m12, m02], axis=1),
        ],
        axis=1,
    )


def _pt_seg(x, a, b):
    d = b - a
    t = np.sum((x - a) * d, axis=-1) / np.maximum(np.sum(d * d, axis=-1), 1e-300)
    t = np.clip(t, 0.0, 1.0)
    return np.linalg.norm(x - (a + t[..., None] * d), axis=-1)


def _touching(Va, Vb):
    """Whether each triangle pair of Va, Vb (B, 3, 2) has edges closer than 1e-12."""
    p, q = Va[:, :, None], np.roll(Va, -1, axis=1)[:, :, None]
    a, b = Vb[:, None], np.roll(Vb, -1, axis=1)[:, None]
    dist = np.minimum.reduce(
        [_pt_seg(p, a, b), _pt_seg(q, a, b), _pt_seg(a, p, q), _pt_seg(b, p, q)]
    )
    return np.min(dist, axis=(1, 2)) < 1e-12


def _subdiv_oracle(Va, Vb, s, phi_a, phi_b, depths):
    """Refine toward the touching set level by level; integrate separated descendants.

    Returns {depth: block}, the sum over separated child pairs of levels
    1..depth for each requested depth, so deeper results extend shallower ones.
    """
    m = phi_a(Va[:1]).shape[0]
    total = np.zeros((m, m))
    out = {}
    Ta, Tb = Va[None], Vb[None]
    for level in range(1, max(depths) + 1):
        ca = np.repeat(_split4(Ta), 4, axis=1).reshape(-1, 3, 2)
        cb = np.tile(_split4(Tb), (1, 4, 1, 1)).reshape(-1, 3, 2)
        touch = _touching(ca, cb)
        total = total + _gauss_pairs(ca[~touch], cb[~touch], s, phi_a, phi_b)
        if level in depths:
            out[level] = total
        Ta, Tb = ca[touch], cb[touch]
    return out


def _aitken(x0, x1, x2):
    d1, d2 = x1 - x0, x2 - x1
    den = d2 - d1
    safe = np.where(den == 0, 1.0, den)
    return np.where(np.abs(den) > 1e-300, x2 - d2 * d2 / safe, x2)


def _phi_of(V):
    Mi = np.linalg.inv(np.column_stack([np.ones(3), V]))

    def f(X):
        return (np.column_stack([np.ones(len(X)), X]) @ Mi).T

    return f


@pytest.fixture(scope="module")
def disk_pairs():
    mesh = build_mesh(2, 0)
    return mesh, element_geometry(mesh), element_pairs(mesh)


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_ident_blocks_2d_vs_covariogram(disk_pairs, s):
    mesh, geo, _ = disk_pairs
    _, loc = _category_blocks(mesh, s, "identical")
    for e in (0, 7):
        ref = _ident_oracle_covariogram(geo.verts[e], s)
        assert np.max(np.abs(loc[e] - ref)) / np.max(np.abs(ref)) < 1e-6


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_vertex_blocks_2d_vs_subdivision(disk_pairs, s):
    mesh, _, _ = disk_pairs
    idxs, locs = _category_blocks(mesh, s, "vertex")
    for pick in (0, len(idxs) // 2):
        idx, loc = idxs[pick], locs[pick]
        Va = mesh.nodes[idx[:3]]
        Vb = mesh.nodes[[idx[0], idx[3], idx[4]]]
        pa, pb = _phi_of(Va), _phi_of(Vb)

        def phi_a(X):
            return np.vstack([pa(X), np.zeros((2, len(X)))])

        def phi_b(X):
            lam = pb(X)
            return np.vstack([lam[:1], np.zeros((2, len(X))), lam[1:]])

        o = _subdiv_oracle(Va, Vb, s, phi_a, phi_b, (5, 6, 7))
        ref = 2.0 * _aitken(o[5], o[6], o[7])
        assert np.max(np.abs(loc - ref)) / np.max(np.abs(ref)) < 5e-5


def test_edge_blocks_2d_vs_subdivision(disk_pairs):
    # the deepest touching case; one pair per order, Aitken-extrapolated
    mesh, _, _ = disk_pairs
    for s, depths, tol in [(0.5, (5, 6, 7), 1e-4), (0.75, (4, 5, 6), 1e-3)]:
        idxs, locs = _category_blocks(mesh, s, "edge")
        idx, loc = idxs[0], locs[0]
        Va = mesh.nodes[idx[:3]]
        Vb = mesh.nodes[[idx[0], idx[1], idx[3]]]
        pa, pb = _phi_of(Va), _phi_of(Vb)

        def phi_a(X):
            return np.vstack([pa(X), np.zeros((1, len(X)))])

        def phi_b(X):
            lam = pb(X)
            return np.vstack([lam[:2], np.zeros((1, len(X))), lam[2:]])

        o = _subdiv_oracle(Va, Vb, s, phi_a, phi_b, depths)
        ref = 2.0 * _aitken(*(o[d] for d in depths))
        assert np.max(np.abs(loc - ref)) / np.max(np.abs(ref)) < tol, s


def _disjoint_block_loop(Va, Vb, s, order):
    """Block of one disjoint triangle pair, one kernel matrix per pair.

    Collapsed Gauss rule on each triangle at ``order`` points per
    direction; g over the six nodes is [lam_a(x), -lam_b(y)], and the
    factor 2 counts the pair in both orders.
    """
    P, W = _collapsed_tri_rule(order)
    lam = np.column_stack([1.0 - P.sum(axis=1), P])
    Xa, Xb = _map_tri(Va[None], P)[0], _map_tri(Vb[None], P)[0]
    wa = W * 2 * _tri_area(Va)
    wb = W * 2 * _tri_area(Vb)
    K = cdist(Xa, Xb) ** (-2 - 2 * s) * wa[:, None] * wb[None, :]
    block = np.zeros((6, 6))
    for p in range(len(P)):
        for q in range(len(P)):
            g = np.concatenate([lam[p], -lam[q]])
            block += 2.0 * K[p, q] * np.outer(g, g)
    return block


def _near_pairs(mesh):
    """The disjoint pairs that ``_disjoint_blocks`` gives the near order, over the leaf rows."""
    rows = disjoint_partition(mesh, _DISTANT_RATIO)[1]
    blocks = _disjoint_blocks(mesh, element_geometry(mesh), *_orders(mesh.dim, 0)[:3], rows)
    return sum(len(ia) for category, ia, _, _ in blocks if category == "disjoint_near")


@pytest.mark.parametrize("level, near", [(1, 708), (2, 3576)])
def test_near_far_ties_do_not_follow_rounding(level, near):
    # in the ring mesh many pairs lie exactly one larger diameter apart at
    # their closest vertices; they go far, so interior nodes moved by one
    # ulp, up, down or at random, keep every pair's band
    mesh = build_mesh(2, level)
    counts = [_near_pairs(mesh)]
    free = mesh.free_count
    rng = np.random.default_rng(0)
    for toward in (np.inf, -np.inf, None):
        nodes = mesh.nodes.copy()
        target = np.where(rng.random(nodes[:free].shape) < 0.5, np.inf, -np.inf) if toward is None else toward
        nodes[:free] = np.nextafter(nodes[:free], target)
        counts.append(_near_pairs(make_ball_mesh(2, nodes, mesh.elements)))
    assert counts == [near] * 4


@pytest.mark.parametrize("s", [0.25, 0.5])
@pytest.mark.parametrize("boost", [0, 1], ids=["default", "boosted"])
def test_disjoint_blocks_2d_vs_pointwise_kernel(s, boost):
    mesh = build_mesh(2, 1)
    geo = element_geometry(mesh)
    near_order, far_order, distant_order = _orders(2, boost)[:3]
    # the bands by brute force: centroids at least _DISTANT_RATIO larger
    # diameters apart, else vertices closer than the larger diameter
    pairs = _disjoint_table(mesh)
    verts = mesh.nodes[mesh.elements]
    diam = np.array([cdist(v, v).max() for v in verts])
    larger = np.maximum(diam[pairs[:, 0]], diam[pairs[:, 1]])
    sep = np.linalg.norm(verts[pairs[:, 0]].mean(axis=1) - verts[pairs[:, 1]].mean(axis=1), axis=1)
    distant = sep >= _DISTANT_RATIO * larger
    mind = np.array([cdist(verts[a], verts[b]).min() for a, b in pairs])
    near = ~distant & (mind < larger * (1 - 1e-9))
    far = ~distant & ~near
    assert 0 < near.sum() and 0 < far.sum() and 0 < distant.sum()
    # the stream gives each band its category and order; at the default
    # rule far and distant share theirs
    streamed = {}
    for category, ia, ib, order in _disjoint_blocks(mesh, geo, near_order, far_order, distant_order, [pairs.T]):
        streamed.setdefault((category, order), []).append((ia, ib))
    streamed = {key: _pair_table(blocks) for key, blocks in streamed.items()}
    want = {("disjoint_near", near_order): pairs[near]}
    if boost:
        assert near_order > far_order > distant_order
        want[("disjoint_far", far_order)] = pairs[far]
        want[("disjoint_far", distant_order)] = pairs[distant]
    else:
        assert near_order > far_order == distant_order
        want[("disjoint_far", far_order)] = pairs[far | distant]
    assert streamed.keys() == want.keys()
    for key, got in streamed.items():
        order = np.lexsort(got.T[::-1])
        assert np.array_equal(got[order], want[key]), key
    for tag, chosen, order in (
        ("disjoint_near", pairs[near], near_order),
        ("disjoint_far", pairs[far], far_order),
        ("disjoint_far", pairs[distant], distant_order),
    ):
        picks = chosen[[0, 1, len(chosen) // 2, len(chosen) - 1]]
        block = (tag, picks[:, 0], picks[:, 1], order)
        idxs, locs = _set_blocks(mesh, s, _disjoint_sets(mesh, geo, [block]))
        assert len(locs) == len(picks)
        for (ea, eb), idx, loc in zip(picks, idxs, locs):
            Va, Vb = mesh.nodes[mesh.elements[ea]], mesh.nodes[mesh.elements[eb]]
            assert np.array_equal(idx, np.concatenate([mesh.elements[ea], mesh.elements[eb]]))
            ref = _disjoint_block_loop(Va, Vb, s, order)
            assert np.max(np.abs(loc - ref)) <= 1e-13 * np.max(np.abs(ref)), (tag, ea, eb)


# ------------------------------------------------------- banded slack audit


def _squared_1d_mesh(elements=32):
    """Nodes sign(t)|t|^2 on a uniform t grid: with 32 elements, sizes 1/512 to 31/256."""
    t = np.linspace(-1.0, 1.0, elements + 1)
    nodes = (np.sign(t) * t * t)[:, None]
    return make_ball_mesh(1, nodes, np.column_stack([np.arange(elements), np.arange(1, elements + 1)]))


_AUDIT_MESHES = {
    "1d-L6": lambda: build_mesh(1, 6),
    "1d-L8": lambda: build_mesh(1, 8),
    "1d-custom": _custom_1d_mesh,
    "1d-graded": _squared_1d_mesh,
    "2d-L1": lambda: build_mesh(2, 1),
    "2d-L2": lambda: build_mesh(2, 2),
}


def _brute_band(mesh, ratio):
    """(band, tail): every disjoint pair, split by the plain ratio test on centroids, as pairs (ia, ib)."""
    geo = element_geometry(mesh)
    c = geo.verts.mean(axis=1)
    pairs = _disjoint_table(mesh)
    a, b = pairs.T
    sep = np.sum((c[a] - c[b]) ** 2, axis=1)
    reach = ratio * np.maximum(geo.diameter[a], geo.diameter[b])
    inside = sep < reach * reach
    return (a[inside], b[inside]), (a[~inside], b[~inside])


def _disjoint_sum(mesh, s, u, pairs, boost):
    """s(1-s) times the exact sum of the disjoint-pair terms of the pairs (ia, ib).

    The parts of a band pass of ``_terms``: the pairs in one-row blocks
    through the package's disjoint pair sets.
    """
    geo = element_geometry(mesh)
    ia, ib = pairs
    rows = ((ia[part], ib[part]) for part in _row_chunks(len(ia), 1))
    sets = _disjoint_sets(mesh, geo, _disjoint_blocks(mesh, geo, *_orders(mesh.dim, boost)[:3], rows))
    parts = [
        float(np.sum(wK * (u.values[idx] @ g.T) ** 2))
        for _, nodes, scale, rule in sets
        for idx, g, wK in _pair_terms(mesh, s, nodes, scale, rule)
    ]
    return s * (1 - s) * fsum(parts)


@pytest.mark.parametrize("key", sorted(_AUDIT_MESHES))
@pytest.mark.parametrize("ratio", [1.5, 4.0, 8.0])
def test_audit_band_is_the_ratio_test(key, ratio):
    # the ratio test over the partition's leaf rows finds exactly the
    # pairs the plain test keeps, pairs of unequal diameter included, in
    # triu order
    mesh = _AUDIT_MESHES[key]()
    (a, b), _ = _brute_band(mesh, ratio)
    ia, ib = audit_band(mesh, ratio)
    assert np.array_equal(ia, a) and np.array_equal(ib, b)
    if key == "1d-graded":
        diam = element_geometry(mesh).diameter
        assert np.any(diam[ia] != diam[ib])


@pytest.mark.parametrize(
    "key, ratio, s",
    [
        ("1d-L6", 8.0, 0.25),
        ("1d-L8", 8.0, 0.3),
        ("1d-custom", 1.5, 0.25),
        ("1d-graded", 4.0, 0.25),
        ("2d-L1", 4.0, 0.5),
        ("2d-L2", 8.0, 0.5),
    ],
)
@pytest.mark.parametrize("boost", [0, 1])
def test_band_and_tail_partition_the_form(key, ratio, s, boost):
    # the band's seminorm plus the disjoint pairs beyond it is the whole form
    mesh = _AUDIT_MESHES[key]()
    u = default_start(mesh, s)
    _, tail = _brute_band(mesh, ratio)
    assert len(tail[0]) > 0
    band_sum = seminorm_sq_direct(mesh, s, u, boost, audit_band(mesh, ratio))
    full = seminorm_sq_direct(mesh, s, u, boost)
    assert abs(band_sum + _disjoint_sum(mesh, s, u, tail, boost) - full) <= 1e-14 * full


@pytest.mark.parametrize("boost", [0, 1])
@pytest.mark.parametrize("dim, level, s", [(1, 8, 0.3), (2, 3, 0.5)])
def test_tiled_pass_matches_the_row_path(dim, level, s, boost):
    # the full pass sums 83% (1D L8) and 80% (2D L3) of the disjoint pairs
    # as tiles; the reference sums every one of them as a row, through the
    # band path over the brute-force pair list
    mesh = build_mesh(dim, level)
    u = default_start(mesh, s)
    ref = _brute_force_pairs(mesh)
    every = tuple(np.concatenate([ref["near"], ref["far"], ref["distant"]]).T)
    rows = seminorm_sq_direct(mesh, s, u, boost, every)
    assert abs(seminorm_sq_direct(mesh, s, u, boost) - rows) <= 1e-14 * rows
    if not boost:
        # the assembled form is the default rule's
        w = u.free_values
        assert abs(w @ assemble(mesh, s).matrix @ w - rows) <= 1e-13 * rows


@pytest.mark.parametrize("boost", [0, 1])
@pytest.mark.parametrize("dim, level, s", [(1, 7, 0.25), (2, 2, 0.5)])
def test_leaf_size_keeps_the_work(monkeypatch, dim, level, s, boost):
    # leaves of one and two elements give other tiles and rows of the same
    # pairs, so the same counts and, up to rounding, the same matrix; at
    # level 1, where no matrix is assembled, the same direct sum
    runs = []
    for leaf in (mesh_module._LEAF_SIZE, 1, 2):
        monkeypatch.setattr(mesh_module, "_LEAF_SIZE", leaf)
        mesh = build_mesh(dim, level)
        runs.append(seminorm_sq_direct(mesh, s, default_start(mesh, s), boost) if boost else assemble(mesh, s))
    ref = runs[0]
    for run in runs[1:]:
        if boost:
            assert abs(run - ref) <= 1e-13 * ref
            continue
        # the tiles' kernel values follow their blocks, whose interpolants
        # take their own node counts; every other count is the pairs'
        evals, want = run.assembly_report.kernel_evals.copy(), ref.assembly_report.kernel_evals.copy()
        assert evals.pop("disjoint_far") > 0 and want.pop("disjoint_far") > 0
        assert evals == want
        assert run.assembly_report.pair_counts == ref.assembly_report.pair_counts
        assert np.max(np.abs(run.matrix - ref.matrix)) <= 1e-13 * np.max(np.abs(ref.matrix))


# ------------------------------------------------------ compressed tiles

_LD = np.longdouble


def _tile_meshes(key, monkeypatch):
    """The meshes whose tiles the compression tests walk; the graded one at leaves of 2, its one compressed tile."""
    if key == "1d-graded":
        monkeypatch.setattr(mesh_module, "_LEAF_SIZE", 2)
        return _graded_1d_mesh()
    if key == "1d-squared":
        return _squared_1d_mesh(256)
    return build_mesh(int(key[0]), int(key.split("L")[1]))


def _vertex_box(geo, elements):
    """(low, high) corners of the elements' vertices, (2, N)."""
    verts = geo.verts[elements]
    return np.stack([verts.min(axis=(0, 1)), verts.max(axis=(0, 1))])


def _chebyshev_long(x, box, p):
    """(nodes, basis): the tensor Chebyshev interpolation of p points per side on box, in long double, from scratch."""
    t = np.cos(np.arange(p, dtype=_LD) * (np.arccos(_LD(-1)) / (p - 1)))
    w = np.where(np.arange(p) % 2, -1.0, 1.0).astype(_LD)
    w[[0, -1]] /= 2
    basis, sides = np.ones((len(x), 1), dtype=_LD), []
    for c in range(x.shape[1]):
        lo, hi = (_LD(v) for v in box[:, c])
        side = (lo + hi) / 2 + (hi - lo) / 2 * t
        L = w / (x[:, c, None] - side)
        L /= L.sum(axis=1, keepdims=True)
        basis = (basis[:, :, None] * L[:, None, :]).reshape(len(x), -1)
        sides.append(side)
    return np.stack([g.ravel() for g in np.meshgrid(*sides, indexing="ij")], axis=1), basis


def _long_kernel(x, y, s):
    """|x - y|^(-N-2s) between the rows of x and y, in long double."""
    gap = np.sqrt(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1))
    return gap ** -_LD(x.shape[1] + 2 * s)


def _sample(n, most=64):
    """At most ``most`` indices spread over range(n), both ends included."""
    return np.unique(np.linspace(0, n - 1, min(n, most)).astype(int))


def _check_interpolant(geo, lam, s, a, b, box, p, bound, Pa, K, Pb):
    """The interpolant's error in long double lies below bound, and the floats carry the interpolant.

    The long-double interpolant, built here from scratch on the same
    boxes, is the exact one to within 1e-19; at a sample of at most 64
    points per cluster its distance from the kernel must lie below the
    bound that chose p.  The floats Pa K Pb^T differ from it by their
    rounding, which the barycentric formula keeps within (3p + 4) u Lam
    of the values per side (Higham, IMA J. Numer. Anal. 24, 2004).
    """
    dim = geo.verts.shape[2]
    ia, ib = _sample(len(Pa)), _sample(len(Pb))
    xa, xb = (np.einsum("pk,ekd->epd", lam.astype(_LD), geo.verts[e].astype(_LD)).reshape(-1, dim) for e in (a, b))
    (na, La), (nb, Lb) = _chebyshev_long(xa[ia], box[0], p), _chebyshev_long(xb[ib], box[1], p)
    exact = _long_kernel(xa[ia], xb[ib], s)
    interpolant = La @ _long_kernel(na, nb, s) @ Lb.T
    assert float(np.max(np.abs(exact - interpolant))) <= bound, (p, bound)
    lebesgue = 2 / np.pi * np.log(p) + 1
    rounding = 2 * dim * (3 * p + 4) * lebesgue ** (2 * dim) * 2.0**-53 * float(np.max(exact))
    ours = Pa[ia] @ K @ Pb[ib].T
    assert float(np.max(np.abs(ours - interpolant))) <= rounding, p


@pytest.mark.skipif(np.finfo(_LD).eps > 1e-18, reason="needs an extended long double")
@pytest.mark.parametrize(
    "key, s",
    [("1d-L8", 0.1), ("1d-L8", 0.3), ("1d-L10", 0.1), ("1d-L10", 0.3), ("1d-graded", 0.3), ("1d-squared", 0.25)],
)
def test_compressed_tiles_meet_their_bound(monkeypatch, key, s):
    # every compressed tile's interpolant lies within the a priori bound
    # that chose its points per side, and that bound lies below unit
    # roundoff times the tile's smallest kernel value
    mesh = _tile_meshes(key, monkeypatch)
    geo = element_geometry(mesh)
    tiles, _ = disjoint_partition(mesh, _DISTANT_RATIO)
    order = _orders(1, 0)[2]
    lam = reference_rule(1, order)[0]
    seen = 0
    for a, b, _, _, K, Pa, Pb in _tile_chunks(mesh, s, geo, tiles, order):
        if Pa is None:
            continue
        seen += 1
        p = len(K)
        # the boxes' own vertices give the same p, with a bound below unit
        # roundoff of the smallest kernel value, at the boxes' far corners
        box = np.stack([_vertex_box(geo, a), _vertex_box(geo, b)])
        points, bounds = _chebyshev_order(1, s, box[None])
        assert points[0] == p
        bound = float(bounds[0])
        far = max(box[1, 1, 0] - box[0, 0, 0], box[0, 1, 0] - box[1, 0, 0])
        assert bound < 2.0**-53 * far ** -(1 + 2 * s)
        _check_interpolant(geo, lam, s, a, b, box, p, bound, Pa, K, Pb)
    assert seen > 0


@pytest.mark.skipif(np.finfo(_LD).eps > 1e-18, reason="needs an extended long double")
def test_two_dimensional_tile_interpolant_meets_its_bound():
    # no 2D L3 tile passes the cost rule, so the tensor interpolant is
    # called directly, on the four tiles of fewest points per side
    s, mesh = 0.5, build_mesh(2, 3)
    geo = element_geometry(mesh)
    tiles, _ = disjoint_partition(mesh, _DISTANT_RATIO)
    boxes = np.array([[_vertex_box(geo, e) for e in tile[:2]] for tile in tiles])
    points, bounds = _chebyshev_order(2, s, boxes)
    assert np.all(points > 0)
    lam, weights = reference_rule(2, _orders(2, 0)[2])
    for i in np.argsort(points, kind="stable")[:4]:
        a, b, box = tiles[i]
        assert np.array_equal(box, boxes[i])
        xa, xb = (np.matmul(lam, geo.verts[e]).reshape(-1, 2).T for e in (a, b))
        Pa, K, Pb = _interpolate_tile(xa, xb, boxes[i], points[i], -(2 + 2 * s) / 2)
        assert Pa.shape == (len(a) * len(lam), points[i] ** 2) and K.shape == (points[i] ** 2,) * 2
        _check_interpolant(geo, lam, s, a, b, boxes[i], points[i], bounds[i], Pa, K, Pb)


@pytest.mark.parametrize("boost", [0, 1])
@pytest.mark.parametrize(
    "key, s", [("1d-L8", 0.3), ("1d-L10", 0.1), ("1d-graded", 0.3), ("1d-squared", 0.25), ("2d-L3", 0.5)]
)
def test_compression_follows_the_cost_rule(monkeypatch, key, s, boost):
    # a tile is interpolated, with p^N nodes per cluster, exactly when the
    # p of _chebyshev_order on its boxes takes fewer values than the
    # dense array, p^2N + p^N (n_a + n_b) < n_a n_b, and otherwise its
    # dense chunks cover its pairs once
    mesh = _tile_meshes(key, monkeypatch)
    dim, geo = mesh.dim, element_geometry(mesh)
    tiles, _ = disjoint_partition(mesh, _DISTANT_RATIO)
    order = _orders(dim, boost)[2]
    nq = len(reference_rule(dim, order)[0])
    points = _chebyshev_order(dim, s, np.array([box for *_, box in tiles]))[0]
    chunks = _tile_chunks(mesh, s, geo, tiles, order)
    for (a, b, _), p in zip(tiles, points):
        na, nb, q = nq * len(a), nq * len(b), p**dim
        first = next(chunks)
        if q * q + q * (na + nb) < na * nb:
            assert first.Pa.shape == (na, q) and first.Pb.shape == (nb, q) and first.K.shape == (q, q)
            continue
        covered = [first]
        while sum(len(c.a) * len(c.b) for c in covered) < len(a) * len(b):
            covered.append(next(chunks))
        assert all(c.Pa is None and c.Pb is None for c in covered)
        assert sum(len(c.a) * len(c.b) for c in covered) == len(a) * len(b)
    assert next(chunks, None) is None


def _dense_tiles(dim, s, boxes):
    """_chebyshev_order with every tile left dense."""
    return np.zeros(len(boxes), dtype=int), np.full(len(boxes), np.inf)


@pytest.mark.parametrize("boost", [0, 1])
@pytest.mark.parametrize(
    "key, s",
    [("1d-L8", 0.1), ("1d-L8", 0.3), ("1d-L10", 0.1), ("1d-L10", 0.3), ("1d-graded", 0.3), ("1d-squared", 0.25)],
)
def test_compressed_tiles_keep_the_sums(monkeypatch, key, s, boost):
    # the compressed and the dense tiles give the same seminorm and, at
    # the default rule, the same assembled form to well within 1e-13 of
    # the form
    mesh = _tile_meshes(key, monkeypatch)
    u = default_start(mesh, s)
    w = u.free_values
    runs = []
    for dense in (False, True):
        if dense:
            monkeypatch.setattr(gagliardo, "_chebyshev_order", _dense_tiles)
        quadratic = None if boost else w @ assemble(mesh, s).matrix @ w
        runs.append((seminorm_sq_direct(mesh, s, u, boost), quadratic, _stream_work(mesh, s, boost)))
    (direct, quadratic, work), (dense_direct, dense_quadratic, dense_work) = runs
    assert abs(direct - dense_direct) <= 1e-13 * dense_direct
    if not boost:
        assert abs(quadratic - dense_quadratic) <= 1e-13 * dense_quadratic
    assert work["pair_counts"] == dense_work["pair_counts"]
    assert work["kernel_evals"]["disjoint_far"] < dense_work["kernel_evals"]["disjoint_far"]


def _rough(mesh, shape):
    """A function that is not the smooth profile: seeded normal nodal values,
    or in 1D the sawtooth (-1)^i (1 - |x|) at node x = -1 + i h or sin(8 pi
    x)(1 - |x|)."""
    x = mesh.nodes[: mesh.free_count, 0]
    if shape == "sawtooth":
        values = (-1.0) ** np.rint((x + 1.0) / mesh.h) * (1.0 - np.abs(x))
    elif shape == "normal":
        values = np.random.default_rng(0).normal(size=mesh.free_count)
    else:
        values = np.sin(8 * np.pi * x) * (1.0 - np.abs(x))
    return FeFunction.from_free(mesh, values)


# the sweeps' functions, rough ones, and the 1D L6 minimizer that sweep1d
# audits: with Trefethen's exponent for n + 1 points and one weight
# (U_a + U_b)^2 per pair, the bound fell short of its shift beyond 16
# diameters by 7%, and of the sawtooth's by up to 18 times
_TAIL_CASES = [
    pytest.param(1, 8, 0.25, "profile", (4.0, 8.0, 16.0), id="1-8-0.25"),
    pytest.param(1, 8, 0.3, "profile", (4.0, 8.0, 16.0), id="1-8-0.3"),
    pytest.param(1, 6, 0.1, "profile", (4.0, 8.0, 16.0), id="1-6-0.1"),
    pytest.param(2, 2, 0.5, "profile", (4.0, 8.0, 16.0), id="2-2-0.5"),
    pytest.param(2, 2, 0.5, "normal", (4.0, 8.0), id="2-2-0.5-normal"),
    pytest.param(1, 6, 0.25, "minimizer", (8.0, 16.0), id="1-6-0.25-minimizer"),
] + [
    pytest.param(1, level, 0.25, shape, (ratio,), id=f"1-{level}-0.25-{shape}-R{ratio:g}")
    for shape in ("sawtooth", "normal", "sine")
    for ratio in (4.0, 8.0, 16.0)
    for level in (6, 8)
]


@pytest.mark.parametrize("dim, level, s, shape, ratios", _TAIL_CASES)
def test_tail_bound_holds(dim, level, s, shape, ratios):
    # the a priori bound covers the one- and two-level shifts of every pair
    # beyond the band, both summed pair by pair, for smooth and rough u
    mesh = build_mesh(dim, level)
    if shape == "profile":
        u = default_start(mesh, s)
    elif shape == "minimizer":
        u = solve(assemble(mesh, s)).minimizer
    else:
        u = _rough(mesh, shape)
    for ratio in ratios:
        _, tail = _brute_band(mesh, ratio)
        sums = [_disjoint_sum(mesh, s, u, tail, boost) for boost in (0, 1, 2)]
        bound = tail_bound(mesh, s, u, ratio)
        assert bound >= abs(sums[1] - sums[0]), ratio
        assert bound >= abs(sums[2] - sums[0]), ratio


def _gauss01(mp, n):
    """The n-point Gauss rule on [0, 1] in mp's precision: leggauss's nodes refined by Newton."""
    nodes, weights = [], []
    for x in leggauss(n)[0]:
        x = mp.mpf(float(x))
        for _ in range(8):
            p, q = mp.legendre(n, x), mp.legendre(n - 1, x)
            dp = n * (x * p - q) / (x * x - 1)
            x -= p / dp
        dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
        nodes.append((x + 1) / 2)
        weights.append(1 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("gap", [7.0, 31.0])
@pytest.mark.parametrize("ua, ub", [((1, -1), (0, 0)), ((1, 1), (0, 0)), ((0.3, -0.7), (0.2, 0.5))])
def test_pair_error_constant_bounds_the_gauss_error(gap, ua, ub):
    # the pair a = [0, 1], b = [1 + gap, 2 + gap] with linear u: the
    # tensor Gauss error of its term at the distant orders of levels 0 and
    # 1 against 40-digit quadrature with exact nodes, within the bound of
    # tail_bound's pieces (D = J = 1); with the exponent of n + 1 points,
    # the first case, a pure slope on a, broke the bound at gap 7
    s, mp = 0.25, mpmath.mp.clone()
    mp.dps = 40
    (a0, a1), (b0, b1) = [[mp.mpf(v) for v in w] for w in (ua, ub)]

    def f(x, t):
        return ((a0 + (a1 - a0) * x) - (b0 + (b1 - b0) * t)) ** 2 * (1 + gap + t - x) ** (-1 - 2 * s)

    exact = mp.quad(f, [0, 1], [0, 1])
    V = abs(float(a0 + a1 - b0 - b1)) / 2
    da, db = abs(ua[1] - ua[0]) / 2, abs(ub[1] - ub[0]) / 2
    for level in (0, 1):
        n = _orders(1, level)[2]
        nodes, weights = _gauss01(mp, n)
        rule = mp.fsum(wx * wt * f(x, t) for x, wx in zip(nodes, weights) for t, wt in zip(nodes, weights))
        Kw = []
        for k in range(3):
            K, q = gagliardo._pair_error_constant(1, s, n, gap, k)
            Kw.append(K * gap ** (-q - 1 - 2 * s))
        bound = Kw[0] * V**2 + (Kw[0] + Kw[1]) * V * (da + db) + ((Kw[0] + Kw[2]) / 2 + Kw[1]) * (da**2 + db**2)
        assert bound >= 2 * abs(float(exact - rule)), level


def test_tail_bound_validation():
    mesh = build_mesh(1, 4)
    u = default_start(mesh, 0.25)
    with pytest.raises(ValueError, match="ratio"):
        tail_bound(mesh, 0.25, u, 3.0)
    with pytest.raises(ValueError, match="mesh"):
        tail_bound(build_mesh(1, 3), 0.25, u, 8.0)
