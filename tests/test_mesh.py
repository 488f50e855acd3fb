"""Mesh construction, conformity, interpolation, quality metrics."""

import warnings

import numpy as np
import pytest

from fracsobolev.bubble import Bubble
from fracsobolev.mesh import (
    BallMesh,
    FeFunction,
    build_mesh,
    interpolate,
    make_ball_mesh,
    mesh_quality,
)


def test_1d_counts_and_spacing():
    for level in range(1, 7):
        mesh = build_mesh(1, level)
        n_el = 2 ** (level + 1)
        assert mesh.n_elements == n_el
        assert mesh.n_nodes == n_el + 1
        assert mesh.free_count == n_el - 1
        assert mesh.h == pytest.approx(2.0**-level, rel=1e-14)
        assert mesh.h_min == pytest.approx(mesh.h, rel=1e-12)
        # knots cover [-1, 1] exactly
        xs = np.sort(mesh.nodes[:, 0])
        assert xs[0] == -1.0 and xs[-1] == 1.0
        assert np.allclose(np.diff(xs), mesh.h, rtol=1e-12)


def test_1d_boundary_and_ordering():
    mesh = build_mesh(1, 3)
    assert np.sum(mesh.boundary_mask) == 2
    # interior nodes come first so free coefficients are a prefix
    assert not mesh.boundary_mask[: mesh.free_count].any()
    assert mesh.boundary_mask[mesh.free_count :].all()
    assert set(np.abs(mesh.nodes[mesh.boundary_mask, 0])) == {1.0}


def test_2d_basic_invariants():
    for level in (0, 1, 2):
        mesh = build_mesh(2, level)
        assert mesh.dim == 2
        radii = np.linalg.norm(mesh.nodes, axis=1)
        assert np.all(radii <= 1.0 + 1e-12)
        assert np.allclose(radii[mesh.boundary_mask], 1.0, atol=1e-12)
        assert not mesh.boundary_mask[: mesh.free_count].any()
        # triangles have positive area and the union fills most of the disk
        sigma, rho, h, h_min = mesh_quality(mesh)
        assert sigma < 6.0 and rho > 0.1
        assert h == pytest.approx(mesh.h)
        verts = mesh.nodes[mesh.elements]
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        total = float(np.sum(areas))
        assert total < np.pi
        # inscribed polygon area -> pi at rate h^2
        assert np.pi - total < 4.0 * h**2


def test_2d_mesh_refines():
    h_prev = None
    for level in (0, 1, 2, 3):
        mesh = build_mesh(2, level)
        if h_prev is not None:
            assert mesh.h < 0.62 * h_prev
        h_prev = mesh.h


def test_build_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh(3, 1)
    with pytest.raises(ValueError):
        build_mesh(1, -1)


def test_make_ball_mesh_rejects_nonconforming():
    # hanging node: two intervals on the left, one long interval on the right
    nodes = np.array([[-1.0], [-0.5], [0.0], [1.0]])
    elements = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
    with pytest.raises(ValueError):
        make_ball_mesh(1, nodes, elements)


def test_make_ball_mesh_rejects_interior_boundary_face():
    # gap in the middle leaves interior endpoints exposed
    nodes = np.array([[-1.0], [-0.4], [0.4], [1.0]])
    elements = np.array([[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        make_ball_mesh(1, nodes, elements)


def test_fe_function_boundary_enforcement():
    mesh = build_mesh(1, 2)
    vals = np.zeros(mesh.n_nodes)
    vals[-1] = 0.5  # boundary slot
    with pytest.raises(ValueError):
        FeFunction(mesh, vals)
    with pytest.raises(ValueError):
        FeFunction(mesh, np.full(mesh.n_nodes, np.nan))
    with pytest.raises(ValueError):
        FeFunction(mesh, np.zeros(mesh.n_nodes + 1))


def test_from_free_scaled_roundtrip():
    mesh = build_mesh(1, 3)
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=mesh.free_count)
    u = FeFunction.from_free(mesh, coeffs)
    assert np.array_equal(u.free_values, coeffs)
    assert np.all(u.values[mesh.boundary_mask] == 0.0)
    v = u.scaled(-2.5)
    assert np.array_equal(v.free_values, -2.5 * coeffs)
    with pytest.raises(ValueError):
        FeFunction.from_free(mesh, coeffs[:-1])


def test_interpolate_zeroes_boundary():
    mesh = build_mesh(2, 1)
    b = Bubble(dim=2, s=0.5, amplitude=1.0, concentration=0.5)
    u = interpolate(mesh, b)
    assert np.all(u.values[mesh.boundary_mask] == 0.0)
    inner = ~mesh.boundary_mask
    assert np.allclose(u.values[inner], b.evaluate(mesh.nodes[inner]))


def test_interpolate_needs_the_whole_value_vector():
    # f is called once on all nodes; a column of values or a scalar-only
    # callable is refused, not rerun node by node
    mesh = build_mesh(1, 4)
    with pytest.raises(ValueError, match=r"\(33, 1\).*\(33,\)"):
        interpolate(mesh, lambda x: np.cos(np.asarray(x)[:, :1]))

    def scalar_only(x):
        x = np.asarray(x)
        if x.ndim != 1:
            raise TypeError("one node at a time")
        return float(np.cos(x[0]))

    with pytest.raises(TypeError):
        interpolate(mesh, scalar_only)
    with pytest.raises(ValueError):
        interpolate(mesh, lambda x: np.full(mesh.n_nodes, np.inf))


_DISK = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]


@pytest.mark.parametrize(
    "dim, nodes, elements",
    [
        # a negative index would wrap to node 1 and pass as a conforming square
        pytest.param(2, _DISK, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, -4]], id="2d-negative"),
        pytest.param(1, [-1.0, 0.0, 1.0], [[0, 1], [1, -1]], id="1d-negative"),
        pytest.param(2, _DISK, [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]], id="2d-past-end"),
        pytest.param(1, [-1.0, 0.0, 1.0], [[0, 1], [1, 3]], id="1d-past-end"),
    ],
)
def test_make_ball_mesh_rejects_out_of_range_node_indices(dim, nodes, elements):
    with pytest.raises(ValueError, match="index outside"):
        make_ball_mesh(dim, nodes, elements)


def test_mesh_quality_detects_degenerate():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    mesh = BallMesh(
        dim=2,
        nodes=nodes,
        elements=elements,
        boundary_mask=np.zeros(4, dtype=bool),
        h=1.0,
        h_min=1.0,
        sigma=1.0,
        rho=1.0,
    )
    with pytest.raises(ValueError, match="degenerate"):
        mesh_quality(mesh)


@pytest.mark.parametrize(
    "dim, nodes, elements, bad",
    [
        # a zero-length segment
        (1, [-1.0, 0.0, 0.0, 1.0], [[0, 1], [1, 2], [2, 3]], 1),
        # a flat triangle on a diameter of the disk, in a conforming mesh
        (2, [[1, 0], [-1, 0], [0, 0], [0, 1], [0, -1]],
         [[0, 2, 1], [0, 1, 3], [0, 2, 4], [2, 1, 4]], 0),
    ],
)
def test_degenerate_element_raises_before_dividing(dim, nodes, elements, bad):
    # through the public constructor, the check fires before any gradient
    # divides by the element's length or determinant
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"degenerate element {bad}"):
            make_ball_mesh(dim, nodes, elements)
