"""Quadrature rules, L^q norms, and the critical-exponent residual vector."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsobolev import norms, reference_rule
from fracsobolev._quad import unit_gauss
from fracsobolev.bubble import truncated_bubble
from fracsobolev.mesh import FeFunction, build_mesh, interpolate
from fracsobolev.norms import lq_norm, nonlinear_residual


def test_reference_rule_exactness_1d():
    # n-point Gauss on [0,1] integrates monomials up to degree 2n-1
    for order in (2, 4, 6):
        lam, weights = reference_rule(1, order)
        assert lam.shape == (order, 2)
        assert abs(weights.sum() - 1.0) < 1e-14
        for k in range(2 * order):
            val = float(lam[:, 1] ** k @ weights)
            assert abs(val - 1.0 / (k + 1)) < 1e-13, (order, k)


def test_reference_rule_exactness_2d():
    # weights sum to the triangle area; exact on x^a y^b up to degree 2n-2
    for order in (2, 4, 6):
        lam, weights = reference_rule(2, order)
        assert lam.shape == (order * order, 3)
        assert abs(weights.sum() - 0.5) < 1e-14
        x, y = lam[:, 1], lam[:, 2]
        degree = 2 * order - 2
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = float(x**a * y**b @ weights)
                exact = (
                    math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                )
                assert abs(val - exact) < 1e-13, (order, a, b)


def test_reference_rule_validation():
    with pytest.raises(ValueError):
        reference_rule(3, 4)
    with pytest.raises(ValueError):
        reference_rule(1, 0)
    # one shared, read-only pair of arrays per (dim, order)
    lam, weights = reference_rule(2, 3)
    assert reference_rule(2, 3)[0] is lam
    with pytest.raises(ValueError):
        weights[0] = 1.0


@pytest.mark.parametrize("order", [2.5, 2.0, np.float64(3.0), "4"])
def test_non_integer_quadrature_orders_raise(order):
    # neither truncated nor cached: an integer-valued float is refused too,
    # as for rule levels and mesh levels
    reference_rule(1, 2)
    for rule in (lambda: reference_rule(1, order), lambda: unit_gauss(order)):
        with pytest.raises(ValueError, match=re.escape(f"got {order!r}")):
            rule()
    assert len(unit_gauss(np.int64(3))[0]) == 3


def test_lq_norm_rejects_a_fractional_order():
    mesh = build_mesh(1, 3)
    u = interpolate(mesh, lambda x: 1.0 - x[:, 0] ** 2)
    with pytest.raises(ValueError, match="6.9"):
        lq_norm(u, 4.0, order=6.9)


def test_barycentric_partition_of_unity():
    for dim in (1, 2):
        lam, weights = reference_rule(dim, 4)
        assert lam.shape == (len(weights), dim + 1)
        assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(lam >= -1e-14)
        assert np.all(weights > 0)


def test_lq_norm_exact_hat_1d():
    # single hat of height 1 on [-h, h]: int |u|^q = 2h/(q+1), any q
    mesh = build_mesh(1, 3)
    h = mesh.h
    mid = np.argmin(np.abs(mesh.nodes[: mesh.free_count, 0]))
    coeffs = np.zeros(mesh.free_count)
    coeffs[mid] = 1.0
    u = FeFunction.from_free(mesh, coeffs)
    for q in (1.0, 2.0, 3.5, 4.0):
        ref = (2.0 * h / (q + 1.0)) ** (1.0 / q)
        assert abs(lq_norm(u, q) - ref) / ref < 1e-10, q


def test_lq_norm_l2_matches_mass_matrix_2d():
    # for q=2 the norm is a polynomial integral: compare an exact per-element sum
    mesh = build_mesh(2, 1)
    rng = np.random.default_rng(3)
    u = FeFunction.from_free(mesh, rng.normal(size=mesh.free_count))
    lam, weights = reference_rule(2, 3)
    w_elem = u.values[mesh.elements]
    from fracsobolev.mesh import element_geometry

    geo = element_geometry(mesh)
    vals = w_elem @ lam.T
    total = float(np.sum((geo.measure / 0.5) * (vals**2 @ weights)))
    assert abs(lq_norm(u, 2.0) - np.sqrt(total)) < 1e-12


def test_lq_norm_homogeneity_and_zero():
    mesh = build_mesh(1, 4)
    rng = np.random.default_rng(11)
    u = FeFunction.from_free(mesh, rng.normal(size=mesh.free_count))
    n1 = lq_norm(u, 4.0)
    n3 = lq_norm(FeFunction(u.mesh, -3.0 * u.values), 4.0)
    assert abs(n3 - 3.0 * n1) / n3 < 1e-12
    zero = FeFunction.from_free(mesh, np.zeros(mesh.free_count))
    assert lq_norm(zero, 4.0) == 0.0
    with pytest.raises(ValueError):
        lq_norm(u, 0.5)


@pytest.mark.parametrize("q", [np.nan, np.inf])
def test_non_finite_exponents_raise(q):
    # an infinite q read as a power gave lq_norm 1.0, and NaN doubled the
    # order to the cap before it returned NaN
    mesh = build_mesh(1, 4)
    u = interpolate(mesh, lambda x: 1.0 - x[:, 0] ** 2)
    with pytest.raises(ValueError, match=re.escape(f"a finite number >= 1, got {q!r}")):
        lq_norm(u, q)
    with pytest.raises(ValueError, match=re.escape(f"a finite number > 2, got {q!r}")):
        nonlinear_residual(u, q)


def test_lq_norm_sign_splitting_1d():
    # u = x on one interior element pair: |u|^q has a kink at 0; the split
    # integration must reproduce 2 * int_0^h (x)^q exactly
    mesh = build_mesh(1, 2)
    u = interpolate(mesh, lambda x: np.asarray(x)[..., 0] * 1.0)
    q = 2.5
    # exact: int_{-1}^{1} |x|^q minus the two boundary elements where the
    # interpolant is distorted by the forced zero boundary values
    h = mesh.h
    inner = 2.0 * (1.0 - h) ** (q + 1.0) / (q + 1.0)
    # boundary element: linear from 1-h down to 0 over length h
    bnd = 2.0 * h * (1.0 - h) ** q / (q + 1.0)
    ref = (inner + bnd) ** (1.0 / q)
    assert abs(lq_norm(u, q) - ref) / ref < 1e-10


def test_lq_norm_sign_splitting_2d():
    # odd function on the disk: the exact integral of |x|^q over each
    # symmetric half agrees; compare against a high-order brute force
    mesh = build_mesh(2, 1)
    u = interpolate(mesh, lambda x: np.asarray(x)[..., 0])
    q = 3.0
    lam, weights = reference_rule(2, 14)
    w_elem = u.values[mesh.elements]
    from fracsobolev.mesh import element_geometry

    geo = element_geometry(mesh)
    # brute force without splitting at very high order (integrand kinks, so
    # allow a loose tolerance; the split result should be the better one)
    vals = w_elem @ lam.T
    brute = float(np.sum((geo.measure / 0.5) * (np.abs(vals) ** q @ weights)))
    split = lq_norm(u, q) ** q
    assert abs(split - brute) / brute < 1e-4
    # symmetry of the mesh makes the odd-power signed integral vanish
    signed = float(
        np.sum((geo.measure / 0.5) * ((vals**2 * vals) @ weights))
    )
    assert abs(signed) < 1e-12


def _hermite_genocchi_power(values, q, N):
    """N! times the divided difference F[w_0..w_N] of F with F^(N)(t) = |t|^q.

    By the Hermite-Genocchi formula this is the mean of |u|^q over a
    simplex on which u is affine with vertex values w.  Repeated values
    take the confluent form F^(j)(w)/j!; mpmath at 40 digits keeps nearly
    equal values from cancelling.
    """
    with mpmath.workdps(40):
        qq = mpmath.mpf(q)

        def deriv(t, j):
            # F^(j)(t) = sign(t)^(N-j) |t|^(q+N-j) / ((q+1)...(q+N-j))
            p = N - j
            den = mpmath.fprod(qq + i for i in range(1, p + 1))
            return mpmath.sign(t) ** p * abs(t) ** (qq + p) / den

        w = sorted(mpmath.mpf(float(v)) for v in values)
        table = [deriv(t, 0) for t in w]
        for width in range(1, N + 1):
            table = [
                deriv(w[i], width) / math.factorial(width)
                if w[i + width] == w[i]
                else (table[i + 1] - table[i]) / (w[i + width] - w[i])
                for i in range(N + 1 - width)
            ]
        return math.factorial(N) * table[0]


@pytest.mark.parametrize("dim,level", [(1, 3), (2, 1), (2, 2)])
@pytest.mark.parametrize("q", [2.5, 8.0 / 3.0, 3.0, 3.3, 4.0])
def test_lq_norm_against_hermite_genocchi(dim, level, q):
    # exact per-element integrals of |u|^q, u affine: |T| times N! F[w_0..w_N]
    mesh = build_mesh(dim, level)
    rng = np.random.default_rng(100 * dim + level)
    coeffs = rng.normal(size=mesh.free_count)
    coeffs[::4] = 0.0
    u = FeFunction.from_free(mesh, coeffs)
    corners = mesh.nodes[mesh.elements]
    edges = corners[:, 1:] - corners[:, :1]
    measure = np.abs(np.linalg.det(edges)) / math.factorial(dim)
    with mpmath.workdps(40):
        power = mpmath.fsum(
            mpmath.mpf(float(m)) * _hermite_genocchi_power(w, q, dim)
            for m, w in zip(measure, u.values[mesh.elements])
        )
        ref = float(power ** (1 / mpmath.mpf(q)))
    rtol = 1e-13 if q == int(q) else norms._NORM_RTOL
    assert abs(lq_norm(u, q) - ref) <= rtol * ref


@pytest.mark.parametrize("k", [2, 3])
def test_sign_split_pieces(k):
    # seeded sign patterns with 20% exact zeros: the pieces partition the
    # reference measure, u is one-signed at each piece's vertices, and a
    # piece has zero measure only where the simplex has an exact zero vertex
    rng = np.random.default_rng(k)
    w = rng.normal(size=(4000, k))
    w[rng.random(w.shape) < 0.2] = 0.0
    w = w[(w.min(axis=1) < 0) & (w.max(axis=1) > 0)]
    bary, frac = norms._sign_split(w)
    assert bary.shape == (k, len(w), k, k) and frac.shape == (k, len(w))
    assert np.all(np.abs(frac.sum(axis=0) - 1.0) <= 1e-14)
    assert np.all(bary >= 0.0) and np.allclose(bary.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    at_vertices = np.einsum("pmjb,mb->pmj", bary, w)
    tol = 1e-14 * np.abs(w).max(axis=1)[:, None]
    one_signed = np.all(at_vertices >= -tol, axis=-1) | np.all(at_vertices <= tol, axis=-1)
    assert one_signed.all()
    has_zero = np.any(w == 0.0, axis=1)
    assert np.all(has_zero[np.any(frac == 0.0, axis=0)])
    if k == 3:  # a sign-changing segment has no zero vertex; a triangle can
        assert has_zero.any() and np.any(frac == 0.0)


def test_residual_euler_identity():
    # b(u) . u_free = ||u||_q^q: the residual is the norm-power gradient / q
    for dim, level in [(1, 4), (2, 1)]:
        mesh = build_mesh(dim, level)
        rng = np.random.default_rng(5 + dim)
        u = FeFunction.from_free(mesh, rng.normal(size=mesh.free_count))
        q = 4.0
        b = nonlinear_residual(u, q)
        assert b.shape == (mesh.free_count,)
        lhs = float(b @ u.free_values)
        rhs = lq_norm(u, q) ** q
        assert abs(lhs - rhs) / rhs < 1e-8


def test_residual_is_gradient():
    # directional finite difference of ||u||_q^q / q matches b(u) . v
    mesh = build_mesh(1, 3)
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=mesh.free_count)
    u = FeFunction.from_free(mesh, coeffs)
    q = 4.0
    b = nonlinear_residual(u, q)
    v = rng.normal(size=mesh.free_count)
    eps = 1e-6

    def power(c):
        return lq_norm(FeFunction.from_free(mesh, c), q) ** q / q

    fd = (power(coeffs + eps * v) - power(coeffs - eps * v)) / (2 * eps)
    assert abs(fd - float(b @ v)) < 1e-6 * max(1.0, abs(fd))


def test_residual_odd_homogeneity():
    # b(t u) = |t|^{q-2} t b(u)
    mesh = build_mesh(1, 3)
    rng = np.random.default_rng(13)
    u = FeFunction.from_free(mesh, rng.normal(size=mesh.free_count))
    q = 4.0
    b1 = nonlinear_residual(u, q)
    bm2 = nonlinear_residual(FeFunction(u.mesh, -2.0 * u.values), q)
    assert np.allclose(bm2, (-2.0) ** 3 * b1, rtol=1e-9)
    with pytest.raises(ValueError):
        nonlinear_residual(u, 2.0)
    with pytest.raises(ValueError):
        nonlinear_residual(FeFunction.from_free(mesh, np.zeros(mesh.free_count)), q)


def test_order_cap_warns_and_keeps_the_value(monkeypatch):
    # a one-signed profile converges at the default tolerances without a
    # warning; with zero tolerances the doubling driver runs to MAX_ORDER,
    # warns, and still returns the highest-order value
    mesh = build_mesh(2, 1)
    u = interpolate(mesh, truncated_bubble(1.0, 0.3, 2, 0.3))
    q = 3.3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm, b = lq_norm(u, q), nonlinear_residual(u, q)
    monkeypatch.setattr(norms, "_NORM_RTOL", 0.0)
    monkeypatch.setattr(norms, "_RESIDUAL_RTOL", 0.0)
    with pytest.warns(RuntimeWarning, match=r"lq_norm: stopped at Gauss order 28"):
        capped_norm = lq_norm(u, q)
    with pytest.warns(RuntimeWarning, match=r"nonlinear_residual: stopped at Gauss order 28"):
        capped_b = nonlinear_residual(u, q)
    assert abs(capped_norm - norm) <= 1e-8 * norm
    assert np.max(np.abs(capped_b - b)) <= 1e-10 * np.max(np.abs(b))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=2.2, max_value=6.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_norm_residual_consistency_random(level, q, seed):
    mesh = build_mesh(1, level)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=mesh.free_count)
    if not np.any(coeffs):
        coeffs[0] = 1.0
    u = FeFunction.from_free(mesh, coeffs)
    norm = lq_norm(u, q)
    assert norm > 0
    b = nonlinear_residual(u, q)
    assert abs(float(b @ u.free_values) - norm**q) <= 1e-7 * norm**q
