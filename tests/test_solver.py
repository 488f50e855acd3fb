"""Rayleigh-quotient minimization and manifold-distance fitting."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import fracsobolev.solver as solver_module
from fracsobolev import gagliardo
from fracsobolev.bubble import Bubble, normalize_lambda, truncated_bubble
from fracsobolev.experiments import discrete_constant_sweep, fit_manifold, upper_bound_sweep
from fracsobolev.gagliardo import assemble, seminorm_sq, seminorm_sq_direct
from fracsobolev.mesh import FeFunction, build_mesh, evaluate, interpolate
from fracsobolev.norms import lq_norm, nonlinear_residual
from fracsobolev.params import critical_exponent, exact_constant, optimal_concentration
from fracsobolev.solver import default_start, deficit, quadrature_slack, quotient, solve


@pytest.fixture(scope="module")
def small_problem():
    mesh = build_mesh(1, 4)
    form = assemble(mesh, 0.25)
    return form, solve(form)


def test_solve_converges_with_monotone_history(small_problem):
    form, rep = small_problem
    assert rep.converged
    hist = np.array(rep.quotient_history)
    assert np.all(np.diff(hist) <= 0.0)
    # a step that ticks the quotient up by rounding is not recorded, so
    # s_h may sit a few ulp above the history floor
    assert abs(rep.s_h - hist[-1]) <= 32 * np.finfo(float).eps * hist[-1]
    assert rep.iterations >= 1


def test_minimizer_is_admissible(small_problem):
    form, rep = small_problem
    u = rep.minimizer
    q = critical_exponent(1, 0.25)
    assert abs(lq_norm(u, q) - 1.0) < 1e-12
    # constrained nodes stay pinned at zero
    assert np.all(u.values[form.mesh.free_count :] == 0.0)
    assert u.free_values[: form.mesh.free_count].mean() > 0.0


def test_minimizer_satisfies_euler_lagrange(small_problem):
    form, rep = small_problem
    u = rep.minimizer
    q = critical_exponent(1, 0.25)
    w = u.free_values
    Aw = form.apply(w)
    mu = float(w @ Aw)
    b = nonlinear_residual(u, q)
    assert np.linalg.norm(Aw - mu * b) / np.linalg.norm(Aw) < 1e-8
    assert abs(mu - rep.s_h) == 0.0


def test_solution_dominates_trial_functions(small_problem):
    form, rep = small_problem
    mesh = form.mesh
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = FeFunction.from_free(mesh, rng.normal(size=mesh.free_count))
        assert quotient(form, u) >= rep.s_h * (1.0 - 1e-12)
    # the default start is one such trial
    assert quotient(form, default_start(mesh, 0.25)) >= rep.s_h


def test_discrete_constants_decrease_under_refinement(reports_1d_s025):
    vals = [reports_1d_s025[lev].s_h for lev in range(4, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    sharp = exact_constant(1, 0.25)
    assert all(v > sharp - 1e-6 for v in vals)


def test_quadrature_slack_small(reports_1d_s025):
    for rep in reports_1d_s025.values():
        assert rep.quadrature_slack is not None
        assert rep.quadrature_slack < 1e-5


@pytest.mark.parametrize("dim, level, s", [(1, 6, 0.25), (2, 1, 0.5)])
def test_slack_tracks_the_twice_boosted_error(dim, level, s):
    # the slack is the boosted audit's shift of s_h; a twice-boosted quotient,
    # over a finer critical norm, shifts it by the same amount to within 1e-3
    # of the slack (1.00079 and 1.00075), so grading the audit's far field
    # by distance keeps the audit as fine as the default rule needs
    mesh = build_mesh(dim, level)
    form = assemble(mesh, s)
    rep = solve(form)
    u = rep.minimizer
    finer = seminorm_sq_direct(mesh, s, u, 2)
    q_bb = finer / lq_norm(u, critical_exponent(dim, s), order=16) ** 2
    assert abs((q_bb - rep.s_h) / rep.quadrature_slack - 1.0) <= 1e-3


def test_banded_slack_covers_the_full_pass(reports_1d_s025):
    # the band's shift plus the tail bound is at least the full level-1
    # pass's slack, and exceeds it by at most twice the bound; a band of
    # every pair is that pass itself.  The audit has two outcomes: the one
    # band at 16 diameters, or the full pass
    q = critical_exponent(1, 0.25)
    cutoffs = []
    for rep in reports_1d_s025.values():
        u = rep.minimizer
        fine = seminorm_sq_direct(u.mesh, 0.25, u, boost=1) / lq_norm(u, q, order=12) ** 2
        full = abs(fine - rep.s_h)
        assert rep.audit_cutoff in (16.0, float("inf"))
        cutoffs.append(rep.audit_cutoff)
        if rep.audit_cutoff == float("inf"):
            assert rep.tail_bound == 0.0 and rep.quadrature_slack == full
        else:
            assert 0.0 < rep.tail_bound <= 1e-3 * rep.quadrature_slack
            assert full <= rep.quadrature_slack <= full + 2 * rep.tail_bound
    assert cutoffs[0] == float("inf") and cutoffs[-1] < float("inf")


def test_both_sweeps_report_the_one_audit():
    # each sweep's slack, tail bound and cutoff are quadrature_slack's on
    # the sweep's own function: solve's unit minimizer, solved along the
    # discrete sweep's chain of levels, each from the prolonged minimizer
    # below, and the default start that upper_bound_sweep measures; L4
    # sums every pair, L6 bounds the pairs beyond its band
    s, levels = 0.25, [4, 5, 6]
    q = critical_exponent(1, s)
    solved, upper = discrete_constant_sweep(1, s, levels), upper_bound_sweep(1, s, levels)
    below = None
    for i, level in enumerate(levels):
        mesh = build_mesh(1, level)
        init = None if below is None else interpolate(mesh, lambda x: evaluate(below, x))
        rep = solve(assemble(mesh, s), init=init)
        below = rep.minimizer
        u = default_start(mesh, s)
        want = [
            quadrature_slack(mesh, s, rep.minimizer, rep.s_h, 1.0),
            quadrature_slack(mesh, s, u, seminorm_sq_direct(mesh, s, u), lq_norm(u, q) ** 2),
        ]
        assert solved.details["s_h"][i] == rep.s_h
        for res, (slack, tail, cutoff) in zip((solved, upper), want):
            assert res.records[i].slack == slack
            assert res.details["tail_bound"][i] == tail
            assert res.details["audit_cutoff"][i] == cutoff
    assert solved.details["audit_cutoff"][0] == float("inf") > solved.details["audit_cutoff"][-1]


@pytest.mark.parametrize("level", [0, 1, 2])
def test_2d_audit_takes_the_full_pass_without_a_band(monkeypatch, level):
    # through 2D L2, 16 h >= 2: a band at 16 diameters would reach across
    # the ball, so the audit goes straight to the full pass and forms no
    # band it would throw away
    def refuse(mesh, ratio):
        raise AssertionError(f"the audit formed a band at ratio {ratio}")

    monkeypatch.setattr(solver_module, "audit_band", refuse)
    s = 0.5
    mesh = build_mesh(2, level)
    u = default_start(mesh, s)
    norm_sq = lq_norm(u, critical_exponent(2, s)) ** 2
    slack, tail, cutoff = quadrature_slack(mesh, s, u, seminorm_sq_direct(mesh, s, u), norm_sq)
    assert cutoff == float("inf") and tail == 0.0 and slack > 0.0


def test_banded_audit_streams_no_disjoint_pair(monkeypatch):
    # with a finite cutoff the audit takes its band from the leaf rows of
    # the cluster tree's block walk and bounds the rest: no tile of the
    # O(m^2) far field is evaluated
    form = assemble(build_mesh(1, 8), 0.25)
    tile_chunks = gagliardo._tile_chunks

    def refuse(mesh, s, geo, tiles, order):
        if len(tiles):
            raise AssertionError("the banded audit evaluated a tile")
        return tile_chunks(mesh, s, geo, tiles, order)

    monkeypatch.setattr(gagliardo, "_tile_chunks", refuse)
    rep = solve(form)
    assert rep.audit_cutoff < float("inf") and rep.tail_bound > 0.0


def test_solve_slack_optional_and_validation():
    mesh = build_mesh(1, 3)
    form = assemble(mesh, 0.25)
    rep = solve(form, tol=1e-8)
    assert rep.converged
    with pytest.raises(ValueError):
        solve(form, init=FeFunction.from_free(mesh, np.zeros(mesh.free_count)))
    other = build_mesh(1, 2)
    with pytest.raises(ValueError):
        solve(form, init=FeFunction.from_free(other, np.ones(other.free_count)))
    # NaN would stop at once, -1 would run to the step cap and inf would
    # report convergence after no step, none with an error
    for tol in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ValueError, match="tol"):
            solve(form, tol=tol)


def test_quotient_and_deficit_basics():
    mesh = build_mesh(1, 3)
    form = assemble(mesh, 0.25)
    u = FeFunction.from_free(mesh, np.abs(np.sin(np.pi * mesh.nodes[: mesh.free_count, 0])) + 0.1)
    with pytest.raises(ValueError):
        quotient(form, FeFunction.from_free(mesh, np.zeros(mesh.free_count)))
    d1 = deficit(form, u)
    u5 = FeFunction(mesh, 5.0 * u.values)
    d5 = deficit(form, u5)
    assert abs(d5 - d1) <= 1e-12 * abs(d1)
    assert quotient(form, u) == d1 + exact_constant(1, 0.25)


def test_deficit_regression_value(goldens):
    mesh = build_mesh(1, 8)
    c_h = optimal_concentration(mesh.h, 1, 0.3)
    lam = normalize_lambda(c_h, 1, 0.3)
    u = interpolate(mesh, truncated_bubble(lam, c_h, 1, 0.3))
    form = assemble(mesh, 0.3)
    got = deficit(form, u)
    ref = float(goldens["regression"]["deficit,1,0.3,level8"])
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_fit_manifold_recovers_exact_interpolant():
    mesh = build_mesh(1, 5)
    form = assemble(mesh, 0.25)
    target = interpolate(mesh, Bubble(1, 0.25, 1.0, 0.3, np.zeros(1)))
    fit = fit_manifold(form, target, init_guess=(0.35, np.array([0.05])))
    uAu = seminorm_sq(form, target)
    assert fit.discrete_distance_sq <= 1e-10 * uAu
    assert abs(fit.amplitude - 1.0) < 1e-4
    assert abs(fit.concentration - 0.3) < 1e-4
    assert abs(fit.center[0]) < 1e-4


def test_fit_manifold_distance_identity(small_problem):
    form, rep = small_problem
    mesh = form.mesh
    fit = fit_manifold(form, rep.minimizer)
    phi = interpolate(mesh, Bubble(1, 0.25, 1.0, fit.concentration, fit.center))
    diff = rep.minimizer.free_values - fit.amplitude * phi.free_values
    direct = float(diff @ form.matrix @ diff)
    assert abs(direct - fit.discrete_distance_sq) <= 1e-12 * seminorm_sq(form, rep.minimizer)
    assert fit.discrete_distance_sq >= 0.0


def test_fit_manifold_rejects_zero(small_problem):
    form, _ = small_problem
    mesh = form.mesh
    with pytest.raises(ValueError):
        fit_manifold(form, FeFunction.from_free(mesh, np.zeros(mesh.free_count)))


@functools.cache
def _form(dim, level, s):
    return assemble(build_mesh(dim, level), s)


@pytest.mark.parametrize("dim, level, s", [(1, 4, 0.25), (2, 1, 0.5), (1, 8, 0.25)])
def test_iteration_counts_do_not_depend_on_rounding(dim, level, s):
    form = _form(dim, level, s)
    ref = solve(form)
    A = form.matrix
    for seed in (1, 2, 3):
        R = np.random.default_rng(seed).standard_normal(A.shape)
        nudged = dataclasses.replace(form, matrix=A * (1 + 1e-15 * (R + R.T) / 2))
        rep = solve(nudged)
        assert (rep.iterations, rep.converged) == (ref.iterations, ref.converged)
        assert abs(rep.s_h - ref.s_h) <= 1e-13 * ref.s_h


def test_mixed_steps_are_counted():
    rep = solve(_form(1, 6, 0.25))
    assert 0 < rep.mixed_steps <= rep.iterations


def test_step_cap_warns_and_reports_the_residual():
    form = _form(1, 3, 0.25)
    with pytest.warns(RuntimeWarning, match=r"stopped after 280 steps .* tolerance 0e\+00"):
        rep = solve(form, tol=0.0)
    assert rep.iterations == solver_module._MAX_ITER == 280
    assert not rep.converged
    assert rep.residual > 0.0


def _plain_inverse_power(form, tol):
    """Reference minimizer: the unmixed inverse power iteration, no step cap.

    Returns (quotient, steps) at the first unit iterate whose
    Euler-Lagrange residual is at most ``tol``.
    """
    mesh, s = form.mesh, form.s
    q = critical_exponent(mesh.dim, s)
    c_h = optimal_concentration(mesh.h, mesh.dim, s)
    w = interpolate(mesh, truncated_bubble(normalize_lambda(c_h, mesh.dim, s), c_h, mesh.dim, s))
    w = w.free_values
    factor = cho_factor(form.matrix)
    for steps in range(5000):
        u = FeFunction.from_free(mesh, w / lq_norm(FeFunction.from_free(mesh, w), q))
        Aw = form.matrix @ u.free_values
        mu = float(u.free_values @ Aw)
        b = nonlinear_residual(u, q)
        if np.linalg.norm(Aw - mu * b) <= tol * np.linalg.norm(Aw):
            return mu, steps
        w = cho_solve(factor, b)
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("level", [6, 8])
def test_small_s_converges_under_the_cap(level):
    form = _form(1, level, 0.1)
    rep = solve(form)
    assert rep.converged and rep.residual <= 1e-10
    assert rep.iterations < solver_module._MAX_ITER
    ref, ref_steps = _plain_inverse_power(form, 1e-10)
    assert ref_steps > solver_module._MAX_ITER
    assert abs(rep.s_h - ref) <= 1e-13 * ref


def test_products_by_linearity_stay_within_rounding():
    # at 1D L9, s = 0.1, the mixing coefficients reach |gamma|_1 of about
    # 365; a mixed A w formed from differences of the stored A g carries
    # each product's rounding times gamma, up to 238 ulp of the quotient,
    # and trips the rise guard.  From the products of the differences it
    # converges, and s_h is the minimizer's u . A u bitwise
    form = _form(1, 9, 0.1)
    rep = solve(form)
    assert rep.converged
    w = rep.minimizer.free_values
    assert rep.s_h == float(w @ form.apply(w))


def _noisy_residual(monkeypatch):
    """Perturb the solver's b(u) by 5% noise, which breaks the descent bound."""
    exact = solver_module.nonlinear_residual
    rng = np.random.default_rng(1)

    def noisy(u, q):
        b = exact(u, q)
        return b * (1 + 0.05 * rng.standard_normal(b.shape))

    monkeypatch.setattr(solver_module, "nonlinear_residual", noisy)


def test_quotient_rise_beyond_rounding_raises(monkeypatch):
    form = _form(1, 5, 0.25)
    _noisy_residual(monkeypatch)
    with pytest.raises(RuntimeError, match="quotient rose"):
        solve(form)


@pytest.mark.parametrize("dim, level, s", [(1, 8, 0.25), (1, 7, 0.1), (2, 2, 0.5), (2, 3, 0.5)])
def test_solve_leaves_the_matrix_as_assembled(dim, level, s):
    # the factor overwrites the lower triangle in place; the upper one,
    # which every product reads, is copied back over it on return
    form = _form(dim, level, s)
    before = form.matrix.copy()
    assert solve(form).converged
    assert np.array_equal(form.matrix, before)


def test_solve_restores_the_matrix_when_the_rise_guard_raises(monkeypatch):
    # at 1D L8 the 255 free nodes span tiles on and off the diagonal
    form = _form(1, 8, 0.25)
    before = form.matrix.copy()
    _noisy_residual(monkeypatch)
    with pytest.raises(RuntimeError, match="quotient rose"):
        solve(form)
    assert np.array_equal(form.matrix, before)


def test_solve_restores_the_matrix_when_the_factorization_fails(monkeypatch):
    # the real factorization runs and overwrites the lower triangle, and
    # only then is the failure raised
    form = _form(1, 8, 0.25)
    before = form.matrix.copy()
    factor = solver_module.cho_factor

    def failing(*args, **kwargs):
        factor(*args, **kwargs)
        raise np.linalg.LinAlgError("leading minor not positive definite")

    monkeypatch.setattr(solver_module, "cho_factor", failing)
    with pytest.raises(RuntimeError, match="assembled matrix is not positive definite"):
        solve(form)
    assert not np.shares_memory(before, form.matrix)
    assert np.array_equal(form.matrix, before)


def test_solve_holds_no_second_dense_array():
    # a cho_factor copy of the matrix grows the traced peak by about 1.16
    # matrices; factored in place, the solve and its slack audit stay far below
    form = _form(1, 10, 0.25)
    tracemalloc.start()
    try:
        solve(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * form.matrix.nbytes, peak / form.matrix.nbytes


@pytest.mark.parametrize("dim, level, s", [(1, 8, 0.25), (2, 2, 0.5)])
def test_apply_matches_the_matrix_product(dim, level, s):
    # symv on one triangle against the product with both: equal to rounding
    form = _form(dim, level, s)
    A = form.matrix
    w = np.random.default_rng(5).standard_normal(len(A))
    bound = len(A) * np.finfo(float).eps * (np.abs(A) @ np.abs(w))
    assert np.all(np.abs(form.apply(w) - A @ w) <= bound)


@pytest.mark.parametrize("dim, level, s", [(1, 5, 0.25), (2, 1, 0.5), (2, 1, 0.25)])
def test_inverse_power_step_does_not_raise_the_quotient(dim, level, s):
    form = _form(dim, level, s)
    mesh = form.mesh
    q = critical_exponent(dim, s)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = FeFunction.from_free(mesh, rng.uniform(0.05, 1.0, mesh.free_count))
        v = FeFunction.from_free(mesh, np.linalg.solve(form.matrix, nonlinear_residual(u, q)))
        assert quotient(form, v) <= quotient(form, u) * (1 + 16 * np.finfo(float).eps)
