"""Sweep drivers, CSV round trips, and the sampling audits."""

import dataclasses
import re

import numpy as np
import pytest

from fracsobolev import experiments
from fracsobolev.experiments import (
    RNG_NAME,
    SweepRecord,
    discrete_constant_sweep,
    fit_rate,
    make_rng,
    read_records,
    upper_bound_sweep,
    verify_covering,
    verify_functional_inequalities,
    verify_interp_error,
    verify_minimizing_sequence,
    write_records,
)
from fracsobolev.gagliardo import assemble
from fracsobolev.mesh import FeFunction, SizeLimitError, build_mesh, evaluate, interpolate
from fracsobolev.params import exact_constant, rate_exponent
from fracsobolev.solver import default_start, deficit, solve

# ------------------------------------------------------------- rate fits


def test_fit_rate_recovers_power_law():
    hs = [0.5, 0.25, 0.125, 0.0625]
    fit = fit_rate([(h, 3.0 * h**1.7) for h in hs])
    assert abs(fit.slope - 1.7) < 1e-12
    assert abs(np.exp(fit.intercept) - 3.0) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.points_used == 4


def test_fit_rate_constant_data_has_unit_r_squared():
    fit = fit_rate([(0.5, 2.0), (0.25, 2.0), (0.125, 2.0)])
    assert abs(fit.slope) < 1e-12
    assert fit.r_squared == 1.0


def test_fit_rate_rejections():
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.25, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (-0.25, 0.5), (0.125, 0.25)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.25, 0.0), (0.125, 0.25)])
    # every comparison with NaN is False, so `v <= 0` lets it through to slope=nan
    for bad in [(0.25, np.nan), (0.25, np.inf), (np.nan, 0.5), (np.inf, 0.5)]:
        with pytest.raises(ValueError, match=re.escape(f"got {bad}")):
            fit_rate([(0.5, 1.0), bad, (0.125, 0.25)])


# ------------------------------------------------------------------- CSV


def _sample_records():
    return [
        SweepRecord(4, 0.5, np.pi / 7, 1.0 / 3.0, 1e-17, 0.123),
        SweepRecord(5, 0.25, 0.1 + 2e-16, 0.7, 0.0, 4.56),
        SweepRecord(6, 0.125, 1e-300, 2.0**-40, 3e-8, 0.0),
    ]


def test_csv_header_and_exact_roundtrip(tmp_path):
    path = tmp_path / "sweep.csv"
    recs = _sample_records()
    write_records(path, recs)
    first = path.read_text().splitlines()[0]
    assert first == "level,h,c_h,value,slack,wall_time"
    back = read_records(path)
    assert back == recs
    for a, b in zip(back, recs):
        for f in dataclasses.fields(SweepRecord):
            assert getattr(a, f.name) == getattr(b, f.name), f.name


def test_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.csv"
    recs = _sample_records()
    with pytest.raises(ValueError):
        write_records(path, [recs[1], recs[0]])
    path.write_text("level,h,value\n")
    with pytest.raises(ValueError):
        read_records(path)
    path.write_text("level,h,c_h,value,slack,wall_time\n4,0.5,0.1,1.0\n")
    with pytest.raises(ValueError):
        read_records(path)


# ---------------------------------------------------------------- sweeps


def test_upper_bound_sweep_small_window():
    res = upper_bound_sweep(1, 0.25, [4, 5, 6])
    assert res.failures == []
    assert [r.level for r in res.records] == [4, 5, 6]
    assert all(r.value > 0 for r in res.records)
    assert all(r.slack < 1e-6 for r in res.records)
    assert res.fit.slope > 0.15
    assert res.details["alpha"] == rate_exponent(1, 0.25)
    # L4 sums every pair at rule level 1; L6 bounds the pairs beyond its band
    cutoffs, tails = res.details["audit_cutoff"], res.details["tail_bound"]
    assert cutoffs[0] == float("inf") and tails[0] == 0.0
    assert cutoffs[-1] < float("inf") and 0.0 < tails[-1] <= 1e-3 * res.records[-1].slack
    with pytest.raises(ValueError):
        upper_bound_sweep(1, 0.25, [5, 4, 6])
    with pytest.raises(ValueError):
        upper_bound_sweep(1, 0.75, [4, 5, 6])


def test_upper_bound_sweep_reproducible():
    a = upper_bound_sweep(1, 0.25, [4, 5, 6])
    b = upper_bound_sweep(1, 0.25, [4, 5, 6])
    for ra, rb in zip(a.records, b.records):
        assert (ra.level, ra.h, ra.c_h, ra.value, ra.slack) == (
            rb.level,
            rb.h,
            rb.c_h,
            rb.value,
            rb.slack,
        )
    assert a.fit == b.fit


def test_discrete_constant_sweep_small_window(monkeypatch):
    # the sweep reports S_h and its gap; the manifold fit is a diagnostic
    # of a solved level that no sweep calls
    def refused(*args, **kwargs):
        raise AssertionError("discrete_constant_sweep called fit_manifold")

    monkeypatch.setattr(experiments, "fit_manifold", refused)
    res = discrete_constant_sweep(1, 0.25, [4, 5, 6])
    # warm_deficit is each level's default-start deficit, start_deficit
    # that of solve's first iterate: the same function at the first
    # level, the prolonged minimizer, much closer, after it
    for i, level in enumerate([4, 5, 6]):
        mesh = build_mesh(1, level)
        assert res.details["warm_deficit"][i] == deficit(assemble(mesh, 0.25), default_start(mesh, 0.25))
    defaults, starts = res.details["warm_deficit"], res.details["start_deficit"]
    assert starts[0] == pytest.approx(defaults[0], rel=1e-12)
    assert all(b < 0.7 * d for b, d in zip(starts[1:], defaults[1:]))
    assert res.failures == []
    assert not {"c_fit", "fit_centers", "c_fit_regression"} & set(res.details)
    gaps = [r.value for r in res.records]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert res.fit.slope > 0
    assert all(res.details["converged"])
    assert all(0 < k <= n for k, n in zip(res.details["mixed_steps"], res.details["iterations"]))
    # the minimum is no higher than the default start's quotient
    for gap, warm in zip(gaps, res.details["warm_deficit"]):
        assert gap <= warm
    # each level's audit cutoff and the bound part of its slack
    assert len(res.details["audit_cutoff"]) == len(res.details["tail_bound"]) == 3
    assert all(0.0 <= t <= r.slack for t, r in zip(res.details["tail_bound"], res.records))


@pytest.mark.parametrize("N, s, levels", [(1, 0.25, [4, 5, 6]), (2, 0.5, [0, 1, 2])])
def test_sweep_starts_each_level_from_the_prolonged_minimizer(monkeypatch, N, s, levels):
    # nested iteration: the first level starts from solve's default, every
    # later one from the minimizer below evaluated at its nodes, and each
    # S_h is the default-start solve's to rounding
    starts, minimizers = [], []

    def recording(form, init=None, tol=1e-10):
        rep = solve(form, init=init, tol=tol)
        starts.append(init)
        minimizers.append(rep.minimizer)
        return rep

    monkeypatch.setattr(experiments, "solve", recording)
    res = discrete_constant_sweep(N, s, levels)
    assert starts[0] is None
    for below, init in zip(minimizers, starts[1:]):
        assert init is not None
        want = interpolate(init.mesh, lambda x: evaluate(below, x))
        assert np.array_equal(init.values, want.values)
    for level, s_h in zip(levels, res.details["s_h"]):
        cold = solve(assemble(build_mesh(N, level), s)).s_h
        assert abs(s_h - cold) <= 1e-12 * cold


def test_sweep_records_a_refused_level_as_one_failure():
    # level 13 has 16,385 nodes; the dense form, factored in place, would
    # need about 2.15 GB, so assemble refuses it before allocating and the
    # sweep fits the rest
    res = discrete_constant_sweep(1, 0.25, [4, 5, 6, 13])
    assert [r.level for r in res.records] == [4, 5, 6]
    assert len(res.failures) == 1
    level, message = res.failures[0]
    assert level == 13
    assert message.startswith("SizeLimitError: dense assembly needs")
    assert res.fit.points_used == 3


def test_sweep_with_every_level_refused_by_size_raises_size_limit():
    # 2D levels 9..11 exceed the mesh storage estimate, so build_mesh
    # refuses each before allocating and no rate fit is possible
    with pytest.raises(SizeLimitError, match="only 0 levels fit the size caps, need 3 for a rate fit"):
        upper_bound_sweep(2, 0.5, [9, 10, 11])


@pytest.mark.parametrize(
    "sweep, N, s, levels, measured",
    [
        # 1D L13 and L14 exceed the dense cap, which assemble applies
        (discrete_constant_sweep, 1, 0.25, [11, 13, 14], "assemble"),
        # 2D L9 and L10 exceed the mesh storage estimate of build_mesh
        (upper_bound_sweep, 2, 0.5, [2, 9, 10], "seminorm_sq_direct"),
    ],
    ids=["solve", "upper"],
)
def test_sweep_left_too_few_levels_by_the_caps_measures_none(monkeypatch, sweep, N, s, levels, measured):
    def refuse(*args, **kwargs):
        raise AssertionError("a level was measured")

    monkeypatch.setattr(experiments, measured, refuse)
    with pytest.raises(SizeLimitError, match="only 1 levels fit the size caps, need 3 for a rate fit"):
        sweep(N, s, levels)


def test_sweep_lets_a_linalg_error_propagate(monkeypatch):
    # no level raises LinAlgError by design: solve turns its factorization's
    # failure into AssemblyError, which names the form as not positive definite
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("not a level failure")

    monkeypatch.setattr(experiments, "solve", broken)
    with pytest.raises(np.linalg.LinAlgError, match="not a level failure"):
        discrete_constant_sweep(1, 0.25, [4, 5, 6])


def test_sweep_records_an_indefinite_level_as_an_assembly_failure(monkeypatch):
    # a negated form is symmetric, so assemble returns it; solve's
    # factorization refuses it, and the sweep fits the other levels
    real = experiments.assemble

    def negated_at_level_5(mesh, s):
        form = real(mesh, s)
        if mesh.free_count == 63:
            np.negative(form.matrix, out=form.matrix)
        return form

    monkeypatch.setattr(experiments, "assemble", negated_at_level_5)
    res = discrete_constant_sweep(1, 0.25, [4, 5, 6, 7])
    assert [r.level for r in res.records] == [4, 6, 7]
    assert res.failures == [(5, "AssemblyError: assembled matrix is not positive definite")]


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
def test_sweep_refuses_a_bad_tol_before_any_level(monkeypatch, tol):
    def refuse(*args, **kwargs):
        raise AssertionError("a level was assembled")

    monkeypatch.setattr(experiments, "assemble", refuse)
    with pytest.raises(ValueError, match=re.escape(f"tol must be a finite number >= 0, got {tol!r}")):
        discrete_constant_sweep(1, 0.25, [4, 5, 6], tol=tol)


def test_sweep_raises_on_a_programming_error(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a level failure")

    monkeypatch.setattr(experiments, "assemble", broken)
    with pytest.raises(TypeError, match="not a level failure"):
        discrete_constant_sweep(1, 0.25, [4, 5, 6])


# --------------------------------------------------- interpolation rates


def test_interp_error_rates():
    rates = verify_interp_error(1, 0.25, 2.0, 0.25, [5, 6, 7])
    assert abs(rates.lq_h.slope - 2.0) < 0.2
    assert abs(rates.grad_h.slope - 1.0) < 0.2
    expected = rates.details["expected_c_slope"]
    assert expected == -(0.5 - 0.5 + 2 - 0.25)
    assert abs(rates.lq_c.slope - expected) / abs(expected) < 0.25
    assert rates.details["fine_level"] == 8


def test_interp_error_validation():
    with pytest.raises(ValueError):
        verify_interp_error(1, 0.25, 0.5, 0.25, [5, 6])
    with pytest.raises(ValueError):
        verify_interp_error(1, 0.25, 2.0, 0.25, [3, 4])  # h too coarse for c


@pytest.mark.parametrize("c", [-1, 0.0, np.inf, np.nan])
def test_interp_error_refuses_a_bad_width_before_any_mesh(monkeypatch, c):
    # the profile is built first, so a width that is not a finite number
    # > 0 is refused by name, not as a coarse mesh or a failed quadrature
    def no_mesh(dim, level):
        raise AssertionError(f"built the mesh of level {level}")

    monkeypatch.setattr(experiments, "build_mesh", no_mesh)
    with pytest.raises(ValueError, match="concentration must be a finite number > 0") as info:
        verify_interp_error(1, 0.25, 2.0, c, [4, 5, 6])
    assert not isinstance(info.value, experiments.WidthError)


def test_interp_error_refuses_a_fine_quadrature_too_large(monkeypatch):
    # levels 4..6 meet the fine level 7, 39.3M order-10 points in 2D, before
    # any level is measured
    monkeypatch.setattr(experiments, "_interp_errors", None)
    with pytest.raises(SizeLimitError, match="level 7 needs about 3.8 GB for the 39321600 points"):
        verify_interp_error(2, 0.5, 2.0, 0.25, [4, 5, 6])


@pytest.mark.parametrize("q", [np.nan, np.inf])
def test_interp_error_rejects_non_finite_q(q):
    with pytest.raises(ValueError, match="finite number >= 1"):
        verify_interp_error(1, 0.25, q, 0.25, [5, 6, 7])


@pytest.mark.parametrize(
    "run",
    [
        lambda levels: upper_bound_sweep(1, 0.3, levels),
        lambda levels: discrete_constant_sweep(1, 0.3, levels),
        lambda levels: verify_interp_error(1, 0.3, 4.0, 0.25, levels),
    ],
    ids=["upper", "solve", "interp"],
)
def test_fractional_levels_raise(run):
    # int() would truncate these to levels 4, 5 and 6 and run them
    with pytest.raises(ValueError, match="4.7"):
        run([4.7, 5.2, 6.9])


@pytest.mark.parametrize(
    "run, levels, reason",
    [
        (lambda levels: upper_bound_sweep(1, 0.3, levels), [0, 1, 2, 3], "1D level 0"),
        (lambda levels: discrete_constant_sweep(1, 0.25, levels), [0, 4, 5], "1D level 0"),
        (lambda levels: discrete_constant_sweep(2, 0.5, levels), [0, 1], "fewer than the 3"),
        (lambda levels: upper_bound_sweep(1, 0.3, levels), [5], "fewer than the 3"),
        (lambda levels: verify_interp_error(1, 0.3, 4.0, 0.25, levels), [0, 5, 6], "1D level 0"),
    ],
    ids=["upper-1d-L0", "solve-1d-L0", "solve-2d-two", "upper-one", "interp-1d-L0"],
)
def test_unusable_levels_raise_before_any_mesh(monkeypatch, run, levels, reason):
    # a level list that cannot give a rate fails before the first mesh: 1D
    # level 0 has h = 1, outside optimal_concentration's (0, 1), and fewer
    # than three levels cannot be fitted
    def no_mesh(dim, level):
        raise AssertionError(f"built the mesh of level {level}")

    monkeypatch.setattr(experiments, "build_mesh", no_mesh)
    with pytest.raises(ValueError, match=reason):
        run(levels)


# --------------------------------------------------------- covering audit


def test_covering_audit_matches_frozen_floor(goldens):
    out = verify_covering(2, 0.5, 10000, seed=0)
    ref = float(goldens["regression"]["covering_floor,2,0.5,10000,seed0"])
    assert out["min_ratio"] > 0
    assert abs(out["min_ratio"] - ref) <= 1e-12 * ref
    assert out["doubling_change"] < 0.2
    assert out["rng"] == RNG_NAME


def test_covering_audit_1d_positive():
    out = verify_covering(1, 0.25, 2000, seed=3)
    assert out["min_ratio"] > 0
    with pytest.raises(ValueError):
        verify_covering(1, 0.25, 100)


def test_make_rng_deterministic():
    a = make_rng(11).standard_normal(5)
    b = make_rng(11).standard_normal(5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [1.5, -1])
def test_make_rng_refuses_a_seed_that_is_not_an_integer_ge_0(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer >= 0"):
        make_rng(seed)


@pytest.mark.parametrize(
    "run, argument",
    [
        (lambda: verify_covering(1, 0.25, 1000, seed=1.5), "seed"),
        (lambda: verify_covering(1, 0.25, 1000.5), "samples"),
        (lambda: verify_functional_inequalities(1, 0.25, [], seed=1.5), "seed"),
    ],
    ids=["covering-seed", "covering-samples", "inequalities-seed"],
)
def test_audits_refuse_a_count_that_is_not_an_integer_by_name(run, argument):
    # a record names the seed its run used: PCG64 would take 1.5 as 1
    with pytest.raises(ValueError, match=rf"{argument} must be an integer >= "):
        run()


def test_numpy_integer_seeds_and_counts_match_python_ones():
    assert np.array_equal(make_rng(np.int64(11)).standard_normal(5), make_rng(11).standard_normal(5))
    ours = verify_covering(1, 0.25, np.int64(1000), seed=np.uint32(3))
    assert ours["min_ratio"] == verify_covering(1, 0.25, 1000, seed=3)["min_ratio"]


# --------------------------------------------- minimizing-sequence audit


def test_minimizing_sequence_gaps_shrink():
    out = verify_minimizing_sequence(1, 0.25, [0.2, 0.1, 0.05])
    assert out["monotone"]
    assert all(g > 0 for g in out["gaps"])
    assert out["expected_halving_ratio"] == 2.0**0.5
    for r in out["ratios"]:
        assert 1.2 <= r <= 1.7
    for bad, why in [
        ([0.1, 0.2], "strictly decreasing"),
        ([0.4, 0.2], "lie in (0, 1/3)"),
        # every comparison with NaN is False: only a test that a width must pass refuses it
        ([np.nan, 0.1], "lie in (0, 1/3)"),
        ([0.2, np.nan], "lie in (0, 1/3)"),
        ([0.2, np.inf], "lie in (0, 1/3)"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"{why}, got {bad!r}")):
            verify_minimizing_sequence(1, 0.25, bad)


@pytest.mark.parametrize("eps", [[], [0.1]])
def test_minimizing_sequence_needs_two_widths(eps):
    # no ratio to check, so a vacuous "monotone" would read as a pass
    with pytest.raises(ValueError, match=re.escape(f"two widths, got {eps!r}")):
        verify_minimizing_sequence(1, 0.25, eps)


# ------------------------------------------------- inequality audits


def _random_fe_functions(mesh, n, seed):
    rng = make_rng(seed)
    return [
        FeFunction.from_free(mesh, rng.standard_normal(mesh.free_count))
        for _ in range(n)
    ]


def test_functional_inequalities_1d():
    mesh = build_mesh(1, 4)
    out = verify_functional_inequalities(1, 0.25, _random_fe_functions(mesh, 12, 5))
    assert out["poincare_holds"]
    assert 0 < out["poincare_max_ratio"] <= 1.0
    assert out["gn_max_ratio"] > 0
    assert out["gn_doubling_change"] < 0.5
    assert out["cube_spread"] >= 1.0


def test_functional_inequalities_2d_smoke():
    mesh = build_mesh(2, 0)
    out = verify_functional_inequalities(2, 0.5, _random_fe_functions(mesh, 6, 9))
    assert out["poincare_holds"]
    assert out["gn_max_ratio"] > 0


def test_functional_inequalities_validation():
    mesh = build_mesh(1, 3)
    with pytest.raises(ValueError):
        verify_functional_inequalities(1, 0.25, [])
    zero = FeFunction.from_free(mesh, np.zeros(mesh.free_count))
    with pytest.raises(ValueError):
        verify_functional_inequalities(1, 0.25, [zero])
    other = build_mesh(1, 2)
    mixed = [
        FeFunction.from_free(mesh, np.ones(mesh.free_count)),
        FeFunction.from_free(other, np.ones(other.free_count)),
    ]
    with pytest.raises(ValueError):
        verify_functional_inequalities(1, 0.25, mixed)


@pytest.mark.parametrize(
    "audit, dim",
    [
        pytest.param(
            lambda: verify_minimizing_sequence(3, 0.5, [0.2, 0.1]), 3, id="sequence-3d"
        ),
        pytest.param(lambda: verify_covering(3, 0.5, 1000), 3, id="covering-3d"),
        pytest.param(
            lambda: verify_functional_inequalities(
                2, 0.25, _random_fe_functions(build_mesh(1, 3), 2, 0)
            ),
            2,
            id="inequalities-1d-mesh",
        ),
    ],
)
def test_audits_name_an_unsupported_dimension(audit, dim):
    with pytest.raises(ValueError, match=f"not (in )?dimension {dim}"):
        audit()
