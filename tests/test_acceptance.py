"""Acceptance gate: twelve end-to-end criteria, one verdict line each.

Every test prints (and logs for the terminal summary) a single
"criterion NN PASS/FAIL" line with the measured quantities before its
assertion runs, so the full scorecard is visible even when a criterion
fails.  Criterion 04 fits the normalization-amplitude exponent over widths
2^-3..2^-7 with the known leading truncation factor exp(e1 c^{N-2s}) divided
out (e1 = B(N/2, s) / B(N/2, N/2) in closed form) and holds the corrected
slope to -(N-2s)/2 within 10%; its verdict line also reports the raw slope,
which over that window is still far from the c -> 0 limit.
"""

import time

import numpy as np
import pytest
from scipy import special

from fracsobolev.bubble import Bubble, normalize_lambda
from fracsobolev.experiments import (
    discrete_constant_sweep,
    fit_manifold,
    fit_rate,
    make_rng,
    upper_bound_sweep,
    verify_covering,
    verify_functional_inequalities,
    verify_interp_error,
    verify_minimizing_sequence,
)
from fracsobolev.gagliardo import assemble, complement_weight
from fracsobolev.mesh import FeFunction, build_mesh, make_ball_mesh
from fracsobolev.norms import lq_norm
from fracsobolev.params import critical_exponent, exact_constant, rate_exponent
from fracsobolev.solver import deficit, solve


def _verdict(log, num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    log.append(line)
    return ok


def test_criterion_01_exact_constant_vs_slow_oracle(goldens, acceptance_log):
    t0 = time.perf_counter()
    errs = {}
    for key in ("1,0.25", "2,0.5"):
        N, s = key.split(",")
        got = exact_constant(int(N), float(s))
        ref = float(goldens["sharp_constant"][key])
        errs[key] = abs(got - ref) / ref
    elapsed = time.perf_counter() - t0
    ok = all(e <= 1e-8 for e in errs.values()) and elapsed < 10
    detail = (
        f"sharp constants vs slow oracle rel err "
        + " ".join(f"({k})={v:.2e}" for k, v in errs.items())
        + f", budget 1e-08, {elapsed:.2f}s"
    )
    assert _verdict(acceptance_log, 1, ok, detail), detail


def test_criterion_02_assembly_vs_adaptive_oracle(goldens, acceptance_log):
    t0 = time.perf_counter()
    worst_entry, worst_sym, min_eig = 0.0, 0.0, np.inf
    for key, ref in goldens["assembly_1d"].items():
        s = float(key.split(",")[-1])
        if key.startswith("custom"):
            nodes = np.array([-1.0, -0.2, 0.55, 1.0])[:, None]
            mesh = make_ball_mesh(1, nodes, np.array([[0, 1], [1, 2], [2, 3]]))
        else:
            mesh = build_mesh(1, int(key.split(",")[0][5:]))
        assert mesh.n_elements <= 8, key
        form = assemble(mesh, s)
        order = np.argsort(mesh.nodes[: mesh.free_count, 0])
        A = form.matrix[np.ix_(order, order)]
        ref = np.array(ref)
        worst_entry = max(worst_entry, float(np.max(np.abs(A - ref) / np.abs(ref))))
        worst_sym = max(
            worst_sym,
            float(np.max(np.abs(A - A.T)) / np.max(np.abs(A))),
        )
        min_eig = min(min_eig, float(np.linalg.eigvalsh(form.matrix)[0]))
    elapsed = time.perf_counter() - t0
    ok = worst_entry <= 1e-4 and worst_sym <= 1e-12 and min_eig > 0 and elapsed < 120
    detail = (
        f"entrywise rel err {worst_entry:.2e} (budget 1e-04), asymmetry "
        f"{worst_sym:.2e} (budget 1e-12), min eig {min_eig:.3e} > 0, {elapsed:.1f}s"
    )
    assert _verdict(acceptance_log, 2, ok, detail), detail


def test_criterion_03_profile_calculus_vs_finite_differences(acceptance_log):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_g, worst_h, worst_f = 0.0, 0.0, 0.0
    n_samples = 0
    while n_samples < 1000:
        dim = int(rng.integers(1, 3))
        s = float(rng.uniform(0.05, 0.45 if dim == 1 else 0.9))
        b = Bubble(
            dim,
            s,
            float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.05, 2.0)),
            rng.uniform(-0.5, 0.5, size=dim),
        )
        for _ in range(8):
            x = rng.uniform(-1.5, 1.5, size=dim)
            g = b.gradient(x)
            fd_g = np.zeros(dim)
            fd_h = np.zeros((dim, dim))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = 1e-6
                fd_g[i] = (b.evaluate(x + e) - b.evaluate(x - e)) / 2e-6
                e[i] = 1e-5
                fd_h[:, i] = (b.gradient(x + e) - b.gradient(x - e)) / 2e-5
            H = b.hessian(x)
            worst_g = max(worst_g, np.linalg.norm(g - fd_g) / max(1.0, np.linalg.norm(g)))
            sym_fd = 0.5 * (fd_h + fd_h.T)
            worst_h = max(worst_h, np.linalg.norm(H - sym_fd) / max(1.0, np.linalg.norm(H)))
            worst_f = max(
                worst_f,
                abs(np.sqrt(np.sum(H * H)) - float(b.hessian_frobenius(x)))
                / max(np.sqrt(np.sum(H * H)), 1e-300),
            )
            n_samples += 1
    elapsed = time.perf_counter() - t0
    ok = worst_g < 1e-8 and worst_h < 1e-6 and worst_f < 1e-12 and elapsed < 10
    detail = (
        f"{n_samples} samples: gradient fd err {worst_g:.2e} (budget 1e-08), "
        f"hessian fd err {worst_h:.2e} (budget 1e-06), frobenius err "
        f"{worst_f:.2e} (budget 1e-12), {elapsed:.1f}s"
    )
    assert _verdict(acceptance_log, 3, ok, detail), detail


def test_criterion_04_normalization_amplitude_scaling(acceptance_log):
    # -d/2 (d = N - 2s) is the exponent only as c -> 0; the leading truncation
    # correction exp(e1 c^d), e1 = B(N/2, s) / B(N/2, N/2), is known in closed
    # form (see normalize_lambda) and is divided out before the fit, not fitted.
    cs = [2.0**-k for k in range(3, 8)]
    slopes = {}
    for N, s in [(1, 0.25), (2, 0.5)]:
        d = N - 2 * s
        lams = [normalize_lambda(c, N, s) for c in cs]
        target = -d / 2.0
        e1 = float(special.beta(N / 2.0, s) / special.beta(N / 2.0, N / 2.0))
        raw = fit_rate(list(zip(cs, lams)))
        fit = fit_rate([(c, lam * np.exp(-e1 * c**d)) for c, lam in zip(cs, lams)])
        slopes[(N, s)] = (
            raw.slope, e1, fit.slope, target, abs(fit.slope - target) / abs(target)
        )
    ok = all(dev <= 0.10 for *_, dev in slopes.values())
    detail = "amplitude-vs-width slope over widths 2^-3..2^-7: " + " ".join(
        f"(N={N},s={s}) raw {raw:.5f}, e1 {e1:.5f}, corrected {sl:.5f} "
        f"vs target {tg:.3f} (off {dev:.1%})"
        for (N, s), (raw, e1, sl, tg, dev) in slopes.items()
    ) + "; budget 10%"
    assert _verdict(acceptance_log, 4, ok, detail), detail


def test_criterion_05_interpolation_error_rates(acceptance_log):
    t0 = time.perf_counter()
    rates = verify_interp_error(1, 0.25, 2.0, 0.25, list(range(4, 10)))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rates.lq_h.slope - 2.0) <= 0.15
        and abs(rates.grad_h.slope - 1.0) <= 0.15
        and elapsed < 300
    )
    detail = (
        f"L2 error h-slope {rates.lq_h.slope:.4f} (2 +/- 0.15), gradient h-slope "
        f"{rates.grad_h.slope:.4f} (1 +/- 0.15), width 0.25, levels 4..9, {elapsed:.1f}s"
    )
    assert _verdict(acceptance_log, 5, ok, detail), detail


def test_criterion_06_upper_bound_rate(acceptance_log):
    t0 = time.perf_counter()
    res = upper_bound_sweep(1, 0.3, list(range(5, 11)))
    elapsed = time.perf_counter() - t0
    vals = [r.value for r in res.records]
    alpha = rate_exponent(1, 0.3)
    ok = (
        all(v > 0 for v in vals)
        and all(b < a for a, b in zip(vals, vals[1:]))
        and 0.6 * alpha <= res.fit.slope <= 1.4 * alpha
        and elapsed <= 1800
    )
    detail = (
        f"deficits positive and decreasing over levels 5..10, fitted slope "
        f"{res.fit.slope:.5f} in [{0.6 * alpha:.5f}, {1.4 * alpha:.5f}] "
        f"(alpha={alpha:.5f}), r2={res.fit.r_squared:.5f}, {elapsed:.1f}s"
    )
    assert _verdict(acceptance_log, 6, ok, detail), detail


def test_criterion_07_discrete_constant_sweep(acceptance_log):
    t0 = time.perf_counter()
    res = discrete_constant_sweep(1, 0.25, list(range(4, 9)))
    elapsed = time.perf_counter() - t0
    S = exact_constant(1, 0.25)
    s_h = res.details["s_h"]
    gaps = [r.value for r in res.records]
    slacks = [r.slack for r in res.records]
    lower_ok = all(v >= S - sl for v, sl in zip(s_h, slacks))
    slack_ok = all(sl <= 1e-6 for sl in slacks)
    nested_ok = all(b <= a for a, b in zip(s_h, s_h[1:]))
    upper_ok = all(g <= w for g, w in zip(gaps, res.details["warm_deficit"]))
    slope_ok = 0.2625 <= res.fit.slope <= 0.6125
    ok = lower_ok and slack_ok and nested_ok and upper_ok and slope_ok and elapsed <= 1800
    detail = (
        f"levels 4..8: S_h >= S - slack {lower_ok}, max slack {max(slacks):.2e} "
        f"(budget 1e-06), non-increasing {nested_ok}, gap <= interpolant deficit "
        f"{upper_ok}, slope {res.fit.slope:.5f} in [0.2625, 0.6125], {elapsed:.1f}s"
    )
    assert _verdict(acceptance_log, 7, ok, detail), detail


def test_criterion_08_stability_ratio_band(acceptance_log):
    ratios = []
    q = critical_exponent(1, 0.25)
    for lev in range(5, 9):
        mesh = build_mesh(1, lev)
        form = assemble(mesh, 0.25)
        rep = solve(form)
        mf = fit_manifold(form, rep.minimizer)
        d = deficit(form, rep.minimizer)
        ratios.append(d * lq_norm(rep.minimizer, q) ** 2 / mf.discrete_distance_sq)
    band = max(ratios) / min(ratios)
    ok = all(r > 0 for r in ratios) and band <= 10.0
    detail = (
        "deficit*norm^2/distance^2 over levels 5..8: "
        + " ".join(f"{r:.3f}" for r in ratios)
        + f", band max/min {band:.3f} (budget 10)"
    )
    assert _verdict(acceptance_log, 8, ok, detail), detail


def test_criterion_09_minimizing_sequence(acceptance_log):
    out = verify_minimizing_sequence(1, 0.25, [0.2, 0.1, 0.05])
    gaps, ratios = out["gaps"], out["ratios"]
    ok = (
        all(g > 0 for g in gaps)
        and out["monotone"]
        and all(1.2 <= r <= 1.7 for r in ratios)
    )
    detail = (
        f"widths 0.2/0.1/0.05: gaps "
        + " ".join(f"{g:.5f}" for g in gaps)
        + ", halving ratios "
        + " ".join(f"{r:.4f}" for r in ratios)
        + " in [1.2, 1.7]"
    )
    assert _verdict(acceptance_log, 9, ok, detail), detail


def test_criterion_10_covering_audit(acceptance_log):
    outs = {N_s: verify_covering(*N_s, 10000, seed=0) for N_s in [(1, 0.25), (2, 0.5)]}
    ok = all(
        o["min_ratio"] > 0 and o["doubling_change"] <= 0.2 for o in outs.values()
    )
    detail = " ".join(
        f"(N={N}) min ratio {o['min_ratio']:.4f} > 0, doubling change "
        f"{o['doubling_change']:.4f} <= 0.2"
        for (N, _), o in outs.items()
    ) + "; 10000 samples each, 1D sign-flip band excluded"
    assert _verdict(acceptance_log, 10, ok, detail), detail


def test_criterion_11_functional_inequalities(acceptance_log):
    mesh = build_mesh(1, 5)
    rng = make_rng(0)
    funcs = [
        FeFunction.from_free(mesh, rng.standard_normal(mesh.free_count))
        for _ in range(50)
    ]
    out = verify_functional_inequalities(1, 0.25, funcs, seed=0)
    redraw = verify_functional_inequalities(1, 0.25, funcs, seed=1)
    cube_dev = max(
        abs(out["cube_constants"][k] - redraw["cube_constants"][k])
        / out["cube_constants"][k]
        for k in out["cube_constants"]
    )
    ok = (
        out["poincare_holds"]
        and out["gn_doubling_change"] <= 0.2
        and cube_dev <= 0.5
    )
    detail = (
        f"per-element mean-oscillation bound holds on 50 functions (max ratio "
        f"{out['poincare_max_ratio']:.4f} <= 1), interpolation-constant doubling "
        f"change {out['gn_doubling_change']:.4f} <= 0.2, cube-constant redraw "
        f"deviation {cube_dev:.4f} <= 0.5"
    )
    assert _verdict(acceptance_log, 11, ok, detail), detail


def test_criterion_12_two_dimensional_smoke(acceptance_log):
    t0 = time.perf_counter()
    mesh = build_mesh(2, 2)
    form = assemble(mesh, 0.5)
    A = form.matrix
    sym = float(np.max(np.abs(A - A.T)) / np.max(np.abs(A)))
    min_eig = float(np.linalg.eigvalsh(A)[0])
    kappa_dev = 0.0
    for r in (0.0, 0.3, 0.8):
        angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        pts = r * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        vals = complement_weight(pts, 2, 0.5)
        kappa_dev = max(kappa_dev, float(np.max(np.abs(vals - vals[0])) / vals[0]))
    rep = solve(form)
    S = exact_constant(2, 0.5)
    elapsed = time.perf_counter() - t0
    ok = (
        sym <= 1e-12
        and min_eig > 0
        and kappa_dev <= 1e-8
        and rep.s_h >= S - rep.quadrature_slack
        and elapsed <= 1200
    )
    detail = (
        f"level 2 disk: asymmetry {sym:.2e}, min eig {min_eig:.3e} > 0, complement "
        f"weight rotation deviation {kappa_dev:.2e} <= 1e-08 at 8 angles, "
        f"S_h={rep.s_h:.5f} >= {S:.5f} - {rep.quadrature_slack:.1e}, {elapsed:.1f}s"
    )
    assert _verdict(acceptance_log, 12, ok, detail), detail
