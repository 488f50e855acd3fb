"""Rate sweeps, slope fits, and inequality audits over the assembled pipeline.

Each sweep produces plain records that serialize to CSV losslessly
(floats written with repr round-trip exactly).  Sampling operations take
an explicit seed and report it, so every run is reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from ._quad import QuadratureError, reference_rule
from .bubble import Bubble, normalize_lambda, truncated_bubble
from .gagliardo import (
    AssemblyError,
    assemble,
    element_self_interaction,
    seminorm_sq_direct,
)
from .mesh import (
    BallMesh,
    FeFunction,
    SizeLimitError,
    build_mesh,
    element_geometry,
    interpolate,
)
from .norms import lq_norm
from .params import (
    check_order,
    critical_exponent,
    exact_constant,
    optimal_concentration,
    rate_exponent,
)
from .solver import default_start, fit_manifold, quotient, solve

__all__ = [
    "RNG_NAME",
    "InterpRates",
    "RateFit",
    "SweepRecord",
    "SweepResult",
    "discrete_constant_sweep",
    "fit_rate",
    "make_rng",
    "read_records",
    "upper_bound_sweep",
    "verify_covering",
    "verify_functional_inequalities",
    "verify_interp_error",
    "verify_minimizing_sequence",
    "write_records",
]

RNG_NAME = "pcg64"


def make_rng(seed: int) -> np.random.Generator:
    """Seeded 64-bit generator; the algorithm name is RNG_NAME."""
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class SweepRecord:
    """One sweep level: mesh size, profile concentration, measured value."""

    level: int
    h: float
    c_h: float
    value: float
    slack: float
    wall_time: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log h, log value)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


@dataclass(frozen=True)
class SweepResult:
    """Records plus the fitted rate; per-level failures listed, not raised."""

    records: list
    fit: RateFit | None
    failures: list
    details: dict


@dataclass(frozen=True)
class InterpRates:
    """Fitted interpolation-error rates in h and in the concentration."""

    lq_h: RateFit
    grad_h: RateFit
    lq_c: RateFit
    details: dict


def fit_rate(points) -> RateFit:
    """Fit value ~ C * h^slope by least squares on logs.

    Rejects fewer than 3 points and any point that is not finite and
    positive.  Callers remove outliers themselves; no point is dropped here.
    """
    pts = [(float(h), float(v)) for h, v in points]
    if len(pts) < 3:
        raise ValueError("rate fit needs at least 3 points")
    for p in pts:
        if not all(0 < x < np.inf for x in p):
            raise ValueError(f"rate fit needs finite positive points, got {p}")
    x = np.log([h for h, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(float(slope), float(intercept), r_sq, len(pts))


# ------------------------------------------------------------------ CSV

_CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


def write_records(path, records) -> None:
    """Write sweep records as CSV; floats use repr so parsing is exact."""
    hs = [r.h for r in records]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("records must have strictly decreasing h")
    lines = [_CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [str(r.level)]
                + [repr(float(v)) for v in (r.h, r.c_h, r.value, r.slack, r.wall_time)]
            )
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_records(path) -> list:
    """Parse a CSV written by write_records; exact round trip."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"expected header {_CSV_HEADER!r}")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed record line: {ln!r}")
        out.append(
            SweepRecord(
                int(parts[0]),
                *(float(p) for p in parts[1:]),
            )
        )
    return out


# ---------------------------------------------------------------- sweeps


def _check_problem(N, s) -> None:
    """check_order, and a dimension the meshes cover."""
    check_order(N, s)
    if N not in (1, 2):
        raise ValueError(f"experiments cover dimensions 1 and 2, not dimension {N}")


def _check_levels(levels) -> list:
    levels = list(levels)
    # build_mesh's rule: int(4.7) would silently run level 4
    if not all(isinstance(lev, (int, np.integer)) for lev in levels):
        raise ValueError(f"levels must be integers, got {levels}")
    levels = [int(lev) for lev in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    return levels


# Failures a level can have by design; anything else is a defect and raises.
_LEVEL_FAILURES = (AssemblyError, QuadratureError, np.linalg.LinAlgError, SizeLimitError)


def _sweep_levels(N: int, levels, measure):
    """Run ``measure(mesh)`` on the mesh of every level.

    ``measure`` returns (c_h, value, slack, extras); each level becomes a
    timed SweepRecord, its extras are collected per key into ``details``,
    and a level that fails with one of _LEVEL_FAILURES becomes a
    (level, message) failure row.  Returns (records, failures, details)
    and raises unless at least three levels succeed, the minimum for a
    rate fit.
    """
    records, failures, details = [], [], {}
    for lev in _check_levels(levels):
        t0 = time.perf_counter()
        try:
            mesh = build_mesh(N, lev)
            c_h, value, slack, extras = measure(mesh)
        except _LEVEL_FAILURES as exc:
            failures.append((lev, f"{type(exc).__name__}: {exc}"))
            continue
        records.append(
            SweepRecord(lev, mesh.h, c_h, value, slack, time.perf_counter() - t0)
        )
        for key, val in extras.items():
            details.setdefault(key, []).append(val)
    if len(records) < 3:
        raise RuntimeError(
            f"only {len(records)} levels succeeded, need 3 for a rate fit; "
            f"failures: {failures}"
        )
    return records, failures, details


def upper_bound_sweep(N: int, s: float, levels) -> SweepResult:
    """Deficit of the interpolated balanced-concentration profile per level.

    The theory predicts deficit ~ h^alpha for the concentration choice
    c_h = optimal_concentration(h); the fitted slope estimates alpha.
    """
    _check_problem(N, s)
    q = critical_exponent(N, s)
    S = exact_constant(N, s)

    def measure(mesh):
        c_h = optimal_concentration(mesh.h, N, s)
        lam = normalize_lambda(c_h, N, s)
        u = interpolate(mesh, truncated_bubble(lam, c_h, N, s))
        value = seminorm_sq_direct(mesh, s, u) / lq_norm(u, q) ** 2 - S
        boosted = (
            seminorm_sq_direct(mesh, s, u, boost=1)
            / lq_norm(u, q, order=12) ** 2
            - S
        )
        return c_h, value, abs(boosted - value), {}

    records, failures, _ = _sweep_levels(N, levels, measure)
    if any(r.value <= 0 for r in records):
        raise RuntimeError("a recorded deficit is non-positive; quadrature suspect")
    fit = fit_rate([(r.h, r.value) for r in records])
    return SweepResult(records, fit, failures, {"alpha": rate_exponent(N, s)})


def discrete_constant_sweep(N: int, s: float, levels, tol: float = 1e-10) -> SweepResult:
    """Gap of the minimized discrete constant above the sharp one, per level.

    Also fits the profile concentration of each minimizer; its regression
    against h is reported in details (the balancing heuristic predicts
    slope 2(2-s)/(N+4(1-s)), recorded for inspection, not asserted).
    """
    _check_problem(N, s)
    S = exact_constant(N, s)

    def measure(mesh):
        form = assemble(mesh, s)
        warm = default_start(form)
        warm_q = quotient(form, warm)
        rep = solve(form, init=warm, tol=tol)
        if rep.s_h > warm_q:
            raise RuntimeError("minimization worsened the warm start")
        mf = fit_manifold(form, rep.minimizer)
        extras = {
            "s_h": rep.s_h,
            "warm_deficit": warm_q - S,
            "converged": rep.converged,
            "iterations": rep.iterations,
            "mixed_steps": rep.mixed_steps,
            "residual": rep.residual,
            "c_fit": mf.concentration,
            "fit_centers": mf.center,
        }
        c_h = optimal_concentration(mesh.h, N, s)
        return c_h, rep.s_h - S, rep.quadrature_slack, extras

    records, failures, details = _sweep_levels(N, levels, measure)
    gaps = [r.value for r in records]
    if any(g <= r.slack for g, r in zip(gaps, records)):
        raise RuntimeError("a gap is not positive beyond quadrature slack")
    if any(b > a for a, b in zip(gaps, gaps[1:])):
        raise RuntimeError("gaps increased under refinement; nestedness violated")
    fit = fit_rate([(r.h, r.value) for r in records])
    if fit.slope <= 0:
        raise RuntimeError("fitted gap slope is not positive")
    details["c_fit_regression"] = fit_rate(
        [(r.h, c) for r, c in zip(records, details["c_fit"])]
    )
    details["alpha"] = rate_exponent(N, s)
    return SweepResult(records, fit, failures, details)


# ----------------------------------------------- interpolation-error rates


_INTERP_WIDTHS = [2.0**-k for k in range(2, 6)]


def _element_quad_points(mesh: BallMesh, order: int):
    geo = element_geometry(mesh)
    bary, weights = reference_rule(mesh.dim, order)
    pts = np.einsum("qa,bad->bqd", bary, geo.verts)
    scale = geo.measure / weights.sum()
    return geo, bary, weights, pts, scale


def _interp_errors(mesh, psi, u, q, order=10):
    """(L^q error, L^2 gradient error) of psi minus its interpolant."""
    geo, bary, weights, pts, scale = _element_quad_points(mesh, order)
    flat = pts.reshape(-1, mesh.dim)
    exact = psi.evaluate(flat).reshape(pts.shape[:2])
    u_elem = u.values[mesh.elements]
    approx = np.einsum("qa,ba->bq", bary, u_elem)
    err_q = float(
        np.sum(scale * (np.abs(exact - approx) ** q @ weights))
    ) ** (1.0 / q)

    grad_exact = psi.gradient(flat).reshape(*pts.shape[:2], mesh.dim)
    grad_fe = np.einsum("bad,ba->bd", geo.grads, u_elem)
    diff = grad_exact - grad_fe[:, None, :]
    mags = np.sqrt(np.sum(diff * diff, axis=-1))
    err_p = float(np.sum(scale * (mags**2 @ weights))) ** 0.5
    return err_q, err_p


def verify_interp_error(N: int, s: float, q: float, c: float, levels) -> InterpRates:
    """Measured interpolation-error rates for the truncated profile.

    Fixed concentration, refining mesh: the L^q error decays like h^2 and
    the L^2 gradient error like h; fixed fine mesh, widths 2^-2..2^-5:
    the L^q error grows like c^-(N/2 - N/q + 2 - s).  Profiles carry the
    unit-critical-norm amplitude so the c-regression matches that exponent.
    """
    _check_problem(N, s)
    if q < 1:
        raise ValueError("q must be >= 1")
    levels = _check_levels(levels)
    h_pts, g_pts = [], []
    for lev in levels:
        mesh = build_mesh(N, lev)
        if mesh.h > c / 4:
            raise ValueError(f"level {lev}: h={mesh.h:.4g} too coarse for c={c}")
        lam = normalize_lambda(c, N, s)
        psi = truncated_bubble(lam, c, N, s)
        u = interpolate(mesh, psi)
        err_q, err_p = _interp_errors(mesh, psi, u, q)
        h_pts.append((mesh.h, err_q))
        g_pts.append((mesh.h, err_p))

    fine = build_mesh(N, levels[-1] + 1)
    c_pts = []
    for cj in _INTERP_WIDTHS:
        lam = normalize_lambda(cj, N, s)
        psi = truncated_bubble(lam, cj, N, s)
        u = interpolate(fine, psi)
        err_q, _ = _interp_errors(fine, psi, u, q)
        c_pts.append((cj, err_q))

    return InterpRates(
        lq_h=fit_rate(h_pts),
        grad_h=fit_rate(g_pts),
        lq_c=fit_rate(c_pts),
        details={
            "h_points": h_pts,
            "grad_points": g_pts,
            "c_points": c_pts,
            "expected_c_slope": -(N / 2 - N / q + 2 - s),
            "fine_level": levels[-1] + 1,
        },
    )


# --------------------------------------------------------- covering audit


def _unit_directions(rng, n, dim):
    v = rng.standard_normal((n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    small = norms[:, 0] < 1e-12
    v[small] = np.eye(dim)[0]
    norms[small] = 1.0
    return v / norms


def verify_covering(N: int, s: float, samples: int, seed: int = 0) -> dict:
    """Check a fixed direction dictionary sees the profile's curvature scale.

    For random concentrations, centers, and evaluation points, the largest
    second derivative over the dictionary is compared with the natural
    envelope (|amp|/c^2)(1 + w^2)^{-(N-2s+2)/2}; the minimum ratio stays
    positive.  In 1D the radii where the only second derivative changes
    sign are excluded by construction (the relative radius band (1/2, 1)).
    The ratio depends only on the offset (x - center)/c = w * dir, so one
    unit profile is evaluated there for all samples at once; the
    concentration and center draws only keep the random stream, and with
    it the seeded results.  The dictionary is the radial direction plus,
    in 2D, the two axes and 16 equally spaced angles.
    """
    _check_problem(N, s)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = make_rng(seed)

    # concentrations and centers: drawn only to keep the seeded stream
    rng.uniform(np.log(0.05), np.log(1.0), samples)
    _unit_directions(rng, samples, N)
    rng.uniform(0.0, 1.0, (samples, 1))
    w = np.exp(rng.uniform(np.log(0.01), np.log(4.0), samples))
    if N == 1:
        for _ in range(200):
            bad = (w > 0.5) & (w < 1.0)
            if not bad.any():
                break
            w[bad] = np.exp(rng.uniform(np.log(0.01), np.log(4.0), int(bad.sum())))
    dirs = _unit_directions(rng, samples, N)
    y = w[:, None] * dirs

    unit = Bubble(N, s, 1.0, 1.0)
    H = unit.hessian(y)
    best = np.abs(np.einsum("ni,nij,nj->n", dirs, H, dirs))
    if N == 2:
        angles = np.arange(16) * np.pi / 16.0
        fixed = np.vstack([np.eye(2), np.column_stack([np.cos(angles), np.sin(angles)])])
        best = np.maximum(best, np.abs(np.einsum("ki,nij,kj->nk", fixed, H, fixed)).max(axis=1))
    ratios = best / unit.hessian_envelope(y)

    half = samples // 2
    min_half = float(ratios[:half].min())
    min_full = float(ratios.min())
    return {
        "dim": N,
        "s": s,
        "samples": samples,
        "seed": seed,
        "rng": RNG_NAME,
        "min_ratio": min_full,
        "min_ratio_half": min_half,
        "doubling_change": abs(min_full - min_half) / min_full,
    }


# ------------------------------------------------- minimizing-sequence audit

_MAX_PROXY_LEVEL = {1: 12, 2: 4}


def verify_minimizing_sequence(N: int, s: float, eps_list) -> dict:
    """Quotients of interpolated truncated profiles along shrinking widths.

    One fixed mesh fine enough for the sharpest width (h <= min(eps)/4)
    serves as the evaluation proxy; the quotient decreases along the list
    and the deficit scales like eps^(N-2s).
    """
    _check_problem(N, s)
    eps = [float(e) for e in eps_list]
    if len(eps) < 2:
        raise ValueError(f"eps_list needs at least two widths, got {eps_list!r}")
    # every width, so a NaN anywhere fails it
    if not all(0 < e < 1 / 3 for e in eps):
        raise ValueError(f"widths must lie in (0, 1/3), got {eps_list!r}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"widths must be strictly decreasing, got {eps_list!r}")

    level, mesh = None, None
    for lev in range(1, _MAX_PROXY_LEVEL[N] + 1):
        cand = build_mesh(N, lev)
        if cand.h <= min(eps) / 4:
            level, mesh = lev, cand
            break
    if mesh is None:
        raise ValueError(
            f"no affordable mesh reaches h <= {min(eps) / 4:.4g} for dim {N}"
        )

    form = assemble(mesh, s)
    S = exact_constant(N, s)
    gaps = []
    for e in eps:
        lam = normalize_lambda(e, N, s)
        u = interpolate(mesh, truncated_bubble(lam, e, N, s))
        gaps.append(quotient(form, u) - S)
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    return {
        "dim": N,
        "s": s,
        "level": level,
        "h": mesh.h,
        "eps": eps,
        "gaps": gaps,
        "ratios": ratios,
        "monotone": all(b < a for a, b in zip(gaps, gaps[1:])),
        "expected_halving_ratio": 2.0 ** (N - 2 * s),
    }


# ---------------------------------------------- functional-inequality audit


def _broken_gradient_l2(u: FeFunction) -> float:
    geo = element_geometry(u.mesh)
    vals = u.values[u.mesh.elements]
    grads = np.einsum("bad,ba->bd", geo.grads, vals)
    return float(np.sqrt(np.sum(geo.measure * np.sum(grads * grads, axis=1))))


def _poincare_max_ratio(mesh, s, funcs) -> float:
    geo = element_geometry(mesh)
    locals_ = element_self_interaction(mesh, s)
    const = geo.diameter ** (mesh.dim + 2 * s) / geo.measure
    bary, weights = reference_rule(mesh.dim, 2)
    scale = geo.measure / weights.sum()
    worst = 0.0
    for u in funcs:
        vals = u.values[mesh.elements]
        at_pts = np.einsum("qa,ba->bq", bary, vals)
        mean = (at_pts @ weights) / weights.sum()
        lhs = scale * (((at_pts - mean[:, None]) ** 2) @ weights)
        rhs = const * np.einsum("bij,bi,bj->b", locals_, vals, vals)
        floor = 1e-14 * float(np.max(vals * vals) + 1.0)
        keep = rhs > floor
        if keep.any():
            worst = max(worst, float(np.max(lhs[keep] / rhs[keep])))
    return worst


def _cube_norms(b: Bubble, side: float, p: float, order: int = 16):
    x1, w1 = np.polynomial.legendre.leggauss(order)
    x1 = 0.5 * side * x1
    w1 = 0.5 * side * w1
    if b.dim == 1:
        pts = x1[:, None]
        wts = w1
    else:
        X, Y = np.meshgrid(x1, x1, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        wts = np.outer(w1, w1).ravel()
    u = np.abs(b.evaluate(pts))
    g = np.linalg.norm(b.gradient(pts), axis=-1)
    hess = b.hessian(pts)
    h = np.sqrt(np.sum(hess * hess, axis=(-2, -1)))
    norm = lambda f: float(np.sum(wts * f**p)) ** (1.0 / p)
    return norm(u), norm(g), norm(h)


def verify_functional_inequalities(
    N: int, s: float, sample_functions, seed: int = 0
) -> dict:
    """Audit the three workhorse inequalities on concrete functions.

    (i) interpolation between L^2 and the gradient norm with exponent s,
    checked on the given finite-element samples through the assembled
    quadratic form; (ii) the per-element Poincare inequality with its
    explicit constant, a hard bound; (iii) the cube inequality bounding
    the gradient by the function and its second derivatives, fitted on
    smooth profiles since piecewise-linear functions have no integrable
    second derivative.
    """
    _check_problem(N, s)
    funcs = list(sample_functions)
    if not funcs:
        raise ValueError("need at least one sample function")
    mesh = funcs[0].mesh
    if mesh.dim != N:
        raise ValueError(f"samples live on a {mesh.dim}D mesh, not in dimension {N}")
    for u in funcs:
        if u.mesh is not mesh:
            raise ValueError("all samples must share one mesh")
        if not np.any(u.values):
            raise ValueError("samples must be nonzero")

    form = assemble(mesh, s)
    A = form.matrix
    gn = []
    for u in funcs:
        w = u.free_values
        lhs = np.sqrt(max(float(w @ (A @ w)), 0.0) / (s * (1 - s)))
        l2 = lq_norm(u, 2.0)
        gr = _broken_gradient_l2(u)
        gn.append(lhs / (l2 ** (1 - s) * gr**s))
    half = max(1, len(gn) // 2)
    gn_half = float(np.max(gn[:half]))
    gn_full = float(np.max(gn))

    poincare = _poincare_max_ratio(mesh, s, funcs)

    rng = make_rng(seed)
    cubes = {}
    profiles = [
        Bubble(
            N,
            s,
            1.0,
            float(np.exp(rng.uniform(np.log(0.3), np.log(1.5)))),
            _unit_directions(rng, 1, N)[0] * rng.uniform(0.0, 0.5),
        )
        for _ in range(8)
    ]
    for side in (1.0, 0.5, 0.25):
        fitted = 0.0
        for b in profiles:
            nu, ng, nh = _cube_norms(b, side, p=2.0)
            fitted = max(fitted, float(ng / (nu / side + np.sqrt(nu * nh))))
        cubes[side] = fitted
    vals = list(cubes.values())

    return {
        "dim": N,
        "s": s,
        "n_samples": len(funcs),
        "seed": seed,
        "rng": RNG_NAME,
        "gn_max_ratio": gn_full,
        "gn_max_ratio_half": gn_half,
        "gn_doubling_change": abs(gn_full - gn_half) / gn_full,
        "poincare_max_ratio": poincare,
        "poincare_holds": poincare <= 1.0,
        "cube_constants": cubes,
        "cube_spread": max(vals) / min(vals),
    }
