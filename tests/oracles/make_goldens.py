"""Regenerate tests/goldens.json from independent slow oracles.

Run from the repository root:

    python3 tests/oracles/make_goldens.py

Three families of reference values are produced.

* High-precision constants (mpmath, 50 working digits): the kernel
  integral behind the sharp constant evaluated two independent ways
  (closed gamma form and direct quadrature), the sharp constants
  themselves, critical amplitudes for a range of concentrations, and the
  exact L4 norm of the 1D profile.

* 1D stiffness matrices by adaptive double integration (scipy.quad with
  the kernel singularity declared as an interior point).  These take
  minutes; they exist so the fast assembly can be compared entrywise in
  tests without paying the oracle cost there.

* Regression values produced by the package itself after the oracle
  checks passed (a deficit at one configuration and a covering-audit
  floor).  These freeze observed behavior, not external truth.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.integrate import quad

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

OUT = Path(__file__).resolve().parents[1] / "goldens.json"

mp.mp.dps = 50


# ------------------------------------------------------ exact constants


def kernel_integral_closed(N, s):
    """integral over R^N of (1 - cos(x_N)) / |x|^{N+2s}, gamma closed form."""
    N = mp.mpf(N)
    s = mp.mpf(s)
    return (
        mp.pi ** (N / 2)
        * mp.gamma(1 - s)
        / (2 ** (2 * s) * s * mp.gamma((N + 2 * s) / 2))
    )


def kernel_integral_quad(N, s):
    """Same integral by direct high-precision quadrature."""
    s = mp.mpf(s)
    if N == 1:
        # even integrand; split at 1 and integrate the oscillatory tail
        # as sum of period cells
        f = lambda r: (1 - mp.cos(r)) / r ** (1 + 2 * s)
        head = mp.quad(f, [0, mp.pi, 10 * mp.pi])
        tail = mp.quadosc(
            lambda r: -mp.cos(r) / r ** (1 + 2 * s),
            [10 * mp.pi, mp.inf],
            period=2 * mp.pi,
        )
        tail += (10 * mp.pi) ** (-2 * s) / (2 * s)
        return 2 * (head + tail)
    # N = 2: radialize; angular average of cos(r sin t) is J_0(r)
    f = lambda r: (1 - mp.besselj(0, r)) / r ** (1 + 2 * s)
    head = mp.quad(f, [0, 1, 10, 100])
    # |J_0(r)| <= sqrt(2/(pi r)); integrate the remainder crudely but
    # rigorously enough: r^{-1-2s} tail plus oscillatory J0 tail
    tail_main = 100 ** (-2 * s) / (2 * s)
    tail_osc = mp.quadosc(
        lambda r: -mp.besselj(0, r) / r ** (1 + 2 * s),
        [100, mp.inf],
        period=2 * mp.pi,
    )
    return 2 * mp.pi * (head + tail_main + tail_osc)


def sharp_constant(N, s):
    """S_{N,s} from the kernel integral and gamma factors."""
    N_ = mp.mpf(N)
    s_ = mp.mpf(s)
    I = kernel_integral_closed(N, s)
    return (
        2
        * s_
        * (1 - s_)
        * I
        * 2 ** (2 * s_)
        * mp.pi ** s_
        * mp.gamma((N_ + 2 * s_) / 2)
        / mp.gamma((N_ - 2 * s_) / 2)
        * (mp.gamma(N_ / 2) / mp.gamma(N_)) ** (2 * s_ / N_)
    )


def critical_amplitude(c, N, s):
    """1 / ||psi_c||_{L^{2*_s}(B)} for the truncated unit-amplitude profile."""
    c = mp.mpf(c)
    N_ = mp.mpf(N)
    s_ = mp.mpf(s)
    q = 2 * N_ / (N_ - 2 * s_)
    off = (1 + 1 / c**2) ** (-(N_ - 2 * s_) / 2)
    prof = lambda r: ((1 + (r / c) ** 2) ** (-(N_ - 2 * s_) / 2) - off) ** q
    surface = 2 if N == 1 else 2 * mp.pi
    integral = surface * mp.quad(
        lambda r: prof(r) * r ** (N_ - 1), [0, c, min(10 * c, 1), 1]
    )
    return integral ** (-1 / q)


# ------------------------------------------- 1D adaptive assembly oracle


def hat_basis(knots):
    """Hat functions on a sorted 1D grid, one per interior node."""

    def phi(i):
        left, mid, right = knots[i - 1], knots[i], knots[i + 1]

        def f(x):
            if left <= x <= mid:
                return (x - left) / (mid - left)
            if mid < x <= right:
                return (right - x) / (right - mid)
            return 0.0

        return f, left, right

    return [phi(i) for i in range(1, len(knots) - 1)]


def kappa_1d(x, s):
    return ((1 - x) ** (-2 * s) + (1 + x) ** (-2 * s)) / (2 * s)


def oracle_entry_1d(knots, s, i, j):
    """A_ij = s(1-s) [ D_ij + 2 C_ij ] by adaptive quadrature."""
    basis = hat_basis(knots)
    fi, ai, bi = basis[i]
    fj, aj, bj = basis[j]
    pts = [float(k) for k in knots]

    def inner(x):
        def g(y):
            return (fi(x) - fi(y)) * (fj(x) - fj(y)) / abs(x - y) ** (1 + 2 * s)

        inner_pts = sorted(set(pts + [x]))
        total = 0.0
        for a, b in zip(inner_pts[:-1], inner_pts[1:]):
            val, _ = quad(
                g, a, b, epsabs=1e-12, epsrel=1e-11, limit=300, points=[x]
                if a < x < b
                else None,
            )
            total += val
        return total

    D = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(inner, a, b, epsabs=1e-11, epsrel=1e-10, limit=200)
        D += val

    lo, hi = max(ai, aj), min(bi, bj)
    if lo < hi:
        C, _ = quad(
            lambda x: fi(x) * fj(x) * kappa_1d(x, s),
            lo,
            hi,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=300,
            points=[p for p in pts if lo < p < hi] or None,
        )
    else:
        C = 0.0
    return s * (1 - s) * (D + 2 * C)


def oracle_matrix_1d(knots, s):
    n = len(knots) - 2
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            t0 = time.time()
            A[i, j] = A[j, i] = oracle_entry_1d(knots, s, i, j)
            print(
                f"    entry ({i},{j}) s={s}: {A[i, j]:+.10e}  [{time.time() - t0:.1f}s]",
                flush=True,
            )
    return A


def uniform_knots(level):
    m = 2 ** (level + 1)
    return np.linspace(-1.0, 1.0, m + 1)


# ---------------------------------------------------------------- driver


def main():
    goldens = {"_meta": {
        "generator": "tests/oracles/make_goldens.py",
        "mp_dps": mp.mp.dps,
        "notes": "regenerate with: python3 tests/oracles/make_goldens.py",
    }}

    print("== exact constants ==", flush=True)
    kernel = {}
    for N, s in [(1, 0.1), (1, 0.25), (1, 0.3), (1, 0.4), (2, 0.25), (2, 0.5), (2, 0.75)]:
        closed = kernel_integral_closed(N, s)
        direct = kernel_integral_quad(N, s)
        rel = abs(closed - direct) / closed
        print(f"  I({N},{s}) closed={mp.nstr(closed, 20)}  |closed-quad|/I = {mp.nstr(rel, 3)}")
        assert rel < mp.mpf("1e-12"), "kernel integral routes disagree"
        kernel[f"{N},{s}"] = mp.nstr(closed, 30)
    goldens["kernel_integral"] = kernel

    consts = {}
    for N, s in [(1, 0.1), (1, 0.25), (1, 0.3), (1, 0.4), (2, 0.25), (2, 0.5), (2, 0.75)]:
        S = sharp_constant(N, s)
        consts[f"{N},{s}"] = mp.nstr(S, 30)
        print(f"  S({N},{s}) = {mp.nstr(S, 20)}")
    # closed-form cross checks
    S1 = sharp_constant(1, 0.25)
    ref1 = mp.mpf(3) / 2 * mp.pi * mp.gamma(mp.mpf(3) / 4) / mp.gamma(mp.mpf(1) / 4)
    assert abs(S1 - ref1) / ref1 < mp.mpf("1e-40")
    S2 = sharp_constant(2, 0.5)
    ref2 = mp.pi ** mp.mpf(1.5)
    assert abs(S2 - ref2) / ref2 < mp.mpf("1e-40")
    print("  closed-form cross checks passed")
    goldens["sharp_constant"] = consts

    print("== critical amplitudes ==", flush=True)
    amps = {}
    for N, s in [(1, 0.25), (2, 0.5)]:
        for k in range(3, 8):
            c = mp.mpf(2) ** (-k)
            amps[f"{N},{s},2^-{k}"] = mp.nstr(critical_amplitude(c, N, s), 30)
    amps["1,0.25,0.1"] = mp.nstr(critical_amplitude(mp.mpf("0.1"), 1, 0.25), 30)
    goldens["critical_amplitude"] = amps
    print(f"  lambda_c(0.1; 1, 0.25) = {amps['1,0.25,0.1']}")

    print("== 1D assembly oracle (slow) ==", flush=True)
    matrices = {}
    custom = np.array([-1.0, -0.2, 0.55, 1.0])
    print("  custom nonuniform mesh, s=0.25")
    matrices["custom,-1:-0.2:0.55:1,0.25"] = oracle_matrix_1d(custom, 0.25).tolist()
    for s in (0.1, 0.25, 0.4):
        print(f"  uniform level 1, s={s}")
        matrices[f"level1,{s}"] = oracle_matrix_1d(uniform_knots(1), s).tolist()
    for s in (0.1, 0.25, 0.4):
        print(f"  uniform level 2, s={s}")
        matrices[f"level2,{s}"] = oracle_matrix_1d(uniform_knots(2), s).tolist()
    goldens["assembly_1d"] = matrices

    print("== package regression values ==", flush=True)
    from fracsobolev.experiments import verify_covering
    from fracsobolev.gagliardo import assemble
    from fracsobolev.mesh import build_mesh, interpolate
    from fracsobolev.bubble import normalize_lambda, truncated_bubble
    from fracsobolev.params import critical_exponent, exact_constant, optimal_concentration
    from fracsobolev.norms import lq_norm
    from fracsobolev.gagliardo import seminorm_sq

    mesh = build_mesh(1, 8)
    c_h = optimal_concentration(mesh.h, 1, 0.3)
    lam = normalize_lambda(c_h, 1, 0.3)
    u = interpolate(mesh, truncated_bubble(lam, c_h, 1, 0.3))
    form = assemble(mesh, 0.3)
    q = critical_exponent(1, 0.3)
    dfc = seminorm_sq(form, u) / lq_norm(u, q) ** 2 - exact_constant(1, 0.3)
    goldens["regression"] = {
        "deficit,1,0.3,level8": repr(float(dfc)),
        "covering_floor,2,0.5,10000,seed0": repr(
            float(verify_covering(2, 0.5, 10000, seed=0)["min_ratio"])
        ),
    }
    print(f"  deficit golden = {goldens['regression']['deficit,1,0.3,level8']}")
    print(f"  covering floor = {goldens['regression']['covering_floor,2,0.5,10000,seed0']}")

    OUT.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
