"""Problem parameters: admissible orders, critical exponents, sharp constant.

The sharp constant of the fractional Sobolev inequality on R^N is assembled
from Gamma factors and the kernel integral

    I(N, s) = int_{R^N} (1 - cos z_1) / |z|^{N + 2s} dz,

which is evaluated numerically (no closed form is assumed anywhere in the
package; the test suite cross-checks against an independently generated
high-precision oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from ._quad import QuadratureError, averaged_tail_sum, periodic_mean

__all__ = [
    "ProblemParams",
    "problem_params",
    "rate_exponent",
    "critical_exponent",
    "exact_constant",
    "cosine_kernel_integral",
    "optimal_concentration",
]


def check_order(N, s):
    """Reject (N, s) outside 0 < s < min(1, N/2) with N a positive integer."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"dimension must be a positive integer, got {N!r}")
    if not (0.0 < s < min(1.0, 0.5 * N)):
        raise ValueError(
            f"order s={s} outside the admissible range (0, {min(1.0, 0.5 * N)}) "
            f"for N={N}"
        )


def rate_exponent(N, s):
    """Predicted convergence exponent 2(2-s)(N-2s)/(N+4(1-s)).

    This is the rate at which the discrete constant approaches the sharp one
    under uniform refinement; as s -> 1 it recovers the classical 2(N-2)/N.
    """
    check_order(N, s)
    return 2.0 * (2.0 - s) * (N - 2.0 * s) / (N + 4.0 * (1.0 - s))


def critical_exponent(N, s):
    """Critical Lebesgue exponent 2N/(N - 2s) of the H^s embedding."""
    check_order(N, s)
    return 2.0 * N / (N - 2.0 * s)


def optimal_concentration(h, N, s):
    """Concentration scale c_h = h^{2(2-s)/(N+4(1-s))} balancing the two
    error contributions; satisfies (h/c_h)^{2(2-s)} = c_h^{N-2s} exactly.
    """
    check_order(N, s)
    if not (0.0 < h < 1.0):
        raise ValueError(f"mesh size h={h} must lie in (0, 1)")
    return h ** (2.0 * (2.0 - s) / (N + 4.0 * (1.0 - s)))


def _radial_series(N, s):
    """int over |z| <= 1 of (1 - cos z_1)/|z|^{N+2s}, divided by |S^{N-1}|.

    Expanding 1 - cos(r w) in even powers of r and averaging w = cos(theta)
    over the sphere gives an alternating series with moments
    m_k = mean of cos^{2k} (1 in 1D, binom(2k,k)/4^k in 2D); terms decrease,
    so the truncation error is below the first dropped term.
    """
    total = 0.0
    fact = 1.0  # (2k)!
    for k in range(1, 40):
        fact *= (2 * k - 1) * (2 * k)
        if N == 1:
            moment = 1.0
        else:
            moment = math.comb(2 * k, k) / 4.0**k
        term = moment / (fact * (2 * k - 2.0 * s))
        total += term if k % 2 == 1 else -term
        if term < 1e-18:
            return total, term
    return total, term


def _cos_tail_1d(s):
    """int_1^inf cos(z) z^{-1-2s} dz with an analytic remainder bound."""
    T = 1000.0
    val, abserr = integrate.quad(
        lambda z: z ** (-1.0 - 2.0 * s),
        1.0,
        T,
        weight="cos",
        wvar=1.0,
        limit=2000,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    g0 = T ** (-1.0 - 2.0 * s)
    g1 = -(1.0 + 2.0 * s) * T ** (-2.0 - 2.0 * s)
    g2 = (1.0 + 2.0 * s) * (2.0 + 2.0 * s) * T ** (-3.0 - 2.0 * s)
    g3 = -(1.0 + 2.0 * s) * (2.0 + 2.0 * s) * (3.0 + 2.0 * s) * T ** (-4.0 - 2.0 * s)
    # two rounds of integration by parts; the remainder is bounded by |g3(T)|
    tail = -math.sin(T) * g0 - math.cos(T) * g1 + math.sin(T) * g2 + math.cos(T) * g3
    rem = abs(g3)
    return val + tail, abserr + rem


def _azimuthal_cosine_mean(r):
    """Mean over theta of cos(r cos theta) for an array of radii."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    need = int(2 ** np.ceil(np.log2(max(64.0, 4.0 * float(np.max(r)) + 64.0))))

    def f(theta):
        return np.cos(np.multiply.outer(r, np.cos(theta)))

    est, _, _ = periodic_mean(f, rtol=1e-14, n0=need, n_max=4 * need)
    return est


def _kernel_integral_2d(s):
    """I(2, s)/(2 pi) - specific pieces; see cosine_kernel_integral."""
    tail_start, n_panels = 100.0, 64
    series, series_err = _radial_series(2, s)

    def b_scalar(r):
        return float(_azimuthal_cosine_mean(r)[0])

    mid, mid_err = integrate.quad(
        lambda r: b_scalar(r) * r ** (-1.0 - 2.0 * s),
        1.0,
        tail_start,
        limit=800,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    # oscillatory tail: half-period panels, then iterated averaging
    xg, wg = np.polynomial.legendre.leggauss(16)
    edges = tail_start + np.pi * np.arange(n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    radii = mids[:, None] + half[:, None] * xg[None, :]
    weights = half[:, None] * wg[None, :]
    bvals = _azimuthal_cosine_mean(radii.ravel()).reshape(radii.shape)
    panels = np.sum(weights * bvals * radii ** (-1.0 - 2.0 * s), axis=1)
    tail, tail_err = averaged_tail_sum(panels)
    value = series + 1.0 / (2.0 * s) - mid - tail
    err = series_err + mid_err + tail_err
    return value, err


def _cosine_kernel_integral_with_error(N, s):
    if N == 1:
        series, series_err = _radial_series(1, s)
        cos_tail, cos_err = _cos_tail_1d(s)
        value = 2.0 * (series + 1.0 / (2.0 * s) - cos_tail)
        err = 2.0 * (series_err + cos_err)
    else:
        value, err = _kernel_integral_2d(s)
        value *= 2.0 * math.pi
        err *= 2.0 * math.pi
    if not np.isfinite(value) or err > 1e-9 * abs(value):
        raise QuadratureError(
            f"kernel integral I({N}, {s}) did not converge: "
            f"estimate {value!r}, error estimate {err!r}",
            estimate=value,
            error_estimate=err,
        )
    return value, err


def cosine_kernel_integral(N, s):
    """I(N, s) = int_{R^N} (1 - cos z_1)/|z|^{N+2s} dz.

    Split at |z| = 1: an alternating series inside (the integrand is entire
    there once 1 - cos is expanded), an explicit power integral plus an
    oscillatory correction outside. The 1D correction uses adaptive
    cosine-weighted quadrature with an integration-by-parts tail; the 2D one
    reduces to the azimuthal mean of cos(r cos theta) handled the same way.
    Raises QuadratureError (carrying the achieved estimate) on
    non-convergence.
    """
    check_order(N, s)
    if N not in (1, 2):
        raise ValueError("kernel integral implemented for N in {1, 2} only")
    value, _ = _cosine_kernel_integral_with_error(N, s)
    return value


@lru_cache(maxsize=256)
def exact_constant(N, s):
    """Sharp constant S_{N,s} of the fractional Sobolev inequality.

    S_{N,s} = 2 s (1-s) I(N,s) 2^{2s} pi^s Gamma((N+2s)/2)/Gamma((N-2s)/2)
              * (Gamma(N/2)/Gamma(N))^{2s/N}.

    Tends to 0 as s -> N/2 because Gamma((N-2s)/2) blows up.
    """
    check_order(N, s)
    if N not in (1, 2):
        raise ValueError("exact constant implemented for N in {1, 2} only")
    kernel, _ = _cosine_kernel_integral_with_error(N, s)
    g = math.gamma
    value = (
        2.0
        * s
        * (1.0 - s)
        * kernel
        * 2.0 ** (2.0 * s)
        * math.pi**s
        * g((N + 2.0 * s) / 2.0)
        / g((N - 2.0 * s) / 2.0)
        * (g(N / 2.0) / g(float(N))) ** (2.0 * s / N)
    )
    return value


@dataclass(frozen=True)
class ProblemParams:
    """Bundle of the derived quantities for one admissible (N, s)."""

    N: int
    s: float
    two_star: float
    alpha: float
    sobolev_constant: float


def problem_params(N, s):
    """Build a ProblemParams with all derived fields filled in."""
    check_order(N, s)
    return ProblemParams(
        N=int(N),
        s=float(s),
        two_star=critical_exponent(N, s),
        alpha=rate_exponent(N, s),
        sobolev_constant=exact_constant(N, s),
    )
