"""Problem parameters: admissible orders, critical exponents, sharp constant.

The sharp constant of the fractional Sobolev inequality on R^N is assembled
from Gamma factors and the kernel integral

    I(N, s) = int_{R^N} (1 - cos z_1) / |z|^{N + 2s} dz,

which has the closed form of Di Nezza, Palatucci & Valdinoci (2012),
eq. (3.2); the test suite cross-checks both against an independently
generated high-precision oracle.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
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


def cosine_kernel_integral(N, s):
    """I(N, s) = int_{R^N} (1 - cos z_1)/|z|^{N+2s} dz, in closed form.

    I(N, s) = pi^{N/2} Gamma(1-s) / (s 4^s Gamma(N/2 + s)), the inverse of
    the constant C(N, s) of Di Nezza, Palatucci & Valdinoci, "Hitchhiker's
    guide to the fractional Sobolev spaces" (2012), eq. (3.2). Valid for
    every admissible (N, s).
    """
    check_order(N, s)
    g = math.gamma
    return math.pi ** (N / 2.0) * g(1.0 - s) / (s * 4.0**s * g(N / 2.0 + s))


def exact_constant(N, s):
    """Sharp constant S_{N,s} of the fractional Sobolev inequality.

    S_{N,s} = 2 s (1-s) I(N,s) 2^{2s} pi^s Gamma((N+2s)/2)/Gamma((N-2s)/2)
              * (Gamma(N/2)/Gamma(N))^{2s/N};
    with I(N, s) from Di Nezza et al. (2012), eq. (3.2) (see
    cosine_kernel_integral) this is

    S_{N,s} = 2 Gamma(2-s) pi^{s+N/2} / Gamma((N-2s)/2)
              * (Gamma(N/2)/Gamma(N))^{2s/N}.

    Tends to 0 as s -> N/2 because Gamma((N-2s)/2) blows up.
    """
    check_order(N, s)
    g = math.gamma
    return (
        2.0
        * g(2.0 - s)
        * math.pi ** (s + N / 2.0)
        / g((N - 2.0 * s) / 2.0)
        * (g(N / 2.0) / g(float(N))) ** (2.0 * s / N)
    )

