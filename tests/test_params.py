"""Closed-form parameter layer against frozen high-precision references."""

import math

import numpy as np
import pytest
from scipy import integrate

from fracsobolev.params import (
    check_order,
    cosine_kernel_integral,
    critical_exponent,
    exact_constant,
    optimal_concentration,
    rate_exponent,
)


def test_check_order_accepts_admissible():
    for N, s in [(1, 0.1), (1, 0.45), (2, 0.3), (2, 0.9)]:
        check_order(N, s)


@pytest.mark.parametrize(
    "N, s",
    [(1, 0.5), (1, 0.6), (2, 1.0), (2, 0.0), (1, -0.1), (0, 0.2), (1.5, 0.2)],
)
def test_check_order_rejects(N, s):
    with pytest.raises(ValueError):
        check_order(N, s)


def test_critical_exponent_values():
    assert critical_exponent(1, 0.25) == 4.0
    assert critical_exponent(2, 0.5) == 4.0
    assert abs(critical_exponent(2, 0.25) - 8.0 / 3.0) < 1e-15


def test_rate_exponent_values():
    assert rate_exponent(1, 0.25) == 0.4375
    assert rate_exponent(2, 0.5) == 0.75
    assert abs(rate_exponent(1, 0.3) - 2 * 1.7 * 0.4 / 3.8) < 1e-15


def test_optimal_concentration_exponent():
    # c_h = h^(2(2-s)/(N+4(1-s))); ratio of logs recovers the exponent
    for N, s in [(1, 0.25), (2, 0.5), (1, 0.3)]:
        expo = 2 * (2 - s) / (N + 4 * (1 - s))
        for h in (0.1, 0.02):
            assert abs(math.log(optimal_concentration(h, N, s)) / math.log(h) - expo) < 1e-12


def test_kernel_integral_closed_forms(goldens):
    # two spot values with elementary closed forms
    val1 = cosine_kernel_integral(1, 0.25)
    assert abs(val1 - 2 * math.sqrt(2 * math.pi)) / val1 < 1e-10
    val2 = cosine_kernel_integral(2, 0.5)
    assert abs(val2 - 2 * math.pi) / val2 < 1e-10
    for key, ref in goldens["kernel_integral"].items():
        N, s = key.split(",")
        got = cosine_kernel_integral(int(N), float(s))
        assert abs(got - float(ref)) / float(ref) < 1e-9, key
    # beyond the meshed dimensions: in 3D the sphere mean of cos(r w_1) is
    # sin(r)/r, so I(3, s) = 4 pi int_0^inf r^(-1-2s) (1 - sin(r)/r) dr
    val3 = cosine_kernel_integral(3, 0.5)
    assert abs(val3 - math.pi**2) / val3 < 1e-12
    s = 0.25
    inner, _ = integrate.quad(
        lambda r: r ** (-1 - 2 * s) * (1 - math.sin(r) / r),
        0,
        1,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    tail, _ = integrate.quad(
        lambda r: r ** (-2 - 2 * s), 1, np.inf, weight="sin", wvar=1.0, epsabs=1e-12
    )
    radial = 4 * math.pi * (inner + 1 / (2 * s) - tail)
    got = cosine_kernel_integral(3, s)
    assert abs(got - radial) / radial < 1e-9, (got, radial)


def test_exact_constant_against_goldens(goldens):
    for key, ref in goldens["sharp_constant"].items():
        N, s = key.split(",")
        got = exact_constant(int(N), float(s))
        assert abs(got - float(ref)) / float(ref) < 1e-8, key


def test_exact_constant_closed_forms():
    S1 = exact_constant(1, 0.25)
    ref1 = 1.5 * math.pi * math.gamma(0.75) / math.gamma(0.25)
    assert abs(S1 - ref1) / ref1 < 1e-10
    S2 = exact_constant(2, 0.5)
    assert abs(S2 - math.pi**1.5) / S2 < 1e-10


def test_exact_constant_rejects_bad_order():
    with pytest.raises(ValueError):
        exact_constant(1, 0.5)
