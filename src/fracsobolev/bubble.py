"""Extremal profile functions and their closed-form calculus.

The optimizers of the fractional Sobolev inequality form the family

    Phi(x) = amplitude * (1 + |x - center|^2 / c^2)^(-(N-2s)/2),

an (N+2)-parameter manifold. Everything here is exact up to the radial
quadratures used for L^q norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from ._quad import QuadratureError
from .params import check_order, critical_exponent

__all__ = [
    "Bubble",
    "truncated_bubble",
    "normalize_lambda",
    "bubble_lq_norm",
]


@dataclass(frozen=True, eq=False)
class Bubble:
    """One point of the extremal manifold, less a constant offset.

    dim, s fix the ambient problem; amplitude may be negative, concentration
    must be positive. center is stored as a float vector of length dim.
    offset is subtracted from every value, not from the derivatives; a
    nonzero offset needs the center at the origin (see truncated_bubble).
    """

    dim: int
    s: float
    amplitude: float
    concentration: float
    center: np.ndarray = field(default=None)
    offset: float = 0.0

    def __post_init__(self):
        check_order(self.dim, self.s)
        if not self.concentration > 0.0:
            raise ValueError("concentration must be positive")
        if self.amplitude == 0.0:
            raise ValueError("amplitude must be nonzero")
        center = self.center
        if center is None:
            center = np.zeros(self.dim)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (self.dim,):
            raise ValueError(f"center must have shape ({self.dim},)")
        if self.offset != 0.0 and np.any(center != 0.0):
            raise ValueError("offset profiles are centered at the origin")
        object.__setattr__(self, "center", center)

    @property
    def decay(self):
        """The codecay exponent N - 2s (the profile falls off like r^-(N-2s))."""
        return self.dim - 2.0 * self.s

    def _scaled_sq_distance(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        return np.sum(d * d, axis=-1) / self.concentration**2, d

    def radial_value(self, r):
        """Profile value at distance r from the center."""
        r = np.asarray(r, dtype=float)
        w = (r / self.concentration) ** 2
        return self.amplitude * (1.0 + w) ** (-0.5 * self.decay) - self.offset

    def evaluate(self, x):
        w, _ = self._scaled_sq_distance(x)
        return self.amplitude * (1.0 + w) ** (-0.5 * self.decay) - self.offset

    __call__ = evaluate

    def gradient(self, x):
        """Exact gradient; points along -(x - center) for positive amplitude."""
        w, d = self._scaled_sq_distance(x)
        coeff = (
            -self.amplitude
            * self.decay
            / self.concentration**2
            * (1.0 + w) ** (-0.5 * (self.decay + 2.0))
        )
        return coeff[..., None] * d

    def hessian(self, x):
        """Exact Hessian matrix, shape (..., dim, dim).

        Built from the radial decomposition u'' along e_r and u'/r across it;
        the r = 0 singularity of that decomposition is removable and the
        analytic limit -(amplitude * decay / c^2) * Identity is used there.
        """
        w, d = self._scaled_sq_distance(x)
        scale = self.amplitude * self.decay / self.concentration**2
        radial = -scale * (1.0 + w) ** (-0.5 * (self.decay + 4.0)) * (
            1.0 - (self.decay + 1.0) * w
        )
        tangential = -scale * (1.0 + w) ** (-0.5 * (self.decay + 2.0))
        r2 = np.sum(d * d, axis=-1)
        safe = np.where(r2 > 0.0, r2, 1.0)
        proj = d[..., :, None] * d[..., None, :] / safe[..., None, None]
        eye = np.eye(self.dim)
        hess = tangential[..., None, None] * eye + (radial - tangential)[
            ..., None, None
        ] * proj
        # at the center the projector direction is undefined; use the limit
        limit = -scale * eye
        at_center = (r2 == 0.0)[..., None, None] & np.ones_like(eye, dtype=bool)
        return np.where(at_center, limit, hess)

    def hessian_frobenius(self, x):
        """Frobenius norm of the Hessian, closed form.

        |D2 Phi|^2 = (amp*(N-2s)/c^2)^2 (1+w)^{-(N-2s+4)}
                     [ (1-(N-2s+1) w)^2 + (N-1)(1+w)^2 ],  w = |x-X0|^2/c^2.
        """
        w, _ = self._scaled_sq_distance(x)
        scale = abs(self.amplitude) * self.decay / self.concentration**2
        return (
            scale
            * (1.0 + w) ** (-0.5 * (self.decay + 4.0))
            * np.sqrt(
                (1.0 - (self.decay + 1.0) * w) ** 2
                + (self.dim - 1.0) * (1.0 + w) ** 2
            )
        )

    def hessian_envelope(self, x):
        """Natural curvature scale (|amp|/c^2)(1+w)^{-(N-2s+2)/2}; the Hessian
        is bounded by a fixed multiple of this everywhere."""
        w, _ = self._scaled_sq_distance(x)
        return (
            abs(self.amplitude)
            / self.concentration**2
            * (1.0 + w) ** (-0.5 * (self.decay + 2.0))
        )


def truncated_bubble(amplitude, concentration, N, s):
    """Centered profile minus its value on the unit sphere, so it vanishes there.

    The result is nonnegative on the closed unit ball for positive amplitude,
    and its gradient and Hessian are the untruncated profile's.
    """
    offset = amplitude * (1.0 + 1.0 / concentration**2) ** (-0.5 * (N - 2.0 * s))
    return Bubble(N, s, amplitude, concentration, offset=float(offset))


def _surface_measure(N):
    return 2.0 if N == 1 else 2.0 * np.pi


def _radial_lq_power(f, q, N, split):
    """int_0^1 r^{N-1} |f(r)|^q dr by adaptive quadrature, broken at split."""

    def integrand(r):
        return r ** (N - 1.0) * abs(f(r)) ** q

    val, _ = integrate.quad(
        integrand, 0.0, 1.0, points=[split] if split < 1.0 else [], limit=300,
        epsabs=0.0, epsrel=1e-12,
    )
    if not np.isfinite(val):
        raise QuadratureError("radial norm quadrature diverged")
    return val


def bubble_lq_norm(b, q):
    """L^q norm of a profile over the unit ball by radial reduction.

    The ball is centered at the origin, so the profile must be too; a
    truncated profile is by construction. Relative accuracy around 1e-10,
    enforced through the adaptive tolerance.
    """
    if not 1.0 <= q < np.inf:
        raise ValueError(f"q must be a finite number >= 1, got {q!r}")
    if np.any(b.center != 0.0):
        raise ValueError("the ball norm needs a profile centered at the origin")
    power = _radial_lq_power(b.radial_value, q, b.dim, split=b.concentration)
    return (_surface_measure(b.dim) * power) ** (1.0 / q)


def normalize_lambda(concentration, N, s):
    """Amplitude giving the truncated profile unit critical norm on the ball.

    The profile is linear in its amplitude, so this is a single radial
    quadrature and a power, no root finding. With d = N - 2s, q = 2N/d and
    r = c*rho the value is exactly lambda(c) = c^{-d/2} J(1/c)^{-1/q}, where
    J(R) = |S^{N-1}| int_0^R rho^{N-1} ((1+rho^2)^{-d/2} - (1+R^2)^{-d/2})^q.
    Expanding J to first order in the truncation offset gives

        log lambda = -(1/q) log K - (d/2) log c + e1 c^d + o(c^d),

    with K = |S^{N-1}| B(N/2, N/2) / 2 and e1 = B(N/2, s) / B(N/2, N/2).
    So -d/2 is the exponent only as c -> 0: for N = 1, s = 1/4 the relative
    correction e1 c^d is still 0.15-0.59 over c = 2^-3..2^-7.
    ValueError unless the concentration is a finite number > 0.
    """
    check_order(N, s)
    if not 0.0 < concentration < np.inf:
        raise ValueError(f"concentration must be a finite number > 0, got {concentration!r}")
    q = critical_exponent(N, s)
    unit = truncated_bubble(1.0, concentration, N, s)
    norm = bubble_lq_norm(unit, q)
    if not (np.isfinite(norm) and norm > 0.0):
        raise QuadratureError("normalization quadrature failed")
    return 1.0 / norm
