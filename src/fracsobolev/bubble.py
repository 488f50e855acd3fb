"""Extremal profile functions and their closed-form calculus.

The optimizers of the fractional Sobolev inequality form the family

    Phi(x) = amplitude * (1 + |x - center|^2 / c^2)^(-(N-2s)/2),

an (N+2)-parameter manifold. Everything here is exact up to the radial
quadrature used for L^q norms: Gauss-Legendre (``_quad.unit_gauss``) on
panels graded geometrically toward the two places where |Phi|^q is least
smooth, the concentration scale near r = 0 and the profile's zero, r = 1
for a truncated profile, with the order raised by the package's one
order-doubling driver, ``_quad.refine``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._quad import QuadratureError, refine, unit_gauss
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


# Gauss order the radial rule starts from, and the relative change of the
# radial integral at which the doubling stops
_RADIAL_ORDER = 6
_RADIAL_RTOL = 1e-13
# panels graded toward the profile's zero from each side: the last one
# holds about 2^(-_ZERO_PANELS (q + 1)) of the integral, under 2^-40 for q >= 1
_ZERO_PANELS = 20


def _radial_panels(b, q):
    """Edges of the radial panels on [0, 1], graded by ratio 2.

    |Phi|^q is analytic on [0, 1] apart from its zero there, and its peak
    at r = 0 narrows like c / sqrt(q): its poles sit at r = +-ic, and its
    logarithm is multiplied by q.  So the panels grow by 2 outward from
    a = min(c, 1) / sqrt(q) until half the zero z, and halve inward toward
    z from both sides, _ZERO_PANELS of them each.  Every panel but the
    two at z then lies about its own width or more from the poles and z,
    and Gauss converges on it at a geometric rate (Trefethen,
    *Approximation Theory and Approximation Practice*, Thm 19.3).  z is
    r = 1 unless Phi changes sign inside the ball; a truncated profile
    vanishes at r = 1.
    """
    zero = 1.0
    if b.radial_value(0.0) * b.radial_value(1.0) < 0.0:
        ratio = (b.offset / b.amplitude) ** (-2.0 / b.decay)
        zero = min(1.0, b.concentration * np.sqrt(ratio - 1.0))
    first = min(b.concentration, 1.0) / np.sqrt(q)
    grade = 2.0 ** -np.arange(1, _ZERO_PANELS + 1)
    outward = first * 2.0 ** np.arange(max(0, int(np.ceil(np.log2(0.5 * zero / first)))))
    edges = [[0.0], outward, zero * (1.0 - grade), [zero]]
    if zero < 1.0:
        edges += [zero + (1.0 - zero) * grade[::-1], [1.0]]
    return np.concatenate(edges)


def _radial_lq_power(b, q):
    """(P, top): P = int_0^1 r^(N-1) |Phi(r) / top|^q dr, top = max |Phi| on [0, 1].

    Phi is monotone in r, so top is |Phi| at r = 0 or r = 1; the scaled
    integrand lies in [0, 1] and does not underflow at large q.  Gauss on
    ``_radial_panels``, the order doubled by ``refine`` until P moves by
    at most _RADIAL_RTOL; past its order cap refine warns.
    """
    edges = _radial_panels(b, q)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    top = float(max(abs(b.radial_value(0.0)), abs(b.radial_value(1.0))))

    def power_at(n):
        x, w = unit_gauss(n)
        r = lo + width * x
        return float(np.sum(r ** (b.dim - 1.0) * np.abs(b.radial_value(r) / top) ** q * (width * w)))

    power = refine("bubble_lq_norm", power_at, _RADIAL_ORDER, _RADIAL_RTOL)
    if not np.isfinite(power):
        raise QuadratureError("radial norm quadrature diverged")
    return power, top


def bubble_lq_norm(b, q):
    """L^q norm of a profile over the unit ball by radial reduction.

    The ball is centered at the origin, so the profile must be too; a
    truncated profile is by construction.  The radial integral is refined
    until doubling the Gauss order moves it by at most 1e-13 relative;
    ``tests/test_bubble.py`` holds the norm to 1e-12 relative of a
    30-digit reference over N = 1, 2, c = 2^2..2^-20 and q up to 100.
    The norm is no more accurate than the values of Phi: where they
    cancel, as at c >> 1 (Phi ~ (1 - r^2) / c^2), the doubling does not
    settle, and the driver's RuntimeWarning says so.
    """
    if not 1.0 <= q < np.inf:
        raise ValueError(f"q must be a finite number >= 1, got {q!r}")
    if np.any(b.center != 0.0):
        raise ValueError("the ball norm needs a profile centered at the origin")
    power, top = _radial_lq_power(b, q)
    return top * (_surface_measure(b.dim) * power) ** (1.0 / q)


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
