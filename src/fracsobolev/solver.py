"""Minimization of the discrete Rayleigh quotient and its quadrature slack audit.

The discrete constant is the minimum of seminorm_sq(u) over functions
with unit critical-exponent norm.  The nonlinear inverse power method
(Hein & Buehler, NIPS 2010) solves A v = b(u) with one Cholesky factor
and renormalizes; Hoelder and Cauchy-Schwarz in the A-inner product give
Q(v) <= Q(u), so the plain step never raises the quotient.  It contracts
only linearly, slowly as q approaches 2, so each step also forms an
Anderson-mixed candidate (Walker & Ni, SIAM J. Numer. Anal. 2011) from
the recent plain steps and takes it only when its quotient is no higher
than the plain step's; the plain step stays the safeguard, and no line
search or second factorization is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bubble import normalize_lambda, truncated_bubble
from .gagliardo import (
    NonlocalForm,
    audit_band,
    seminorm_sq,
    seminorm_sq_direct,
    tail_bound,
)
from .mesh import FeFunction, interpolate
from .norms import lq_norm, nonlinear_residual
from .params import critical_exponent, exact_constant, optimal_concentration

__all__ = [
    "SolverReport",
    "default_start",
    "deficit",
    "quadrature_slack",
    "quotient",
    "solve",
]

_MAX_ITER = 280
# A rise above the last recorded quotient beyond this relative margin
# breaks the descent bound and is a defect, not rounding.
_RISE_TOL = 16 * np.finfo(float).eps
# Anderson mixing of depth _MIX_DEPTH (Walker & Ni's m) fits its
# candidate to the differences of the last _MIX_DEPTH + 1 (g, g - u)
# pairs.  The mixed candidate is taken when its quotient exceeds the
# plain step's by at most _MIX_MARGIN relative: near convergence the two
# differ by rounding, and a strict comparison lets a 1e-15 change of the
# matrix flip acceptances and with them the step count.
_MIX_DEPTH = 5
_MIX_MARGIN = 8 * np.finfo(float).eps
_AUDIT_RATIO = 16.0
_TAIL_SHARE = 1e-3


@dataclass(frozen=True)
class SolverReport:
    """Result of one Rayleigh-quotient minimization."""

    s_h: float
    minimizer: FeFunction
    iterations: int
    mixed_steps: int  # steps that took the Anderson-mixed candidate
    quotient_history: list
    converged: bool
    residual: float
    quadrature_slack: float
    audit_cutoff: float  # the audit's R; inf when it summed every pair
    tail_bound: float  # the bound part of quadrature_slack; see gagliardo.tail_bound


def quotient(form: NonlocalForm, u: FeFunction) -> float:
    """Rayleigh quotient seminorm_sq / (critical L^q norm)^2."""
    if not np.any(u.values):
        raise ValueError("quotient of the zero function is undefined")
    q = critical_exponent(form.mesh.dim, form.s)
    return seminorm_sq(form, u) / lq_norm(u, q) ** 2


def deficit(form: NonlocalForm, u: FeFunction) -> float:
    """Rayleigh quotient minus the sharp constant; zero-homogeneous in u."""
    return quotient(form, u) - exact_constant(form.mesh.dim, form.s)


def default_start(mesh, s) -> FeFunction:
    """Interpolated concentrated profile with the balanced concentration."""
    c_h = optimal_concentration(mesh.h, mesh.dim, s)
    return interpolate(mesh, truncated_bubble(normalize_lambda(c_h, mesh.dim, s), c_h, mesh.dim, s))


def _unit_positive(mesh, free, q) -> FeFunction:
    """The function with free values ``free`` scaled to unit critical
    norm, its sign chosen so that the free values have a positive mean."""
    u = FeFunction.from_free(mesh, free)
    nrm = lq_norm(u, q)
    if nrm == 0.0:
        raise ValueError("iterate collapsed to zero")
    vals = free / nrm
    if vals.mean() < 0:
        vals = -vals
    return FeFunction.from_free(mesh, vals)


def _euler_lagrange(u: FeFunction, Au, mu: float, q: float):
    """(b, residual) of a unit iterate with A u and mu = u^T A u: the
    vector b(u) and norm(A u - mu b) / norm(A u)."""
    b = nonlinear_residual(u, q)
    return b, float(np.linalg.norm(Au - mu * b) / np.linalg.norm(Au))


def _candidate(A, mesh, free, q):
    """(u, A u, u^T A u) of ``free`` normalized by _unit_positive."""
    u = _unit_positive(mesh, free, q)
    Au = A @ u.free_values
    return u, Au, float(u.free_values @ Au)


def _mixed(pairs):
    """Anderson-mixed free values from the recorded (g, g - u) pairs.

    The coefficients gamma minimize norm(f_k - dF gamma) over the
    differences of successive residuals f = g - u (Walker & Ni 2011,
    type II); the candidate is g_k - dG gamma.
    """
    G = np.array([g for g, _ in pairs])
    F = np.array([f for _, f in pairs])
    dG, dF = np.diff(G, axis=0), np.diff(F, axis=0)
    gamma = np.linalg.lstsq(dF.T, F[-1], rcond=None)[0]
    return G[-1] - gamma @ dG


def quadrature_slack(mesh, s, u, semi, norm_sq):
    """(slack, tail, cutoff): how far u's quotient semi / norm_sq may move one rule level up.

    semi is u's level-0 seminorm and norm_sq its squared critical norm.
    Where _AUDIT_RATIO h < 2 and ``audit_band(mesh, _AUDIT_RATIO)`` holds
    under a quarter of the pairs, the level-1 seminorm is semi plus the
    shift of the two levels over that band, within ``gagliardo.tail_bound``
    of the pairs beyond, kept when the bound is at most _TAIL_SHARE of the
    shift, with cutoff _AUDIT_RATIO.  Otherwise one full level-1 pass
    takes its place, with tail 0 and cutoff inf: a larger band costs about
    as much.  Over the squared critical norm at order 12, Q_1 and tail
    follow, and the slack is |Q_1 - semi / norm_sq| + tail.
    """
    m = mesh.n_elements
    fine = None
    if _AUDIT_RATIO * mesh.h < 2.0:
        band = audit_band(mesh, _AUDIT_RATIO)
        if 8 * len(band[0]) < m * (m - 1):
            shift = seminorm_sq_direct(mesh, s, u, 1, band) - seminorm_sq_direct(mesh, s, u, 0, band)
            tail = tail_bound(mesh, s, u, _AUDIT_RATIO)
            if tail <= _TAIL_SHARE * abs(shift):
                fine, cutoff = semi + shift, _AUDIT_RATIO
    if fine is None:
        fine, tail, cutoff = seminorm_sq_direct(mesh, s, u, 1), 0.0, float("inf")
    fine_sq = lq_norm(u, critical_exponent(mesh.dim, s), order=12) ** 2
    tail /= fine_sq
    return abs(fine / fine_sq - semi / norm_sq) + tail, tail, cutoff


def solve(
    form: NonlocalForm,
    init: FeFunction | None = None,
    tol: float = 1e-10,
) -> SolverReport:
    """Minimize the discrete quotient by Anderson-mixed inverse power steps.

    Per step: solve A v = b(u) with the one Cholesky factor and normalize
    v to unit critical norm, the plain iterate g.  For unit u, Hoelder
    gives <v, b> <= |v|_q and Cauchy-Schwarz in the A-inner product gives
    1 = <u, b>^2 <= (u^T A u)(b^T A^-1 b), so Q(g) <= Q(u).  Least
    squares over the differences of the last _MIX_DEPTH + 1 pairs
    (g, g - u) gives a second, mixed candidate w (Walker & Ni, SIAM J. Numer. Anal. 2011).  The step
    takes w when Q(w) <= Q(g) within _MIX_MARGIN, and otherwise takes g
    and restarts the mixing history, so every accepted iterate satisfies
    Q(u_+) <= Q(g) <= Q(u) up to rounding; mixed_steps counts the steps
    that took w.  Stops once the
    Euler-Lagrange residual norm(A u - mu b)/norm(A u) is at most
    ``tol``; _MAX_ITER steps without that warn and return
    converged=False with the residual reached.  A NaN, negative or
    infinite ``tol`` raises ValueError; 0 runs to the step cap.

    quotient_history records each accepted quotient that does not exceed
    the last one recorded, so it is non-increasing bitwise and ends at
    s_h unless the last steps ticked up by rounding.  A rise beyond
    _RISE_TOL breaks the descent bound and raises RuntimeError.  The
    slack fields are ``quadrature_slack``'s on the minimizer.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    mesh = form.mesh
    q = critical_exponent(mesh.dim, form.s)
    if init is None:
        init = default_start(mesh, form.s)
    if init.mesh is not mesh:
        raise ValueError("initial iterate lives on a different mesh")
    if not np.any(init.values):
        raise ValueError("initial iterate must be nonzero")

    A = form.matrix
    try:
        factor = cho_factor(A, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "linear solve failed on a matrix that passed the positivity audit; "
            "the assembled form is corrupted"
        ) from exc

    u, Au, mu = _candidate(A, mesh, init.free_values, q)
    b, residual = _euler_lagrange(u, Au, mu, q)
    history = [mu]
    pairs = []
    steps = mixed_steps = 0
    while residual > tol and steps < _MAX_ITER:
        g, Ag, mu_g = _candidate(A, mesh, cho_solve(factor, b, check_finite=False), q)
        steps += 1
        pairs.append((g.free_values, g.free_values - u.free_values))
        del pairs[: -_MIX_DEPTH - 1]
        u, Au, mu = g, Ag, mu_g
        if len(pairs) > 1:
            w, Aw, mu_w = _candidate(A, mesh, _mixed(pairs), q)
            if mu_w <= mu_g * (1.0 + _MIX_MARGIN):
                u, Au, mu = w, Aw, mu_w
                mixed_steps += 1
            else:
                del pairs[:-1]
        b, residual = _euler_lagrange(u, Au, mu, q)
        if mu > history[-1] * (1.0 + _RISE_TOL):
            raise RuntimeError(
                f"inverse-power step {steps}: quotient rose from {history[-1]!r} "
                f"to {mu!r} at residual {residual:.3e}, beyond rounding"
            )
        if mu <= history[-1]:
            history.append(mu)
    if residual > tol:
        warnings.warn(
            f"solve: stopped after {steps} steps at Euler-Lagrange residual "
            f"{residual:.3g}, above the tolerance {tol:.0e}",
            RuntimeWarning,
            stacklevel=2,
        )

    slack, tail, cutoff = quadrature_slack(mesh, form.s, u, mu, 1.0)
    return SolverReport(
        s_h=mu,
        minimizer=u,
        iterations=steps,
        mixed_steps=mixed_steps,
        quotient_history=history,
        converged=residual <= tol,
        residual=residual,
        quadrature_slack=slack,
        audit_cutoff=cutoff,
        tail_bound=tail,
    )
