"""Minimization of the discrete Rayleigh quotient and manifold diagnostics.

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
from scipy.optimize import minimize

from .bubble import Bubble, normalize_lambda, truncated_bubble
from .gagliardo import NonlocalForm, seminorm_sq, seminorm_sq_direct
from .mesh import FeFunction, interpolate
from .norms import lq_norm, nonlinear_residual
from .params import critical_exponent, exact_constant, optimal_concentration

__all__ = ["ManifoldFit", "SolverReport", "deficit", "fit_manifold", "quotient", "solve"]

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
    tolerance_used: float
    quadrature_slack: float


@dataclass(frozen=True)
class ManifoldFit:
    """Best local fit of a concentrated-profile interpolant to a function."""

    amplitude: float
    concentration: float
    center: np.ndarray
    discrete_distance_sq: float
    converged: bool


def quotient(form: NonlocalForm, u: FeFunction) -> float:
    """Rayleigh quotient seminorm_sq / (critical L^q norm)^2."""
    if not np.any(u.values):
        raise ValueError("quotient of the zero function is undefined")
    q = critical_exponent(form.mesh.dim, form.s)
    return seminorm_sq(form, u) / lq_norm(u, q) ** 2


def deficit(form: NonlocalForm, u: FeFunction) -> float:
    """Rayleigh quotient minus the sharp constant; zero-homogeneous in u."""
    return quotient(form, u) - exact_constant(form.mesh.dim, form.s)


def default_start(form: NonlocalForm) -> FeFunction:
    """Interpolated concentrated profile with the balanced concentration."""
    mesh = form.mesh
    c_h = optimal_concentration(mesh.h, mesh.dim, form.s)
    lam = normalize_lambda(c_h, mesh.dim, form.s)
    return interpolate(mesh, truncated_bubble(lam, c_h, mesh.dim, form.s))


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
    converged=False with the residual reached.

    quotient_history records each accepted quotient that does not exceed
    the last one recorded, so it is non-increasing bitwise and ends at
    s_h unless the last steps ticked up by rounding.  A rise beyond
    _RISE_TOL breaks the descent bound and raises RuntimeError.
    quadrature_slack compares s_h with the quotient one rule level above
    the form's.
    """
    mesh = form.mesh
    q = critical_exponent(mesh.dim, form.s)
    if init is None:
        init = default_start(form)
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

    fine_semi = seminorm_sq_direct(mesh, form.s, u, boost=form.boost + 1)
    fine_norm = lq_norm(u, q, order=12)

    return SolverReport(
        s_h=mu,
        minimizer=u,
        iterations=steps,
        mixed_steps=mixed_steps,
        quotient_history=history,
        converged=residual <= tol,
        residual=residual,
        tolerance_used=tol,
        quadrature_slack=abs(fine_semi / fine_norm**2 - mu),
    )


def fit_manifold(
    form: NonlocalForm,
    u: FeFunction,
    init_guess: tuple | None = None,
) -> ManifoldFit:
    """Locally minimize seminorm_sq(u - I_h Phi) over profile parameters.

    The amplitude enters quadratically and is eliminated in closed form;
    Nelder-Mead searches over log-concentration and the center.
    """
    mesh = form.mesh
    dim = mesh.dim
    if not np.any(u.values):
        raise ValueError("cannot fit the zero function")
    if init_guess is None:
        init_guess = (1.0, optimal_concentration(mesh.h, dim, form.s), np.zeros(dim))
    _, c0, x0 = init_guess
    A = form.matrix
    w = u.free_values
    uAu = float(w @ A @ w)

    def eliminated(params):
        c = float(np.exp(params[0]))
        center = np.asarray(params[1:], dtype=float)
        phi = interpolate(mesh, Bubble(dim, form.s, 1.0, c, center))
        pf = phi.free_values
        Ap = A @ pf
        den = float(pf @ Ap)
        if den <= 0.0:
            return uAu, 0.0
        num = float(w @ Ap)
        return uAu - num * num / den, num / den

    res = minimize(
        lambda p: eliminated(p)[0],
        x0=np.concatenate([[np.log(c0)], np.atleast_1d(x0)]),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": max(uAu, 1e-30) * 1e-13, "maxiter": 600},
    )
    dist_sq, lam = eliminated(res.x)
    return ManifoldFit(
        amplitude=lam,
        concentration=float(np.exp(res.x[0])),
        center=np.asarray(res.x[1:], dtype=float),
        discrete_distance_sq=max(dist_sq, 0.0),
        converged=bool(res.success),
    )
