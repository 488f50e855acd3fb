"""Minimization of the discrete Rayleigh quotient and manifold diagnostics.

The discrete constant is the minimum of seminorm_sq(u) over functions
with unit critical-exponent norm.  The nonlinear inverse power method
(Hein & Buehler, NIPS 2010) solves A v = b(u) with one Cholesky factor
and renormalizes; Hoelder and Cauchy-Schwarz in the A-inner product give
Q(v) <= Q(u), so every full step is a descent step and no line search
is needed.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SolverReport:
    """Result of one Rayleigh-quotient minimization."""

    s_h: float
    minimizer: FeFunction
    iterations: int
    quotient_history: list
    converged: bool
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


def _unit_positive(mesh, values, q) -> FeFunction:
    u = FeFunction(mesh, values)
    nrm = lq_norm(u, q)
    if nrm == 0.0:
        raise ValueError("iterate collapsed to zero")
    vals = values / nrm
    if vals[: mesh.free_count].mean() < 0:
        vals = -vals
    return FeFunction(mesh, vals)


def _euler_lagrange(A, u: FeFunction, q: float):
    """(mu, b, residual) of a unit iterate: its quotient u^T A u, the
    vector b(u), and norm(A u - mu b) / norm(A u)."""
    w = u.free_values
    Aw = A @ w
    mu = float(w @ Aw)
    b = nonlinear_residual(u, q)
    return mu, b, float(np.linalg.norm(Aw - mu * b) / np.linalg.norm(Aw))


def solve(
    form: NonlocalForm,
    init: FeFunction | None = None,
    tol: float = 1e-10,
) -> SolverReport:
    """Minimize the discrete quotient by the nonlinear inverse power method.

    Per step: solve A v = b(u) with the one Cholesky factor and normalize
    v to unit critical norm.  For unit u, Hoelder gives <v, b> <= |v|_q
    and Cauchy-Schwarz in the A-inner product gives
    1 = <u, b>^2 <= (u^T A u)(b^T A^-1 b), so Q(v) <= Q(u): every full
    step descends.  Stops once the Euler-Lagrange residual
    norm(A u - mu b)/norm(A u) is at most ``tol``; _MAX_ITER steps
    without that return converged=False.

    quotient_history records each quotient that does not exceed the last
    one recorded, so it is non-increasing bitwise and ends at s_h unless
    the last steps ticked up by rounding.  A rise beyond _RISE_TOL breaks
    the descent bound and raises RuntimeError.  quadrature_slack compares
    s_h with the quotient under the boosted quadrature.
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

    u = _unit_positive(mesh, init.values, q)
    mu, b, residual = _euler_lagrange(A, u, q)
    history = [mu]
    steps = 0
    while residual > tol and steps < _MAX_ITER:
        step = np.zeros(mesh.n_nodes)
        step[: mesh.free_count] = cho_solve(factor, b, check_finite=False)
        steps += 1
        u = _unit_positive(mesh, step, q)
        mu, b, residual = _euler_lagrange(A, u, q)
        if mu > history[-1] * (1.0 + _RISE_TOL):
            raise RuntimeError(
                f"inverse-power step {steps}: quotient rose from {history[-1]!r} "
                f"to {mu!r} at residual {residual:.3e}, beyond rounding"
            )
        if mu <= history[-1]:
            history.append(mu)

    fine_semi = seminorm_sq_direct(mesh, form.s, u, form.quad_spec.boosted())
    fine_norm = lq_norm(u, q, order=12)

    return SolverReport(
        s_h=mu,
        minimizer=u,
        iterations=steps,
        quotient_history=history,
        converged=residual <= tol,
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
