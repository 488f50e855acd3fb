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
search, second factorization or second product with A per step is
needed.  The factor overwrites the lower triangle of the form's own
matrix, whose upper triangle still gives A w (``NonlocalForm.apply``),
so a solve holds one n x n array (Golub & Van Loan, *Matrix
Computations*, 4th ed., section 4.2).  That factorization succeeds
exactly when the form is positive definite, so it is the one place the
package decides it: ``assemble`` audits symmetry alone.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bubble import normalize_lambda, truncated_bubble
from .gagliardo import (
    AssemblyError,
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
    "check_tol",
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


def _unit_positive(mesh, free, q):
    """(u, d): the function with free values ``free / d``, d = +-|free|_q,
    the sign chosen so that the free values have a positive mean."""
    nrm = lq_norm(FeFunction.from_free(mesh, free), q)
    if nrm == 0.0:
        raise ValueError("iterate collapsed to zero")
    vals = free / nrm
    if vals.mean() < 0:
        vals, nrm = -vals, -nrm
    return FeFunction.from_free(mesh, vals), nrm


def _residual(Au, mu: float, b) -> float:
    """norm(A u - mu b) / norm(A u): the Euler-Lagrange residual of a unit
    iterate with A u, mu = u^T A u and b = b(u)."""
    return float(np.linalg.norm(Au - mu * b) / np.linalg.norm(Au))


def _candidate(mesh, q, free, A_free):
    """(u, A u, u^T A u) of ``free`` normalized by _unit_positive, with
    A u = A_free / d from A_free = A free."""
    u, d = _unit_positive(mesh, free, q)
    Au = A_free / d
    return u, Au, float(u.free_values @ Au)


def _mixed(plain):
    """(w, A w): the Anderson-mixed free values from the recorded plain steps.

    Each entry of plain is (g, g - u, A g, A (g - g')), g' the plain
    iterate before g.  The coefficients gamma minimize norm(f_k - dF
    gamma) over the differences of successive residuals f = g - u
    (Walker & Ni 2011, type II); the candidate is w = g_k - dG gamma,
    and A w = (A g)_k - A(dG) gamma by linearity, with no product with
    A.  A(dG) are the stored products of the differences themselves:
    differences of the stored A g would carry each product's rounding,
    eps |A| |g|, times gamma, which reaches the hundreds.
    """
    G, F, AG, AdG = (np.array(part) for part in zip(*plain))
    dG, dF = np.diff(G, axis=0), np.diff(F, axis=0)
    gamma = np.linalg.lstsq(dF.T, F[-1], rcond=None)[0]
    return G[-1] - gamma @ dG, AG[-1] - gamma @ AdG[1:]


def check_tol(tol) -> None:
    """ValueError unless tol, solve's residual tolerance, is a finite number >= 0."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


@contextmanager
def _factored(A):
    """Factor A in place in its lower triangle; yields b -> A^-1 b, and restores A on exit.

    cho_factor takes the F-ordered view A.T with overwrite_a, so the
    upper factor of A.T lands in A's lower triangle and diagonal, and
    no copy of A is made.  The factor's diagonal is kept as a vector,
    and A's own is put back on the array and swapped out only around
    each cho_solve, so between solves A's upper triangle and diagonal
    are intact for ``NonlocalForm.apply``.  On exit, normal or by any
    exception, A's upper triangle is copied back over the lower, tile by
    tile, and its diagonal put back: for the exactly symmetric matrix
    that ``assemble`` returns, A is then bitwise as it was.  The
    factorization succeeds exactly when A is positive definite; where it
    fails, AssemblyError is raised.
    """
    diag = np.diagonal(A).copy()
    try:
        try:
            factor = cho_factor(A.T, lower=False, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError("assembled matrix is not positive definite") from exc
        c = factor[0]
        root = np.diagonal(c).copy()
        np.fill_diagonal(c, diag)

        def inverse(b):
            np.fill_diagonal(c, root)
            x = cho_solve(factor, b, check_finite=False)
            np.fill_diagonal(c, diag)
            return x

        yield inverse
    finally:
        n, t = len(A), 128
        for i in range(0, n, t):
            for j in range(i + t, n, t):
                A[j : j + t, i : i + t] = A[i : i + t, j : j + t].T
            tile = A[i : i + t, i : i + t]
            lower = np.tril_indices(len(tile), -1)
            tile[lower] = tile.T[lower]
        np.fill_diagonal(A, diag)


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

    init is the start, by default ``default_start``; the discrete sweep
    passes the minimizer of the level below, prolonged.  Per step: solve
    A v = b(u) with the one Cholesky factor and normalize v to unit
    critical norm, the plain iterate g.  For unit u, Hoelder gives
    <v, b> <= |v|_q and Cauchy-Schwarz in the A-inner product gives
    1 = <u, b>^2 <= (u^T A u)(b^T A^-1 b), so Q(g) <= Q(u).  Least
    squares over the differences of the last _MIX_DEPTH + 1 pairs
    (g, g - u) gives a second, mixed candidate w (Walker & Ni, SIAM J.
    Numer. Anal. 2011).  The step takes w when Q(w) <= Q(g) within
    _MIX_MARGIN, and otherwise takes g and restarts the mixing history,
    so every accepted iterate satisfies Q(u_+) <= Q(g) <= Q(u) up to
    rounding; mixed_steps counts the steps that took w.  Stops once the
    Euler-Lagrange residual norm(A u - mu b)/norm(A u) is at most
    ``tol``; _MAX_ITER steps without that warn and return
    converged=False with the residual reached.  A NaN, negative or
    infinite ``tol`` raises ValueError; 0 runs to the step cap.

    A step takes one product with A, that of g - g', g' the plain
    iterate before g or the start: A g is A g' plus it, and A w follows
    from the stored products by linearity (``_mixed``).  The product of
    a difference carries rounding in proportion to the difference, so
    the quotients stay within a few ulp of those of direct products.
    On the iterate returned, A u, mu and the residual are recomputed by
    one product, so s_h is u . form.apply(u) bitwise.

    The factor overwrites form.matrix's lower triangle in place, and
    every product reads the upper one (``_factored``), so the solve
    holds no second n x n array; form.matrix is bitwise as assembled
    when solve returns or raises.  The factorization decides that the
    form is positive definite, and a form that is not raises
    AssemblyError before any step.

    quotient_history records each accepted quotient that does not exceed
    the last one recorded, so it is non-increasing bitwise and ends at
    s_h unless the last steps ticked up by rounding.  A rise beyond
    _RISE_TOL breaks the descent bound and raises RuntimeError.  The
    slack fields are ``quadrature_slack``'s on the minimizer.
    """
    check_tol(tol)
    mesh = form.mesh
    q = critical_exponent(mesh.dim, form.s)
    if init is None:
        init = default_start(mesh, form.s)
    if init.mesh is not mesh:
        raise ValueError("initial iterate lives on a different mesh")
    if not np.any(init.values):
        raise ValueError("initial iterate must be nonzero")

    with _factored(form.matrix) as inverse:
        u = _unit_positive(mesh, init.free_values, q)[0]
        Au = form.apply(u.free_values)
        mu = float(u.free_values @ Au)
        b = nonlinear_residual(u, q)
        residual = _residual(Au, mu, b)
        history = [mu]
        plain = []
        # the last plain iterate, at first the start, and its product
        g_last, Ag_last = u.free_values, Au
        steps = mixed_steps = 0
        while residual > tol and steps < _MAX_ITER:
            g = _unit_positive(mesh, inverse(b), q)[0]
            steps += 1
            A_step = form.apply(g.free_values - g_last)
            g_last, Ag_last = g.free_values, Ag_last + A_step
            plain.append((g_last, g_last - u.free_values, Ag_last, A_step))
            del plain[: -_MIX_DEPTH - 1]
            u, Au, mu = g, Ag_last, float(g_last @ Ag_last)
            if len(plain) > 1:
                w, Aw, mu_w = _candidate(mesh, q, *_mixed(plain))
                if mu_w <= mu * (1.0 + _MIX_MARGIN):
                    u, Au, mu = w, Aw, mu_w
                    mixed_steps += 1
                else:
                    del plain[:-1]
            b = nonlinear_residual(u, q)
            residual = _residual(Au, mu, b)
            if residual <= tol or steps == _MAX_ITER:
                # the iterate returned: its own product, so s_h is u . A u bitwise
                Au = form.apply(u.free_values)
                mu = float(u.free_values @ Au)
                residual = _residual(Au, mu, b)
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
