"""Numerical laboratory for sharp fractional Sobolev constants on the ball.

Piecewise-linear finite elements on the unit ball (dimensions 1 and 2),
an exactly-integrated nonlocal quadratic form, a safeguarded Rayleigh
quotient minimizer, and rate experiments measuring how fast the discrete
constant approaches the sharp one under mesh refinement.
"""

from ._quad import reference_rule
from .bubble import (
    Bubble,
    bubble_lq_norm,
    normalize_lambda,
    truncated_bubble,
)
from .experiments import (
    InterpRates,
    RateFit,
    SweepRecord,
    SweepResult,
    discrete_constant_sweep,
    fit_rate,
    make_rng,
    read_records,
    upper_bound_sweep,
    verify_covering,
    verify_functional_inequalities,
    verify_interp_error,
    verify_minimizing_sequence,
    write_records,
)
from .gagliardo import (
    AssemblyError,
    AssemblyReport,
    NonlocalForm,
    assemble,
    complement_weight,
    element_self_interaction,
    seminorm_sq,
    seminorm_sq_direct,
)
from .mesh import (
    BallMesh,
    FeFunction,
    SizeLimitError,
    build_mesh,
    element_geometry,
    element_pairs,
    interpolate,
    make_ball_mesh,
    mesh_quality,
)
from .norms import lq_norm, nonlinear_residual
from .params import (
    check_order,
    cosine_kernel_integral,
    critical_exponent,
    exact_constant,
    optimal_concentration,
    rate_exponent,
)
from .solver import ManifoldFit, SolverReport, deficit, fit_manifold, quotient, solve

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "AssemblyReport",
    "BallMesh",
    "Bubble",
    "FeFunction",
    "InterpRates",
    "ManifoldFit",
    "NonlocalForm",
    "RateFit",
    "SizeLimitError",
    "SolverReport",
    "SweepRecord",
    "SweepResult",
    "assemble",
    "bubble_lq_norm",
    "build_mesh",
    "check_order",
    "complement_weight",
    "cosine_kernel_integral",
    "critical_exponent",
    "deficit",
    "discrete_constant_sweep",
    "element_geometry",
    "element_pairs",
    "element_self_interaction",
    "exact_constant",
    "fit_manifold",
    "fit_rate",
    "interpolate",
    "lq_norm",
    "make_ball_mesh",
    "make_rng",
    "mesh_quality",
    "nonlinear_residual",
    "normalize_lambda",
    "optimal_concentration",
    "quotient",
    "rate_exponent",
    "read_records",
    "reference_rule",
    "seminorm_sq",
    "seminorm_sq_direct",
    "solve",
    "truncated_bubble",
    "upper_bound_sweep",
    "verify_covering",
    "verify_functional_inequalities",
    "verify_interp_error",
    "verify_minimizing_sequence",
    "write_records",
]
