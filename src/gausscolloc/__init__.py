"""Legendre-Gauss collocation for control-constrained optimal control.

The package builds Gauss quadrature rules and the associated collocation
differentiation operators, transcribes Mayer-form optimal control problems
onto them, solves the resulting optimality system with exact state and
costate elimination, stepping the control by truncated Newton-CG where no
control is active and by projected gradient otherwise, and ships verification
studies for the operator norm bounds, interpolation rates, projection
inequalities, and solver convergence order.  No solve uses those studies,
so their names load ``gausscolloc.analysis`` on first use, not on import.
"""
from .errors import (DimensionMismatch, EvaluationFailure, GaussCollocError,
                     IterationFailure, NewtonDivergence, UnknownProblem)
from .quadrature import QuadratureRule, gauss_rule, radau_rule
from .diffmat import (CollocationOperators, build_operators, check_P1, check_P2,
                      differentiation_matrix)
from .problem import (AnalyticSolution, BUILTIN_NAMES, ControlProblem,
                      ControlSet, audit_derivatives,
                      augment_bolza, builtin, hager_optimal_cost, map_domain)
from .transcription import (Residual, Trajectory, costate_to_multipliers,
                            eval_residual, full_grid, interpolate_trajectory,
                            kkt_residuals, multipliers_to_costate)
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "GaussCollocError", "IterationFailure", "DimensionMismatch",
    "EvaluationFailure", "UnknownProblem",
    "NewtonDivergence",
    "QuadratureRule", "gauss_rule", "radau_rule",
    "CollocationOperators", "build_operators", "differentiation_matrix",
    "check_P1", "check_P2",
    "ControlProblem", "ControlSet",
    "AnalyticSolution", "augment_bolza", "map_domain",
    "audit_derivatives", "builtin", "BUILTIN_NAMES",
    "hager_optimal_cost",
    "Trajectory", "Residual", "eval_residual",
    "full_grid", "costate_to_multipliers", "multipliers_to_costate",
    "kkt_residuals", "interpolate_trajectory",
    "SolverConfig", "SolveReport", "solve",
    "RateFit", "fit_rate", "interpolation_study", "run_interp_suite",
    "verify_appendix1",
    "verify_appendix2", "convergence_study",
    "ConvergenceRow", "Appendix1Report", "Appendix2Report",
    "__version__",
]


def __getattr__(name):
    # an exported name not bound above is one of the analysis layer's
    if name in __all__:
        from . import analysis
        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
