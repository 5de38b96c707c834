"""Legendre-Gauss collocation for control-constrained optimal control.

The package builds Gauss quadrature rules and the associated collocation
differentiation operators, transcribes Mayer-form optimal control problems
onto them, solves the resulting optimality system by projected gradient
iteration with exact state and costate elimination, and ships verification
studies for the operator norm bounds, interpolation rates, projection
inequalities, and solver convergence order.
"""
from .errors import (DimensionMismatch, EvaluationFailure, GaussCollocError,
                     IterationFailure, NewtonDivergence, UnknownProblem)
from .quadrature import (QuadratureRule, gauss_rule, integrate, legendre_eval,
                         radau_rule)
from .diffmat import (CollocationOperators, barycentric_interpolate,
                      build_operators, check_P1, check_P2,
                      differentiation_matrix, solve_D1N)
from .problem import (AnalyticSolution, BUILTIN_NAMES, ControlProblem,
                      ControlSet, RunningCost, audit_derivatives,
                      augment_bolza, builtin, hager_optimal_cost, map_domain)
from .transcription import (Residual, Trajectory,
                            costate_to_multipliers,
                            eval_residual, full_grid, interpolate_trajectory,
                            kkt_residuals, multipliers_to_costate, omega_norm)
from .solver import SolveReport, SolverConfig, solve, solve_costate, solve_state
from .analysis import (Appendix1Report, Appendix2Report, ConvergenceRow,
                       RateFit, convergence_study, fit_rate,
                       interpolation_study, psi_norm_table, run_interp_suite,
                       verify_appendix1, verify_appendix2)

__version__ = "0.1.0"

__all__ = [
    "GaussCollocError", "IterationFailure", "DimensionMismatch",
    "EvaluationFailure", "UnknownProblem",
    "NewtonDivergence",
    "QuadratureRule", "gauss_rule", "radau_rule", "integrate", "legendre_eval",
    "CollocationOperators", "build_operators", "solve_D1N",
    "differentiation_matrix", "barycentric_interpolate",
    "check_P1", "check_P2",
    "ControlProblem", "ControlSet", "RunningCost",
    "AnalyticSolution", "augment_bolza", "map_domain",
    "audit_derivatives", "builtin", "BUILTIN_NAMES",
    "hager_optimal_cost",
    "Trajectory", "Residual", "eval_residual", "omega_norm",
    "full_grid", "costate_to_multipliers", "multipliers_to_costate",
    "kkt_residuals", "interpolate_trajectory",
    "SolverConfig", "SolveReport", "solve", "solve_state", "solve_costate",
    "RateFit", "fit_rate", "interpolation_study", "run_interp_suite",
    "verify_appendix1",
    "verify_appendix2", "psi_norm_table", "convergence_study",
    "ConvergenceRow", "Appendix1Report", "Appendix2Report",
    "__version__",
]
