"""Public surface of the package: what ``__all__`` promises is there."""

import gausscolloc

# the whole public surface: a name comes or goes only with an edit here
PUBLIC_NAMES = [
    "AnalyticSolution", "Appendix1Report", "Appendix2Report", "BUILTIN_NAMES",
    "CollocationOperators", "ControlProblem", "ControlSet", "ConvergenceRow",
    "DimensionMismatch", "EvaluationFailure", "GaussCollocError", "IterationFailure",
    "NewtonDivergence", "QuadratureRule", "RateFit", "Residual", "RunningCost",
    "SolveReport", "SolverConfig", "Trajectory", "UnknownProblem", "__version__",
    "audit_derivatives", "augment_bolza", "build_operators", "builtin", "check_P1",
    "check_P2", "convergence_study", "costate_to_multipliers", "differentiation_matrix",
    "eval_residual", "fit_rate", "full_grid", "gauss_rule", "hager_optimal_cost",
    "interpolate_trajectory", "interpolation_study", "kkt_residuals", "map_domain",
    "multipliers_to_costate", "radau_rule", "run_interp_suite", "solve",
    "solve_costate", "solve_state", "verify_appendix1", "verify_appendix2",
]


def test_every_exported_name_resolves():
    missing = [name for name in gausscolloc.__all__ if not hasattr(gausscolloc, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(gausscolloc.__all__) == len(set(gausscolloc.__all__))


def test_exports_are_exactly_the_public_names():
    assert sorted(gausscolloc.__all__) == PUBLIC_NAMES
