"""Legendre-Gauss collocation for control-constrained optimal control.

The package builds Gauss quadrature rules and the associated collocation
differentiation operators, transcribes Mayer-form optimal control problems
onto them, solves the resulting optimality system with exact state and
costate elimination, stepping the control by truncated Newton-CG where no
control is active and by projected gradient otherwise, and ships verification
studies for the operator norm bounds, interpolation rates, projection
inequalities, and solver convergence order.

Importing the package loads only ``errors``.  Every other public name, and
each submodule named in ``_HOMES``, loads its module on first access and is
then bound here, so ``props`` and ``verify`` never load ``problem``,
``transcription`` or ``solver``, and a solve never loads ``analysis``.
"""
from importlib import import_module

from .errors import (DimensionMismatch, EvaluationFailure, GaussCollocError,
                     IterationFailure, NewtonDivergence, UnknownProblem)

__version__ = "0.1.0"

# each lazily exported name, by the submodule that defines it; return records stay there
_HOMES = {
    "quadrature": ("gauss_rule", "radau_rule"),
    "diffmat": ("CollocationOperators", "build_operators", "differentiation_matrix",
                "check_P1", "check_P2"),
    "problem": ("ControlProblem", "ControlSet", "AnalyticSolution", "augment_bolza",
                "map_domain", "audit_derivatives", "builtin", "BUILTIN_NAMES",
                "hager_optimal_cost"),
    "transcription": ("Trajectory", "eval_residual", "full_grid",
                      "costate_to_multipliers", "multipliers_to_costate",
                      "kkt_residuals", "interpolate_trajectory"),
    "solver": ("SolverConfig", "solve"),
    "analysis": ("fit_rate", "interpolation_study", "run_interp_suite",
                 "verify_appendix1", "verify_appendix2", "convergence_study"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["GaussCollocError", "IterationFailure", "DimensionMismatch", "EvaluationFailure",
           "UnknownProblem", "NewtonDivergence", *_HOME, "__version__"]


def __getattr__(name):
    if name in _HOMES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
