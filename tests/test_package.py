"""Public surface of the package: what ``__all__`` promises is there."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import gausscolloc

SRC = Path(__file__).resolve().parents[1] / "src"

# the whole public surface: a name comes or goes only with an edit here
PUBLIC_NAMES = [
    "AnalyticSolution", "Appendix1Report", "Appendix2Report", "BUILTIN_NAMES",
    "CollocationOperators", "ControlProblem", "ControlSet", "ConvergenceRow",
    "DimensionMismatch", "EvaluationFailure", "GaussCollocError", "IterationFailure",
    "NewtonDivergence", "QuadratureRule", "RateFit", "Residual",
    "SolveReport", "SolverConfig", "Trajectory", "UnknownProblem", "__version__",
    "audit_derivatives", "augment_bolza", "build_operators", "builtin", "check_P1",
    "check_P2", "convergence_study", "costate_to_multipliers", "differentiation_matrix",
    "eval_residual", "fit_rate", "full_grid", "gauss_rule", "hager_optimal_cost",
    "interpolate_trajectory", "interpolation_study", "kkt_residuals", "map_domain",
    "multipliers_to_costate", "radau_rule", "run_interp_suite", "solve",
    "verify_appendix1", "verify_appendix2",
]


def test_every_exported_name_resolves():
    missing = [name for name in gausscolloc.__all__ if not hasattr(gausscolloc, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(gausscolloc.__all__) == len(set(gausscolloc.__all__))


def test_exports_are_exactly_the_public_names():
    assert sorted(gausscolloc.__all__) == PUBLIC_NAMES


def test_solving_loads_neither_analysis_nor_numpy_random():
    # a fresh interpreter: the built-ins' derivative audit draws no random
    # numbers, the analysis names load their module on first use, and a
    # name outside __all__ raises AttributeError without loading it; the
    # appendix1 certificate, exact over all data, draws none either
    script = textwrap.dedent("""
        import json, sys
        import gausscolloc
        from gausscolloc import BUILTIN_NAMES, builtin, solve
        converged = [solve(builtin(name), 10).converged for name in BUILTIN_NAMES]
        try:
            gausscolloc.no_such_name
        except AttributeError as exc:
            missing = str(exc)
        loaded = [m for m in ("gausscolloc.analysis", "numpy.random") if m in sys.modules]
        verify = gausscolloc.verify_appendix1
        from gausscolloc import RateFit
        certified = [verify(kind=kind).passed for kind in ("gauss", "radau")]
        print(json.dumps({"converged": converged, "missing": missing, "loaded": loaded,
                          "resolved": [verify.__module__, RateFit.__module__],
                          "certified": certified,
                          "random_after_verify": "numpy.random" in sys.modules}))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "converged": [True, True],
        "missing": "module 'gausscolloc' has no attribute 'no_such_name'", "loaded": [],
        "resolved": ["gausscolloc.analysis", "gausscolloc.analysis"],
        "certified": [True, True], "random_after_verify": False}
