"""Public surface of the package: what ``__all__`` promises is there."""

import json
import os
import subprocess
import sys
import textwrap
from importlib import import_module
from pathlib import Path

import gausscolloc

SRC = Path(__file__).resolve().parents[1] / "src"

# the whole public surface: a name comes or goes only with an edit here
PUBLIC_NAMES = [
    "AnalyticSolution", "BUILTIN_NAMES", "CollocationOperators", "ControlProblem",
    "ControlSet", "DimensionMismatch", "EvaluationFailure", "GaussCollocError",
    "IterationFailure", "NewtonDivergence", "SolverConfig", "Trajectory", "UnknownProblem",
    "__version__", "audit_derivatives", "augment_bolza", "build_operators", "builtin",
    "check_P1", "check_P2", "convergence_study", "costate_to_multipliers",
    "differentiation_matrix", "eval_residual", "fit_rate", "full_grid", "gauss_rule",
    "hager_optimal_cost", "interpolate_trajectory", "interpolation_study", "kkt_residuals",
    "map_domain", "multipliers_to_costate", "radau_rule", "run_interp_suite", "solve",
    "verify_appendix1", "verify_appendix2",
]


def test_every_exported_name_resolves():
    missing = [name for name in gausscolloc.__all__ if not hasattr(gausscolloc, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(gausscolloc.__all__) == len(set(gausscolloc.__all__))


def test_exports_are_exactly_the_public_names():
    assert sorted(gausscolloc.__all__) == PUBLIC_NAMES


def test_return_records_are_read_from_their_modules():
    # what the entry points return is named where it is defined, not exported here
    records = {"quadrature": ["QuadratureRule"], "transcription": ["Residual"],
               "solver": ["SolveReport"],
               "analysis": ["RateFit", "ConvergenceRow", "Appendix1Report", "Appendix2Report"]}
    for module, names in records.items():
        for name in names:
            assert isinstance(getattr(import_module(f"gausscolloc.{module}"), name), type)
            assert name not in gausscolloc.__all__ and not hasattr(gausscolloc, name), name


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_name_is_its_home_modules_object_and_stays_bound():
    # a name's home is the module its object names, or the module that
    # defines the constant; once read, the name is bound in the package
    for name in gausscolloc.__all__:
        value = getattr(gausscolloc, name)
        home = {"BUILTIN_NAMES": "gausscolloc.problem",
                "__version__": "gausscolloc"}.get(name) or value.__module__
        assert getattr(sys.modules[home], name) is value, name
        assert vars(gausscolloc)[name] is value, name


def test_solving_loads_neither_analysis_nor_numpy_random():
    # a fresh interpreter: importing the package loads only its errors, and
    # every other name and the submodules load on first access, so dir()
    # lists names not bound yet and an unknown name loads nothing; the
    # built-ins' derivative audit draws no random numbers, a solve loads no
    # analysis, and the appendix1 certificate, exact over all data, draws
    # none either
    result = _run_fresh("""
        import json, sys
        import gausscolloc

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("gausscolloc."))

        on_import = loaded()
        bound = sorted(set(gausscolloc.__all__) & set(vars(gausscolloc)))
        undirected = sorted(set(gausscolloc.__all__) - set(dir(gausscolloc)))
        try:
            gausscolloc.no_such_name
        except AttributeError as exc:
            missing = str(exc)
        after_missing = loaded()
        submodules = [getattr(gausscolloc, name).__name__
                      for name in ("problem", "solver", "quadrature")]
        from gausscolloc import BUILTIN_NAMES, builtin, solve
        converged = [solve(builtin(name), 10).converged for name in BUILTIN_NAMES]
        loaded_by_solve = [m for m in ("gausscolloc.analysis", "numpy.random")
                           if m in sys.modules]
        verify = gausscolloc.verify_appendix1
        from gausscolloc import fit_rate
        certified = [verify(kind=kind).passed for kind in ("gauss", "radau")]
        for name in gausscolloc.__all__:
            getattr(gausscolloc, name)
        print(json.dumps({
            "on_import": on_import, "bound": bound, "undirected": undirected,
            "missing": missing, "after_missing": after_missing,
            "submodules": submodules, "converged": converged,
            "loaded": loaded_by_solve,
            "resolved": [verify.__module__, fit_rate.__module__],
            "certified": certified,
            "random_after_verify": "numpy.random" in sys.modules,
            "unbound": sorted(set(gausscolloc.__all__) - set(vars(gausscolloc)))}))
    """)
    assert result == {
        "on_import": ["gausscolloc.errors"],
        "bound": sorted(["DimensionMismatch", "EvaluationFailure", "GaussCollocError",
                         "IterationFailure", "NewtonDivergence", "UnknownProblem",
                         "__version__"]),
        "undirected": [],
        "missing": "module 'gausscolloc' has no attribute 'no_such_name'",
        "after_missing": ["gausscolloc.errors"],
        "submodules": ["gausscolloc.problem", "gausscolloc.solver", "gausscolloc.quadrature"],
        "converged": [True, True], "loaded": [],
        "resolved": ["gausscolloc.analysis", "gausscolloc.analysis"],
        "certified": [True, True], "random_after_verify": False, "unbound": []}


# the certify workload's commands, as it runs them
CERTIFY = [["props", "--n-max", "5"],
           ["verify", "--suite", "appendix1", "--kind", "gauss"],
           ["verify", "--suite", "appendix1", "--kind", "radau"],
           ["verify", "--suite", "appendix2", "--function", "all"],
           ["verify", "--suite", "interp"]]


def test_certificates_load_no_solver_stack():
    # a fresh interpreter: the CLI loads what props and verify need, and
    # analysis, so a tracer installed straight after the import finds the
    # suites; neither command loads the solver stack or numpy.ma, and solve
    # and convergence load the stack themselves
    result = _run_fresh(f"""
        import contextlib, io, json, sys
        import gausscolloc.cli

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return gausscolloc.cli.main(argv)

        stack = ("gausscolloc.problem", "gausscolloc.transcription", "gausscolloc.solver")
        on_import = sorted(m for m in sys.modules if m.startswith("gausscolloc."))
        certify = [[run(argv), [m for m in stack if m in sys.modules],
                    "numpy.ma" in sys.modules]
                   for argv in {CERTIFY!r}]
        solves = [run(["solve", "--problem", "hager84-constrained", "--N", "10"]),
                  run(["convergence", "--problem", "hager84-unconstrained",
                       "--n-list", "4:4:20"])]
        print(json.dumps({{"on_import": on_import, "certify": certify, "solves": solves,
                          "stack": [m for m in stack if m in sys.modules]}}))
    """)
    assert result == {
        "on_import": ["gausscolloc.analysis", "gausscolloc.cli", "gausscolloc.diffmat",
                      "gausscolloc.errors", "gausscolloc.quadrature"],
        "certify": [[0, [], False]] * len(CERTIFY), "solves": [0, 0],
        "stack": ["gausscolloc.problem", "gausscolloc.transcription", "gausscolloc.solver"]}
