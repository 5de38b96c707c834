"""Batch command-line front end.

Subcommands: ``nodes`` (quadrature tables), ``props`` (differentiation
matrix property sweep), ``solve`` (one collocation solve), ``verify``
(analysis suites), ``convergence`` (error-vs-order study).  Numeric text
output always uses 17 significant digits so binary64 values round-trip.

Exit codes: 0 on success or a passing check, 2 on a numerical failure
(non-convergence, failed verification), 3 on usage errors including
unknown problem or suite names, an output path that is a directory or
whose directory does not exist, and an output file that cannot be
written.  When ``--out`` is given, a JSON manifest describing the run and
its numeric environment (Python, numpy and scipy versions, BLAS thread
variables) is written next to the output file; rerunning the same command
line reproduces payloads bit for bit apart from timestamps and wall-clock
fields.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (APPENDIX1_ORDERS, APPENDIX2_FUNCTIONS, APPENDIX2_ORDERS,
                       INTERP_FUNCTIONS, convergence_study, run_interp_suite,
                       verify_appendix1, verify_appendix2)
from .diffmat import CollocationOperators, check_P1, check_P2
from .errors import GaussCollocError, UnknownProblem
from .quadrature import gauss_rule, gauss_rules, radau_rule

USAGE_EXIT = 3
NUMERIC_EXIT = 2
_ORDERS = range(1, 1001)
_ORDER_RULE = "order must be between 1 and 1000"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 3, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _g17(x):
    return format(float(x), ".17g")


def _flag(b):
    return "true" if b else "false"


def _write_manifest(out, args):
    # each costs more to import than to use
    import platform
    from datetime import datetime, timezone
    from importlib.metadata import version

    manifest = {
        "command": args.command,
        # every flag parses to a str, int or float, which JSON writes as it is
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in ("func", "out", "command") and v is not None},
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        # read from metadata, not by import: props and verify never load scipy
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": version("scipy"),
            **{var: os.environ.get(var) for var in _THREAD_VARS},
        },
    }
    Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _parse_n_list(text):
    """Accept 'a:step:b' ranges or comma-separated lists of distinct orders;
    every listed order, and both ends of a range, must lie in 1..1000."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:step:stop")
        a, s, b = (int(p) for p in parts)
        if s <= 0 or b < a:
            raise ValueError("range needs positive step and stop >= start")
        orders, ends = range(a, b + 1, s), (a, b)
    else:
        orders = ends = [int(p) for p in text.split(",") if p.strip()]
        if len(set(orders)) < len(orders):
            raise ValueError(f"orders must be distinct, got {text}")
    for n in ends:
        if n not in _ORDERS:
            raise ValueError(f"{_ORDER_RULE}, got {n}")
    return list(orders)


def cmd_nodes(args):
    rule = gauss_rule(args.n) if args.kind == "gauss" else radau_rule(args.n)
    lines = ["i,node,weight"]
    for i in range(args.n):
        weight = _g17(rule.weights[i]) if rule.weights is not None else ""
        lines.append(f"{i + 1},{_g17(rule.nodes[i])},{weight}")
    return "\n".join(lines) + "\n", 0


def cmd_props(args):
    lines = ["N,p1_norm,p1_pass,p2_max_row_norm,p2_pass,last_row_gap"]
    for rule in gauss_rules(range(1, args.n_max + 1)):
        ops = CollocationOperators(rule)  # uncached: props leaves the solver's cache alone
        p1 = check_P1(ops)
        p2 = check_P2(ops)
        lines.append(",".join([
            str(rule.order), _g17(p1.norm_inf), _flag(p1.passed),
            _g17(p2.max_row_norm), _flag(p2.passed), _g17(p2.last_row_gap)]))
    return "\n".join(lines) + "\n", 0


def cmd_solve(args):
    from .problem import builtin  # props and verify never load the solver stack
    from .solver import SolverConfig, solve

    problem = builtin(args.problem)
    # unset flags take SolverConfig's defaults, which the manifest then records
    args.tol = SolverConfig.tol_y if args.tol is None else args.tol
    args.max_iter = SolverConfig.max_outer if args.max_iter is None else args.max_iter
    config = SolverConfig(tol_y=args.tol, max_outer=args.max_iter)
    report = solve(problem, args.n, config=config)
    payload = {
        "problem": report.name,
        "order": report.order,
        "converged": report.converged,
        "termination": report.termination,
        "outer_iters": report.outer_iters,
        "y_norm": report.y_norm,
        "objective": report.objective,
        "active_nodes": int(np.count_nonzero(report.active_set.any(axis=1))),
        "residual_norms": report.residual.norms,
        "objective_history": report.objective_history,
    }
    if args.dump_residual:
        res = report.residual
        blocks = {f.name: getattr(res, f.name) for f in fields(res)}
        Path(args.dump_residual).write_text(json.dumps(
            {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in blocks.items()},
            indent=2) + "\n")
        _write_manifest(args.dump_residual, args)
    return json.dumps(payload, indent=2) + "\n", 0 if report.converged else NUMERIC_EXIT


def _function_names(requested, registry):
    """Names of the test functions to run: all for None or "all", else the
    one requested, which must be registered (UnknownProblem otherwise)."""
    if requested in (None, "all"):
        return list(registry)
    if requested not in registry:
        raise UnknownProblem(f"unknown test function {requested!r}; "
                             f"available: {', '.join(registry)}")
    return [requested]


def _verify_appendix1(args):
    orders = [n for n in APPENDIX1_ORDERS if n <= args.n_max]
    report = verify_appendix1(orders=orders, kind=args.kind)
    return {"suite": "appendix1", **report._asdict(), "rows": [r._asdict() for r in report.rows]}


def _verify_appendix2(args):
    orders = [n for n in APPENDIX2_ORDERS if n <= args.n_max]
    names = _function_names(args.function, APPENDIX2_FUNCTIONS)
    report = verify_appendix2({name: APPENDIX2_FUNCTIONS[name] for name in names}, orders)
    per_fn = {name: {"rows": [r._asdict() for r in rows], "passed": all(r.bound_ok for r in rows)}
              for name, rows in report.rows.items()}
    return {"suite": "appendix2", "norms_ok": report.norms_ok, "max_offdiag": report.max_offdiag,
            "functions": per_fn, "passed": report.passed}


def _verify_interp(args):
    per_fn = {}
    for name in _function_names(args.function, INTERP_FUNCTIONS):
        rows, ok, criterion = run_interp_suite(name)
        per_fn[name] = {"rows": rows, "criterion": criterion, "passed": ok}
    return {"suite": "interp", "functions": per_fn,
            "passed": all(fn["passed"] for fn in per_fn.values())}


def cmd_verify(args):
    runner = {"appendix1": _verify_appendix1,
              "appendix2": _verify_appendix2,
              "interp": _verify_interp}[args.suite]
    payload = runner(args)
    return json.dumps(payload, indent=2) + "\n", 0 if payload["passed"] else NUMERIC_EXIT


def cmd_convergence(args):
    from .problem import builtin

    problem = builtin(args.problem)
    orders = _parse_n_list(args.n_list)
    if len(orders) < 5:
        raise ValueError("rate fit needs at least 3 usable points after discarding 2, "
                         f"so convergence needs at least 5 orders, got {len(orders)}")
    rows, fits = convergence_study(problem, orders)
    lines = ["N,err_x,err_u,err_lambda,residual_y,iters,wall_ms"]
    for r in rows:
        lines.append(",".join([
            str(r.N), _g17(r.err_x), _g17(r.err_u), _g17(r.err_lambda),
            _g17(r.residual_y), str(r.iters), _g17(r.wall_ms)]))
    if args.out:
        Path(str(args.out) + ".fit.json").write_text(json.dumps(
            {series: f._asdict() for series, f in fits.items()}, indent=2) + "\n")
    else:
        lines.extend(
            f"# {series}: slope={_g17(f.slope)} r_squared={_g17(f.r_squared)} "
            f"n_range={f.n_range[0]}..{f.n_range[1]}"
            for series, f in fits.items())
    if not fits:
        print(f"gausscolloc: numerical failure: {sum(r.converged for r in rows)} of "
              f"{len(rows)} orders converged, too few to fit a rate", file=sys.stderr)
    return "\n".join(lines) + "\n", 0 if fits else NUMERIC_EXIT


def _order_in_range(text):
    n = int(text)
    if n not in _ORDERS:
        raise argparse.ArgumentTypeError(_ORDER_RULE)
    return n


def build_parser():
    parser = _Parser(prog="gausscolloc", allow_abbrev=False,
                     description="Collocation solver and verification tools")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None,
                        help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nodes", parents=[common], allow_abbrev=False,
                       help="emit quadrature nodes and weights as CSV")
    p.add_argument("--N", dest="n", type=_order_in_range, required=True)
    p.add_argument("--kind", choices=("gauss", "radau"), default="gauss")
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("props", parents=[common], allow_abbrev=False,
                       help="sweep differentiation-matrix norm properties")
    p.add_argument("--n-max", type=_order_in_range, required=True)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("solve", parents=[common], allow_abbrev=False,
                       help="solve a built-in problem at one order")
    p.add_argument("--problem", required=True, help="a built-in problem's name")
    p.add_argument("--N", dest="n", type=_order_in_range, required=True)
    p.add_argument("--tol", type=float,
                   help="residual norm target (default SolverConfig.tol_y)")
    p.add_argument("--max-iter", type=int,
                   help="iterates to evaluate at most (default SolverConfig.max_outer)")
    p.add_argument("--dump-residual", metavar="PATH", default=None,
                   help="write residual arrays to this JSON file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common], allow_abbrev=False,
                       help="run one verification suite")
    p.add_argument("--suite", choices=("appendix1", "appendix2", "interp"),
                   required=True)
    p.add_argument("--kind", choices=("gauss", "radau"), default="gauss",
                   help="node family for the appendix1 suite")
    p.add_argument("--n-max", type=_order_in_range, default=64,
                   help="largest appendix1 and appendix2 order (default 64); "
                        "interp runs each function's own orders")
    p.add_argument("--seed", type=int, default=7,
                   help="has no effect, since appendix1 draws nothing at random; "
                        "accepted because the benchmark's certify workload passes it")
    p.add_argument("--function", type=str, default=None,
                   help="test function name, or 'all' (appendix2/interp)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convergence", parents=[common], allow_abbrev=False,
                       help="error-vs-order study for a built-in problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--n-list", required=True,
                   help="orders as 'start:step:stop' or a comma list")
    p.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # an output target that cannot be a file is a usage error, found
        # before any work
        for target in filter(None, (args.out, getattr(args, "dump_residual", None))):
            if not Path(target).parent.is_dir():
                raise ValueError(f"directory of {target!r} does not exist")
            if Path(target).is_dir():
                raise ValueError(f"{target!r} is a directory")
        text, code = args.func(args)
        if args.out:
            Path(args.out).write_text(text)
            _write_manifest(args.out, args)
    except (UnknownProblem, ValueError) as exc:
        print(f"gausscolloc: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"gausscolloc: error: cannot write output: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except GaussCollocError as exc:
        print(f"gausscolloc: numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
