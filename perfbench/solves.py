"""The ``solve-small`` and ``solve-large`` workloads: ``solve()`` in process.

One client runs one solve at a time.  A pass solves both built-in
problems at every order of the workload, in an order drawn from the seed.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

from gates import ERROR, NOT_CONVERGED, OK, WRONG, OpResult, solve_gate
from tracer import CALLBACK_PREFIX, Tracer, summarize

PROBLEMS = ("hager84-constrained", "hager84-unconstrained")
ORDERS = {"solve-small": (10, 20, 40, 80), "solve-large": (160, 240, 320)}
# The CLI defaults (tol_y=1e-10, newton_accel) with the outer budget of
# the ROADMAP baseline.  It is more than twice the 27 iterations the
# slowest converging solve needs, so it changes no outcome and only
# bounds the time a failing solve takes.
MAX_OUTER = 60


@dataclass
class PassResult:
    traced: bool
    ops: list
    summary: dict | None = None   # span summary of a traced pass
    derived: dict | None = None   # per-layer values not read off one span name
    spans: list | None = None
    factor: float = 1.0           # host-speed factor, see hostclock.py

    @property
    def wall(self):
        return sum(op.wall for op in self.ops)

    @property
    def norm(self):
        return self.wall * self.factor


def setup(pkg, orders):
    """Build the built-ins, with their derivative audit, and fill the rule
    cache for each order.  Returns (problems, phase seconds)."""
    t0 = time.perf_counter()
    problems = {name: pkg.problem.builtin(name) for name in PROBLEMS}
    t1 = time.perf_counter()
    for N in orders:
        pkg.quadrature.gauss_rule(N)
    t2 = time.perf_counter()
    return problems, {"builtin_s": t1 - t0, "rules_s": t2 - t1}


def solve_errors(pkg, name, problem, report):
    """Sup errors against the closed-form solution on the solve's grid."""
    import numpy as np

    traj, exact, N = report.traj, problem.analytic, report.order
    best = pkg.problem.hager_optimal_cost(constrained=name == "hager84-constrained")
    return {
        "x": float(np.max(np.abs(traj.X - exact.state(traj.nodes)))),
        "u": float(np.max(np.abs(traj.U - exact.control(traj.nodes[1:N + 1])))),
        "lambda": float(np.max(np.abs(traj.Lambda - exact.costate(traj.nodes)))),
        "objective": abs(report.objective - best),
    }


def solve_one(pkg, name, problem, N, config, clock):
    """Time one solve, then gate it; a raising solve is a failed operation."""
    label = f"{name} N={N}"
    report = None
    with clock.op() as t:
        try:
            report = pkg.solver.solve(problem, N, config=config)
        except Exception as exc:  # noqa: BLE001 - a failing solve is counted, not fatal
            error = repr(exc)
    if report is None:
        return OpResult(label, t["wall"], ERROR, {"error": error})
    errors = solve_errors(pkg, name, problem, report)
    missed = solve_gate(name, N, errors)
    status = WRONG if missed else OK if report.converged else NOT_CONVERGED
    return OpResult(label, t["wall"], status, {
        "problem": name, "N": N, "converged": report.converged,
        "outer_iters": report.outer_iters, "y_norm": report.y_norm,
        "errors": errors, "gate": missed})


def solver_counts(spans, ops):
    """Per-layer solver counts of one traced pass, read off its spans.

    ``ops`` are the pass's OpResults in span operation-id order.
    """
    state, costate, sweeps = Counter(), Counter(), Counter()
    newton_failures = 0
    for sp in spans:
        parent = spans[sp.parent] if sp.parent >= 0 else None
        if sp.name == "solver.solve_state":
            state[sp.op] += 1
            if (sp.error == "NewtonDivergence" and parent is not None
                    and parent.name == "solver.solve" and parent.error is None):
                newton_failures += 1
        elif sp.name == "solver.solve_costate":
            costate[sp.op] += 1
        elif (sp.name == CALLBACK_PREFIX + "dynamics_x" and parent is not None
              and parent.name == "solver.solve_state"):
            sweeps[sp.op] += 1
    trials = sum(max(c - 1, 0) for c in state.values())
    accepted = sum(max(c - 1, 0) for c in costate.values())
    return {
        "solver.outer_iters": sum(op.detail.get("outer_iters", 0) for op in ops),
        "solver.newton_steps": sum(sweeps[i] // op.detail["N"]
                                   for i, op in enumerate(ops) if "N" in op.detail),
        "solver.ls_trials": trials,
        "solver.ls_accept_ratio": accepted / trials if trials else 0.0,
        "solver.newton_failures": newton_failures,
    }


class SolveWorkload:
    def __init__(self, name, pkg, clock):
        self.pkg = pkg
        self.clock = clock
        self.orders = ORDERS[name]
        self.ops = [(p, N) for p in PROBLEMS for N in self.orders]
        self.config = pkg.solver.SolverConfig(max_outer=MAX_OUTER)
        self.tracer = Tracer()
        self.probe_args = ["setup", "--module", "gausscolloc",
                           "--orders", ",".join(map(str, self.orders))]

    def setup(self, traced):
        """In-process set-up; returns its span summary when traced."""
        with self.tracer.installed(self.pkg) if traced else nullcontext():
            self.problems, _ = setup(self.pkg, self.orders)
        summary = summarize(self.tracer.spans()) if traced else {}
        self.tracer.reset()
        self.traced_problems = {name: self.tracer.traced_problem(p)
                                for name, p in self.problems.items()}
        return summary

    def run_pass(self, order, traced):
        problems = self.traced_problems if traced else self.problems
        results = []
        with self.tracer.installed(self.pkg) if traced else nullcontext():
            for i, (name, N) in enumerate(order):
                self.tracer.op = i
                results.append(solve_one(self.pkg, name, problems[name], N, self.config,
                                         self.clock))
        if not traced:
            return PassResult(False, results)
        spans = self.tracer.spans()
        self.tracer.reset()
        summary = summarize(spans)
        callbacks = [agg for name, agg in summary.items() if name.startswith(CALLBACK_PREFIX)]
        derived = solver_counts(spans, results)
        derived["problem.callback.s"] = sum(agg["s"] for agg in callbacks)
        derived["problem.callback.calls"] = sum(agg["calls"] for agg in callbacks)
        return PassResult(True, results, summary, derived, spans)

    def peak_rss_mb(self):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

