"""Tests of the benchmark's own arithmetic, tracer and gates."""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import stats
from compare import verdict
from envpin import ROOT, import_package
from hostclock import HostClock
from gates import (ERROR, NOT_CONVERGED, OK, WRONG, OpResult, PROPS_HEADER, SPEC,
                   props_gate, solve_gate, tally, verify_gate)
from run import layer_value
from solves import SolveWorkload, solve_one
from tracer import Span, Tracer, summarize

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pkg():
    return import_package()


def test_self_time_subtracts_direct_children_only():
    spans = [Span("a", 0.0, 10.0, -1, 0, None),
             Span("b", 1.0, 4.0, 0, 0, None),
             Span("c", 5.0, 9.0, 0, 0, None),
             Span("d", 6.0, 7.0, 2, 0, "ValueError")]
    s = summarize(spans)
    assert s["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0, "errors": 0}
    assert s["c"]["self_s"] == 3.0
    assert s["b"]["self_s"] == 3.0 and s["d"]["self_s"] == 1.0
    assert s["d"]["errors"] == 1


def test_tracer_nests_spans_and_records_errors():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(fail):
        if fail:
            raise ValueError("boom")

    inner = tracer.wrap("inner", inner)

    def outer():
        inner(False)
        with pytest.raises(ValueError):
            inner(True)

    tracer.op = 7
    tracer.wrap("outer", outer)()
    spans = tracer.spans()
    assert [(sp.name, sp.parent, sp.op, sp.error) for sp in spans] == [
        ("outer", -1, 7, None), ("inner", 0, 7, None), ("inner", 0, 7, "ValueError")]
    s = summarize(spans)
    assert s["outer"]["s"] == 5.0 and s["outer"]["self_s"] == 3.0
    assert s["inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0, "errors": 1}


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(range(19)) is None
    assert stats.tail(range(1, 21)) == (50.0, 10)
    assert stats.tail(range(1, 101)) == (90.0, 90)
    assert stats.tail(range(1, 1001)) == (99.0, 990)
    for n in range(20, 3000, 37):
        p, v = stats.tail(range(n))
        assert sum(x > v for x in range(n)) >= stats.TAIL_BEYOND
        for q in stats.TAIL_LADDER:
            if q > p:  # every higher rung leaves fewer than ten beyond
                assert n - math.ceil(q * n / 100) < stats.TAIL_BEYOND


def test_quartiles_match_statistics_module():
    q1, med, q3 = stats.quartiles([4.0, 1.0, 3.0, 2.0])
    assert (q1, med, q3) == (1.25, 2.5, 3.75)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert stats.spread([1.0, 1.0, 1.0]) == 0.0


def test_fail_frac_counts_a_nan_callback_as_failed(pkg):
    good = pkg.problem.builtin("hager84-constrained")
    nan = replace(good, dynamics=lambda x, u: np.full(2, np.nan))
    config = pkg.solver.SolverConfig(max_outer=60)
    clock = HostClock()
    ok = solve_one(pkg, "hager84-constrained", good, 10, config, clock)
    bad = solve_one(pkg, "hager84-constrained", nan, 10, config, clock)
    assert ok.status == OK and ok.detail["outer_iters"] == 12
    assert bad.status == ERROR and "NewtonDivergence" in bad.detail["error"]
    # not converging fails an operation; only a raise or a missed gate
    # makes the run incorrect
    t = tally([ok, bad, OpResult("x", 1.0, NOT_CONVERGED),
               OpResult("y", 1.0, WRONG)])
    assert t["attempted"] == 4 and t["failed"] == 3 and t["incorrect"] == 2
    assert t["fail_frac"] == pytest.approx(3 / 4)
    assert t["ok_frac"] == pytest.approx(1 / 4)


def test_solve_gate_tolerances():
    gate = SPEC["gate"]["problems"]["hager84-constrained"]
    assert set(gate) == {"x", "u", "lambda", "objective"}
    # measured errors at N=10 pass, a tenfold worse control error does not
    errs = {"x": 2.55e-3, "u": 8.09e-4, "lambda": 9.57e-4, "objective": 3.04e-6}
    assert solve_gate("hager84-constrained", 10, errs) == []
    assert solve_gate("hager84-constrained", 10, {**errs, "u": 8.09e-3})
    assert solve_gate("hager84-unconstrained", 320, {"x": 1e-8})
    assert solve_gate("hager84-unconstrained", 320, {"x": float("nan")})


def _props_csv(rows):
    return "\n".join([PROPS_HEADER] + [
        f"{n},1.5,{p1},1.2,{p2},0.01" for n, p1, p2 in rows]) + "\n"


def test_props_gate_rejects_a_false_row():
    assert props_gate(_props_csv([(1, "true", "true"), (2, "true", "true")]), 2) == []
    bad = props_gate(_props_csv([(1, "true", "true"), (2, "true", "false")]), 2)
    assert bad == ["props: N=2 p1_pass=true p2_pass=false"]
    assert props_gate(_props_csv([(1, "true", "true")]), 2)
    assert props_gate("not,a,header\n", 1)


def test_verify_gate():
    good = json.dumps({"suite": "interp", "passed": True})
    assert verify_gate(0, good, "interp") == []
    assert verify_gate(2, good, "interp")
    assert verify_gate(0, json.dumps({"suite": "interp", "passed": False}), "interp")
    assert verify_gate(0, good, "appendix1")
    assert verify_gate(0, "{", "interp")


def test_traced_pass_counts_and_restores_modules(pkg):
    original = pkg.solver.solve_state
    workload = SolveWorkload("solve-small", pkg, HostClock())
    workload.setup(traced=True)
    result = workload.run_pass([("hager84-constrained", 10)], traced=True)
    assert pkg.solver.solve_state is original
    assert result.ops[0].status == OK
    d, s = result.derived, result.summary
    assert d["solver.outer_iters"] == 12
    assert d["solver.ls_trials"] == s["solver.solve_state"]["calls"] - 1
    assert d["problem.callback.calls"] == sum(
        agg["calls"] for name, agg in s.items() if name.startswith("problem.callback."))
    assert s["solver.solve"]["calls"] == 1
    assert layer_value("diffmat.build_operators.calls", s, d) == 1
    assert layer_value("cli.main.props.s", s, d) == 0


def test_every_per_layer_metric_is_linked():
    names = [m["name"] for m in BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert set(names) == set(SPEC["links"])
    workloads = {w["name"] for w in BENCH["workloads"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for links in SPEC["links"].values():
        for metric, workload in links:
            assert metric in e2e and workload in workloads


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [1.30, 1.31, 1.29, 1.30, 1.32], "lower", 0.1) == "worse"
    assert verdict(base, [1.01, 1.00, 1.02, 0.99, 1.00], "lower", 0.1) == "same"
    assert verdict(base, [0.5, 1.5, 1.0, 0.7, 1.3], "lower", 0.1) == "unresolved"
    assert verdict([1.0, 1.0], [0.5, 0.5], "higher", 0.02) == "worse"
    assert verdict(base, base, "lower", None) == "-"
