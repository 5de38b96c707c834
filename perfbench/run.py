"""Benchmark of the gausscolloc solver and certificates.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Workloads (see ``BENCHMARK.json`` and ``spec.json``): ``solve-small`` and
``solve-large`` run ``solve()`` in this process; ``certify`` runs one
fresh CLI process at a time.  Each is a closed loop with one client and
one operation at a time, with BLAS pinned to one thread.  The seed sets
the order of operations inside each pass (and the ``--seed`` given to
``verify``).  Passes repeat until the next one would end after
``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

  setup_s      median set-up time of five fresh interpreters
  pass_s       median time of one pass over the operation list
  ok_frac      operations that succeeded and passed the correctness gate,
               over operations attempted (1 - fail_frac)
  peak_rss_mb  peak resident memory of this process, or for certify of
               the largest child

Both times are host-speed-normalised seconds (see ``hostclock.py``); the
raw wall times are printed and recorded next to them.  With ``--trace 1``
the last line carries the per-layer metrics, from passes that alternate
untraced and traced.  Every run also appends a full record (environment,
per-operation times, errors and ``y_norm``) to
``.perfbench_out/results.jsonl``; ``--compare`` reads two such files.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

import stats
from envpin import ROOT, BenchSetupError, describe, import_package, pin_cpu, pin_threads
from gates import tally
from hostclock import NOMINAL_S, HostClock
from tracer import merge, write_spans

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
OUT_DIR = ROOT / ".perfbench_out"
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5


def make_workload(name, pkg, seed, clock):
    if name == "certify":
        from certify import CertifyWorkload

        return CertifyWorkload(seed, clock)
    from solves import SolveWorkload

    return SolveWorkload(name, pkg, clock)


def run_passes(workload, clock, rng, seconds, trace):
    """Run passes until the next one would end after ``seconds``.

    With tracing, passes alternate untraced and traced, so the overhead is
    measured under the same host conditions; at least one of each runs.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        order = rng.sample(workload.ops, len(workload.ops))
        since = len(clock.samples)
        passes.append(workload.run_pass(order, traced))
        passes[-1].factor = clock.factor(since)
        if trace and len(passes) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        expected = statistics.median(p.wall for p in passes if p.traced == next_traced)
        if time.perf_counter() - t0 + expected > seconds:
            return passes


def probe_setup(workload, clock):
    """Time set-up in fresh interpreters; adds the normalised set-up time
    ``setup_norm`` to each probe's payload."""
    from child import spawn

    since = len(clock.samples)
    samples = []
    for _ in range(SETUP_PROBES):
        with clock.op():
            _, code, payload, err = spawn(workload.probe_args)
        if payload is None:
            raise BenchSetupError(f"set-up probe failed with exit code {code}: {err[-2000:]}")
        samples.append(payload)
    factor = clock.factor(since)
    for payload in samples:
        payload["setup_norm"] = payload["setup_s"] * factor
    return samples


def layer_value(metric, summary, derived):
    """A per-layer metric: derived if named so, else read off a span name
    as ``<span>.s``, ``<span>.self_s`` or ``<span>.calls`` (0 if absent)."""
    if metric in derived:
        return derived[metric]
    span, _, field = metric.rpartition(".")
    return summary.get(span, {}).get(field, 0)


def per_layer(passes, setup_summary):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    overhead = (statistics.median(p.norm for p in traced)
                - statistics.median(p.norm for p in untraced))
    per_pass = [(merge([setup_summary, p.summary]), {**p.derived, "trace.overhead_s": overhead})
                for p in traced]
    return {m["name"]: statistics.median(layer_value(m["name"], summary, derived)
                                         for summary, derived in per_pass)
            for m in BENCH["per_layer"]}


def op_table(passes):
    """Per operation: untraced time statistics, outcomes, and its detail."""
    table = {}
    for p in passes:
        for op in p.ops:
            row = table.setdefault(op.label, {"wall": [], "norm": [], "status": {},
                                              "detail": op.detail})
            if not p.traced:
                row["wall"].append(op.wall)
                row["norm"].append(op.wall * p.factor)
            row["status"][op.status] = row["status"].get(op.status, 0) + 1
    for row in table.values():
        for key in ("wall", "norm"):
            values = row.pop(key)
            row[f"{key}_s"] = stats.describe(values) if values else None
    return table


def run_workload(name, pkg, args):
    clock = HostClock()
    workload = make_workload(name, pkg, args.seed, clock)
    probes = probe_setup(workload, clock)
    setup_summary = workload.setup(traced=args.trace)
    passes = run_passes(workload, clock, random.Random(args.seed), args.seconds, args.trace)

    outcome = tally([op for p in passes for op in p.ops])
    setup_samples = [p["setup_norm"] for p in probes]
    norms = [p.norm for p in passes if not p.traced]
    if args.trace:
        values = per_layer(passes, setup_summary)
        specs = BENCH["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "pass_s": statistics.median(norms),
                  "ok_frac": outcome["ok_frac"],
                  "peak_rss_mb": workload.peak_rss_mb()}
        specs = BENCH["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    record = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "time": time.time(), "env": describe(),
        "host_reference_s": {"nominal": NOMINAL_S, **stats.describe(clock.samples)},
        "metrics": metrics, "outcome": outcome,
        "setup_s": {**stats.describe(setup_samples), "probes": probes},
        "pass_s": stats.describe(norms),
        "pass_wall_s": stats.describe([p.wall for p in passes if not p.traced]),
        "ops": op_table(passes),
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(args.record or OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        spans = next(p.spans for p in passes if p.traced)
        write_spans(OUT_DIR / f"spans-{name}-seed{args.seed}.csv.gz", spans)

    print_human(record)
    print(json.dumps({"correct": outcome["incorrect"] == 0,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}), flush=True)


def print_human(record):
    name = record["workload"]
    env = record["env"]
    print(f"# {name}: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, threads {env['threads']}, nproc {env['nproc']}, "
          f"load {env['loadavg']}")
    for label, row in sorted(record["ops"].items()):
        detail = row["detail"]
        wall = row["norm_s"]["median"] if row["norm_s"] else float("nan")
        extra = ""
        if "y_norm" in detail:
            errs = " ".join(f"err_{k}={v:.2e}" for k, v in detail["errors"].items())
            extra = f" iters={detail['outer_iters']} y={detail['y_norm']:.2e} {errs}"
        print(f"#   {label}: {wall:.4f} s {row['status']}{extra}")
    for key in ("pass_s", "pass_wall_s"):
        p = record[key]
        tail = f", p{p['tail']['percentile']:g} {p['tail']['value']:.4f}" if "tail" in p else ""
        print(f"# {name} {key}: {p['n']} passes, q1 {p['q1']:.4f} median {p['median']:.4f} "
              f"q3 {p['q3']:.4f} s{tail}")
    ref = record["host_reference_s"]
    print(f"# {name}: reference loop median {ref['median'] * 1e3:.2f} ms over {ref['n']} "
          f"samples (nominal {ref['nominal'] * 1e3:.2f} ms)")
    for metric, m in record["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    out = record["outcome"]
    print(f"{name} fail_frac = {out['fail_frac']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} operations failed)")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the run record here (default .perfbench_out/results.jsonl)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), type=Path,
                        help="compare two record files instead of running")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        from compare import compare

        print(compare(*args.compare, BENCH))
        return 0
    try:
        pin_threads()
        pin_cpu()
        pkg = import_package()
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            run_workload(name, pkg, args)
    except BenchSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
