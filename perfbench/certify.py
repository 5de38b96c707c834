"""The ``certify`` workload: one fresh CLI process at a time.

This is the cold, solver-free path: rule construction, the P1/P2 inverse
checks and the analysis suites, each paying a fresh interpreter's import.
"""
from __future__ import annotations

from child import spawn
from gates import ERROR, OK, WRONG, OpResult, props_gate, verify_gate
from solves import PassResult
from tracer import Span, merge

PROPS_N_MAX = 300
COMMANDS = (
    ("props", "--n-max", str(PROPS_N_MAX)),
    ("verify", "--suite", "appendix1", "--kind", "gauss"),
    ("verify", "--suite", "appendix1", "--kind", "radau"),
    ("verify", "--suite", "appendix2", "--function", "all"),
    ("verify", "--suite", "interp"),
)


def gate(argv, exit_code, output):
    if argv[0] == "props":
        return props_gate(output, PROPS_N_MAX)
    return verify_gate(exit_code, output, argv[argv.index("--suite") + 1])


class CertifyWorkload:
    probe_args = ["setup", "--module", "gausscolloc.cli"]

    def __init__(self, seed, clock):
        self.clock = clock
        # the seed also picks the random polynomials of verify appendix1
        self.ops = [list(cmd) + (["--seed", str(seed)] if cmd[0] == "verify" else [])
                    for cmd in COMMANDS]
        self.maxrss_kb = 0

    def setup(self, traced):
        return {}

    def run_one(self, argv, traced):
        with self.clock.op() as t:
            _, code, payload, err = spawn(["cli", *(["--trace"] if traced else []), "--", *argv])
        label = " ".join(argv)
        if payload is None:
            return OpResult(label, t["wall"], ERROR,
                            {"returncode": code, "stderr": err[-2000:]}), None
        self.maxrss_kb = max(self.maxrss_kb, payload["maxrss_kb"])
        missed = gate(argv, payload["exit"], payload["output"])
        status = ERROR if payload["exit"] != 0 else WRONG if missed else OK
        detail = {"exit": payload["exit"], "import_s": payload["import_s"],
                  "main_s": payload["main_s"], "gate": missed}
        return OpResult(label, t["wall"], status, detail), payload

    def run_pass(self, order, traced):
        results, payloads = [], []
        for argv in order:
            op, payload = self.run_one(argv, traced)
            results.append(op)
            payloads.append(payload or {})
        if not traced:
            return PassResult(False, results)
        summary = merge(p.get("summary", {}) for p in payloads)
        spans = []
        for i, p in enumerate(payloads):  # renumber parents into one list
            base = len(spans)
            spans += [Span(name, start, end, parent + base if parent >= 0 else -1, i, error)
                      for name, start, end, parent, _, error in p.get("spans", [])]
        derived = {"cli.import_s": sum(p.get("import_s", 0.0) for p in payloads),
                   "cli.process_s": sum(op.wall for op in results)}
        return PassResult(True, results, summary, derived, spans)

    def peak_rss_mb(self):
        return self.maxrss_kb / 1024.0
