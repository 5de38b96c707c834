"""Correctness gates.  Each returns a list of problems; empty means pass.

Tolerances and how they were derived live in ``spec.json`` next to this
file, so the numbers and their reasons are kept together.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
GATE = SPEC["gate"]

PROPS_HEADER = "N,p1_norm,p1_pass,p2_max_row_norm,p2_pass,last_row_gap"

# Outcomes of one operation.  Every outcome except OK counts as failed;
# ERROR (raised, crashed, non-zero exit) and WRONG (output missed a gate)
# also make the run incorrect, while NOT_CONVERGED is an honest report
# whose output still passed the gate.
OK, NOT_CONVERGED, ERROR, WRONG = "ok", "not_converged", "error", "wrong"


@dataclass
class OpResult:
    label: str
    wall: float
    status: str
    detail: dict = field(default_factory=dict)


def tally(ops):
    """Attempted, failed and incorrect operation counts, and the fractions."""
    attempted = len(ops)
    failed = sum(op.status != OK for op in ops)
    incorrect = sum(op.status in (ERROR, WRONG) for op in ops)
    return {"attempted": attempted, "failed": failed, "incorrect": incorrect,
            "fail_frac": failed / attempted if attempted else 0.0,
            "ok_frac": 1.0 - failed / attempted if attempted else 0.0}


def solve_tolerance(problem, quantity, N):
    entry = GATE["problems"][problem][quantity]
    return GATE["margin"] * entry["C"] * float(N) ** -entry["p"] + GATE["floor"]


def solve_gate(problem, N, errors):
    """errors: sup errors keyed x, u, lambda, objective."""
    out = []
    for quantity, err in errors.items():
        tol = solve_tolerance(problem, quantity, N)
        if not err <= tol:  # also rejects NaN
            out.append(f"{problem} N={N}: err_{quantity}={err:.3e} > {tol:.3e}")
    return out


def props_gate(text, n_max):
    """Every row of ``props`` output present, finite, and passing P1 and P2."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != PROPS_HEADER:
        return ["props: missing or unexpected CSV header"]
    rows = lines[1:]
    if len(rows) != n_max:
        return [f"props: {len(rows)} rows, expected {n_max}"]
    out = []
    for k, row in enumerate(rows, start=1):
        fields = row.split(",")
        if len(fields) != 6 or fields[0] != str(k):
            out.append(f"props: malformed row {k}: {row!r}")
            continue
        if fields[2] != "true" or fields[4] != "true":
            out.append(f"props: N={k} p1_pass={fields[2]} p2_pass={fields[4]}")
        try:
            finite = all(math.isfinite(float(fields[i])) for i in (1, 3, 5))
        except ValueError:
            finite = False
        if not finite:
            out.append(f"props: N={k} non-numeric or non-finite value")
    return out


def verify_gate(exit_code, text, suite):
    """Exit code 0 and a payload of ``suite`` that says it passed."""
    if exit_code != 0:
        return [f"verify {suite}: exit code {exit_code}"]
    try:
        payload = json.loads(text)
    except ValueError:
        return [f"verify {suite}: output is not JSON"]
    if payload.get("suite") != suite:
        return [f"verify {suite}: payload is for suite {payload.get('suite')!r}"]
    if payload.get("passed") is not True:
        return [f"verify {suite}: passed is {payload.get('passed')!r}"]
    return []
