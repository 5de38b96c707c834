"""Compare two sets of run records, one row per workload and metric.

Each set is a JSON-lines file of records written by ``run.py``.  A row
gives both medians and quartiles over the set's runs and the ratio
new/base.  A metric with a bound is ``unresolved`` when either set's
run-to-run spread (quartile distance over median) is wider than the bound,
unless every new run beats every base run; otherwise it is ``worse`` when
the new median is worse than the base by more than the bound.
"""
from __future__ import annotations

import json

import stats


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _values(records, trace):
    out = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        for metric, m in rec["metrics"].items():
            out.setdefault((rec["workload"], metric), []).append(m["value"])
    return out


def verdict(base, new, better, bound):
    """'better', 'worse', 'same', 'unresolved' or '-' (no bound)."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = stats.quartiles(base)[1], stats.quartiles(new)[1]
    if max(stats.spread(base), stats.spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        return "unresolved"
    if b_med == 0:
        return "same" if n_med == 0 else "worse" if sign * n_med > 0 else "better"
    change = sign * (n_med - b_med) / abs(b_med)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base_path, new_path, bench):
    base_recs, new_recs = load(base_path), load(new_path)
    header = (f"{'workload':<12} {'metric':<36} {'unit':<6} {'base median [q1, q3]':<34} "
              f"{'new median [q1, q3]':<34} {'new/base':>9}  verdict")
    lines = [header]
    for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        base, new = _values(base_recs, trace), _values(new_recs, trace)
        for workload in (w["name"] for w in bench["workloads"]):
            for spec in specs:
                key = (workload, spec["name"])
                if key not in base or key not in new:
                    continue
                bq, nq = stats.quartiles(base[key]), stats.quartiles(new[key])
                b = f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                n = f"{nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}]"
                ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "n/a"
                v = verdict(base[key], new[key], spec["better"], spec.get("bound"))
                lines.append(f"{workload:<12} {spec['name']:<36} {spec['unit']:<6} "
                             f"{b:<34} {n:<34} {ratio:>9}  {v}")
    return "\n".join(lines)
