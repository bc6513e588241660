#!/usr/bin/env python3
"""Summarise one benchmark result set, or compare two.

Usage:
    python3 benchmark/compare.py SET            # medians and quartiles
    python3 benchmark/compare.py BASE CHANGE    # verdict per metric

A set is a .jsonl file written by benchmark/run.sh (or a directory of
them): each simdc_bench run contributes a {"run": ...} line followed by its
result line. End-to-end metrics come from untraced runs, per-layer metrics
from traced runs.

For every (workload, end-to-end metric) the comparison reports each side's
median and quartiles and applies the bound from BENCHMARK.json:
  * unresolved  - a side's interquartile range exceeds the bound, unless
                  every CHANGE run reads better (improved) or worse
                  (regression) than every BASE run;
  * regression  - the CHANGE median is worse than BASE by more than the bound;
  * improved    - at least 10 seeds were run on both sides, CHANGE wins at
                  least 9 of every 10 seed pairs (ties count for neither),
                  and its median is better than BASE's by more than BASE's
                  interquartile range and by more than the bound;
  * within bound otherwise.
The bound is also the drift measured between two sets of the same tree run
minutes apart, so a gap inside it is not evidence of a change. Seed pairs
only separate the change from host drift when the two sides ran
interleaved, seed by seed (run.sh --against).
The exit status is 1 on any regression, on result digests that differ for
the same (workload, seed), or when a workload's failed share rises.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(path):
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) \
        if os.path.isdir(path) else [path]
    records = []
    for name in files:
        run = None
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                doc = json.loads(line)
                if "run" in doc:
                    run = doc["run"]
                elif "metrics" in doc and run is not None:
                    records.append(dict(run, result=doc))
                    run = None
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def metric_values(records, workload, traced, name):
    """{seed: value} over the set's runs of one workload and trace mode."""
    out = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == traced:
            metric = r["result"]["metrics"].get(name)
            if metric is not None:
                out.setdefault(r["seed"], []).append(metric["value"])
    return {seed: statistics.median(v) for seed, v in out.items()}


def digest_conflicts(records, label):
    seen, problems = {}, []
    for r in records:
        key = (r["workload"], r["seed"], r.get("smoke", False))
        if key in seen and seen[key][0] != r["digest"]:
            problems.append(f"{label}{key[0]} seed {key[1]}: digest "
                            f"{seen[key][1]} {seen[key][0]} != {r['digest']}")
        seen.setdefault(key, (r["digest"], label))
    return problems


def failed_share(records, workload):
    attempted = sum(r["result"]["attempted"] for r in records
                    if r["workload"] == workload)
    failed = sum(r["result"]["failed"] for r in records
                 if r["workload"] == workload)
    return failed / attempted if attempted else 0.0


def workloads_of(spec, *sets):
    present = {r["workload"] for s in sets for r in s}
    return [w["name"] for w in spec["workloads"] if w["name"] in present]


def summarise(spec, records):
    print(f"{'workload':<14} {'metric':<28} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'iqr/med':>8} {'unit'}")
    for workload in workloads_of(spec, records):
        for traced, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for m in metrics:
                values = list(metric_values(records, workload, traced,
                                            m["name"]).values())
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                flag = ""
                if "bound" in m and spread > m["bound"]:
                    flag = "  > bound"
                print(f"{workload:<14} {m['name']:<28} {len(values):>3} "
                      f"{med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {m['unit']}{flag}")
        print(f"{workload:<14} failed share {failed_share(records, workload):.4f}")


def verdict(metric, base, change):
    """Verdict for one (workload, metric) from {seed: value} maps."""
    lower = metric["better"] == "lower"
    better = (lambda b, a: b < a) if lower else (lambda b, a: b > a)
    a_q1, a_med, a_q3 = quartiles(list(base.values()))
    b_q1, b_med, b_q3 = quartiles(list(change.values()))
    bound = metric["bound"]
    worse_by = (b_med - a_med) / a_med if a_med else 0.0
    if not lower:
        worse_by = -worse_by
    all_better = all(better(b, a) for b in change.values() for a in base.values())
    all_worse = all(better(a, b) for b in change.values() for a in base.values())
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if better(change[s], base[s]))
    row = (a_med, a_q1, a_q3, b_med, b_q1, b_q3, worse_by,
           f"{wins}/{len(seeds)}")
    if spread > bound and not (all_better or all_worse):
        return "unresolved", row
    if worse_by > bound:
        return "REGRESSION", row
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and better(b_med, a_med)
            and abs(b_med - a_med) > max(a_q3 - a_q1, bound * abs(a_med))):
        return "improved", row
    return "within bound", row


def compare(spec, base, change):
    status = 0
    print(f"{'workload':<14} {'metric':<16} {'base med [q1,q3]':>32} "
          f"{'change med [q1,q3]':>32} {'worse':>8} {'wins':>6}  verdict")
    for workload in workloads_of(spec, base, change):
        for m in spec["end_to_end"]:
            a = metric_values(base, workload, 0, m["name"])
            b = metric_values(change, workload, 0, m["name"])
            if not a or not b:
                continue
            result, row = verdict(m, a, b)
            a_med, a_q1, a_q3, b_med, b_q1, b_q3, worse_by, wins = row
            print(f"{workload:<14} {m['name']:<16} "
                  f"{a_med:>12.5g} [{a_q1:.5g},{a_q3:.5g}]".ljust(64) +
                  f"{b_med:>12.5g} [{b_q1:.5g},{b_q3:.5g}]".ljust(33) +
                  f"{worse_by:>+8.2%} {wins:>6}  {result} "
                  f"(bound {m['bound']:.0%})")
            if result == "REGRESSION":
                status = 1
        a_fail, b_fail = failed_share(base, workload), failed_share(change, workload)
        if b_fail > a_fail:
            print(f"{workload}: failed share rose {a_fail:.4f} -> {b_fail:.4f}")
            status = 1
    for problem in (digest_conflicts(base, "base ") +
                    digest_conflicts(change, "change ") +
                    digest_conflicts(base + change, "")):
        print("digest mismatch: " + problem)
        status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", metavar="SET")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="benchmark definition (default: BENCHMARK.json)")
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one set to summarise or two to compare")
    with open(args.bench) as f:
        spec = json.load(f)
    sets = [load_set(path) for path in args.sets]
    if any(not s for s in sets):
        print("compare.py: a result set holds no runs", file=sys.stderr)
        return 2
    if len(sets) == 1:
        summarise(spec, sets[0])
        problems = digest_conflicts(sets[0], "")
        for problem in problems:
            print("digest mismatch: " + problem)
        return 1 if problems else 0
    return compare(spec, *sets)


if __name__ == "__main__":
    sys.exit(main())
