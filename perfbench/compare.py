#!/usr/bin/env python3
"""Compares two perfbench result sets, workload by workload.

  python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines `run.py --results FILE --trace 0` appended, for
one commit: ten or more seeds per workload, the same seeds on both sides,
with the two commits' runs interleaved seed by seed and alternating which
side runs first (README.md has the loop).  For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the median over seed-matched pairs of change / base minus 1,
how many pairs each side won, and a verdict:

  better      the change won at least 9 of 10 pairs and the medians differ
              by more than the base's interquartile range
  worse       the median pair ratio is worse than 1 by more than the
              metric's bound, or the change failed checks: a run of it is
              not correct, or it failed a larger share of its operations
  unresolved  a side's spread (interquartile range / median) exceeds the
              bound, and not every change run beats every base run; or no
              seed has a correct run on both sides
  no worse    none of the above

Only correct runs enter the figures.  The two runs of a pair ran minutes
apart at most, so their ratio is not moved by the machine's speed drifting
over the whole comparison, as a ratio of the two sides' medians would be.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """workload -> {seed: untraced result}"""
    runs = {}
    for line in Path(path).read_text().splitlines():
        result = json.loads(line)
        if result["trace"] == 0:
            runs.setdefault(result["workload"], {})[
                result["stamp"]["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, change, pairs):
    """base, change: each side's values; pairs: seed-matched (base, change)."""
    # Signed so that a positive difference is always a change for the worse.
    sign = 1 if metric["better"] == "lower" else -1
    bound = metric["bound"]
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    change_wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    base_wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    ratio = statistics.median(c / b for b, c in pairs) - 1
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if change_wins >= 0.9 * len(pairs) and sign * (cm - bm) < 0 \
            and abs(cm - bm) > b3 - b1:
        word = "better"
    elif sign * ratio > bound:
        word = "worse"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "no worse"
    return (b1, bm, b3), (c1, cm, c3), ratio, change_wins, base_wins, word


def checks(runs):
    """(incorrect runs, failed operations, attempted operations)"""
    return (sum(not r["correct"] for r in runs),
            sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(SPEC.read_text())
    base, change = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'workload':<15} {'metric':<12} {'unit':<4} "
          f"{'base q1 / median / q3':>28} {'change q1 / median / q3':>28} "
          f"{'ratio':>7} {'won c:b':>8}  verdict")
    for workload in sorted(base.keys() & change.keys()):
        b_runs, c_runs = base[workload], change[workload]
        b_bad, b_failed, b_ops = checks(b_runs.values())
        c_bad, c_failed, c_ops = checks(c_runs.values())
        # A change that fails more cannot be better or no worse.
        failed_more = c_bad or c_failed / c_ops > b_failed / b_ops
        b_ok = {s: r for s, r in b_runs.items() if r["correct"]}
        c_ok = {s: r for s, r in c_runs.items() if r["correct"]}
        seeds = sorted(b_ok.keys() & c_ok.keys())
        for metric in spec["end_to_end"] if seeds else []:
            name = metric["name"]
            pairs = [(b_ok[s]["metrics"][name]["value"],
                      c_ok[s]["metrics"][name]["value"]) for s in seeds]
            bq, cq, ratio, c_won, b_won, word = verdict(
                metric, [r["metrics"][name]["value"] for r in b_ok.values()],
                [r["metrics"][name]["value"] for r in c_ok.values()], pairs)
            print(f"{workload:<15} {name:<12} {metric['unit']:<4} "
                  f"{' / '.join(f'{v:.4g}' for v in bq):>28} "
                  f"{' / '.join(f'{v:.4g}' for v in cq):>28} "
                  f"{ratio:>+7.1%} {f'{c_won}:{b_won}':>8}  "
                  f"{'worse (checks)' if failed_more else word}")
        if not seeds:
            print(f"{workload:<15} every metric: no seed has a correct run "
                  f"on both sides: "
                  f"{'worse (checks)' if failed_more else 'unresolved'}")
        print(f"{workload:<15} runs: base {len(b_runs)} ({b_bad} not "
              f"correct, {b_failed} of {b_ops} operations failed), change "
              f"{len(c_runs)} ({c_bad} not correct, {c_failed} of {c_ops} "
              f"failed), {len(seeds)} seed-matched pairs")
    for workload in sorted(base.keys() ^ change.keys()):
        print(f"{workload}: results on one side only")


if __name__ == "__main__":
    main()
