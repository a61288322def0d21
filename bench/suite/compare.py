#!/usr/bin/env python3
"""A/B comparison of two perf_suite results.

    python3 bench/suite/compare.py A.json B.json

A is the parent (the baseline), B the change; both are perf_suite
--out files. For every end-to-end metric named in BENCHMARK.json and
every workload in both files, one row with a verdict:

  better      B wins at least 9 of every 10 round pairs (ties count for
              neither), over at least 10 pairs, and the medians differ
              by more than A's interquartile range
  worse       B's median is worse than A's by more than the metric's
              bound
  unresolved  A's spread (IQR over median) is wider than the bound and
              not every round of B beats every round of A
  unchanged   none of the above

Rounds pair up in order (round i of A with round i of B), so run both
sides with the same --rounds; take 10 or more to be able to claim a gain.

Simulated results must not move on a change that only touches host
speed: when both files come from the same seed and scale, every
sim_digest and every model.* and count-like metric is also compared
for exact equality.

Exit status: 1 when a row is worse or an exact comparison differs,
0 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MIN_PAIRS = 10
WIN_SHARE = 0.9
# Units whose values are simulated or counted, hence exact run to run.
EXACT_UNITS = {"count", "ratio", "events/op", "probes/op"}


def iqr(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return q[2] - q[0]


def finite(v):
    return [x for x in v if x is not None]


def judge(a, b, bound, lower_better):
    """Verdict for samples a (parent) and b (change) of one metric."""
    sign = 1.0 if lower_better else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    gain = sign * (ma - mb)
    spread = iqr(a) / ma if ma else 0.0
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain / ma > bound:
        return "worse"
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and gain > iqr(a):
        return "better"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        A = json.load(f)
    with open(sys.argv[2]) as f:
        B = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    workloads = [w for w in A["workloads"] if w in B["workloads"]]
    bad = False
    print("%-18s %-12s %12s %12s %8s %7s  %s" % (
        "metric", "workload", "A median", "B median", "B vs A", "wins",
        "verdict"))
    for m in spec["end_to_end"]:
        name = m["name"]
        for w in workloads:
            a = finite(A["workloads"][w]["metrics"][name]["samples"])
            b = finite(B["workloads"][w]["metrics"][name]["samples"])
            if not a or not b:
                print("%-18s %-12s not measured" % (name, w))
                continue
            verdict = judge(a, b, m["bound"], m["better"] == "lower")
            bad |= verdict == "worse"
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
            print("%-18s %-12s %12.5g %12.5g %+7.1f%% %3d/%-3d  %s "
                  "(bound %g%%, A spread %.1f%%)" % (
                      name, w, ma, mb, 100.0 * (mb - ma) / ma, wins,
                      min(len(a), len(b)), verdict, 100.0 * m["bound"],
                      100.0 * iqr(a) / ma))

    if (A["seed"], A["smoke"]) != (B["seed"], B["smoke"]):
        print("\nexact comparison skipped: the files differ in seed or scale")
        return 1 if bad else 0
    diffs = []
    for w in workloads:
        wa, wb = A["workloads"][w], B["workloads"][w]
        if wa["sim_digest"] != wb["sim_digest"]:
            diffs.append("%s sim_digest %s != %s" % (
                w, wa["sim_digest"], wb["sim_digest"]))
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            exact = name.startswith("model.") or ma["unit"] in EXACT_UNITS
            if exact and (mb is None or ma["median"] != mb["median"]):
                diffs.append("%s %s %s != %s" % (
                    w, name, ma["median"], mb and mb["median"]))
    print("\nexact: %s" % ("all sim_digest, model.* and count metrics equal"
                           if not diffs else "%d differ" % len(diffs)))
    for d in diffs:
        print("  " + d)
    return 1 if bad or diffs else 0


if __name__ == "__main__":
    sys.exit(main())
