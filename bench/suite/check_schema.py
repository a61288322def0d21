#!/usr/bin/env python3
"""Check a perf_suite result against BENCHMARK.json.

    python3 bench/suite/check_schema.py BENCHMARK.json RESULT.json

Asserts that RESULT.json (a perf_suite --out file) passed its checks,
holds every workload BENCHMARK.json names, and for each of them every
end-to-end and per-layer metric BENCHMARK.json names, with the declared
unit and a numeric (or null: not measured) median. trace.* metrics come
only from a traced run and are checked only when present in the result.
Exit status 1 on the first class of mismatch found, listing them all.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    with open(sys.argv[2]) as f:
        res = json.load(f)

    errors = []
    if not res.get("ok"):
        errors.append("result did not pass its checks: %s" % res.get("failures"))
    traced = any(name.startswith("trace.")
                 for w in res["workloads"].values() for name in w["metrics"])
    wanted = spec["end_to_end"] + spec["per_layer"]
    for w in (x["name"] for x in spec["workloads"]):
        got = res["workloads"].get(w)
        if got is None:
            errors.append("workload %s missing" % w)
            continue
        for m in wanted:
            if m["name"].startswith("trace.") and not traced:
                continue
            have = got["metrics"].get(m["name"])
            if have is None:
                errors.append("%s: metric %s missing" % (w, m["name"]))
            elif have["unit"] != m["unit"]:
                errors.append("%s: %s has unit %s, BENCHMARK.json says %s" % (
                    w, m["name"], have["unit"], m["unit"]))
            elif not (have["median"] is None
                      or isinstance(have["median"], (int, float))):
                errors.append("%s: %s median is not a number" % (w, m["name"]))

    for e in errors:
        print("check_schema: " + e)
    if errors:
        return 1
    print("check_schema: %d workloads x %d metrics match BENCHMARK.json" % (
        len(spec["workloads"]), len(wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
