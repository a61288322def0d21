#!/usr/bin/env python3
"""Build perf_suite from source, run one workload, print one JSON line.

Run from anywhere inside a checkout of the repository:

    python3 bench/suite/run.py --workload fio_hwdp --seed 42 \\
        --seconds 10 --trace 0

The suite is configured and built under $CARGO_TARGET_DIR (default
.bench_build at the repository root). The run keeps starting rounds of
the workload until --seconds of wall time have passed (three at least)
and reports the median of each metric over its rounds. With --trace 0
the result carries the end-to-end metrics named in BENCHMARK.json,
with --trace 1 the per-layer ones, from a run that adds one traced
round. A metric the workload does not produce (tier counters with the
tier off, serving percentiles off the serving workload) reads 0.

Build and suite output go to stderr; the last line on stdout is the
result: {"correct", "attempted", "failed", "metrics"}. Exits non-zero,
printing no result, when the suite cannot be built or run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, env=None):
    """Run cmd with its output on stderr; returns its exit status.

    The command gets its own process group, so on a timeout everything
    it started (compilers, the suite's round processes) is killed too.
    """
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    """Configure and build perf_suite; returns the binary path."""
    bdir = os.path.join(build_dir, "perf_suite")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", SUITE_DIR, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", bdir, "--target", "perf_suite",
                 "-j", jobs]):
        if run(cmd, BUILD_TIMEOUT_S, env) != 0:
            raise OSError("'%s' failed" % " ".join(cmd))
    return os.path.join(bdir, "perf_suite")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload " + args.workload)

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        exe = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    tag = "%s-%d" % (args.workload, args.seed)
    out = os.path.join(build_dir, "result-%s.json" % tag)
    if os.path.exists(out):
        os.remove(out)
    cmd = [exe, "--workloads=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--out=" + out]
    if args.trace:
        cmd.append("--trace=" + os.path.join(build_dir, "trace-%s.json" % tag))
    try:
        status = run(cmd, RUN_TIMEOUT_S)
        with open(out) as f:
            res = json.load(f)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        print("run.py: suite run failed: %s" % e, file=sys.stderr)
        return 1

    wl = res["workloads"][args.workload]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = wl["metrics"].get(m["name"])
        value = got["median"] if got and got["median"] is not None else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = wl["requested_ops"]
    print(json.dumps({
        "correct": bool(res["ok"]) and status == 0,
        "attempted": attempted,
        "failed": attempted - wl["completed_ops"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
