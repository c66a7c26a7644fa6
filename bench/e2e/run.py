#!/usr/bin/env python3
"""End-to-end benchmark of the sharded durable stack (README.md here).

Builds costream_e2e in build-e2e/ (Release), runs its planted-fault
self-test, then runs each workload in its own process and prints one line
per metric: `workload metric value unit samples=n`.

  run.py [--seed S] [--workloads a,b] [--repeat K] [--trace] [--quick]
  run.py --workload W --seed S --seconds T --trace 0|1

The second form runs one workload once and ends its output with one JSON
line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json, or with --trace 1 its per-layer metrics. Every form
writes build-e2e/results.json and exits nonzero on a correctness failure.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "costream_e2e")
WORKLOADS = ["ingest", "read_mixed", "scan_hot", "churn"]
SELF_TESTS = ["find", "scan", "reopen"]
RUN_TIMEOUT_S = 170
ORACLE_FAILED = 3  # costream_e2e's exit status when the model caught a mismatch


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "costream_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_program(args):
    """Run costream_e2e; return (exit status, parsed JSON result or None)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def self_test():
    """Each planted wrong expectation must be caught by the oracle."""
    ok = True
    for kind in SELF_TESTS:
        data = os.path.join(BUILD, "data-selftest-%s-%d" % (kind, os.getpid()))
        code, res = run_program(["--self-test", kind, "--data-dir", data])
        caught = code == ORACLE_FAILED and res is not None and res["failed"] >= 1
        log("self-test %s: %s" % (kind, "caught" if caught else "NOT CAUGHT (exit %d)" % code))
        ok = ok and caught
    return ok


def run_workload(workload, seed, seconds, traced, quick):
    data = os.path.join(BUILD, "data-%s-%d" % (workload, os.getpid()))
    args = ["--workload", workload, "--seed", str(seed), "--data-dir", data,
            "--seconds", str(seconds)]
    if quick:
        args.append("--quick")
    if traced:
        args += ["--trace", os.path.join(BUILD, "trace-%s.json" % workload)]
    code, res = run_program(args)
    if res is None or code not in (0, ORACLE_FAILED):
        raise RuntimeError("costream_e2e --workload %s exited %d" % (workload, code))
    return res


def print_lines(res, section):
    for name, m in res[section].items():
        print("%s %s %r %s samples=%d" % (res["workload"], name, m["value"], m["unit"],
                                          m["samples"]))


def summarize(runs):
    """Per (workload, metric): median, quartiles and (max-min)/median."""
    table = {}
    for res in runs:
        for name, m in res["metrics"].items():
            table.setdefault(res["workload"], {}).setdefault(name, []).append(m["value"])
    out = {}
    for workload, metrics in table.items():
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0], 0, values[0]))
            spread = (max(values) - min(values)) / med if med else 0.0
            out.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "range_over_median": spread,
                "n": len(values)}
            print("%s %s median=%r q1=%r q3=%r range/median=%.4f n=%d" % (
                workload, name, med, q1, q3, spread, len(values)))
    return out


def declared_metrics(key):
    """Metric names BENCHMARK.json declares under `key` (None: report all)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)[key]]


def git_commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def write_results(doc):
    with open(os.path.join(BUILD, "results.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)


def single(args):
    """One workload, one run, contract output on the last line."""
    traced = args.trace == "1"
    res = run_workload(args.workload, args.seed, args.seconds, traced, args.quick)
    section = "layers" if traced else "metrics"
    print_lines(res, section)
    print_lines(res, "extra")
    names = declared_metrics("per_layer" if traced else "end_to_end")
    names = list(res[section]) if names is None else names
    missing = [n for n in names if n not in res[section]]
    if missing:
        log("costream_e2e reported no %s" % ", ".join(missing))
        return 2
    write_results({"runs": [res], "commit": git_commit(), "cores": os.cpu_count()})
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {n: {"value": res[section][n]["value"], "unit": res[section][n]["unit"]}
                    for n in names}}))
    return 0 if res["correct"] else 1


def suite(args):
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            log("unknown workload %s" % w)
            return 2
    correct = True
    runs, traced_runs = [], []
    for rep in range(args.repeat):
        # Alternate the order so slow drift on a shared host hits every
        # workload alike.
        for w in (workloads if rep % 2 == 0 else workloads[::-1]):
            res = run_workload(w, args.seed + rep, args.seconds, False, args.quick)
            correct = correct and res["correct"]
            print_lines(res, "metrics")
            runs.append(res)
    if args.trace == "1" or args.quick:
        for w in workloads:
            res = run_workload(w, args.seed, args.seconds, True, args.quick)
            correct = correct and res["correct"]
            print_lines(res, "layers")
            print_lines(res, "extra")
            traced_runs.append(res)
            base = next(r for r in runs if r["workload"] == w and r["seed"] == args.seed)
            for name, m in res["metrics"].items():
                before = base["metrics"][name]["value"]
                diff = m["value"] - before
                print("%s %s tracing_overhead %r %s (%+.1f%%)" % (
                    w, name, diff, m["unit"], 100.0 * diff / before if before else 0.0))
            if args.quick and res["digest"] != base["digest"]:
                log("%s: traced digest %s != untraced %s" % (w, res["digest"], base["digest"]))
                correct = False
    summary = summarize(runs) if args.repeat > 1 else {}
    first = runs[0] if runs else {}
    write_results({"runs": runs, "traced_runs": traced_runs, "summary": summary,
                   "commit": git_commit(), "cores": os.cpu_count(), "cpu": cpu_model(),
                   "seconds": args.seconds, "filesystem": first.get("filesystem"),
                   "hw_counters": first.get("hw_counters"),
                   "seed": args.seed, "repeat": args.repeat, "quick": args.quick})
    if not correct:
        log("correctness failure")
    return 0 if correct else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run one workload once (contract output)")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()
    if args.workload is not None and args.workload not in WORKLOADS:
        p.error("unknown workload %s" % args.workload)
    try:
        build()
        if not self_test():
            return 1
        return single(args) if args.workload is not None else suite(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            OSError, ValueError) as e:
        log("run.py: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
