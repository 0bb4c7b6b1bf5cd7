#!/usr/bin/env python3
"""End-to-end benchmark of mfalloc: builds the tree, then runs one workload.

Run from the root of a source checkout:

  python3 e2ebench/run.py --workload serve_small --seed 1 --seconds 40 --trace 0
  python3 e2ebench/run.py --selftest          # helper tests, fixed inputs
  python3 e2ebench/run.py --smoke             # every workload, briefly
  python3 e2ebench/run.py --spread 10 --workload serve_small --seconds 40

The first call configures and builds into .bench_build/e2ebench (the repo's
own CMakeLists.txt through e2ebench/CMakeLists.txt). A run prints a table of
every metric it measured and, as its last line, the result object whose
metrics are the BENCHMARK.json end_to_end (--trace 0) or per_layer
(--trace 1) set; it exits 1 when an output check failed. Workload specs live
in e2ebench/workloads.json; e2ebench/README.md describes the metrics.
"""
import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <linux/personality.h>


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark and the daemon."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("error: no mfalloc source tree at", ROOT)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + gen, stdout=sys.stderr).returncode != 0:
            log("error: configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "mfa_e2e",
           "mfa_e2e_selftest", "example_mfallocd"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("error: build failed")
        return None
    return {
        "runner": os.path.join(BUILD, "mfa_e2e"),
        "selftest": os.path.join(BUILD, "mfa_e2e_selftest"),
        "daemon": os.path.join(BUILD, "mfa", "example_mfallocd"),
    }


def fixed_layout():
    """Runs in the runner's process before exec. Turns off address-space
    randomization for the runner and for the daemon it spawns, which
    inherits the setting. Where code and heap land otherwise changes from
    run to run, and with it the solvers' speed: a 1-worker sweep pass
    varied ~20% between runs with it and ~5% without it on a 4-vCPU VM.
    Where the call is refused the run goes on randomized."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_once(bins, workload, seed, seconds, trace):
    """One run; returns (exit code, stdout text)."""
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [bins["runner"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", ROOT,
           "--daemon", bins["daemon"], "--work-dir", work]
    if trace:
        cmd += ["--spans-out", os.path.join(BUILD, "spans-%s.tsv" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log("error: run exceeded", RUN_TIMEOUT_S, "s")
        shutil.rmtree(work, ignore_errors=True)
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def spread(values):
    """Interquartile range over the median, as the acceptance check uses."""
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def selftest(bins):
    rc = subprocess.run([bins["selftest"]]).returncode
    # The spread helper on fixed inputs.
    ok = abs(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - 1.0) < 1e-12
    ok = ok and spread([2.0] * 10) == 0.0
    print("python spread helper:", "ok" if ok else "FAIL")
    return 0 if rc == 0 and ok else 1


def smoke(bins):
    failures = 0
    for w in workloads():
        for trace in (0, 1):
            rc, out = run_once(bins, w, 1, 2, trace)
            res = result_of(out) if rc == 0 else None
            good = res is not None and res["correct"] and res["metrics"]
            print("smoke %-20s trace=%d %s" % (w, trace, "ok" if good else "FAIL"))
            failures += 0 if good else 1
    return 1 if failures else 0


def table_of(stdout):
    """Every metric of the printed table: {name: value}."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("n="):
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def spread_report(bins, names, seeds, seconds, trace):
    """Runs each workload on seeds 1..`seeds` and prints every table
    metric's median and spread; result-line metrics are marked with '*'."""
    for w in names:
        values = {}
        listed = set()
        for seed in range(1, seeds + 1):
            rc, out = run_once(bins, w, seed, seconds, trace)
            if rc != 0:
                print("%s seed %d failed" % (w, seed))
                return 1
            listed = set(result_of(out)["metrics"])
            for k, v in table_of(out).items():
                values.setdefault(k, []).append(v)
        for k, v in values.items():
            print("%-18s %s%-34s median %-10.5g spread %.4f  %s" %
                  (w, "*" if k in listed else " ", k, statistics.median(v),
                   spread(v) if len(v) > 1 else 0,
                   " ".join("%.4g" % x for x in v)))
        sys.stdout.flush()
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=20190702)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spread", type=int, metavar="SEEDS")
    args = ap.parse_args()

    bins = build()
    if bins is None:
        return 2
    if args.selftest:
        return selftest(bins)
    if args.smoke:
        return smoke(bins)
    if args.spread:
        names = [args.workload] if args.workload else workloads()
        return spread_report(bins, names, args.spread, args.seconds,
                             args.trace)
    if not args.workload:
        ap.error("--workload is required")
    rc, out = run_once(bins, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
