#!/usr/bin/env python3
"""Scan-and-serve benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the hsdl libraries and the benchmark
binary from source (into $CARGO_TARGET_DIR or .bench_build), writes the
seed's inputs once (into .bench_data/seed-N), times the host canary,
runs the workload, times the canary again, and prints two JSON lines on
stdout: a report (canary, per-phase counts, notes) and, last,
the result {"correct", "attempted", "failed", "metrics"}.

Exits non-zero without a result when the sources are missing, the build
fails, or the workload fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("scan_dense_overlap", "scan_hier_array", "serve_closed_8clip")
RUN_TIMEOUT_S = 170


def host_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check(cmd, timeout=None):
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=timeout)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: hsdl sources (src/) not found next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check(["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", *generator])
    check(["cmake", "--build", build_dir, "--target", "hsdl_perfbench",
           "-j", str(host_cores())])
    return os.path.join(build_dir, "hsdl_perfbench")


def inputs(binary, seed):
    """The seed's generated inputs, written once and reused while the
    generator's source is unchanged."""
    digest = hashlib.sha1()
    for name in ("inputs.cpp", "bench.hpp"):
        with open(os.path.join(BENCH_DIR, name), "rb") as f:
            digest.update(f.read())
    data = os.path.join(ROOT, ".bench_data", digest.hexdigest()[:12],
                        f"seed-{seed}")
    if not os.path.isfile(os.path.join(data, "complete")):
        tmp = data + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        check([binary, "generate", "--seed", str(seed), "--out", tmp],
              timeout=RUN_TIMEOUT_S)
        open(os.path.join(tmp, "complete"), "w").close()
        shutil.rmtree(data, ignore_errors=True)
        os.rename(tmp, data)
    return data


def canary(binary):
    out = subprocess.run([binary, "canary"], check=True, capture_output=True,
                         text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    data = inputs(binary, args.seed)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    canary_before = canary(binary)
    proc = subprocess.run(
        [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--data", data, "--out", out_dir],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: workload exited with code {proc.returncode}")
    canary_after = canary(binary)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host_cores": host_cores(),
        "canary_ms_before": canary_before, "canary_ms_after": canary_after,
        "phases": raw["phases"], "notes": raw["notes"],
        "failures": raw["failures"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({k: raw[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as err:
        sys.exit(f"perfbench: {err}")
