#!/usr/bin/env python3
"""Steadiness report: run workloads over several seeds and print, for every
end-to-end metric, its median and quartile spread ((q3 - q1) / median)
beside the host canary's spread over the same runs.

    python3 perfbench/steady.py --seeds 1-10 --seconds 20 \\
        [--workloads scan_dense_overlap,serve_closed_8clip]

Each spread is compared with its metric's bound in BENCHMARK.json. A metric whose spread is near the canary's points at the
host; one well above it points at the program. Run from the repository
root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True)
    lines = [json.loads(l) for l in out.stdout.splitlines() if l.startswith("{")]
    report, result = lines[-2]["report"], lines[-1]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {report}")
    return report, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values, canary, flagged = {}, [], []
        for seed in args.seeds:
            report, result = run(workload, seed, args.seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            canary += [report["canary_ms_before"], report["canary_ms_after"]]
            flagged.append(report["notes"]["flagged_fraction"]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                file=sys.stderr, flush=True)
        _, _, _, canary_spread = spread(canary)
        print(f"{workload}  ({len(args.seeds)} seeds, canary spread "
              f"{canary_spread:.3f}, flagged fraction "
              f"{min(flagged):.2f}-{max(flagged):.2f})")
        for name, vals in values.items():
            med, q1, q3, s = spread(vals)
            line = (f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  "
                    f"q3 {q3:12.6g}  spread {s:.3f}")
            if name in bounds:
                verdict = "ok" if s <= bounds[name] / 3 else (
                    "within bound" if s <= bounds[name] else "TOO NOISY")
                line += f"  bound {bounds[name]}  {verdict}"
            print(line, flush=True)


if __name__ == "__main__":
    main()
