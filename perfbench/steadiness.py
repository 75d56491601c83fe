#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --workload hot_keys --seeds 1-10
    python3 perfbench/steadiness.py --workload all --seeds 11-20 --trace 1
    python3 perfbench/steadiness.py --host-noise 10

Run from the repository root. The benchmark command, run length and
bounds come from BENCHMARK.json. For each end-to-end metric the script
prints the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median next to the metric's bound; a spread above
a third of the bound is flagged. Runs that fail or report failed
operations are listed and left out.

--host-noise N starts the binary's host_noise probe in N separate
processes and reports the same statistics for a compute-bound and a
memory-bound loop, which shows what "steady" can mean on this host.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread_row(name, values, bound=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    flag = ""
    if bound is not None:
        flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
    b = "" if bound is None else f"{bound:g}"
    return f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {b} | {flag} |"


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, f"{result['failed']} of {result['attempted']} operations failed"
    return result, None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--binary", help="prebuilt perfbench binary (default: BENCHMARK.json command)")
    ap.add_argument("--host-noise", type=int, default=0, metavar="N")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [args.binary] if args.binary else bench["command"]

    if args.host_noise:
        rows = {}
        for _ in range(args.host_noise):
            out = subprocess.run(command + ["--workload", "host_noise", "--seed", "0",
                                            "--seconds", "1", "--trace", "0"],
                                 capture_output=True, text=True, check=True, timeout=600)
            for k, v in json.loads(out.stdout.strip().splitlines()[-1]).items():
                rows.setdefault(k, []).append(v)
        print(f"host noise over {args.host_noise} processes")
        print("| metric | median | q1 | q3 | spread | bound | |")
        print("|---|---|---|---|---|---|---|")
        for k, v in rows.items():
            print(spread_row(k, v))
        return 0

    workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bad = 0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        failures = []
        for seed in args.seeds:
            result, err = run_once(command, workload, seed, bench["run_seconds"], args.trace)
            if err:
                failures.append(f"seed {seed}: {err}")
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in values), file=sys.stderr)
        print(f"\n{workload}, seeds {args.seeds[0]}..{args.seeds[-1]} "
              f"({len(args.seeds) - len(failures)} runs, trace {args.trace})")
        print("| metric | median | q1 | q3 | spread | bound | |")
        print("|---|---|---|---|---|---|---|")
        for m in metrics:
            v = values[m["name"]]
            if len(v) >= 2:
                row = spread_row(m["name"], v, m.get("bound"))
                bad += "TOO WIDE" in row
                print(row)
        for f in failures:
            print(f"- failed: {f}")
        bad += len(failures)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
