"""Run the benchmark several times per workload and print one summary table.

    python3 bench/summarize.py --runs 10 --out runs.json
    python3 bench/summarize.py --load runs.json --baseline parent.json

Each run uses its own seed (``--first-seed``, ``--first-seed + 1``, ...) and
the run length from ``BENCHMARK.json``; runs execute one at a time. The table
has one row per workload and, per end-to-end metric, the median with the
first and third quartiles over the runs, the spread (quartile distance over
median) and, with ``--baseline``, the median's change against an earlier
results file. A spread above a third of the metric's bound, or a change worse
than the bound, is flagged with ``!``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def table(spec, results, baseline):
    """Markdown table: one row per workload, one column per end-to-end metric."""
    metrics = spec["end_to_end"]
    print("| workload | runs | ops | failed_ratio | "
          + " | ".join(f"{m['name']} ({m['unit']})" for m in metrics) + " |")
    print("|---" * (4 + len(metrics)) + "|")
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        cells = [workload, str(len(runs)), str(attempted), f"{failed / attempted:.3g}"]
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            flag = "!" if m["name"] != "setup_s" and spread > m["bound"] / 3 else ""
            cell = f"{med:.4g} [{q1:.4g}, {q3:.4g}] spread {100 * spread:.1f}%{flag}"
            if baseline and workload in baseline:
                old = statistics.median(r["metrics"][m["name"]]["value"] for r in baseline[workload])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                cell += f", {100 * (med - old) / old:+.1f}% vs baseline{'!' if worse > m['bound'] else ''}"
            cells.append(cell)
        print("| " + " | ".join(cells) + " |")
    if not all(r["correct"] for runs in results.values() for r in runs):
        print("some runs reported correct=false")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the raw results here as JSON")
    parser.add_argument("--load", help="summarize a results file instead of running")
    parser.add_argument("--baseline", help="results file to compare medians against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.load:
        results = json.loads(Path(args.load).read_text())
    else:
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        results = {}
        for name in names:
            results[name] = []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                results[name].append(run_once(spec, name, seed))
                print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
        if args.out:
            Path(args.out).write_text(json.dumps(results))
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    table(spec, results, baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
