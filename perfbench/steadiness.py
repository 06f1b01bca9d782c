#!/usr/bin/env python3
"""Steadiness check of the repo benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--first-seed 1] [--seconds S]

Runs every workload --runs times, one seed per round (first-seed + round),
alternating the workload order from round to round, and prints for each
end-to-end metric the median, the quartiles and the spread (quartile
distance over median) against the metric's bound in BENCHMARK.json.
A spread below a third of the bound is 'steady', below the bound 'ok',
else 'WIDE'. It also prints each workload's pair_error_rate. The exit
code is 1 when any pair failed or any spread is WIDE. Raw results go to
.bench_out/steadiness.json.
Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 and not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{done.returncode} and no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    args = parser.parse_args()

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in BENCHMARK["workloads"]])
    values = {w: [] for w in workloads}
    pairs = {w: [0, 0] for w in workloads}  # attempted, failed
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            result = run_once(w, args.first_seed + r, args.seconds)
            values[w].append({name: m["value"]
                              for name, m in result["metrics"].items()})
            pairs[w][0] += result["attempted"]
            pairs[w][1] += result["failed"]
            print(f"round {r + 1}/{args.runs} {w}: {values[w][-1]}",
                  file=sys.stderr, flush=True)

    print(f"{'workload':24s} {'metric':16s} {'unit':6s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    wide = any(failed for _, failed in pairs.values())
    for w in workloads:
        attempted, failed = pairs[w]
        print(f"{w:24s} {'pair_error_rate':16s} {'ratio':6s} "
              f"{failed / attempted:12.6g} ({failed} of {attempted} pairs)")
        for m in BENCHMARK["end_to_end"]:
            series = [v[m["name"]] for v in values[w]]
            med = statistics.median(series)
            q1, _, q3 = (statistics.quantiles(series, n=4)
                         if len(series) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            verdict = ("steady" if spread < bound / 3 else
                       "ok" if spread <= bound else "WIDE")
            wide |= verdict == "WIDE"
            print(f"{w:24s} {m['name']:16s} {m['unit']:6s} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.3f} {bound:6.2f} "
                  f"{verdict}")
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(values, indent=1))
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
