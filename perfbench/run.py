#!/usr/bin/env python3
"""The repo benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (librocket from src/
plus the harness) into a directory of this checkout's own under
$CARGO_TARGET_DIR or .bench_build, runs the workload, checks every
result, writes a stamped result file under .bench_out/, and prints as
its last stdout line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics.
The exit code is 0 only when every pair of every repeat was correct.

--smoke runs each workload at a tiny size, once (the benchmark's own
tests use it); --perturb LEFT,RIGHT nudges one compare result so the
correctness gate must fire.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = Path(".bench_out")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    """A build directory of this checkout's own under $CARGO_TARGET_DIR
    (or .bench_build). The variable may name a directory shared between
    checkouts; keying by the checkout's path keeps one checkout from
    building and measuring another's sources through a cached configure."""
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    key = hashlib.sha256(str(BENCH_DIR).encode()).hexdigest()[:16]
    return root / f"perfbench-{key}"


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "rocket_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out / "rocket_perfbench"


def workload_params(spec, smoke):
    params = dict(spec["params"])
    if smoke:
        params.update(spec["smoke"])
    return params


def run_harness(binary, args, params, perturb):
    cmd = [str(binary), "--workload", args.workload,
           "--params", json.dumps(params), "--seed", str(args.seed),
           "--seconds", str(0 if args.smoke else args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    if perturb:
        cmd += ["--perturb", perturb]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        raise RuntimeError(f"workload ran past {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        raise RuntimeError(f"harness exited with {done.returncode}")
    measured, info, gate = {}, {}, None
    for line in done.stdout.splitlines():
        kind, _, rest = line.partition("\t")
        if kind == "metric":
            name, value = rest.split("\t")
            measured[name] = float(value)
        elif kind == "info":
            key, _, text = rest.partition("\t")
            info[key] = text
        elif kind == "gate":
            attempted, failed = rest.split("\t")
            gate = (int(attempted), int(failed))
    if gate is None:
        raise RuntimeError("harness printed no gate record")
    return measured, info, gate


def select_metrics(declared, measured, not_run):
    """Every declared metric with its unit. A metric of a layer the
    workload does not run reads 0; any other missing metric is an error."""
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in measured:
            value = measured[name]
        elif any(name.startswith(prefix) for prefix in not_run):
            value = 0.0
        else:
            raise RuntimeError(f"metric {name} was not measured")
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    try:
        done = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", metavar="LEFT,RIGHT")
    args = parser.parse_args()

    try:
        bench = load_json(REPO_ROOT / "BENCHMARK.json")
        specs = load_json(BENCH_DIR / "workloads.json")["workloads"]
        if args.workload not in specs:
            raise RuntimeError(f"unknown workload {args.workload}")
        spec = specs[args.workload]
        binary = build()
        OUT_DIR.mkdir(exist_ok=True)
        params = workload_params(spec, args.smoke)
        started = time.time()
        measured, info, (attempted, failed) = run_harness(
            binary, args, params, args.perturb)
        declared = bench["per_layer"] if args.trace else bench["end_to_end"]
        metrics = select_metrics(declared, measured,
                                 spec.get("layers_not_run", []))
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1

    correct = failed == 0 and attempted > 0
    pair_error_rate = failed / attempted if attempted else 1.0
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "params": params, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "build_type": info.pop("build_type", "unknown"),
        "git_revision": git_revision(), "started_unix": started,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(stamp, result=result, pair_error_rate=pair_error_rate,
                  info=info)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for key, m in metrics.items():
        note = info.get(key, "")
        print(f"{key:36s} {m['value']:.6g} {m['unit']} {note}".rstrip())
    print(f"{'pair_error_rate':36s} {pair_error_rate:.6g} ratio "
          f"({failed} of {attempted} pairs failed)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
