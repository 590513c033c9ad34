#!/usr/bin/env python3
"""Steadiness check for bench/run.py, and the recorded baseline.

Usage, from the repository root:

    python3 bench/steady.py

Each workload in BENCHMARK.json runs as two independent sets of
RUNS_PER_SET runs, each run with its own seed, with the command and run
length from BENCHMARK.json, and then once traced for the per-layer figures.
For every end-to-end metric the script prints the spread of all runs (the
distance between the first and third quartile as a share of the median) and
how much worse the second set's median is than the first's, both as shares
to hold against the metric's bound.  It names every metric whose spread or
drift exceeds its bound and then exits 1; it also exits 1 when a run reports
a failed call or prints other metrics than BENCHMARK.json lists.  Every
figure, with the machine and the git commit, goes to bench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench" / "baseline.json"
RUNS_PER_SET = 5


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output (exit {proc.returncode})\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    print(f"  {workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"failed {result['failed']}/{result['attempted']}", flush=True)
    return result


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    bad, report = [], {}
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"{workload}:", flush=True)
        sets = [[run_once(spec, workload, seed, 0) for seed in seeds]
                for seeds in (range(1, RUNS_PER_SET + 1),
                              range(RUNS_PER_SET + 1, 2 * RUNS_PER_SET + 1))]
        traced = run_once(spec, workload, 1000, 1)
        for res in [r for s in sets for r in s] + [traced]:
            if not res["correct"] or res["exit"] != 0:
                bad.append(f"{workload}: a run failed {res['failed']} of "
                           f"{res['attempted']} calls")
        for res, names in [(r, e2e) for s in sets for r in s] + [(traced, layers)]:
            if set(res["metrics"]) != set(names):
                bad.append(f"{workload}: metrics {sorted(res['metrics'])} differ "
                           f"from BENCHMARK.json")

        rows = {}
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'drift':>8s} {'bound':>6s}")
        for name, m in e2e.items():
            per_set = [[r["metrics"][name]["value"] for r in s] for s in sets]
            values = per_set[0] + per_set[1]
            q1, med, q3 = statistics.quantiles(values, n=4)
            first, second = (statistics.median(v) for v in per_set)
            drift = (second - first) / first
            if m["better"] == "higher":
                drift = -drift
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                          "unit": m["unit"], "median_first": first,
                          "median_second": second, "spread": spread,
                          "drift": drift, "bound": m["bound"]}
            flags = []
            if spread > m["bound"]:
                flags.append("SPREAD")
                bad.append(f"{workload} {name}: spread {spread:.3f} > bound {m['bound']}")
            elif spread > m["bound"] / 3:
                flags.append("spread above a third of the bound")
            if drift > m["bound"]:
                flags.append("DRIFT")
                bad.append(f"{workload} {name}: second median worse by {drift:.3f} "
                           f"> bound {m['bound']}")
            print(f"  {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{drift:+8.4f} {m['bound']:6.3g} {' '.join(flags)}", flush=True)
        report[workload] = {
            "end_to_end": rows,
            "per_layer": {name: {"value": traced["metrics"][name]["value"], "unit": m["unit"]}
                          for name, m in layers.items() if name in traced["metrics"]}}

    doc = {"git_sha": git_sha(), "machine": machine(),
           "command": spec["command"], "run_seconds": spec["run_seconds"],
           "runs_per_set": RUNS_PER_SET, "workloads": report}
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    for line in bad:
        print("NOT STEADY: " + line)
    if not bad:
        print("steady: every end-to-end metric within its bound on every workload")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
