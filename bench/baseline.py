#!/usr/bin/env python3
"""Run every workload of ``BENCHMARK.json`` over seeds 1 to 10, summarise,
and write the summary to ``bench/baseline.json``.

    python3 bench/baseline.py

Runs go one at a time, each in its own process, as ``run.py`` is run by
hand.  For each workload and end-to-end metric the summary gives the
median, the quartiles and the spread: the distance between the quartiles
as a share of the median.  A metric is steady when its spread is below a
third of its bound; the exit code is 1 when one is not, or when a job
failed.  One traced run per workload, with seed 1, adds the per-layer
metrics.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "baseline.json"
SEEDS = range(1, 11)
TRACE_SEED = 1


def _run(spec, workload, seed, trace):
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n"
                         f"{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f} s, "
          f"correct={result['correct']} failed={result['failed']}/"
          f"{result['attempted']}", flush=True)
    return result, elapsed


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"python": platform.python_version(),
               "machine": platform.machine(), "seeds": list(SEEDS),
               "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(spec, name, seed, 0) for seed in SEEDS]
        entry = {"failed": sum(r["failed"] for r, _ in runs),
                 "attempted": [r["attempted"] for r, _ in runs],
                 "run_elapsed_s": [round(e, 2) for _, e in runs],
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": values}
            steady = spread < m["bound"] / 3
            ok = ok and steady
            print(f"  {m['name']:12s} median {med:.5g} {m['unit']:4s} "
                  f"spread {spread:.3f} (bound/3 {m['bound'] / 3:.3f})"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
        traced, elapsed = _run(spec, name, TRACE_SEED, 1)
        entry["traced"] = {"seed": TRACE_SEED,
                           "run_elapsed_s": round(elapsed, 2),
                           "failed": traced["failed"],
                           "per_layer": {k: v["value"] for k, v in
                                         traced["metrics"].items()}}
        ok = ok and entry["failed"] == 0 and traced["failed"] == 0
        summary["workloads"][name] = entry
    OUT.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
