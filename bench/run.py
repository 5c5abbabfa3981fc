#!/usr/bin/env python3
"""Run one workload of the slat benchmark and print its metrics.

    python3 bench/run.py --workload reach --seed 1 --trace 0

Run it from the root of a checkout: slat is imported from that checkout's
``src/`` and from nowhere else, and the run fails with exit code 1 when
it is missing.  The workload is a closed loop with one client: batches of jobs
drawn from the seed run one after another, each job starting when the
previous one returns, and each batch's answers are checked as soon as it
ends, outside the timed region.  A run makes ``--seconds`` (by default
``run_seconds`` of ``BENCHMARK.json``) divided by the workload's
``batch_seconds`` batches, so every run of one seed does the same work.

Every time is reported in reference seconds (see ``_scaled``): the measured
time scaled by how fast a fixed pure-Python loop ran around it.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` batch 0 runs
once untraced and once under ``tracing.Tracer``, and the metrics are its
per-layer metrics.  The line before it is the run record; the record, the
failures and the spans of a traced run are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IMPORT_REPEATS = 9
PRODUCT_PAIRS = 10_000
PRODUCT_REPEATS = 5
# Times ``import slat`` in a fresh interpreter, in reference seconds, with
# the reference loop warmed up and run in that interpreter around the
# import.  numpy, which slat imports, is loaded before the clock starts:
# its load is mostly the kernel mapping shared libraries, which on the
# machine the benchmark was defined on swings by half from one minute to
# the next, and no change to slat makes it faster or slower.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "import numpy; from run import _scaled, _speed; _speed(3); "
                "before = _speed(5); t = time.perf_counter(); import slat; "
                "dt = time.perf_counter() - t; "
                "print(_scaled(dt, before, _speed(5)))")
# Size of ``_reference`` and the seconds it takes at the reference speed,
# which defines the reference second.  On the 2-vCPU x86-64 VM (Python
# 3.11) the benchmark was defined on, it takes 2.0-3.2 ms.
REF_ROUNDS = 2000
REF_READS = 3000
REF_SLOTS = 1 << 19               # 4 MiB of 8-byte integers
REF_S = 0.002


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_slat():
    """Import slat and the test oracles from this checkout only."""
    if not (SRC / "slat" / "__init__.py").is_file() or not ORACLES.is_file():
        raise SystemExit(f"error: {ROOT} holds no slat source tree "
                         "(src/slat and tests/oracles.py)")
    sys.path.insert(0, str(SRC))
    import slat

    if Path(slat.__file__).resolve().parent != SRC / "slat":
        raise SystemExit(f"error: imported slat from {slat.__file__}, "
                         f"not from {SRC}")
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def _git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- timing ----------------------------------------------------------------

class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def less(self, other):
        return self.num * other.den < other.num * self.den


@functools.cache
def _reference_data():
    rng = random.Random(0)
    return (array("q", range(REF_SLOTS)),
            [rng.randrange(REF_SLOTS) for _ in range(REF_READS)])


def _reference():
    """Seconds one run of a fixed pure-Python loop takes.

    It has two halves: object creation, method calls, integer arithmetic
    and dict stores, the operations slat's closures are made of; and
    scattered reads of a 4 MiB array and a burst of allocations, which slow
    when other tenants crowd the shared caches, as slat's large hosts do.
    It touches no ``Fraction``, so a traced run counts none of its work,
    and runs with the garbage collector off, so that a collection of the
    jobs' objects does not land in its time.
    """
    buf, reads = _reference_data()
    gc.disable()
    t0 = time.perf_counter()
    acc, seen, a = 0, {}, _Ratio(1, 3)
    items = [_Ratio(i, 7) for i in range(64)]
    for i in range(REF_ROUNDS):
        b = items[i & 63]
        if isinstance(b, _Ratio) and a.less(b):
            acc += 1
        seen[(acc * 31 + i) & 511] = b
        a = _Ratio((a.num * 7 + i) % 1009, a.den)
    for i in reads:
        acc += buf[i]
    pairs = [(i, i + 1) for i in range(REF_ROUNDS)]
    del pairs
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def _speed(runs):
    """Median time of ``runs`` runs of the reference loop.  The first runs
    in a fresh interpreter are slower, until it has specialised the loop's
    code, so each process starts with ``_speed(3)``."""
    return statistics.median(_reference() for _ in range(runs))


def _scaled(seconds, before, after):
    """``seconds`` in reference seconds, given the reference loop's times
    just before and just after them.

    Other tenants of a shared machine slow it by up to half, in stretches
    of seconds to minutes, and a process's CPU time slows with its wall
    time.  The loop slows with them: dividing by its time keeps a job's
    figure steady where its raw time swings by a quarter.
    """
    return seconds * 2 * REF_S / (before + after)


def _import_seconds():
    """Import of slat in a fresh interpreter, in reference seconds."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                          str(Path(__file__).resolve().parent), str(SRC)],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def _build(workload, b):
    """Set-up and job list of batch ``b``, and their time in reference
    seconds."""
    gc.collect()
    before = _reference()
    t0 = time.perf_counter()
    jobs = workload.batch(workload.setup(b), b)
    dt = time.perf_counter() - t0
    return jobs, _scaled(dt, before, _reference())


def _run_batch(jobs):
    """Run the jobs back to back; returns their answers and their
    latencies in reference seconds.  The reference loop runs between jobs,
    outside the timed calls."""
    gc.collect()
    answers, latencies = [], []
    before = _reference()
    for job in jobs:
        t = time.perf_counter()
        try:
            answers.append((job.call(), None))
        except Exception as exc:  # a failing job is counted, not fatal
            answers.append((None, exc))
        dt = time.perf_counter() - t
        after = _reference()
        latencies.append(_scaled(dt, before, after))
        before = after
    return answers, latencies


def _product_ns(spec, backend, seed):
    """Median ns per ``product`` call over seeded pairs on one host."""
    import slat

    S = slat.generate_instance(spec)
    got = "table" if S.kind == "table" else \
        "masks" if S._masks is not None else "implicit"
    if got != backend:
        raise ValueError(f"{spec} uses the {got} backend, not {backend}")
    rng = random.Random(f"product:{seed}:{spec}")
    pairs = [(rng.randrange(S.n), rng.randrange(S.n))
             for _ in range(PRODUCT_PAIRS)]
    prod = S.product
    times = []
    for _ in range(PRODUCT_REPEATS):
        t0 = time.perf_counter_ns()
        for x, y in pairs:
            prod(x, y)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / PRODUCT_PAIRS


# -- checking ----------------------------------------------------------------

def _check(jobs, answers):
    """Check every answer; returns (failures, check methods used)."""
    failures, methods = [], Counter()
    for job, (answer, error) in zip(jobs, answers):
        if error is not None:
            failures.append(f"{job.desc}: raised {error!r}")
            continue
        try:
            method = job.check(answer)
        except Exception as exc:  # an unreadable answer is a wrong answer
            method, error = "", exc
        if method:
            methods[method] += 1
        else:
            failures.append(f"{job.desc}: wrong answer"
                            + (f" ({error!r})" if error else ""))
    return failures, methods


# -- the two kinds of run -------------------------------------------------

def _timed_run(workload, seconds):
    """Run the batches, checking each as soon as it ends, so that only one
    batch's hosts and answers are alive at a time."""
    batches = max(1, round(seconds / workload.batch_seconds))
    _speed(3)
    imports = [_import_seconds() for _ in range(IMPORT_REPEATS)]
    builds, walls, latencies, per_job = [], [], [], []
    failures, methods, digest, attempted = [], Counter(), hashlib.sha256(), 0
    t0 = time.perf_counter()
    for b in range(batches):
        jobs, build_s = _build(workload, b)
        answers, lat = _run_batch(jobs)
        builds.append(build_s)
        walls.append(sum(lat))
        latencies += lat
        per_job += [[job.desc, t] for job, t in zip(jobs, lat)]
        got, used = _check(jobs, answers)
        failures += got
        methods.update(used)
        digest.update("".join(job.desc + "\n" for job in jobs).encode())
        attempted += len(jobs)
        del jobs, answers
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"batches": batches, "batch_walls_s": walls,
             "import_s": imports, "build_s": builds,
             "latency_samples": len(latencies),
             "elapsed_s": time.perf_counter() - t0, "job_latencies_s": per_job}
    return attempted, digest.hexdigest(), failures, methods, metrics, extra


def _traced_run(workload, seed, out_stem):
    from tracing import Tracer

    _speed(3)
    product_ns = {b: _product_ns(spec, b, seed)
                  for b, spec in workload.product_hosts.items()}
    jobs, _ = _build(workload, 0)
    plain_wall = sum(_run_batch(jobs)[1])
    tracer = Tracer()
    tracer.install()
    try:
        jobs = workload.batch(workload.setup(0), 0)
        answers, lat = _run_batch(jobs)
    finally:
        tracer.uninstall()
    traced_wall = sum(lat)
    failures, methods = _check(jobs, answers)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    for backend, ns in product_ns.items():
        metrics[f"core.product.{backend}.ns"] = ns
    tracer.write_spans(out_stem.with_suffix(".spans.json.gz"))
    digest = hashlib.sha256("".join(job.desc + "\n" for job in jobs).encode())
    extra = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
             "product_hosts": workload.product_hosts,
             "spans": len(tracer.spans) // 4, "all_metrics": metrics}
    return len(jobs), digest.hexdigest(), failures, methods, metrics, extra


def main(argv=None):
    args = _parse_args(argv)
    oracles = _load_slat()
    import numpy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    OUT.mkdir(exist_ok=True)
    out_stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    workload = WORKLOADS[args.workload](args.seed, oracles)
    if args.trace:
        attempted, digest, failures, methods, metrics, extra = _traced_run(
            workload, args.seed, out_stem)
    else:
        attempted, digest, failures, methods, metrics, extra = _timed_run(
            workload, args.seconds)
    record.update(extra, loadavg_end=os.getloadavg(), jobs=attempted,
                  jobs_digest=digest, checks=dict(methods), failures=failures)
    out_stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not collected: {missing}")
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k not in ("all_metrics",
                                                "job_latencies_s")}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
