"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They run the workloads against the slat in ``src/`` of this checkout, so
they take about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import slat  # noqa: E402

oracles = run._load_slat()
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = sorted(WORKLOADS)


def _bench(*args):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _per_layer(unit_kinds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"] if m["unit"] in unit_kinds]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_batch_has_no_failed_jobs(name):
    res = _bench("--workload", name, "--seed", "5", "--seconds", "0",
                 "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert all(m["value"] > 0 for m in res["metrics"].values())


def _first(jobs, kind):
    return next(j for j in jobs if j.kind == kind)


def test_corrupted_answers_count_as_failed():
    reach = WORKLOADS["reach"](1, oracles)
    jobs = reach.batch(reach.setup(0), 0)
    barrier, query = _first(jobs, "barrier"), _first(jobs, "query_prototype")
    cli = WORKLOADS["cli"](1, oracles)
    adversary = _first(cli.batch(cli.setup(0), 0), "adversary")
    good = [(job.call(), None) for job in (barrier, query, adversary)]
    failures, methods = run._check([barrier, query, adversary], good)
    assert failures == [] and sum(methods.values()) == 3

    def shifted(v):
        return slat.PropagationValue(v.c + 1)

    _, out = good[2][0]
    bad = [(shifted(good[0][0]), None), (shifted(good[1][0]), None),
           ((1, out), None)]
    failures, methods = run._check([barrier, query, adversary], bad)
    assert len(failures) == 3 and not methods
    failures, methods = run._check([barrier, barrier], [good[0], bad[0]])
    assert len(failures) == 1 and sum(methods.values()) == 1
    failures, _ = run._check([query], [(None, RuntimeError("boom"))])
    assert len(failures) == 1 and "boom" in failures[0]


def test_traced_counts_repeat_for_one_seed():
    counts = _per_layer({"count", "bytes", "ratio"})
    first = _bench("--workload", "search", "--seed", "2", "--trace", "1")
    second = _bench("--workload", "search", "--seed", "2", "--trace", "1")
    assert first["failed"] == second["failed"] == 0
    got = [{m: r["metrics"][m]["value"] for m in counts}
           for r in (first, second)]
    assert got[0] == got[1]
    assert got[0]["propagation.propagation_profile.nodes"] > 0
