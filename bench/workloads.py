"""The three benchmark workloads: ``reach``, ``search`` and ``cli``.

Each workload turns the benchmark seed into batches of jobs of a fixed
composition.  A job is one call into slat's public entry points; its answer
is checked afterwards, outside the timed region, by ``Job.check``.  Batch
``b`` of a run is drawn from ``(seed, b)`` alone, so two runs with one seed
do the same work batch for batch, and a later batch never repeats the
queries of an earlier one.  ``setup(b)`` builds what the jobs of batch ``b``
share.

Jobs call slat through module attributes looked up at call time
(``slat.v_value``, ``slat.cli.main``), so the wrappers of a traced run see
every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import slat
import slat.cli
from slat._bitset import bits, mask_of

import checks


# ``batch_seconds`` of a workload is the time of one of its batches, in
# reference seconds, at the commit that defined the benchmark; ``run.py``
# derives the number of batches of a run from it.


@dataclass
class Job:
    kind: str                       # job family: barrier, vmap, ...
    desc: str                       # canonical text of the inputs, digested
    call: Callable[[], Any]         # the timed call into slat
    check: Callable[[Any], str]     # the check's method name if right, else ""


def _random_submask(rng, mask, width):
    """Uniform nonempty submask of ``mask``."""
    while True:
        sub = rng.getrandbits(width) & mask
        if sub:
            return sub


def _ids(mask):
    return ",".join(map(str, bits(mask)))


def _singletons(S):
    return mask_of(x for x in range(S.n) if S.member_mask(x).bit_count() == 1)


# -- reach ----------------------------------------------------------------

# (host rank k, weight, union size u, jobs per batch).  The closure universe
# of a query is every nonempty subset of the union of E, 2^u - 1 elements,
# and its target is an element one point short of that union, so each
# closure runs nearly to the top of its universe.  Fixing u per job thus
# fixes the work of each prototype and cardinality query and keeps the cost
# of a batch steady from seed to seed.  Random weights differ in how many
# thresholds they attain, so each batch draws two of its own and they take a
# small share of it.  They stay on pstar(8): building one on pstar(9) takes
# a second.
REACH_PLAN = [
    (8, "prototype", 6, 3), (8, "prototype", 7, 5),
    (8, "cardinality", 6, 3), (8, "cardinality", 7, 5),
    (9, "prototype", 6, 2), (9, "prototype", 7, 5), (9, "prototype", 8, 3),
    (9, "cardinality", 6, 2), (9, "cardinality", 7, 5),
    (9, "cardinality", 8, 3),
    (8, "random0", 6, 5), (8, "random0", 7, 1),
    (8, "random1", 6, 5), (8, "random1", 7, 1),
]


class Reach:
    """``v_value`` queries on shared free hosts ``pstar(8)`` and ``pstar(9)``.

    Each job is one large closure: this loads the propagation closure, the
    ``Fraction`` threshold comparisons of the weights and the explicit-mask
    ``product``.  Hosts and weights are built once per batch and shared by
    its jobs, as a library caller would share them.
    """

    name = "reach"
    batch_seconds = 4.6
    product_hosts = {"masks": "pstar(9)", "table": "tree(2,5)",
                     "implicit": "fin(24,8)"}

    def __init__(self, seed, oracles):
        self.seed = seed

    def setup(self, b):
        hosts = {k: slat.free_nonempty(k) for k in (8, 9)}
        lams = {}
        for k, S in hosts.items():
            for name in ("prototype", "cardinality"):
                lams[k, name] = slat.builtin_logweight(S, name)
        for i in range(2):
            lams[8, f"random{i}"] = slat.random_logweight(
                hosts[8], random.Random(f"reach:{self.seed}:{b}:weight{i}")
                .randrange(1 << 32))
        return {"hosts": hosts, "lams": lams}

    def batch(self, ctx, b):
        rng = random.Random(f"reach:{self.seed}:{b}")
        jobs = [self._barrier(ctx, k) for k in (8, 9)]
        for k, wname, u, count in REACH_PLAN:
            for _ in range(count):
                jobs.append(self._query(ctx, rng, k, wname, u))
        rng.shuffle(jobs)
        return jobs

    def _barrier(self, ctx, k):
        """Prototype barrier: singletons to the top costs ceil(k/2)."""
        S = ctx["hosts"][k]
        lam = ctx["lams"][k, "prototype"]
        E, z = _singletons(S), S.id_of_mask((1 << k) - 1)
        want = Fraction(math.ceil(k / 2))

        def check(v):
            return "closed_form" if not v.is_infinite and v.c == want else ""

        return Job("barrier", f"v_value pstar({k}) prototype E={_ids(E)} z={z}",
                   lambda: slat.v_value(S, lam, E, z), check)

    def _query(self, ctx, rng, k, wname, u):
        """Random generating set whose members' union has exactly ``u``
        points, and a target in its filter with ``u - 1`` of those points."""
        S = ctx["hosts"][k]
        lam = ctx["lams"][k, wname]
        union = mask_of(rng.sample(range(k), u))
        while True:
            masks = [_random_submask(rng, union, k)
                     for _ in range(rng.randrange(2, 5))]
            if _union(masks) == union:
                break
        E = mask_of(S.id_of_mask(m) for m in masks)
        z = S.id_of_mask(union & ~(1 << rng.choice(list(bits(union)))))

        def check(v):
            return "closure_oracle" if checks.v_value_ok(S, lam, E, z, v) else ""

        return Job(f"query_{wname}",
                   f"v_value pstar({k}) {wname} E={_ids(E)} z={z}",
                   lambda: slat.v_value(S, lam, E, z), check)


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def _profile_check(S, lam, L, prof, oracles, breadth, square=False):
    """Exhaustive profile within the breadth bound (and L^2 on
    ``fin(k,k-1)``), attained by its witness under the brute-force
    ``naive_v``."""
    v = prof.value
    if not prof.exhaustive or v.is_infinite or v.c > breadth * L:
        return ""
    if square and v.c > L * L:
        return ""
    if v.c == 0:
        return "bounds"
    got = oracles.naive_v(S, lam, prof.witness_E, prof.witness_z)
    return "witness_replay" if got == v.c else ""


def _breadth_check(S, rep, want, oracles):
    ids = list(bits(rep.witness))
    ok = (rep.breadth == want and rep.exhaustive and len(ids) == want
          and oracles.naive_incompressible(S, ids))
    return "closed_form" if ok else ""


# -- search ---------------------------------------------------------------

# Random-weight hosts with their breadth (2 on trees, 1 on a chain, k on
# powerset(k)) and the number of seeded attained levels profiled per batch.
SEARCH_RANDOM_HOSTS = {"tree(2,3)": (2, 3), "tree(3,2)": (2, 3),
                       "chain(8)": (1, 3), "powerset(4)": (4, 3)}
# (host, weight, level, breadth of the host, whether the L^2 bound of
# fin(k,k-1) applies).  Besides the large profiles, a block of profiles and
# breadth searches of 10-20 ms sits at the middle of a batch's latencies,
# so the median job does not swing with the random weights.  fin(6,3) at
# L=2 and L=3 (0.6 s and 3.6 s) is left out to keep a batch short.
SEARCH_PROFILES = [
    ("fin(5,4)", "cardinality", 1, 5, True),
    ("fin(5,4)", "cardinality", 2, 5, True),
    ("fin(5,4)", "cardinality", 3, 5, True),
    ("pstar(5)", "cardinality", 1, 5, False),
    ("pstar(5)", "cardinality", 2, 5, False),
    ("pstar(5)", "cardinality", 3, 5, False),
    ("fin(6,3)", "cardinality", 1, 4, False),
    ("fin(6,2)", "cardinality", 1, 3, False),
] + [(spec, weight, L, 4, False) for spec in ("pstar(4)", "powerset(4)")
     for weight in ("cardinality", "prototype") for L in (1, 2)]
# Breadth: k on pstar(k) and powerset(k), 2 on trees.
SEARCH_BREADTH = {"pstar(6)": 6, "powerset(6)": 6, "tree(2,5)": 2,
                  "tree(3,3)": 2, "pstar(5)": 5, "powerset(5)": 5}


class Search:
    """``propagation_profile`` at attained levels plus ``breadth`` branch
    and bound.

    The same propagation code runs thousands of tiny closures, one per
    incompressible candidate set, so this loads ``is_compressible``, the
    per-closure universe set-up and the table backend.  Each batch builds
    its own hosts, so no batch inherits the factor caches of another.
    """

    name = "search"
    batch_seconds = 3.1
    product_hosts = {"table": "tree(2,5)", "masks": "pstar(6)",
                     "implicit": "fin(24,8)"}

    def __init__(self, seed, oracles):
        self.seed = seed
        self.oracles = oracles

    def setup(self, b):
        return {}

    def batch(self, ctx, b):
        rng = random.Random(f"search:{self.seed}:{b}")
        jobs = []
        for spec, (br, count) in SEARCH_RANDOM_HOSTS.items():
            S = slat.generate_instance(spec)
            while True:
                wseed = rng.randrange(1 << 32)
                lam = slat.random_logweight(S, wseed)
                levels = lam.distinct_values()
                if len(levels) >= count:
                    break
            for L in sorted(rng.sample(levels, count)):
                jobs.append(self._profile(S, lam, L, f"{spec} random:{wseed}",
                                          br, False))
        hosts, lams = {}, {}
        for spec, weight, L, br, square in SEARCH_PROFILES:
            if spec not in hosts:
                hosts[spec] = slat.generate_instance(spec)
            S = hosts[spec]
            if (spec, weight) not in lams:
                lams[spec, weight] = slat.builtin_logweight(S, weight)
            jobs.append(self._profile(S, lams[spec, weight], Fraction(L),
                                      f"{spec} {weight}", br, square))
        for spec, want in SEARCH_BREADTH.items():
            jobs.append(self._breadth(slat.generate_instance(spec), spec, want))
        rng.shuffle(jobs)
        return jobs

    def _profile(self, S, lam, L, label, br, square):
        oracles = self.oracles
        return Job("profile", f"propagation_profile {label} L={L}",
                   lambda: slat.propagation_profile(S, lam, L),
                   lambda prof: _profile_check(S, lam, L, prof, oracles, br,
                                               square))

    def _breadth(self, S, spec, want):
        oracles = self.oracles
        return Job("breadth", f"breadth {spec}", lambda: slat.breadth(S),
                   lambda rep: _breadth_check(S, rep, want, oracles))


# -- cli ------------------------------------------------------------------

def run_cli(argv):
    """``slat.cli.main(argv)`` with stdout captured: ``(exit code, stdout)``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = slat.cli.main(argv)
        except SystemExit as exc:       # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue()


def _weight(S, spec):
    if spec.startswith("random:"):
        return slat.random_logweight(S, int(spec[7:]))
    return slat.builtin_logweight(S, spec)


# Per batch: three heavy commands (analyze, adversary on fin(20,15), verify
# on fin(10,5)) take 5% of the jobs and the sweeps the next 10%, so the
# 90th latency percentile falls inside the sweeps rather than on the cliff
# between a few-millisecond and a second-long command.  The small commands
# run on pstar(5) and the i-th of a kind takes the i-th weight or host of
# its rotation, so the mix of a batch, and with it the median latency, is
# the same for every seed; the seed draws the element ids.
CLI_SWEEPS = 6
CLI_SMALL = [("_vmap", 10), ("_fbp", 8), ("_defect", 7), ("_dist", 7),
             ("_profile", 7), ("_breadth", 7)]


def _trunc_size(k, c):
    return sum(math.comb(k, m) for m in range(c + 1)) + 1


class Cli:
    """README commands run in-process through ``slat.cli.main``.

    Every command builds its own host, as a CLI user's does, so nothing is
    shared between jobs.  The heavy commands load the implicit-rank
    ``product`` on million-element hosts, weight construction and
    validation, and the adversarial barriers; the small ones load argument
    parsing and JSON emission.
    """

    name = "cli"
    batch_seconds = 5.6
    product_hosts = {"implicit": "fin(24,8)", "masks": "pstar(5)",
                     "table": "tree(2,3)"}

    def __init__(self, seed, oracles):
        self.seed = seed
        self.oracles = oracles

    def setup(self, b):
        return {}

    def batch(self, ctx, b):
        rng = random.Random(f"cli:{self.seed}:{b}")
        jobs = [
            self._analyze(24, 8),
            self._adversary("fin(20,15)", 4),
            self._adversary("fin(24,8)", 4),
            self._verify(["verify", "fin(10,5)", "--weight", "cardinality"]),
            self._verify(["verify", "--seed", str(rng.randrange(1000))]),
        ] + [self._sweep(7) for _ in range(CLI_SWEEPS)]
        jobs += [getattr(self, make)(rng, i)
                 for make, count in CLI_SMALL for i in range(count)]
        rng.shuffle(jobs)
        return jobs

    def _job(self, kind, argv, check):
        def checked(answer):
            rc, out = answer
            return check(rc, out)

        return Job(kind, " ".join(argv), lambda: run_cli(argv), checked)

    def _analyze(self, k, c):
        def check(rc, out):
            rep = json.loads(out)
            ok = (rc == 0 and rep["n"] == _trunc_size(k, c)
                  and rep["breadth"]["breadth"] == c + 1
                  and rep["breadth"]["exhaustive"])
            return "closed_form" if ok else ""

        return self._job("analyze", ["analyze", f"fin({k},{c})"], check)

    def _adversary(self, spec, nmax):
        def check(rc, out):
            rep = json.loads(out)
            ok = rc == 0 and rep["all_passed"] and all(
                lvl["value"]["kind"] == "finite"
                and checks.frac_of(lvl["value"]["c"]) >= Fraction(lvl["n"], 2)
                for lvl in rep["barriers"])
            return "closed_form" if ok else ""

        return self._job("adversary", ["adversary", spec, "--nmax", str(nmax)],
                         check)

    def _verify(self, argv):
        def check(rc, out):
            return "report_ok" if rc == 0 and json.loads(out)["ok"] else ""

        return self._job("verify", argv, check)

    def _vmap(self, rng, i):
        k = 5
        wspec = ("cardinality", "prototype",
                 f"random:{rng.randrange(1000)}")[i % 3]
        S = slat.free_nonempty(k)
        masks = [_random_submask(rng, (1 << k) - 1, k)
                 for _ in range(rng.randrange(2, 5))]
        E = mask_of(S.id_of_mask(m) for m in masks)
        z = S.id_of_mask(_random_submask(rng, _union(masks), k))
        oracles = self.oracles

        def check(rc, out):
            want = oracles.naive_v(S, _weight(S, wspec), E, z)
            got = json.loads(out)["value"]
            ok = rc == 0 and got["kind"] == "finite" and \
                checks.frac_of(got["c"]) == want
            return "naive_v" if ok else ""

        return self._job("vmap", ["vmap", f"pstar({k})", "--weight", wspec,
                                  "--E", _ids(E), "--z", str(z)], check)

    def _fbp(self, rng, i):
        wspec = ("cardinality", f"random:{rng.randrange(1000)}")[i % 2]
        S = slat.free_nonempty(5)
        X = mask_of(rng.sample(range(S.n), rng.randrange(1, 4)))
        C = Fraction(rng.randrange(1, 7), rng.choice((1, 2)))
        oracles = self.oracles

        def check(rc, out):
            lam = _weight(S, wspec)
            rep = json.loads(out)
            ok = (rc == 0
                  and mask_of(rep["step"]) == oracles.naive_fbp_step(S, lam, C, X)
                  and mask_of(rep["closure"]) == oracles.naive_closure(S, lam, C, X)
                  and rep["stable"] == oracles.naive_stable(S, lam, C, X))
            return "naive_closure" if ok else ""

        return self._job("fbp", ["fbp", "pstar(5)", "--weight", wspec,
                                 "--C", str(C), "--set", _ids(X)], check)

    def _defect(self, rng, i):
        return self._set_functional(rng, i, "defect", checks.defect_exponent)

    def _dist(self, rng, i):
        return self._set_functional(rng, i, "dist", checks.dist_exponent)

    def _set_functional(self, rng, i, command, exponent):
        """``defect`` or ``dist`` of a random set; both report ``exp(-m)``
        or an exact zero."""
        wspec = ("cardinality", "prototype")[i % 2]
        S = slat.free_nonempty(5)
        X = mask_of(rng.sample(range(S.n), rng.randrange(1, 7)))

        def check(rc, out):
            want = exponent(S, _weight(S, wspec), X)
            got = json.loads(out)[command]
            if want is None:
                ok = got["kind"] == "zero"
            else:
                ok = got["kind"] == "exp" and checks.frac_of(got["m"]) == want
            return "definition" if rc == 0 and ok else ""

        return self._job(command, [command, "pstar(5)", "--weight", wspec,
                                   "--set", _ids(X)], check)

    def _profile(self, rng, i):
        spec, br, wspec = (
            ("pstar(3)", 3, "cardinality"), ("pstar(4)", 4, "prototype"),
            ("pstar(4)", 4, "cardinality"),
            ("tree(2,2)", 2, f"random:{rng.randrange(1000)}"),
            ("tree(2,3)", 2, f"random:{rng.randrange(1000)}"))[i % 5]
        S = slat.generate_instance(spec)
        L = rng.choice(_weight(S, wspec).distinct_values()[:2])
        oracles = self.oracles

        def check(rc, out):
            if rc != 0:
                return ""
            return _profile_check(S, _weight(S, wspec), L,
                                  ProfileReport(json.loads(out)), oracles, br)

        return self._job("profile", ["profile", spec, "--weight", wspec,
                                     "--L", str(L)], check)

    def _breadth(self, rng, i):
        spec, want = (("pstar(5)", 5), ("powerset(5)", 5), ("tree(3,3)", 2),
                      ("tree(2,4)", 2), ("fin(6,3)", 4), ("fin(7,2)", 3))[i % 6]

        def check(rc, out):
            rep = json.loads(out)
            ok = rc == 0 and rep["breadth"] == want and rep["exhaustive"]
            return "closed_form" if ok else ""

        return self._job("breadth", ["breadth", spec], check)

    def _sweep(self, hi):
        def check(rc, out):
            rows = list(csv.DictReader(io.StringIO(out)))
            ok = rc == 0 and [int(r["param"]) for r in rows] == \
                list(range(2, hi + 1)) and all(
                    r["value"] == str(math.ceil(int(r["param"]) / 2))
                    and r["exhaustive"] == "True" for r in rows)
            return "closed_form" if ok else ""

        return self._job("sweep", ["sweep", "--family", "prototype", "--range",
                                   f"2:{hi}", "--op", "vmap"], check)


class ProfileReport:
    """The fields of a ``profile`` JSON report that the checks read, in the
    shape of ``slat.PropagationProfile``."""

    def __init__(self, rep):
        v = rep["value"]
        self.value = slat.PropagationValue(
            None if v["kind"] == "infinite" else checks.frac_of(v["c"]))
        self.exhaustive = rep["exhaustive"]
        self.witness_E = mask_of(rep["witness_E"])
        self.witness_z = rep["witness_z"]


WORKLOADS = {w.name: w for w in (Reach, Search, Cli)}
