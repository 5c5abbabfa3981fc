"""Command-line front end.

Instances are JSON files or generator specs such as ``chain(5)`` or
``fin(24,8)``.  Reports carry exact rational fields next to double
approximations; for a fixed seed the JSON output is byte-identical across
runs.  Exit codes: 0 success, 1 validation violations (a negative
log-weight among them), 2 usage errors (malformed outside input), 3 budget
exhaustion in strict mode; a traceback is an internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

import numpy as np

from . import adversarial, core, metrics, propagation, weights
from ._bitset import bits, mask_of, popcounts
from .breadth import breadth as run_breadth


class UsageError(Exception):
    """Malformed outside input: exit 2 with one ``error:`` line."""


class NegativeWeight(Exception):
    """A log-weight value below zero: a violation, reported before any work."""


# -- the input boundary ------------------------------------------------------
#
# Every outside value is parsed here before any algorithm runs, and a
# malformed one raises UsageError; an error raised later is an internal one.

@contextmanager
def _parsing(source):
    """Turn an error met while reading or parsing ``source`` into a
    UsageError that names it; Unicode decode errors are ValueErrors."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise UsageError(f"{source}: malformed JSON at line {exc.lineno} "
                         f"column {exc.colno}") from exc
    except OSError as exc:
        raise UsageError(f"{source}: {exc.strerror}") from exc
    except (ValueError, ZeroDivisionError, RecursionError,
            weights.KindMismatch) as exc:
        raise UsageError(f"{source}: {exc}") from exc


def _host(ref, close=False, check=True):
    """The host named by ``ref`` (a generator spec or a JSON instance file)
    and the file's JSON object, {} for a spec.  The algorithms assume a
    semilattice, so with ``check`` a table or collapsed-top family read from
    a file must pass ``validate``; other hosts are one by construction."""
    with _parsing(ref):
        if core._SPEC_RE.match(ref):
            S, obj = core.generate_instance(ref), {}
        else:
            with open(ref, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            S = core.Semilattice.from_json(obj, close=close)
    if S.n == 0:
        raise UsageError(f"{ref}: an instance needs at least one element")
    if check and obj and (S.kind == "table" or S.top_id is not None):
        bad = S.validate().violations
        if bad:
            raise UsageError(f"{ref}: not a semilattice: {bad[0].kind} at "
                             f"{list(bad[0].witness)}")
    return S, obj


def _weight(S, spec, obj):
    """The log-weight named by ``spec``: a builtin name (zero, cardinality,
    prototype), ``scaled:NUM/DEN``, ``random:SEED`` or a descriptor JSON
    file, tried in that order; with no spec, the instance file's
    ``logweight``, else zero."""
    with _parsing("the instance's logweight" if spec is None
                  else f"--weight {spec}"):
        if spec is None:
            return weights.logweight_from_json(
                S, obj.get("logweight", {"kind": "zero"}))
        if spec in ("zero", "cardinality", "prototype"):
            return weights.builtin_logweight(S, spec)
        if spec.startswith("scaled:"):
            return weights.builtin_logweight(
                S, "scaled", {"q": Fraction(spec.split(":", 1)[1])})
        if spec.startswith("random:"):
            return weights.random_logweight(S, int(spec.split(":", 1)[1]))
        with open(spec, "r", encoding="utf-8") as fh:
            return weights.logweight_from_json(S, json.load(fh))


def _load_weighted(args):
    """Instance and log-weight for a command that uses the weight; a
    negative value stops the command with exit 1 (``verify`` reports it
    instead)."""
    S, obj = _host(args.instance, args.close)
    lam = _weight(S, args.weight, obj)
    # explicit weights are the only ones that can go below zero
    if lam.name == "explicit" and lam.distinct_values()[0] < 0:
        x, v = next((x, v) for x, v in enumerate(lam.values()) if v < 0)
        raise NegativeWeight(f"element {x} has negative log-weight {v}")
    return S, lam


def _fraction(text):
    with _parsing(f"bad rational {text!r}"):
        return Fraction(text)


def _ids(text, n):
    """Distinct element ids in ``0..n-1`` from a comma list, sorted."""
    with _parsing(f"bad id list {text!r}"):
        ids = sorted({int(t) for t in text.split(",") if t.strip() != ""})
    for x in ids:
        if not 0 <= x < n:
            raise UsageError(f"element id {x} out of range (n={n})")
    return ids


def _frac_json(q):
    return {"num": q.numerator, "den": q.denominator, "approx": float(q)}


def _emit(args, report):
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    for key in sorted(report):
        sys.stdout.write(f"{key}: {report[key]}\n")


# -- subcommands -------------------------------------------------------------

def cmd_analyze(args):
    S, lam = _load_weighted(args)
    br = run_breadth(S, cap=args.cap)
    vals = None
    if S.n <= 100_000:
        vs = lam.distinct_values()
        vals = {"min": _frac_json(vs[0]), "max": _frac_json(vs[-1]),
                "distinct": len(vs)}
    # every host _host accepts is commutative and idempotent, so g -> {z >= g}
    # is one-to-one and there are as many principal filters as elements
    report = {"n": S.n, "kind": S.kind,
              "breadth": br.to_json(),
              "filter_count": S.n if S.n <= 100_000 else None,
              "logweight": {"name": lam.name, "summary": vals}}
    _emit(args, report)
    return 0


def cmd_defect(args):
    S, lam = _load_weighted(args)
    X = mask_of(_ids(args.set, S.n))
    d = metrics.defect_set(S, lam, X)
    _emit(args, {"set": list(bits(X)), "defect": d.to_json()})
    return 0


def cmd_dist(args):
    S, lam = _load_weighted(args)
    X = mask_of(_ids(args.set, S.n))
    d, witness = metrics.dist_set(S, lam, X)
    _emit(args, {"set": list(bits(X)), "dist": d.to_json(),
                 "witness": list(bits(witness))})
    return 0


def cmd_fbp(args):
    S, lam = _load_weighted(args)
    C = _fraction(args.C)
    X = mask_of(_ids(args.set, S.n))
    step = propagation.fbp(S, lam, C, X)
    closure, rounds = propagation.fbp_closure(S, lam, C, X)
    _emit(args, {"C": _frac_json(C), "set": list(bits(X)),
                 "step": list(bits(step)),
                 "closure": list(bits(closure)), "rounds": rounds,
                 "stable": step & ~X == 0})
    return 0


def cmd_vmap(args):
    S, lam = _load_weighted(args)
    E = mask_of(_ids(args.E, S.n))
    z = _ids(args.z, S.n)
    if len(z) != 1:
        raise UsageError(f"--z {args.z!r} is not one element id")
    z = z[0]
    v = propagation.v_value(S, lam, E, z)
    _emit(args, {"E": list(bits(E)), "z": z, "value": v.to_json()})
    return 0


def cmd_profile(args):
    S, lam = _load_weighted(args)
    L = _fraction(args.L)
    prof = propagation.propagation_profile(S, lam, L, budget=args.budget,
                                           strict=args.strict, seed=args.seed)
    _emit(args, prof.to_json())
    return 0


def cmd_breadth(args):
    S, _ = _host(args.instance, args.close)
    rep = run_breadth(S, cap=args.cap)
    _emit(args, rep.to_json())
    return 0


def cmd_adversary(args):
    S, _ = _host(args.instance, args.close)
    if S.kind != "set_system":
        raise UsageError(f"{args.instance}: adversary needs a set system")
    chain = adversarial.build_chain(S, args.nmax, strict=args.strict)
    eta = adversarial.eta_weight(chain, S)
    sub = adversarial.check_eta_subadditive(chain)
    levels = []
    for n in range(2, chain.depth + 1):
        res = adversarial.verify_barrier(chain, S, n, eta=eta)
        levels.append(res.to_json())
    report = {"chain": chain.to_json(),
              "eta_on_families": [list(map(str, eta.values(F)))
                                  for F in chain.families],
              "subadditive": sub.to_json(),
              "barriers": levels,
              "all_passed": all(l["passed"] for l in levels) and sub.ok}
    _emit(args, report)
    return 0 if report["all_passed"] else 1


SWEEP_COLUMNS = ["family", "param", "n_elements", "op", "value", "approx",
                 "bound", "within_bound", "exhaustive", "seconds", "note"]


def cmd_sweep(args):
    """One CSV row per family member; see docs/formats.md for columns."""
    with _parsing(f"bad sweep range {args.range!r}"):
        lo, hi = map(int, args.range.split(":"))
    L = _fraction(args.L) if args.op == "profile" else None
    rows = [_sweep_row(args, p, L) for p in range(lo, hi + 1)]
    writer = csv.writer(sys.stdout)  # nothing is written before the last row
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows(rows)
    return 0


def _sweep_instance(family, p):
    """Host and weight of one row: ``prototype`` is pstar(p) under the
    prototype weight; another family is a generator spec with p in place of
    ``{}`` (or as its one argument), under cardinality on a set system and
    zero on a table."""
    if family == "prototype":
        S, _ = _host(f"pstar({p})")
        return S, weights.builtin_logweight(S, "prototype")
    S, _ = _host(family.replace("{}", str(p)) if "{}" in family
                 else f"{family}({p})")
    return S, weights.builtin_logweight(
        S, "cardinality" if S.kind == "set_system" else "zero")


def _sweep_row(args, p, L):
    t0 = time.monotonic()
    note = ""
    value = approx = bound = within = exhaustive = ""
    try:
        S, lam = _sweep_instance(args.family, p)
        if args.op == "vmap":
            # reachability of the full join from the singleton generators
            masks = S.member_masks_np() if S.kind == "set_system" \
                else np.zeros(0, dtype=np.int64)
            singles = np.flatnonzero(popcounts(masks) == 1).tolist()
            if not singles:
                raise UsageError("vmap sweep needs a set system with singletons")
            # the join of every element: the id of the union of every mask,
            # the collapsed top when that union is no member
            top = int(S.join_ids(np.bitwise_or.reduce(masks, keepdims=True),
                                 0)[0])
            v = propagation.v_value(S, lam, mask_of(singles), top)
            exhaustive = True
        elif args.op == "breadth":
            rep = run_breadth(S, cap=args.cap)
            value, exhaustive = rep.breadth, rep.exhaustive
        else:
            prof = propagation.propagation_profile(
                S, lam, L, budget=args.budget, strict=args.strict,
                seed=args.seed)
            v, exhaustive = prof.value, prof.exhaustive
            bound, within = str(L * L), v.c <= L * L
        if args.op != "breadth":
            value, approx = ("inf", "") if v.is_infinite else (
                str(v.c), float(v.c))
        n_elements = S.n
    except propagation.BudgetExceeded as exc:
        note, n_elements = f"budget: {exc}", ""
    return [args.family, p, n_elements, args.op, value, approx, bound,
            within, exhaustive, f"{time.monotonic() - t0:.3f}", note]


def _verify_battery():
    return ["chain(5)", "powerset(3)", "pstar(3)", "tree(2,2)", "fin(5,2)"]


def cmd_verify(args):
    """Run every invariant suite applicable to the instance (or, with no
    instance, a built-in battery of small generated ones)."""
    refs = [args.instance] if args.instance else _verify_battery()
    suites = []
    ok = True
    for ref in refs:
        S, obj = _host(ref, args.close, check=False)
        lam = _weight(S, args.weight, obj)
        entry = {"instance": ref, "n": S.n}
        v = S.validate(seed=args.seed)
        entry["instance_valid"] = v.to_json()
        w = weights.validate_logweight(S, lam, seed=args.seed)
        entry["logweight_valid"] = w.to_json()
        good = v.ok and w.ok
        if S.n <= 64:    # every principal up-set {z : xz = x} at once
            T = S.product_table_np()
            zero_ok = core.meet_identity_holds(T)
            # a filter is also nonempty, which fails only off idempotence
            filt_ok = bool(zero_ok and (T.T == np.arange(S.n)).any(0).all())
            rt = core.Semilattice.from_json(S.to_json())
            roundtrip_ok = rt.to_json() == S.to_json()
            entry["filters_are_filters"] = filt_ok
            entry["filters_have_zero_defect"] = zero_ok
            entry["json_roundtrip"] = roundtrip_ok
            good = good and filt_ok and zero_ok and roundtrip_ok
        entry["ok"] = good
        ok = ok and good
        suites.append(entry)
    _emit(args, {"seed": args.seed, "suites": suites, "ok": ok})
    return 0 if ok else 1


# -- dispatch ----------------------------------------------------------------

@cache
def _build_parser():
    """The argument parser, built on the first ``main`` call and reused by
    later calls in the process.  It holds no handler: ``main`` looks up
    ``cmd_<command>`` when it runs one."""
    top = argparse.ArgumentParser(prog="slat",
                                  description="finite weighted semilattice toolkit")
    sub = top.add_subparsers(dest="command", required=True)
    shared = {  # each subcommand takes the ones its handler reads
        "weight": dict(help="zero|cardinality|prototype|scaled:Q|random:SEED|path"),
        "seed": dict(type=int, default=0),
        "close": dict(action="store_true", help="complete a set system under unions"),
        "strict": dict(action="store_true"),
        "budget": dict(type=int, default=500_000),
        "cap": dict(type=int, default=10_000_000),
        "format": dict(choices=("json", "text"), default="json"),
    }

    def add(name, flags, instance="required", **extra):
        p = sub.add_parser(name)
        if instance == "required":
            p.add_argument("instance",
                           help="JSON instance path or generator spec like chain(5)")
        elif instance == "optional":
            p.add_argument("instance", nargs="?", default=None)
        for flag in flags.split():
            p.add_argument("--" + flag, **shared[flag])
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)

    add("analyze", "format weight close cap")
    add("defect", "format weight close",
        **{"--set": dict(required=True)})
    add("dist", "format weight close",
        **{"--set": dict(required=True)})
    add("fbp", "format weight close",
        **{"--C": dict(required=True), "--set": dict(required=True)})
    add("vmap", "format weight close",
        **{"--E": dict(required=True), "--z": dict(required=True)})
    add("profile", "format weight seed close strict budget",
        **{"--L": dict(required=True)})
    add("breadth", "format close cap")
    add("adversary", "format close strict",
        **{"--nmax": dict(type=int, required=True)})
    add("sweep", "seed strict budget cap", instance=None,
        **{"--family": dict(required=True),
           "--range": dict(required=True, help="inclusive LO:HI"),
           "--op": dict(default="vmap", choices=("vmap", "breadth", "profile")),
           "--L": dict(default="1")})
    add("verify", "format weight seed close", instance="optional")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # integer flags below their least value, before any work
        for flag, least in (("nmax", 1), ("cap", 0), ("budget", 0)):
            if getattr(args, flag, least) < least:
                raise UsageError(f"--{flag} {getattr(args, flag)} is below "
                                 f"{least}")
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NegativeWeight as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except adversarial.InsufficientBreadth as exc:
        # a finding about the instance, not a failure
        print(json.dumps({"insufficient_breadth": str(exc)}, sort_keys=True))
        return 0
    except propagation.BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except core.NotClosedError as exc:     # past a sampled validate
        print(f"error: {args.instance}: not a semilattice: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
