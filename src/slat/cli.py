"""Command-line front end.

Instances are JSON files or generator specs such as ``chain(5)`` or
``fin(24,8)``.  Reports carry exact rational fields next to double
approximations; for a fixed seed the JSON output is byte-identical across
runs.  Exit codes: 0 success, 1 validation violations (a negative
log-weight among them), 2 usage errors, 3 budget exhaustion in strict mode.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction

from . import adversarial, core, metrics, propagation, weights
from ._bitset import bits, mask_of, popcount
from .breadth import breadth as run_breadth


class UsageError(Exception):
    pass


class NegativeWeight(Exception):
    """A log-weight value below zero: a violation, reported before any work."""


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _parse_ids(text, n):
    try:
        ids = sorted({int(t) for t in text.split(",") if t.strip() != ""})
    except ValueError as exc:
        raise UsageError(f"bad id list {text!r}") from exc
    for x in ids:
        if not 0 <= x < n:
            raise UsageError(f"element id {x} out of range (n={n})")
    return ids


def _load(args):
    """Instance from a generator spec or a JSON file; returns (S, raw_obj)."""
    ref = args.instance
    if core._SPEC_RE.match(ref):
        return core.generate_instance(ref), {}
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{ref}: malformed JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    return core.Semilattice.from_json(obj, close=args.close), obj


def _resolve_weight(S, args, obj):
    """Weight from --weight, else the instance file, else zero.

    --weight accepts a builtin name (zero, cardinality, prototype), a scale
    spec ``scaled:NUM/DEN``, ``random:SEED``, or a path to a descriptor
    JSON file.
    """
    spec = args.weight
    if spec is None:
        if "logweight" in obj:
            return weights.logweight_from_json(S, obj["logweight"])
        return weights.builtin_logweight(S, "zero")
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return weights.logweight_from_json(S, json.load(fh))
    if spec.startswith("scaled:"):
        return weights.builtin_logweight(
            S, "scaled", {"q": _parse_fraction(spec.split(":", 1)[1])})
    if spec.startswith("random:"):
        return weights.random_logweight(S, int(spec.split(":", 1)[1]))
    if spec in ("zero", "cardinality", "prototype"):
        return weights.builtin_logweight(S, spec)
    raise UsageError(f"unknown weight spec {spec!r}")


def _load_weighted(args):
    """Instance and log-weight for a command that uses the weight; a
    negative value stops the command with exit 1 (``verify`` reports it
    instead)."""
    S, obj = _load(args)
    lam = _resolve_weight(S, args, obj)
    if lam.name == "explicit":  # the only weights that can go below zero
        for x, v in enumerate(lam.values()):
            if v < 0:
                raise NegativeWeight(f"element {x} has negative log-weight {v}")
    return S, lam


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
        vs = lam.values()
        vals = {"min": _frac_json(min(vs)), "max": _frac_json(max(vs)),
                "distinct": len(set(vs))}
    report = {"n": S.n, "kind": S.kind,
              "breadth": br.to_json(),
              "filter_count": len(metrics.enumerate_filters(S))
              if S.n <= 100_000 else None,
              "logweight": {"name": lam.name, "summary": vals}}
    _emit(args, report)
    return 0


def cmd_defect(args):
    S, lam = _load_weighted(args)
    X = mask_of(_parse_ids(args.set, S.n))
    d = metrics.defect_set(S, lam, X)
    _emit(args, {"set": list(bits(X)), "defect": d.to_json()})
    return 0


def cmd_dist(args):
    S, lam = _load_weighted(args)
    X = mask_of(_parse_ids(args.set, S.n))
    d, witness = metrics.dist_set(S, lam, X)
    _emit(args, {"set": list(bits(X)), "dist": d.to_json(),
                 "witness": list(bits(witness))})
    return 0


def cmd_fbp(args):
    S, lam = _load_weighted(args)
    C = _parse_fraction(args.C)
    X = mask_of(_parse_ids(args.set, S.n))
    step = propagation.fbp(S, lam, C, X)
    closure, rounds = propagation.fbp_closure(S, lam, C, X)
    _emit(args, {"C": _frac_json(C), "set": list(bits(X)),
                 "step": list(bits(step)),
                 "closure": list(bits(closure)), "rounds": rounds,
                 "stable": propagation.is_fbp_stable(S, lam, C, X)})
    return 0


def cmd_vmap(args):
    S, lam = _load_weighted(args)
    E = mask_of(_parse_ids(args.E, S.n))
    z = int(args.z)
    if not 0 <= z < S.n:
        raise UsageError(f"element id {z} out of range")
    v = propagation.v_value(S, lam, E, z)
    _emit(args, {"E": list(bits(E)), "z": z, "value": v.to_json()})
    return 0


def cmd_profile(args):
    S, lam = _load_weighted(args)
    L = _parse_fraction(args.L)
    prof = propagation.propagation_profile(S, lam, L, budget=args.budget,
                                           strict=args.strict, seed=args.seed)
    _emit(args, prof.to_json())
    return 0


def cmd_breadth(args):
    S, _ = _load(args)
    rep = run_breadth(S, cap=args.cap)
    _emit(args, rep.to_json())
    return 0


def cmd_adversary(args):
    S, _ = _load(args)
    chain = adversarial.build_chain(S, args.nmax, strict=args.strict)
    eta = adversarial.eta_weight(chain, S)
    sub = adversarial.check_eta_subadditive(chain, S)
    levels = []
    for n in range(2, chain.depth + 1):
        res = adversarial.verify_barrier(chain, S, n, eta=eta)
        levels.append(res.to_json())
    report = {"chain": chain.to_json(),
              "eta_on_families": [[str(eta[x]) for x in F]
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
    lo, _, hi = args.range.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad sweep range {args.range!r}") from exc
    writer = csv.writer(sys.stdout)
    writer.writerow(SWEEP_COLUMNS)
    for p in range(lo, hi + 1):
        row = _sweep_row(args, p)
        writer.writerow(row)
    return 0


def _sweep_instance(family, p):
    if family == "prototype":
        S = core.free_nonempty(p)
        lam = weights.builtin_logweight(S, "prototype")
        return S, lam
    spec = family.replace("{}", str(p)) if "{}" in family else f"{family}({p})"
    S = core.generate_instance(spec)
    if S.kind == "set_system":
        lam = weights.builtin_logweight(S, "cardinality")
    else:
        lam = weights.builtin_logweight(S, "zero")
    return S, lam


def _sweep_row(args, p):
    t0 = time.monotonic()
    note = ""
    value = approx = bound = within = exhaustive = ""
    try:
        S, lam = _sweep_instance(args.family, p)
        if args.op == "vmap":
            # reachability of the full join from the singleton generators
            singles = [x for x in range(S.n)
                       if S.kind == "set_system"
                       and popcount(S.member_mask(x)) == 1]
            if not singles:
                raise UsageError("vmap sweep needs a set system with singletons")
            top = S.product_ids(list(range(S.n)))
            v = propagation.v_value(S, lam, mask_of(singles), top)
            value = "inf" if v.is_infinite else str(v.c)
            approx = "" if v.is_infinite else float(v.c)
            exhaustive = True
        elif args.op == "breadth":
            rep = run_breadth(S, cap=args.cap)
            value, exhaustive = rep.breadth, rep.exhaustive
        elif args.op == "profile":
            L = _parse_fraction(args.L)
            prof = propagation.propagation_profile(
                S, lam, L, budget=args.budget, strict=args.strict,
                seed=args.seed)
            v = prof.value
            value = "inf" if v.is_infinite else str(v.c)
            approx = "" if v.is_infinite else float(v.c)
            bound = str(L * L)
            within = (not v.is_infinite) and v.c <= L * L
            exhaustive = prof.exhaustive
        else:
            raise UsageError(f"unknown sweep op {args.op!r}")
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
        ns = argparse.Namespace(instance=ref, close=args.close, weight=args.weight)
        S, obj = _load(ns)
        lam = _resolve_weight(S, ns, obj)
        entry = {"instance": ref, "n": S.n}
        v = S.validate(seed=args.seed)
        entry["instance_valid"] = v.to_json()
        w = weights.validate_logweight(S, lam, seed=args.seed)
        entry["logweight_valid"] = w.to_json()
        good = v.ok and w.ok
        if S.n <= 64:
            filt_ok = all(metrics.is_filter(S, F)
                          for F in metrics.enumerate_filters(S))
            zero_ok = all(
                metrics.defect_set(S, lam, F).is_zero
                for F in metrics.enumerate_filters(S))
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

def _build_parser():
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
    }

    def add(name, fn, flags, instance="required", **extra):
        p = sub.add_parser(name)
        if instance == "required":
            p.add_argument("instance",
                           help="JSON instance path or generator spec like chain(5)")
        elif instance == "optional":
            p.add_argument("instance", nargs="?", default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        for flag in flags.split():
            p.add_argument("--" + flag, **shared[flag])
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze, "weight close cap")
    add("defect", cmd_defect, "weight close", **{"--set": dict(required=True)})
    add("dist", cmd_dist, "weight close", **{"--set": dict(required=True)})
    add("fbp", cmd_fbp, "weight close", **{"--C": dict(required=True),
                                           "--set": dict(required=True)})
    add("vmap", cmd_vmap, "weight close", **{"--E": dict(required=True),
                                             "--z": dict(required=True)})
    add("profile", cmd_profile, "weight seed close strict budget",
        **{"--L": dict(required=True)})
    add("breadth", cmd_breadth, "close cap")
    add("adversary", cmd_adversary, "close strict",
        **{"--nmax": dict(type=int, required=True)})
    add("sweep", cmd_sweep, "seed strict budget cap", instance=None,
        **{"--family": dict(required=True),
           "--range": dict(required=True, help="inclusive LO:HI"),
           "--op": dict(default="vmap", choices=("vmap", "breadth", "profile")),
           "--L": dict(default="1")})
    add("verify", cmd_verify, "weight seed close", instance="optional")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NegativeWeight as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, weights.KindMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except adversarial.InsufficientBreadth as exc:
        # a finding about the instance, not a failure
        print(json.dumps({"insufficient_breadth": str(exc)}, sort_keys=True))
        return 0
    except propagation.BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
