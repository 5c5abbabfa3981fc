"""Storage is known only to ``core``: no other module of the package reads
a storage field or calls a rank-storage helper, and no module indexes a
log-weight one element at a time.  The benchmark's tracer (``bench/``) is
the one outside reader of private fields, and the last tests pin what it
reads on every host and weight kind."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slat import core
from slat.adversarial import build_chain, eta_weight, verify_barrier
from slat.core import (Semilattice, chain, fin_truncation, free_nonempty,
                       kary_tree, powerset, sch_embed)
from slat.weights import (LogWeight, builtin_logweight, logweight_from_json,
                          random_logweight)

SRC = Path(__file__).resolve().parent.parent / "src" / "slat"
STORAGE_ATTRS = {"_masks", "_trunc", "_mask", "_id", "table"}
STORAGE_NAMES = {"_trunc_rank", "_trunc_unrank", "_trunc_rank_np",
                 "_trunc_unrank_np", "_listed_lookups", "_sorted_ids",
                 "_dense_ids", "_cube"}


def _storage_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRS:
            yield node.lineno, "." + node.attr
        elif isinstance(node, ast.Name) and node.id in STORAGE_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in STORAGE_NAMES:
            yield node.lineno, node.name


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "core.py"))
def test_only_core_reads_storage(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    assert list(_storage_uses(tree)) == []


def test_no_module_indexes_a_weight_by_element():
    # library code reads lam.num once for the ids it needs
    found = [(path.name, node.lineno) for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Name)
             and node.value.id in ("lam", "eta")]
    assert found == []


def test_barrier_reads_the_eta_weight_in_bulk(monkeypatch):
    S = fin_truncation(20, 15)
    c = build_chain(S, 5)
    eta = eta_weight(c, S)
    calls = []
    scalar = core.Semilattice.member_mask
    monkeypatch.setattr(core.Semilattice, "member_mask",
                        lambda S, x: calls.append(x) or scalar(S, x))
    res = verify_barrier(c, S, 5, eta=eta)
    assert res.passed and res.value.c == 3
    assert len(calls) <= 3, calls      # not one per member of the closure


# -- the private fields bench/run.py and bench/tracing.py read ---------------

# (host, backend as bench/run.py names it)
HOSTS = {
    "chain(5)": (chain(5), "table"),
    "tree(2,2)": (kary_tree(2, 2), "table"),
    "powerset(4)": (powerset(4), "masks"),
    "fin(6,2)": (fin_truncation(6, 2), "masks"),
    "fin(6,2) file": (Semilattice.from_json(fin_truncation(6, 2).to_json()),
                      "masks"),
    "closed family": (Semilattice.from_sets("abc", [[0], [1], [2]],
                                            close=True), "masks"),
    "sch_embed(chain(4))": (sch_embed(chain(4)).semilattice, "masks"),
    "pstar(19)": (free_nonempty(19), "implicit"),
    "fin(24,8)": (fin_truncation(24, 8), "implicit"),
}


@pytest.mark.parametrize("name", list(HOSTS))
def test_bench_reads_the_backend_and_the_factor_cache(name):
    S, backend = HOSTS[name]
    # bench/run.py: table, else "masks" when S._masks is not None
    got = "table" if S.kind == "table" else \
        "masks" if S._masks is not None else "implicit"
    assert got == backend
    # bench/tracing.py: a factors_mask call hits when p is in the cache
    p = 1
    assert isinstance(S._factors_cache, dict)
    S.factors_mask(p)
    assert p in S._factors_cache


def _weights():
    """(weight, on a host of more than 100 000 elements) for every way a
    log-weight is made."""
    S, T = free_nonempty(4), kary_tree(2, 2)
    yield builtin_logweight(T, "zero"), False
    yield builtin_logweight(S, "cardinality"), False
    yield builtin_logweight(S, "scaled", {"q": Fraction(1, 2)}), False
    yield builtin_logweight(S, "prototype"), False
    yield random_logweight(T, 3), False
    yield LogWeight.from_values([1, 2, Fraction(1, 3)]), False
    yield logweight_from_json(T, {"kind": "explicit", "values": [
        {"num": 1, "den": 1}] * T.n}), False
    yield builtin_logweight(fin_truncation(24, 8), "cardinality"), True
    yield builtin_logweight(free_nonempty(17), "scaled", {"q": 2}), True
    P = free_nonempty(17)
    yield eta_weight(build_chain(P, 2), P), True


@pytest.mark.parametrize("lam, large", list(_weights()),
                         ids=lambda v: getattr(v, "name", None))
def test_bench_reads_the_lazy_weight_cache(lam, large):
    # bench/tracing.py counts a lookup as lazy when lam._cache is not None:
    # no weight is, whatever the size of its host
    assert (lam.n > 100_000) == large
    assert lam._cache is None
    assert lam[0] == Fraction(int(lam.num(np.array([0]))[0]), lam.den)
    assert lam._cache is None
