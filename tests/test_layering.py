"""Storage is known only to ``core``: no other module of the package reads
a storage field or calls a rank-storage helper.  The benchmark's tracer
(``bench/``) is the one outside reader of private fields, and the last tests
pin what it reads on every host and weight kind."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from slat.adversarial import build_chain, eta_weight
from slat.core import (Semilattice, chain, fin_truncation, free_nonempty,
                       kary_tree, powerset, sch_embed)
from slat.weights import (LogWeight, builtin_logweight, logweight_from_json,
                          random_logweight)

SRC = Path(__file__).resolve().parent.parent / "src" / "slat"
STORAGE_ATTRS = {"_masks", "_trunc", "_mask", "_id", "table"}
STORAGE_NAMES = {"_trunc_rank", "_trunc_unrank", "_trunc_rank_np",
                 "_trunc_unrank_np", "_listed_lookups", "_sorted_ids",
                 "_cube"}


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
    """(weight, lazy) for every way a log-weight is made."""
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
    P = free_nonempty(6)
    yield eta_weight(build_chain(P, 2), P), True


@pytest.mark.parametrize("lam, lazy", list(_weights()),
                         ids=lambda v: getattr(v, "name", None))
def test_bench_reads_the_lazy_weight_cache(lam, lazy):
    # bench/tracing.py: a lookup is lazy when lam._cache is not None, and
    # misses when x is not in it
    assert (lam._cache is not None) == lazy
    lam[0]
    if lazy:
        assert isinstance(lam._cache, dict) and 0 in lam._cache
