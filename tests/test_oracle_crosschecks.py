"""Each exact pass against the loop it replaced (kept in ``oracles.py``), on
random small hosts of every kind: product tables, Boolean cubes,
collapsed-top instance files (truncations and a family that is not one)
and ``sch_embed`` images, under random or explicit log-weights."""

import importlib
import operator
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (naive_check_equivalence_iii, naive_closure_error,
                     naive_defect_set, naive_dist_complex, naive_dist_set,
                     naive_is_filter, naive_join_closure, naive_pair_unions,
                     naive_sch_embed, naive_search_order,
                     naive_semilattice_violations)
from slat import core, propagation
from slat._bitset import bits, mask_of
from slat.core import (NotClosedError, Semilattice, SizeOverflowError,
                       _canonical_members, _join_closure, chain,
                       fin_truncation, free_nonempty, kary_tree, powerset,
                       sch_embed)
from slat.metrics import (defect_set, dist_complex, dist_set,
                          enumerate_filters, is_filter)
from slat.propagation import _pair_unions, check_equivalence_iii
from slat.weights import LogWeight, builtin_logweight, random_logweight
from test_cli import _main
from test_weights import FLAT_70, without_member

breadth_module = importlib.import_module("slat.breadth")


def _file(S):
    """``S`` read back from its instance file object."""
    return Semilattice.from_json(S.to_json())


HOSTS = {
    "chain(4)": chain(4),
    "tree(2,2)": kary_tree(2, 2),
    "tree(3,1)": kary_tree(3, 1),
    "powerset(3)": powerset(3),
    "pstar(3)": free_nonempty(3),
    "pstar(4)": free_nonempty(4),
    "fin(4,1) file": _file(fin_truncation(4, 1)),
    "fin(4,2) file": _file(fin_truncation(4, 2)),
    "fin(4,2) less {0,1}": without_member(fin_truncation(4, 2), [0, 1]),
    "sch_embed(tree(2,2))": sch_embed(kary_tree(2, 2)).semilattice,
    "sch_embed(chain(5))": sch_embed(chain(5)).semilattice,
}
#: hosts small enough for the 2^n naive stability scan
SMALL = [name for name, S in HOSTS.items() if S.n <= 8]


def test_the_catalog_covers_every_host_kind():
    assert {S.kind for S in HOSTS.values()} == {"table", "set_system"}
    assert HOSTS["fin(4,1) file"].truncation_bound() == 1
    other = HOSTS["fin(4,2) less {0,1}"]
    assert other.truncation_bound() is None and other.top_id is not None
    assert all(S.validate().ok for S in HOSTS.values())
    assert len(SMALL) >= 6


@st.composite
def weighted(draw, names=tuple(HOSTS)):
    """A host, and a random or an explicit log-weight on it (explicit
    values need not be subadditive: every functional here is defined for
    any nonnegative weight)."""
    S = HOSTS[draw(st.sampled_from(names))]
    if draw(st.booleans()):
        return S, random_logweight(S, draw(st.integers(0, 1000)))
    vals = draw(st.lists(st.fractions(0, 6, max_denominator=3),
                         min_size=S.n, max_size=S.n))
    return S, LogWeight.from_values(vals)


def _subset(draw, S):
    """An id-mask: a filter, the empty set or any subset."""
    how = draw(st.sampled_from(["filter", "empty", "any"]))
    if how == "filter":
        return draw(st.sampled_from(enumerate_filters(S)))
    return 0 if how == "empty" else draw(st.integers(0, (1 << S.n) - 1))


#: the catalog, and a collapsed top whose member masks pass 2**63
SCAN_HOSTS = {**HOSTS, "FLAT_70": Semilattice.from_json(FLAT_70)}


@st.composite
def scanned(draw):
    """A host of ``SCAN_HOSTS`` with a random or an explicit log-weight,
    the explicit one narrow (int64 numerators) or wide (numerators from
    2**62 up, an object array)."""
    S = SCAN_HOSTS[draw(st.sampled_from(tuple(SCAN_HOSTS)))]
    how = draw(st.sampled_from(["random", "narrow", "wide"]))
    if how == "random":
        return S, random_logweight(S, draw(st.integers(0, 1000)))
    vals = draw(st.lists(st.fractions(0, 6, max_denominator=3),
                         min_size=S.n, max_size=S.n))
    lam = LogWeight.from_values([v + (2**62 if how == "wide" else 0)
                                 for v in vals])
    assert (lam.num(np.arange(S.n)).dtype == object) == (how == "wide")
    return S, lam


@settings(max_examples=150, deadline=None)
@given(scanned(), st.data(), st.sampled_from([1, core.NP_BLOCK_ELEMS]))
def test_filter_defect_and_distance_match_the_pair_loops(host, data,
                                                         block_elems):
    """``is_filter``, ``defect_set``, ``dist_set`` and the search order read
    the host's product rows a block at a time, one row a block at
    ``NP_BLOCK_ELEMS`` = 1."""
    S, lam = host
    X = _subset(data.draw, S)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NP_BLOCK_ELEMS", block_elems)
        assert is_filter(S, X) == naive_is_filter(S, X)
        assert defect_set(S, lam, X).m == naive_defect_set(S, lam, X)
        d, witness = dist_set(S, lam, X)
        assert (d.m, witness) == naive_dist_set(S, lam, X)
        assert breadth_module._distinctness_order(S) \
            == breadth_module._distinctness_order(S, T=S.product_table_np()) \
            == naive_search_order(S)


def test_the_scans_hold_no_dense_table_above_the_cap(monkeypatch):
    monkeypatch.setattr(core, "TABLE_HARD_CAP", 8)
    S = free_nonempty(4)                    # 15 elements
    with pytest.raises(SizeOverflowError):
        S.product_table_np()
    lam = builtin_logweight(S, "cardinality")
    for X in [0, 1, 0b1000100001, *enumerate_filters(S)[:4], (1 << 15) - 1]:
        assert is_filter(S, X) == naive_is_filter(S, X)
        assert defect_set(S, lam, X).m == naive_defect_set(S, lam, X)
        d, witness = dist_set(S, lam, X)
        assert (d.m, witness) == naive_dist_set(S, lam, X)
    assert breadth_module._distinctness_order(S) == naive_search_order(S)
    argv = ["pstar(4)", "--weight", "cardinality", "--set", "0,5,9",
            "--format", "text"]
    exp2 = "{'kind': 'exp', 'm': {'num': 2, 'den': 1}, " \
        "'approx': 0.1353352832366127}"
    assert _main(["defect", *argv]) == (
        0, f"defect: {exp2}\nset: [0, 5, 9]\n", "")
    assert _main(["dist", *argv]) == (
        0, f"dist: {exp2}\nset: [0, 5, 9]\nwitness: [0]\n", "")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), max_size=4, unique=True),
                max_size=9, unique_by=lambda s: frozenset(s)),
       st.sampled_from([1, core.NP_BLOCK_ELEMS]))
def test_closure_check_names_the_first_pair_of_the_pair_loop(sets,
                                                             block_elems):
    masks, _ = _canonical_members(6, sets, None)
    want = naive_closure_error(masks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NP_BLOCK_ELEMS", block_elems)
        try:
            Semilattice.from_sets(range(6), sets)
            got = None
        except NotClosedError as exc:
            got = str(exc)
    assert got == want


#: block sizes of the triangle walk's tests: at 5 a block is one row on
#: all but the smallest hosts, ``5 * n`` makes blocks of five rows, each
#: with a lower corner to clear, and at 1 << 18 the scan is one block
WALK_BLOCKS = st.sampled_from(["5", "five rows", "1 << 18"])


def _walk_block(how, n):
    return {"5": 5, "five rows": 5 * n, "1 << 18": 1 << 18}[how]


@settings(max_examples=150, deadline=None)
@given(scanned(), st.data(), WALK_BLOCKS)
def test_the_triangle_walk_finds_the_broken_pairs_of_the_pair_loop(
        host, data, how):
    S, lam = host
    X = _subset(data.draw, S)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NP_BLOCK_ELEMS", _walk_block(how, S.n))
        assert is_filter(S, X) == naive_is_filter(S, X)
        assert defect_set(S, lam, X).m == naive_defect_set(S, lam, X)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), max_size=4, unique=True),
                max_size=16, unique_by=lambda s: frozenset(s)),
       WALK_BLOCKS)
def test_the_triangle_walk_names_the_first_missing_union(sets, how):
    masks, _ = _canonical_members(7, sets, None)
    want = naive_closure_error(masks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NP_BLOCK_ELEMS", _walk_block(how, len(sets)))
        try:
            Semilattice.from_sets(range(7), sets)
            got = None
        except NotClosedError as exc:
            got = str(exc)
    assert got == want


@st.composite
def tampered(draw, most):
    """The min-table on 1 to ``most`` elements with up to twice as many
    random cells overwritten."""
    n = draw(st.integers(1, most))
    table = [[min(x, y) for y in range(n)] for x in range(n)]
    cell = st.tuples(*[st.integers(0, n - 1)] * 3)
    for x, y, v in draw(st.lists(cell, max_size=2 * n), label="tamper"):
        table[x][y] = v
    return Semilattice.from_table(table)


@settings(max_examples=100, deadline=None)
@given(tampered(16), WALK_BLOCKS)
def test_the_triangle_walk_lists_the_noncommuting_pairs_in_order(S, how):
    want = [w for kind, w in naive_semilattice_violations(S)[0]
            if kind == "NotCommutative"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NP_BLOCK_ELEMS", _walk_block(how, S.n))
        got = [v.witness for v in S.validate().violations
               if v.kind == "NotCommutative"]
    assert got == want


def _embed_outcome(S):
    """The member masks of ``sch_embed(S)``'s images, or the error it
    raises as ``(type, message)``."""
    try:
        res = sch_embed(S)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    return [res.semilattice.member_mask(f) for f in res.mapping]


def _naive_embed_outcome(S):
    """``_embed_outcome`` by the pair loops: a repeated image is a duplicate
    member set, then a family that is not union-closed fails, then a map
    that is not a homomorphism."""
    comp, homomorphic = naive_sch_embed(S)
    if len(set(comp)) < len(comp):
        return "ValueError", "duplicate element set"
    missing = naive_closure_error(sorted(
        comp, key=lambda m: (m.bit_count(), tuple(bits(m)))))
    if missing:
        return "NotClosedError", missing
    if not homomorphic:
        return "AssertionError", "embedding failed to be a homomorphism"
    return comp


EMBEDDED = [chain(9), chain(70), kary_tree(2, 3), kary_tree(3, 2),
            free_nonempty(4), _file(fin_truncation(5, 2))]


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(EMBEDDED), tampered(12)), WALK_BLOCKS)
def test_the_triangle_walk_checks_the_embedding_as_the_pair_loop(S, how):
    want = _naive_embed_outcome(S)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NP_BLOCK_ELEMS", _walk_block(how, S.n))
        assert _embed_outcome(S) == want


@settings(max_examples=100, deadline=None)
@given(weighted(), st.data(),
       st.sampled_from([0.0, 1e-13, 1e-3, 0.4, 2.0]), st.integers(0, 99))
def test_complex_distance_matches_the_candidate_loop(host, data, eps, seed):
    S, lam = host
    X = _subset(data.draw, S)
    rng = np.random.default_rng(seed)
    psi = np.array([X >> x & 1 for x in range(S.n)], dtype=np.float64) \
        + eps * (rng.normal(size=S.n) + 1j * rng.normal(size=S.n))
    assert dist_complex(S, lam, psi) == naive_dist_complex(S, lam, psi)


@settings(max_examples=40, deadline=None)
@given(weighted(tuple(SMALL)), st.data())
def test_equivalence_check_matches_the_subset_loop(host, data):
    S, lam = host
    levels = sorted({lam[x] for x in range(S.n)} | {Fraction(-1)})
    L = data.draw(st.sampled_from(levels))
    C = data.draw(st.sampled_from(levels))
    rep = check_equivalence_iii(S, lam, L, C)
    assert (rep.checked, rep.stable_count, rep.violations, rep.exhaustive) \
        == naive_check_equivalence_iii(S, lam, L, C)


def test_sampled_equivalence_check_matches_the_closure_loop():
    # pstar(5) has 31 elements, so 4000 seeded closures stand in for 2^31
    S = free_nonempty(5)
    lam = builtin_logweight(S, "cardinality")
    rep = check_equivalence_iii(S, lam, 2, 1)
    want = naive_check_equivalence_iii(S, lam, 2, 1)
    assert want[:2] == (4000, 4000) and want[2] and not want[3]
    assert (rep.checked, rep.stable_count, rep.violations, rep.exhaustive) \
        == want
    assert check_equivalence_iii(S, lam, 2, 1) == rep


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, (1 << 9) - 1), max_size=7))
def test_union_closure_matches_the_frontier_loop(masks):
    assert _join_closure(masks, operator.or_) \
        == naive_join_closure(masks, operator.or_)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(HOSTS)), st.data())
def test_product_closure_matches_the_frontier_loop(name, data):
    S = HOSTS[name]
    gens = data.draw(st.lists(st.integers(0, S.n - 1), max_size=6))
    assert _join_closure(gens, S.product) == naive_join_closure(gens,
                                                                S.product)


@pytest.mark.parametrize("k", [6, 14])
def test_union_closure_of_singletons_is_the_free_semilattice(k):
    closed = _join_closure([1 << i for i in range(k)], operator.or_)
    assert closed == set(range(1, 1 << k))


def _up_closure(top):
    """The up-closure of ``top``, an indicator over the subsets of k points:
    ``_pair_unions`` asks for an up-set."""
    return core._subset_sweep(top.copy(), np.bitwise_or)


def _pair_unions_of(columns, top, k):
    """``_pair_unions`` of the columns (sets of masks over k points), each
    column's answer as a set of masks, and the up-closure it was given of
    ``top``, None or a set of masks, as a set of masks."""
    R = np.zeros((1 << k, len(columns)), dtype=bool)
    for c, sets in enumerate(columns):
        R[list(sets), c] = True
    if top is not None:
        marked = np.zeros(1 << k, dtype=bool)
        marked[list(top)] = True
        top = _up_closure(marked)
    U = _pair_unions(R, top)
    return ([set(np.flatnonzero(U[:, c]).tolist())
             for c in range(len(columns))],
            () if top is None else set(np.flatnonzero(top).tolist()))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10), st.data())
def test_pair_unions_match_the_set_loop(k, data):
    subset = st.integers(0, (1 << k) - 1)
    columns = data.draw(st.lists(st.sets(subset, max_size=6), min_size=1,
                                 max_size=5), label="columns")
    top = data.draw(st.none() | st.sets(subset, max_size=4), label="top")
    if top is not None and data.draw(st.booleans(), label="hit") \
            and columns[0]:     # mark a union of the first column
        x, y = data.draw(st.lists(st.sampled_from(sorted(columns[0])),
                                  min_size=2, max_size=2), label="pair")
        top.add(x | y)
    got, up = _pair_unions_of(columns, top, k)
    assert got == naive_pair_unions(columns, up, k)


def test_pair_unions_of_a_block_at_16_points_with_a_top():
    # int64 counts, and a top of about 300 subsets and their supersets
    k, rng = 16, random.Random(16)
    columns = [set(), {0}, {(1 << k) - 1}] + [
        {mask_of(rng.sample(range(k), rng.randrange(5))) for _ in range(10)}
        for _ in range(5)]
    x, y = sorted(columns[3])[:2]
    top = {x | y} | {mask_of(rng.sample(range(k), 12)) for _ in range(300)}
    got, up = _pair_unions_of(columns, top, k)
    assert got == naive_pair_unions(columns, up, k)
    assert len(got[3]) == 1 << k and got[0] == set()


def _against_the_sweep(R, top):
    """``_pair_unions`` of the columns R against the k-pass integer sweep
    (``_swept_pair_unions``), which it leaves up to ``KRONECKER_MAX_BITS``
    points; ``top`` is None or an indicator, whose up-closure both get."""
    up = None if top is None else _up_closure(top)
    got = _pair_unions(R, up)
    assert got.shape == R.shape and got.dtype == bool
    with mock.patch.object(propagation, "KRONECKER_MAX_BITS", -1):
        assert np.array_equal(got, _pair_unions(R, up))
    return got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 13), st.integers(1, 3),
       st.sampled_from(["random", "empty", "full"]),
       st.sampled_from([0.005, 0.02, 0.05, 0.2, 0.5]),
       st.sampled_from(["none", "random", "hit"]),
       st.integers(0, 2**32 - 1))
# the full cube at the bound: 4**12 pairs, the largest counts the float form
# holds, with and without a top
@example(12, 1, "full", 0.5, "none", 0)
@example(12, 2, "full", 0.5, "random", 0)
def test_matrix_form_matches_the_sweep(k, width, fill, density, marks, seed):
    rng = np.random.default_rng(seed)
    R = np.full((1 << k, width), fill == "full") if fill != "random" else \
        rng.random((1 << k, width)) < density
    top = None if marks == "none" else rng.random(1 << k) < 0.02
    members = np.flatnonzero(R[:, 0])
    if marks == "hit" and len(members):     # a union in column 0
        top[rng.choice(members) | rng.choice(members)] = True
    got = _against_the_sweep(R, top)
    if not len(members):
        assert not got[:, 0].any()
    elif fill == "full" or marks == "hit":
        assert got[:, 0].all()
    if R.sum(axis=0).max() <= 400:          # the set loop is quadratic
        columns = [np.flatnonzero(c).tolist() for c in R.T]
        marked = () if top is None else \
            np.flatnonzero(_up_closure(top)).tolist()
        assert [set(np.flatnonzero(c).tolist()) for c in got.T] == \
            naive_pair_unions(columns, marked, k)


# the matrix form up to its bound, 12; past it int32 counts, int64 past 15
@pytest.mark.parametrize("k", [8, 9, 12, 13, 15, 16, 17])
def test_one_column_at_the_gate_and_the_count_dtype_switch(k):
    full = np.ones((1 << k, 1), dtype=bool)
    pair = np.zeros((1 << k, 1), dtype=bool)
    pair[[1, 2]] = True                     # two points, with union 0b11
    top = np.zeros(1 << k, dtype=bool)
    assert _against_the_sweep(full, None).all()
    assert _against_the_sweep(full, top).all()
    assert np.flatnonzero(_against_the_sweep(pair, top)).tolist() \
        == [0, 1, 2, 3]
    top[(1 << k) - 1] = True
    assert _against_the_sweep(full, top).all()
    top[3] = True
    assert _against_the_sweep(pair, top).all()
