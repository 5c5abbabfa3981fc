import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (naive_collapse_cap, naive_random_logweight,
                     naive_sampled_logweight_violations,
                     naive_subadditive_violations)
from slat import core, weights
from slat._bitset import bits, mask_of, popcount
from slat.core import (TABLE_HARD_CAP, Semilattice, SizeOverflowError, chain,
                       fin_truncation, free_nonempty, generate_instance,
                       kary_tree, powerset, sch_embed)
from slat.weights import (KindMismatch, LogWeight, PrototypeMissingTop,
                          _numerators, builtin_logweight, level_set,
                          logweight_from_json, random_logweight,
                          validate_logweight)


def test_cardinality_weight_values():
    S = free_nonempty(3)
    lam = builtin_logweight(S, "cardinality")
    for x in range(S.n):
        assert lam[x] == bin(S.member_mask(x)).count("1")
    assert validate_logweight(S, lam).ok


def test_scaled_weight():
    S = free_nonempty(3)
    lam = builtin_logweight(S, "scaled", {"q": Fraction(1, 2)})
    assert lam.distinct_values()[-1] == Fraction(3, 2)
    assert validate_logweight(S, lam).ok


def test_zero_weight_on_tables():
    S = chain(4)
    lam = builtin_logweight(S, "zero")
    assert lam.values() == [0] * 4


def test_cardinality_needs_set_system():
    with pytest.raises(KindMismatch):
        builtin_logweight(chain(3), "cardinality")


def test_prototype_weight_cheap_top():
    S = free_nonempty(4)
    lam = builtin_logweight(S, "prototype")
    top = S.id_of_mask(0b1111)
    assert lam[top] == 0
    singles = [x for x in range(S.n)
               if bin(S.member_mask(x)).count("1") == 1]
    assert all(lam[x] == 1 for x in singles)
    assert validate_logweight(S, lam).ok


def test_prototype_on_collapsed_top_host():
    # the collapsed top stands in for the full universe
    S = fin_truncation(6, 2)
    lam = builtin_logweight(S, "prototype")
    assert lam[S.top_id] == 0
    assert validate_logweight(S, lam).ok


def test_prototype_needs_set_system():
    with pytest.raises(KindMismatch):
        builtin_logweight(chain(3), "prototype")


def test_truncation_cardinality_cap_keeps_subadditivity():
    S = fin_truncation(4, 2)
    lam = builtin_logweight(S, "cardinality")
    assert lam[S.top_id] == 3  # capped at c + 1, not the universe size
    assert validate_logweight(S, lam).ok


def test_level_set_exact_threshold():
    S = free_nonempty(3)
    lam = builtin_logweight(S, "cardinality")
    W1 = level_set(S, lam, 1)
    assert bin(W1).count("1") == 3
    assert level_set(S, lam, Fraction(3, 2)) == W1
    assert level_set(S, lam, 3) == (1 << S.n) - 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_logweight_is_subadditive(seed):
    S = powerset(3)
    lam = random_logweight(S, seed)
    assert validate_logweight(S, lam).ok


def test_random_logweight_deterministic():
    S = free_nonempty(3)
    assert random_logweight(S, 5).values() == random_logweight(S, 5).values()


@pytest.mark.parametrize("build", [
    lambda: generate_instance("pstar(5)"), lambda: powerset(4),
    lambda: fin_truncation(6, 2), lambda: fin_truncation(5, 3),
    lambda: kary_tree(2, 3), lambda: chain(7),
    lambda: sch_embed(kary_tree(2, 2)).semilattice])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_logweight_matches_gauss_seidel_loop(build, seed):
    S = build()
    assert random_logweight(S, seed).values() == \
        naive_random_logweight(S, seed)


def test_random_logweight_needs_a_dense_table():
    S = free_nonempty(13)
    assert S.n > TABLE_HARD_CAP
    with pytest.raises(SizeOverflowError):
        random_logweight(S, 0)


def without_member(S, points):
    """The collapsed-top family of ``S`` less the member with ``points``:
    no longer a cube truncation."""
    obj = S.to_json()
    i = obj["elements"].index(points)
    del obj["elements"][i]
    obj["collapsed_top"] -= obj["collapsed_top"] > i
    return Semilattice.from_json(obj)


# flat: 69 of 70 singletons, whose pairwise unions collapse to the top
# (masks beyond int64)
FLAT_70 = {"kind": "set_system", "ground": [str(i) for i in range(70)],
           "elements": [[i] for i in range(69)] + [list(range(70))],
           "collapsed_top": 69}


@pytest.mark.parametrize("build", [
    lambda: without_member(fin_truncation(6, 2), [1, 2]),
    lambda: without_member(fin_truncation(5, 3), [0]),
    lambda: without_member(fin_truncation(7, 2), [3, 6]),
    lambda: Semilattice.from_json(FLAT_70)])
def test_collapse_cap_matches_pair_loop(build):
    S = build()
    assert S.truncation_bound() is None and S.top_id is not None
    lam = builtin_logweight(S, "cardinality")
    assert lam[S.top_id] == naive_collapse_cap(S)
    assert validate_logweight(S, lam).ok


def test_collapse_cap_takes_the_least_over_row_blocks(monkeypatch):
    monkeypatch.setattr(core, "NP_BLOCK_ELEMS", 1)   # one row a block
    S = without_member(fin_truncation(6, 2), [1, 2])
    assert builtin_logweight(S, "cardinality")[S.top_id] \
        == naive_collapse_cap(S) == 2


def test_collapse_cap_on_a_large_family_is_vectorized():
    S = without_member(fin_truncation(20, 3), [4])
    assert S.n == 1351
    t = time.perf_counter()
    lam = builtin_logweight(S, "cardinality")
    assert time.perf_counter() - t < 0.2
    assert lam[S.top_id] == 4


def test_json_roundtrip_explicit():
    S = chain(3)
    lam = LogWeight.from_values([Fraction(1, 2), Fraction(2), Fraction(0)])
    back = logweight_from_json(S, lam.to_json())
    assert back.values() == lam.values()


def test_json_builtin_kinds():
    S = free_nonempty(3)
    for kind in ("zero", "cardinality", "prototype"):
        lam = logweight_from_json(S, {"kind": kind})
        assert lam.name == kind
    lam = logweight_from_json(S, {"kind": "scaled",
                                  "q": {"num": 1, "den": 3}})
    assert lam.distinct_values()[-1] == 1


def test_validate_rejects_non_subadditive():
    S = powerset(2)  # ids: empty, {0}, {1}, {0,1}
    lam = LogWeight.from_values([0, 0, 0, 5])
    rep = validate_logweight(S, lam)
    assert not rep.ok
    assert any(v.kind == "NotSubadditive" for v in rep.violations)


def test_sampled_negativity_check_draws_many_elements():
    S = free_nonempty(13)  # above TABLE_HARD_CAP
    assert S.n > TABLE_HARD_CAP
    lam = LogWeight.from_values([-1] * S.n)
    rep = validate_logweight(S, lam, samples=8)
    assert not rep.exhaustive
    named = {v.witness for v in rep.violations if v.kind == "Negative"}
    assert len(named) > 1


def test_weight_lookups_read_num_each_time():
    calls = []

    def num(ids):
        calls.append(ids.tolist())
        return ids * 3

    lam = LogWeight(4, 2, num, name="probe")
    assert lam[2] == 3 and lam[2] == 3
    assert calls == [[2], [2]]          # nothing is kept per element
    assert lam.values() == [0, Fraction(3, 2), 3, Fraction(9, 2)]
    assert lam.values([3, 1]) == [Fraction(9, 2), Fraction(3, 2)]
    assert lam._cache is None


def _closure(k, drawn):
    closed = {0}
    for m in drawn:
        closed |= {m | x for x in closed}
    return {"kind": "set_system", "ground": [str(p) for p in range(k)],
            "elements": [list(bits(m)) for m in sorted(closed)]}


@st.composite
def _proof_host(draw):
    """A union-closed family on at most 6 points: as it is, truncated with
    the whole ground as the collapsed top, or with a drawn member as the
    collapsed top (which need not absorb); a cube, listed or in rank
    storage; or a table."""
    kind = draw(st.sampled_from(["family", "truncated", "any top", "cube",
                                 "rank cube", "table"]))
    if kind in ("cube", "rank cube"):
        spec = draw(st.sampled_from(["pstar(4)", "powerset(5)", "fin(6,2)",
                                     "fin(5,3)"]))
        with mock.patch.object(core, "IMPLICIT_THRESHOLD",
                               0 if kind == "rank cube" else 300_000):
            return generate_instance(spec)
    if kind == "table":
        return generate_instance(draw(st.sampled_from(
            ["chain(6)", "tree(2,2)", "tree(3,2)"])))
    k = draw(st.integers(1, 6))
    obj = _closure(k, draw(st.lists(st.integers(1, (1 << k) - 1),
                                    min_size=1, max_size=8)))
    if kind == "truncated" and k > 1:
        c = draw(st.integers(1, k - 1))
        obj["elements"] = [e for e in obj["elements"] if len(e) <= c]
        obj["collapsed_top"] = len(obj["elements"])
        obj["elements"].append(list(range(k)))
    elif kind == "any top":
        obj["collapsed_top"] = draw(st.integers(0, len(obj["elements"]) - 1))
    return Semilattice.from_json(obj)


def _relabelled(S, perm):
    """Another host of the same n: S with its points (a set system) or its
    ids (a table) permuted by ``perm``."""
    if S.kind == "table":
        perm = np.array(perm)
        T = np.empty_like(S.product_table_np())
        T[np.ix_(perm, perm)] = perm[S.product_table_np()]
        return Semilattice.from_table(T.tolist())
    obj = S.to_json()
    elements = [sorted(perm[p] for p in e) for e in obj["elements"]]
    if "collapsed_top" in obj:
        top = elements[obj["collapsed_top"]]
        obj["collapsed_top"] = sorted(elements, key=lambda e: (len(e), e)
                                      ).index(top)
    return Semilattice.from_json({**obj, "elements": elements})


@settings(max_examples=150, deadline=None)
@given(S=_proof_host(), wname=st.sampled_from(
    ["cardinality", "scaled", "prototype", "zero", "random"]),
       q=st.sampled_from([0, Fraction(2, 3), 5, 2**70]),
       seed=st.integers(0, 10_000), data=st.data())
def test_proof_route_matches_the_scan(S, wname, q, seed, data):
    # a builtin or random weight built on S is subadditive on S by
    # construction: validate_logweight reports it exhaustive with no scan,
    # the report the scan of the same values gives, and the naive loop finds
    # nothing.  A collapsed top that does not absorb voids the proof of the
    # counted weights, and their pairs are scanned.  On another host of the
    # same n every weight is scanned
    if S.kind == "table":
        wname = data.draw(st.sampled_from(["zero", "random"]), label="table")
    try:
        lam = random_logweight(S, seed) if wname == "random" else \
            builtin_logweight(S, wname, {"q": q})
    except PrototypeMissingTop:
        assume(False)
    absorbs = S.top_id is None or all(
        S.product(S.top_id, y) == S.top_id for y in range(S.n))
    assert (lam.subadditive_on is S) == (absorbs or wname in ("zero",
                                                              "random"))
    scan = LogWeight.from_values(lam.values())
    hosts = [S, _relabelled(S, data.draw(st.permutations(
        range(S.n if S.kind == "table" else len(S.ground))), label="perm"))]
    for host in hosts:
        with mock.patch.object(weights, "pairs_where",
                               wraps=weights.pairs_where) as pairs:
            rep = validate_logweight(host, lam)
        assert pairs.called == (lam.subadditive_on is not host)
        assert [(v.kind, v.witness) for v in rep.violations] == \
            naive_subadditive_violations(host, lam)
        assert rep.to_json() == validate_logweight(host, scan).to_json()
        if host is S and lam.subadditive_on is S:
            assert rep.to_json() == core.ValidationReport().to_json()


# table, explicit-mask and collapsed-top hosts
PAIR_HOSTS = [kary_tree(2, 2), free_nonempty(4), fin_truncation(6, 2)]
# Mersenne primes: a common denominator of 1/p values overflows int64
BIG_PRIMES = [2**31 - 1, 2**61 - 1, 2**89 - 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(PAIR_HOSTS))), st.integers(0, 10_000),
       st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                          st.integers(-3, 12), st.integers(1, 4)),
                max_size=4),
       st.booleans(), st.sampled_from([1 << 18, 5]))
def test_validate_logweight_matches_pair_loop(host, seed, tamper, overflow,
                                              block_elems):
    S = PAIR_HOSTS[host]
    vals = random_logweight(S, seed).values()
    for where, num, den in tamper:
        vals[int(where * S.n)] = Fraction(num, den)
    if overflow:
        for i, p in enumerate(BIG_PRIMES):
            vals[(seed + i) % S.n] += Fraction(1, p)
        assert _numerators(vals)[1].dtype == object
    else:
        assert _numerators(vals)[1].dtype != object
    lam = LogWeight.from_values(vals)
    orig = core.NP_BLOCK_ELEMS
    core.NP_BLOCK_ELEMS = block_elems
    try:
        rep = validate_logweight(S, lam)
    finally:
        core.NP_BLOCK_ELEMS = orig
    got = [(v.kind, v.witness) for v in rep.violations]
    assert got == naive_subadditive_violations(S, lam)
    assert all(type(x) is int for _, w in got for x in w)
    assert rep.exhaustive and rep.checked_triples == 0 and not rep.notes


def test_validate_logweight_finds_tampered_pairs_in_order():
    S = fin_truncation(6, 2)
    lam = builtin_logweight(S, "cardinality")
    vals = lam.values()
    vals[S.top_id] = Fraction(7)
    vals[0] = Fraction(-1, 2)
    bad = LogWeight.from_values(vals)
    rep = validate_logweight(S, bad)
    expected = naive_subadditive_violations(S, bad)
    assert len(expected) > 10
    assert [(v.kind, v.witness) for v in rep.violations] == expected


def test_builtin_weights_are_numerators_over_one_denominator():
    S = fin_truncation(6, 2)
    ids = np.arange(S.n)
    sizes = [popcount(S.member_mask(x)) for x in range(S.n)]
    zero = builtin_logweight(S, "zero")
    scaled = builtin_logweight(S, "scaled", {"q": Fraction(3, 2)})
    proto = builtin_logweight(S, "prototype")
    assert (zero.den, scaled.den, proto.den) == (1, 2, 1)
    assert zero.num(ids).tolist() == [0] * S.n
    # the collapsed top is capped at c + 1 = 3 points, and free under
    # the prototype
    assert scaled.num(ids).tolist() == [3 * min(c, 3) for c in sizes]
    assert proto.num(ids).tolist() == [0 if x == S.top_id else c
                                       for x, c in enumerate(sizes)]
    for lam in (zero, scaled, proto):
        assert lam.num(ids).dtype == np.int64
        assert lam.num(ids[::-1]).tolist() == lam.num(ids).tolist()[::-1]


def test_validate_logweight_on_empty_instances():
    for S in (Semilattice.from_table([]), Semilattice.from_sets([], [])):
        assert validate_logweight(S, LogWeight.from_values([])).ok


def test_numerators_whose_sum_overflows_int64_fall_back():
    S = free_nonempty(2)  # ids: {0}, {1}, {0,1}
    big = Fraction(3 * 2**61)  # below 2**63, but twice it is not
    lam = LogWeight.from_values([big, big, Fraction(0)])
    assert lam.num(np.arange(S.n)).dtype == object
    assert validate_logweight(S, lam).ok


def test_cardinality_on_a_rank_storage_host_is_lazy():
    S = fin_truncation(24, 8)
    assert S.n == 1271627
    tracemalloc.start()
    try:
        lam = builtin_logweight(S, "cardinality")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20               # nothing stored per element
    ids = [0, 1, 300, S.n - 2, S.top_id]
    assert lam.num(np.array(ids)).tolist() == \
        [popcount(S.member_mask(x)) for x in ids[:-1]] + [9]  # the cap c + 1


# sha256 of the JSON of two sampled reports on fin(13,6), as the check that
# joined all 100 000 drawn pairs in one pass made them: the cardinality
# values, and a weight of seeded halves 0..3 with seed 4 (12 478 witnesses)
SAMPLED_FIN_13_6 = ("e3cf1cd1e23d31ec6aa3f6535c367526"
                    "ddd4d67095de40e1baf414c1750ecdaa")
SAMPLED_FIN_13_6_BROKEN = ("d6f47ccd6c404098459a542d42d03fa5"
                           "54f3fd7c60aacc3759f4d9d54e858793")


def _report_sha(rep):
    return hashlib.sha256(json.dumps(rep.to_json()).encode()).hexdigest()


def test_sampled_pair_check_runs_a_row_block_at_a_time():
    # 4097 elements, one past the exhaustive pair check: the 100 000 drawn
    # pairs are joined 8192 at a time, so the peak stays near the draws'
    # own 1.5 MiB (5.4 MiB in one pass).  The cardinality values as an
    # explicit weight, since the builtin one is subadditive by construction
    S = fin_truncation(13, 6)
    lam = LogWeight.from_values(builtin_logweight(S, "cardinality").values())
    tracemalloc.start()
    try:
        rep = validate_logweight(S, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20
    assert rep.ok and not rep.exhaustive
    assert _report_sha(rep) == SAMPLED_FIN_13_6
    rng = random.Random(13)
    broken = LogWeight.from_values([Fraction(rng.randrange(7), 2)
                                    for _ in range(S.n)])
    rep = validate_logweight(S, broken, seed=4)
    assert len(rep.violations) == 12478
    assert _report_sha(rep) == SAMPLED_FIN_13_6_BROKEN
    # no drawn pair, no block: an empty sampled report
    rep = validate_logweight(S, broken, samples=0)
    assert rep.violations == [] and not rep.exhaustive


def test_scaled_weight_with_wide_numerators():
    # q * 6 points needs more than int64: the numerators are Python ints
    q = 2**70
    S = fin_truncation(6, 2)
    lam = builtin_logweight(S, "scaled", {"q": q})
    assert lam.num(np.arange(S.n)).dtype == object
    assert validate_logweight(S, lam).ok
    assert level_set(S, lam, 2 * q) == mask_of(
        x for x in range(S.n) if popcount(S.member_mask(x)) <= 2)
    assert level_set(S, lam, Fraction(q - 1)) == 1   # the empty set alone
    big = free_nonempty(13)
    assert validate_logweight(big, builtin_logweight(big, "scaled", {"q": q}),
                              samples=2000).ok


@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_validation_matches_the_pair_loop(seed):
    S = free_nonempty(13)  # above TABLE_HARD_CAP: pairs are sampled
    rng = np.random.default_rng(seed)
    vals = [Fraction(popcount(S.member_mask(x))) for x in range(S.n)]
    for x in range(S.n):
        if popcount(S.member_mask(x)) >= 12:
            vals[x] = Fraction(30)
    for x in rng.choice(S.n, 400, replace=False).tolist():
        vals[x] = Fraction(-1, 3)
    lam = LogWeight.from_values(vals)
    rep = validate_logweight(S, lam, seed=seed, samples=3000)
    got = [(v.kind, v.witness) for v in rep.violations]
    assert got == naive_sampled_logweight_violations(S, lam, seed, 3000)
    assert {k for k, _ in got} == {"Negative", "NotSubadditive"}
    assert all(type(x) is int for _, w in got for x in w)
    assert not rep.exhaustive and rep.notes == ["pair check sampled"]
