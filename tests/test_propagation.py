import contextlib
import copy
import gc
import random
import time
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (naive_closure, naive_fbp_step, naive_moebius,
                     naive_pair_unions, naive_profile, naive_stable, naive_v,
                     one_point_top_json, packed_point_ints,
                     planted_table_json)
from test_acceptance import _dense_v_oracle
from test_weights import without_member
from slat import core, propagation
from slat._bitset import bits, mask_of
from slat.adversarial import (AdversarialChain, build_chain, eta_weight,
                              verify_barrier)
from slat.core import (Semilattice, chain, fin_truncation, free_nonempty,
                       generate_instance, kary_tree, powerset, sch_embed)
from slat.metrics import generate_filter
from slat.propagation import (INFINITE, BudgetExceeded, PropagationValue,
                              check_equivalence_iii, fbp, fbp_closure,
                              finite_breadth_bound_check, is_fbp_stable,
                              propagation_profile, stability_threshold,
                              v_value)
from slat.weights import (LogWeight, PrototypeMissingTop, builtin_logweight,
                          level_set, random_logweight)


def test_propagation_value_ordering():
    assert PropagationValue.finite(1) < PropagationValue.finite(2) < INFINITE
    assert INFINITE.is_infinite
    assert PropagationValue.finite(Fraction(1, 2)).to_json()["kind"] == "finite"
    assert INFINITE.to_json() == {"kind": "infinite"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fbp_step_matches_oracle(seed):
    S = free_nonempty(3)
    lam = random_logweight(S, seed)
    rng = random.Random(seed)
    for _ in range(50):
        X = rng.randrange(1 << S.n)
        for C in (0, 1, Fraction(3, 2), 2, 10):
            assert fbp(S, lam, C, X) == naive_fbp_step(S, lam, C, X)


def test_fbp_empty_is_empty():
    S = powerset(3)
    lam = builtin_logweight(S, "cardinality")
    assert fbp(S, lam, 5, 0) == 0


def test_closure_matches_oracle_and_sandwich():
    S = free_nonempty(3)
    lam = builtin_logweight(S, "cardinality")
    rng = random.Random(4)
    for _ in range(40):
        E = rng.randrange(1, 1 << S.n)
        for C in (1, 2, 3):
            got, _rounds = fbp_closure(S, lam, C, E)
            assert got == naive_closure(S, lam, C, E)
            W = level_set(S, lam, C)
            assert (E & W) & ~got == 0
            assert got & ~(generate_filter(S, E) & W) == 0


def test_stability_threshold_matches_direct_scan():
    S = free_nonempty(3)
    for seed in range(3):
        lam = random_logweight(S, seed)
        thresholds = sorted({lam[x] for x in range(S.n)})
        rng = random.Random(seed)
        for _ in range(40):
            X = rng.randrange(1 << S.n)
            T = stability_threshold(S, lam, X)
            for C in thresholds:
                expect = T is None or C < T
                assert is_fbp_stable(S, lam, C, X) == expect
                assert naive_stable(S, lam, C, X) == expect


def test_v_value_infinite_outside_generated_filter():
    S = chain_system()
    lam = builtin_logweight(S, "cardinality")
    # bottom generators cannot reach an unrelated singleton
    E = mask_of([0])
    for z in range(S.n):
        v = v_value(S, lam, E, z)
        inside = generate_filter(S, E) >> z & 1
        assert v.is_infinite == (not inside)
    assert v_value(S, lam, 0, 0).is_infinite


def chain_system(k=4):
    # nested sets: a union-closed chain
    from slat.core import Semilattice
    return Semilattice.from_sets(range(k), [list(range(i + 1))
                                            for i in range(k)])


@pytest.mark.parametrize("build,wname", [
    (lambda: free_nonempty(3), "cardinality"),
    (lambda: free_nonempty(3), "prototype"),
    (lambda: powerset(3), "cardinality"),
    (lambda: fin_truncation(4, 2), "cardinality"),
])
def test_v_value_matches_dense_threshold_oracle(build, wname):
    S = build()
    lam = builtin_logweight(S, wname)
    rng = random.Random(0)
    for _ in range(60):
        E = rng.randrange(1, 1 << S.n)
        z = rng.randrange(S.n)
        expect = naive_v(S, lam, E, z)
        got = v_value(S, lam, E, z)
        if expect is None:
            assert got.is_infinite
        else:
            assert got == PropagationValue.finite(expect)


def test_profile_matches_bruteforce():
    S = free_nonempty(3)
    for wname in ("cardinality", "prototype"):
        lam = builtin_logweight(S, wname)
        for L in (1, 2, 3):
            prof = propagation_profile(S, lam, L)
            assert prof.exhaustive
            assert prof.value == PropagationValue.finite(
                naive_profile(S, lam, L))


def test_profile_witness_is_consistent():
    S = free_nonempty(4)
    lam = builtin_logweight(S, "prototype")
    prof = propagation_profile(S, lam, 1)
    assert prof.exhaustive
    assert prof.value == v_value(S, lam, prof.witness_E, prof.witness_z)
    # witness generators stay inside the level set
    W = level_set(S, lam, 1)
    assert prof.witness_E & ~W == 0


def test_profile_budget_strict_raises():
    S = free_nonempty(4)
    lam = builtin_logweight(S, "cardinality")
    with pytest.raises(BudgetExceeded):
        propagation_profile(S, lam, 4, budget=5, strict=True)


def test_profile_samples_only_past_the_budget(monkeypatch):
    S = free_nonempty(4)
    lam = builtin_logweight(S, "cardinality")
    monkeypatch.setattr(propagation, "is_compressible", None)  # the sampler's
    prof = propagation_profile(S, lam, 2, strict=True)
    assert prof.exhaustive and prof.notes == []


def test_profile_budget_sampled_mode_lower_bound():
    S = free_nonempty(4)
    lam = builtin_logweight(S, "cardinality")
    exact = propagation_profile(S, lam, 2)
    sampled = propagation_profile(S, lam, 2, budget=5, seed=1)
    assert not sampled.exhaustive
    assert sampled.value <= exact.value


def test_check_equivalence_at_profile_level_is_clean():
    S = free_nonempty(3)
    lam = builtin_logweight(S, "cardinality")
    for L in (1, 2, 3):
        P = propagation_profile(S, lam, L).value
        assert not P.is_infinite
        rep = check_equivalence_iii(S, lam, L, P.c)
        assert rep.exhaustive and rep.ok


def test_finite_breadth_bound():
    S = kary_tree(2, 2)
    lam = random_logweight(S, 2)
    for L in sorted({lam[x] for x in range(S.n)}):
        rep = finite_breadth_bound_check(S, lam, L)
        assert rep.passed
    # a zero weight: the bound breadth * 0 is 0, met by the value 0, with
    # no ratio to it
    rep = finite_breadth_bound_check(S, builtin_logweight(S, "zero"), 0)
    assert (rep.bound, rep.profile.value, rep.max_ratio, rep.passed) == \
        (0, PropagationValue.finite(0), None, True)


_ENGINE_HOSTS = {spec: generate_instance(spec)
                 for spec in ("pstar(3)", "tree(2,2)", "fin(4,2)", "chain(4)")}


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(sorted(_ENGINE_HOSTS)), seed=st.integers(0, 10_000),
       data=st.data())
def test_closure_engine_matches_oracles(spec, seed, data):
    S = _ENGINE_HOSTS[spec]
    lam = random_logweight(S, seed)
    E = data.draw(st.integers(1, (1 << S.n) - 1), label="E")
    z = data.draw(st.integers(0, S.n - 1), label="z")
    expect = naive_v(S, lam, E, z)
    assert v_value(S, lam, E, z) == (
        INFINITE if expect is None else PropagationValue.finite(expect))
    # naive_profile scans every subset of the level set: keep it small
    levels = [L for L in sorted(set(lam.values()))
              if bin(level_set(S, lam, L)).count("1") <= 6]
    assume(levels)
    L = data.draw(st.sampled_from(levels), label="L")
    prof = propagation_profile(S, lam, L)
    assert prof.exhaustive
    assert prof.value == PropagationValue.finite(naive_profile(S, lam, L))
    if prof.witness_z is None:
        assert prof.value == PropagationValue.finite(0)
    else:
        assert v_value(S, lam, prof.witness_E, prof.witness_z) == prof.value
    sampled = propagation_profile(S, lam, L, budget=5, seed=seed, samples=50)
    assert sampled.value <= prof.value


def test_profile_leaves_host_and_weight_caches_alone():
    # profiles, and v_value on the pair pass (4 points) and on the subset
    # pass through a closure context (7 points)
    for spec, L in (("pstar(4)", 2), ("pstar(7)", 1)):
        S = generate_instance(spec)
        lam = builtin_logweight(S, "cardinality")
        S.factors_mask(3)
        host, factors, weight = dict(vars(S)), dict(S._factors_cache), \
            dict(vars(lam))
        for budget in (500_000, 7):
            propagation_profile(S, lam, L, budget=budget, samples=20)
        singles, top = _singletons_and_top(S)
        assert v_value(S, lam, singles, top) == \
            PropagationValue.finite(S.member_mask(top).bit_count())
        assert vars(S) == host and S._factors_cache == factors
        assert vars(lam) == weight and lam._cache is None


def _singletons_and_top(S):
    """The id-mask of the singletons of a cube family, and its top."""
    k = len(S.ground)
    return mask_of(S.id_of_mask(1 << p) for p in range(k)), \
        S.id_of_mask((1 << k) - 1)


def test_closure_contexts_let_hosts_and_weights_go():
    # a subset world over the whole ground (pstar(7)) and an element world
    # (tree(2,3)), each under two weights, one of which goes first: the memo
    # keeps one entry per host and per weight, and per pair only what a
    # weight keeps with a weak reference to its host (its kept curve, and
    # the integer row's ranks and admitted ints on the ground), and each
    # entry goes with its object
    refs = []
    for S in (free_nonempty(7), kary_tree(2, 3)):
        lams = [random_logweight(S, 1), random_logweight(S, 2)]
        for lam in lams:
            propagation_profile(S, lam, lam.distinct_values()[-1])
            if S.kind == "set_system":
                singles, top = _singletons_and_top(S)
                v_value(S, lam, singles, top)
        world = propagation._ground_ids if S.kind == "set_system" else \
            propagation._element_world
        assert list(propagation._MEMO[S]) == [world]
        assert propagation._MEMO[S][world] is not None
        for lam in lams:
            kept = dict(propagation._MEMO[lam])
            curve = kept.pop(propagation.propagation_profile, None)
            row = kept.pop(propagation.v_value, None)
            assert list(kept) == [propagation._weight_ranks]
            assert curve is None or curve[0]() is S
            assert (row is None) == (S.kind == "table")
            assert row is None or row[0]() is S
        refs += [weakref.ref(x) for x in (S, *lams)]
        del lams[0]
        gc.collect()
        assert refs[-2]() is None
        del S, lam, lams
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    assert all(k() is not None for k in propagation._MEMO.keyrefs())


# -- profiles in blocks --------------------------------------------------------

@st.composite
def _profile_host(draw):
    """A random union-closed family, a cube, or a collapsed-top family (two
    truncations and a family that is not one)."""
    kind = draw(st.sampled_from(["family", "cube", "collapsed"]))
    if kind == "family":
        k = draw(st.integers(1, 6))
        sets = draw(st.sets(st.frozensets(st.integers(0, k - 1)), min_size=1,
                            max_size=6))
        return Semilattice.from_sets(range(k), [sorted(m) for m in sets],
                                     close=True)
    names = ["pstar(4)", "powerset(4)", "pstar(5)"] if kind == "cube" else \
        ["fin(6,3)", "fin(7,3)", "fin(4,2) less {0,1}"]
    return _PROFILE_HOSTS[draw(st.sampled_from(names))]


_PROFILE_HOSTS = {spec: generate_instance(spec) for spec in (
    "pstar(4)", "powerset(4)", "pstar(5)", "fin(6,3)", "fin(7,3)")}
_PROFILE_HOSTS["fin(4,2) less {0,1}"] = without_member(fin_truncation(4, 2),
                                                       [0, 1])


def _profile_fields(prof):
    return (prof.value, prof.witness_E, prof.witness_z, prof.nodes,
            prof.exhaustive)


@settings(max_examples=80, deadline=None)
@given(S=_profile_host(), wname=st.sampled_from(["random", "cardinality",
                                                 "prototype"]),
       seed=st.integers(0, 10_000), budget=st.integers(1, 1500),
       block_elems=st.sampled_from([1, 40, 1 << 14]), data=st.data())
def test_batched_profile_matches_the_per_set_pass(S, wname, seed, budget,
                                                  block_elems, data):
    if wname == "random":
        lam = random_logweight(S, seed)
    else:
        try:
            lam = builtin_logweight(S, wname)
        except PrototypeMissingTop:
            assume(False)
    L = data.draw(st.sampled_from(sorted(set(lam.values()))), label="L")
    kw = dict(budget=budget, seed=seed, samples=25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NP_BLOCK_ELEMS", block_elems)
        batched = propagation_profile(S, lam, L, **kw)
        per_set = _pair_pass_profile(S, lam, L, **kw)    # every set alone
    assert _profile_fields(batched) == _profile_fields(per_set)


def test_fitting_hosts_never_take_the_pair_pass(monkeypatch):
    # the collapsed top of fin(6,3) lies outside the level set of cardinality
    # at L = 2 and inside that of the prototype weight at L = 1: both
    # profiles, and closures from a collapsed join or from the top itself,
    # run on the subset pass
    S = _PROFILE_HOSTS["fin(6,3)"]
    monkeypatch.setattr(propagation, "_knuth_first_levels", None)
    card, proto = (builtin_logweight(S, w) for w in ("cardinality",
                                                     "prototype"))
    assert S.top_id not in bits(level_set(S, card, 2))
    prof = propagation_profile(S, card, 2)
    assert (prof.value, prof.witness_E, prof.witness_z) == \
        (PropagationValue.finite(2), 6, 7)
    assert S.top_id in bits(level_set(S, proto, 1))
    prof = propagation_profile(S, proto, 1)
    assert (prof.value, prof.witness_E, prof.witness_z) == \
        (PropagationValue.finite(2), 30, 5)
    E = mask_of(S.id_of_mask(m) for m in (0b111, 0b111000))
    assert S.product_of_mask(E) == S.top_id
    pair = S.id_of_mask(0b11)
    assert [v_value(S, lam, E, z).c for lam in (card, proto)
            for z in (S.top_id, pair)] == [4, 3, 3, 3]
    assert v_value(S, proto, 1 << S.top_id, S.id_of_mask(1)).c == 1


def test_sparse_profiles_below_the_cap_take_the_element_pass(monkeypatch):
    # 12 nested sets span 12 points: 4096 subsets for 12 members
    S = chain_system(12)
    lam = builtin_logweight(S, "cardinality")
    monkeypatch.setattr(propagation, "_subset_first_levels", None)
    monkeypatch.setattr(propagation, "_knuth_first_levels", None)
    prof = propagation_profile(S, lam, 12)
    assert prof.exhaustive and prof.value == PropagationValue.finite(12)


def test_sparse_profiles_stay_on_the_pair_pass(monkeypatch):
    # 260 nested sets, above the cap of the element pass, whose first 11
    # span 2048 subsets; and a sparse family that fails the guard
    monkeypatch.setattr(propagation, "_subset_first_levels", None)
    monkeypatch.setattr(propagation, "_element_first_levels", None)
    S = chain_system(core.FULL_VALIDATE_CAP + 9)
    prof = propagation_profile(S, builtin_logweight(S, "cardinality"), 11)
    assert prof.exhaustive and prof.value == PropagationValue.finite(11)
    assert propagation._element_world(_BROKEN_MEET) is None
    prof = propagation_profile(_BROKEN_MEET, builtin_logweight(
        _BROKEN_MEET, "cardinality"), 1)
    assert prof.exhaustive and prof.value == PropagationValue.finite(1)


def _count_calls(monkeypatch, *names):
    """The number of calls of each named function of ``propagation`` from
    here on, in a Counter."""
    calls = Counter()
    for name in names:
        fn = getattr(propagation, name)
        monkeypatch.setattr(propagation, name, lambda *a, name=name, fn=fn,
                            **kw: calls.update([name]) or fn(*a, **kw))
    return calls


def test_profile_of_pstar6_at_level_3_is_fast(monkeypatch):
    # the 6 points of the level set have 64 subsets: one world, every block
    # on the subset pass, and a few rounds a block
    calls = _count_calls(monkeypatch, "_subset_world", "_subset_first_levels",
                         "_element_first_levels", "_knuth_first_levels",
                         "_pair_unions")
    S = free_nonempty(6)
    prof = propagation_profile(S, builtin_logweight(S, "cardinality"), 3)
    assert (prof.value, prof.witness_E, prof.witness_z, prof.nodes) == \
        (PropagationValue.finite(3), 0b111, 21, 86599)
    blocks = calls.pop("_subset_first_levels")
    assert calls.pop("_pair_unions") <= 5 * blocks
    assert calls == {"_subset_world": 1}


def test_profile_of_fin_6_3_at_level_3_is_fast(monkeypatch):
    # every generating set whose join collapses runs on the subset pass
    def other_pass(*args):
        raise AssertionError("a pass other than the subset pass ran")

    for entry in ("_knuth_first_levels", "_element_first_levels"):
        monkeypatch.setattr(propagation, entry, other_pass)
    S = _PROFILE_HOSTS["fin(6,3)"]
    lam = builtin_logweight(S, "cardinality")
    t = time.perf_counter()
    prof = propagation_profile(S, lam, 3)
    assert time.perf_counter() - t < 0.1
    assert prof.value == PropagationValue.finite(3) and prof.exhaustive


# -- the element pass ---------------------------------------------------------

# a collapsed-top family that is not a semilattice: {0} and {1} join to the
# top, yet both lie inside the member {0,1,2}
_BROKEN_MEET = Semilattice.from_json({
    "kind": "set_system", "ground": [str(p) for p in range(8)],
    "elements": [[]] + [[p] for p in range(8)] + [[0, 1, 2], list(range(8))],
    "collapsed_top": 10})


def _all_fields(prof):
    return _profile_fields(prof) + (prof.notes,)


def _fresh(S):
    """A new host object equal to S, whose worlds the memo does not hold."""
    return copy.copy(S)


def _pair_pass_profile(S, lam, L, **kw):
    """The profile on the pair-by-pair pass alone, on a fresh copy of S: the
    other passes are routed away and their entry points unset."""
    with mock.patch.object(propagation, "SUBSET_MAX_BITS", -1), \
            mock.patch.object(propagation, "_element_world",
                              lambda S: None), \
            mock.patch.object(propagation, "_subset_first_levels", None), \
            mock.patch.object(propagation, "_element_first_levels", None):
        return propagation_profile(_fresh(S), lam, L, **kw)


def _element_pass_profile(S, lam, L, **kw):
    """The profile on the element pass alone, on a fresh copy of S."""
    with mock.patch.object(propagation, "SUBSET_MAX_BITS", -1), \
            mock.patch.object(propagation, "_subset_first_levels", None), \
            mock.patch.object(propagation, "_knuth_first_levels", None):
        return propagation_profile(_fresh(S), lam, L, **kw)


@pytest.mark.parametrize("host", ["non-associative table", "broken meet",
                                  "above the cap"])
def test_element_guard_sends_profiles_to_the_pair_pass(host, monkeypatch):
    if host == "non-associative table":
        S = Semilattice.from_json(planted_table_json(n=40, cells=80, seed=3))
        assert not S.validate().ok
        lams = [random_logweight(S, 1), builtin_logweight(S, "zero")]
    elif host == "broken meet":
        S = _BROKEN_MEET
        lams = [random_logweight(S, 1), builtin_logweight(S, "cardinality")]
    else:
        S = kary_tree(2, 3)
        lams = [random_logweight(S, 1)]
    # the element pass's answers, before the cap comes down
    expect = [_all_fields(propagation_profile(S, lam, L)) for lam in lams
              for L in lam.distinct_values()]
    if host == "above the cap":
        monkeypatch.setattr(propagation, "FULL_VALIDATE_CAP", S.n - 1)
    assert propagation._element_world(S) is None
    monkeypatch.setattr(propagation, "_element_first_levels", None)
    guarded = _fresh(S)     # whose element world is built under the cap
    assert [_all_fields(propagation_profile(guarded, lam, L)) for lam in lams
            for L in lam.distinct_values()] == expect == \
        [_all_fields(_pair_pass_profile(S, lam, L)) for lam in lams
         for L in lam.distinct_values()]


@pytest.mark.parametrize("table", [[[0, 0], [1, 1]],
                                   [[0, 0, 0], [0, 1, 1], [0, 0, 2]]],
                         ids=["x*y=x", "lower corner off"])
def test_the_element_guard_asks_for_a_commutative_table(table):
    # both pass the meet identity on the pairs x <= y (x * y = x on every
    # pair too), which is the meet order only on a commutative table
    S = Semilattice.from_table(table)
    assert core.meet_identity_failure(S.product_table_np()) is None
    assert propagation._element_world(S) is None


@pytest.mark.parametrize("cell, E, message", [
    (5, [10, 30], "20, a factor of 19 * 30 = 19, is not a factor of the "
     "join 10"),
    (15, [10, 20], "10, a generator, is not a factor of the join 15")],
    ids=["a product's factor", "a generator"])
def test_a_closure_that_leaves_its_join_raises_not_closed(cell, E, message):
    # validate refuses a 300-element min-table with one bad symmetric cell;
    # a library caller who skips it meets the pair pass's own guard, at an
    # element outside the factors of the join
    table = [[min(x, y) for y in range(300)] for x in range(300)]
    table[10][20] = table[20][10] = cell
    S = Semilattice.from_table(table)
    assert not S.validate().ok
    with pytest.raises(core.NotClosedError) as exc:
        v_value(S, builtin_logweight(S, "zero"), mask_of(E), 17)
    assert str(exc.value) == message


def test_element_world_of_a_chain():
    # on chain(m), x is a factor of t when t <= x, and a round covers z when
    # the min of some pair is at most z: every pair, less those above z
    A, K = propagation._element_world(chain(6))
    assert np.array_equal(A, np.triu(np.ones((6, 6))))
    expect = -np.eye(6, k=1)
    expect[:, 0] = 1
    assert np.array_equal(K, expect)


@st.composite
def _valid_host(draw):
    """A host that ``validate`` accepts, on at most 12 elements: the meet
    table of a random rooted tree (each node's parent an earlier id), the
    product table of a random union-closed family, the ``sch_embed`` image
    of either, or the family itself."""
    kind = draw(st.sampled_from(["tree", "table", "family", "embedded tree",
                                 "embedded family"]))
    if kind.endswith("tree"):
        below = [{0}]                   # each node's ancestors and itself
        for i in range(1, draw(st.integers(1, 12))):
            below.append(below[draw(st.integers(0, i - 1))] | {i})
        S = Semilattice.from_table([[max(x & y) for y in below]
                                    for x in below])
    else:
        k = draw(st.integers(1, 5))
        sets = draw(st.sets(st.frozensets(st.integers(0, k - 1)), min_size=1,
                            max_size=6))
        S = Semilattice.from_sets(range(k), [sorted(m) for m in sets],
                                  close=True)
        assume(S.n <= 12)
        if kind == "table":
            S = Semilattice.from_table(S.product_table_np().tolist())
    if kind.startswith("embedded"):
        S = sch_embed(S).semilattice
    assert S.validate().ok
    return S


@settings(max_examples=60, deadline=None)
@given(S=_valid_host())
def test_element_world_inverts_by_the_moebius_function(S):
    # K = A.T @ inv(A), and inv(A) is the Moebius function of the order
    A, K = propagation._element_world(S)
    assert np.array_equal(K, A.T @ naive_moebius(S))


def test_an_inexact_inverse_sends_profiles_to_the_pair_pass(monkeypatch):
    # guard (b): an inverse off by one in one entry fails A @ X = I, so the
    # host has no element world and its profiles are the pair pass's
    S, inv = kary_tree(2, 3), np.linalg.inv

    def off_by_one(A):
        X = inv(A)
        X[0, -1] += 1
        return X

    lams = [random_logweight(S, 1), builtin_logweight(S, "zero")]
    expect = [_all_fields(_pair_pass_profile(S, lam, L)) for lam in lams
              for L in lam.distinct_values()]
    monkeypatch.setattr(np.linalg, "inv", off_by_one)
    assert propagation._element_world(S) is None
    monkeypatch.setattr(propagation, "_element_first_levels", None)
    assert [_all_fields(propagation_profile(_fresh(S), lam, L))
            for lam in lams for L in lam.distinct_values()] == expect


_ELEMENT_HOSTS = {spec: generate_instance(spec) for spec in (
    "tree(2,3)", "tree(3,2)", "tree(2,4)", "chain(1)", "chain(5)",
    "chain(12)", "fin(9,2)")}
_ELEMENT_HOSTS.update({f"sch_embed({spec})": sch_embed(generate_instance(
    spec)).semilattice for spec in ("tree(2,2)", "tree(3,2)", "chain(6)")})
_ELEMENT_HOSTS.update({f"chain_system({k})": chain_system(k) for k in (5, 12)})
_ELEMENT_HOSTS["fin(9,2) less {1,2}"] = without_member(fin_truncation(9, 2),
                                                       [1, 2])


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(sorted(_ELEMENT_HOSTS)),
       wname=st.sampled_from(["random", "cardinality", "zero", "distinct"]),
       seed=st.integers(0, 10_000),
       budget=st.sampled_from([1, 5, 40, 500_000]), data=st.data())
def test_element_pass_matches_the_pair_pass(spec, wname, seed, budget, data):
    # every set-system level set skips the subset pass, so each profile
    # runs on the element pass or, forced, on the pair pass
    S = _ELEMENT_HOSTS[spec]
    assume(wname != "cardinality" or S.kind == "set_system")
    if wname == "random":
        lam = random_logweight(S, seed)
    elif wname == "distinct":
        lam = LogWeight.from_values([Fraction(v, 3) for v in random.Random(
            seed).sample(range(10 * S.n), S.n)])
    else:
        lam = builtin_logweight(S, wname)
    assert propagation._element_world(S) is not None
    L = data.draw(st.sampled_from(lam.distinct_values()), label="L")
    kw = dict(budget=budget, seed=seed, samples=25)
    element = _element_pass_profile(S, lam, L, **kw)
    pair = _pair_pass_profile(S, lam, L, **kw)
    assert _all_fields(element) == _all_fields(pair)


def test_profile_of_tree_2_6_at_a_random_weight_is_fast(monkeypatch):
    # 127 elements: the element pass answers, never the pair-by-pair pass
    def no_pair_pass(*args):
        raise AssertionError("the pair-by-pair pass ran")

    monkeypatch.setattr(propagation, "_knuth_first_levels", no_pair_pass)
    S = kary_tree(2, 6)
    lam = random_logweight(S, 5)
    prof = propagation_profile(S, lam, Fraction(7, 3))
    assert (prof.value, prof.witness_E, prof.witness_z, prof.nodes) == \
        (PropagationValue.finite(Fraction(7, 3)), 1, 26, 116831)


# -- kept curves --------------------------------------------------------------

_CURVE_TABLES = [generate_instance(spec) for spec in ("tree(2,3)", "tree(3,2)",
                                                      "chain(6)")]


def _profile_outcome(S, lam, L, **kw):
    try:
        prof = propagation_profile(S, lam, L, **kw)
    except BudgetExceeded:
        return "budget"
    return (prof.L, *_all_fields(prof))


def _fresh_outcome(S, lam, L, **kw):
    """``_profile_outcome`` on copies of S and of the weight: a host copy
    alone would replace the weight's kept curve with its own."""
    return _profile_outcome(copy.copy(S), copy.copy(lam), L, **kw)


def _count_walks(monkeypatch):
    """The number of incompressible-set walks from here on, in a list."""
    walks, walk = [0], propagation._incompressible
    monkeypatch.setattr(propagation, "_incompressible", lambda *a, **kw: (
        walks.__setitem__(0, walks[0] + 1), walk(*a, **kw))[1])
    return walks


@settings(max_examples=60, deadline=None)
@given(S=st.one_of(_profile_host(), st.sampled_from(_CURVE_TABLES)),
       wname=st.sampled_from(["random", "cardinality", "prototype"]),
       seed=st.integers(0, 10_000), data=st.data())
def test_profiles_read_from_a_kept_curve_match_the_fresh_path(S, wname, seed,
                                                             data):
    # 2-5 levels in any order, each under its own budget, which may cut
    # the walk, with strict on or off
    if wname == "random":
        lam = random_logweight(S, seed)
    else:
        try:
            lam = builtin_logweight(S, wname)
        except (PrototypeMissingTop, TypeError):
            assume(False)
    levels = data.draw(st.lists(st.sampled_from(sorted(set(lam.values()))),
                                min_size=2, max_size=5), label="levels")
    for L in levels:
        kw = dict(budget=data.draw(st.sampled_from([3, 30, 300, 3000]),
                                   label="budget"),
                  strict=data.draw(st.booleans(), label="strict"),
                  seed=seed, samples=20)
        assert _profile_outcome(S, lam, L, **kw) == \
            _fresh_outcome(S, lam, L, **kw)


def test_one_weight_on_two_hosts_of_one_size(monkeypatch):
    # tree(2,3) and pstar(4) both have 15 elements: a curve kept on one host
    # is never read on the other, and each profile replaces it
    A, B = generate_instance("tree(2,3)"), generate_instance("pstar(4)")
    lam = random_logweight(A, 3)
    high, low = max(lam.values()), min(lam.values())
    walks = _count_walks(monkeypatch)
    for S, L in ((A, high), (B, low), (A, low), (B, high), (B, low)):
        assert _profile_outcome(S, lam, L) == _fresh_outcome(S, lam, L)
        assert propagation._MEMO[lam][propagation_profile][0]() is S
    assert walks[0] == 2 * 5 - 1        # only the last profile reads a curve


def test_an_equal_level_set_at_another_level(monkeypatch):
    # cardinality on pstar(4): L = 5/2 and L = 2 have one level set
    S = free_nonempty(4)
    lam = builtin_logweight(S, "cardinality")
    assert level_set(S, lam, Fraction(5, 2)) == level_set(S, lam, 2)
    walks = _count_walks(monkeypatch)
    propagation_profile(S, lam, Fraction(5, 2))
    got = _profile_outcome(S, lam, 2)
    assert walks[0] == 1 and got[0] == 2
    assert got == _fresh_outcome(S, lam, 2)


def test_a_lower_level_takes_its_own_tie_order(monkeypatch):
    # at L = 1/2 the witness reaches 4 and 8 at the top level, and the set
    # of that level's three targets iterates 8 first; the kept level's 15
    # targets put 4 first
    S = free_nonempty(4)
    lam = random_logweight(S, 14)
    low = Fraction(1, 2)
    walks = _count_walks(monkeypatch)
    propagation_profile(S, lam, max(lam.values()))
    prof = propagation_profile(S, lam, low)
    assert walks[0] == 1
    W = list(bits(level_set(S, lam, low)))
    tied = [z for z in W if v_value(S, lam, prof.witness_E, z) == prof.value]
    assert tied == [4, 8] and list(set(tied)) == [8, 4]
    assert list(set(range(15))).index(4) < list(set(range(15))).index(8)
    assert prof.witness_z == 8
    assert _all_fields(prof) == _fresh_outcome(S, lam, low)[1:]


def test_a_kept_curve_lets_its_host_and_weight_go():
    S = kary_tree(2, 3)
    lam = random_logweight(S, 1)
    propagation_profile(S, lam, max(lam.values()))
    assert propagation._MEMO[lam][propagation_profile][0]() is S
    refs = [weakref.ref(S), weakref.ref(lam)]
    del S, lam
    gc.collect()
    assert [r() for r in refs] == [None, None]


# -- the two closure passes --------------------------------------------------

# joins of up to 7 points, with and without a collapsed top, and sparse
# families whose subsets of a join are mostly not members
_PASS_HOSTS = {spec: generate_instance(spec) for spec in (
    "pstar(6)", "pstar(7)", "powerset(6)", "fin(6,5)", "fin(8,6)", "fin(7,3)")}
_PASS_HOSTS.update({f"sch_embed({spec})": sch_embed(generate_instance(spec))
                    .semilattice for spec in ("tree(2,3)", "pstar(3)")})


def _world(S, lam, G):
    """``_subset_world`` of G with each element's local index, the collapsed
    top's among them."""
    at, levels, rank, absorbing = propagation._subset_world(S, lam, G)
    pos = {z: s for s, z in enumerate(S.ids_of(at).tolist()) if z >= 0}
    return pos, levels, rank, absorbing


def _both_passes(S, lam, E_ids):
    """First levels of every factor of the product of E by each pass."""
    J = S.product_ids(E_ids)
    knuth = propagation._knuth_first_levels(S, lam, E_ids, range(S.n),
                                            S.iter_factors, J)
    pos, levels, rank, absorbing = _world(S, lam, S.member_mask(J))
    seeds = np.zeros((1, len(rank)), dtype=bool)
    seeds[0, [pos[e] for e in E_ids]] = True
    first = propagation._subset_first_levels(seeds, rank, len(levels),
                                             absorbing, list(pos.values()))
    return knuth, {z: levels[i] for z, i in zip(pos, first[0])}


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(_PASS_HOSTS)), seed=st.integers(0, 10_000),
       data=st.data())
def test_closure_passes_agree_with_oracles(spec, seed, data):
    S = _PASS_HOSTS[spec]
    lam = random_logweight(S, seed)
    E_ids = sorted(data.draw(st.sets(st.integers(0, S.n - 1), min_size=1,
                                     max_size=4), label="E"))
    knuth, subset = _both_passes(S, lam, E_ids)
    assert knuth == subset
    z = data.draw(st.sampled_from(sorted(knuth)), label="z")
    assert _dense_v_oracle(S, lam, E_ids, z) == knuth[z]
    if S.n <= 16:
        assert naive_v(S, lam, mask_of(E_ids), z) == knuth[z]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_subset_pass_matches_naive_v_on_a_cube(seed):
    S = _PASS_HOSTS["pstar(6)"]     # naive_v takes seconds on larger hosts
    lam = random_logweight(S, seed)
    rng = random.Random(seed)
    full = (1 << 6) - 1
    while True:                 # generators whose union is all six points
        E_ids = rng.sample(range(S.n), 3)
        if S.member_mask(S.product_ids(E_ids)) == full:
            break
    for z in (S.id_of_mask(full), rng.randrange(S.n)):
        expect = naive_v(S, lam, mask_of(E_ids), z)
        assert v_value(S, lam, mask_of(E_ids), z) == \
            PropagationValue.finite(expect)


@pytest.mark.parametrize("spec", ["pstar(7)", "fin(9,7)"])
@pytest.mark.parametrize("points", [5, 6, 7])
@pytest.mark.parametrize("wname", ["prototype", "cardinality", "random:4"])
def test_joins_around_the_crossover(spec, points, wname):
    # singletons to one point short of their join: a fitting join of any
    # size takes the integer row, with the answer of the pair pass, of the
    # array subset pass and of the dense oracle
    S = generate_instance(spec)
    lam = random_logweight(S, 4) if wname == "random:4" else \
        builtin_logweight(S, wname)
    E_ids = [S.id_of_mask(1 << i) for i in range(points)]
    z = S.id_of_mask((1 << points) - 2)
    v, passes = _passes_taken(partial(v_value, S, lam, mask_of(E_ids), z))
    assert passes == ["row"]
    knuth, subset = _both_passes(S, lam, E_ids)
    assert knuth == subset
    assert v == PropagationValue.finite(knuth[z])
    assert _dense_v_oracle(S, lam, E_ids, z) == v.c


_REACH_HOSTS = {k: free_nonempty(k) for k in (8, 9)}


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from(sorted(_REACH_HOSTS)),
       wname=st.sampled_from(["cardinality", "prototype", "random"]),
       seed=st.integers(0, 10_000), data=st.data())
def test_wide_joins_without_a_top_match_the_pair_pass(k, wname, seed, data):
    # generators whose union has 6-8 points, and a target one point short of
    # it: integer rows over up to 256 subsets, no collapsed top
    S = _REACH_HOSTS[k]
    lam = random_logweight(S, seed) if wname == "random" else \
        builtin_logweight(S, wname)
    pts = data.draw(st.permutations(range(k)), label="points")[
        :data.draw(st.integers(6, 8), label="points in the union")]
    owner = data.draw(st.lists(st.integers(0, 3), min_size=len(pts),
                               max_size=len(pts)), label="owners")
    extra = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=4,
                               max_size=4), label="extra points")
    union = mask_of(pts)
    masks = {union & (extra[g] | mask_of(p for p, o in zip(pts, owner)
                                         if o == g)) for g in range(4)}
    E_ids = sorted(S.id_of_mask(m) for m in masks - {0})
    z = S.id_of_mask(union & ~(1 << data.draw(st.sampled_from(pts),
                                              label="dropped point")))
    with mock.patch.object(propagation, "_row_first_level",
                           wraps=propagation._row_first_level) as row:
        v = v_value(S, lam, mask_of(E_ids), z)
    assert row.call_count == 1
    knuth = propagation._knuth_first_levels(S, lam, E_ids, [z], S.iter_factors,
                                            S.product_ids(E_ids))
    assert v == PropagationValue.finite(knuth[z])


@pytest.mark.parametrize("wname", ["cardinality", "prototype"])
def test_subset_pass_stops_on_the_round_that_reaches_the_target(wname):
    # the pass starts at the level of the six-point target: singletons pair
    # into two-, four- and then six-point members, and the target is read
    # before a fourth round
    S = _REACH_HOSTS[8]
    lam = builtin_logweight(S, wname)
    E = mask_of(S.id_of_mask(1 << p) for p in range(7))
    z = S.id_of_mask(0b1111110)
    with mock.patch.object(propagation, "_row_round",
                           wraps=propagation._row_round) as rounds:
        assert v_value(S, lam, E, z) == PropagationValue.finite(6)
    assert rounds.call_count == 3


def test_sparse_families_stay_on_the_pair_pass(monkeypatch):
    # 30 nested sets: the join has 30 points but only 30 members below it
    S = chain_system(30)
    lam = builtin_logweight(S, "cardinality")
    monkeypatch.setattr(propagation, "_subset_first_levels", None)
    assert v_value(S, lam, mask_of(range(S.n)), 0) == \
        PropagationValue.finite(1)


# -- the subset pass on a block ------------------------------------------------

@pytest.mark.parametrize("k", [15, 16])     # int32 counts, then int64
def test_pair_unions_of_a_full_cube(k):
    # every subset is under a pair union, and all 4**k pairs cover the empty
    # set: 2**30 fits int32, 2**32 needs int64
    R = np.ones((1 << k, 1), dtype=bool)
    assert propagation._pair_unions(R).all()


def test_pair_unions_of_a_block_at_15_points():
    k, rng = 15, random.Random(15)
    columns = [[(1 << k) - 1], [], [0]] + [
        [mask_of(rng.sample(range(k), rng.randrange(4))) for _ in range(12)]
        for _ in range(5)]
    R = np.zeros((1 << k, len(columns)), dtype=bool)
    for c, sets in enumerate(columns):
        R[sets, c] = True
    t = columns[3][0] | columns[3][1]           # a union of column 3
    top = np.arange(1 << k) & t == t            # the sets above it, an up-set
    above = np.flatnonzero(top).tolist()
    U = propagation._pair_unions(R)
    topped = propagation._pair_unions(R, top)
    for c, (plain, full) in enumerate(zip(naive_pair_unions(columns, (), k),
                                          naive_pair_unions(columns, above,
                                                            k))):
        assert set(np.flatnonzero(U[:, c]).tolist()) == plain
        assert set(np.flatnonzero(topped[:, c]).tolist()) == full
    assert topped[:, 3].all() and not topped[:, 1].any()


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["fin(6,3)", "fin(7,3)", "fin(4,2) less {0,1}"]),
       seed=st.integers(0, 10_000), data=st.data())
def test_subset_pass_blocks_match_single_rows_and_the_pair_pass(spec, seed,
                                                                data):
    # rows may seed the top, and the top is a target
    S = _PROFILE_HOSTS[spec]
    lam = random_logweight(S, seed)
    pos, levels, rank, absorbing = _world(S, lam, (1 << len(S.ground)) - 1)
    members = list(pos)
    rows = data.draw(st.lists(st.lists(st.sampled_from(members), min_size=1,
                                       max_size=4, unique=True),
                              min_size=1, max_size=8), label="rows")
    assume(any(S.product_ids(E_ids) == S.top_id for E_ids in rows))
    seeds = np.zeros((len(rows), len(rank)), dtype=bool)
    for r, E_ids in enumerate(rows):
        seeds[r, [pos[e] for e in E_ids]] = True
    run = partial(propagation._subset_first_levels, rank=rank,
                  nlevels=len(levels), absorbing=absorbing,
                  cols=[pos[z] for z in members])
    block = run(seeds)
    for r, E_ids in enumerate(rows):
        alone = run(seeds[r:r + 1])
        assert alone[0].tolist() == block[r].tolist()
        knuth = propagation._knuth_first_levels(
            S, lam, E_ids, members, S.iter_factors, S.product_ids(E_ids))
        assert {z: levels[i] for z, i in zip(members, block[r]) if i >= 0} \
            == {z: knuth[z] for z in members if z in knuth}


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(_PASS_HOSTS)), seed=st.integers(0, 10_000),
       data=st.data())
def test_subset_pass_on_chosen_targets(spec, seed, data):
    # one target, only targets at or above a drawn level (the pass then
    # starts above level 0), or any targets, some outside a row's join; rows
    # run alone and as one block, which may seed or target a collapsed top
    # and hold joins on it
    S = _PASS_HOSTS[spec]
    lam = random_logweight(S, seed)
    pos, levels, rank, absorbing = _world(S, lam, (1 << len(S.ground)) - 1)
    members = sorted(pos)
    rows = data.draw(st.lists(st.lists(st.sampled_from(members), min_size=1,
                                       max_size=4, unique=True),
                              min_size=1, max_size=6), label="rows")
    floor = data.draw(st.integers(0, len(levels) - 1), label="lowest level")
    high = [z for z in members if rank[pos[z]] >= floor]
    targets = data.draw(st.one_of(
        st.tuples(st.sampled_from(members)),
        st.lists(st.sampled_from(high), min_size=1, unique=True),
        st.lists(st.sampled_from(members), min_size=1, unique=True)),
        label="targets")
    seeds = np.zeros((len(rows), len(rank)), dtype=bool)
    for r, E_ids in enumerate(rows):
        seeds[r, [pos[e] for e in E_ids]] = True
    run = partial(propagation._subset_first_levels, rank=rank,
                  nlevels=len(levels), absorbing=absorbing)
    cols = [pos[z] for z in targets]
    block = run(seeds, cols=cols)
    every = run(seeds, cols=[pos[z] for z in members])
    assert block.tolist() == \
        every[:, [members.index(z) for z in targets]].tolist()
    for r, E_ids in enumerate(rows):
        alone = run(seeds[r:r + 1], cols=cols)
        assert alone[0].tolist() == block[r].tolist()
        knuth = propagation._knuth_first_levels(
            S, lam, E_ids, targets, S.iter_factors, S.product_ids(E_ids))
        assert {z: levels[i] for z, i in zip(targets, block[r]) if i >= 0} \
            == {z: knuth[z] for z in targets if z in knuth}


# a collapsed top one point short of the ground: the seventh point is a
# member alone, and its union with any other nonempty member collapses
_SHORT_TOP = Semilattice.from_json({
    "kind": "set_system", "ground": [str(p) for p in range(7)],
    "elements": [[]] + [list(c) for m in (1, 2) for c in combinations(range(6),
                                                                      m)]
    + [[6], list(range(6))], "collapsed_top": 23})


# a collapsed top over a sparse family: {1} is no member, yet lies under the
# member {0, 1}, so it is not absorbing, while the non-members under no
# member, such as {0, 2}, are
_SPARSE_TOP = Semilattice.from_json({
    "kind": "set_system", "ground": [str(p) for p in range(4)],
    "elements": [[], [0], [0, 1], [2], [3], [0, 1, 2, 3]], "collapsed_top": 5})
_ROW_SPECS = ("pstar(4)", "powerset(4)", "pstar(8)", "fin(24,8)", "fin(6,3)",
              "fin(4,2) less {0,1}", "short top", "sparse top")
_ROW_HOSTS = {"fin(6,3)": _PROFILE_HOSTS["fin(6,3)"],
              "fin(4,2) less {0,1}": _PROFILE_HOSTS["fin(4,2) less {0,1}"],
              "short top": _SHORT_TOP, "sparse top": _SPARSE_TOP}


def _row_host(spec):
    """The host of ``spec``, a generator spec or ``one-point top k``, built
    on first use."""
    if spec not in _ROW_HOSTS:
        _ROW_HOSTS[spec] = Semilattice.from_json(one_point_top_json(
            int(spec.split()[-1]))) if spec.startswith("one-point top") \
            else generate_instance(spec)
    return _ROW_HOSTS[spec]


#: hosts whose joins may collapse: truncations, a family that is not one,
#: and one-point tops on 6 to 10 points, whose top lies outside the sets it
#: is the join of
_COLLAPSED_SPECS = ("fin(6,3)", "fin(7,3)", "fin(4,2) less {0,1}",
                    "short top", "sparse top",
                    *(f"one-point top {k}" for k in range(6, 11)))


@settings(max_examples=120, deadline=None)
@given(spec=st.sampled_from(sorted(_COLLAPSED_SPECS)),
       wname=st.sampled_from(["random", "cardinality", "prototype"]),
       seed=st.integers(0, 10_000), data=st.data())
def test_v_value_on_collapsed_joins_matches_the_pair_pass(spec, wname, seed,
                                                          data):
    # a join that collapses to the top takes the integer row exactly when
    # the points of E and z fit the density rule, over the subsets of those
    # points alone: in the index of a kept ground, else in a world of their
    # own, and answers as the pair pass does
    S = _row_host(spec)
    try:
        lam = random_logweight(S, seed) if wname == "random" else \
            builtin_logweight(S, wname)
    except PrototypeMissingTop:
        assume(False)
    E_ids = sorted(data.draw(st.sets(st.integers(0, S.n - 1), min_size=1,
                                     max_size=4), label="E"))
    assume(S.product_ids(E_ids) == S.top_id)
    z = data.draw(st.integers(0, S.n - 1), label="z")
    knuth = propagation._knuth_first_levels(S, lam, E_ids, [z],
                                            S.iter_factors, S.top_id)
    G = int(np.bitwise_or.reduce(S.masks_of([z, *E_ids])))
    seen, spans = [], []
    build, row = propagation._subset_world, propagation._row_first_level
    with mock.patch.object(propagation, "_subset_world",
                           lambda S, lam, G: seen.append(G) or
                           build(S, lam, G)), \
            mock.patch.object(propagation, "_row_first_level",
                              lambda *a: spans.append(a[4]) or row(*a)):
        answer, passes = _passes_taken(partial(v_value, S, lam,
                                               mask_of(E_ids), z))
    assert answer == PropagationValue.finite(knuth[z])
    fits = S.subsets_fit(G)
    ground = propagation._memo(S, propagation._ground_ids) is not None
    assert passes == (["row"] if fits else ["pair"])
    assert seen == ([G] if fits and not ground else [])
    assert spans == ([G if ground else (1 << G.bit_count()) - 1] if fits
                     else [])


def _truncated_top_json(k, drawn, c):
    """The members of at most c points of the union closure of the ``drawn``
    masks on k points, and the whole ground as the collapsed top, last in
    canonical order."""
    closed = {0}
    for m in drawn:
        closed |= {m | x for x in closed}
    elements = [list(bits(m)) for m in sorted(closed) if m.bit_count() <= c]
    return {"kind": "set_system", "ground": [str(p) for p in range(k)],
            "elements": elements + [list(range(k))],
            "collapsed_top": len(elements)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000))
def test_absorbing_subsets_are_an_up_set_that_marks_the_collapsing_unions(
        data, seed):
    # on truncations of random union-closed families and on one-point tops,
    # the absorbing subsets of the ground are up-closed and hold a union of
    # two members exactly when their product is the top; closures that read
    # them answer as the pair pass does
    if data.draw(st.booleans(), label="one-point top"):
        obj = one_point_top_json(data.draw(st.integers(3, 10), label="k"))
    else:
        k = data.draw(st.integers(3, 7), label="k")
        obj = _truncated_top_json(
            k, data.draw(st.lists(st.integers(1, (1 << k) - 1), max_size=12),
                         label="drawn"),
            data.draw(st.integers(1, k - 1), label="c"))
    S = Semilattice.from_json(obj)
    assert S.validate().ok
    k = len(S.ground)
    _, absorbing = propagation._subset_ids(S, np.arange(1 << k))
    assert np.array_equal(core._subset_sweep(absorbing.copy(), np.bitwise_or),
                          absorbing)
    masks = S.member_masks_np()
    assert np.array_equal(absorbing[masks[:, None] | masks],
                          S.product_table_np() == S.top_id)
    lam = random_logweight(S, seed)
    for _ in range(5):
        E_ids = data.draw(st.sets(st.integers(0, S.n - 1), min_size=1,
                                  max_size=4), label="E")
        _check_row(S, lam, sorted(E_ids),
                   data.draw(st.integers(0, S.n - 1), label="z"))


@st.composite
def _family_json(draw):
    """A random union-closed family on 3-9 points, as JSON: the union
    closure of the drawn masks, or its truncation with the whole ground as
    the collapsed top."""
    k = draw(st.integers(3, 9))
    drawn = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=k,
                          max_size=16))
    if draw(st.booleans()):
        return _truncated_top_json(k, drawn, draw(st.integers(k // 2, k - 1)))
    closed = {0}
    for m in drawn:
        closed |= {m | x for x in closed}
    return {"kind": "set_system", "ground": [str(p) for p in range(k)],
            "elements": [list(bits(m)) for m in sorted(closed)]}


def _no_ground(S):
    return None


@settings(max_examples=80, deadline=None)
@given(obj=_family_json(),
       wname=st.sampled_from(["random", "cardinality", "prototype"]),
       seed=st.integers(0, 10_000), data=st.data())
def test_ground_route_matches_the_local_route_and_the_oracles(obj, wname,
                                                              seed, data):
    # families that keep their ground: v_value in the ground's own index
    # answers as in a world of the points of E and z alone (no ground
    # kept), as the pair pass and as naive_v.  One weight asked in turn on
    # the host and on a copy with its points permuted, of the same n,
    # answers as a fresh weight on each
    S = Semilattice.from_json(obj)
    assume(propagation._memo(S, propagation._ground_ids) is not None)
    perm = data.draw(st.permutations(range(len(S.ground))), label="perm")
    twin = Semilattice.from_json({**obj, "elements": [
        [perm[p] for p in e] for e in obj["elements"]]})
    try:
        lam, *fresh = (random_logweight(S, seed) if wname == "random" else
                       builtin_logweight(S, wname) for _ in range(3))
    except PrototypeMissingTop:
        assume(False)
    for _ in range(3):
        for host, own in zip((S, twin), fresh):
            E_ids = sorted(data.draw(st.sets(st.integers(0, host.n - 1),
                                             min_size=1, max_size=4),
                                     label="E"))
            J = host.product_ids(E_ids)
            z = data.draw(st.sampled_from(sorted(host.iter_factors(J))) |
                          st.integers(0, host.n - 1), label="z")
            E = mask_of(E_ids)
            got = v_value(host, lam, E, z)
            assert got == v_value(host, own, E, z)
            with mock.patch.object(propagation, "_ground_ids", _no_ground):
                assert v_value(host, lam, E, z) == got
            c = propagation._knuth_first_levels(
                host, lam, E_ids, [z], host.iter_factors, J).get(z) \
                if host.leq(J, z) else None
            assert got == (INFINITE if c is None else
                           PropagationValue.finite(c))
            if host.n <= 64:
                assert naive_v(host, lam, E, z) == c


def test_point_ints_match_packed_bytes():
    # each H_j doubled up from its period, against the ints read from the
    # packed bits of every subset
    for k in range(17):
        assert propagation._point_ints(k) == packed_point_ints(k)


def _spy_on_row_rounds(monkeypatch):
    """The count of integer-row rounds of each form from here on: an
    expansion over maximal members, or a fallback to ``_pair_unions`` past
    the budget."""
    forms, fell_back = Counter(), []
    row_round, pair_unions = propagation._row_round, propagation._pair_unions

    def unions(*args):
        fell_back.append(True)
        return pair_unions(*args)

    def spy(*args):
        fell_back.clear()
        held = row_round(*args)
        forms["fallback" if fell_back else "expansion"] += 1
        return held

    monkeypatch.setattr(propagation, "_pair_unions", unions)
    monkeypatch.setattr(propagation, "_row_round", spy)
    return forms


def _check_row(S, lam, E_ids, z):
    """``v_value`` against the pair pass, and against ``naive_v`` on a small
    host."""
    J = S.product_ids(E_ids)
    c = propagation._knuth_first_levels(S, lam, E_ids, [z], S.iter_factors,
                                        J).get(z) if S.leq(J, z) else None
    assert v_value(S, lam, mask_of(E_ids), z) == \
        (INFINITE if c is None else PropagationValue.finite(c))
    if S.n <= 24:
        assert naive_v(S, lam, mask_of(E_ids), z) == c


def test_integer_row_matches_the_pair_pass_and_naive_v(monkeypatch):
    # listed cubes, the rank-storage fin(24,8) at 3- and 6-point joins, and
    # collapsed tops, one with a non-member under a member; seeds of
    # every rank, joins on the top, targets one point short of the join, in
    # and out of the filter; then one query that each round form must serve
    forms = _spy_on_row_rounds(monkeypatch)

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from(_ROW_SPECS),
           wname=st.sampled_from(["random", "cardinality", "prototype"]),
           seed=st.integers(0, 10_000), data=st.data())
    def check(spec, wname, seed, data):
        S = _row_host(spec)
        if spec == "fin(24,8)":     # a random weight takes seconds here
            assume(wname != "random")
        try:
            lam = random_logweight(S, seed) if wname == "random" else \
                builtin_logweight(S, wname)
        except PrototypeMissingTop:
            assume(False)
        k = len(S.ground)
        sizes = {"fin(24,8)": [3, 6], "pstar(8)": [6, 7, 8]}.get(
            spec, range(1, k + 1))
        points = data.draw(st.permutations(range(k)), label="points")[
            :data.draw(st.sampled_from(sizes), label="join")]
        parts = data.draw(st.lists(st.sets(st.sampled_from(points),
                                           min_size=1), max_size=3),
                          label="generators")
        masks = {mask_of(p) for p in parts} | {1 << p for p in points}
        E_ids = sorted({S.id_of_mask(m) for m in masks} - {None})
        assume(E_ids)
        if S.top_id is not None and spec != "fin(24,8)" and \
                data.draw(st.booleans(), label="top seed"):
            E_ids = sorted({*E_ids, S.top_id})
        J = S.product_ids(E_ids)
        join = S.member_mask(J)
        short = {S.id_of_mask(join & ~(1 << p)) for p in bits(join)} - {None}
        z = data.draw(st.sampled_from(sorted(short or {J})) |
                      st.sampled_from(sorted(S.iter_factors(J))) |
                      st.integers(0, S.n - 1), label="z")
        _check_row(S, lam, E_ids, z)

    check()
    cube, small = _row_host("pstar(8)"), _row_host("pstar(4)")
    for S, z in ((small, 0b111), (cube, 0x7f)):     # cube: 280 steps at 4
        _check_row(S, builtin_logweight(S, "cardinality"),
                   [S.id_of_mask(1 << p) for p in range(len(S.ground))],
                   S.id_of_mask(z))
    # {0, 1} lies over the non-member {1} at level 1; its union with {3}, the
    # top, forms at level 2 and brings in {2}
    assert [_SPARSE_TOP.member_mask(x) for x in (4, 3, 2)] == [0b11, 8, 4]
    _check_row(_SPARSE_TOP, LogWeight.from_values([0, 1, 1, 2, 1, 2]), [3, 4],
               2)
    assert set(forms) == {"expansion", "fallback"}


def test_subset_pass_refuses_a_wide_join_before_allocating():
    S = generate_instance("fin(23,22)")     # the 23-cube, rank storage
    lam = builtin_logweight(S, "zero")
    singles = mask_of(S.id_of_mask(1 << i) for i in range(23))
    top = S.id_of_mask((1 << 23) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="23 points"):
            v_value(S, lam, singles, top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- closure worlds reused --------------------------------------------------------

_REUSE_SPECS = ("pstar(3)", "pstar(6)", "pstar(8)", "pstar(9)", "fin(6,3)",
                "fin(7,3)", "fin(8,6)", "fin(9,7)")
_REUSED = {}    # (host key, weight name) -> (host, weight), across examples


def _reuse_host(key):
    """A new host for ``key``: a generator spec, or the point count and the
    sets of a family closed under unions."""
    if isinstance(key, str):
        return generate_instance(key)
    k, sets = key
    return Semilattice.from_sets(range(k), sorted(map(sorted, sets)),
                                 close=True)


def _mask_world_weight(S, wname, data):
    """A weight that is a function of the member mask: a builtin, or eta on
    nested prefixes of a drawn order of the ground's points."""
    if wname == "scaled":
        q = data.draw(st.sampled_from([0, Fraction(1, 2), 3]), label="q")
        return builtin_logweight(S, "scaled", {"q": q})
    if wname != "eta":
        return builtin_logweight(S, wname)
    points = data.draw(st.permutations(range(len(S.ground))), label="points")
    cuts = sorted(data.draw(st.sets(st.integers(1, len(points) - 1),
                                    max_size=3), label="cuts"))
    cumulative = [mask_of(points[:i]) for i in (0, *cuts, len(points))]
    marker_sets = [D & ~C for C, D in zip(cumulative, cumulative[1:])]
    return eta_weight(AdversarialChain(len(marker_sets), marker_sets,
                                       [[] for _ in marker_sets], cumulative),
                      S)


@settings(max_examples=80, deadline=None)
@given(rank=st.booleans(), wname=st.sampled_from(
    ["cardinality", "prototype", "scaled", "eta"]), data=st.data())
def test_mask_worlds_match_id_worlds(rank, wname, data):
    # with no ground kept, a weight of member masks builds G's world from
    # masks: membership by the host, levels by num_masks, no id read.  The
    # same values stored per id take the id route; both worlds are equal,
    # on truncations in rank storage (membership by the count rule) and on
    # listed collapsed-top families that are no cubes
    if rank:
        spec = data.draw(st.sampled_from(["pstar(5)", "powerset(4)",
                                          "fin(6,3)", "fin(7,2)", "fin(8,5)"]),
                         label="spec")
        with mock.patch.object(core, "IMPLICIT_THRESHOLD", 0):
            S = generate_instance(spec)
        assert S._masks is None
    else:
        k = data.draw(st.integers(3, 8), label="k")
        S = Semilattice.from_json(_truncated_top_json(
            k, data.draw(st.lists(st.integers(1, (1 << k) - 1), max_size=12),
                         label="drawn"),
            data.draw(st.integers(1, k - 1), label="c")))
        assume(S.truncation_bound() is None)
    lam = _mask_world_weight(S, wname, data)
    per_id = LogWeight(lam.n, lam.den, lam.num, lam.name)
    G = mask_of(data.draw(st.sets(st.integers(0, len(S.ground) - 1),
                                  min_size=1), label="G"))
    with mock.patch.object(propagation, "_ground_ids", _no_ground):
        with mock.patch.object(S, "masks_of", side_effect=AssertionError), \
                mock.patch.object(S, "ids_of", wraps=S.ids_of) as ids_of:
            at, levels, rank_, absorbing = propagation._subset_world(S, lam, G)
        assert ids_of.called == (not rank)     # listed: ids_of >= 0
        want = propagation._subset_world(S, per_id, G)
    assert np.array_equal(at, want[0])
    assert levels == want[1]
    assert np.array_equal(rank_, want[2])
    assert np.array_equal(absorbing, want[3])


def _reuse_weight(S, wname):
    if wname.startswith("random:"):
        return random_logweight(S, int(wname[7:]))
    return builtin_logweight(S, wname)


@st.composite
def _reuse_key(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_REUSE_SPECS))
    k = draw(st.integers(1, 8))
    return k, draw(st.frozensets(st.frozensets(st.integers(0, k - 1)),
                                 min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@given(key=_reuse_key(), wname=st.sampled_from(["cardinality", "prototype",
                                                "random:0", "random:1"]),
       data=st.data())
def test_reused_contexts_match_the_pair_pass_and_fresh_hosts(key, wname,
                                                             data):
    # many queries on one (host, weight), shared with earlier examples; on a
    # truncation the collapsed top is a seed, the target or the join
    if (key, wname) not in _REUSED:
        S = _reuse_host(key)
        try:
            _REUSED[key, wname] = S, _reuse_weight(S, wname)
        except PrototypeMissingTop:
            assume(False)
    S, lam = _REUSED[key, wname]
    for _ in range(data.draw(st.integers(1, 6), label="queries")):
        E_ids = data.draw(st.sets(st.integers(0, S.n - 1), min_size=1,
                                  max_size=4), label="E")
        role = None if S.top_id is None else data.draw(
            st.sampled_from([None, "seed", "target", "join"]), label="top")
        if role == "seed":
            E_ids.add(S.top_id)
        elif role == "join":
            E_ids |= {S.id_of_mask(1 << p) for p in range(len(S.ground))}
        J = S.product_ids(E_ids)
        z = S.top_id if role == "target" else data.draw(
            st.sampled_from(sorted(S.iter_factors(J))) |
            st.integers(0, S.n - 1), label="z")
        E = mask_of(E_ids)
        c = propagation._knuth_first_levels(S, lam, sorted(E_ids), [z],
                                            S.iter_factors, J).get(z)
        fresh = _reuse_host(key)
        assert v_value(S, lam, E, z) == (
            INFINITE if c is None else PropagationValue.finite(c)) == \
            v_value(fresh, _reuse_weight(fresh, wname), E, z)


def _spy_on_subset_worlds(monkeypatch):
    """The point sets G of every ``_subset_world`` built from here on."""
    seen, build = [], propagation._subset_world
    monkeypatch.setattr(propagation, "_subset_world",
                        lambda S, lam, G: seen.append(G) or build(S, lam, G))
    return seen


def _spy_on_memo_builds(monkeypatch):
    """(builder name, object) for every world the memo builds from here on."""
    built = []
    for name in ("_ground_ids", "_element_world", "_weight_ranks"):
        build = getattr(propagation, name)
        monkeypatch.setattr(propagation, name, lambda x, *a, name=name,
                            build=build: built.append((name, x)) or
                            build(x, *a))
    return built


def test_v_value_reuses_one_whole_ground_world(monkeypatch):
    # four joins under two weights: one ground build for the host, one
    # ranking per weight, and the pair pass's answers
    built = _spy_on_memo_builds(monkeypatch)
    S = free_nonempty(9)
    lams = [builtin_logweight(S, "cardinality"), random_logweight(S, 3)]
    for lam in lams:
        for k in (6, 7, 8, 9):  # singletons to their join, a 1-row pass each
            E_ids = [S.id_of_mask(1 << p) for p in range(k)]
            z = S.id_of_mask((1 << k) - 1)
            assert v_value(S, lam, mask_of(E_ids), z).c == \
                propagation._knuth_first_levels(S, lam, E_ids, [z],
                                                S.iter_factors, z)[z]
    assert built == [("_ground_ids", S), ("_weight_ranks", lams[0]),
                     ("_weight_ranks", lams[1])]


def test_v_value_keeps_one_row_entry_per_host_and_weight(monkeypatch):
    # fifty queries on pstar(9) under one weight: the weight's ranks at the
    # ground and its row entry are built once, the admitted int of each
    # level read once, and no query builds a world of its own points;
    # pstar(15) keeps no ground, so each of its queries still does
    seen = _spy_on_subset_worlds(monkeypatch)
    built = _spy_on_memo_builds(monkeypatch)
    levels, admitted = Counter(), propagation._admitted
    monkeypatch.setattr(propagation, "_admitted", lambda rank, i: levels.update(
        [int(i)]) or admitted(rank, i))
    S = free_nonempty(9)
    lam = random_logweight(S, 7)
    rng = random.Random(7)
    entries = set()
    for _ in range(50):
        E_ids = rng.sample(range(S.n), rng.randrange(1, 5))
        J = S.product_ids(E_ids)
        z = rng.choice(list(S.iter_factors(J)))
        assert v_value(S, lam, mask_of(E_ids), z).c == \
            propagation._knuth_first_levels(S, lam, E_ids, [z],
                                            S.iter_factors, J)[z]
        entries.add(id(propagation._MEMO[lam][v_value]))
    assert len(entries) == 1 and seen == []
    assert built == [("_ground_ids", S), ("_weight_ranks", lam)]
    assert levels and set(levels.values()) == {1}
    big = free_nonempty(15)
    lam = builtin_logweight(big, "cardinality")
    for k in (3, 4):
        E = mask_of(big.id_of_mask(1 << p) for p in range(k))
        assert v_value(big, lam, E, big.id_of_mask((1 << k) - 1)).c == k
    assert seen == [7, 15] and v_value not in propagation._MEMO.get(lam, {})


def test_no_ground_world_past_the_block():
    # the 2**15 subsets of pstar(15) fit the density rule, but number more
    # than NP_BLOCK_ELEMS; pstar(14)'s 2**14 do not
    big, small = free_nonempty(15), free_nonempty(14)
    assert big.subsets_fit((1 << 15) - 1)
    assert propagation._ground_ids(big) is None
    ids, absorbing, top = propagation._ground_ids(small)
    assert len(ids) == core.NP_BLOCK_ELEMS and (ids >= 0).sum() == small.n
    assert not absorbing.any() and top == 0


@pytest.mark.parametrize("spec", ["pstar(7)", "tree(2,3)"])
def test_a_host_copy_builds_its_own_worlds_and_reuses_the_weight(
        spec, monkeypatch):
    # a subset world over the whole ground, or an element world, for each
    # host object; the weight is ranked once for both
    built = _spy_on_memo_builds(monkeypatch)
    S = generate_instance(spec)
    lam = random_logweight(S, 5)
    twin = copy.copy(S)
    if S.kind == "set_system":
        world = "_ground_ids"
        queries = [(mask_of(S.id_of_mask(1 << p) for p in range(k)),
                    S.id_of_mask((1 << k) - 1)) for k in (6, 7)]
    else:
        world = "_element_world"
        queries = [(mask_of(E), z) for E in ([1, 2], [3, 4, 5])
                   for z in range(S.n)]
    high = lam.distinct_values()[-1]
    answers = [(_all_fields(propagation_profile(host, lam, L)),
                [v_value(host, lam, E, z) for E, z in queries])
               for host in (S, twin) for L in (high / 2, high)]
    assert answers[:2] == answers[2:]
    assert built == [(world, S), ("_weight_ranks", lam), (world, twin)]


@pytest.mark.parametrize("host", ["fin(20,15) barrier", "pstar(15)"])
def test_v_value_builds_no_world_past_the_block(host, monkeypatch):
    # both grounds pass the density rule, but their 2**20 and 2**15 subsets
    # are more than NP_BLOCK_ELEMS: each query builds the world of its own
    # join, as the fin(20,15) barrier of ``adversary --nmax 4`` does
    assert 1 << 15 > core.NP_BLOCK_ELEMS
    seen = _spy_on_subset_worlds(monkeypatch)
    if host == "pstar(15)":
        S = free_nonempty(15)
        lam = builtin_logweight(S, "cardinality")
        for k in (10, 12):
            E = mask_of(S.id_of_mask(1 << p) for p in range(k))
            assert v_value(S, lam, E, S.id_of_mask((1 << k) - 1)).c == k
        assert seen == [(1 << 10) - 1, (1 << 12) - 1]
    else:
        S = generate_instance("fin(20,15)")
        chain = build_chain(S, 4)
        assert all(verify_barrier(chain, S, n).passed for n in (2, 3, 4))
        assert seen and max(map(int.bit_count, seen)) <= 10
    assert S.subsets_fit((1 << len(S.ground)) - 1)


def test_a_one_row_pair_pass_ranks_only_its_own_universe(monkeypatch):
    # fin(24,8) has 1.27 M elements.  Its chain stops at level 4, whose join
    # collapses; the level-2 and level-3 barriers join 3 and 6 points and
    # take the integer row over their own joins: the memo only learns that
    # a 24-point ground keeps no world, and eta is never ranked over every
    # element.  A closure on a table takes the pair pass, which ranks the
    # factors of its join alone, not the weight.
    S = generate_instance("fin(24,8)")
    chain = build_chain(S, 4)
    assert chain.depth == 3 and chain.notes
    eta = eta_weight(chain, S)
    built = _spy_on_memo_builds(monkeypatch)
    for n in (2, 3):
        report, passes = _passes_taken(partial(verify_barrier, chain, S, n,
                                               eta))
        assert report.passed and passes == ["row"]
    assert ("_weight_ranks", eta) not in built
    assert built == [("_ground_ids", S)]
    T = kary_tree(2, 4)
    lam = random_logweight(T, 2)
    z = T.product(3, 9)
    assert _passes_taken(partial(v_value, T, lam, mask_of([3, 9]), z))[1] \
        == ["pair"]
    assert built == [("_ground_ids", S)]


#: the entry point of each closure pass
_PASS_ENTRIES = {"row": "_row_first_level",
                 "subset": "_subset_first_levels",
                 "element": "_element_first_levels",
                 "pair": "_knuth_first_levels"}


def _passes_taken(call):
    """``call()`` and the names of the passes it ran."""
    with contextlib.ExitStack() as stack:
        spies = {name: stack.enter_context(mock.patch.object(
            propagation, entry, wraps=getattr(propagation, entry)))
            for name, entry in _PASS_ENTRIES.items()}
        answer = call()
    return answer, [name for name, spy in spies.items() if spy.called]


@pytest.mark.parametrize("spec, wname, query, taken", [
    pytest.param("pstar(7)", "cardinality", "v 5", "row",
                 id="one row below 6 points"),
    pytest.param("pstar(7)", "cardinality", "v 6", "row",
                 id="one row at 6 points"),
    pytest.param("tree(2,4)", "random:1", "v table", "pair",
                 id="one row on a table"),
    pytest.param("pstar(4)", "cardinality", "profile 2", "subset",
                 id="several fitting rows"),
    pytest.param("tree(2,3)", "random:1", "profile top", "element",
                 id="several rows on a table"),
    pytest.param("pstar(4)", "prototype", "profile 0", "subset",
                 id="one-element profile below 6 points"),
    pytest.param("pstar(6)", "prototype", "profile 0", "subset",
                 id="one-element profile at 6 points"),
    pytest.param("tree(2,3)", "distinct", "profile 0", "element",
                 id="one-element profile on a table"),
])
def test_route_table(spec, wname, query, taken):
    # the one route rule, through the entry points: the pass each closure
    # takes, and the pair pass's answer
    S = generate_instance(spec)
    lam = LogWeight.from_values(range(S.n)) if wname == "distinct" else \
        _reuse_weight(S, wname)
    kind, arg = query.split()
    if kind == "profile":
        L = lam.distinct_values()[-1] if arg == "top" else Fraction(arg)
        call = partial(propagation_profile, S, lam, L)
    elif arg == "table":
        E_ids = [3, 9]
        J = S.product_ids(E_ids)
        z = next(z for z in S.iter_factors(J) if z not in E_ids)
    else:                       # singletons to one point short of their union
        E_ids = [S.id_of_mask(1 << p) for p in range(int(arg))]
        J, z = (S.id_of_mask((1 << int(arg)) - d) for d in (1, 2))
    if kind == "v":
        assert S.product_ids(E_ids) == J
        call = partial(v_value, S, lam, mask_of(E_ids), z)
    answer, passes = _passes_taken(call)
    assert passes == [taken]
    if kind == "v":
        assert answer == PropagationValue.finite(
            propagation._knuth_first_levels(S, lam, E_ids, [z],
                                            S.iter_factors, J)[z])
    else:
        assert (level_set(S, lam, L).bit_count() == 1) == (arg == "0")
        assert _all_fields(answer) == \
            _all_fields(_pair_pass_profile(S, lam, L))


def test_a_profile_cut_to_one_row_keeps_the_profile_rule():
    # fin(24,8) at cardinality level 1: the level set spans all 24 points,
    # so a profile takes the pair pass however few sets it keeps.  Cut by
    # the budget to one sampled set of 7 singletons, whose join alone would
    # pass the one-closure gate, it answers there and builds no subset world
    S = generate_instance("fin(24,8)")
    lam = builtin_logweight(S, "cardinality")
    prof, passes = _passes_taken(
        partial(propagation_profile, S, lam, 1, budget=0, samples=1))
    assert passes == ["pair"]
    assert prof.witness_E.bit_count() == 7 and not prof.exhaustive
    assert prof.value == PropagationValue.finite(1)


def test_prototype_barrier_on_pstar16_is_fast(monkeypatch):
    # one world of the 2**16 subsets, one integer row of at most 8 rounds,
    # and no pair-by-pair pass over the 65535 elements
    calls = _count_calls(monkeypatch, "_subset_world", "_row_first_level",
                         "_row_round", "_knuth_first_levels")
    S = free_nonempty(16)
    lam = builtin_logweight(S, "prototype")
    singles = mask_of(S.id_of_mask(1 << i) for i in range(16))
    v = v_value(S, lam, singles, S.id_of_mask((1 << 16) - 1))
    assert v == PropagationValue.finite(8)
    assert calls.pop("_row_round") <= 8
    assert calls == {"_subset_world": 1, "_row_first_level": 1}


def test_level_five_barrier_on_fin_20_15_ranks_no_subset_world(monkeypatch):
    # fin(20,15) is in rank storage with no ground kept: G's world comes
    # from masks (membership by the count rule, the eta weight of masks),
    # so neither rank direction sees an array of G's 2**|G| subsets
    sizes = []
    for name in ("_trunc_rank_np", "_trunc_unrank_np"):
        fn = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, fn=fn: sizes.append(
            np.size(a[-1])) or fn(*a))
    S = generate_instance("fin(20,15)")
    chain = build_chain(S, 5)
    z = S.product_ids(chain.families[4])
    G = S.member_mask(z).bit_count()
    sizes.clear()
    res = verify_barrier(chain, S, 5)
    assert sizes and max(sizes) < 1 << G, (max(sizes), G)
    assert res.passed and res.value == PropagationValue.finite(3)


def test_equivalence_check_decides_each_level_part_once(monkeypatch):
    # 2^15 subsets of pstar(4), but only 2^4 level-1 parts to decide
    S = free_nonempty(4)
    lam = builtin_logweight(S, "cardinality")
    C = propagation_profile(S, lam, 1).value.c
    calls = _count_calls(monkeypatch, "stability_threshold",
                         "best_guess_check")
    rep = check_equivalence_iii(S, lam, 1, C)
    assert (rep.checked, rep.stable_count, rep.violations, rep.exhaustive) \
        == (1 << 15, 1 << 15, [], True)
    assert calls == {"stability_threshold": 1 << 4, "best_guess_check": 1 << 4}
