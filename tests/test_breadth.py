import hashlib
import json
import math
from fractions import Fraction
from importlib import import_module
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (naive_breadth, naive_incompressible,
                     naive_iter_incompressible, naive_search_order)
from slat._bitset import bits, mask_of
from slat.core import (Semilattice, chain, fin_truncation, free_nonempty,
                       generate_instance, kary_tree, powerset)
from slat.breadth import (EmptySetError, SizeLimit, _branch_and_bound,
                          _counts, _distinctness_order, _incompressible,
                          _point_index, _transform_breadth, breadth,
                          find_incompressible, is_compressible,
                          is_free_embedding)
from slat.propagation import propagation_profile
from slat.weights import builtin_logweight, random_logweight

# the module; ``slat.breadth`` names the function in the package namespace
breadth_module = import_module("slat.breadth")


def test_single_removal_matches_subset_oracle():
    import itertools
    for S in (free_nonempty(3), kary_tree(2, 2), fin_truncation(4, 2)):
        for r in (1, 2, 3, 4):
            for ids in itertools.combinations(range(S.n), r):
                comp, dropped = is_compressible(S, list(ids))
                assert comp == (not naive_incompressible(S, ids))
                if comp:
                    rest = [x for x in ids if x != dropped]
                    assert S.product_ids(rest) == S.product_ids(list(ids))


def test_is_compressible_rejects_empty():
    with pytest.raises(EmptySetError):
        is_compressible(chain(3), [])


def test_breadth_known_values():
    assert breadth(chain(6)).breadth == 1
    assert breadth(kary_tree(2, 3)).breadth == 2
    for k in range(1, 6):
        assert breadth(free_nonempty(k)).breadth == k


def test_breadth_matches_bruteforce():
    for S, cap in ((chain(5), 3), (kary_tree(2, 3), 4),
                   (free_nonempty(4), 5), (fin_truncation(4, 2), 4)):
        rep = breadth(S)
        assert rep.exhaustive
        assert rep.breadth == naive_breadth(S, cap)
        assert naive_incompressible(S, list(bits(rep.witness)))


def test_breadth_of_collapsed_truncation_is_card_plus_one():
    S = fin_truncation(6, 2)
    rep = breadth(S)
    assert rep.breadth == 3 and rep.exhaustive
    big = fin_truncation(24, 8)
    rep = breadth(big)
    assert rep.breadth == 9 and rep.exhaustive


def test_find_incompressible_exact_size():
    S = free_nonempty(4)
    for size in (1, 2, 3, 4):
        ids = find_incompressible(S, size)
        assert len(ids) == size
        assert naive_incompressible(S, ids)
    assert find_incompressible(S, 5) is None


def test_find_incompressible_on_chain_fails_beyond_one():
    S = chain(5)
    assert find_incompressible(S, 1) is not None
    assert find_incompressible(S, 2) is None


def test_free_embedding():
    S = free_nonempty(3)
    singles = [x for x in range(S.n)
               if bin(S.member_mask(x)).count("1") == 1]
    assert is_free_embedding(S, singles)
    assert not is_free_embedding(chain(4), [0, 1, 2])
    with pytest.raises(EmptySetError):
        is_free_embedding(S, [])
    with pytest.raises(SizeLimit):
        is_free_embedding(S, list(range(21)))


def test_breadth_nodes_reported():
    rep = breadth(free_nonempty(3))
    assert rep.nodes > 0


# -- the shared incompressible-set enumerator --------------------------------

_ENUM_HOSTS = {spec: generate_instance(spec) for spec in
               ("chain(5)", "tree(2,2)", "pstar(4)", "fin(4,2)", "fin(5,2)")}


def _brute_incompressible(S, order, k):
    """Incompressible subsets of ``order`` with at least k elements, in
    lexicographic order of their positions; heredity stops the sizes."""
    found, r = [], 1
    while True:
        level = [c for c in combinations(range(len(order)), r)
                 if naive_incompressible(S, [order[p] for p in c])]
        if not level:
            break
        if r >= k:
            found += level
        r += 1
    return [[order[p] for p in c] for c in sorted(found)]


def _walk_of(S, order, floor=0, budget=math.inf):
    """``_incompressible`` as the walk it stands for: each set, as ids, with
    the count of positions tried when the walk reaches it, and the final
    count."""
    sets, total = _incompressible(S, order, floor, budget)
    ids = [[order[p] for p in row[row >= 0].tolist()] for row in sets]
    return list(zip(ids, _counts(sets, len(order), floor).tolist())), total


def _naive_walk(S, order, floor=0, budget=math.inf):
    """``_walk_of`` from ``oracles.naive_iter_incompressible``."""
    counter = {"nodes": 0, "capped": False}
    seen = [(ids, counter["nodes"]) for ids in naive_iter_incompressible(
        S, order, counter, budget, lambda: floor)]
    return seen, counter["nodes"]


def _candidates(order, walk, k):
    """Positions the enumerator must try: after the root and after each
    set, every later position that still leaves room for k."""
    pos = {x: i for i, x in enumerate(order)}
    n, total = len(order), 0
    for ids in [[]] + walk:
        start = pos[ids[-1]] + 1 if ids else 0
        total += max(0, min(n, len(ids) + n - k + 1) - start)
    return total


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(sorted(_ENUM_HOSTS)), data=st.data(),
       k=st.integers(0, 5))
def test_enumerator_matches_bruteforce(spec, data, k):
    S = _ENUM_HOSTS[spec]
    order = data.draw(st.permutations(range(S.n)), label="order")
    seen, total = _walk_of(S, order, k)
    walk = [ids for ids, _ in seen]
    assert [ids for ids in walk if len(ids) >= k] == \
        _brute_incompressible(S, order, k)
    assert total == _candidates(order, walk, k)
    # each set's count is a count of positions tried, rising in preorder
    counts = [c for _, c in seen]
    assert counts == sorted(set(counts)) and all(c > 0 for c in counts)
    budget = data.draw(st.integers(0, total - 1), label="budget")
    assert _walk_of(S, order, k, budget) == \
        ([(ids, c) for ids, c in seen if c <= budget], budget + 1)


def test_search_node_counts_are_pinned():
    for spec, nodes in (("pstar(6)", 8844), ("powerset(6)", 9582),
                        ("tree(2,5)", 1700), ("pstar(5)", 665),
                        ("tree(3,3)", 681), ("tree(2,4)", 371)):
        rep = _branch_and_bound(generate_instance(spec), 10_000_000)
        assert (rep.nodes, rep.exhaustive) == (nodes, True)
    assert breadth(generate_instance("tree(2,5)")).nodes == 1700
    rep = breadth(generate_instance("tree(2,5)"), cap=17)
    assert rep.to_json() == {"breadth": 2, "witness": [1, 2],
                             "exhaustive": False, "nodes": 17, "notes": []}
    S = generate_instance("pstar(4)")
    lam = builtin_logweight(S, "cardinality")
    prof = propagation_profile(S, lam, 2)
    assert (prof.nodes, prof.exhaustive) == (212, True)
    prof = propagation_profile(S, lam, 2, budget=7)
    assert (prof.nodes, prof.exhaustive) == (8, False)
    assert find_incompressible(generate_instance("fin(6,2)"), 4) is None


# -- the point-set transform ---------------------------------------------------

def _dense_index(S):
    """``_point_index`` of a set system without its density rule: the
    members' sets over the points that some member holds."""
    points = sorted({p for x in range(S.n) for p in bits(S.member_mask(x))})
    local = [sum(1 << j for j, p in enumerate(points)
                 if S.member_mask(x) >> p & 1) for x in range(S.n)]
    return len(points), np.array(local, dtype=np.int64)


def _owned_points(S):
    """Largest point set P in which each point p has a member meeting P in
    {p} alone, by trying every P."""
    k, local = _dense_index(S)
    return max(bin(P).count("1") for P in range(1 << k)
               if all(any(m & P == 1 << p for m in local.tolist())
                      for p in bits(P)))


_CUBES = {spec: generate_instance(spec) for spec in (
    "pstar(1)", "pstar(3)", "powerset(3)", "pstar(5)", "powerset(5)",
    "pstar(6)")}


@st.composite
def _closed_family(draw, max_points=7):
    """The union-closure of random sets over at most ``max_points`` points
    (the empty set and one-member families among them), the family that
    holds only the empty set, or a cube."""
    kind = draw(st.sampled_from(["family", "family", "empty", "cube"]))
    if kind == "cube":
        return _CUBES[draw(st.sampled_from(sorted(_CUBES)))]
    if kind == "empty":
        return Semilattice.from_sets("a", [[]])
    k = draw(st.integers(1, max_points))
    sets = draw(st.sets(st.frozensets(st.integers(0, k - 1)), min_size=1,
                        max_size=8))
    return Semilattice.from_sets(range(k), [sorted(m) for m in sets],
                                 close=True)


# the witness rebuild must drop a point set that a chosen member meets in
# two points: keeping it gives a wrong witness on this family
_MEETS_TWICE = Semilattice.from_sets(
    range(6), [[0], [0, 2, 5], [1, 2, 3, 4], [1, 5], [3, 5]], close=True)


@settings(max_examples=300, deadline=None)
@given(S=_closed_family())
@example(S=_MEETS_TWICE)
def test_transform_matches_the_branch_and_bound(S):
    index = _point_index(S)
    dense = _dense_index(S)
    if index is not None:
        assert index[0] == dense[0] and index[1].tolist() == dense[1].tolist()
    got = _transform_breadth(S, dense)       # sparse families too
    want = _branch_and_bound(S, 10**9)
    assert (got.breadth, got.witness, got.exhaustive, got.notes) == \
        (want.breadth, want.witness, want.exhaustive, want.notes)
    assert breadth(S).to_json() == (got if index else want).to_json()
    assert got.breadth == max(1, _owned_points(S))


@settings(max_examples=60, deadline=None)
@given(S=_closed_family(max_points=5))
def test_transform_matches_the_naive_oracles(S):
    assume(S.n <= 16)
    rep = _transform_breadth(S, _dense_index(S))
    assert rep.exhaustive
    assert rep.breadth == naive_breadth(S, rep.breadth + 1)
    assert len(list(bits(rep.witness))) == rep.breadth
    assert naive_incompressible(S, list(bits(rep.witness)))


@settings(max_examples=80, deadline=None)
@given(S=_closed_family())
def test_superset_counts_give_the_search_order(S):
    assert _distinctness_order(S, _dense_index(S)) == _distinctness_order(S)


def test_point_index_reads_points_past_63():
    # member masks reach 2**69, so member_masks_np holds Python ints
    S = Semilattice.from_sets(range(70), [[60], [61], [63], [64, 65], [69]],
                              close=True)
    k, local = _point_index(S)
    assert k == 6 and local.tolist() == _dense_index(S)[1].tolist()
    rep = breadth(S)
    assert (rep.breadth, rep.exhaustive, rep.nodes) == (5, True, 31)
    assert rep.witness == _branch_and_bound(S, 10**9).witness


def test_transform_is_exact_where_the_branch_and_bound_caps_out():
    # the union-closure of 14 sets over 9 points, 205 members
    sets = [(0, 1, 3), (0, 2, 4, 8), (0, 3), (0, 6, 7, 8), (0, 8), (1, 4, 7),
            (1, 5), (2, 5), (3, 4, 5), (3, 5, 6), (4, 6), (5, 7, 8), (5, 8),
            (6, 7)]
    S = Semilattice.from_sets(range(9), sets, close=True)
    assert S.n == 205
    capped = _branch_and_bound(S, 10_000)
    assert (capped.breadth, capped.exhaustive) == (3, False)
    rep = breadth(S)
    ids = list(bits(rep.witness))
    assert (rep.breadth, rep.exhaustive, len(ids)) == (6, True, 6)
    assert _owned_points(S) == 6
    assert naive_incompressible(S, ids)


# -- backends that the hosts above lack --------------------------------------

_IMPLICIT = fin_truncation(24, 8)     # implicit rank storage, collapsed top
_NOT_A_TRUNCATION = fin_truncation(5, 2).to_json()
_NOT_A_TRUNCATION["elements"].remove([4])
_NOT_A_TRUNCATION["collapsed_top"] = 15
_SEAM_HOSTS = {
    "powerset(3)": powerset(3),       # its empty member has mask 0
    # listed masks with a collapsed top but no cube shape
    "fin(5,2) without {4}": Semilattice.from_json(_NOT_A_TRUNCATION),
}


def _first_droppable(S, ids):
    """First element, in input order, whose removal keeps the product."""
    total = S.product_ids(ids)
    for i, x in enumerate(ids):
        rest = ids[:i] + ids[i + 1:]
        if rest and S.product_ids(rest) == total:
            return x
    return None


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["fin(24,8)"] + sorted(_SEAM_HOSTS)),
       data=st.data(), k=st.integers(0, 4))
def test_join_seam_matches_bruteforce_on_other_backends(spec, data, k):
    if spec == "fin(24,8)":
        S = _IMPLICIT
        assert S._masks is None and S.top_id is not None
        # ids 0..300 are the sets of at most two points, so the sample mixes
        # the empty member, small unions and unions that collapse to the top
        ident = st.one_of(st.integers(0, 300), st.integers(0, S.n - 1))
        order = data.draw(st.lists(ident, min_size=6, max_size=9,
                                   unique=True), label="order")
    else:
        S = _SEAM_HOSTS[spec]
        assert S.top_id is None or S.truncation_bound() is None
        order = data.draw(st.permutations(range(S.n)), label="order")
    seen, total = _walk_of(S, order, k)
    walk = [ids for ids, _ in seen]
    assert [ids for ids in walk if len(ids) >= k] == \
        _brute_incompressible(S, order, k)
    assert total == _candidates(order, walk, k)
    for r in (1, 2, 3, 4):
        for ids in combinations(order[:9], r):
            ids = list(ids)
            dropped = _first_droppable(S, ids)
            assert is_compressible(S, ids) == (dropped is not None, dropped)
            assert (dropped is None) == naive_incompressible(S, ids)


# a family whose greedy pass stops at one member while two are
# incompressible ({2, 3} and {0, 1, 3, 4}), so a search has to run
_GREEDY_FAILS = Semilattice.from_sets(range(5), [[0, 1, 3, 4], [2, 3], [3]],
                                      close=True)


# -- the level-wise walk against the candidate-by-candidate walk ------------

_WALK_HOSTS = {
    "tree(2,4)": generate_instance("tree(2,4)"),
    "tree(3,3)": generate_instance("tree(3,3)"),
    # two 2-point members join to the top while each joins a third point
    # to a member: only R(t) under the top drops that point
    "fin(6,3)": generate_instance("fin(6,3)"),
    "fin(24,8)": _IMPLICIT,
    **_SEAM_HOSTS,
}


@st.composite
def _walk_host(draw):
    """A host that ``_ENUM_HOSTS`` lacks: a larger tree, a collapsed-top or
    empty-member family, or a random union-closed family, as a set system
    or as the product table of one."""
    kind = draw(st.sampled_from(["named", "family", "table"]))
    if kind == "named":
        return _WALK_HOSTS[draw(st.sampled_from(sorted(_WALK_HOSTS)))]
    S = draw(_closed_family(max_points=5))
    if kind == "table":
        S = Semilattice.from_table(S.product_table_np().tolist())
    return S


@settings(max_examples=150, deadline=None)
@given(S=_walk_host(), data=st.data())
def test_level_walk_matches_the_candidate_walk(S, data):
    order = data.draw(st.lists(st.integers(0, S.n - 1), unique=True,
                               max_size=24), label="order")
    floor = data.draw(st.integers(0, 5), label="floor")
    seen, total = _naive_walk(S, order, floor)
    assert _walk_of(S, order, floor) == (seen, total)
    budget = data.draw(st.integers(-2, total + 1), label="budget")
    assert _walk_of(S, order, floor, budget) == \
        _naive_walk(S, order, floor, budget)


def _naive_branch_and_bound(S, cap):
    """The branch and bound over ``oracles.naive_iter_incompressible``: the
    empty set and each set the walk yields is a node, and the floor is one
    more than the largest set found, read after each set."""
    order = _distinctness_order(S)
    best = [order[0]] if S.n else []
    walk = naive_iter_incompressible(S, order, {"nodes": 0}, math.inf,
                                     lambda: len(best) + 1)
    if cap < 1:
        return len(best), mask_of(best), False, 0
    nodes = 1                       # the empty set
    for ids in walk:
        if nodes >= cap:
            return len(best), mask_of(best), False, nodes
        nodes += 1
        if len(ids) > len(best):
            best = ids
    return len(best), mask_of(best), True, nodes


@settings(max_examples=150, deadline=None)
@given(S=st.one_of(_walk_host(), _closed_family(max_points=5)),
       cap=st.one_of(st.integers(-2, 40), st.integers(0, 2000),
                     st.just(10_000_000)))
@example(S=chain(1), cap=1)
def test_branch_and_bound_matches_the_candidate_walk(S, cap):
    assume(S.n <= 100)
    rep = _branch_and_bound(S, cap)
    assert (rep.breadth, rep.witness, rep.exhaustive, rep.nodes) == \
        _naive_branch_and_bound(S, cap)


def _naive_find(S, size):
    """``find_incompressible`` with its search over
    ``oracles.naive_iter_incompressible``; SizeLimit when it is cut."""
    if S.truncation_bound() is not None and size > S.truncation_bound() + 1:
        return None
    got = breadth_module._greedy_incompressible(S, size)
    if len(got) >= size:
        return got[:size]
    order = _distinctness_order(S, _point_index(S))
    counter = {"nodes": 0, "capped": False}
    walk = naive_iter_incompressible(S, order, counter,
                                     breadth_module._FIND_NODE_CAP,
                                     lambda: size)
    found = next((ids for ids in walk if len(ids) == size), None)
    return SizeLimit if counter["capped"] else found


@settings(max_examples=150, deadline=None)
@given(S=st.one_of(_walk_host(), _closed_family(max_points=5),
                   st.just(_GREEDY_FAILS)),
       size=st.integers(1, 5),
       cap=st.one_of(st.integers(0, 200), st.just(2_000_000)))
def test_find_incompressible_matches_the_candidate_walk(S, size, cap):
    assume(S.n <= 100)
    kept = breadth_module._FIND_NODE_CAP
    breadth_module._FIND_NODE_CAP = cap
    try:
        try:
            got = find_incompressible(S, size)
        except SizeLimit:
            got = SizeLimit
        assert got == _naive_find(S, size)
    finally:
        breadth_module._FIND_NODE_CAP = kept


@settings(max_examples=40, deadline=None)
@given(S=st.one_of(_walk_host(), st.sampled_from(
    [chain(6), kary_tree(1, 4), kary_tree(4, 2)])))
def test_table_scores_give_the_search_order(S):
    assume(S.n <= 100)
    assert _distinctness_order(S) == naive_search_order(S)


def test_a_cut_search_names_its_limit(monkeypatch):
    from slat.adversarial import InsufficientBreadth, find_markers
    assert len(find_incompressible(_GREEDY_FAILS, 2)) == 2
    assert find_incompressible(_GREEDY_FAILS, 3) is None
    with pytest.raises(InsufficientBreadth, match="^no incompressible "
                       "family of size 3 found$"):
        find_markers(_GREEDY_FAILS, 0, 3)
    monkeypatch.setattr(breadth_module, "_FIND_NODE_CAP", 2)
    cut = "the search for an incompressible family of size 2 was cut"
    with pytest.raises(SizeLimit, match=f"^{cut} at 2 nodes$"):
        find_incompressible(_GREEDY_FAILS, 2)
    with pytest.raises(InsufficientBreadth, match=f"^{cut} at 2 nodes$"):
        find_markers(_GREEDY_FAILS, 0, 2)
    monkeypatch.setattr(breadth_module, "_EXACT_MAX_ELEMENTS", 3)
    with pytest.raises(InsufficientBreadth, match=f"^{cut}: the host has "
                       f"over 3 elements$"):
        find_markers(_GREEDY_FAILS, 0, 2)


def test_fin_6_3_profile_at_level_3_is_pinned():
    S = generate_instance("fin(6,3)")
    prof = propagation_profile(S, builtin_logweight(S, "cardinality"), 3)
    assert (prof.nodes, prof.exhaustive, prof.witness_E, prof.witness_z,
            prof.value.c) == (19188, True, 14, 22, 3)


# -- reports pinned byte for byte --------------------------------------------

# sha256 of each report as ``slat`` prints it, recorded from the
# candidate-by-candidate enumerator: every profile of the benchmark's
# ``SEARCH_PROFILES``, random-weight profiles on a table, a set system and a
# chain (two within a budget that cuts them), and breadth on the hosts the
# benchmark's ``search`` and ``cli`` workloads search, one cut by its cap.
# (kind, host, weight, level, budget or cap, sha256)
_PINNED_REPORTS = [
    ("profile", "fin(5,4)", "cardinality", "1", None,
     "1f90d3cccc66885ee1110f655af9554963b9e51deab58fd5a61cfcac493c3eff"),
    ("profile", "fin(5,4)", "cardinality", "2", None,
     "1724fe037118897d5998aea3f7dac66b1c8ecddb5a52d20d85ddbff725d49cc1"),
    ("profile", "fin(5,4)", "cardinality", "3", None,
     "ab33760fef4cdc46129ac8269fea2356bae78a26888b4f33b4eebba0216ddd2f"),
    ("profile", "pstar(5)", "cardinality", "1", None,
     "a04e2fa49d6436fd703c78338d4a6a7f98689bf60ba644f8289107f367a12f66"),
    ("profile", "pstar(5)", "cardinality", "2", None,
     "35421cd8e803f883011782e5185087be2732a1441d20ab9e5a1c6d698c36b0e3"),
    ("profile", "pstar(5)", "cardinality", "3", None,
     "37a1c527ae9285f5c4bd556dff81582b871062d61314797f1e857153f184480d"),
    ("profile", "fin(6,3)", "cardinality", "1", None,
     "1531fa39b0320f0c0e0bd78f4047ec20dafd9246eb6cdcd64f7cf5e3f431f261"),
    ("profile", "fin(6,2)", "cardinality", "1", None,
     "4930c729439a9f18760312a989a8cbb7aadf623d478b931800a8033be573dfb6"),
    ("profile", "pstar(4)", "cardinality", "1", None,
     "3f2ff7af2d0184f6a2b4700b70c4982ce3781d95433be9c89123b979d01633ee"),
    ("profile", "pstar(4)", "cardinality", "2", None,
     "1aff5c6f7f0eb9e6a06c97acf1d437acfa4c45c1d4bf6f5630730f8e908c1c96"),
    ("profile", "pstar(4)", "prototype", "1", None,
     "737ba0447995ea52049f0dc72a96633cf6a043e1cfdda83c778fcc928ab5ef81"),
    ("profile", "pstar(4)", "prototype", "2", None,
     "13a03b79e68069706643325574ff1ead52bdf9d936a5d7a21c2f8191eb516443"),
    ("profile", "powerset(4)", "cardinality", "1", None,
     "7e324bd0595e5ec3e7d70aeb3bde92eb62b7bbef1ee2cbe712297788278a30cd"),
    ("profile", "powerset(4)", "cardinality", "2", None,
     "eab24d5ccfd0f9709b83c9d784ff4b01bbb17e20475c14b8bd2f56292e94a628"),
    ("profile", "powerset(4)", "prototype", "1", None,
     "b51eacaedd50ff81badc06e5a7833baa2f02a69e44beab6b8b4d9895b89ca283"),
    ("profile", "powerset(4)", "prototype", "2", None,
     "8f8578cedb48806735560c437262557c3f2ecca02b00f4ef14510302ab1aec83"),
    ("profile", "tree(2,3)", "random:5", "2", None,
     "d3c237185e610de1c6af1192ce11a76a98fdc4bd55bc4ebb588fd19e27c91e30"),
    ("profile", "powerset(4)", "random:5", "4/3", None,
     "6c6f58d2e2da7dd4cb4c0063d39a275169837c406803298d17e06739d2bb9127"),
    ("profile", "chain(8)", "random:5", "5/3", None,
     "47e9d23450fef5a56d0a81a075adfd41ecebe97a8a8e576b5434e13c71ecfa4b"),
    ("profile", "pstar(5)", "cardinality", "3", 300,
     "0e7d2b8fd2fd9b080c8cbd883112f91e8793353e85ae25c1b2c21722ae0823d4"),
    ("profile", "tree(2,3)", "random:5", "2", 40,
     "e3268d1bd995dbd201733af911a93899e91e38eb81b03610685e6de4ce1daf11"),
    ("breadth", "pstar(6)", None, None, None,
     "cb727342cbae6ba30855e8d2b406e279712b61121c76cf95e59d5195a162f946"),
    ("breadth", "powerset(6)", None, None, None,
     "366e79a3ece241cd583cc18d3a45a37f5d9f8b91e9c4f30e3297ffd550116d2a"),
    ("breadth", "tree(2,5)", None, None, None,
     "89c3283969273e86ffebc76f49b5c4129b5af56b434040eb039a2f876d07d36e"),
    ("breadth", "tree(3,3)", None, None, None,
     "da30909e2dffdc5cb2b3c8de3fa5374642631c4e99ea7627a88b46e8fb39d5c2"),
    ("breadth", "pstar(5)", None, None, None,
     "15c0c11c566226ba16c0ece8b06250ad4aacde168fd53e0834f808b1f95f948d"),
    ("breadth", "powerset(5)", None, None, None,
     "a59e45377a9265498343152455f93454cfe862d3268d937274529929d9e3a93c"),
    ("breadth", "tree(2,4)", None, None, None,
     "147c33237f3022dcb9bad822974c207385b91223b858171853269b11627e8862"),
    ("breadth", "fin(6,3)", None, None, None,
     "1153746f4b3e013dc7862fdb7e5fcf40a8c3aea30660a6dce1734db4f28011c2"),
    ("breadth", "fin(7,2)", None, None, None,
     "dba6609eca9d4337adb4bbbd1f7a7c798ea17a9dc89a07c9f175a2bb5784c085"),
    ("breadth", "tree(2,5)", None, None, 500,
     "50fe0dfe521c37304bbc71d50b75bd9617e07dcca1bbf79e1526a9635eb771c6"),
]


@pytest.mark.parametrize("kind,spec,weight,L,limit,sha", _PINNED_REPORTS)
def test_reports_are_byte_identical(kind, spec, weight, L, limit, sha):
    S = generate_instance(spec)
    if kind == "breadth":
        rep = breadth(S) if limit is None else breadth(S, cap=limit)
    else:
        lam = random_logweight(S, int(weight[7:])) \
            if weight.startswith("random:") else builtin_logweight(S, weight)
        rep = propagation_profile(S, lam, Fraction(L), budget=limit or 500_000)
    text = json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == sha
