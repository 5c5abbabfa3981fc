from importlib import import_module
from itertools import combinations, cycle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (naive_breadth, naive_incompressible,
                     naive_iter_incompressible)
from slat._bitset import bits
from slat.core import (Semilattice, chain, fin_truncation, free_nonempty,
                       generate_instance, kary_tree, powerset)
from slat.breadth import (EmptySetError, SizeLimit, _branch_and_bound,
                          _distinctness_order, _iter_incompressible,
                          _point_index, _transform_breadth, breadth,
                          find_incompressible, is_compressible,
                          is_free_embedding)
from slat.propagation import propagation_profile
from slat.weights import builtin_logweight

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


def _candidates(order, walk, k):
    """Positions the enumerator must try: after the root and after each
    yielded set, every later position that still leaves room for k."""
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
    counter = {"nodes": 0, "capped": False}
    walk, seen = [], []
    for ids in _iter_incompressible(S, order, counter, 10**9, lambda: k):
        walk.append(ids)
        seen.append(counter["nodes"])
    assert [ids for ids in walk if len(ids) >= k] == \
        _brute_incompressible(S, order, k)
    assert counter == {"nodes": _candidates(order, walk, k), "capped": False}
    # the count is current at every yield, not only at the end
    assert seen == sorted(set(seen)) and all(c > 0 for c in seen)
    budget = data.draw(st.integers(0, counter["nodes"] - 1), label="budget")
    small = {"nodes": 0, "capped": False}
    cut = list(_iter_incompressible(S, order, small, budget, lambda: k))
    assert small == {"nodes": budget + 1, "capped": True}
    assert cut == walk[:len(cut)]


def test_search_node_counts_are_pinned():
    for spec, nodes in (("pstar(6)", 8844), ("powerset(6)", 9582),
                        ("tree(2,5)", 1700), ("pstar(5)", 665)):
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
    counter = {"nodes": 0, "capped": False}
    walk = list(_iter_incompressible(S, order, counter, 10**9, lambda: k))
    assert [ids for ids in walk if len(ids) >= k] == \
        _brute_incompressible(S, order, k)
    assert counter == {"nodes": _candidates(order, walk, k), "capped": False}
    for r in (1, 2, 3, 4):
        for ids in combinations(order[:9], r):
            ids = list(ids)
            dropped = _first_droppable(S, ids)
            assert is_compressible(S, ids) == (dropped is not None, dropped)
            assert (dropped is None) == naive_incompressible(S, ids)


# -- the bitset walk against the candidate-by-candidate walk -------------------

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


def _walk(walker, S, order, budget, floors):
    """Each set the walk yields with the counter at that yield, then the
    final counter; the floor cycles through ``floors``, one value a read."""
    counter = {"nodes": 0, "capped": False}
    reads = cycle(floors)
    seen = [(ids, dict(counter)) for ids in
            walker(S, order, counter, budget, lambda: next(reads))]
    return seen, counter


@settings(max_examples=150, deadline=None)
@given(S=_walk_host(), data=st.data())
def test_bitset_walk_matches_the_candidate_walk(S, data):
    order = data.draw(st.lists(st.integers(0, S.n - 1), unique=True,
                               max_size=24), label="order")
    floors = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=4),
                       label="floors")
    budget = data.draw(st.one_of(st.integers(0, 300), st.just(10**9)),
                       label="budget")
    assert _walk(_iter_incompressible, S, order, budget, floors) == \
        _walk(naive_iter_incompressible, S, order, budget, floors)


@settings(max_examples=40, deadline=None)
@given(S=st.one_of(_walk_host(), st.sampled_from(
    [chain(6), kary_tree(1, 4), kary_tree(4, 2)])))
def test_table_scores_give_the_search_order(S):
    assume(S.n <= 100)
    score = [sum(not S.leq(y, x) for y in range(S.n)) for x in range(S.n)]
    want = sorted(range(S.n), key=lambda x: (-score[x], x))
    assert _distinctness_order(S) == want


# a family whose greedy pass stops at one member while two are
# incompressible ({2, 3} and {0, 1, 3, 4}), so a search has to run
_GREEDY_FAILS = Semilattice.from_sets(range(5), [[0, 1, 3, 4], [2, 3], [3]],
                                      close=True)


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
