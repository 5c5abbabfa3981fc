from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_breadth, naive_incompressible
from slat._bitset import bits
from slat.core import (Semilattice, chain, fin_truncation, free_nonempty,
                       generate_instance, kary_tree, powerset)
from slat.breadth import (EmptySetError, SizeLimit, _iter_incompressible,
                          breadth, find_incompressible, is_compressible,
                          is_free_embedding)
from slat.propagation import propagation_profile
from slat.weights import builtin_logweight


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
        rep = breadth(generate_instance(spec))
        assert (rep.nodes, rep.exhaustive) == (nodes, True)
    rep = breadth(generate_instance("pstar(6)"), cap=17)
    assert rep.to_json() == {"breadth": 2, "witness": [56, 57],
                             "exhaustive": False, "nodes": 17, "notes": []}
    S = generate_instance("pstar(4)")
    lam = builtin_logweight(S, "cardinality")
    prof = propagation_profile(S, lam, 2)
    assert (prof.nodes, prof.exhaustive) == (212, True)
    prof = propagation_profile(S, lam, 2, budget=7)
    assert (prof.nodes, prof.exhaustive) == (8, False)
    assert find_incompressible(generate_instance("fin(6,2)"), 4) is None


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
