import json
import math
import operator
import random
import time
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (broken_top_json, naive_breaks_associativity,
                     naive_join_closure, naive_semilattice_violations,
                     naive_tree_table, one_point_top_json,
                     planted_table_json)
from slat import core
from slat._bitset import bits, mask_of, popcount, submasks
from slat.core import (NotClosedError, Semilattice, chain, fin_truncation,
                       free_nonempty, generate_instance, kary_tree, powerset,
                       sch_embed)


def test_bitset_helpers():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert popcount(0b1011) == 3
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]


def test_chain_is_min_semilattice():
    S = chain(5)
    assert S.n == 5
    assert S.product(1, 3) == 1
    assert S.leq(0, 4) and not S.leq(4, 0)
    assert S.validate().ok


def test_powerset_and_free_sizes():
    assert powerset(3).n == 8
    assert free_nonempty(3).n == 7
    assert powerset(0).n == 1
    assert free_nonempty(3).validate().ok


def test_set_system_product_is_union():
    S = free_nonempty(3)
    for x in range(S.n):
        for y in range(S.n):
            p = S.product(x, y)
            assert S.member_mask(p) == S.member_mask(x) | S.member_mask(y)


def test_leq_is_reverse_inclusion():
    S = powerset(3)
    for x in range(S.n):
        for y in range(S.n):
            # smaller in the order means larger as a set
            assert S.leq(x, y) == (
                S.member_mask(y) & ~S.member_mask(x) == 0)


def test_factors_are_subsets():
    S = free_nonempty(3)
    p = S.id_of_mask(0b111)
    got = sorted(S.iter_factors(p))
    assert len(got) == 7  # every nonempty subset of a 3-set


def test_kary_tree_validates_and_has_meets():
    T = kary_tree(2, 3)
    assert T.n == 15
    assert T.validate().ok
    # meet of two siblings is their parent
    assert T.product(1, 2) == 0


def test_generated_tables_match_their_definitions():
    for m in range(1, 41):
        S = chain(m)
        assert S.table.tolist() == [[min(x, y) for y in range(m)]
                                    for x in range(m)]
    for k in (1, 2, 3):
        for depth in range(4):
            S = kary_tree(k, depth)
            assert S.table.tolist() == naive_tree_table(k, depth)


TABLE_HOSTS = {"chain(6)": chain(6), "tree(2,3)": kary_tree(2, 3),
               "file": Semilattice.from_table([[0, 0, 0], [0, 1, 0],
                                               [0, 0, 2]], labels=list("abc"))}


@pytest.mark.parametrize("name", list(TABLE_HOSTS))
def test_a_table_host_holds_one_read_only_int32_array(name):
    S = TABLE_HOSTS[name]
    T = S.table
    assert T.dtype == np.int32 and T.shape == (S.n, S.n)
    with pytest.raises(ValueError):
        T[0, 0] = 1
    assert S.product_table_np() is T
    rows = S.product_rows()
    for block in (rows(0, S.n), rows(1, 2, 1)):
        assert np.shares_memory(block, T)
    # the array is the one product representation: no rows or view beside it
    assert not [attr for attr, v in vars(S).items()
                if isinstance(v, (list, tuple)) and v
                and isinstance(v[0], (list, tuple, np.ndarray))]
    assert [attr for attr, v in vars(S).items()
            if isinstance(v, (np.ndarray, memoryview))] == ["table"]
    back = Semilattice.from_json(json.loads(json.dumps(S.to_json())))
    assert back.to_json() == S.to_json()
    assert back.table.tolist() == T.tolist()


def test_an_empty_table_is_zero_by_zero():
    S = Semilattice.from_table([])
    assert S.n == 0 and S.table.shape == (0, 0)
    assert S.product_table_np().shape == (0, 0)
    assert S.to_json()["product"] == []


def _collapsed_family():
    """A collapsed-top family of no cube shape whose 5-point member fails
    the density rule: unions escaping the family name the top."""
    return Semilattice.from_json({
        "kind": "set_system", "ground": list("abcdefgh"),
        "elements": [[0], [1], [0, 1], [2, 3, 4, 5, 6], list(range(8))],
        "collapsed_top": 4})


@pytest.mark.parametrize("S", [chain(9), kary_tree(2, 4),
                               sch_embed(chain(12)).semilattice,
                               _collapsed_family()],
                         ids=["chain9", "tree2_4", "embed12", "collapsed"])
def test_iter_factors_is_the_leq_definition(S):
    assert S.top_id is None or S.truncation_bound() is None
    # every table element, and some set-system member, takes the row read
    assert S.kind == "table" or any(
        p != S.top_id and not S.subsets_fit(S.member_mask(p))
        for p in range(S.n))
    for p in range(S.n):
        got = list(S.iter_factors(p))
        assert got == [z for z in range(S.n) if S.leq(p, z)]
        assert all(type(z) is int for z in got)


def test_iter_factors_names_a_missing_union_as_the_leq_walk_did():
    # member 1's four points fail the density rule (16 subsets > 4n = 8)
    S = Semilattice("set_system", 2, ground=list("abcde"),
                    masks=[0b00001, 0b11110])
    assert not S.subsets_fit(S.member_mask(1))
    with pytest.raises(NotClosedError) as walked:
        [z for z in range(S.n) if S.leq(1, z)]
    with pytest.raises(NotClosedError) as read:
        list(S.iter_factors(1))
    assert str(read.value) == str(walked.value)


def test_from_sets_rejects_non_closed():
    with pytest.raises(NotClosedError):
        Semilattice.from_sets(range(3), [[0], [1]])


def test_from_sets_close_flag_completes():
    S = Semilattice.from_sets(range(3), [[0], [1]], close=True)
    assert S.id_of_mask(0b011) is not None
    assert S.validate().ok


def test_from_sets_rejects_duplicates():
    with pytest.raises(ValueError):
        Semilattice.from_sets(range(2), [[0], [0]])


@pytest.mark.parametrize("top", [None, 2])
def test_ground_index_must_be_in_range(top):
    obj = {"kind": "set_system", "ground": ["a", "b"],
           "elements": [[0], [2], [0, 2]]}
    if top is not None:
        obj["collapsed_top"] = top
    with pytest.raises(ValueError, match="element index 2 "):
        Semilattice.from_json(obj)
    obj["elements"] = [[0], [1], [0, 1]]
    assert Semilattice.from_json(obj).n == 3


def test_json_roundtrip_set_system():
    S = free_nonempty(3)
    obj = S.to_json()
    T = Semilattice.from_json(json.loads(json.dumps(obj)))
    assert T.to_json() == obj


def test_json_roundtrip_table():
    S = kary_tree(2, 2)
    T = Semilattice.from_json(S.to_json())
    assert T.to_json() == S.to_json()


def test_json_roundtrip_collapsed_top():
    S = fin_truncation(4, 2)
    T = Semilattice.from_json(S.to_json())
    assert T.n == S.n and T.top_id == S.top_id
    for x in range(S.n):
        for y in range(S.n):
            assert S.product(x, y) == T.product(x, y)


def test_labels_follow_their_member_sets_into_canonical_order():
    ground, elements = ["a", "b"], [[0, 1], [0], [1]]
    labels = ["ab", "a", "b"]
    for S in (Semilattice.from_sets(ground, elements, labels=labels),
              Semilattice.from_json({"kind": "set_system", "ground": ground,
                                     "elements": elements, "labels": labels,
                                     "collapsed_top": 2})):
        assert [S.element_label(x) for x in range(S.n)] == ["a", "b", "ab"]
        assert [sorted(bits(S.member_mask(x))) for x in range(S.n)] == \
            [[0], [1], [0, 1]]


def test_fin_truncation_quotient_collapses():
    S = fin_truncation(4, 2)
    assert S.n == 1 + 4 + 6 + 1
    a, b = S.id_of_mask(0b0011), S.id_of_mask(0b1100)
    assert S.product(a, b) == S.top_id
    assert S.validate().ok


def test_fin_truncation_rank_unrank_roundtrip():
    S = fin_truncation(24, 8)
    assert S.n == sum(__import__("math").comb(24, i) for i in range(9)) + 1
    import random
    rng = random.Random(0)
    for _ in range(200):
        x = rng.randrange(S.n)
        assert S.id_of_mask(S.member_mask(x)) == x
    # canonical order: ids ascend with (cardinality, lexicographic bits)
    prev = None
    for x in range(0, 200):
        key = (popcount(S.member_mask(x)), tuple(bits(S.member_mask(x))))
        if prev is not None:
            assert key > prev
        prev = key


def test_generate_instance_parsing():
    assert generate_instance("chain(4)").n == 4
    assert generate_instance("fin(4,2)").n == 12
    with pytest.raises(ValueError):
        generate_instance("nope(3)")
    with pytest.raises(ValueError):
        generate_instance("chain(1,2)")


def test_sch_embed_is_a_union_closed_isomorphic_copy():
    for S in (chain(4), kary_tree(2, 2)):
        res = sch_embed(S)
        T, f = res.semilattice, res.mapping
        assert T.kind == "set_system"
        assert len(set(f)) == S.n
        for x in range(S.n):
            for y in range(S.n):
                assert f[S.product(x, y)] == T.product(f[x], f[y])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=6, unique=True))
def test_union_closure_produces_valid_instances(seeds):
    S = Semilattice.from_sets(range(5), [list(bits(m)) for m in set(seeds)],
                              close=True)
    assert S.validate().ok


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8))
def test_table_instances_satisfy_axioms(m):
    S = chain(m)
    for x in range(S.n):
        assert S.product(x, x) == x
        for y in range(S.n):
            assert S.product(x, y) == S.product(y, x)


@pytest.mark.parametrize("S", [chain(5), free_nonempty(5), fin_truncation(6, 2),
                               fin_truncation(7, 5),
                               sch_embed(chain(70)).semilattice],
                         ids=["chain5", "pstar5", "fin6_2", "fin7_5", "embed70"])
@pytest.mark.parametrize("block_elems", [1 << 18, 7])
def test_product_table_np_matches_product(S, block_elems, monkeypatch):
    monkeypatch.setattr(core, "NP_BLOCK_ELEMS", block_elems)
    loop = [[S.product(x, y) for y in range(S.n)] for x in range(S.n)]
    assert S.product_table_np().tolist() == loop


def test_product_table_np_reports_a_missing_union_like_product():
    S = Semilattice("set_system", 3, ground=["a", "b", "c"],
                    masks=[0b001, 0b010, 0b100])
    with pytest.raises(NotClosedError) as looped:
        S.product(0, 1)
    with pytest.raises(NotClosedError) as vectorized:
        S.product_table_np()
    assert str(vectorized.value) == str(looped.value)


@pytest.mark.parametrize("block_elems", [1 << 14, 3, 1])
def test_product_table_np_names_the_first_missing_union_of_any_block(
        block_elems, monkeypatch):
    # row 0 (the empty set) joins with everything; the first miss is (1, 2)
    monkeypatch.setattr(core, "NP_BLOCK_ELEMS", block_elems)
    S = Semilattice("set_system", 4, ground=["a", "b", "c"],
                    masks=[0b000, 0b001, 0b010, 0b100])
    with pytest.raises(NotClosedError) as looped:
        S.product(1, 2)
    with pytest.raises(NotClosedError) as vectorized:
        S.product_table_np()
    assert str(vectorized.value) == str(looped.value)


def test_product_table_np_is_built_per_call_and_not_kept():
    import numpy as np
    S = core.generate_instance("pstar(5)")
    first = S.product_table_np()
    assert S.product_table_np() is not first
    assert not any(isinstance(v, np.ndarray) for v in vars(S).values())


def _validate_view(S):
    rep = S.validate()
    assert rep.exhaustive and not rep.notes
    return [(v.kind, v.witness) for v in rep.violations], rep.checked_triples


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.data(), st.sampled_from([1, 5, 37, 1 << 18]))
def test_validate_matches_the_triple_loop_on_tampered_tables(n, data,
                                                             block_elems):
    table = [[min(x, y) for y in range(n)] for x in range(n)]
    if n:
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                          st.integers(0, n - 1))
        for x, y, v in data.draw(st.lists(cells, max_size=2 * n),
                                 label="tamper"):
            table[x][y] = v
    S = Semilattice.from_table(table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "NP_BLOCK_ELEMS", block_elems)
        got = _validate_view(S)
    assert got == naive_semilattice_violations(S)
    assert all(type(i) is int for _, w in got[0] for i in w)


@st.composite
def perturbed_meets(draw, nodes=6):
    """The meet table of a chain or of a random rooted tree (each node's
    parent an earlier id, so a meet is the largest common ancestor) on 1 to
    ``nodes`` nodes, with one or two cells overwritten, each alone or with
    its mirror."""
    n, line = draw(st.integers(1, nodes)), draw(st.booleans())
    below = [{0}]                       # each node's ancestors and itself
    for i in range(1, n):
        below.append(below[i - 1 if line else
                           draw(st.integers(0, i - 1))] | {i})
    table = [[max(below[x] & below[y]) for y in range(n)] for x in range(n)]
    cell = st.tuples(*[st.integers(0, n - 1)] * 3, st.booleans())
    for x, y, v, mirror in draw(st.lists(cell, min_size=1, max_size=2)):
        table[x][y] = v
        if mirror:
            table[y][x] = v
    return table


def _axioms(table):
    """Idempotence, commutativity and associativity of ``table`` by brute
    force over every ordering of every pair and triple."""
    p, ids = (lambda x, y: table[x][y]), range(len(table))
    return (all(p(x, x) == x for x in ids),
            all(p(x, y) == p(y, x) for x, y in product(ids, ids)),
            all(p(p(x, y), z) == p(x, p(y, z))
                for x, y, z in product(ids, ids, ids)))


@settings(max_examples=200, deadline=None)
@given(perturbed_meets())
@example([[0, 3, 2, 3], [3, 1, 1, 3], [2, 1, 2, 3], [3, 3, 3, 3]])
def test_validate_is_ok_exactly_on_semilattices(table):
    """The example fails only the (xz)y bracketing of 0 <= 1 <= 2."""
    assert Semilattice.from_table(table).validate().ok == all(_axioms(table))


@settings(max_examples=300, deadline=None)
@given(perturbed_meets(nodes=9))
@example([[0, 3, 2, 3], [3, 1, 1, 3], [2, 1, 2, 3], [3, 3, 3, 3]])
@example([[0, 1, 2], [1, 1, 0], [2, 0, 2]])
def test_validate_past_the_cap_gives_one_witness(table):
    """Past ``FULL_VALIDATE_CAP`` a table is ok exactly when it is a
    semilattice.  A commutative, idempotent one that is not gets one sorted
    witness that breaks a bracketing; any other one gets the exhaustive
    scan's idempotence and commutativity failures and the note.  On the
    second example the identity fails at (0, 1, 2) and only the second
    candidate, (x, x, y) = (1, 1, 2), breaks a bracketing."""
    S = Semilattice.from_table(table)
    want = S.validate().to_json()       # the exhaustive scan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "FULL_VALIDATE_CAP", 0)
        rep = S.validate()
    idempotent, commutative, associative = _axioms(table)
    assert rep.ok == (idempotent and commutative and associative)
    if not (idempotent and commutative):
        assert rep.to_json() == {
            **want, "checked_triples": 0, "exhaustive": False,
            "notes": ["associativity not checked"],
            "violations": [v for v in want["violations"]
                           if v["kind"] != "NotAssociative"]}
    elif rep.ok:
        assert rep.to_json() == want
    else:
        [v] = rep.violations
        assert rep.exhaustive and not rep.notes
        assert v.kind == "NotAssociative" and list(v.witness) == \
            sorted(v.witness)
        assert naive_breaks_associativity(S.product, v.witness)


@pytest.mark.parametrize("S", [free_nonempty(4), fin_truncation(6, 2),
                               kary_tree(2, 3), sch_embed(chain(70)).semilattice],
                         ids=["pstar4", "fin6_2", "tree2_3", "embed70"])
def test_validate_matches_the_triple_loop_on_generated_hosts(S):
    assert _validate_view(S) == naive_semilattice_violations(S)


def test_validate_says_when_idempotence_is_checked_on_a_prefix():
    # no host is checked on a prefix: a cube past 100 000 elements is a
    # semilattice by construction, and its report is the exhaustive one
    big = core.generate_instance("fin(24,6)")
    assert big.n > 100_000
    assert big.validate().to_json() == _by_construction(big)


@pytest.mark.parametrize("S", [free_nonempty(4), powerset(3),
                               fin_truncation(5, 2), fin_truncation(6, 2),
                               sch_embed(chain(70)).semilattice],
                         ids=["pstar4", "powerset3", "fin5_2", "fin6_2",
                              "embed70"])
def test_a_report_by_construction_is_the_dense_scans(S):
    """A set system with no collapsed top, or a cube family, is not
    scanned; its report is the one the dense scan gives on its table."""
    dense = Semilattice.from_table(S.product_table_np().tolist())
    assert S.validate().to_json() == dense.validate().to_json() == \
        _by_construction(S)


def _by_construction(S):
    return {"ok": True, "violations": [], "exhaustive": True, "notes": [],
            "checked_triples": math.comb(S.n + 2, 3)}


def _ranked(spec):
    """The cube ``spec`` in rank storage, whatever its size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "IMPLICIT_THRESHOLD", 0)
        S = generate_instance(spec)
    assert S._masks is None
    return S


#: hosts above FULL_VALIDATE_CAP off the union rule: a cube on more than
#: 14 points, a table, and a collapsed top on more than SUBSET_MAX_BITS
#: points
PAST_THE_CAP_HOSTS = {
    "fin(16,3)": lambda: generate_instance("fin(16,3)"),
    "fin(16,3) ranked": lambda: _ranked("fin(16,3)"),
    "planted table": lambda: Semilattice.from_json(planted_table_json()),
    # more than 63 points: masks are Python ints in object arrays
    "broken top, 70 points": lambda: Semilattice.from_json(broken_top_json(
        70, [(i, i + d) for d in (0, 1, 5) for i in range(70 - d)]
        + [(i, i + 1, i + 2) for i in range(68)])),
}


@cache
def _past_the_cap(name):
    S = PAST_THE_CAP_HOSTS[name]()
    assert S.n > core.FULL_VALIDATE_CAP
    return S


@pytest.mark.parametrize("name", list(PAST_THE_CAP_HOSTS))
def test_sampled_validate_matches_the_triple_loop(name):
    """Past the cap: a cube is ok by construction in either storage; the
    planted table lists every idempotence and commutativity failure and
    checks no associativity; the broken top gets one witness."""
    S = _past_the_cap(name)
    rep, p = S.validate(), S.product
    if name.startswith("fin"):
        assert rep.to_json() == _by_construction(S)
    elif name == "planted table":
        ids = range(S.n)
        assert [(v.kind, v.witness) for v in rep.violations] == \
            [("NotIdempotent", (x,)) for x in ids if p(x, x) != x] + \
            [("NotCommutative", (x, y)) for x, y in combinations(ids, 2)
             if p(x, y) != p(y, x)]
        assert rep.notes == ["associativity not checked"]
        assert (rep.exhaustive, rep.checked_triples) == (False, 0)
    else:
        [v] = rep.violations
        assert rep.exhaustive and not rep.notes
        assert v.kind == "NotAssociative" and list(v.witness) == \
            sorted(v.witness)
        assert naive_breaks_associativity(p, v.witness)


@st.composite
def _rule_hosts(draw):
    """A set system on at most 10 points with a collapsed top: a random
    family on 2-7 points, optionally closed under unions, whose top is one
    of its members or the whole ground; a ``one_point_top_json`` host; or a
    small ``broken_top_json`` host."""
    kind = draw(st.sampled_from(["family", "family", "one point", "broken"]))
    if kind == "one point":
        return Semilattice.from_json(one_point_top_json(draw(st.integers(3, 10))))
    if kind == "broken":
        k = draw(st.integers(2, 6))
        sets = [c for m in (2, 3) for c in combinations(range(k), m)]
        picked = draw(st.lists(st.sampled_from(sets), max_size=12,
                               unique=True))
        return Semilattice.from_json(broken_top_json(k, [(0,), *picked]))
    k = draw(st.integers(2, 7))
    masks = draw(st.sets(st.integers(0, (1 << k) - 1), min_size=1,
                         max_size=12))
    if draw(st.booleans()):     # few generators keep the closure small
        masks = naive_join_closure(sorted(masks)[:5], operator.or_)
    top = (1 << k) - 1 if draw(st.booleans()) else \
        draw(st.sampled_from(sorted(masks)))
    masks = sorted({*masks, top}, key=core._canonical_key(k))
    return Semilattice.from_json({
        "kind": "set_system", "ground": list(map(str, range(k))),
        "elements": [list(bits(m)) for m in masks],
        "collapsed_top": masks.index(top)})


@settings(max_examples=300, deadline=None)
@given(S=_rule_hosts())
def test_the_union_rule_matches_the_triple_loop(S):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "FULL_VALIDATE_CAP", 0)
        rep = S.validate()
    p, top = S.product, S.top_id
    violations, _ = naive_semilattice_violations(S)
    absorbs = all(p(x, top) == top for x in range(S.n))
    assert rep.ok == (absorbs and not violations)
    # a cube family goes by construction, with no scan and no note
    assert rep.exhaustive and rep.notes == (
        [] if S._trunc else ["associativity by the union rule"])
    assert rep.checked_triples == math.comb(S.n + 2, 3)
    assert len(rep.violations) <= 1 or \
        {v.kind for v in rep.violations} == {"NotAbsorbing"}
    for v in rep.violations:
        if v.kind == "NotAssociative":
            a, b, m = v.witness
            assert p(p(a, b), m) != p(a, p(b, m))
        else:
            x, t, q = v.witness
            assert (v.kind, t) == ("NotAbsorbing", top)
            assert p(x, top) == q != top


@st.composite
def _wide_rule_hosts(draw):
    """A listed collapsed-top family of 252-800 members on 9-12 points: the
    members of a truncation (every set of at most c points, the whole
    ground as its top) less some random nonempty members, plus some random
    extra ones, at least one member changed."""
    k = draw(st.integers(9, 12))
    sizes = [sum(math.comb(k, i) for i in range(c + 1))
             for c in range(k - 1)]
    c = draw(st.sampled_from([c for c, n in enumerate(sizes)
                              if 260 <= n <= 790]))
    top = (1 << k) - 1
    masks = [m for m in range(top) if m.bit_count() <= c]
    drop = draw(st.sets(st.sampled_from(masks[1:]), max_size=8))
    extra = draw(st.sets(st.sampled_from([m for m in range(top)
                                          if m.bit_count() > c]),
                         min_size=0 if drop else 1, max_size=8))
    masks = sorted({*masks, *extra, top} - drop, key=core._canonical_key(k))
    return Semilattice.from_json({
        "kind": "set_system", "ground": list(map(str, range(k))),
        "elements": [list(bits(m)) for m in masks],
        "collapsed_top": masks.index(top)})


@settings(max_examples=25, deadline=None)
@given(S=_wide_rule_hosts())
def test_the_union_rule_matches_the_dense_table_on_random_families(S):
    # past the cap a listed collapsed top takes the union rule; the dense
    # route decides the same host by the meet identity and absorption
    assert core.FULL_VALIDATE_CAP < S.n <= 800 and S._trunc is None
    rep = S.validate()
    assert rep.notes == ["associativity by the union rule"]
    p, top = S.product, S.top_id
    absorbs = (S.join_ids(S.member_masks_np(), S.member_mask(top))
               == top).all()
    dense = core.meet_identity_failure(S.product_table_np()) is None
    assert rep.ok == (dense and absorbs)
    if not dense:
        (a, b, m), = [v.witness for v in rep.violations
                      if v.kind == "NotAssociative"]
        assert p(p(a, b), m) != p(a, p(b, m))


@pytest.mark.parametrize("spec", ["fin(10,5)", "pstar(9)", "fin(14,5)"])
def test_the_union_rule_reads_either_storage(spec):
    # cubes past the cap need no union rule: either storage is exhaustive
    # by construction
    S = generate_instance(spec)
    rep = S.validate()
    assert S.n > core.FULL_VALIDATE_CAP
    assert rep.to_json() == _by_construction(S)
    assert _ranked(spec).validate().to_json() == rep.to_json()


class _CountedRandom(random.Random):
    """A ``Random`` that counts its ``getrandbits`` calls."""
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


#: counts whose bulk draws cross several chunk seams: about 15 chunks at
#: n = 639, and at n = 2**24 + 1, where half the outputs are kept, four
SEAM_COUNTS = {639: 150_000, 2**24 + 1: 2 * core._DRAW_CHUNK + 1}


@pytest.mark.parametrize("n", [1, 2, 252, 256, 257, 639, 4096, 2**20 + 1,
                               2**24, 2**24 + 1])
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
def test_bulk_draws_are_randrange_call_by_call(n, seed):
    counts = (0, 1, 3000, SEAM_COUNTS.get(n, 0))
    rng = random.Random(seed)
    want = [rng.randrange(n) for _ in range(max(counts))]
    for count in counts:
        rng = _CountedRandom(seed)
        got = core._randrange_bulk(rng, n, count)
        assert got.dtype == np.int64 and got.tolist() == want[:count]
        assert rng.calls > 2 or count != SEAM_COUNTS.get(n)


def _old_canonical_key(mask):
    """Canonical order by its definition: the point count, then the rising
    tuple of points."""
    return popcount(mask), tuple(bits(mask))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(0, 2**8),
                          st.integers(0, 2**63 + 5), st.integers(0, 2**130)),
                max_size=30, unique=True),
       st.integers(0, 5))
def test_canonical_key_sorts_as_the_point_tuples_do(masks, spare):
    width = max(masks, default=0).bit_length()
    want = sorted(masks, key=_old_canonical_key)
    for w in (width, width + spare):
        assert sorted(masks, key=core._canonical_key(w)) == want
    sets = [list(bits(m)) for m in masks]
    closed = Semilattice.from_sets(range(width), sets[:6], close=True)
    assert closed.masks_of(np.arange(closed.n)).tolist() == sorted(
        naive_join_closure(masks[:6], operator.or_), key=_old_canonical_key)
    labels = [str(m) for m in masks]
    assert core._canonical_members(width, sets, labels) == (
        want, [str(m) for m in want])


CUBES = ([f"powerset({k})" for k in range(9)]
         + [f"pstar({k})" for k in range(1, 9)]
         + [f"fin({k},{c})" for k in range(2, 9) for c in range(k - 1)])


def _storage_view(S, k):
    """Everything a caller can see of a cube host, as plain data."""
    ids = range(S.n)
    return {
        "n": S.n, "top_id": S.top_id,
        "truncation_bound": S.truncation_bound(),
        "member_mask": [S.member_mask(x) for x in ids],
        "id_of_mask": [S.id_of_mask(m) for m in range(1 << (k + 1))],
        "product": [[S.product(x, y) for y in ids] for x in ids],
        "product_table_np": S.product_table_np().tolist(),
        "iter_factors": [list(S.iter_factors(x)) for x in ids],
        "element_label": [S.element_label(x) for x in ids],
        "to_json": S.to_json(),
    }


@pytest.mark.parametrize("spec", CUBES)
def test_explicit_and_rank_storage_agree(spec, monkeypatch):
    explicit = generate_instance(spec)
    k = len(explicit.ground)
    members = explicit.n - (explicit.top_id is not None)
    monkeypatch.setattr(core, "IMPLICIT_THRESHOLD", members)
    assert generate_instance(spec)._masks is not None
    monkeypatch.setattr(core, "IMPLICIT_THRESHOLD", members - 1)
    ranked = generate_instance(spec)
    assert explicit._masks is not None and ranked._masks is None
    want = _storage_view(explicit, k)
    assert _storage_view(ranked, k) == want
    assert _storage_view(Semilattice.from_json(explicit.to_json()), k) == want


def test_large_cubes_use_rank_storage():
    for S in (free_nonempty(20), fin_truncation(22, 21)):
        assert S._masks is None and S.top_id is None
        assert S.id_of_mask(S.member_mask(S.n - 1)) == S.n - 1


def test_union_closure_of_fourteen_singletons_is_fast():
    t = time.perf_counter()
    S = Semilattice.from_sets(range(14), [[i] for i in range(14)], close=True)
    assert time.perf_counter() - t < 0.5
    assert S.n == (1 << 14) - 1
    assert S.member_mask(S.n - 1) == (1 << 14) - 1
