import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import accumulate, product
from operator import or_
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eta_of_trace
from slat import adversarial
from slat._bitset import bits, mask_of, popcount, popcounts
from slat.adversarial import (AdversarialChain, InsufficientBreadth,
                              _box_max, _classes_over, _count_classes,
                              _eta_of_traces, build_chain,
                              check_eta_subadditive, eta_weight, find_markers,
                              verify_barrier)
from slat.cli import main
from slat.core import (Semilattice, chain, fin_truncation, free_nonempty,
                       sch_embed)
from slat.propagation import v_value
from slat.weights import validate_logweight


def nested_chain_system():
    return Semilattice.from_sets(range(4), [[0], [0, 1], [0, 1, 2],
                                            [0, 1, 2, 3]])


def test_find_markers_singletons():
    S = free_nonempty(6)
    b, g = find_markers(S, 0, 3)
    assert len(b) == len(g) == 3
    assert all(popcount(S.member_mask(x)) == 1 for x in b)
    assert sorted(g) == sorted(next(bits(S.member_mask(x))) for x in b)


def test_find_markers_avoid_base_and_are_private():
    S = free_nonempty(6)
    a = 0b000111
    b, g = find_markers(S, a, 2)
    assert len(set(g)) == 2
    for j, x in enumerate(b):
        assert not a >> g[j] & 1
        assert S.member_mask(x) >> g[j] & 1
        for k, y in enumerate(b):
            if k != j:
                assert not S.member_mask(y) >> g[j] & 1


def test_find_markers_insufficient_breadth_on_chain():
    with pytest.raises(InsufficientBreadth):
        find_markers(nested_chain_system(), 0, 2)


def test_find_markers_needs_set_system():
    with pytest.raises(TypeError):
        find_markers(chain(4), 0, 1)


def test_build_chain_base_case():
    S = free_nonempty(4)
    c = build_chain(S, 1)
    assert c.depth == 1
    assert popcount(c.marker_sets[0]) == 1
    assert len(c.families[0]) == 1
    g = next(bits(c.marker_sets[0]))
    assert S.member_mask(c.families[0][0]) >> g & 1


def test_build_chain_rejects_bad_depth():
    with pytest.raises(ValueError):
        build_chain(free_nonempty(3), 0)


def test_build_chain_invariants_small_host():
    S = fin_truncation(12, 6)
    c = build_chain(S, 3)
    assert c.depth == 3
    for i, (E, F) in enumerate(zip(c.marker_sets, c.families), start=1):
        assert popcount(E) == len(F) == i
        D_prev = c.cumulative[i - 1]
        assert E & D_prev == 0
        for x in F:
            assert S.member_mask(x) & D_prev == D_prev
        for g in bits(E):
            assert sum(S.member_mask(x) >> g & 1 for x in F) == 1
    # marker sets are pairwise disjoint overall
    assert sum(popcount(E) for E in c.marker_sets) == popcount(c.d_final)


def test_build_chain_stops_with_note_when_host_too_small():
    S = fin_truncation(6, 2)
    c = build_chain(S, 5)
    assert c.depth < 5
    assert c.notes
    with pytest.raises(InsufficientBreadth):
        build_chain(S, 5, strict=True)


def test_eta_values_on_families_and_joins():
    S = fin_truncation(12, 6)
    c = build_chain(S, 3)
    eta = eta_weight(c, S)
    for n in range(1, c.depth + 1):
        for x in c.families[n - 1]:
            if n == 1:
                assert eta[x] <= 1
            else:
                assert eta[x] == 1
        z = S.product_ids(c.families[n - 1])
        assert eta[z] == 0
    # an element disjoint from every marker weighs nothing
    spare = S.id_of_mask(1 << 11) if not (c.d_final >> 11 & 1) else None
    if spare is not None:
        assert eta[spare] == 0


def test_eta_subadditive_exhaustive_and_sampled():
    S = fin_truncation(12, 6)
    c = build_chain(S, 3)
    rep = check_eta_subadditive(c, S)
    assert rep.ok and rep.exhaustive
    assert validate_logweight(S, eta_weight(c, S)).ok


def test_verify_barrier_levels():
    S = fin_truncation(12, 6)
    c = build_chain(S, 3)
    eta = eta_weight(c, S)
    for n in range(2, c.depth + 1):
        res = verify_barrier(c, S, n, eta=eta)
        assert res.passed
        assert res.value.c >= Fraction(n, 2)
        assert res.family_at_level_one and res.join_at_level_zero


def test_verify_barrier_rejects_bad_level():
    S = fin_truncation(12, 6)
    c = build_chain(S, 2)
    with pytest.raises(ValueError):
        verify_barrier(c, S, 1)
    with pytest.raises(ValueError):
        verify_barrier(c, S, 3)


def test_eta_pair_check_matches_pair_loop_in_order():
    # prefixes that are not nested give a non-subadditive eta; the points
    # are spread out so the trace indices differ from the point masks
    pts = [1, 4, 6, 9]
    cumulative = [0, 1 << 1, 1 << 4, 1 << 6, mask_of(pts)]
    c = AdversarialChain(depth=4, marker_sets=[], families=[],
                         cumulative=cumulative)
    traces = [mask_of(p for j, p in enumerate(pts) if sub >> j & 1)
              for sub in range(1 << len(pts))]
    expected = [(list(bits(t1)), list(bits(t2)))
                for t1 in traces for t2 in traces
                if eta_of_trace(t1 | t2, cumulative)
                > eta_of_trace(t1, cumulative) + eta_of_trace(t2, cumulative)]
    rep = check_eta_subadditive(c, free_nonempty(3))
    assert expected
    assert [v.witness for v in rep.violations] == expected
    assert {v.kind for v in rep.violations} == {"NotSubadditive"}
    assert all(type(p) is int for v in rep.violations for w in v.witness
               for p in w)
    assert rep.checked_triples == len(traces) ** 2
    assert json.dumps(rep.to_json())


# listed masks, rank storage with a collapsed top, masks beyond int64
ETA_HOSTS = {"pstar(8)": free_nonempty(8), "fin(20,15)": fin_truncation(20, 15),
             "sch_embed(chain(70))": sch_embed(chain(70)).semilattice}
# the prefixes of test_eta_pair_check_matches_pair_loop_in_order: not nested
SPREAD = [0, 1 << 1, 1 << 4, 1 << 6, mask_of([1, 4, 6, 9])]


def _assert_eta_matches_scalar(S, cumulative, ids, local):
    """``eta_weight`` of a chain with prefixes ``cumulative`` on the ids,
    and the table of ``check_eta_subadditive`` over the local trace indices
    of the same prefixes before their shift, ``local``, against the scalar
    rule."""
    c = AdversarialChain(depth=len(cumulative) - 1, marker_sets=[],
                         families=[], cumulative=cumulative)
    got = eta_weight(c, S).num(np.array(ids, dtype=np.int64))
    assert got.tolist() == [eta_of_trace(S.member_mask(x) & c.d_final,
                                         cumulative) for x in ids]
    size = 1 << max(local).bit_length()
    assert _eta_of_traces(np.arange(size), local).tolist() == \
        [eta_of_trace(t, local) for t in range(size)]


@pytest.mark.parametrize("name", sorted(ETA_HOSTS))
def test_eta_on_spread_prefixes_matches_the_scalar_rule(name):
    S = ETA_HOSTS[name]
    ids = range(S.n) if S.n < 300 else [0, 1, 57, S.n - 2, S.n - 1]
    _assert_eta_matches_scalar(S, SPREAD, list(ids), SPREAD)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(ETA_HOSTS)), st.data())
def test_eta_matches_the_scalar_rule(name, data):
    S = ETA_HOSTS[name]
    k = len(S.ground)
    offset = data.draw(st.integers(0, k - 8), label="offset")
    local = data.draw(st.lists(st.integers(0, (1 << 8) - 1), min_size=1,
                               max_size=5), label="prefixes")
    if data.draw(st.booleans(), label="nested"):
        local = list(accumulate(local, or_))
    ids = data.draw(st.lists(st.integers(0, S.n - 1), max_size=40),
                    label="ids")
    _assert_eta_matches_scalar(S, [0] + [D << offset for D in local],
                               ids + [S.n - 1], [0] + local)


def _spread_chain(sizes, pts):
    """A chain whose nested prefixes take the points ``pts`` in turn,
    ``sizes[j]`` of them for the j-th marker set."""
    ends = list(accumulate(sizes))
    cumulative = [0, *accumulate((mask_of(pts[i - e:i])
                                  for i, e in zip(ends, sizes)), or_)]
    return AdversarialChain(depth=len(sizes), marker_sets=[], families=[],
                            cumulative=cumulative)


def _union_maxima(prefixes, sizes):
    """The largest eta of a union of two traces, for each pair of count
    classes, over every pair of traces on the local points of
    ``prefixes``."""
    traces = np.arange(1 << sizes.sum())
    stride = np.cumprod([1, *(sizes[::-1] + 1)])[-2::-1]
    cls = sum(popcounts(traces & (D & ~C)) * w
              for C, D, w in zip(prefixes, prefixes[1:], stride))
    unions = _eta_of_traces((traces[:, None] | traces).ravel(), prefixes)
    K = int(np.prod(sizes + 1))
    out = np.full((K, K), -1)
    np.maximum.at(out, (np.repeat(cls, len(traces)), np.tile(cls, len(traces))),
                  unions)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ETA_HOSTS)), st.data())
def test_count_classes_agree_with_the_pair_scan(name, data):
    S = ETA_HOSTS[name]
    k = len(S.ground)
    sizes = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)
                      .filter(lambda s: sum(s) <= min(12, k)), label="sizes")
    pts = data.draw(st.permutations(range(k)), label="points")[:sum(sizes)]
    c = _spread_chain(sizes, pts)
    local = [mask_of(j for j, p in enumerate(sorted(pts)) if D >> p & 1)
             for D in c.cumulative]
    counts, got_sizes, eta = _count_classes(local)
    assert got_sizes.tolist() == sizes
    assert _classes_over(counts, got_sizes, eta) == []
    if sum(sizes) <= 8:
        # the box maximum is the largest eta of the unions it stands for
        box = _box_max(counts.T[:, :, None], counts.T[:, None, :],
                       got_sizes[:, None, None])
        assert (box == _union_maxima(local, got_sizes)).all()
    with mock.patch.object(adversarial, "_nested", return_value=False):
        scan = check_eta_subadditive(c, S).to_json()
    assert check_eta_subadditive(c, S).to_json() == scan


def test_a_forged_class_table_is_flagged_and_rescanned():
    # marker sets of 1, 2 and 3 points; a trace with both points of the
    # second set and one with all three of the third weigh 2 and 3, and
    # their union 5: a table that gives the second class 2 as well flags
    # that pair and no other (every other class weighs 100)
    c = _spread_chain([1, 2, 3], [3, 7, 0, 5, 2, 9])
    local = [mask_of(j for j, p in enumerate([0, 2, 3, 5, 7, 9])
                     if D >> p & 1) for D in c.cumulative]
    counts, sizes, eta = _count_classes(local)
    a = counts.tolist().index([0, 2, 0])
    b = counts.tolist().index([0, 0, 3])
    assert (eta[a], eta[b]) == (2, 3)
    forged = np.full(len(counts), 100)
    forged[[a, b]] = 2
    box = _box_max(counts.T[:, :, None], counts.T[:, None, :],
                   sizes[:, None, None])
    want = [(x, y) for x, y in product(range(len(counts)), repeat=2)
            if x <= y and box[x, y] > forged[x] + forged[y]]
    assert want == [(min(a, b), max(a, b))]
    assert _classes_over(counts, sizes, forged) == want
    # the box maximum against every count vector in each box
    for x, y in product(range(len(counts)), repeat=2):
        box_xy = [eta[counts.tolist().index(list(u))] for u in product(
            *(range(max(p, q), min(p + q, e) + 1)
              for p, q, e in zip(counts[x], counts[y], sizes)))]
        assert box[x, y] == max(box_xy)
    # a flagged class pair sends the check to the pair scan, which finds
    # the weight itself subadditive
    scans, pair_scan = [], adversarial._superadditive_pairs

    def scan(*args, **kw):
        scans.append(args)
        return pair_scan(*args, **kw)

    with mock.patch.object(adversarial, "_count_classes",
                           return_value=(counts, sizes, forged)), \
            mock.patch.object(adversarial, "_superadditive_pairs", scan):
        rep = check_eta_subadditive(c, free_nonempty(10))
    assert len(scans) == 1 and rep.ok
    assert rep.checked_triples == 4 ** 6
    with mock.patch.object(adversarial, "_superadditive_pairs", scan):
        assert check_eta_subadditive(c, free_nonempty(10)).ok
    assert len(scans) == 1


@pytest.mark.slow
def test_depth_six_adversary_passes():
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["adversary", "fin(24,21)", "--nmax", "6"])
    rep = json.loads(out.getvalue())
    assert rc == 0 and rep["all_passed"]
    assert rep["chain"]["depth"] == 6 and rep["chain"]["notes"] == []
    assert [b["value"]["c"]["num"] for b in rep["barriers"]] == [1, 2, 2, 3, 3]
    assert rep["subadditive"]["checked_triples"] == 4 ** 21
