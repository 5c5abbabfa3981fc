"""The array lookups ``masks_of``, ``ids_of`` and ``subset_ids`` against
the scalar ``member_mask`` / ``id_of_mask`` (on rank storage the scalar
``_trunc_unrank`` / ``_trunc_rank``), on rank storage, listed masks and
masks past 2**63, and the speed they give the whole-host passes."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slat import core
from slat._bitset import bits
from slat.breadth import breadth
from slat.core import (BudgetExceeded, NotClosedError, Semilattice,
                       fin_truncation, free_nonempty, generate_instance,
                       sch_embed)


def _rank_host(k, lo, c, top):
    """A rank-storage cube of the subsets with lo to c of k points, with
    the full set as a collapsed top when ``top``."""
    n = core._trunc_offsets(k, lo, c)[-1]
    return Semilattice("set_system", n + top, ground=list(range(k)),
                       trunc=(k, lo, c), top_id=n if top else None)


def _want_ids(S, masks):
    return [-1 if x is None else x for x in map(S.id_of_mask, masks)]


@st.composite
def _shapes(draw, max_k=12):
    """``(k, lo, c, top)``: a top only where some union escapes size c."""
    k = draw(st.integers(1, max_k))
    lo = draw(st.integers(0, k))
    c = draw(st.integers(lo, k))
    return k, lo, c, draw(st.booleans()) and c < k - 1


def _probe_masks(rng, k, count):
    """Masks of every popcount over k points, and some with bits k and
    above (still below 2**63)."""
    out = [(1 << k) - 1, 0]
    for _ in range(count):
        m = rng.getrandbits(k)
        if rng.random() < 0.2:
            m |= 1 << rng.randrange(k, 62)
        out.append(m)
    return out


@settings(max_examples=150, deadline=None)
@given(shape=_shapes(), seed=st.integers(0, 2**32))
def test_rank_arrays_match_the_scalar_rank_and_unrank(shape, seed):
    k, lo, c, top = shape
    S = _rank_host(k, lo, c, top)
    rng = random.Random(seed)
    ids = [rng.randrange(S.n) for _ in range(40)] + [0, S.n - 1]
    masks = S.masks_of(np.array(ids))
    assert masks.dtype == np.int64
    assert masks.tolist() == [core._trunc_unrank(k, lo, c, S.top_id, x)
                              for x in ids]
    assert S.ids_of(masks).tolist() == ids
    probes = _probe_masks(rng, k, 60)
    want = [core._trunc_rank(k, lo, c, S.top_id, m) for m in probes]
    assert S.ids_of(np.array(probes)).tolist() == \
        [-1 if x is None else x for x in want]


@pytest.mark.parametrize("k, lo, c, top", [(9, 0, 9, False), (10, 1, 10, False),
                                           (9, 0, 4, True), (12, 0, 2, True)])
def test_rank_arrays_cover_whole_hosts(k, lo, c, top):
    S = _rank_host(k, lo, c, top)
    every = S.masks_of(np.arange(S.n))
    assert every.tolist() == [S.member_mask(x) for x in range(S.n)]
    assert S.ids_of(np.arange(1 << k)).tolist() == \
        _want_ids(S, range(1 << k))


def test_array_lookups_keep_the_shape():
    for S in (_rank_host(8, 0, 3, True), fin_truncation(200, 3),
              free_nonempty(6)):
        ids = np.array([[0, 1, S.n - 1], [2, 3, 4]])
        masks = S.masks_of(ids)
        assert masks.shape == (2, 3)
        assert S.ids_of(masks).tolist() == ids.tolist()


_LISTED = {
    "pstar(5)": free_nonempty(5),
    "fin(6,2)": fin_truncation(6, 2),
    "fin(7,5)": fin_truncation(7, 5),
    "sch_embed(chain(70))": sch_embed(generate_instance("chain(70)"))
    .semilattice,
    "closed family": Semilattice.from_sets(
        range(9), [[0, 4], [1, 8], [2, 3, 7], [5], [6, 7]], close=True),
}


@pytest.mark.parametrize("name", list(_LISTED))
def test_listed_arrays_match_the_scalar_lookups(name):
    S = _LISTED[name]
    assert S._masks is not None
    every = S.masks_of(np.arange(S.n))
    assert every.tolist() == [S.member_mask(x) for x in range(S.n)]
    assert every.dtype == (object if max(every.tolist()) >> 63 else np.int64)
    assert S.ids_of(every).tolist() == list(range(S.n))
    rng = random.Random(len(name))
    k = len(S.ground)
    probes = [rng.getrandbits(k) for _ in range(300)]
    probes += [m | 1 << rng.randrange(k) for m in every.tolist()[:50]]
    probes = np.array(probes, dtype=every.dtype)
    assert S.ids_of(probes).tolist() == _want_ids(S, probes.tolist())


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_LISTED) + ["pstar(12) rank", "fin(9,4)"]),
       seed=st.integers(0, 2**32))
def test_subset_ids_index_the_subsets_of_a_point_set(name, seed):
    S = _LISTED.get(name) or (_rank_host(12, 1, 12, False) if "rank" in name
                              else _rank_host(9, 0, 4, True))
    rng = random.Random(seed)
    G = 0
    for x in rng.sample(range(S.n), min(S.n, 3)):
        G |= S.member_mask(x)
    pts = list(bits(G))[:12]
    G = sum(1 << p for p in pts)
    subs = [sum(1 << p for j, p in enumerate(pts) if s >> j & 1)
            for s in range(1 << len(pts))]
    assert S.subset_ids(G).tolist() == _want_ids(S, subs)


def test_subset_ids_refuse_a_wide_set_before_allocating():
    S = generate_instance("fin(23,22)")
    with pytest.raises(BudgetExceeded, match="23 points"):
        S.subset_ids((1 << 23) - 1)


def test_wide_rank_host_by_samples():
    # fin(200,3): masks reach 2**199, so the lookups go one at a time
    S = fin_truncation(200, 3)
    rng = random.Random(5)
    ids = [rng.randrange(S.n) for _ in range(500)] + [S.top_id, 0]
    masks = S.masks_of(np.array(ids))
    assert masks.dtype == object
    assert masks.tolist() == [core._trunc_unrank(200, 0, 3, S.top_id, x)
                              for x in ids]
    assert S.ids_of(masks).tolist() == ids
    probes = [1 << 150 | 1 << 3 | 1 << 199 | 1, 1 << 63, 0b1111, 1 << 200]
    assert S.ids_of(np.array(probes, dtype=object)).tolist() == \
        _want_ids(S, probes)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 9), data=st.data())
def test_dense_ids_match_the_binary_search(k, data):
    # members on k bits, at least 2^k / 4 of them and one holding bit k - 1
    masks = data.draw(st.lists(st.integers(0, (1 << k) - 1), unique=True,
                               min_size=(1 << k) // 4, max_size=1 << k)
                      .map(lambda ms: [1 << k - 1] + [m for m in ms
                                                      if m != 1 << k - 1]),
                      label="masks")
    masks = data.draw(st.permutations(masks), label="order")
    masks_of, ids_of = core._listed_lookups(masks)
    assert ids_of.func is core._dense_ids
    arr = masks_of(np.arange(len(masks)))
    order = np.argsort(arr)

    def binary(ms):
        return core._sorted_ids(order, arr[order], ms)

    probe = st.one_of(st.integers(0, (1 << k + 1) - 1),
                      st.integers(0, 2**63 - 1))
    a = np.array(data.draw(st.lists(probe, max_size=30), label="a"),
                 dtype=np.int64)
    b = np.array(data.draw(st.lists(probe, max_size=30), label="b"),
                 dtype=np.int64)
    wide = np.array(data.draw(st.lists(st.one_of(
        st.integers(0, (1 << k) - 1), st.integers(2**63, 2**80)), max_size=30),
        label="wide"), dtype=object)
    for ms in (arr, a, wide, a[:, None] | b, a[:2, None] | b[None, :3],
               np.array([], dtype=np.int64), np.array([], dtype=object),
               np.zeros((0, 3), dtype=np.int64)):
        got = ids_of(ms)
        assert got.dtype == np.int64 and got.shape == ms.shape
        assert got.tolist() == binary(ms).tolist()
        assert got.ravel().tolist() == [masks.index(m) if m in masks else -1
                                        for m in ms.ravel().tolist()]


def test_narrow_members_of_a_wide_ground_use_the_dense_table():
    # 70 ground points, members on the first two: probes past 2**63 are
    # object arrays, and every one of them names no member
    S = Semilattice.from_sets(range(70), [[0], [1], [0, 1]])
    assert S.ids_of.func is core._dense_ids
    assert S.subset_ids(1 << 69 | 1 << 1 | 1).tolist() == \
        [-1, 0, 1, 2, -1, -1, -1, -1]
    a = np.array([1, 2, 3], dtype=object)
    assert S.join_ids(a[:, None], a).tolist() == \
        [[0, 2, 2], [2, 1, 2], [2, 2, 2]]
    with pytest.raises(NotClosedError, match="elements 0 and -1"):
        S.join_ids(a[:, None], np.array([1 << 69], dtype=object))


def test_the_density_rule_is_the_4n_rule():
    S = free_nonempty(5)                            # n = 31
    assert S.subsets_fit((1 << 6) - 1) and not S.subsets_fit((1 << 7) - 1)


# -- whole-host passes on rank storage ------------------------------------------

def _timed(fn):
    """The best of three wall times of ``fn()``, and its last result: a
    neighbour's load on a shared machine only ever adds time."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t)
    return best, out


def test_validate_on_a_rank_host_is_fast():
    S = fin_truncation(24, 8)
    took, rep = _timed(S.validate)
    assert rep.ok and rep.checked_triples == 50_000
    assert took < 0.4


def test_member_masks_of_a_rank_host_are_fast():
    S = free_nonempty(19)
    took, masks = _timed(S.member_masks_np)
    assert took < 0.6
    assert masks.shape == (S.n,) and masks[[0, 18, -1]].tolist() == \
        [1, 1 << 18, (1 << 19) - 1]


def test_breadth_of_a_rank_host_is_fast():
    S = free_nonempty(19)
    took, rep = _timed(lambda: breadth(S))
    assert took < 0.6
    assert (rep.breadth, rep.exhaustive) == (19, True)
