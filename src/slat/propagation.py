"""Level-confined factor propagation: the one-step operator, its closure,
stability, reachability costs, and per-level profiles.

For a weight level C, the one-step operator collects every element of the
level set that divides a binary product of current members.  The least level
at which the closure from a generating set reaches a target is a bottleneck
cost: the largest weight a derivation uses, minimized over derivations.
Three passes find these first levels for every target at once:

- the subset pass, on a set system, indexes the members inside a point set
  G by the subsets of G.  Each round is a subset-sum and a Moebius
  transform over those subsets (F. Yates, 1937; Bjoerklund, Husfeldt,
  Kaski and Koivisto, "Fourier meets Moebius: fast subset convolution",
  STOC 2007), repeated to a fixed point at each weight level
  (``_pair_unions``).  Up to ``KRONECKER_MAX_BITS`` (12) points each
  transform is two float64 matrix products, one over each half of the
  subset index, exact since no partial sum exceeds 8**k, below 2**53;
  past 12 points, k integer sweeps;
- the element pass runs the same identity on the host's own order (G.-C.
  Rota, "On the foundations of combinatorial theory I: theory of Moebius
  functions", 1964).  With A[t, x] = [tx = t], x a factor of t, f = A @ R
  counts the members of R that are factors of each t, and f**2 the pairs
  whose product is a factor of t, since t(xy) = t exactly when tx = t and
  ty = t.  inv(A) turns those counts into pairs per exact product, and A.T
  marks every factor of such a product: a round is ``K @ (A @ R)**2 !=
  0``, K = A.T @ inv(A), exact in float64 on a host that passes the guard
  of ``_element_world``;
- the pair-by-pair pass works in the manner of Knuth's generalization of
  Dijkstra's algorithm (D. E. Knuth, "A generalization of Dijkstra's
  algorithm", IPL 6(1), 1977).

The subset and element passes share one level loop (``_first_levels``):
it starts at the targets' least level, skips levels that admit nothing and
stops on the round that reaches the last target.  A closure takes the
subset pass when the points of its generators and target fit the density
rule ``Semilattice.subsets_fit`` (a point set has at most 4n subsets), over
the subsets of exactly those points.  One closure (``v_value``) then runs
as one Python int (``_row_first_level``), in the index of the host's ground
when the host keeps one, and raises ``BudgetExceeded`` past
``SUBSET_MAX_BITS`` points; any other, a table's always, takes the
pair-by-pair pass.  A profile's generating sets, rows of blocks however
many, take the subset pass when the points of the level set fit the rule
and number at most ``SUBSET_MAX_BITS``; else the element pass, on a host of
at most ``FULL_VALIDATE_CAP`` elements that passes its guard; else the
pair-by-pair pass, each set alone (``_first_level_blocks``).  A collapsed
top is an element on the element pass and a member on the subset pass, where
a closure forms it once it covers an absorbing subset (``_subset_ids``).

Levels are ranks of integer numerators (``np.unique``), kept as fractions,
so they stay exact.  A world is kept in one weak memo (``_memo``) on the
object it is built from: a host keeps its element world and, on a ground
of at most 14 points that fits the density rule, the ids of every subset
of the ground and its absorbing ones; a weight keeps its levels and the
rank of every element.  Any other subset world is built per call, from
masks alone under a weight of member masks (``LogWeight.num_masks``).  Per
pair of host and weight, the weight keeps only what refers to its last
host weakly: the curve of its last exhaustive profile, which answers a
later profile on that host at a level set inside its own
(``propagation_profile``), and the integer row's ranks on the host's kept
ground with the admitted int of each level read (``_ground_row``).
Nothing is stored on either object, and no answer depends on what the
memo holds.  ``fbp`` and ``fbp_closure`` apply the definition one step at
a time; the ``fbp`` command and the cross-checks use them.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from bisect import bisect_left
from functools import cache, lru_cache, partial, reduce, total_ordering
from operator import or_

import numpy as np

from ._bitset import bits, indicator, mask_of, mask_of_indicator, popcount
from .breadth import _incompressible, breadth, is_compressible
from .core import (FULL_VALIDATE_CAP, NP_BLOCK_ELEMS, SUBSET_MAX_BITS,
                   BudgetExceeded, NotClosedError, Semilattice, _subset_masks,
                   _subset_sweep, _under_a_member, meet_identity_failure,
                   row_blocks)
from .metrics import best_guess_check, generate_filter
from .weights import LogWeight, level_set


#: a block of at most this many points takes ``_pair_unions``'s float64
#: two-half matrix form, any number of columns; past it, k-pass sweeps.  One
#: column at 5% density took 50 / 247 us at k = 12 / 13 in that form, 95 /
#: 160 us in sweeps (timeit, 2 vCPUs)
KRONECKER_MAX_BITS = 12


@total_ordering
class PropagationValue:
    """Either a finite rational reachability level or infinity."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = None if c is None else Fraction(c)

    @classmethod
    def finite(cls, c):
        return cls(c)

    @property
    def is_infinite(self):
        return self.c is None

    def __eq__(self, other):
        return isinstance(other, PropagationValue) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __lt__(self, other):
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.c < other.c

    def to_json(self):
        if self.is_infinite:
            return {"kind": "infinite"}
        return {"kind": "finite",
                "c": {"num": self.c.numerator, "den": self.c.denominator},
                "approx": float(self.c)}

    def __repr__(self):
        return "PropagationValue(inf)" if self.is_infinite \
            else f"PropagationValue({self.c})"


INFINITE = PropagationValue(None)


@dataclass
class PropagationProfile:
    L: Fraction
    value: PropagationValue
    witness_E: int                  # id-mask, 0 when no witness exists
    witness_z: int | None
    exhaustive: bool
    nodes: int = 0
    notes: list = field(default_factory=list)

    def to_json(self):
        return {"L": {"num": self.L.numerator, "den": self.L.denominator},
                "value": self.value.to_json(),
                "witness_E": list(bits(self.witness_E)),
                "witness_z": self.witness_z,
                "exhaustive": self.exhaustive,
                "nodes": self.nodes,
                "notes": list(self.notes)}


# -- one-step operator and closure ------------------------------------------

def fbp(S: Semilattice, lam: LogWeight, C, X: int) -> int:
    """One step: level-C elements dividing a binary product of two level-C
    members of X.  Always contains X restricted to the level set."""
    W = level_set(S, lam, C)
    inside = list(bits(X & W))
    products = {S.product(x, y) for i, x in enumerate(inside)
                for y in inside[i:]}
    return mask_of(z for p in products for z in S.iter_factors(p)) & W


def fbp_closure(S: Semilattice, lam: LogWeight, C, E: int):
    """Least fixed point of the one-step operator above the seed.

    Returns ``(mask, rounds)``.  The result is sandwiched between the seed
    restricted to the level set and the generated filter restricted to the
    level set; both inclusions are asserted.
    """
    W = level_set(S, lam, C)
    seed = E & W
    if seed == 0:
        return 0, 0
    cur = seed
    rounds = 0
    while True:
        nxt = fbp(S, lam, C, cur)
        rounds += 1
        if nxt == cur:
            break
        cur = nxt
    assert seed & ~cur == 0
    bound = generate_filter(S, E) & W
    assert cur & ~bound == 0
    return cur, rounds


def is_fbp_stable(S: Semilattice, lam: LogWeight, C, X: int) -> bool:
    """Whether one step at level C stays inside X."""
    return fbp(S, lam, C, X) & ~X == 0


def stability_threshold(S: Semilattice, lam: LogWeight, X: int):
    """Least C at which X stops being stable, or None when stable for all C.

    A violating triple (x, y in X, z dividing xy outside X) becomes active
    once C reaches the largest of the three weights, so X is C-stable
    exactly for C strictly below the returned value.
    """
    xs = list(bits(X))
    found = [(x, y, outside) for i, x in enumerate(xs) for y in xs[i:]
             if (outside := S.factors_mask(S.product(x, y)) & ~X)]
    if not found:
        return None
    ids = sorted(set(xs).union(*(bits(o) for *_, o in found)))
    w = dict(zip(ids, lam.num(np.array(ids)).tolist()))
    return Fraction(min(max(w[x], w[y], min(w[z] for z in bits(o)))
                        for x, y, o in found), lam.den)


# -- reachability cost -------------------------------------------------------

def _ranked(lam, ids, num=None):
    """The distinct weights, read by ``num`` (``lam.num`` by default), of the
    members among ``ids`` (-1 for none), rising, as fractions, and each id's
    rank in them, an array: ``len(levels)``, never admitted, at non-members."""
    members = ids >= 0
    nums, inv = np.unique((num or lam.num)(ids[members]), return_inverse=True)
    rank = np.full(len(ids), len(nums))
    rank[members] = inv
    return [Fraction(a, lam.den) for a in nums.tolist()], rank


def _knuth_first_levels(S, lam, E_ids, targets, factors, J, ranked=None):
    """The pair-by-pair pass: first levels of the closure from E, the
    product of which is J, over U, the ``factors`` of J.  Elements are
    settled in order of rising first level, and each settled element is
    paired with every element settled before it and with itself.  Returns
    ``{id: level}`` for each element settled before every target inside U
    is; an element outside U met there raises ``NotClosedError``.  On a
    table, the products of a newly settled element are one read of its row.
    U is ranked here unless the caller passes ``ranked``, the levels of every
    element (``range(m)`` for ranks) and a list of each id's rank in them."""
    U = list(factors(J))
    if len(U) > 200_000:
        raise BudgetExceeded(f"closure universe has {len(U)} elements")
    if ranked is None:
        levels, rank = _ranked(lam, np.array(U))
        ranked = levels, dict(zip(U, rank.tolist()))
    levels, rank = ranked
    buckets = [[] for _ in levels]      # bucket i: reached at levels[i]
    table = S.product_table_np() if S.kind == "table" else None
    pending = set(targets).intersection(U)
    first = {}
    settled = []
    formed = set()
    i, p = 0, None
    try:
        for e in E_ids:
            buckets[rank[e]].append(e)
        while pending and i < len(levels):
            if not buckets[i]:
                i += 1
                continue
            a = buckets[i].pop()
            if a in first:
                continue
            first[a] = levels[i]
            pending.discard(a)
            settled.append(a)
            row = (S.product(a, b) for b in settled) if table is None else \
                table[a][settled].tolist()
            for b, p in zip(settled, row):
                # a product formed again later is formed at a level no
                # lower, so only its first formation can lower a bucket
                if p in formed:
                    continue
                formed.add(p)
                for z in factors(p):
                    if z not in first:
                        buckets[max(rank[z], i)].append(z)
    except KeyError as exc:
        of = "a generator" if p is None else f"a factor of {a} * {b} = {p}"
        raise NotClosedError(f"{exc.args[0]}, {of}, is not a factor of the "
                             f"join {J}") from None
    return first


def _element_world(S):
    """The closed world of the element pass on a host of at most
    ``FULL_VALIDATE_CAP`` elements, from its product table: ``(A, K)`` in
    float64, A[t, x] = [tx = t] (x a factor of t) and K = A.T @ inv(A), or
    None unless the guard holds.  The guard asks for (a) a commutative table
    with the meet identity A[t, xy] = A[t, x] and A[t, y]
    (``core.meet_identity_failure``); (b) an exact integer inverse of A, by
    substitution in uint64 (wrapping) and kept only when its entries are
    below 2**53 / n and A @ inv(A) = I holds in float64, exact at that
    bound; and (c) n**2 times the largest row sum of |K| below 2**53, so
    that every partial sum of a round's float64 products is an exact
    integer."""
    n = S.n
    if n > FULL_VALIDATE_CAP:
        return None
    T = S.product_table_np()
    if not (np.array_equal(T, T.T) and meet_identity_failure(T) is None):
        return None
    A = T == np.arange(n)[:, None]
    # in the order of rising down-set size, a semilattice's A is upper
    # unitriangular, and elements with down-sets of one size are pairwise
    # incomparable: substitute a run of one size at a time
    size = A.sum(axis=0)
    order = np.argsort(size, kind="stable")
    B = A[np.ix_(order, order)].astype(np.uint64)
    Y = np.eye(n, dtype=np.uint64)
    starts = np.flatnonzero(np.diff(size[order])) + 1
    for s, e in zip(starts, [*starts[1:], n]):
        Y[:s, s:e] -= Y[:s, :s] @ B[:s, s:e]
    X = np.empty((n, n))
    X[np.ix_(order, order)] = Y.view(np.int64)
    A = A.astype(float)
    if abs(X).max() * n >= 1 << 53 or not np.array_equal(A @ X, np.eye(n)):
        return None
    K = A.T @ X
    if n * n * int(abs(K).sum(axis=1).max()) >= 1 << 53:
        return None
    return A, K


def _subset_first_levels(seeds, rank, nlevels, absorbing, cols):
    """The subset pass: one closure per row of ``seeds``, a boolean array over
    the subsets of a set G (local indices, ``rank``, ``nlevels`` levels and
    ``absorbing`` as ``_subset_world`` makes them).  Until a closure forms
    the collapsed top, each product it forms is a member inside G.  A round
    maps each row's reached set R to the members under a union of two
    members of R (``_pair_unions``); once such a union is absorbing
    (``_subset_ids``) the product is the top, which every element divides,
    and R becomes every member.  Returns ``_first_levels``; a target
    outside a join that is not the top is never reached."""
    cols = np.asarray(cols, dtype=np.int64)
    rows, local = np.nonzero(seeds)         # each row's union of seeds
    joins = np.zeros(len(seeds), dtype=np.int64)
    np.bitwise_or.at(joins, rows, local)
    topped = absorbing[joins][:, None]      # rows whose product is the top
    left = np.count_nonzero((cols & ~joins[:, None] == 0) | topped)
    top = absorbing if topped.any() else None
    return _first_levels(seeds, rank, nlevels, cols, left,
                         partial(_pair_unions, top=top))


def _element_first_levels(seeds, A, K, rank, nlevels, cols):
    """The element pass: one closure per row of ``seeds``, a boolean
    array over the elements of a host whose ``_element_world`` is
    ``(A, K)``, with ``rank`` and its ``nlevels`` levels over every element.

    A round maps each row's reached set R to ``K @ (A @ R)**2 != 0``, every
    factor of a product of two members of R.  The factors of a row's
    product J are the targets it reaches: t lies below J when A[t, e] holds
    for every seed e, and J is the element below J with the most elements
    below it.  Returns ``_first_levels``.
    """
    f = A @ seeds.T
    below = f == seeds.sum(axis=1)          # t below each row's product J
    joins = np.where(below, A.sum(axis=0)[:, None], -1).argmax(axis=0)
    left = np.count_nonzero(A[joins][:, cols])
    return _first_levels(seeds, rank, nlevels, cols, left,
                         lambda R: K @ np.square(A @ R) != 0)


def _first_levels(seeds, rank, nlevels, cols, left, step):
    """The level loop of the array passes: one closure per row of ``seeds``,
    a boolean array over a world's indices with levels ``rank`` (``nlevels``
    for one never admitted), and ``left`` (row, target) pairs reachable
    among the targets at indices ``cols``.

    The rows run together, each a column of one array.  At level i a round,
    ``step``, maps each column's reached set R to a superset, whose members
    of rank at most i are the next R, until their count stops growing.  No
    target is reached below its own rank, so the pass starts at the least
    rank of a target; the last round's output carries over, and the next
    level is the least rank among it and the seeds not yet admitted.
    Targets are read before each round, so the pass stops without a
    confirming round.  Returns each row's first-level index of each target
    in ``cols``, or -1 for one never reached.
    """
    seeds = np.ascontiguousarray(seeds.T)
    first = np.full((len(cols), seeds.shape[1]), -1)
    done = count = 0
    held = seeds                    # the last round's output, and the seeds
    i = rank[cols].min() if left else nlevels
    while i < nlevels:
        allowed = (rank <= i)[:, None]
        nxt = held & allowed
        while (grown := np.count_nonzero(nxt)) > count:
            got = nxt[cols]
            if (n := np.count_nonzero(got)) > done:
                first[got & (first < 0)] = i
                if (done := n) == left:
                    return first.T
            count = grown
            held = step(nxt)
            nxt = held & allowed
        held |= seeds
        i = rank.min(where=held.any(axis=1) & (rank > i), initial=nlevels)
    return first.T


@cache
def _kronecker_halves(w):
    """Read-only float64 matrices of w points: the subset-sum matrix
    transposed, the Kronecker power of [[1, 0], [1, 1]], and the superset
    Moebius matrix with its rows read from the other end (row s is row ~s),
    that of [[0, 1], [1, -1]]."""
    Z = M = np.ones((1, 1))
    for _ in range(w):
        Z, M = np.kron(Z, [[1, 0], [1, 1]]), np.kron(M, [[0, 1], [1, -1]])
    Z.flags.writeable = M.flags.writeable = False
    return Z, M


def _pair_unions(R, top=None):
    """Indicator, column by column over the 2**k subsets (the first axis) of
    a k-point set, of the subsets under some x | y, x and y in the column's
    set R.  With f the subset sums of R, f(T)**2 counts the pairs whose
    union lies inside T; by inclusion-exclusion the pairs whose union covers
    s number (-1)**|s| times the superset Moebius transform of f**2 at the
    complement of s, the same index read from the other end.  ``top``, when
    given, indicates an up-set of subsets (``_subset_ids``'s absorbing
    ones): a column that covers one becomes every subset.

    Up to ``KRONECKER_MAX_BITS`` points, every column at once, each
    transform is two float64 matrix products over the halves of the subset
    index, viewed as (2**hi, 2**lo, columns), hi = k // 2: one by the high
    half's matrix of ``_kronecker_halves`` and one, batched, by the low
    half's.  Every partial sum is an integer of at most 8**k, below 2**53
    at k <= 17, so float64 holds them exactly; the form gives way at the
    speed crossover, past which ``_swept_pair_unions``."""
    k = len(R).bit_length() - 1
    if k > KRONECKER_MAX_BITS:
        covered = _swept_pair_unions(R)
    else:
        (Zh, Mh), (Zl, Ml) = map(_kronecker_halves, (k // 2, k - k // 2))
        shape = len(Zh), len(Zl), -1
        f = Zl @ (Zh @ R.reshape(len(Zh), -1)).reshape(shape)
        np.square(f, out=f)
        covered = Ml @ (Mh @ f.reshape(len(Zh), -1)).reshape(shape) != 0
        covered = covered.reshape(R.shape)
    if top is not None:
        covered |= top @ covered
    return covered


def _swept_pair_unions(R):
    """``_pair_unions`` without a top, in k integer sweeps (``_subset_sweep``),
    one point each.  Counts are at most 4**k: int32 holds them for k <= 15
    and int64 above, exact however the passes wrap."""
    dtype = np.int32 if len(R) <= 1 << 15 else np.int64
    f = _subset_sweep(R.astype(dtype), np.add)
    np.square(f, out=f)
    return (_subset_sweep(f, np.subtract, into=0) != 0)[::-1]


# -- closure worlds ----------------------------------------------------------

#: host or weight -> {builder: the world it built from that object}, weak on
#: the object, so that its worlds die with it
_MEMO = weakref.WeakKeyDictionary()


def _memo(key, build):
    """``build(key)``, built once for ``key``, a host or a weight: the world
    must depend on ``key`` alone, and its callers only read it."""
    worlds = _MEMO.setdefault(key, {})
    if build not in worlds:
        worlds[build] = build(key)
    return worlds[build]


def _weight_ranks(lam):
    """``_ranked`` of every element of the weight, with the never-admitted
    rank, ``len(levels)``, at id -1."""
    return _ranked(lam, np.append(np.arange(lam.n), -1))


def _subset_ids(S, at, by_mask=False):
    """The ids of the subsets at the masks ``at``, every subset of a point
    set (-1 for a non-member; with ``by_mask``, the members' own masks, by
    ``Semilattice.is_member``), and the absorbing ones, an up-set: under no
    member but the collapsed top (``_under_a_member``), so none on a host
    without a top.  On a set system that passes ``validate``, members a and
    b have the top as product exactly when their union u is absorbing: the
    union rule that holds on every semilattice with a collapsed top puts
    a union that is no member under no member but the top, and were the
    top's set under such a member m, m times the top would be m, so the top
    would not absorb.  As an up-set, it holds a subset a closure covers
    exactly when it holds one of its exact unions: the top forms."""
    ids = np.where(S.is_member(at), at, -1) if by_mask else S.ids_of(at)
    if S.top_id is None:
        return ids, np.zeros(len(ids), dtype=bool)
    return ids, ~_under_a_member(ids, S.member_mask(S.top_id) if by_mask
                                 else S.top_id)


def _ground_ids(S):
    """``_subset_ids`` of every subset of the host's ground, indexed by mask,
    and the absorbing ones as one int, bit s for mask s, when they number at
    most ``NP_BLOCK_ELEMS`` and fit the density rule; else None."""
    whole = (1 << len(S.ground)) - 1
    if whole >= NP_BLOCK_ELEMS or not S.subsets_fit(whole):
        return None
    ids, absorbing = _subset_ids(S, np.arange(whole + 1))
    return ids, absorbing, mask_of_indicator(absorbing)


def _ground_row(S, lam, ids):
    """``(levels, rank, admitted)`` of the integer row in the index of the
    host's ground, whose subset ids are ``ids`` (``_ground_ids``): the
    weight's levels (``_weight_ranks``), their ranks read at ``ids``, and
    ``_admitted`` on those ranks, each level's int built on first read and
    then kept, 2**k / 8 bytes a level on k points, at most 2 KiB at 14.
    Kept in the weight's memo with a weak reference to the host, for the
    last host it was asked for."""
    memo = _MEMO.setdefault(lam, {})
    if (kept := memo.get(v_value)) is None or kept[0]() is not S:
        levels, rank = _memo(lam, _weight_ranks)
        rank = rank[ids]
        kept = memo[v_value] = (weakref.ref(S), levels, rank,
                                cache(partial(_admitted, rank)))
    return kept[1:]


def _subset_world(S, lam, G_mask):
    """The closed world of the subset pass over the subsets of G, a set of
    points of a set system: bit j of a local index stands for the j-th point
    of G.  Returns ``(at, levels, rank, absorbing)``: the mask of the subset
    at each local index, rising; distinct weights, rising, as fractions; the
    index in ``levels`` of the member at each s, or ``len(levels)`` (never
    admitted) for a non-member; and ``_subset_ids``'s absorbing flags.  On a
    host that keeps the world of its whole ground (``_ground_ids``), G's
    world is its entries at the masks of G's subsets, ranked among the
    levels of every element (``_weight_ranks``): a profile's block reads it
    there, while ``v_value`` runs in the ground's own index and never gets
    here.  Otherwise G's world is built alone, per call, and ranked among
    the members inside G, so that no weight is ranked over a large host; a
    weight of member masks (``num_masks``) reads masks alone, with no id."""
    if (ground := _memo(S, _ground_ids)) is None:
        at = _subset_masks(G_mask)
        ids, absorbing = _subset_ids(S, at, lam.num_masks is not None)
        return at, *_ranked(lam, ids, lam.num_masks), absorbing
    ids, absorbing, _ = ground
    at = np.flatnonzero(np.arange(len(ids)) & ~G_mask == 0)
    levels, rank = _memo(lam, _weight_ranks)
    return at, levels, rank[ids[at]], absorbing[at]


def _admitted(rank, i):
    """The int of the subsets admitted at level i: bit s when rank[s] <= i."""
    return mask_of_indicator(rank <= i)


@cache
def _point_ints(k):
    """For each point j of k: the ints over the 2**k subsets of those with j
    and those without it, and the shift 2**j that adds j.  Each int is read
    from its bytes, bit s for subset s."""
    full, subsets = (1 << (1 << k)) - 1, np.arange(1 << k, dtype=np.uint32)
    held = [int.from_bytes(np.packbits(subsets >> j & 1, bitorder="little"),
                           "little") for j in range(k)]
    return [(h, full ^ h, 1 << j) for j, h in enumerate(held)]


def _row_round(R, size, points, top, G):
    """One round of ``_row_first_level`` from the reached set R, inside the
    subsets of the point set G, over ``size`` subsets: every subset under
    some a | b, a and b in R, or every subset once it covers an absorbing
    one (``top``, their mask).  ``points`` maps each point of G to its
    ``_point_ints``."""
    full = (1 << size) - 1
    if R & top:
        return full
    down, strict, cover = R, 0, 0
    for h, _, w in points.values():
        down |= (down & h) >> w
    for h, _, w in points.values():
        strict |= (down & h) >> w
    maximal = R & ~strict
    steps = sum((maximal & h).bit_count() for h, _, _ in points.values())
    if steps <= max(64, 8 * len(points)):
        for a in bits(maximal):
            X = down
            for j in bits(a):
                _, o, w = points[j]
                X |= (X & o) << w
            cover |= X
    else:                       # over the subsets of G alone
        k = size.bit_length() - 1
        inside = tuple(slice(None) if G >> j & 1 else 0
                       for j in reversed(range(k)))
        local = indicator(R, size).reshape((2,) * k)[inside]
        covered = np.zeros((2,) * k, dtype=bool)
        covered[inside] = _pair_unions(local.reshape(-1, 1)).reshape(
            local.shape)
        cover = mask_of_indicator(covered.ravel())
    return full if cover & top else cover


def _row_first_level(rank, levels, seeds, target, G, top, admitted):
    """The integer row: the first level at which the closure from the
    ``seeds`` reaches the ``target``, or None when it never does, which no
    semilattice meets.  Bit s of an int is subset s of k points: either a
    local index of ``_subset_world`` over the k points of G, or a mask over
    a host's kept ground (``_ground_row``); the seeds and the target are
    subsets of G either way.  ``rank`` is each subset's index in
    ``levels`` (``len(levels)`` for one never admitted), ``top`` the mask of
    the absorbing subsets and ``admitted`` maps a level to its ``_admitted``
    int.  H_j holds the subsets with point j, and the level loop is
    ``_first_levels``'s, but the next level is the least whose admitted int
    meets the held subsets not yet admitted, found by bisection, since the
    ints grow with the level.  A round (``_row_round``) maps the reached set
    R to the subsets under some a | b, a and b in R: with D = down(R) and M
    = R & ~(the union of (D & H_j) >> 2**j), R's maximal members, the union
    over a in M of {s : s less a in D}, |a| steps X |= (X & ~H_j) << 2**j
    each, since s lies under a | b exactly when s less a lies under b, and
    a maximal member above a only covers more.  Each loop runs over the
    points of G alone.  A round that covers an absorbing subset
    (``_subset_ids``) forms the top; past max(64, 8 |G|) steps a round is
    ``_pair_unions`` over the subsets of G."""
    size, nlevels = len(rank), len(levels)
    every = _point_ints(size.bit_length() - 1)
    points = {j: every[j] for j in bits(G)}
    held = seed = mask_of(seeds)
    reached, i = 0, int(rank[target])
    while i < nlevels:
        allowed = admitted(i)
        while (nxt := held & allowed) != reached:
            if nxt >> target & 1:
                return levels[i]
            reached = nxt
            held = _row_round(nxt, size, points, top, G)
        held |= seed
        late = held & ~allowed
        i = bisect_left(range(nlevels), True, i + 1,
                        key=lambda j: late & admitted(j) != 0)


def v_value(S: Semilattice, lam: LogWeight, E: int, z: int) -> PropagationValue:
    """Least level C from which the level-C closure of E reaches z; infinite
    when z lies outside the filter generated by E.

    The first level of z is a bottleneck cost, the largest weight used by a
    derivation of z, minimized over derivations.  On a set system whose
    points G of E and z have at most 4n subsets (``Semilattice.subsets_fit``)
    the closure takes the integer row over the subsets of G: in the index
    of the host's ground, a seed or the target at its own mask, when the
    host keeps one (``_ground_ids``, at most 14 points), with the pair's
    kept ranks and level ints (``_ground_row``); else in a world of G alone
    (``_subset_world``), built per call, which past ``SUBSET_MAX_BITS``
    points raises ``BudgetExceeded`` before it allocates.  Otherwise the
    pair-by-pair pass.  Both stop as soon as z is reached.  Until the
    closure forms the collapsed top, each product is a member inside G;
    once it does, every admitted element is reached.
    """
    if E == 0:
        return INFINITE
    E_ids = list(bits(E))
    J = S.product_ids(E_ids)
    if not S.leq(J, z):
        return INFINITE
    if S.kind == "set_system" and S.subsets_fit(G := reduce(or_, masks := (
            S.masks_of([z, *E_ids]).tolist()))):
        if (ground := _memo(S, _ground_ids)) is not None:
            target, *seeds = masks
            top = ground[2]
            levels, rank, admitted = _ground_row(S, lam, ground[0])
        else:
            at, levels, rank, absorbing = _subset_world(S, lam, G)
            target, *seeds = np.searchsorted(at, masks).tolist()
            G, top = len(at) - 1, mask_of_indicator(absorbing)
            admitted = cache(partial(_admitted, rank))
        c = _row_first_level(rank, levels, seeds, target, G, top, admitted)
    else:
        c = _knuth_first_levels(S, lam, E_ids, [z], S.iter_factors, J).get(z)
    if c is None:       # a host validate rejects: no semilattice gets here
        raise NotClosedError(f"{z}, a factor of the join {J}, is not reached")
    return PropagationValue.finite(c)


# -- per-level profile -------------------------------------------------------

def _first_level_blocks(S, lam, W_ids, sets):
    """Run the closures of the generating sets ``sets``, rows of positions
    in ``W_ids`` padded with -1 (``breadth._incompressible``), a block at a
    time, in order.  Yield ``(block, first, levels)`` for each block: its
    rows, and each row's first-level index into ``levels`` of every target
    in ``W_ids`` (-1 for one never reached).  The rows of a block run
    together on the subset pass when the points of ``W_ids`` number at most
    ``SUBSET_MAX_BITS`` and fit the density rule, else on the element pass
    when the host has an ``_element_world``; otherwise the pair-by-pair
    pass runs each set alone, on one factor list per element, cached for
    this call only."""
    run = None
    if S.kind == "set_system":
        masks = S.masks_of(W_ids)
        G = int(np.bitwise_or.reduce(masks))
        if popcount(G) <= SUBSET_MAX_BITS and S.subsets_fit(G):
            at, levels, rank, absorbing = _subset_world(S, lam, G)
            size, cols = len(at), np.searchsorted(at, masks)
            run = partial(_subset_first_levels, rank=rank, cols=cols,
                          nlevels=len(levels), absorbing=absorbing)
    if run is None and (world := _memo(S, _element_world)) is not None:
        levels, rank = _memo(lam, _weight_ranks)     # rank[-1]: id -1
        size, cols = S.n, np.asarray(W_ids)
        run = partial(_element_first_levels, A=world[0], K=world[1],
                      rank=rank[:-1], nlevels=len(levels), cols=cols)
    if run is not None:
        for r0, r1 in row_blocks(len(sets), size):
            block = sets[r0:r1]
            seeds = np.zeros((len(block), size), dtype=bool)
            j, p = np.nonzero(block >= 0)
            seeds[j, cols[block[j, p]]] = True
            yield block, run(seeds), levels
        return
    factors = lru_cache(maxsize=None)(lambda p: tuple(S.iter_factors(p)))
    levels, rank = _memo(lam, _weight_ranks)
    ranked = range(len(levels)), rank.tolist()      # first levels as indices
    for row in sets:
        E_ids = [W_ids[i] for i in row if i >= 0]
        first = _knuth_first_levels(S, lam, E_ids, W_ids, factors,
                                    S.product_ids(E_ids), ranked)
        yield row[None], np.array([[first.get(z, -1) for z in W_ids]]), levels


def _reduce(prof, W_ids, sets, first, levels):
    """Fold the generating sets ``sets``, rows of positions in ``W_ids``, and
    their first-level indices ``first`` into ``levels`` at each target of
    ``W_ids`` into ``prof``: the largest first level and the first row that
    holds it, kept when larger than the value so far."""
    tops = first.max(axis=1)
    r = tops.argmax()
    v = PropagationValue.finite(levels[tops[r]])
    if v > prof.value:          # the first set with the larger value
        prof.value = v
        prof.witness_E = mask_of(W_ids[i] for i in sets[r] if i >= 0)
        # Ties go to the first target in the iteration order of the set
        # of a list (not a dict); profile output depends on this choice.
        level = {z: i for z, i in zip(W_ids, first[r].tolist()) if i >= 0}
        prof.witness_z = next(z for z in set(list(level))
                              if level[z] == tops[r])


def propagation_profile(S: Semilattice, lam: LogWeight, L, budget: int = 500_000,
                        strict: bool = False, seed: int = 0,
                        samples: int = 2000) -> PropagationProfile:
    """Double supremum of reachability cost over generating sets inside the
    level-L set and targets in the generated filter at level L.

    Only incompressible generating sets matter: a minimal set certifying a
    target is incompressible, and shrinking a generating set never lowers
    the cost.  Exhaustive when the enumeration (``breadth._incompressible``)
    fits the budget; otherwise a seeded sampled lower bound over the sets
    within it and the samples (or BudgetExceeded in strict mode).  The
    closures run a block of generating sets at a time, in enumeration order
    (``_first_level_blocks``), on the pass that function states, and every
    block is reduced the same way (``_reduce``).  Every pass gives
    the same profile.

    A first level does not depend on L, and the incompressible sets inside
    a level set are those of a larger one inside it, in the same order.  So
    an exhaustive walk keeps its curve in the weight's memo: the level set,
    its sets, their first levels (at most ``NP_BLOCK_ELEMS << 6``) and a
    weak reference to the host.  A later profile on that host inside the
    kept level set whose count fits its budget reduces the kept rows inside
    its level set at its own targets.
    """
    L = Fraction(L)
    W_mask = level_set(S, lam, L)
    W_ids = list(bits(W_mask))
    prof = PropagationProfile(L, PropagationValue.finite(0), 0, None, True)
    if not W_ids:
        prof.notes.append("empty level set")
        return prof
    memo = _MEMO.setdefault(lam, {})
    if (kept := memo.get(propagation_profile)) and kept[0]() is S \
            and len(W_ids) <= len(kept[1]):
        _, ids, sets, first, levels = kept
        cols = np.searchsorted(ids, W_ids)
        where = np.full(len(ids) + 1, -2)   # -1, the padding, stays
        where[cols], where[-1] = range(len(W_ids)), -1
        sets = where[sets]
        inside = (sets > -2).all(axis=1)
        sets, n = sets[inside], len(W_ids)
        prof.nodes = n + len(sets) * (n - 1) - int(sets.max(axis=1).sum())
        if prof.nodes <= budget:
            _reduce(prof, W_ids, sets, first[inside][:, cols], levels)
            return prof
    sets, prof.nodes = _incompressible(S, W_ids, budget=budget)
    if prof.nodes > budget:
        if strict:
            raise BudgetExceeded("profile enumeration exceeded the budget")
        prof.exhaustive = False
        prof.notes.append("budget exceeded; sampled lower bound")
        rng = random.Random(seed)
        drawn = np.full((len(sets) + samples, max(12, sets.shape[1])), -1)
        drawn[:len(sets), :sets.shape[1]] = sets
        for row in drawn[len(sets):]:
            size = rng.randrange(1, min(len(W_ids), 12) + 1)
            E_ids = sorted(rng.sample(W_ids, size))
            # random greedy reduction to an incompressible core
            while len(E_ids) > 1:
                comp, x = is_compressible(S, E_ids)
                if not comp:
                    break
                E_ids.remove(x)
            row[:len(E_ids)] = np.searchsorted(W_ids, E_ids)
        sets = drawn
    keep = prof.exhaustive and len(sets) * len(W_ids) <= NP_BLOCK_ELEMS << 6
    firsts = []
    for block, first, levels in _first_level_blocks(S, lam, W_ids, sets):
        _reduce(prof, W_ids, block, first, levels)
        if keep:
            firsts.append(first.astype(np.min_scalar_type(-len(levels))))
    if keep:
        memo[propagation_profile] = (weakref.ref(S), np.array(W_ids), sets,
                                     np.concatenate(firsts), levels)
    return prof


# -- cross-checks ------------------------------------------------------------

@dataclass
class EquivalenceReport:
    L: Fraction
    C: Fraction
    checked: int
    stable_count: int
    violations: list
    exhaustive: bool

    @property
    def ok(self):
        return not self.violations


def check_equivalence_iii(S: Semilattice, lam: LogWeight, L,
                          C) -> EquivalenceReport:
    """Scan C-stable sets G for failures of the level-L agreement identity
    (G at level L versus the filter it generates at level L).

    Exhaustive over all subsets for n <= 20; above, the closures of 4000
    random seeds drawn under seed 0 (they reach representative stable sets).
    A violating triple that touches an element above C never activates at
    C, so G is C-stable exactly when its level-C part is; stability is
    decided once per level-C part and agreement once per level-L part.
    """
    L = Fraction(L)
    C = Fraction(C)
    W_C, W_L = level_set(S, lam, C), level_set(S, lam, L)

    @cache
    def stable(part):
        t = stability_threshold(S, lam, part)
        return t is None or C < t

    agrees = cache(partial(best_guess_check, S, lam, L=L))
    exhaustive = S.n <= 20
    if exhaustive:
        candidates = range(1 << S.n)
    else:
        rng = random.Random(0)
        candidates = (fbp_closure(S, lam, C, mask_of(rng.sample(
            range(S.n), rng.randrange(0, 8))))[0] for _ in range(4000))
    violations = []
    checked = stable_count = 0
    for G in candidates:
        checked += 1
        if stable(G & W_C):
            stable_count += 1
            if not agrees(G & W_L):
                violations.append(G)
    return EquivalenceReport(L, C, checked, stable_count, violations,
                             exhaustive)


@dataclass
class BreadthBoundReport:
    L: Fraction
    breadth: int
    profile: PropagationProfile
    bound: Fraction
    max_ratio: Fraction | None
    passed: bool


def finite_breadth_bound_check(S: Semilattice, lam: LogWeight,
                               L) -> BreadthBoundReport:
    """Verify the profile at level L (default budget) against breadth * L."""
    L = Fraction(L)
    br = breadth(S).breadth
    prof = propagation_profile(S, lam, L)
    bound = Fraction(br) * L
    ratio = None if bound == 0 else prof.value.c / bound
    return BreadthBoundReport(L, br, prof, bound, ratio,
                              prof.value.c <= bound)
