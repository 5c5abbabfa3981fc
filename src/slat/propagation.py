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
  subset index, exact since no partial sum exceeds 8**k (16**k in the
  topped dot product), below 2**53; past 12 points, k integer sweeps;
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
as one Python int (``_row_first_level``), and raises ``BudgetExceeded``
past ``SUBSET_MAX_BITS`` points; any other, a table's always, takes the
pair-by-pair pass.  A profile's generating sets, rows of blocks however
many, take the subset pass when the points of the level set fit the rule
and number at most ``SUBSET_MAX_BITS``; else the element pass, on a host of
at most ``FULL_VALIDATE_CAP`` elements that passes its guard; else the
pair-by-pair pass, each set alone (``_first_level_blocks``).  A collapsed
top is a member on the subset pass, an element on the element pass.

Levels are ranks of integer numerators (``np.unique``), kept as fractions,
so they stay exact.  A world is kept in one weak memo (``_memo``) on the
object it is built from: a host keeps its element world and, on a ground
of at most 14 points that fits the density rule, the ids of every subset
of the ground; a weight keeps its levels, the rank of every element and the
curve of its last exhaustive profile, which refers to its host weakly and
answers a later profile on that host at a level set inside its own
(``propagation_profile``).  Nothing else is kept per pair of host and
weight, nothing is stored on either, and no answer depends on what the memo
holds.  ``fbp`` and
``fbp_closure`` apply the definition one step at a time; the ``fbp``
command and the cross-checks use them.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial, total_ordering

import numpy as np

from ._bitset import bits, indicator, mask_of, mask_of_indicator, popcount
from .breadth import _incompressible, breadth, is_compressible
from .core import (FULL_VALIDATE_CAP, NP_BLOCK_ELEMS, SUBSET_MAX_BITS,
                   BudgetExceeded, NotClosedError, Semilattice, _subset_masks,
                   _subset_sweep, meet_identity_holds, row_blocks)
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

def _ranked(lam, ids):
    """The distinct weights of the members among ``ids`` (-1 for none),
    rising, as fractions, and each id's rank in them, an array:
    ``len(levels)``, never admitted, at a non-member."""
    members = ids >= 0
    nums, inv = np.unique(lam.num(ids[members]), return_inverse=True)
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
    (``core.meet_identity_holds``); (b) an exact integer inverse of A, by
    substitution in uint64 (wrapping) and kept only when its entries are
    below 2**53 / n and A @ inv(A) = I holds in float64, exact at that
    bound; and (c) n**2 times the largest row sum of |K| below 2**53, so
    that every partial sum of a round's float64 products is an exact
    integer."""
    n = S.n
    if n > FULL_VALIDATE_CAP:
        return None
    T = S.product_table_np()
    if not (np.array_equal(T, T.T) and meet_identity_holds(T)):
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
    members of R (``_pair_unions``); once such a union is absorbing the
    product is the top, which every element divides, and R becomes every
    member.  Returns ``_first_levels``; a target outside a join that is not
    the top is never reached."""
    cols = np.asarray(cols, dtype=np.int64)
    rows, local = np.nonzero(seeds)         # each row's union of seeds
    joins = np.zeros(len(seeds), dtype=np.int64)
    np.bitwise_or.at(joins, rows, local)
    topped = absorbing[joins][:, None]      # rows whose product is the top
    left = np.count_nonzero((cols & ~joins[:, None] == 0) | topped)
    top = _topped_form(absorbing) if topped.any() else None
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


def _topped_form(top):
    """The superset Moebius transform of the indicator ``top``, in float64:
    its dot product with the f**2 of ``_pair_unions`` counts the pairs with
    an exact union marked in ``top``."""
    return _subset_sweep(top.astype(float), np.subtract, into=0)


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
    given, is ``_topped_form`` of an indicator of subsets: a column with an
    exact union in it (``top @ f**2 > 0``) becomes every subset.

    Up to ``KRONECKER_MAX_BITS`` points, every column at once, each
    transform is two float64 matrix products over the halves of the subset
    index, viewed as (2**hi, 2**lo, columns), hi = k // 2: one by the high
    half's matrix of ``_kronecker_halves`` and one, batched, by the low
    half's.  Every partial sum is an integer of at most 8**k, and of the
    topped dot product at most 16**k, both below 2**53 at k <= 12, so
    float64 holds them exactly.  Past that bound, ``_swept_pair_unions``."""
    k = len(R).bit_length() - 1
    if k > KRONECKER_MAX_BITS:
        return _swept_pair_unions(R, top)
    (Zh, Mh), (Zl, Ml) = map(_kronecker_halves, (k // 2, k - k // 2))
    shape = len(Zh), len(Zl), -1
    f = Zl @ (Zh @ R.reshape(len(Zh), -1)).reshape(shape)
    np.square(f, out=f)
    f = f.reshape(R.shape)
    covered = Ml @ (Mh @ f.reshape(len(Zh), -1)).reshape(shape) != 0
    covered = covered.reshape(R.shape)
    if top is not None:
        covered |= top @ f > 0
    return covered


def _swept_pair_unions(R, top=None):
    """``_pair_unions`` in k passes of integer sweeps (``_subset_sweep``),
    one point a pass.  Counts are at most 4**k, so int32 holds them for k
    <= 15 and int64 above, exact however the passes wrap."""
    dtype = np.int32 if len(R) <= 1 << 15 else np.int64
    f = _subset_sweep(R.astype(dtype), np.add)
    np.square(f, out=f)
    topped = None if top is None else top.astype(dtype) @ f > 0
    covered = (_subset_sweep(f, np.subtract, into=0) != 0)[::-1]
    if topped is not None:
        covered |= topped
    return covered


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


def _subset_ids(S, at):
    """The ids of the subsets at the masks ``at`` (-1 for a non-member) and
    the absorbing ones, whose product is the top: non-members and the top."""
    ids = S.ids_of(at)
    absorbing = ids < 0
    if S.top_id is not None:
        absorbing |= ids == S.top_id
    return ids, absorbing


def _ground_ids(S):
    """``_subset_ids`` of every subset of the host's ground, indexed by mask,
    when they number at most ``NP_BLOCK_ELEMS`` and fit the density rule;
    else None."""
    whole = (1 << len(S.ground)) - 1
    if whole >= NP_BLOCK_ELEMS or not S.subsets_fit(whole):
        return None
    return _subset_ids(S, np.arange(whole + 1))


def _subset_world(S, lam, G_mask):
    """The closed world of the subset pass over the subsets of G, a set of
    points of a set system: bit j of a local index stands for the j-th point
    of G.  Returns ``(at, levels, rank, absorbing)``: the mask of the subset
    at each local index, rising; distinct weights, rising, as fractions; the
    index in ``levels`` of the member at each s, or ``len(levels)`` (never
    admitted) for a non-member; and ``_subset_ids``'s absorbing flags.  On a
    host that keeps the world of its whole ground (``_ground_ids``), G's
    world is its entries at the masks of G's subsets, ranked among the
    levels of every element (``_weight_ranks``).  Otherwise G's world is
    built alone and ranked among the members inside G, so that no weight is
    ranked over every element of a large host."""
    if (ground := _memo(S, _ground_ids)) is None:
        at = _subset_masks(G_mask)
        ids, absorbing = _subset_ids(S, at)
        return at, *_ranked(lam, ids), absorbing
    ids, absorbing = ground
    at = np.flatnonzero(np.arange(len(ids)) & ~G_mask == 0)
    levels, rank = _memo(lam, _weight_ranks)
    return at, levels, rank[ids[at]], absorbing[at]


@cache
def _point_ints(k):
    """For each point j of k: the ints over the 2**k subsets of those with j
    and those without it, and the shift 2**j that adds j.  Each int is read
    from its bytes, bit s for subset s."""
    full, subsets = (1 << (1 << k)) - 1, np.arange(1 << k, dtype=np.uint32)
    held = [int.from_bytes(np.packbits(subsets >> j & 1, bitorder="little"),
                           "little") for j in range(k)]
    return [(h, full ^ h, 1 << j) for j, h in enumerate(held)]


def _row_round(R, size, points, budget, top, absorbing):
    """One round of ``_row_first_level`` from the reached set R over ``size``
    subsets: every subset under some a | b, a and b in R, or every subset
    once such a union forms the top."""
    down, strict, cover = R, 0, 0
    for h, _, w in points:
        down |= (down & h) >> w
    for h, _, w in points:
        strict |= (down & h) >> w
    maximal = R & ~strict
    if sum((maximal & h).bit_count() for h, _, _ in points) <= budget:
        for a in bits(maximal):
            X = down
            for j in bits(a):
                _, o, w = points[j]
                X |= (X & o) << w
            cover |= X
        return (1 << size) - 1 if cover & top else cover
    return mask_of_indicator(_pair_unions(indicator(R, size)[:, None], (
        None if absorbing is None else _topped_form(absorbing))).ravel())


def _row_first_level(rank, nlevels, seeds, target, absorbing=None):
    """The integer row: the first level index at which the closure from the
    local ``seeds`` reaches the local ``target`` in a ``_subset_world``
    (``rank``, ``nlevels``; ``absorbing`` when the join is the top).  Bit s
    of an int is local subset s, H_j holds the subsets with point j, and the
    level loop is ``_first_levels``'s.  A round (``_row_round``) maps the
    reached set R to the subsets under some a | b, a and b in R: with D =
    down(R) and M = R & ~(the union of (D & H_j) >> 2**j), R's maximal
    members, the union over a in M of {s : s less a in D}, |a| steps X |=
    (X & ~H_j) << 2**j each, since s lies under a | b exactly when s less a
    lies under b, and a maximal member above a only covers more.  On an
    up-closed ``absorbing`` set a round that meets it forms the top; on any
    other, or past max(64, 8k) steps, a round is ``_pair_unions`` of R."""
    size = len(rank)
    points = _point_ints(size.bit_length() - 1)
    top = up = 0 if absorbing is None else mask_of_indicator(absorbing)
    for _, o, w in points:
        up |= (up & o) << w
    budget = max(64, 8 * len(points)) if up == top else -1
    held = seed = mask_of(seeds)
    reached, i = 0, rank[target]
    while i < nlevels:
        allowed = mask_of_indicator(rank <= i)
        while (nxt := held & allowed) != reached:
            if nxt >> target & 1:
                return i
            reached = nxt
            held = _row_round(nxt, size, points, budget, top, absorbing)
        held |= seed
        i = rank.min(where=indicator(held & ~allowed, size), initial=nlevels)
    raise AssertionError("target inside the generated filter never reached")


def v_value(S: Semilattice, lam: LogWeight, E: int, z: int) -> PropagationValue:
    """Least level C from which the level-C closure of E reaches z; infinite
    when z lies outside the filter generated by E.

    The first level of z is a bottleneck cost, the largest weight used by a
    derivation of z, minimized over derivations.  On a set system whose
    points G of E and z have at most 4n subsets (``Semilattice.subsets_fit``)
    the closure takes the integer row over the subsets of G, and past
    ``SUBSET_MAX_BITS`` such points raises ``BudgetExceeded`` before it
    allocates; otherwise the pair-by-pair pass.  Both stop as soon as z is
    reached.  Until the closure forms the collapsed top, each product is a
    member inside G; once it does, every admitted element is reached.
    """
    if E == 0:
        return INFINITE
    E_ids = list(bits(E))
    J = S.product_ids(E_ids)
    if not S.leq(J, z):
        return INFINITE
    if S.kind == "set_system" and S.subsets_fit(G := int(
            np.bitwise_or.reduce(masks := S.masks_of([z, *E_ids])))):
        at, levels, rank, absorbing = _subset_world(S, lam, G)
        target, *seeds = np.searchsorted(at, masks).tolist()
        first = _row_first_level(rank, len(levels), seeds, target,
                                 absorbing if J == S.top_id else None)
        return PropagationValue.finite(levels[first])
    c = _knuth_first_levels(S, lam, E_ids, [z], S.iter_factors, J).get(z)
    if c is None:
        raise AssertionError("target inside the generated filter never reached")
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
