"""Compressibility, incompressible-subset search, and breadth.

A finite set of elements is compressible when some proper subset already has
the same product; the breadth of a semilattice is the size of its largest
incompressible subset.  Both the test and the search compare a product t with
its k "rest products" r_y, the product without each member y, joined through
the host's ``join_seam``; on a union-closed set system a set is
incompressible exactly when every member owns a point no other member has.

On a set system without a collapsed top, breadth is therefore a question
about point sets: it is the size of the largest set P of points such that
each p in P has a member meeting P in {p} alone (the private points of an
incompressible family form such a P, and such a P picks one).  That member
exists exactly when p lies in D[~P | p], where D[X] is the union of the
members inside X, and D is one OR-transform over the 2**k subsets of the k
points of the host (F. Yates, "The design and analysis of factorial
experiments", 1937, as in ``propagation``).  When k is at most
``SUBSET_MAX_BITS`` and the points fit ``Semilattice.subsets_fit``,
``breadth`` takes this route, and a min-transform of the search positions
rebuilds the branch and bound's witness (``_first_witness``).  Tables,
other collapsed-top families and sparse or wide set systems take the branch
and bound over ``_iter_incompressible``.

That enumerator, shared with the profiles and ``find_incompressible``,
keeps the candidates that leave its set incompressible as one bitset over
its positions: those outside R(t), where t.x names t, and outside each
Q(r_y, t), where r_y.x and t.x name one element.  On a set system without a
collapsed top these are ORs and ANDs of one bitset of positions per point
(x holds a point off t; x holds every point of t less r_y); on other hosts
they compare rows of products, one row per product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import eq

import numpy as np

from ._bitset import bits, mask_of, popcount
from .core import (SUBSET_MAX_BITS, TABLE_HARD_CAP, _join_closure,
                   _subset_sweep, row_blocks)


#: most elements of a host that the branch and bound or a search may walk
_EXACT_MAX_ELEMENTS = 5000
#: most nodes of ``find_incompressible``'s search
_FIND_NODE_CAP = 2_000_000
#: bytes 0 and 1 to the digits "0" and "1", to read a row of flags as a bitset
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class EmptySetError(ValueError):
    pass


class SizeLimit(ValueError):
    pass


@dataclass
class BreadthReport:
    breadth: int
    witness: int                      # id-mask of a largest incompressible set
    exhaustive: bool
    nodes: int = 0                    # candidates tried (docs/formats.md)
    notes: list = field(default_factory=list)

    def to_json(self):
        return {"breadth": self.breadth,
                "witness": list(bits(self.witness)),
                "exhaustive": self.exhaustive,
                "nodes": self.nodes,
                "notes": list(self.notes)}


def is_compressible(S, ids):
    """Single-removal compressibility test.

    Returns ``(True, x)`` for the first x, in input order, whose removal
    leaves the product unchanged, else ``(False, None)``.  Dropping one
    element is enough: any compressing proper subset sits inside some
    single-removal set, squeezing its product to the full one.
    """
    ids = list(ids)
    if not ids:
        raise EmptySetError("compressibility is defined for nonempty sets")
    if len(ids) == 1:
        return False, None
    key, join, resolve = S.join_seam()
    prod = lambda a, b: join(a)(b)
    keys = [key(x) for x in ids]
    prefix = list(accumulate(keys, prod))                # keys[:i + 1]
    suffix = list(accumulate(reversed(keys), prod))[::-1]  # keys[i:]
    names = [suffix[1], *map(prod, prefix[:-2], suffix[2:]), prefix[-2],
             prefix[-1]]            # the rest products, then the product
    if resolve is not None:
        names = [*map(resolve, names)]
    i = names.index(names[-1])
    return (False, None) if i == len(ids) else (True, ids[i])


def _trunc_breadth_cap(S):
    """Exact breadth bound c + 1 for a cardinality-c truncation with a
    collapsed top.

    A genuine product of card <= c holds at most c disjoint private points,
    so at most c members.  A collapsed product spans t >= c + 1 points, and
    every single removal must bring it back to <= c, so each member owns at
    least t - c private points; with m members, m * (t - c) <= t forces
    t = c + 1 and singleton privates, hence at most c + 1 members — attained
    by any c + 1 singletons.
    """
    c = S.truncation_bound()
    return None if c is None else c + 1


def _point_index(S):
    """``(k, local)`` for a set system without a collapsed top whose k points
    number at most ``SUBSET_MAX_BITS`` and fit ``Semilattice.subsets_fit``:
    ``local[x]``, the inverse of ``subset_ids``, is the set of element x over
    those points, bit j for the j-th.  None for any other host."""
    if S.kind != "set_system" or S.top_id is not None or not S.n:
        return None
    G = S.member_mask(S.n - 1)  # a closed family's union, last in id order
    k = popcount(G)
    if k > SUBSET_MAX_BITS or not S.subsets_fit(G):
        return None
    ids = S.subset_ids(G)
    inside = np.flatnonzero(ids >= 0)
    local = np.empty(S.n, dtype=np.int64)
    local[ids[inside]] = inside
    return k, local


def _distinctness_order(S, index=None):
    """Element order for the search: descending count of elements not below,
    ties by canonical id.

    y is below x when x's set lies inside y's, so with the ``_point_index``
    of the host the count is n less the supersets of x, which one
    superset-sum pass over the 2**k subsets gives for every x at once;
    otherwise one row-block scan of the product table counts, for every x,
    the y with y.x != y."""
    n = S.n
    if index is not None:
        k, local = index
        supersets = np.zeros(1 << k, dtype=np.int32)
        supersets[local] = 1
        _subset_sweep(supersets, np.add, into=0)
        return np.argsort(supersets[local], kind="stable").tolist()
    if n > TABLE_HARD_CAP:
        score = [sum(not S.leq(y, x) for y in range(n)) for x in range(n)]
        return sorted(range(n), key=lambda x: (-score[x], x))
    T, ids = S.product_table_np(), np.arange(n)
    score = np.zeros(n, dtype=np.int64)     # the y with T[y, x] != y
    for r0, r1 in row_blocks(n, n):
        score += (T[r0:r1] != ids[r0:r1, None]).sum(axis=0)
    return np.argsort(-score, kind="stable").tolist()


def _iter_incompressible(S, order, counter, budget, floor=lambda: 0):
    """Depth-first enumeration of the nonempty incompressible subsets of
    ``order``, each yielded as a list that follows ``order``, parents
    before children.

    Incompressibility is hereditary, so compressible branches are cut.  A
    level stops once ``len(cur) + len(order) - i < floor()``; the floor can
    only change while the generator is suspended, so it is read again after
    each yield only.  ``counter["nodes"]`` counts the candidates tried and
    is current whenever the generator is suspended or done; past ``budget``
    the generator sets ``counter["capped"]`` and stops.

    Each open level keeps the product t of ``cur``, its rest products r_y
    (``cur`` without y; none for one member) and one bitset over the
    positions of ``order``: the candidates x that keep ``cur``
    incompressible, outside R(t), where t.x names t, and outside each
    Q(r_y, t), where r_y.x and t.x name one element (``_candidate_filter``).
    They lie among the parent level's, so a level whose parent has none
    left is empty untested.  The walk jumps to the next candidate and counts
    each position it passes as tried, whether or not it is a candidate.
    """
    key, join, resolve = S.join_seam()
    keys = [key(x) for x in order]
    n = len(order)
    keep = None                     # built when a level is first tested
    cur = []
    levels = [[0, (1 << n) - 1, None, None]]  # cursor, candidates, t, rests
    nodes = counter["nodes"]
    lo = floor()
    while levels:
        level = levels[-1]
        i, cand, total, rests = level
        last = len(cur) + n - lo    # later positions cannot reach the floor
        if last >= n:
            last = n - 1
        if i <= last:
            if cand is None:        # first visit: test the parent's rest
                cand = levels[-2][1] >> i << i
                if cand:
                    keep = keep or _candidate_filter(S, keys, join, resolve)
                    cand = keep(cand, total, rests)
                level[1] = cand
            ahead = cand >> i
            j = i + (ahead & -ahead).bit_length() - 1 if ahead else n
            tried = (j if j < last else last) - i + 1
            if nodes + tried > budget:
                counter["nodes"] = max(nodes, math.floor(budget)) + 1
                counter["capped"] = True
                return
            nodes += tried
            if j <= last:
                level[0] = j + 1
                x = new = keys[j]
                new_rests = []
                if cur:
                    add = join(x)
                    new, new_rests = add(total), [*map(add, rests)] or [x]
                    new_rests.append(total)
                cur.append(order[j])
                counter["nodes"] = nodes
                yield list(cur)
                lo = floor()
                levels.append([j + 1, None, new, new_rests])
                continue
        levels.pop()                # exhausted or cut: close the level
        if cur:
            cur.pop()
    counter["nodes"] = nodes


def _candidate_filter(S, keys, join, resolve):
    """``keep(cand, t, rests)``: the positions of the bitset ``cand`` whose
    key joins a set with product t and rest products ``rests`` (as in
    ``_iter_incompressible``; a one-member set has one rest, None, the
    empty product) without making a member droppable, that is ``cand``
    less R(t) and less each Q(r, t).

    On a set system without a collapsed top, x is outside R(t) when it
    holds a point off t, and in Q(r, t) when it holds every point of t - r
    (all of t when r is None): ORs and ANDs of one bitset of positions per
    point.  On any other host R and Q compare rows of the elements that
    a.x names, one row per key a, cached for the call with R and Q.
    """
    if S.kind == "set_system" and S.top_id is None:
        at, ground = {}, 0          # at[1 << p]: the positions holding p
        for i, m in enumerate(keys):
            ground |= m
            while m:
                low = m & -m
                at[low] = at.get(low, 0) | 1 << i
                m ^= low

        def keep(cand, t, rests):
            off, m = 0, ground & ~t
            while m:
                low = m & -m
                off, m = off | at[low], m ^ low
            cand &= off
            for r in rests or (None,):
                if not cand:
                    break
                q, m = -1, t if r is None else t & ~r
                while m:
                    low = m & -m
                    q, m = q & at[low], m ^ low
                cand &= ~q
            return cand
        return keep
    rkeys, rows, R, Q = keys[::-1], {}, {}, {}  # highest position first

    def row(a):
        if a not in rows:
            got = rkeys if a is None else [*map(join(a), rkeys)]
            rows[a] = got if resolve is None else [resolve(m) for m in got]
        return rows[a]

    def keep(cand, t, rests):
        if t not in R:
            R[t] = ~_bitset(map(eq, row(t), repeat(
                t if resolve is None else resolve(t))))
        cand &= R[t]
        for r in rests or (None,):
            if not cand:
                break
            if (r, t) not in Q:
                Q[r, t] = _bitset(map(eq, row(r), row(t)))
            cand &= ~Q[r, t]
        return cand
    return keep


def _bitset(flags):
    """A row of flags, the highest position first, as a bitset."""
    return int(bytes(flags).translate(_DIGITS), 2)


def breadth(S, cap: int = 10_000_000) -> BreadthReport:
    """Breadth with a largest incompressible set as witness.

    A cube truncation with a collapsed top takes its cardinality bound, and
    a host that ``_point_index`` indexes the point-set transform (module
    docstring); both are always exact.  Any other host takes the branch and
    bound within ``cap`` nodes, or above 5000 elements a greedy lower bound.
    The transform, and the branch and bound when it finishes, report the
    first incompressible set of the largest size in ``_distinctness_order``.
    """
    cap_exact = _trunc_breadth_cap(S)
    if cap_exact is not None:
        ids = _greedy_incompressible(S, cap_exact)
        if len(ids) == cap_exact:
            return BreadthReport(cap_exact, mask_of(ids), exhaustive=True,
                                 notes=["truncation cardinality bound"])
    index = _point_index(S)
    if index is not None:
        return _transform_breadth(S, index)
    if S.n > _EXACT_MAX_ELEMENTS:
        ids = _greedy_incompressible(S, S.n)
        return BreadthReport(len(ids), mask_of(ids), exhaustive=False,
                             notes=["greedy lower bound only (large instance)"])
    return _branch_and_bound(S, cap)


def _branch_and_bound(S, cap):
    """Breadth by branch and bound when the search fits in ``cap`` nodes;
    otherwise the best lower bound found, marked non-exhaustive.

    Incompressibility is hereditary, so any branch that turns compressible
    is cut immediately.
    """
    order = _distinctness_order(S)
    best = [order[0]] if S.n else []
    nodes, capped = 0, False
    walk = _iter_incompressible(S, order, {"nodes": 0}, math.inf,
                                lambda: len(best) + 1)
    for ids in chain([[]], walk):
        if nodes >= cap:
            capped = True
            break
        nodes += 1
        if len(ids) > len(best):
            best = ids
    return BreadthReport(len(best), mask_of(best), exhaustive=not capped,
                         nodes=nodes)


def _transform_breadth(S, index):
    """Breadth and witness on a host that ``_point_index`` indexes as
    ``(k, local)``: the largest point set P whose points each have a member
    meeting P in {p} alone, found by one OR-transform (module docstring)."""
    k, local = index
    sets = np.arange(1 << k, dtype=np.int32)    # k <= 22: int32 holds a set
    inside = np.zeros(1 << k, dtype=np.int32)   # D: union of members inside
    inside[local] = local
    _subset_sweep(inside, np.bitwise_or)
    outside = sets ^ (1 << k) - 1
    owned = np.ones(1 << k, dtype=bool)         # every point of P owned
    for j in range(k):
        owned &= (inside[outside | 1 << j] | ~sets) >> j & 1 == 1
    size = np.bitwise_count(sets)
    b = max(1, int(size[owned].max()))
    order = _distinctness_order(S, index)
    if b == 1:          # any one element is incompressible
        return BreadthReport(1, 1 << order[0], exhaustive=True, nodes=1)
    ids = _first_witness(order, index, sets[owned & (size == b)], b)
    return BreadthReport(b, mask_of(ids), exhaustive=True,
                         nodes=order.index(ids[-1]) + 1)


def _first_witness(order, index, P, b):
    """The first incompressible b-sequence of positions of ``order``, the
    set the branch and bound reports, given the point sets P of size b that
    the transform accepts (local indices, as in ``_transform_breadth``).

    A chosen prefix extends through P when each chosen member meets P in
    one point, these points are distinct, and each remaining point q of P
    has a member meeting P in {q} alone at a later position.  Greedily, the
    next member is the earliest that keeps some P extendable.  Every P
    starts extendable, and no remaining point of a P that stays so has a
    member before the last chosen position: such a member would have come
    before the chosen one.  So the next member is the earliest, over the P
    that stay extendable, of the first member meeting P in one remaining
    point q.  That member is the first member inside ~P | q: one without q
    has a union with a member holding q that is inside too, has fewer
    supersets, and so comes first in ``_distinctness_order``.  One
    min-transform over the subsets gives every first member inside.
    """
    k, local = index
    n = len(order)
    inside = np.full(1 << k, n, dtype=np.int32)
    inside[local[order]] = np.arange(n)     # position of the member at a set
    _subset_sweep(inside, np.minimum)       # first member inside each set
    points = np.arange(k)
    pts = P[:, None] >> points & 1 == 1
    first = inside[(P[:, None] ^ (1 << k) - 1) | 1 << points]  # at ~P | q
    rest, ids = pts, []
    for _ in range(b):
        x = order[int(np.where(rest, first, n).min())]
        hit = pts & (int(local[x]) >> points & 1 == 1)
        live = (hit.sum(axis=1) == 1) & (hit & rest).any(axis=1)
        pts, rest, first = pts[live], (rest & ~hit)[live], first[live]
        ids.append(x)
    return ids


def _greedy_incompressible(S, target):
    """Greedy pass in canonical order, accepting any element that keeps the
    running set incompressible; cheap and deterministic."""
    cur = []
    for x in range(S.n):
        if len(cur) >= target:
            break
        if S.kind == "set_system" and S.member_mask(x) == 0:
            continue  # the empty member set can never hold a private point
        cur.append(x)
        if is_compressible(S, cur)[0]:
            cur.pop()
    return cur


def find_incompressible(S, size):
    """Some incompressible subset of exactly ``size`` elements, or None when
    the host has none.

    Tries the greedy pass first, then an exhaustive depth-first search.
    That search is cut, with SizeLimit naming the limit, on a host above
    ``_EXACT_MAX_ELEMENTS`` elements or after ``_FIND_NODE_CAP`` nodes.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if _trunc_breadth_cap(S) is not None and size > _trunc_breadth_cap(S):
        return None
    got = _greedy_incompressible(S, size)
    if len(got) >= size:
        return got[:size]
    cut = f"the search for an incompressible family of size {size} was cut"
    if S.n > _EXACT_MAX_ELEMENTS:
        raise SizeLimit(f"{cut}: the host has over {_EXACT_MAX_ELEMENTS} "
                        f"elements")
    order = _distinctness_order(S, _point_index(S))
    counter = {"nodes": 0, "capped": False}
    walk = _iter_incompressible(S, order, counter, _FIND_NODE_CAP,
                                lambda: size)
    found = next((ids for ids in walk if len(ids) == size), None)
    if counter["capped"]:
        raise SizeLimit(f"{cut} at {_FIND_NODE_CAP} nodes")
    return found


def is_free_embedding(S, ids) -> bool:
    """Whether the elements generate a free subsemilattice: the subsemigroup
    they generate has the maximal size 2^|E| - 1."""
    ids = list(ids)
    if not ids:
        raise EmptySetError("need a nonempty generating set")
    if len(ids) > 20:
        raise SizeLimit("generating sets above 20 elements are not supported")
    return len(_join_closure(ids, S.product)) == 2 ** len(ids) - 1
