"""Compressibility, incompressible-subset search, and breadth.

A finite set of elements is compressible when some proper subset already has
the same product; the breadth of a semilattice is the size of its largest
incompressible subset.  Both the test and the search compare a product with
its k "rest products", the product without each member, joined through the
host's ``join_seam``; on a union-closed set system a set is
incompressible exactly when every member owns a point no other member has.

On a set system without a collapsed top, breadth is therefore a question
about point sets: it is the size of the largest set P of points such that
each p in P has a member meeting P in {p} alone (the private points of an
incompressible family form such a P, and such a P picks one).  That member
exists exactly when p lies in D[~P | p], where D[X] is the union of the
members inside X, and D is one OR-transform over the 2**k subsets of the k
points of the host (F. Yates, "The design and analysis of factorial
experiments", 1937, as in ``propagation``).  When k is at most
``SUBSET_MAX_BITS`` and 2**k <= 4n, ``breadth`` takes this route, and a
min-transform of the search positions rebuilds the branch and bound's
witness (``_first_witness``).  Tables, other collapsed-top families and
sparse or wide set systems take the branch and bound over
``_iter_incompressible``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from ._bitset import bits, mask_of, popcount
from .core import SUBSET_MAX_BITS, _join_closure


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


def _droppable(total, rests, resolve):
    """Position of the first rest product naming the element ``total``
    names, or None."""
    if resolve is not None:
        total, rests = resolve(total), [*map(resolve, rests)]
    return rests.index(total) if total in rests else None


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
    rests = [suffix[1], *map(prod, prefix[:-2], suffix[2:]), prefix[-2]]
    i = _droppable(prefix[-1], rests, resolve)
    return (False, None) if i is None else (True, ids[i])


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
    (those of some member) number at most ``SUBSET_MAX_BITS`` and pass the
    density rule 2**k <= 4n: ``local[x]`` is the set of element x over those
    points, bit j for the j-th.  None for any other host."""
    if S.kind != "set_system" or S.top_id is not None:
        return None
    masks = S.member_masks_np()
    G = int(np.bitwise_or.reduce(masks))
    k = popcount(G)
    if k > SUBSET_MAX_BITS or 1 << k > 4 * S.n:
        return None
    local = np.zeros(S.n, dtype=np.int64)
    for j, p in enumerate(bits(G)):
        local |= (masks >> p & 1).astype(np.int64) << j
    return k, local


def _distinctness_order(S, index=None):
    """Element order for the search: descending count of elements not below,
    ties by canonical id.

    y is below x when x's set lies inside y's, so with the ``_point_index``
    of the host the count is n less the supersets of x, which one
    superset-sum pass over the 2**k subsets gives for every x at once."""
    n = S.n
    if index is not None:
        k, local = index
        supersets = np.zeros(1 << k, dtype=np.int32)
        supersets[local] = 1
        for j in range(k):
            half = supersets.reshape(-1, 2, 1 << j)
            half[:, 0] += half[:, 1]
        return np.argsort(supersets[local], kind="stable").tolist()
    score = [0] * n
    for x in range(n):
        score[x] = sum(1 for y in range(n) if not S.leq(y, x))
    return sorted(range(n), key=lambda x: (-score[x], x))


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

    Each open level keeps the product of ``cur`` and its k rest products; a
    candidate x joins each once, the old product becomes the rest product
    of x, and x is compressible exactly when a rest product equals the new
    one: on a union-closed set system, when some member owns no private point.
    """
    key, join, resolve = S.join_seam()
    keys = [key(x) for x in order]
    n = len(order)
    cur = []
    levels = [(iter(range(n)), None, None)]  # (positions, product, rests)
    nodes = counter["nodes"]
    lo = floor()
    while levels:
        level = levels[-1]
        positions, total, rests = level
        last = len(cur) + n - lo  # later positions cannot reach the floor
        for i in positions:
            if i > last:
                break
            nodes += 1
            if nodes > budget:
                counter["nodes"] = nodes
                counter["capped"] = True
                return
            x = new = keys[i]
            new_rests = []
            if cur:
                add = join(x)
                new, new_rests = add(total), [*map(add, rests)] or [x]
                new_rests.append(total)
                if _droppable(new, new_rests, resolve) is not None:
                    continue
            cur.append(order[i])
            counter["nodes"] = nodes
            yield list(cur)
            lo = floor()
            levels.append((iter(range(i + 1, n)), new, new_rests))
            break
        if levels[-1] is level:   # exhausted or cut: close the level
            levels.pop()
            if cur:
                cur.pop()
    counter["nodes"] = nodes


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
    if S.n > 5000:
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
    for j in range(k):
        half = inside.reshape(-1, 2, 1 << j)
        half[:, 1] |= half[:, 0]
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
    for j in range(k):                      # first member inside each set
        half = inside.reshape(-1, 2, 1 << j)
        np.minimum(half[:, 1], half[:, 0], out=half[:, 1])
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
    """Some incompressible subset of exactly ``size`` elements, or None.

    Tries the greedy pass first; for moderate instances falls back to an
    exhaustive depth-first search (capped at 2 000 000 nodes).
    """
    if size < 1:
        raise ValueError("size must be positive")
    if _trunc_breadth_cap(S) is not None and size > _trunc_breadth_cap(S):
        return None
    got = _greedy_incompressible(S, size)
    if len(got) >= size:
        return got[:size]
    if S.n > 5000:
        return None
    order = _distinctness_order(S, _point_index(S))
    walk = _iter_incompressible(S, order, {"nodes": 0}, 2_000_000,
                                lambda: size)
    return next((ids for ids in walk if len(ids) == size), None)


def is_free_embedding(S, ids) -> bool:
    """Whether the elements generate a free subsemilattice: the subsemigroup
    they generate has the maximal size 2^|E| - 1."""
    ids = list(ids)
    if not ids:
        raise EmptySetError("need a nonempty generating set")
    if len(ids) > 20:
        raise SizeLimit("generating sets above 20 elements are not supported")
    return len(_join_closure(ids, S.product)) == 2 ** len(ids) - 1
