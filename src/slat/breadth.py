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
and bound over ``_incompressible``.

That enumerator, shared with the profiles and ``find_incompressible``,
builds the incompressible sets a level at a time, as arrays: the sets of
m + 1 members extend those of m by a later position x that makes no member
droppable, x outside R(t), where t.x names t, and outside each Q(r_y, t),
where r_y.x and t.x name one element.  One gather from the product table,
or on a set system one union of member sets, gives t.x and every r_y.x for
a whole level, and a sort of the levels' positions gives the order of a
depth-first walk.  Its counts of positions tried, and the branch and
bound's cuts, follow from each set's last position and the sets before it
in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from ._bitset import bits, mask_of, popcount
from .core import (SUBSET_MAX_BITS, TABLE_HARD_CAP, _join_closure,
                   _subset_sweep, row_blocks)


#: most elements of a host that the branch and bound or a search may walk
_EXACT_MAX_ELEMENTS = 5000
#: most nodes of ``find_incompressible``'s search
_FIND_NODE_CAP = 2_000_000


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


def _distinctness_order(S, index=None, T=None):
    """Element order for the search: descending count of elements not below,
    ties by canonical id.

    y is below x when x's set lies inside y's, so with the ``_point_index``
    of the host the count is n less the supersets of x, which one
    superset-sum pass over the 2**k subsets gives for every x at once;
    otherwise one row-block scan of the host's ``product_rows`` (``T``'s
    when given), at any size, counts, for every x, the y with y.x != y."""
    n = S.n
    if index is not None:
        k, local = index
        supersets = np.zeros(1 << k, dtype=np.int32)
        supersets[local] = 1
        _subset_sweep(supersets, np.add, into=0)
        return np.argsort(supersets[local], kind="stable").tolist()
    rows = S.product_rows() if T is None else lambda r0, r1: T[r0:r1]
    ids = np.arange(n)
    score = np.zeros(n, dtype=np.int64)     # the y with y.x != y
    for r0, r1 in row_blocks(n, n):
        score += (rows(r0, r1) != ids[r0:r1, None]).sum(axis=0)
    return np.argsort(-score, kind="stable").tolist()


def _incompressible(S, order, floor=0, budget=math.inf, depth=None, T=None):
    """The nonempty incompressible subsets of ``order`` as ``(sets,
    total)``: one set a row of ``sets``, its positions in ``order`` rising
    and padded with -1, in preorder (the lexicographic order of positions,
    a set before its extensions), the order of a depth-first walk.

    Incompressibility is hereditary, so the sets of m + 1 members are those
    of m, each extended by a later position (the level-wise candidate
    generation of R. Agrawal and R. Srikant, "Fast algorithms for mining
    association rules", VLDB 1994).  A level holds, for each set, its
    positions, its product t and its rests r (the products of the set less
    one member; for one member the empty product, with r.x = x).  x is kept
    when tx != t and tx != r.x for every r, all read from one array a
    level: a gather from a table of products (``T``, else the host's own
    table), or on a set system the unions of member sets, a union that is
    not a member naming the collapsed top.  A set of m members takes no
    position past m + |order| - ``floor``, and ``depth`` is the largest
    size built.

    The walk tries, for the empty set and then for each set, every later
    position it may take.  Only the sets it reaches within ``budget``
    tries are returned; ``total`` counts its tries, or is ``budget + 1``
    (at least 1) once they pass the budget.  A level drops the sets whose tries counted
    at their own level already pass it, so it holds at most ``budget`` +
    |order| sets.
    """
    n = len(order)
    ids = np.array(order, dtype=np.int64)
    if T is None and S.kind == "table":
        T = S.product_table_np()
    if T is not None:               # row u: u.x per position; row -1, x
        rows = np.concatenate([T[:, ids], ids[None].astype(T.dtype)])
        names = ids
    else:
        masks = names = S.masks_of(ids)
        if S.top_id is not None:
            topmask = S.masks_of(np.array([S.top_id]))[0]
    at = np.arange(n)
    total = max(0, min(n, n - floor + 1))   # the empty set's tries
    # a set a row: its positions, its product, its rests; the empty
    # product is -1 in a table and no points in a set system
    state = np.empty((total, 3), dtype=names.dtype)
    state[:, 0], state[:, 1] = at[:total], names[:total]
    state[:, 2] = -1 if T is not None else 0
    levels, m = [], 0
    while len(state):
        m += 1
        top = min(n - 1, m + n - floor)
        pos, names = state[:, :m], state[:, m:]
        last = pos[:, -1]
        tries = len(pos) * top - int(last.sum())
        total += tries
        if total > budget:
            w = top - last
            keep = np.searchsorted(np.cumsum(w) - w + last + 1, budget,
                                   side="right")
            levels.append(pos[:keep + 1])   # the first set dropped marks
            state, names, last = state[:keep], names[:keep], last[:keep]
            total = max(0, math.floor(budget)) + 1  # where the prefix ends
        else:
            levels.append(pos)
        if m == depth or not len(state) or not tries:
            break
        parts = []
        for r0, r1 in row_blocks(len(state), (m + 1) * (top + 1)):
            if T is not None:               # t.x, then r.x for each rest r
                G = rows[names[r0:r1], :top + 1]
            else:
                G = names[r0:r1, :, None] | masks[:top + 1]
                if S.top_id is not None:
                    G[S.ids_of(G) < 0] = topmask
            ok = np.logical_and.reduce(G[:, 1:] != G[:, :1], axis=1)
            ok &= G[:, 0] != names[r0:r1, :1]
            ok &= at[:top + 1] > last[r0:r1, None]
            par, x = ok.nonzero()
            got = state[r0:r1][par]
            parts.append(np.concatenate([got[:, :m], x[:, None], G[par, :, x],
                                         got[:, m:m + 1]], axis=1))
        state = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return _preorder(levels, n, floor, total, budget)


def _preorder(levels, n, floor, total, budget):
    """``_incompressible``'s levels in preorder, cut after the sets within
    the budget when the walk passes it."""
    sets = np.full((sum(map(len, levels)), len(levels)), -1, dtype=np.int64)
    r0 = 0
    for m, pos in enumerate(levels, 1):
        sets[r0:r0 + len(pos), :m] = pos
        r0 += len(pos)
    sets = sets[np.lexsort(sets.T[::-1])] if len(levels) > 1 else sets
    if total > budget:
        sets = sets[np.logical_and.accumulate(_counts(sets, n, floor)
                                              <= budget)]
    return sets, total


def _counts(sets, n, floor):
    """The walk's count of tries when it reaches each of ``sets``, which
    hold in preorder every set it reaches up to the last of them: the
    positions up to the set's last, and the tries of each set before it
    but its own prefixes."""
    tops = np.minimum(n - 1, np.arange(1, sets.shape[1] + 1) + n - floor)
    rows, size = np.arange(len(sets)), (sets >= 0).sum(axis=1)
    tries = np.where(sets >= 0, tops - sets, 0)
    own = tries[rows, size - 1]
    return sets[rows, size - 1] + 1 + np.cumsum(own) - tries.sum(axis=1)


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

    The branch and bound walks the incompressible sets in preorder and
    reaches a set s while the positions after s's last can still bring it
    to a floor: one more than the largest set found before s, at least 2
    (the first member of the order is the first best).  A set cut is never
    larger than the largest set before it, so the floor is one more than
    the largest set before s, reached or not, and one level-wise pass
    (``_incompressible``) gives every cut at once.  The nodes are the empty
    set and each set reached, ``cap`` at most; the pass keeps the sets of
    its walk within ``cap`` * n tries, enough for its first ``cap`` sets,
    and twice as many while fewer than ``cap`` of those are reached.
    """
    T = S.product_table_np() if S.n <= TABLE_HARD_CAP else None
    order = _distinctness_order(S, T=T)
    n = len(order)
    keep = cap * max(n, 1)          # each set tries at most n positions
    while True:
        sets, total = _incompressible(S, order, 2, keep, T=T)
        size = (sets >= 0).sum(axis=1)
        last = sets[np.arange(len(sets)), size - 1]
        floor = 1 + np.maximum.accumulate(np.concatenate([[1], size[:-1]]))
        reached = np.flatnonzero(last <= size - 1 + n - floor)
        if total <= keep or len(reached) >= cap:
            break
        keep *= 2
    best = [order[0]] if n else []
    seen = reached[:max(cap - 1, 0)]
    if len(seen) and size[seen].max() > 1:
        row = sets[seen[size[seen].argmax()]]
        best = [order[p] for p in row[row >= 0].tolist()]
    return BreadthReport(len(best), mask_of(best),
                         exhaustive=len(reached) < cap,
                         nodes=max(0, min(cap, len(reached) + 1)))


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

    Tries the greedy pass first, then the first such set in the preorder
    of an exhaustive depth-first search (``_incompressible``).  That search
    is cut, with SizeLimit naming the limit, on a host above
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
    sets, total = _incompressible(S, order, size, _FIND_NODE_CAP,
                                  depth=size)
    found = sets[(sets >= 0).sum(axis=1) == size]
    if len(found):
        return [order[p] for p in found[0].tolist()]
    if total > _FIND_NODE_CAP:
        raise SizeLimit(f"{cut} at {_FIND_NODE_CAP} nodes")
    return None


def is_free_embedding(S, ids) -> bool:
    """Whether the elements generate a free subsemilattice: the subsemigroup
    they generate has the maximal size 2^|E| - 1."""
    ids = list(ids)
    if not ids:
        raise EmptySetError("need a nonempty generating set")
    if len(ids) > 20:
        raise SizeLimit("generating sets above 20 elements are not supported")
    return len(_join_closure(ids, S.product)) == 2 ** len(ids) - 1
