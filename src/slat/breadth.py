"""Compressibility, incompressible-subset search, and breadth.

A finite set of elements is compressible when some proper subset already has
the same product; the breadth of a semilattice is the size of its largest
incompressible subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from ._bitset import bits, mask_of, popcount
from .core import _join_closure


class EmptySetError(ValueError):
    pass


class SizeLimit(ValueError):
    pass


@dataclass
class BreadthReport:
    breadth: int
    witness: int                      # id-mask of a largest incompressible set
    exhaustive: bool
    nodes: int = 0
    notes: list = field(default_factory=list)

    def to_json(self):
        return {"breadth": self.breadth,
                "witness": list(bits(self.witness)),
                "exhaustive": self.exhaustive,
                "nodes": self.nodes,
                "notes": list(self.notes)}


def _resolve_union(S, mask):
    """Element id of an iterated set-system product with member union
    ``mask``; oversize unions collapse to the top."""
    x = S.id_of_mask(mask)
    if x is not None:
        return x
    return S.top_id


def is_compressible(S, ids):
    """Single-removal compressibility test.

    Returns ``(True, dropped_element)`` if removing one element leaves the
    product unchanged, else ``(False, None)``.  Dropping one element is
    enough: any compressing proper subset sits inside some single-removal
    set, squeezing its product to the full one.
    """
    ids = list(ids)
    if not ids:
        raise EmptySetError("compressibility is defined for nonempty sets")
    if len(ids) == 1:
        return False, None
    if S.kind == "set_system":
        masks = [S.member_mask(x) for x in ids]
        total = 0
        for m in masks:
            total |= m
        tot = _resolve_union(S, total)
        k = len(masks)
        prefix = [0] * (k + 1)
        suffix = [0] * (k + 1)
        for i in range(k):
            prefix[i + 1] = prefix[i] | masks[i]
            suffix[k - i - 1] = suffix[k - i] | masks[k - i - 1]
        for i, x in enumerate(ids):
            if _resolve_union(S, prefix[i] | suffix[i + 1]) == tot:
                return True, x
        return False, None
    total = S.product_ids(ids)
    for i, x in enumerate(ids):
        rest = ids[:i] + ids[i + 1:]
        if S.product_ids(rest) == total:
            return True, x
    return False, None


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
    if S._trunc is not None and S.top_id is not None:
        k, c = S._trunc
        if k >= c + 1:
            return c + 1
    return None


def _distinctness_order(S):
    """Element order for the search: descending count of elements not below,
    ties by canonical id."""
    n = S.n
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
    """
    n = len(order)
    cur = []
    levels = [iter(range(n))]     # positions left to try at each open level
    nodes = counter["nodes"]
    lo = floor()
    while levels:
        level = levels[-1]
        last = len(cur) + n - lo  # later positions cannot reach the floor
        for i in level:
            if i > last:
                break
            nodes += 1
            if nodes > budget:
                counter["nodes"] = nodes
                counter["capped"] = True
                return
            cur.append(order[i])
            if len(cur) > 1 and is_compressible(S, cur)[0]:
                cur.pop()
                continue
            counter["nodes"] = nodes
            yield list(cur)
            lo = floor()
            levels.append(iter(range(i + 1, n)))
            break
        if levels[-1] is level:   # exhausted or cut: close the level
            levels.pop()
            if cur:
                cur.pop()
    counter["nodes"] = nodes


def breadth(S, cap: int = 10_000_000) -> BreadthReport:
    """Exact breadth by branch and bound when the search fits in ``cap``
    nodes; otherwise the best lower bound found, marked non-exhaustive.

    Incompressibility is hereditary, so any branch that turns compressible
    is cut immediately.
    """
    cap_exact = _trunc_breadth_cap(S)
    if cap_exact is not None:
        ids = _greedy_incompressible(S, cap_exact)
        if len(ids) == cap_exact:
            return BreadthReport(cap_exact, mask_of(ids), exhaustive=True,
                                 notes=["truncation cardinality bound"])
    if S.n > 5000:
        ids = _greedy_incompressible(S, S.n)
        return BreadthReport(len(ids), mask_of(ids), exhaustive=False,
                             notes=["greedy lower bound only (large instance)"])
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
        if len(cur) > 1:
            comp, _ = is_compressible(S, cur)
            if comp:
                cur.pop()
    return cur


def find_incompressible(S, size, cap: int = 2_000_000):
    """Some incompressible subset of exactly ``size`` elements, or None.

    Tries the greedy pass first; for moderate instances falls back to an
    exhaustive depth-first search (node-capped).
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
    walk = _iter_incompressible(S, _distinctness_order(S), {"nodes": 0},
                                cap, lambda: size)
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
