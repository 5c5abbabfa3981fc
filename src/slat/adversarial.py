"""Adversarial log-weight construction on union-closed set systems.

Builds, level by level, a chain of disjoint marker sets and incompressible
families whose derived log-weight (counting markers past the deepest fully
contained prefix) keeps every family at level 1 while pushing the
reachability cost of the family's join past n/2.  On a finite host the chain
stops where the instance runs out of breadth or can no longer represent the
next level faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import or_

import numpy as np

from ._bitset import bits, mask_of, popcount, popcounts
from .breadth import SizeLimit, find_incompressible, is_compressible
from .core import Semilattice, ValidationReport, Violation, pairs_where
from .propagation import PropagationValue, v_value
from .weights import LogWeight


class InsufficientBreadth(Exception):
    """No incompressible set of the required size was found: the host has
    none, or the bounded search for one was cut, and the message says which.

    A finding about the instance (too small a truncation, or too large a
    host to search), not a bug.
    """


@dataclass
class AdversarialChain:
    """Per-level markers and families plus their cumulative marker prefix.

    ``marker_sets[i]`` is the universe mask of the level-(i+1) markers,
    ``families[i]`` the element ids of the level-(i+1) family, and
    ``cumulative[j]`` the union of the first j marker sets (so
    ``cumulative[0]`` is empty).
    """

    depth: int
    marker_sets: list                 # universe masks E_1..E_depth
    families: list                    # lists of element ids F_1..F_depth
    cumulative: list                  # universe masks D_0..D_depth
    notes: list = field(default_factory=list)

    @property
    def d_final(self) -> int:
        return self.cumulative[self.depth]

    def to_json(self):
        return {"depth": self.depth,
                "marker_sets": [list(bits(E)) for E in self.marker_sets],
                "families": [list(F) for F in self.families],
                "cumulative": [list(bits(D)) for D in self.cumulative],
                "notes": list(self.notes)}


def find_markers(S: Semilattice, a_mask: int, m: int):
    """Elements b_1..b_m and distinct points g_1..g_m with g_j in b_j and in
    no other b_k, all avoiding the universe subset ``a_mask``.

    Searches for an incompressible family of size |a| + m; each member then
    owns a private point, the private points are distinct, and at most |a|
    of them can land in ``a_mask``, so at least m survive the filter.
    """
    if S.kind != "set_system":
        raise TypeError("marker search needs a set-system instance")
    if m < 1:
        raise ValueError("need at least one marker")
    size = popcount(a_mask) + m
    try:
        ids = find_incompressible(S, size)
    except SizeLimit as exc:
        raise InsufficientBreadth(str(exc)) from exc
    if ids is None:
        raise InsufficientBreadth(
            f"no incompressible family of size {size} found")
    masks = [S.member_mask(x) for x in ids]
    picked_b, picked_g = [], []
    for j, x in enumerate(ids):
        others = 0
        for k, mk in enumerate(masks):
            if k != j:
                others |= mk
        private = masks[j] & ~others
        assert private, "incompressible members must own a private point"
        g = next(bits(private & ~a_mask), None)
        if g is None:
            continue
        picked_b.append(x)
        picked_g.append(g)
        if len(picked_b) == m:
            return picked_b, picked_g
    raise AssertionError("marker filter lost too many private points")


def build_chain(S: Semilattice, n_max: int, strict: bool = False) -> AdversarialChain:
    """Construct the chain up to ``n_max`` levels.

    Base level: the first element with a nonempty member set, marked by its
    lowest point.  Level n: with ``a`` the union of all previous family
    joins, pick n markers avoiding ``a`` and set x_j = a union b_j.  A level
    is kept only when every x_j and the join of the new family are genuine
    elements; a collapsed join means the host can no longer represent the
    level, and construction stops with a note (or raises when strict).
    """
    if S.kind != "set_system":
        raise TypeError("chain construction needs a set-system instance")
    if n_max < 1:
        raise ValueError("chain depth must be at least 1")
    base = next((x for x in range(S.n) if S.member_mask(x)), None)
    if base is None:
        raise InsufficientBreadth("host has no nonempty member set")
    g0 = next(bits(S.member_mask(base)))
    chain = AdversarialChain(depth=1,
                             marker_sets=[1 << g0],
                             families=[[base]],
                             cumulative=[0, 1 << g0])
    a_mask = S.member_mask(base)
    for n in range(2, n_max + 1):
        try:
            b_ids, gammas = find_markers(S, a_mask, n)
        except InsufficientBreadth as exc:
            if strict:
                raise
            chain.notes.append(f"stopped at level {n}: {exc}")
            return chain
        x_masks = [a_mask | S.member_mask(b) for b in b_ids]
        x_ids = [S.id_of_mask(xm) for xm in x_masks]
        join_mask = reduce(or_, x_masks, a_mask)
        if None in x_ids or S.id_of_mask(join_mask) is None:
            msg = (f"level {n} does not fit the host: its join needs at least "
                   f"{n * (n + 1) // 2} marker points; stopping at {n - 1}")
            if strict:
                raise InsufficientBreadth(msg)
            chain.notes.append(msg)
            return chain
        E_n = mask_of(gammas)
        D_prev = chain.cumulative[-1]
        _assert_level(S, x_ids, gammas, E_n, D_prev, n)
        chain.marker_sets.append(E_n)
        chain.families.append(x_ids)
        chain.cumulative.append(D_prev | E_n)
        chain.depth = n
        a_mask = join_mask
    return chain


def _assert_level(S, x_ids, gammas, E_n, D_prev, n):
    assert len(x_ids) == len(gammas) == n
    assert E_n & D_prev == 0, "marker sets must stay pairwise disjoint"
    for x in x_ids:
        assert S.member_mask(x) & D_prev == D_prev, \
            "family members must contain every earlier marker"
    for g in gammas:
        holders = [x for x in x_ids if S.member_mask(x) >> g & 1]
        assert len(holders) == 1, "each marker belongs to exactly one member"
    comp, _ = is_compressible(S, x_ids)
    assert not comp, "each family must be incompressible"


# -- the derived log-weight --------------------------------------------------

def _eta_of_traces(traces, cumulative):
    """Marker count past the deepest fully contained prefix, for each trace
    in an array of them: the intersection of a member set with the final
    prefix."""
    counts = np.full(len(traces), -1)
    for D in reversed(cumulative):      # every trace holds cumulative[0] = 0
        hit = (counts < 0) & (traces & D == D)
        counts[hit] = popcounts(traces[hit] & ~D)
    return counts


def eta_weight(chain: AdversarialChain, S: Semilattice) -> LogWeight:
    """The chain's derived log-weight, a function of the member mask: of
    its trace, computed from the traces."""
    d_final, cumulative = chain.d_final, list(chain.cumulative)
    return LogWeight.of_masks(S, 1, lambda masks: _eta_of_traces(
        masks & d_final, cumulative), "eta")


def check_eta_subadditive(chain: AdversarialChain) -> ValidationReport:
    """Exhaustive subadditivity check for the derived log-weight.

    The weight of an element depends only on its trace on the final marker
    prefix, and the trace of a union is the union of the traces (a collapsed
    product has weight 0, which never violates the bound), so checking every
    pair of prefix subsets covers every pair of elements.  On nested prefixes
    the weight follows the count rule: with u_j the points a trace u holds of
    the j-th marker set E_j, and E_h the first set u does not hold in full,
    eta(u) = sum of u_j over j >= h (0 when u holds every set).  The rule
    alone gives the bound.  Take u the union of traces a and b: a_h and b_h
    are at most u_h < |E_h|, so a and b each stop holding in full at E_h or
    before it, and

        eta(u) = sum_{j>=h} u_j <= sum_{j>=h} (a_j + b_j) <= eta(a) + eta(b).

    ``_count_rule_holds`` checks the rule on one trace per count class; the
    trace pairs themselves are scanned when the prefixes are not nested or
    the rule fails, so witnesses are always trace pairs.
    """
    rep = ValidationReport()
    pts = list(bits(chain.d_final))
    # the traces are the subsets of pts; index i holds point pts[j] when bit
    # j of i is set, so the trace of a union has the OR of the indices, and
    # relabelling the prefixes the same way leaves the marker counts intact
    prefixes = [mask_of(j for j, p in enumerate(pts) if D >> p & 1)
                for D in chain.cumulative]
    size = 1 << len(pts)
    if not (_nested(prefixes, size - 1) and _count_rule_holds(prefixes)):
        traces = np.arange(size)
        w = _eta_of_traces(traces, prefixes)
        for i, j in pairs_where(size, size, lambda r0, r1: w[
                traces[r0:r1, None] | traces] > w[r0:r1, None] + w):
            rep.violations.append(Violation(
                "NotSubadditive", ([pts[b] for b in bits(i)],
                                   [pts[b] for b in bits(j)])))
    rep.checked_triples = size ** 2
    rep.notes.append("trace-factored exhaustive pair check")
    return rep


def _nested(prefixes, full):
    """Prefixes that grow from the empty set to ``full``, each holding the
    one before it."""
    return (prefixes[0] == 0 and prefixes[-1] == full
            and all(C & ~D == 0 for C, D in zip(prefixes, prefixes[1:])))


def _count_rule_holds(prefixes):
    """Whether ``_eta_of_traces`` follows the count rule of
    ``check_eta_subadditive`` on nested prefixes, checked on one trace per
    count class: a trace holding the lowest c_j points of the j-th marker
    set, for every c_j from 0 to its size."""
    dtype = object if prefixes[-1] >> 63 else np.int64
    # firsts[j][c]: the lowest c points of marker set j
    firsts = [np.array(list(accumulate(bits(D & ~C), lambda t, p: t | 1 << p,
                                       initial=0)), dtype=dtype)
              for C, D in zip(prefixes, prefixes[1:])]
    sizes = np.array([len(f) - 1 for f in firsts], dtype=np.int64)
    counts = np.indices(sizes + 1).reshape(len(sizes), -1).T
    traces = reduce(or_, (f[c] for f, c in zip(firsts, counts.T)),
                    np.zeros(len(counts), dtype))
    # the points held past the deepest prefix held in full
    held = np.cumprod(counts == sizes, axis=1).sum(axis=1)
    return bool((_eta_of_traces(traces, prefixes)
                 == counts.sum(axis=1) - np.cumsum([0, *sizes])[held]).all())


# -- barrier verification ----------------------------------------------------

@dataclass
class BarrierResult:
    n: int
    z: int                            # element id of the family join
    value: PropagationValue
    bound: Fraction
    family_at_level_one: bool
    join_at_level_zero: bool
    passed: bool

    def to_json(self):
        return {"n": self.n, "z": self.z,
                "value": self.value.to_json(),
                "bound": str(self.bound),
                "family_at_level_one": self.family_at_level_one,
                "join_at_level_zero": self.join_at_level_zero,
                "passed": self.passed}


def verify_barrier(chain: AdversarialChain, S: Semilattice, n: int,
                   eta: LogWeight | None = None) -> BarrierResult:
    """Check that reaching the level-n family join from the family costs at
    least n/2 under the derived log-weight."""
    if not 2 <= n <= chain.depth:
        raise ValueError("level must satisfy 2 <= n <= chain depth")
    if eta is None:
        eta = eta_weight(chain, S)
    F = chain.families[n - 1]
    z = S.product_ids(F)
    w = eta.num(np.array([*F, z]))
    fam_ok, z_ok = bool((w[:-1] <= eta.den).all()), bool(w[-1] == 0)
    V = v_value(S, eta, mask_of(F), z)
    bound = Fraction(n, 2)
    passed = fam_ok and z_ok and not V.is_infinite and V.c >= bound
    return BarrierResult(n, z, V, bound, fam_ok, z_ok, passed)
