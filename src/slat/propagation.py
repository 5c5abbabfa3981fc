"""Level-confined factor propagation: the one-step operator, its closure,
stability, reachability costs, and per-level profiles.

For a weight level C, the one-step operator collects every element of the
level set that divides a binary product of current members.  The least level
at which the closure from a generating set reaches a target is a bottleneck
cost: the largest weight a derivation uses, minimized over derivations.  One
closure engine finds these first levels for every target in a single pass,
in the manner of Knuth's generalization of Dijkstra's algorithm (D. E. Knuth,
"A generalization of Dijkstra's algorithm", IPL 6(1), 1977); ``v_value`` and
``propagation_profile`` both call it.  Levels are compared as exact
rationals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, total_ordering

from ._bitset import bits, mask_of
from .breadth import _iter_incompressible, breadth, is_compressible
from .core import Semilattice
from .metrics import generate_filter
from .weights import LogWeight, level_set


class BudgetExceeded(RuntimeError):
    """Raised in strict mode when a search outgrows its node budget."""


@total_ordering
class PropagationValue:
    """Either a finite rational reachability level or infinity."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = None if c is None else Fraction(c)

    @classmethod
    def finite(cls, c):
        return cls(Fraction(c))

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
    C = Fraction(C)
    inside = [x for x in bits(X) if lam[x] <= C]
    out = 0
    seen_products = set()
    for i, x in enumerate(inside):
        for y in inside[i:]:
            p = S.product(x, y)
            if p in seen_products:
                continue
            seen_products.add(p)
            for z in S.iter_factors(p):
                if lam[z] <= C:
                    out |= 1 << z
    return out


def fbp_closure(S: Semilattice, lam: LogWeight, C, E: int):
    """Least fixed point of the one-step operator above the seed.

    Returns ``(mask, rounds)``.  The result is sandwiched between the seed
    restricted to the level set and the generated filter restricted to the
    level set; both inclusions are asserted.
    """
    C = Fraction(C)
    seed = mask_of(x for x in bits(E) if lam[x] <= C)
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
    bound = generate_filter(S, E) & level_set(S, lam, C)
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
    best = None
    xs = list(bits(X))
    for i, x in enumerate(xs):
        for y in xs[i:]:
            p = S.product(x, y)
            outside = S.factors_mask(p) & ~X
            if outside:
                base = max(lam[x], lam[y])
                t = min(max(base, lam[z]) for z in bits(outside))
                if best is None or t < best:
                    best = t
    return best


# -- reachability cost -------------------------------------------------------

def _first_levels(S, lam, E_ids, targets, factors):
    """First level at which the closure from E reaches each element.

    The closed world is U, the ``factors`` of the product of E.  Elements are
    settled in order of rising first level, and each settled element is
    paired with every element settled before it and with itself.  Returns
    ``{id: level}`` for each element settled before every target inside U
    is.
    """
    U = list(factors(S.product_ids(E_ids)))
    if len(U) > 200_000:
        raise BudgetExceeded(f"closure universe has {len(U)} elements")
    levels = sorted({lam[g] for g in U})
    index = {c: i for i, c in enumerate(levels)}
    rank = {g: index[lam[g]] for g in U}
    buckets = [[] for _ in levels]      # bucket i: reached at levels[i]
    for e in E_ids:
        buckets[rank[e]].append(e)
    pending = {z for z in targets if z in rank}
    first = {}
    settled = []
    formed = set()
    i = 0
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
        for b in settled:
            p = S.product(a, b)
            # a product formed again later is formed at a level no lower,
            # so only its first formation can lower a bucket
            if p in formed:
                continue
            formed.add(p)
            for z in factors(p):
                if z not in first:
                    buckets[max(rank[z], i)].append(z)
    return first


def v_value(S: Semilattice, lam: LogWeight, E: int, z: int) -> PropagationValue:
    """Least level C from which the level-C closure of E reaches z; infinite
    when z lies outside the filter generated by E.

    The first level of z is a bottleneck cost, the largest weight used by a
    derivation of z, minimized over derivations.  ``max`` is a superior
    function, so Knuth's generalization of Dijkstra's algorithm (IPL 6(1),
    1977) finds it in one pass over the factors of the product of E, which
    stops as soon as z is settled.
    """
    if E == 0:
        return INFINITE
    E_ids = list(bits(E))
    if not S.leq(S.product_ids(E_ids), z):
        return INFINITE
    c = _first_levels(S, lam, E_ids, [z], S.iter_factors).get(z)
    if c is None:
        raise AssertionError("target inside the generated filter never reached")
    return PropagationValue.finite(c)


# -- per-level profile -------------------------------------------------------

def propagation_profile(S: Semilattice, lam: LogWeight, L, budget: int = 500_000,
                        strict: bool = False, seed: int = 0,
                        samples: int = 2000) -> PropagationProfile:
    """Double supremum of reachability cost over generating sets inside the
    level-L set and targets in the generated filter at level L.

    Only incompressible generating sets matter: a minimal set certifying a
    target is incompressible, and shrinking a generating set never lowers
    the cost.  Exhaustive when the enumeration fits the budget; otherwise a
    seeded sampled lower bound (or BudgetExceeded in strict mode).  The
    closures share one factor list per element, cached for this call only.
    """
    L = Fraction(L)
    W_mask = level_set(S, lam, L)
    W_ids = list(bits(W_mask))
    prof = PropagationProfile(L, PropagationValue.finite(0), 0, None, True)
    if not W_ids:
        prof.notes.append("empty level set")
        return prof
    counter = {"nodes": 0, "capped": False}
    factors = lru_cache(maxsize=None)(lambda p: tuple(S.iter_factors(p)))

    def consider(E_ids):
        first = _first_levels(S, lam, E_ids, W_ids, factors)
        targets = [z for z in W_ids if z in first]
        top = max(first[z] for z in targets)
        v = PropagationValue.finite(top)
        if v > prof.value:
            prof.value = v
            prof.witness_E = mask_of(E_ids)
            # Ties go to the first target in the iteration order of
            # set(targets); profile output depends on this choice.
            prof.witness_z = next(z for z in set(targets) if first[z] == top)

    for E_ids in _iter_incompressible(S, W_ids, counter, budget):
        consider(E_ids)
    prof.nodes = counter["nodes"]
    if counter["capped"]:
        if strict:
            raise BudgetExceeded("profile enumeration exceeded the budget")
        prof.exhaustive = False
        prof.notes.append("budget exceeded; sampled lower bound")
        rng = random.Random(seed)
        for _ in range(samples):
            size = rng.randrange(1, min(len(W_ids), 12) + 1)
            E_ids = sorted(rng.sample(W_ids, size))
            # random greedy reduction to an incompressible core
            while len(E_ids) > 1:
                comp, x = is_compressible(S, E_ids)
                if not comp:
                    break
                E_ids.remove(x)
            consider(E_ids)
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

    def to_json(self):
        return {"L": str(self.L), "C": str(self.C), "checked": self.checked,
                "stable_count": self.stable_count,
                "violations": [list(bits(g)) for g in self.violations[:16]],
                "violation_count": len(self.violations),
                "exhaustive": self.exhaustive}


def check_equivalence_iii(S: Semilattice, lam: LogWeight, L,
                          C) -> EquivalenceReport:
    """Scan C-stable sets G for failures of the level-L agreement identity
    (G at level L versus the filter it generates at level L).

    Exhaustive over all subsets for n <= 20; above, the closures of 4000
    random seeds drawn under seed 0 (they reach representative stable sets).
    """
    L = Fraction(L)
    C = Fraction(C)
    W = level_set(S, lam, L)
    violations = []
    stable_count = 0
    checked = 0

    def check(G):
        nonlocal stable_count
        GW = G & W
        if GW != generate_filter(S, GW) & W:
            violations.append(G)

    if S.n <= 20:
        for G in range(1 << S.n):
            checked += 1
            t = stability_threshold(S, lam, G)
            if t is None or C < t:
                stable_count += 1
                check(G)
        return EquivalenceReport(L, C, checked, stable_count, violations, True)
    rng = random.Random(0)
    for _ in range(4000):
        seed_mask = mask_of(rng.sample(range(S.n), rng.randrange(0, 8)))
        G, _ = fbp_closure(S, lam, C, seed_mask)
        checked += 1
        stable_count += 1
        check(G)
    return EquivalenceReport(L, C, checked, stable_count, violations, False)


@dataclass
class BreadthBoundReport:
    L: Fraction
    breadth: int
    profile: PropagationProfile
    bound: Fraction
    max_ratio: Fraction | None
    passed: bool

    def to_json(self):
        return {"L": str(self.L), "breadth": self.breadth,
                "bound": str(self.bound),
                "profile": self.profile.to_json(),
                "max_ratio": None if self.max_ratio is None else str(self.max_ratio),
                "passed": self.passed}


def finite_breadth_bound_check(S: Semilattice, lam: LogWeight,
                               L) -> BreadthBoundReport:
    """Verify the profile at level L (default budget) against breadth * L."""
    L = Fraction(L)
    br = breadth(S).breadth
    prof = propagation_profile(S, lam, L)
    bound = Fraction(br) * L
    if prof.value.is_infinite:
        return BreadthBoundReport(L, br, prof, bound, None, False)
    ratio = None if bound == 0 else prof.value.c / bound
    passed = prof.value.c <= bound or (bound == 0 and prof.value.c == 0)
    return BreadthBoundReport(L, br, prof, bound, ratio, passed)
