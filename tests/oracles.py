"""Independent brute-force oracles used to validate the library.

Everything here goes straight from the definitions using only the instance
primitives (product, factor enumeration, weights); none of the library's
search machinery is reused.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from slat._bitset import bits, mask_of


def brute_filters(S):
    """All filters by scanning every nonempty subset for the biconditional."""
    out = []
    table = [[S.product(x, y) for y in range(S.n)] for x in range(S.n)]
    for F in range(1, 1 << S.n):
        ok = True
        for x in range(S.n):
            for y in range(x, S.n):
                lhs = F >> table[x][y] & 1
                rhs = (F >> x & 1) and (F >> y & 1)
                if bool(lhs) != bool(rhs):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(F)
    return out


def naive_fbp_step(S, lam, C, X):
    C = Fraction(C)
    inside = [x for x in bits(X) if lam[x] <= C]
    out = 0
    for x in inside:
        for y in inside:
            p = S.product(x, y)
            for z in range(S.n):
                if lam[z] <= C and S.product(z, p) == p:
                    out |= 1 << z
    return out


def naive_closure(S, lam, C, E):
    C = Fraction(C)
    cur = mask_of(x for x in bits(E) if lam[x] <= C)
    while True:
        nxt = naive_fbp_step(S, lam, C, cur)
        if nxt == cur:
            return cur
        cur = nxt


def naive_stable(S, lam, C, X):
    return naive_fbp_step(S, lam, C, X) & ~X == 0


def naive_v(S, lam, E, z):
    """Dense threshold scan: the closure is a step function of the level
    with jumps only at attained weight values, so scanning those is a full
    scan of all levels.  Returns a Fraction or None for unreachable."""
    if E == 0:
        return None
    for C in sorted({lam[x] for x in range(S.n)}):
        if naive_closure(S, lam, C, E) >> z & 1:
            return C
    return None


def naive_profile(S, lam, L):
    """Max of naive_v over every nonempty generating subset of the level set
    and every target in it; the level set must be small."""
    L = Fraction(L)
    W = [x for x in range(S.n) if lam[x] <= L]
    assert len(W) <= 16, "oracle profile needs a small level set"
    best = Fraction(0)
    for r in range(1, len(W) + 1):
        for E_ids in combinations(W, r):
            E = mask_of(E_ids)
            for z in W:
                v = naive_v(S, lam, E, z)
                if v is not None and v > best:
                    best = v
    return best


def naive_incompressible(S, ids):
    """Definition-level check: every proper nonempty subset has a product
    different from the full one."""
    ids = list(ids)
    total = S.product_ids(ids)
    for r in range(1, len(ids)):
        for sub in combinations(ids, r):
            if S.product_ids(list(sub)) == total:
                return False
    return True


def naive_breadth(S, max_size):
    best = 1 if S.n else 0
    for r in range(2, max_size + 1):
        found = False
        for ids in combinations(range(S.n), r):
            if naive_incompressible(S, ids):
                best, found = r, True
                break
        if not found:
            break
    return best


def naive_subadditive_violations(S, lam):
    """``(kind, witness)`` of every violation of a log-weight, in the order
    ``validate_logweight`` reports them: negative elements by id, then every
    pair x <= y with lambda(xy) > lambda(x) + lambda(y), compared as exact
    rationals with ``product``."""
    out = [("Negative", (x,)) for x in range(S.n) if lam[x] < 0]
    for x, y in combinations_with_replacement(range(S.n), 2):
        if lam[S.product(x, y)] > lam[x] + lam[y]:
            out.append(("NotSubadditive", (x, y)))
    return out


def naive_semilattice_violations(S):
    """``(kind, witness)`` of every axiom failure of ``product`` in the order
    ``Semilattice.validate`` reports them (idempotence by id, commutativity
    for x < y, associativity for x <= y <= z, each in lexicographic order),
    and the number of triples checked."""
    p = S.product
    out = [("NotIdempotent", (x,)) for x in range(S.n) if p(x, x) != x]
    out += [("NotCommutative", (x, y)) for x, y in combinations(range(S.n), 2)
            if p(x, y) != p(y, x)]
    triples = list(combinations_with_replacement(range(S.n), 3))
    out += [("NotAssociative", (x, y, z)) for x, y, z in triples
            if p(p(x, y), z) != p(x, p(y, z))]
    return out, len(triples)


def naive_random_logweight(S, seed):
    """Values of ``random_logweight(S, seed)`` by the plain repair loop: the
    same seeded draws, then lambda(xy) lowered to lambda(x) + lambda(y) one
    pair at a time (Gauss-Seidel) until no pair changes anything."""
    rng = random.Random(seed)
    vals = [Fraction(rng.randrange(0, 9), rng.randrange(1, 4))
            for _ in range(S.n)]
    changed = True
    while changed:
        changed = False
        for x in range(S.n):
            for y in range(x, S.n):
                p = S.product(x, y)
                bound = vals[x] + vals[y]
                if vals[p] > bound:
                    vals[p] = bound
                    changed = True
    return vals


def naive_collapse_cap(S):
    """Fewest points in the union of two members whose product is the
    collapsed top, over every ordered pair."""
    return min((S.member_mask(x) | S.member_mask(y)).bit_count()
               for x in range(S.n) for y in range(S.n)
               if S.product(x, y) == S.top_id)
