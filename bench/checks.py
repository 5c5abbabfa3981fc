"""Answer checks that go straight from the definitions.

Every check here uses only instance primitives (``product``,
``iter_factors``, ``id_of_mask``) and weight lookups, never the library's
closure, filter or search code, so a fast path that changes those cannot
also change the answer it is checked against.  ``tests/oracles.py`` is
loaded by the workloads for the brute-force oracles that fit small hosts.
"""

from __future__ import annotations

from fractions import Fraction

from slat._bitset import bits, mask_of


def level_closure(S, lam, C, E):
    """Least set containing the level-C part of ``E`` and every level-C
    divisor of a binary product of its members (worklist form)."""
    C = Fraction(C)
    members = [x for x in bits(E) if lam[x] <= C]
    reached = set(members)
    products = set()
    queue = list(members)
    while queue:
        a = queue.pop()
        for b in list(members):
            p = S.product(a, b)
            if p in products:
                continue
            products.add(p)
            for z in S.iter_factors(p):
                if z not in reached and lam[z] <= C:
                    reached.add(z)
                    members.append(z)
                    queue.append(z)
    return mask_of(reached)


def v_value_ok(S, lam, E, z, value):
    """Whether ``value`` is the least level at which ``z`` is reachable
    from ``E``.

    Reachability only grows with the level and changes only at attained
    weights of the divisors of the product of ``E``, so it is enough that
    ``value`` is such a weight, ``z`` is reached at it and is not reached at
    the next attained weight below it.
    """
    if value is None or value.is_infinite:
        return False
    V = value.c
    attained = sorted({lam[x] for x in S.iter_factors(S.product_of_mask(E))})
    if V not in attained or not level_closure(S, lam, V, E) >> z & 1:
        return False
    below = [c for c in attained if c < V]
    return not (below and level_closure(S, lam, below[-1], E) >> z & 1)


def principal_filters(S):
    """Up-set of each element, from the product alone, deduplicated."""
    out = []
    for g in range(S.n):
        F = mask_of(z for z in range(S.n) if S.product(g, z) == g)
        if F not in out:
            out.append(F)
    return out


def dist_exponent(S, lam, X):
    """Exponent ``m`` of the least weighted distance ``exp(-m)`` from ``X``
    to a filter or the empty set; ``None`` when ``X`` is one of them."""
    best = None
    for F in principal_filters(S) + [0]:
        diff = X ^ F
        if diff == 0:
            return None
        m = min(lam[x] for x in bits(diff))
        if best is None or m > best:
            best = m
    return best


def defect_exponent(S, lam, X):
    """Exponent of the multiplicativity defect of the indicator of ``X``:
    the least ``lam(x) + lam(y)`` over pairs breaking ``xy in X <=> x, y in
    X``; ``None`` when no pair breaks it."""
    best = None
    for x in range(S.n):
        for y in range(S.n):
            in_p = bool(X >> S.product(x, y) & 1)
            if in_p != bool(X >> x & 1 and X >> y & 1):
                m = lam[x] + lam[y]
                if best is None or m < best:
                    best = m
    return best


def frac_of(obj):
    """Fraction from a ``{"num": .., "den": ..}`` report field."""
    return Fraction(obj["num"], obj["den"])
