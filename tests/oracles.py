"""Independent brute-force oracles used to validate the library.

Everything here goes straight from the definitions using only the instance
primitives (product, factor enumeration, weights); none of the library's
search machinery is reused.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np

from slat._bitset import bits, mask_of


def _values(lam):
    """The exact values of a log-weight by id, read once: the loops here
    index them one element at a time (a list passes through)."""
    return lam if isinstance(lam, list) else lam.values()


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
    lam = _values(lam)
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
    lam = _values(lam)
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
    lam = _values(lam)
    if E == 0:
        return None
    for C in sorted({lam[x] for x in range(S.n)}):
        if naive_closure(S, lam, C, E) >> z & 1:
            return C
    return None


def naive_profile(S, lam, L):
    """Max of naive_v over every nonempty generating subset of the level set
    and every target in it; the level set must be small."""
    lam = _values(lam)
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
    lam = _values(lam)
    out = [("Negative", (x,)) for x in range(S.n) if lam[x] < 0]
    for x, y in combinations_with_replacement(range(S.n), 2):
        if lam[S.product(x, y)] > lam[x] + lam[y]:
            out.append(("NotSubadditive", (x, y)))
    return out


def naive_sampled_logweight_violations(S, lam, seed, samples):
    """``(kind, witness)`` of the violations ``validate_logweight(S, lam,
    seed, samples)`` reports above ``TABLE_HARD_CAP`` by the plain loop it
    replaced: ``min(n, samples)`` ids drawn by ``randrange(n)`` from
    ``Random(seed + 1)`` checked for a negative value, then ``samples``
    pairs, x then y, from ``Random(seed)`` checked with ``product``."""
    lam = _values(lam)
    n = S.n
    neg_rng, rng = random.Random(seed + 1), random.Random(seed)
    out = []
    for _ in range(min(n, samples)):
        x = neg_rng.randrange(n)
        if lam[x] < 0:
            out.append(("Negative", (x,)))
    for _ in range(samples):
        x, y = rng.randrange(n), rng.randrange(n)
        if lam[S.product(x, y)] > lam[x] + lam[y]:
            out.append(("NotSubadditive", (x, y)))
    return out


def eta_of_trace(trace, cumulative):
    """The adversarial weight of a member set from its trace, its
    intersection with the final marker prefix: the markers in the trace past
    the deepest prefix ``cumulative[N]`` it contains."""
    N = 0
    for n in range(len(cumulative) - 1, -1, -1):
        if trace & cumulative[n] == cumulative[n]:
            N = n
            break
    return (trace & ~cumulative[N]).bit_count()


def naive_semilattice_violations(S):
    """``(kind, witness)`` of every axiom failure of ``product`` in the order
    ``Semilattice.validate`` reports them (idempotence by id, commutativity
    for x < y, associativity for x <= y <= z, each in lexicographic order),
    and the number of triples checked.  A sorted triple breaks associativity
    when either bracketing with x first fails: (xy)z != x(yz) or (xz)y !=
    x(zy); on a commutative product that is every way to bracket it."""
    p = S.product
    out = [("NotIdempotent", (x,)) for x in range(S.n) if p(x, x) != x]
    out += [("NotCommutative", (x, y)) for x, y in combinations(range(S.n), 2)
            if p(x, y) != p(y, x)]
    triples = list(combinations_with_replacement(range(S.n), 3))
    out += [("NotAssociative", t) for t in triples
            if naive_breaks_associativity(p, t)]
    return out, len(triples)


def naive_breaks_associativity(p, triple):
    """Whether the sorted ``triple`` x <= y <= z is an associativity witness
    of the product ``p``: (xy)z != x(yz) or (xz)y != x(zy)."""
    x, y, z = triple
    return p(p(x, y), z) != p(x, p(y, z)) or p(p(x, z), y) != p(x, p(z, y))


def planted_table_json(n=260, cells=3000, seed=11):
    """A min-table on ``n`` elements with ``cells`` entries overwritten at
    random: above ``FULL_VALIDATE_CAP`` it breaks all three axioms."""
    rng = random.Random(seed)
    table = [[min(x, y) for y in range(n)] for x in range(n)]
    for _ in range(cells):
        table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return {"kind": "table", "product": table}


def broken_top_json(k, elements):
    """A set system on ``k`` points with the empty set and ``elements``
    (which hold {0}), whose top is collapsed onto the member {0}: a union that is not a member lands below the members it contains,
    so the product is not associative."""
    return {"kind": "set_system", "ground": [f"g{i}" for i in range(k)],
            "elements": [[]] + [list(e) for e in elements if list(e)],
            "collapsed_top": 1}


def one_point_top_json(k):
    """A set system on ``k`` points: the empty set, {0} as the collapsed top
    (id 1), and the k - 1 sets {1..k-1} less one point (ids 2..k).  Two of
    those join to {1..k-1}, no member, so their product is the top, whose
    one point lies outside both: a semilattice whose collapsed joins span
    fewer points than the join's own mask adds to them."""
    rest = range(1, k)
    return {"kind": "set_system", "ground": [f"g{i}" for i in range(k)],
            "elements": [[], [0]] + [[p for p in rest if p != q]
                                     for q in rest],
            "collapsed_top": 1}


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


def naive_is_filter(S, F):
    """The pair loop ``is_filter`` replaced: F is nonempty and no pair
    x <= y breaks ``xy in F <=> x in F and y in F``."""
    if F == 0:
        return False
    for x in range(S.n):
        in_x = bool(F >> x & 1)
        for y in range(x, S.n):
            in_p = bool(F >> S.product(x, y) & 1)
            if in_p != (in_x and bool(F >> y & 1)):
                return False
    return True


def naive_defect_set(S, lam, X):
    """The pair loop ``defect_set`` replaced: the least lambda(x) +
    lambda(y) over the pairs that break the filter identity, or None when
    none does (a zero defect)."""
    lam = _values(lam)
    best = None
    for x in range(S.n):
        in_x = bool(X >> x & 1)
        for y in range(x, S.n):
            in_p = bool(X >> S.product(x, y) & 1)
            if in_p != (in_x and bool(X >> y & 1)):
                m = lam[x] + lam[y]
                if best is None or m < best:
                    best = m
    return best


def _principal_filters(S):
    """The up-set ``{z : xz = x}`` of each element x, by id."""
    return [mask_of(z for z in range(S.n) if S.product(x, z) == x)
            for x in range(S.n)]


def naive_dist_set(S, lam, X):
    """The candidate loop ``dist_set`` replaced: ``(m, witness)`` with m the
    least weight on the difference of X and a principal filter or the
    empty set (None for distance zero), candidates in id order then the
    empty set, first winner kept."""
    lam = _values(lam)
    def m(F):
        diff = X ^ F
        return None if diff == 0 else min(lam[x] for x in bits(diff))

    def closer(a, b):  # distance exp(-a) below exp(-b); None is zero
        return b is not None and (a is None or a > b)

    candidates = _principal_filters(S) + [0]
    best, witness = m(candidates[0]), candidates[0]
    for F in candidates[1:]:
        d = m(F)
        if closer(d, best):
            best, witness = d, F
    return best, witness


def naive_dist_complex(S, lam, psi):
    """The candidate loop ``dist_complex`` replaced: weighted sup distance
    from psi to each principal-filter indicator in id order, then to zero,
    a later candidate winning only by more than 1e-12."""
    lam = _values(lam)
    a = np.asarray(psi, dtype=np.complex128)
    wf = np.exp(-np.array([float(lam[x]) for x in range(S.n)]))
    best = witness = None
    for F in _principal_filters(S):
        ind = np.array([(F >> x) & 1 for x in range(S.n)], dtype=np.float64)
        d = float(np.max(np.abs(a - ind) * wf))
        if best is None or d < best - 1e-12:
            best, witness = d, F
    d = float(np.max(np.abs(a) * wf))
    if d < best - 1e-12:
        best, witness = d, 0
    return best, witness


def naive_search_order(S):
    """The element order of the breadth search by the ``S.leq`` scoring:
    descending count of the y not below x, ties by id."""
    score = [sum(not S.leq(y, x) for y in range(S.n)) for x in range(S.n)]
    return sorted(range(S.n), key=lambda x: (-score[x], x))


def naive_closure_error(masks):
    """The message of the ``NotClosedError`` that ``Semilattice.from_sets``
    raises on canonical member ``masks`` by the pair loop it replaced (the
    first pair, in ``combinations`` order, whose union is not a member), or
    None for a union-closed family."""
    seen = set(masks)
    for a, b in combinations(masks, 2):
        if (a | b) not in seen:
            return (f"union of element sets {sorted(bits(a))} and "
                    f"{sorted(bits(b))} is not a member (use close=True)")
    return None


def naive_sch_embed(S):
    """``(comp, homomorphic)`` of ``sch_embed(S)`` by the pair loops: the
    complement ``{t : tx != t}`` of each element's down-set as a mask, and
    whether every pair x <= y has comp[xy] = comp[x] | comp[y]."""
    n = S.n
    comp = [mask_of(t for t in range(n) if S.product(t, x) != t)
            for x in range(n)]
    homomorphic = all(comp[S.product(x, y)] == comp[x] | comp[y]
                      for x, y in combinations_with_replacement(range(n), 2))
    return comp, homomorphic


def naive_generated_filter(S, E):
    """The filter generated by E: the factors of the product of E (0 for
    the empty set)."""
    if E == 0:
        return 0
    ids = list(bits(E))
    p = ids[0]
    for x in ids[1:]:
        p = S.product(p, x)
    return mask_of(z for z in range(S.n) if S.product(z, p) == p)


def naive_check_equivalence_iii(S, lam, L, C):
    """The loop ``check_equivalence_iii`` replaced, from the definitions:
    ``(checked, stable_count, violations, exhaustive)``.  Every subset for
    n <= 20, each tested for C-stability by one naive step; above, the
    naive closures of the same 4000 seeds drawn under seed 0, each stable
    by construction."""
    lam = _values(lam)
    L, C = Fraction(L), Fraction(C)
    W = mask_of(x for x in range(S.n) if lam[x] <= L)

    def agrees(G):
        return G & W == naive_generated_filter(S, G & W) & W

    violations = []
    if S.n <= 20:
        stable = [G for G in range(1 << S.n) if naive_stable(S, lam, C, G)]
        violations = [G for G in stable if not agrees(G)]
        return 1 << S.n, len(stable), violations, True
    rng = random.Random(0)
    for _ in range(4000):
        seed = mask_of(rng.sample(range(S.n), rng.randrange(0, 8)))
        G = naive_closure(S, lam, C, seed)
        if not agrees(G):
            violations.append(G)
    return 4000, 4000, violations, False


def naive_join_closure(gens, join):
    """The frontier loop ``_join_closure`` replaced: join each new element
    with everything closed so far, round after round."""
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        new = []
        for a in frontier:
            for b in list(closed):
                u = join(a, b)
                if u not in closed:
                    closed.add(u)
                    new.append(u)
        frontier = new
    return closed


def naive_pair_unions(columns, top, k):
    """What the subset pass's ``_pair_unions`` computes, from its definition:
    for each column, a set of subsets of k points as masks, the unions x | y
    of two of its members and every subset below one; a column with such a
    union in ``top`` becomes every subset."""
    out = []
    for sets in columns:
        unions = {x | y for x in sets for y in sets}
        if unions & set(top):
            out.append(set(range(1 << k)))
            continue
        closed, todo = set(), list(unions)
        while todo:
            s = todo.pop()
            if s not in closed:
                closed.add(s)
                todo += [s & ~(1 << b) for b in bits(s)]
        out.append(closed)
    return out


def naive_tree_table(k, depth):
    """Product table of the complete k-ary tree of the given depth, ids level
    by level, by walking each pair up to its youngest common ancestor."""
    parent, level, frontier = [None], [0], [0]
    for d in range(depth):
        new = []
        for v in frontier:
            for _ in range(k):
                parent.append(v)
                level.append(d + 1)
                new.append(len(parent) - 1)
        frontier = new

    def lca(x, y):
        while level[x] > level[y]:
            x = parent[x]
        while level[y] > level[x]:
            y = parent[y]
        while x != y:
            x, y = parent[x], parent[y]
        return x

    n = len(parent)
    return [[lca(x, y) for y in range(n)] for x in range(n)]


def naive_iter_incompressible(S, order, counter, budget, floor=lambda: 0):
    """The candidate-by-candidate walk that ``_iter_incompressible``
    replaced: the same sets, ``counter`` values and cut, found by joining
    each candidate with the product and every rest product of the current
    set and comparing the results through the host's ``join_seam``."""
    key, join, resolve = S.join_seam()
    name = (lambda v: v) if resolve is None else resolve
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
                if name(new) in map(name, new_rests):
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


def packed_point_ints(k):
    """The point ints of ``propagation._point_ints``, read from packed bytes:
    for each point j of k, the int over the 2**k subsets (bit s for subset
    s) of those with j, its complement, and the shift 2**j."""
    full, subsets = (1 << (1 << k)) - 1, np.arange(1 << k, dtype=np.uint32)
    held = [int.from_bytes(np.packbits(subsets >> j & 1, bitorder="little"),
                           "little") for j in range(k)]
    return [(h, full ^ h, 1 << j) for j, h in enumerate(held)]


def naive_moebius(S):
    """The Moebius function of the order x <= y when xy = x, as an n-by-n
    int array from its recursion: mu(x, x) = 1, and mu(x, y) = -(the sum of
    mu(x, z) over x <= z < y), 0 unless x <= y."""
    p, n = S.product, S.n
    leq = [[p(x, y) == x for y in range(n)] for x in range(n)]
    below = [sum(leq[z][y] for z in range(n)) for y in range(n)]
    order = sorted(range(n), key=below.__getitem__)     # a linear extension
    mu = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in order:
            if x == y:
                mu[x, y] = 1
            elif leq[x][y]:
                mu[x, y] = -sum(int(mu[x, z]) for z in range(n)
                                if leq[x][z] and leq[z][y] and z != y)
    return mu
