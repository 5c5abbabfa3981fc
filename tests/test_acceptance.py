"""Acceptance gate: eleven end-to-end criteria, each checked at its stated
tolerance against independent brute-force oracles.  Every test prints one
PASS line on success (pytest shows it with -s or in the failure report)."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import brute_filters
from test_cli import SLAT_ENV
from slat._bitset import bits, mask_of, popcount
from slat.adversarial import (build_chain, check_eta_subadditive, eta_weight,
                              verify_barrier)
from slat.breadth import breadth
from slat.core import (chain, fin_truncation, free_nonempty, generate_instance,
                       kary_tree, powerset)
from slat.metrics import (ZERO, LogMagnitude, d_set, defect_set,
                          enumerate_filters, generate_filter, omega_bound)
from slat.propagation import (PropagationValue, check_equivalence_iii,
                              is_fbp_stable, propagation_profile,
                              stability_threshold, v_value)
from slat.weights import builtin_logweight, level_set, random_logweight

PASS = "ACCEPTANCE {}: PASS ({})"


def small_instances():
    return [chain(2), chain(5), chain(16),
            powerset(2), powerset(3), powerset(4),
            free_nonempty(2), free_nonempty(3), free_nonempty(4),
            kary_tree(2, 2), kary_tree(2, 3), kary_tree(3, 2)]


def weight_for(S, seed=0):
    if S.kind == "set_system":
        return builtin_logweight(S, "cardinality")
    return random_logweight(S, seed)


def test_criterion_1_filter_oracles():
    total_instances = 0
    for S in small_instances():
        assert S.n <= 16
        filters = brute_filters(S)
        assert sorted(enumerate_filters(S)) == sorted(filters)
        full = (1 << S.n) - 1
        rng = random.Random(0)
        for _ in range(1000):
            E = rng.randrange(1 << S.n)
            inter = full
            for F in filters + [0]:
                if E & ~F == 0:
                    inter &= F
            assert generate_filter(S, E) == inter
        total_instances += 1
    print(PASS.format(1, f"filter oracle equivalence on {total_instances} "
                         "instances, 1000 random generating sets each"))


def test_criterion_2_level_distance_relation():
    checked = 0
    for S, lam in [(free_nonempty(3), builtin_logweight(free_nonempty(3),
                                                        "cardinality")),
                   (powerset(3), random_logweight(powerset(3), 1)),
                   (kary_tree(2, 2), random_logweight(kary_tree(2, 2), 2))]:
        thresholds = sorted({lam[x] for x in range(S.n)})
        Ws = [(L, level_set(S, lam, L)) for L in thresholds]
        rng = random.Random(0)
        for _ in range(10_000):
            X = rng.randrange(1 << S.n)
            Y = rng.randrange(1 << S.n)
            d = d_set(S, lam, X, Y)
            for L, W in Ws:
                agree = (X & W) == (Y & W)
                # close in the weighted metric forces level agreement
                if d < LogMagnitude.exp(L):
                    assert agree
                # level agreement bounds the weighted metric
                if agree:
                    assert d <= LogMagnitude.exp(L)
            checked += 1
    print(PASS.format(2, f"level agreement vs weighted distance, both directions, {checked} "
                         "random pairs, exact arithmetic"))


def test_criterion_3_stability_defect_relation():
    checked = 0
    for S in (free_nonempty(3), powerset(3), kary_tree(2, 2), chain(12),
              fin_truncation(4, 2)):
        assert S.n <= 12
        lam = weight_for(S)
        thresholds = sorted({lam[x] for x in range(S.n)})
        rng = random.Random(0)
        spot = {rng.randrange(1 << S.n) for _ in range(50)}
        for X in range(1 << S.n):
            d = defect_set(S, lam, X)
            T = stability_threshold(S, lam, X)
            for C in thresholds:
                stable = T is None or C < T
                if X in spot:  # oracle cross-check of the threshold shortcut
                    assert is_fbp_stable(S, lam, C, X) == stable
                if stable:
                    assert d <= LogMagnitude.exp(C)
                if d.is_zero or 3 * C < d.m:
                    assert stable
            checked += 1
    print(PASS.format(3, f"stability vs defect, both directions, exhaustively on {checked} "
                         "subsets, zero tolerance"))


def test_criterion_4_omega_bound():
    checked = 0
    for S in (free_nonempty(3), kary_tree(2, 2)):
        lam = weight_for(S, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            psi = rng.normal(size=S.n) + 1j * rng.normal(size=S.n)
            sup_ratio, bound = omega_bound(S, lam, psi)
            assert sup_ratio <= bound + 1e-12
            checked += 1
    print(PASS.format(4, f"weighted sup bound on {checked} random complex "
                         "functions within 1e-12"))


def test_criterion_5_equivalence_skeleton():
    cases = strict_hits = 0
    for S in (free_nonempty(3), powerset(3), kary_tree(2, 2),
              fin_truncation(4, 2)):
        assert S.n <= 12
        lam = weight_for(S, seed=1)
        thresholds = sorted({lam[x] for x in range(S.n)})
        for L in thresholds:
            prof = propagation_profile(S, lam, L)
            assert prof.exhaustive
            P = prof.value
            assert not P.is_infinite
            rep = check_equivalence_iii(S, lam, L, P.c)
            assert rep.exhaustive and rep.ok
            below = [C for C in thresholds if C < P.c]
            if below and P.c > L:
                # the profile witness certifies strictness: some stable set
                # at the lower level must disagree with its generated filter
                rep2 = check_equivalence_iii(S, lam, L, below[-1])
                assert rep2.exhaustive and not rep2.ok
                strict_hits += 1
            cases += 1
    print(PASS.format(5, f"equivalence skeleton over {cases} levels, "
                         f"{strict_hits} certified strictness witnesses"))


def _dense_v_oracle(S, lam, E_ids, z):
    """Dense-threshold reachability scan from first principles: level by
    attained level, iterate 'factors of pairwise products inside the level'
    to a fixed point, using only core primitives."""
    for C in sorted({lam[x] for x in range(S.n)}):
        W = level_set(S, lam, C)
        cur = mask_of(x for x in E_ids if lam[x] <= C)
        while True:
            new = cur
            ids = list(bits(cur))
            for i, x in enumerate(ids):
                for y in ids[i:]:
                    new |= S.factors_mask(S.product(x, y)) & W
            if new == cur:
                break
            cur = new
        if cur >> z & 1:
            return C
    return None


def test_criterion_6_prototype_barrier():
    got = []
    for n in range(2, 9):
        S = free_nonempty(n)
        lam = builtin_logweight(S, "prototype")
        singles = [x for x in range(S.n)
                   if popcount(S.member_mask(x)) == 1]
        top = S.id_of_mask((1 << n) - 1)
        v = v_value(S, lam, mask_of(singles), top)
        expect = Fraction(math.ceil(n / 2))
        assert v == PropagationValue.finite(expect)
        assert v.c >= Fraction(n, 2)
        assert _dense_v_oracle(S, lam, singles, top) == expect
        got.append(int(expect))
    assert got == [1, 2, 2, 3, 3, 4, 4]
    print(PASS.format(6, f"prototype barrier values {got} match the "
                         "dense-threshold oracle for n=2..8"))


def test_criterion_7_truncation_square_bound():
    # The square bound is a statement about union systems containing every
    # subset of their ground unions, so the hosts must be faithful: with
    # cardinality cap c = k - 1 the truncation carries all subsets of the
    # universe.  On harsher caps the collapsed top conflates distinct
    # oversize unions and the bound genuinely fails (e.g. fin(4,2) at
    # L = 1: three singletons reach the fourth through the top at level 2).
    cases = []
    for spec in ("fin(3,2)", "fin(4,3)", "fin(5,4)"):
        S = generate_instance(spec)
        lam = builtin_logweight(S, "cardinality")
        for L in (1, 2, 3):
            prof = propagation_profile(S, lam, L, budget=2_000_000)
            assert prof.exhaustive
            assert not prof.value.is_infinite
            assert prof.value.c <= Fraction(L) ** 2
            cases.append((spec, L, str(prof.value.c)))
    print(PASS.format(7, f"profile within L^2 in {len(cases)} "
                         "truncation/level combinations"))


def test_criterion_8_finite_breadth_bound():
    cases = 0
    hosts = [(chain(6), random_logweight(chain(6), 0)),
             (kary_tree(2, 3), random_logweight(kary_tree(2, 3), 1)),
             (free_nonempty(3), builtin_logweight(free_nonempty(3),
                                                  "cardinality")),
             (free_nonempty(4), builtin_logweight(free_nonempty(4),
                                                  "cardinality"))]
    for S, lam in hosts:
        br = breadth(S)
        assert br.exhaustive
        for L in sorted({lam[x] for x in range(S.n)}):
            prof = propagation_profile(S, lam, L, budget=2_000_000)
            assert prof.exhaustive
            assert not prof.value.is_infinite
            assert prof.value.c <= br.breadth * L
            cases += 1
    print(PASS.format(8, f"profile within breadth*L at {cases} levels "
                         "across chain/tree/free hosts"))


def test_criterion_9_adversarial_end_to_end():
    S = fin_truncation(24, 8)
    chain_ = build_chain(S, 6)
    assert chain_.depth >= 3
    sub = check_eta_subadditive(chain_)
    assert sub.ok and sub.exhaustive
    eta = eta_weight(chain_, S)
    for n in range(1, chain_.depth + 1):
        for x in chain_.families[n - 1]:
            assert eta[x] <= 1
        assert eta[S.product_ids(chain_.families[n - 1])] == 0
    barriers = []
    for n in range(2, chain_.depth + 1):
        res = verify_barrier(chain_, S, n, eta=eta)
        assert res.passed and res.value.c >= Fraction(n, 2)
        barriers.append((n, str(res.value.c)))
    print(PASS.format(9, f"depth {chain_.depth} chain on fin(24,8), "
                         f"exhaustive subadditivity, barriers {barriers}"))


def _no_incompressible_of_size(masks, r):
    """Raw-mask refutation: in a union system a compressing proper subset
    exists iff some single removal keeps the union, so it suffices to check
    single removals."""
    k = len(masks)
    for combo in itertools.combinations(range(k), r):
        sel = [masks[i] for i in combo]
        total = 0
        for m in sel:
            total |= m
        prefix = [0] * (r + 1)
        suffix = [0] * (r + 1)
        for i in range(r):
            prefix[i + 1] = prefix[i] | sel[i]
            suffix[r - i - 1] = suffix[r - i] | sel[r - i - 1]
        if all(prefix[i] | suffix[i + 1] != total for i in range(r)):
            return False
    return True


def test_criterion_10_breadth_correctness():
    for m in (2, 5, 9):
        assert breadth(chain(m)).breadth == 1
    assert breadth(kary_tree(2, 3)).breadth == 2
    for k in range(1, 6):
        S = free_nonempty(k)
        rep = breadth(S)
        assert rep.breadth == k and rep.exhaustive
    # brute force on the largest free instance: no k+1 of its member sets
    # are incompressible
    S = free_nonempty(5)
    masks = [S.member_mask(x) for x in range(S.n)]
    assert _no_incompressible_of_size(masks, 6)
    # and on the tree: every 3-element subset is compressible
    T = kary_tree(2, 3)
    for ids in itertools.combinations(range(T.n), 3):
        total = T.product_ids(list(ids))
        assert any(T.product_ids([a, b]) == total
                   for a, b in itertools.combinations(ids, 2))
    print(PASS.format(10, "breadth 1/2/k confirmed by brute force up to "
                          "size k+1"))


def test_criterion_11_cli_determinism():
    cmd = [sys.executable, "-m", "slat.cli", "verify", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, env=SLAT_ENV)
    b = subprocess.run(cmd, capture_output=True, env=SLAT_ENV)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
    print(PASS.format(11, "byte-identical verify reports for a fixed seed"))
