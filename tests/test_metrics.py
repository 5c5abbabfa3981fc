import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_filters
from slat import core
from slat._bitset import bits, mask_of
from slat.core import chain, free_nonempty, kary_tree, powerset
from slat.metrics import (ZERO, LogMagnitude, best_guess_check, d_set,
                          defect_complex, defect_set, discretize,
                          dist_complex, dist_set, enumerate_filters,
                          generate_filter, is_filter, level_agreement,
                          omega_bound)
from slat.weights import builtin_logweight, level_set, random_logweight


def test_logmagnitude_ordering():
    zero = LogMagnitude.zero()
    small = LogMagnitude.exp(5)
    big = LogMagnitude.exp(Fraction(1, 2))
    assert zero < small < big
    assert big > small > zero
    assert small == LogMagnitude.exp(5)
    assert zero.approx() == 0.0
    assert math.isclose(small.approx(), math.exp(-5))


def test_logmagnitude_json():
    assert LogMagnitude.zero().to_json() == {"kind": "zero"}
    obj = LogMagnitude.exp(Fraction(3, 2)).to_json()
    assert obj["kind"] == "exp" and obj["m"] == {"num": 3, "den": 2}


@pytest.mark.parametrize("S", [chain(4), powerset(3), free_nonempty(3),
                               kary_tree(2, 2)])
def test_enumerate_filters_matches_bruteforce(S):
    assert sorted(enumerate_filters(S)) == sorted(brute_filters(S))


def test_generated_filter_is_smallest_containing():
    S = free_nonempty(3)
    filters = brute_filters(S)
    rng = random.Random(0)
    for _ in range(200):
        E = rng.randrange(1 << S.n)
        got = generate_filter(S, E)
        inter = (1 << S.n) - 1
        for F in filters + [0]:
            if E & ~F == 0:
                inter &= F
        assert got == inter


def test_defect_zero_iff_filter_or_empty(subtests=None):
    S = free_nonempty(3)
    lam = builtin_logweight(S, "cardinality")
    filters = set(brute_filters(S))
    for X in range(1 << S.n):
        d = defect_set(S, lam, X)
        assert d.is_zero == (X == 0 or X in filters)


def test_d_set_is_min_weight_on_difference():
    S = powerset(3)
    lam = builtin_logweight(S, "cardinality")
    X, Y = 0b10110001, 0b10010101
    d = d_set(S, lam, X, Y)
    expect = min(lam[x] for x in bits(X ^ Y))
    assert d == LogMagnitude.exp(expect)
    assert d_set(S, lam, X, X) == ZERO


def test_dist_set_is_minimum_over_candidates():
    S = free_nonempty(3)
    lam = random_logweight(S, 3)
    for X in (0, 0b1010, 0b11, (1 << S.n) - 1):
        d, witness = dist_set(S, lam, X)
        best = min([d_set(S, lam, X, F) for F in enumerate_filters(S)]
                   + [d_set(S, lam, X, 0)])
        assert d == best
        assert d_set(S, lam, X, witness) == d


def test_level_agreement_threshold():
    S = free_nonempty(3)
    lam = builtin_logweight(S, "cardinality")
    X = mask_of([0, 1])
    Y = mask_of([0, 1, S.n - 1])
    t, strict = level_agreement(S, lam, X, Y)
    assert strict and t == lam[S.n - 1]
    assert level_agreement(S, lam, X, X) == (None, False)


def test_best_guess_check():
    S = free_nonempty(3)
    lam = builtin_logweight(S, "cardinality")
    F = generate_filter(S, mask_of([0]))
    assert best_guess_check(S, lam, F, 2)
    # a non-filter that disagrees with its generated filter at low level
    X = mask_of([S.id_of_mask(0b111)])  # top alone
    assert best_guess_check(S, lam, X, 3) == (
        (X & level_set(S, lam, 3)) ==
        (generate_filter(S, X & level_set(S, lam, 3)) & level_set(S, lam, 3)))


def test_defect_complex_matches_set_defect_on_indicators():
    S = free_nonempty(3)
    lam = random_logweight(S, 7)
    for X in (0b0101011, 0b1110000, 0):
        psi = np.array([float(X >> x & 1) for x in range(S.n)])
        assert abs(defect_complex(S, lam, psi)
                   - defect_set(S, lam, X).approx()) < 1e-12


def test_dist_complex_on_exact_character_is_zero():
    S = free_nonempty(3)
    lam = builtin_logweight(S, "cardinality")
    F = enumerate_filters(S)[0]
    psi = np.array([float(F >> x & 1) for x in range(S.n)])
    d, witness = dist_complex(S, lam, psi)
    assert d == 0.0 and witness == F


def test_omega_bound_inequality_random():
    S = kary_tree(2, 2)
    lam = random_logweight(S, 1)
    rng = np.random.default_rng(0)
    for _ in range(100):
        psi = rng.normal(size=S.n) + 1j * rng.normal(size=S.n)
        sup_ratio, bound = omega_bound(S, lam, psi)
        assert sup_ratio <= bound + 1e-12


def test_discretize_recovers_indicator():
    S = chain(4)
    psi = np.array([0.9, 0.1, 1.2, -0.2])
    assert discretize(S, psi) == 0b0101


@settings(max_examples=50, deadline=None)
@given(st.integers(0, (1 << 7) - 1), st.integers(0, (1 << 7) - 1),
       st.integers(0, 100))
def test_d_set_is_a_metric_sample(X, Y, seed):
    S = free_nonempty(3)
    lam = random_logweight(S, seed)
    dxy = d_set(S, lam, X, Y)
    assert dxy == d_set(S, lam, Y, X)
    assert (dxy == ZERO) == (X == Y)


@pytest.mark.parametrize("g", [0, 5, 100])
def test_dist_set_stops_at_an_exact_hit(g, monkeypatch):
    S = free_nonempty(10)
    monkeypatch.setattr(core, "NP_BLOCK_ELEMS", S.n)    # one row a block
    lam = builtin_logweight(S, "cardinality")
    F = S.factors_mask(g)
    visited = []
    product_rows = S.product_rows

    def counted():
        rows = product_rows()

        def block(r0, r1):
            visited.extend(range(r0, r1))
            return rows(r0, r1)
        return block

    monkeypatch.setattr(S, "product_rows", counted)
    assert dist_set(S, lam, F) == (ZERO, F)
    assert visited == list(range(g + 1))


def test_dist_complex_scans_pstar12_fast():
    S = free_nonempty(12)
    lam = builtin_logweight(S, "cardinality")
    rng = np.random.default_rng(1)
    psi = rng.random(S.n) + 1j * rng.random(S.n)   # no candidate is exact
    t = time.perf_counter()
    d, witness = dist_complex(S, lam, psi)
    assert time.perf_counter() - t < 0.5
    ind = np.array([witness >> x & 1 for x in range(S.n)], dtype=np.float64)
    assert d == float(np.max(np.abs(psi - ind) * np.exp(-lam.as_floats())))
