"""Filters, characters, and the weighted stability functionals.

Indicator-valued functionals are exact: their values are always 0 or of the
form exp(-m) for a rational m, captured by :class:`LogMagnitude`.  Complex
valued functionals use double precision with a fixed reduction order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import total_ordering
from itertools import chain

import numpy as np

from ._bitset import bits, mask_of
from .core import Semilattice
from .weights import LogWeight, level_set


@total_ordering
class LogMagnitude:
    """Exactly 0, or exp(-m) for an exact rational exponent m.

    Ordered by actual magnitude: 0 is smallest, and exp(-m) decreases as m
    grows.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = None if m is None else Fraction(m)

    @classmethod
    def zero(cls):
        return cls(None)

    @classmethod
    def exp(cls, m):
        return cls(Fraction(m))

    @property
    def is_zero(self):
        return self.m is None

    def approx(self) -> float:
        return 0.0 if self.is_zero else math.exp(-float(self.m))

    def __eq__(self, other):
        return isinstance(other, LogMagnitude) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __lt__(self, other):
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        return self.m > other.m

    def to_json(self):
        if self.is_zero:
            return {"kind": "zero"}
        return {"kind": "exp",
                "m": {"num": self.m.numerator, "den": self.m.denominator},
                "approx": self.approx()}

    def __repr__(self):
        return "LogMagnitude.zero()" if self.is_zero \
            else f"LogMagnitude.exp({self.m})"


ZERO = LogMagnitude.zero()


# -- filters ----------------------------------------------------------------

def _broken_pairs(S: Semilattice, X: int):
    """Yield the pairs x <= y of ids, in row-major order, at which
    ``xy in X <=> x in X and y in X`` fails."""
    inside = [X >> x & 1 for x in range(S.n)]
    for x, in_x in enumerate(inside):
        for y in range(x, S.n):
            if inside[S.product(x, y)] != (in_x and inside[y]):
                yield x, y


def is_filter(S: Semilattice, F: int) -> bool:
    """True iff the id-mask F is nonempty and xy in F <=> x in F and y in F."""
    return F != 0 and next(_broken_pairs(S, F), None) is None


def enumerate_filters(S: Semilattice):
    """All filters of a finite semilattice: the n principal up-sets."""
    out = []
    seen = set()
    for y in range(S.n):
        f = S.factors_mask(y)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def generate_filter(S: Semilattice, E: int) -> int:
    """Filter-or-empty-set generated by the id-mask E.

    Empty input gives the empty set; otherwise the principal up-set of the
    product of E.
    """
    if E == 0:
        return 0
    return S.factors_mask(S.product_of_mask(E))


# -- indicator functionals ---------------------------------------------------

def defect_set(S: Semilattice, lam: LogWeight, X: int) -> LogMagnitude:
    """Weighted multiplicativity defect of the indicator of X (exact)."""
    w = lam.num(np.arange(S.n)).tolist()
    best = min((w[x] + w[y] for x, y in _broken_pairs(S, X)), default=None)
    return ZERO if best is None else LogMagnitude.exp(Fraction(best, lam.den))


def d_set(S: Semilattice, lam: LogWeight, X: int, Y: int) -> LogMagnitude:
    """Weighted sup distance between two indicator functions (exact)."""
    t, _ = level_agreement(S, lam, X, Y)
    return ZERO if t is None else LogMagnitude.exp(t)


def _nearest(S: Semilattice, dist, better, floor):
    """``(distance, witness)`` of the first nearest filter-or-empty-set.

    Candidates are the principal filters in canonical generator order, then
    the empty set.  A candidate replaces the best so far when
    ``better(d, best)``; the scan stops once not even ``floor``, the least
    possible distance, would.
    """
    best = witness = None
    for F in chain(map(S.factors_mask, range(S.n)), [0]):
        d = dist(F)
        if best is None or better(d, best):
            best, witness = d, F
            if not better(floor, best):
                break
    return best, witness


def dist_set(S: Semilattice, lam: LogWeight, X: int):
    """Least weighted distance from X to a filter-or-empty-set.

    Returns ``(LogMagnitude, witness_mask)``; candidates are scanned in
    canonical generator order with the empty set last, first winner kept.
    """
    w = lam.num(np.arange(S.n)).tolist()

    def dist(F):            # d_set, on the numerators read once
        diff = X ^ F
        return LogMagnitude.exp(Fraction(min(w[x] for x in bits(diff)),
                                         lam.den)) if diff else ZERO

    return _nearest(S, dist, operator.lt, ZERO)


def level_agreement(S: Semilattice, lam: LogWeight, X: int, Y: int):
    """Largest level threshold below which X and Y have equal level sets.

    Returns ``(threshold, strict)`` where agreement holds exactly for levels
    strictly below the rational threshold, or ``(None, False)`` when X = Y
    (agreement at every level).
    """
    diff = X ^ Y
    if diff == 0:
        return None, False
    return min(lam.values(list(bits(diff)))), True


def best_guess_check(S: Semilattice, lam: LogWeight, X: int, L) -> bool:
    """Whether X agrees at level L with the filter its level part generates."""
    W = level_set(S, lam, L)
    XW = X & W
    return XW == generate_filter(S, XW) & W


# -- complex-valued functionals ----------------------------------------------

def _as_psi(S, psi):
    a = np.asarray(psi, dtype=np.complex128)
    if a.shape != (S.n,):
        raise ValueError("function must assign one value per element")
    if not np.all(np.isfinite(a.real) & np.isfinite(a.imag)):
        raise ValueError("function values must be finite")
    return a


def defect_complex(S: Semilattice, lam: LogWeight, psi) -> float:
    """Weighted multiplicativity defect of a complex function (double)."""
    a = _as_psi(S, psi)
    P = S.product_table_np()
    lf = lam.as_floats()
    w = np.exp(-lf[:, None] - lf[None, :])
    return float(np.max(np.abs(a[P] - np.outer(a, a)) * w))


def dist_complex(S: Semilattice, lam: LogWeight, psi):
    """Least weighted distance from psi to a character-or-zero indicator.

    Returns ``(value, witness_mask)`` over the n principal-filter indicators
    plus the zero function, canonical order, first winner kept; a later
    candidate wins only by more than 1e-12.
    """
    a = _as_psi(S, psi)
    wf = np.exp(-lam.as_floats())

    size = (S.n + 7) // 8

    def dist(F):
        ind = np.unpackbits(np.frombuffer(F.to_bytes(size, "little"), np.uint8),
                            count=S.n, bitorder="little").astype(np.float64)
        return float(np.max(np.abs(a - ind) * wf))

    return _nearest(S, dist, lambda d, best: d < best - 1e-12, 0.0)


def omega_bound(S: Semilattice, lam: LogWeight, psi):
    """Weighted sup of |psi| next to its defect-based upper bound.

    Returns ``(sup_ratio, 1 + defect)``; on a semilattice the first never
    exceeds the second (up to double slack).
    """
    a = _as_psi(S, psi)
    sup_ratio = float(np.max(np.abs(a) * np.exp(-lam.as_floats())))
    return sup_ratio, 1.0 + defect_complex(S, lam, psi)


def discretize(S: Semilattice, psi) -> int:
    """Round a complex function to the id-mask of values within 1/2 of 1.

    Idempotence pushes low-defect functions toward {0,1}-valued ones, so the
    disc centered at 1 recovers the underlying set; ties round inward.
    """
    a = _as_psi(S, psi)
    return mask_of(x for x in range(S.n) if abs(a[x] - 1.0) <= 0.5)
