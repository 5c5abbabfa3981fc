"""Filters, characters, and the weighted stability functionals.

Indicator-valued functionals are exact: their values are always 0 or of the
form exp(-m) for a rational m, captured by :class:`LogMagnitude`.  Complex
valued functionals use double precision with a fixed reduction order.

Each whole-host question is one row-block scan of ``product_rows``, no
n-by-n table held: of the principal filters (the rows ``rows == ids[r0:r1,
None]``), of products, or, by the triangle walk ``core.upper_blocks``, of
the pairs x <= y breaking the filter identity, which is symmetric.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

import numpy as np

from ._bitset import bits, indicator, mask_of, mask_of_indicator
from .core import Semilattice, pairs_where, row_blocks, upper_blocks
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

def _broken(S: Semilattice, X: int):
    """``bad(r0, r1)`` for the triangle walk: over rows r0..r1-1 and the
    columns from r0 on, the pairs at which ``xy in X <=> x in X and y in
    X`` fails."""
    inside, rows = indicator(X, S.n), S.product_rows()
    return lambda r0, r1: inside[rows(r0, r1, r0)] != (
        inside[r0:r1, None] & inside[r0:])


def is_filter(S: Semilattice, F: int) -> bool:
    """True iff the id-mask F is nonempty and xy in F <=> x in F and y in F."""
    return F != 0 and next(pairs_where(S.n, S.n, _broken(S, F), upper=True),
                           None) is None


def enumerate_filters(S: Semilattice):
    """All filters of a finite semilattice: the n principal up-sets, in
    generator order, each once (the last candidate is the empty set)."""
    ups = [mask_of_indicator(up) for block in _candidates(S) for up in block]
    return list(dict.fromkeys(ups[:-1]))


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
    """Weighted multiplicativity defect of the indicator of X (exact): the
    least lambda(x) + lambda(y) over the broken pairs x <= y, a block of
    the triangle walk at a time."""
    w = lam.num(np.arange(S.n))
    sums = ((w[r0:r0 + len(b), None] + w[r0:])[b]
            for r0, b in upper_blocks(S.n, _broken(S, X)))
    best = min((int(s.min()) for s in sums if len(s)), default=None)
    return ZERO if best is None else LogMagnitude.exp(Fraction(best, lam.den))


def d_set(S: Semilattice, lam: LogWeight, X: int, Y: int) -> LogMagnitude:
    """Weighted sup distance between two indicator functions (exact)."""
    t, _ = level_agreement(S, lam, X, Y)
    return ZERO if t is None else LogMagnitude.exp(t)


def _candidates(S: Semilattice):
    """Yield blocks of indicator rows: the principal filter {z : xz = x} of
    each x, in canonical generator order, then the empty set."""
    rows, ids = S.product_rows(), np.arange(S.n)
    for r0, r1 in row_blocks(S.n, S.n):
        yield rows(r0, r1) == ids[r0:r1, None]
    yield np.zeros((1, S.n), dtype=bool)


def dist_set(S: Semilattice, lam: LogWeight, X: int):
    """Least weighted distance from X to a filter-or-empty-set.

    Returns ``(LogMagnitude, witness_mask)``; candidates are scanned in
    canonical generator order with the empty set last, first winner kept;
    one equal to X (distance zero) ends the scan.
    """
    w, inside = lam.num(np.arange(S.n)), indicator(X, S.n)
    equal = w.max(initial=0) + 1        # m of a candidate equal to X
    best = witness = None
    for up in _candidates(S):
        m = np.where(up != inside, w, equal).min(axis=1, initial=equal)
        i = int(m.argmax())
        if best is None or m[i] > best:
            best, witness = m[i], up[i]
            if best == equal:
                break
    return (ZERO if best == equal else LogMagnitude.exp(
        Fraction(int(best), lam.den))), mask_of_indicator(witness)


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
    a, lf, rows = _as_psi(S, psi), lam.as_floats(), S.product_rows()
    return max(float(np.max(np.abs(a[rows(r0, r1)] - np.outer(a[r0:r1], a))
                            * np.exp(-lf[r0:r1, None] - lf)))
               for r0, r1 in row_blocks(S.n, S.n))


def dist_complex(S: Semilattice, lam: LogWeight, psi):
    """Least weighted distance from psi to a character-or-zero indicator.

    Returns ``(value, witness_mask)`` over the n principal-filter indicators
    plus the zero function, canonical order, first winner kept; a later
    candidate wins only by more than 1e-12.
    """
    a, wf = _as_psi(S, psi), np.exp(-lam.as_floats())
    best = witness = None
    for up in _candidates(S):
        for d, ind in zip(np.max(np.abs(a - up) * wf, axis=1).tolist(), up):
            if best is None or d < best - 1e-12:
                best, witness = d, ind
    return best, mask_of_indicator(witness)


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
