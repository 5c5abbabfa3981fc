"""Log-weights on a semilattice: exact rational values, validation, built-ins.

A log-weight assigns each element a nonnegative rational lambda(x) with
lambda(xy) <= lambda(x) + lambda(y).  The multiplicative weight exp(lambda)
is never stored; all threshold comparisons stay exact.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._bitset import mask_of, popcount
from .core import (TABLE_HARD_CAP, Semilattice, ValidationReport, Violation,
                   pairs_where, row_blocks)


class KindMismatch(TypeError):
    """Built-in weight needs a representation the instance does not have."""


class PrototypeMissingTop(ValueError):
    """The cheap-top weight needs the full universe as an element."""


class LogWeight:
    """Per-element nonnegative rationals, either stored or computed lazily.

    ``lam[x]`` returns the exact value for element id ``x``.
    """

    def __init__(self, n, values=None, fn=None, name="explicit"):
        if (values is None) == (fn is None):
            raise ValueError("provide exactly one of values or fn")
        self.n = n
        self.name = name
        self._values = list(values) if values is not None else None
        self._fn = fn
        self._cache = {} if fn is not None else None

    @classmethod
    def from_values(cls, values, name="explicit"):
        vals = [Fraction(v) for v in values]
        return cls(len(vals), values=vals, name=name)

    @classmethod
    def lazy(cls, n, fn, name):
        return cls(n, fn=fn, name=name)

    def __getitem__(self, x: int) -> Fraction:
        if self._values is not None:
            return self._values[x]
        v = self._cache.get(x)
        if v is None:
            v = self._fn(x)
            self._cache[x] = v
        return v

    def values(self):
        return [self[x] for x in range(self.n)]

    def as_floats(self):
        return np.array([float(self[x]) for x in range(self.n)])

    def max_value(self) -> Fraction:
        return max(self[x] for x in range(self.n))

    def distinct_values(self):
        return sorted(set(self[x] for x in range(self.n)))

    def to_json(self):
        if self.name in ("cardinality", "prototype", "zero"):
            return {"kind": self.name}
        return {"kind": "explicit",
                "values": [{"num": v.numerator, "den": v.denominator}
                           for v in self.values()]}

    def __repr__(self):
        return f"LogWeight(n={self.n}, name={self.name!r})"


def validate_logweight(S: Semilattice, lam: LogWeight,
                       seed: int = 0, samples: int = 100_000):
    """Check nonnegativity and subadditivity.

    Exhaustive over all pairs of a host with a dense product table (up to
    ``TABLE_HARD_CAP`` elements), on the numerators over one common
    denominator; beyond that, seeded random pairs with the report marked
    non-exhaustive.
    """
    rep = ValidationReport()
    n = S.n
    if lam.n != n:
        raise ValueError("log-weight length does not match the instance")
    if n <= TABLE_HARD_CAP:
        vals = lam.values()
        for x in range(n):
            if vals[x] < 0:
                rep.violations.append(Violation("Negative", (x,)))
        P = S.product_table_np()
        rep.violations += [
            Violation("NotSubadditive", pair) for pair in _superadditive_pairs(
                _numerators(vals), lambda rows: P[rows], upper=True)]
        return rep
    rng = random.Random(seed)
    rep.exhaustive = False
    rep.notes.append("pair check sampled")
    neg_rng = random.Random(seed + 1)
    for _ in range(min(n, samples)):
        x = neg_rng.randrange(n)
        if lam[x] < 0:
            rep.violations.append(Violation("Negative", (x,)))
    for _ in range(samples):
        x, y = rng.randrange(n), rng.randrange(n)
        if lam[S.product(x, y)] > lam[x] + lam[y]:
            rep.violations.append(Violation("NotSubadditive", (x, y)))
    return rep


def _numerators(vals):
    """Numerators of ``vals`` over their least common denominator: an int64
    array when each is below 2**62 (so that no sum of two overflows), else
    an object array of Python ints."""
    den = math.lcm(*{v.denominator for v in vals})
    num = [v.numerator * (den // v.denominator) for v in vals]
    wide = any(abs(a) >= 1 << 62 for a in num)
    return np.array(num, dtype=object if wide else np.int64)


def _superadditive_pairs(num, products, upper):
    """Pairs ``(x, y)`` with ``num[xy] > num[x] + num[y]``, in row-major order.

    ``products(rows)`` gives the ids of the products of each id in ``rows``
    with every id; with ``upper`` only pairs with ``x <= y`` are kept.
    """
    ids = np.arange(len(num))

    def bad(r0, r1):
        rows = ids[r0:r1]
        out = num[products(rows)] > num[rows, None] + num
        return out & (rows[:, None] <= ids) if upper else out

    return pairs_where(len(num), len(num), bad)


def _top_element(S: Semilattice):
    """Id of the maximum element (union of all member sets), or None."""
    if S.top_id is not None:
        return S.top_id
    return S.id_of_mask(int(np.bitwise_or.reduce(S.member_masks_np())))


def builtin_logweight(S: Semilattice, name: str, params=None) -> LogWeight:
    """Named log-weights.

    - ``zero``: constant 0 on any instance.
    - ``cardinality``: member-set size; on an instance with a collapsed top
      the top's value is capped at c+1, the largest subadditive choice.
    - ``scaled``: cardinality times a rational ``q`` (params ``{"q": ...}``).
    - ``prototype``: member-set size except the full universe costs 0.
    """
    params = params or {}
    if name == "zero":
        return LogWeight(S.n, values=[Fraction(0)] * S.n, name="zero")
    if S.kind != "set_system":
        raise KindMismatch(f"{name} weight needs a set-system instance")
    if name in ("cardinality", "scaled"):
        q = Fraction(params.get("q", 1)) if name == "scaled" else Fraction(1)
        if q < 0:
            raise ValueError("scale factor must be nonnegative")
        cap = S.truncation_bound()
        if cap is not None:
            cap += 1
        elif S.top_id is not None:
            cap = _collapse_cap(S)
        by_size = lru_cache(maxsize=None)(q.__mul__)  # one value per size

        def card(x):
            c = popcount(S.member_mask(x))
            if x == S.top_id and cap is not None:
                c = min(c, cap)
            return by_size(c)

        if S.n > 100_000:
            return LogWeight.lazy(S.n, card, name=name)
        return LogWeight(S.n, values=[card(x) for x in range(S.n)], name=name)
    if name == "prototype":
        top = _top_element(S)
        if top is None:
            raise PrototypeMissingTop(
                "prototype weight needs the full universe as an element")
        by_size = lru_cache(maxsize=None)(Fraction)  # one value per size
        vals = [by_size(popcount(S.member_mask(x))) for x in range(S.n)]
        vals[top] = by_size(0)
        return LogWeight(S.n, values=vals, name="prototype")
    raise ValueError(f"unknown builtin log-weight {name!r}")


def _collapse_cap(S: Semilattice) -> int:
    """Fewest points in the union of two members whose product is the
    collapsed top, by a row-block scan of the dense product table.  Each row
    has such a pair: x with the top."""
    T = S.product_table_np()
    masks = S.member_masks_np()
    size = np.frompyfunc(int.bit_count, 1, 1) if masks.dtype == object \
        else np.bitwise_count
    caps = []
    for r0, r1 in row_blocks(S.n, S.n):
        unions = masks[r0:r1, None] | masks
        caps.append(int(size(unions[T[r0:r1] == S.top_id]).min()))
    return min(caps)


def level_set(S: Semilattice, lam: LogWeight, L) -> int:
    """Bitmask of the level set {x : lambda(x) <= L}; comparison is exact."""
    L = Fraction(L)
    return mask_of(x for x in range(S.n) if lam[x] <= L)


def random_logweight(S: Semilattice, seed: int) -> LogWeight:
    """Seeded random log-weight: rationals 0..8 over 1..3, repaired to the
    greatest subadditive function below them.

    Each repair round lowers every lambda(xy) to lambda(x) + lambda(y) at
    once, on integer numerators over 6, until nothing changes.  The maximum
    of two subadditive functions below the draws is another, so the greatest
    one is unique and every order of repairs reaches it.  Needs a dense
    product table: above ``TABLE_HARD_CAP`` elements it raises
    ``SizeOverflowError``.
    """
    rng = random.Random(seed)
    # numerators are at most 48, so int16 holds every sum of two
    num = np.array([rng.randrange(0, 9) * (6 // rng.randrange(1, 4))
                    for _ in range(S.n)], dtype=np.int16)
    P = S.product_table_np().ravel()
    while True:
        new = num.copy()
        np.minimum.at(new, P, (num[:, None] + num).ravel())
        if np.array_equal(new, num):
            break
        num = new
    return LogWeight(S.n, values=[Fraction(a, 6) for a in num.tolist()],
                     name="random")


def _fraction_from_json(v) -> Fraction:
    if not (isinstance(v, dict) and type(v.get("num")) is int
            and type(v.get("den")) is int):
        raise ValueError(
            f"weight value {v!r} is not an object with integer num and den")
    if v["den"] == 0:
        raise ValueError(f"weight value {v} has a zero denominator")
    return Fraction(v["num"], v["den"])


def logweight_from_json(S: Semilattice, obj) -> LogWeight:
    """Parse the weight descriptor attached to an instance file."""
    if not isinstance(obj, dict):
        raise ValueError("log-weight descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind == "explicit":
        if not isinstance(obj.get("values"), list):
            raise ValueError("explicit log-weight needs a list of values")
        vals = [_fraction_from_json(v) for v in obj["values"]]
        if len(vals) != S.n:
            raise ValueError("explicit weight length mismatch")
        return LogWeight(S.n, values=vals, name="explicit")
    if kind == "scaled":
        q = obj.get("q", {"num": 1, "den": 1})
        return builtin_logweight(S, "scaled",
                                 {"q": _fraction_from_json(q)})
    if kind in ("zero", "cardinality", "prototype"):
        return builtin_logweight(S, kind)
    raise ValueError(f"unknown log-weight kind {kind!r}")
