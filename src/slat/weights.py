"""Log-weights on a semilattice: exact rational values, validation, built-ins.

A log-weight assigns each element a nonnegative rational lambda(x) with
lambda(xy) <= lambda(x) + lambda(y).  The multiplicative weight exp(lambda)
is never stored; all threshold comparisons stay exact.  The builtin and
random weights are subadditive by construction on the host they are built
on, so ``validate_logweight`` scans only the others there.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial

import numpy as np

from ._bitset import mask_of_indicator, popcounts
from .core import (TABLE_HARD_CAP, Semilattice, ValidationReport, Violation,
                   _randrange_bulk, pairs_where, row_blocks)


class KindMismatch(TypeError):
    """Built-in weight needs a representation the instance does not have."""


class PrototypeMissingTop(ValueError):
    """The cheap-top weight needs the full universe as an element."""


class LogWeight:
    """Per-element rationals as integer numerators over one denominator.

    ``num(ids)`` maps a 1-d id array to the numerators over ``den``: an
    int64 array when each is below 2**62 (so that no sum of two
    overflows), else an object array of Python ints.  Library code reads
    ``num`` once for the ids it needs and compares integers; ``lam[x]``, the
    exact value of one element, is for oracles, tests and interactive use.
    ``num_masks`` is ``num`` over member masks, or None for a weight stored
    per id; ``subadditive_on`` the host it is subadditive on by proof, or None.
    """

    #: no weight caches its values; the benchmark's tracer reads this field
    _cache = None

    def __init__(self, n, den, num, name="explicit", num_masks=None,
                 subadditive_on=None):
        self.n, self.den, self.num, self.name = n, den, num, name
        self.num_masks, self.subadditive_on = num_masks, subadditive_on

    @classmethod
    def from_values(cls, values, name="explicit"):
        den, num = _numerators([Fraction(v) for v in values])
        return cls(len(num), den, partial(np.take, num), name)

    @classmethod
    def of_masks(cls, S, den, num_masks, name, subadditive_on=None):
        """``num(ids)`` is ``num_masks(S.masks_of(ids))``, on a set system."""
        return cls(S.n, den, lambda ids: num_masks(S.masks_of(np.asarray(
            ids, dtype=np.int64))), name, num_masks, subadditive_on)

    def __getitem__(self, x: int) -> Fraction:
        return self.values([x])[0]

    def values(self, ids=None):
        """The exact values of ``ids`` (every element by default)."""
        ids = np.arange(self.n) if ids is None else np.asarray(ids, np.int64)
        return [Fraction(a, self.den) for a in self.num(ids).tolist()]

    def as_floats(self):
        return np.array([a / self.den
                         for a in self.num(np.arange(self.n)).tolist()])

    def distinct_values(self):
        return [Fraction(a, self.den)
                for a in sorted(set(self.num(np.arange(self.n)).tolist()))]

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

    A weight subadditive on S by construction (``subadditive_on``) gets
    the exhaustive report with no scan, on every host.  Any other is
    exhaustive over all pairs x <= y up to ``TABLE_HARD_CAP`` elements, one
    triangle walk (``upper_blocks``) of the host's ``product_rows`` on the
    numerators over one common denominator; beyond that, seeded random
    pairs, checked a row block at a time, with the report marked
    non-exhaustive.
    """
    rep = ValidationReport()
    n = S.n
    if lam.n != n:
        raise ValueError("log-weight length does not match the instance")
    if lam.subadditive_on is S:
        return rep
    num = lam.num
    if n <= TABLE_HARD_CAP:
        w = num(np.arange(n))
        rep.violations += [Violation("Negative", (x,))
                           for x in np.flatnonzero(w < 0).tolist()]
        rows = S.product_rows()
        rep.violations += [
            Violation("NotSubadditive", pair) for pair in pairs_where(
                n, n, lambda r0, r1: w[rows(r0, r1, r0)] > w[r0:r1, None]
                + w[r0:], upper=True)]
        return rep
    rep.exhaustive = False
    rep.notes.append("pair check sampled")
    # the draws of randrange(n) calls, x then y for each pair
    xs = _randrange_bulk(random.Random(seed + 1), n, min(n, samples))
    rep.violations += [Violation("Negative", (x,))
                       for x in xs[num(xs) < 0].tolist()]
    pairs = _randrange_bulk(random.Random(seed), n, 2 * samples).reshape(-1, 2)
    for r0, r1 in row_blocks(len(pairs), 2):
        block = pairs[r0:r1]
        x, y = block.T
        bad = num(S.join_ids(S.masks_of(x), S.masks_of(y))) > num(x) + num(y)
        rep.violations += [Violation("NotSubadditive", tuple(pair))
                           for pair in block[bad].tolist()]
    return rep


def _numerators(vals):
    """The least common denominator of ``vals`` and their numerators over
    it, in the array form of ``LogWeight.num``."""
    den = math.lcm(*{v.denominator for v in vals})
    num = [v.numerator * (den // v.denominator) for v in vals]
    wide = any(abs(a) >= 1 << 62 for a in num)
    return den, np.array(num, dtype=object if wide else np.int64)


def _top_element(S: Semilattice):
    """Id of the maximum element (union of all member sets), or None."""
    return S.top_id if S.top_id is not None else S.id_of_mask(
        int(np.bitwise_or.reduce(S.member_masks_np())))


def builtin_logweight(S: Semilattice, name: str, params=None) -> LogWeight:
    """Named log-weights, functions of the member mask (``num_masks``) and
    subadditive on S by ``_counted``'s proof (``subadditive_on``).

    - ``zero``: constant 0 on any instance.
    - ``cardinality``: member-set size; on an instance with a collapsed top
      the top's value is capped at c+1, the largest subadditive choice.
    - ``scaled``: cardinality times a rational ``q`` (params ``{"q": ...}``).
    - ``prototype``: member-set size except the full universe costs 0.
    """
    params = params or {}
    if name == "zero":
        zeros = partial(np.zeros_like, dtype=np.int64)
        return LogWeight(S.n, 1, zeros, "zero", zeros, S)
    if S.kind != "set_system":
        raise KindMismatch(f"{name} weight needs a set-system instance")
    if name in ("cardinality", "scaled"):
        q = Fraction(params.get("q", 1)) if name == "scaled" else Fraction(1)
        if q < 0:
            raise ValueError("scale factor must be nonnegative")
        top, cap = S.top_id, S.truncation_bound()
        if cap is not None:
            cap += 1
        elif top is not None:
            cap = _collapse_cap(S)
        den, num_masks = q.denominator, _counted(S, q.numerator, top, cap)
    elif name == "prototype":
        top = _top_element(S)
        if top is None:
            raise PrototypeMissingTop(
                "prototype weight needs the full universe as an element")
        den, num_masks = 1, _counted(S, 1, top, 0)
    else:
        raise ValueError(f"unknown builtin log-weight {name!r}")
    # _counted's proof needs a collapsed top to absorb, as validate asks
    top = S.top_id
    absorbs = top is None or S.truncation_bound() is not None or bool(
        (S.join_ids(S.member_masks_np(), S.member_mask(top)) == top).all())
    return LogWeight.of_masks(S, den, num_masks, name, S if absorbs else None)


def _counted(S: Semilattice, q: int, top, cap: int):
    """``num_masks`` of q >= 0 times the point count of each member, with at
    most ``cap`` points at the element ``top`` (None: at no element).

    Subadditive on S when a collapsed top absorbs, a product with it being
    itself.  Another product xy is the member x | y, of at most |x| + |y|
    points, or the collapsed top, capped at |x | y| or below: c + 1 on a
    truncation, whose larger unions collapse, else the least |x | y| over
    pairs with product top (``_collapse_cap``), or 0 for the prototype."""
    wide = q * len(S.ground) >= 1 << 62
    at = None if top is None else S.member_mask(top)

    def num_masks(masks):
        c = popcounts(masks)
        if at is not None:
            np.minimum(c, cap, out=c, where=masks == at)
        return c.astype(object) * q if wide else c * q

    return num_masks


def _collapse_cap(S: Semilattice) -> int:
    """Fewest points in the union of two members whose product is the
    collapsed top, by a row-block scan of the host's ``product_rows``.  Each
    row has such a pair: x with the top."""
    rows, masks = S.product_rows(), S.member_masks_np()
    return min(int(popcounts((masks[r0:r1, None] | masks)[
        rows(r0, r1) == S.top_id]).min()) for r0, r1 in row_blocks(S.n, S.n))


def level_set(S: Semilattice, lam: LogWeight, L) -> int:
    """Bitmask of the level set {x : lambda(x) <= L}; comparison is exact."""
    L = Fraction(L)
    return mask_of_indicator(
        lam.num(np.arange(S.n)) <= L.numerator * lam.den // L.denominator)


def random_logweight(S: Semilattice, seed: int) -> LogWeight:
    """Seeded random log-weight: rationals 0..8 over 1..3, repaired to the
    greatest subadditive function below them.

    Each repair round lowers every lambda(xy) to lambda(x) + lambda(y) at
    once, on integer numerators over 6, until nothing changes.  The maximum
    of two subadditive functions below the draws is another, so the greatest
    one is unique and every order of repairs reaches it.  The fixpoint is
    subadditive on every cell xy of S's table (``subadditive_on``).  Needs a
    dense product table: above ``TABLE_HARD_CAP`` elements it raises
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
    return LogWeight(S.n, 6, partial(np.take, num.astype(np.int64)), "random",
                     subadditive_on=S)


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
        return LogWeight.from_values(vals)
    if kind == "scaled":
        q = obj.get("q", {"num": 1, "den": 1})
        return builtin_logweight(S, "scaled",
                                 {"q": _fraction_from_json(q)})
    if kind in ("zero", "cardinality", "prototype"):
        return builtin_logweight(S, kind)
    raise ValueError(f"unknown log-weight kind {kind!r}")
