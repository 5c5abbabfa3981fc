"""Finite semilattice representations, validation, order, embeddings and generators.

A semilattice is stored either as an explicit product table, one read-only
n-by-n int32 array, or as a union-closed set system over a finite universe.
Elements are dense integer ids; subsets of elements are plain integer
bitmasks over those ids.  Set systems list their member masks, except that
a Boolean-cube family above ``IMPLICIT_THRESHOLD`` members uses rank
storage: ids and member masks are computed from each other in the
combinatorial number system.  Only this module knows the storage: the
constructor builds a table's array, or binds a set system's two lookups (id
to member mask, member mask to id or None) in a scalar and an array form,
once, and the methods use them.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, combinations

import numpy as np

from ._bitset import (bits, mask_of, mask_of_indicator, popcount, popcounts,
                      submasks)

#: most elements of a table host, and of a dense table from product_table_np;
#: checked before any table is built
TABLE_HARD_CAP = 4096
#: above this many members (a collapsed top not counted) a Boolean-cube
#: family uses rank storage instead of per-element masks
IMPLICIT_THRESHOLD = 300_000
#: most members (a collapsed top not counted) of a Boolean-cube family
CUBE_HARD_CAP = 1 << 24
#: full O(n^3) associativity checking is restricted to this size
FULL_VALIDATE_CAP = 251
#: elements per row block of a vectorized whole-host scan (128 KiB of int64,
#: so that a block's few temporaries stay in cache and add little to the
#: peak memory of a small host)
NP_BLOCK_ELEMS = 1 << 14
#: most 32-bit Mersenne Twister outputs per ``getrandbits`` call of a bulk
#: draw, so that one chunk's words and their temporaries stay in cache
_DRAW_CHUNK = 1 << 14
#: most points of a set on the subset-lattice passes (closures in
#: ``propagation``, exact breadth in ``breadth``), whose arrays have
#: 2**points entries
SUBSET_MAX_BITS = 22


class NotClosedError(ValueError):
    """A set-system product refers to a union that is not a member."""


class SizeOverflowError(ValueError):
    """Requested instance exceeds the configured size cap."""


class BudgetExceeded(RuntimeError):
    """Raised when a search or a subset pass outgrows its budget."""


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple

    def to_json(self):
        return {"kind": self.kind, "witness": list(self.witness)}


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    checked_triples: int = 0
    exhaustive: bool = True
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        return {
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
            "checked_triples": self.checked_triples,
            "exhaustive": self.exhaustive,
            "notes": list(self.notes),
        }


class Semilattice:
    """A finite commutative idempotent semigroup.

    Instances are immutable after construction, apart from the factor
    cache that fills as it is used.  Use the module-level generators or
    ``from_table`` / ``from_sets`` / ``from_json`` instead of calling the
    constructor.  On a set system, ``masks_of(ids)`` and ``ids_of(masks)``
    are ``member_mask`` and ``id_of_mask`` over an int64 array (of objects
    where masks reach 2**63), with -1 for None.  Element ids must lie in
    0..n-1; only rank storage checks them (IndexError), while listed masks
    and tables index as a list or an array does.
    """

    def __init__(self, kind, n, *, table=None, ground=None, masks=None,
                 labels=None, trunc=None, top_id=None):
        self.kind = kind  # "table" | "set_system"
        self.n = n
        if table is not None:       # rows of ids, as lists or a new array
            table = np.asarray(table, dtype=np.int32).reshape(n, n)
            table.flags.writeable = False
        self.table = table
        self.ground = ground          # universe labels, set_system only
        self._masks = masks           # member masks in canonical order
        self.labels = labels
        self._trunc = trunc           # (k, lo, c) of a Boolean-cube family
        self.top_id = top_id          # id of the collapsed top, or None
        self._factors_cache = {}
        if masks is not None:
            self._mask = masks.__getitem__
            self._id = {m: i for i, m in enumerate(masks)}.get
            self.masks_of, self.ids_of = _listed_lookups(masks)
        elif trunc is not None:
            self._mask, self._id, self.masks_of, self.ids_of = (
                partial(f, *trunc, top_id) for f in (
                    _trunc_unrank, _trunc_rank, _trunc_unrank_np, _trunc_rank_np))
        else:
            self._mask = self._id = self.masks_of = self.ids_of = \
                _no_member_masks

    # -- constructors -------------------------------------------------

    @classmethod
    def from_table(cls, table, labels=None):
        if not isinstance(table, (list, tuple)):
            raise ValueError(f"product table {table!r} is not a list of rows")
        n = _table_size(len(table))
        for row in table:
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"product table row {row!r} is not a list")
            if len(row) != n:
                raise ValueError("product table must be square")
            for v in row:
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError(f"table entry {v!r} is not an element "
                                     f"id in 0..{n - 1}")
        return cls("table", n, table=table, labels=_checked_labels(labels, n))

    @classmethod
    def from_sets(cls, ground, member_sets, labels=None, close=False):
        """Build a union-closed set system.

        ``member_sets`` are lists of indices into ``ground``, and ``labels``
        one string per member set.  By default a family that is not
        union-closed is rejected; with ``close=True`` the union-closure is
        computed first (which changes ``n`` and drops the labels).
        """
        ground = list(ground)
        masks, labels = _canonical_members(len(ground), member_sets, labels)
        if close:
            masks, labels = sorted(_join_closure(masks, operator.or_),
                                   key=_canonical_key(len(ground))), None
        S = cls("set_system", len(masks), ground=ground, masks=masks,
                labels=labels)
        arr = S.member_masks_np()
        missing = None if close else next(pairs_where(
            S.n, S.n, lambda r0, r1: S.ids_of(arr[r0:r1, None] | arr[r0:]) < 0,
            upper=True), None)
        if missing:
            a, b = (sorted(bits(masks[i])) for i in missing)
            raise NotClosedError(f"union of element sets {a} and {b} is not "
                                 f"a member (use close=True)")
        return S

    # -- element access -----------------------------------------------

    def member_mask(self, x: int) -> int:
        """Member set of element ``x`` as a bitmask over universe indices."""
        return self._mask(x)

    def id_of_mask(self, mask: int):
        """Element id whose member set equals ``mask``, or None."""
        return self._id(mask)

    def subsets_fit(self, G) -> bool:
        """The density rule: the point set G has at most 4n subsets."""
        return _fits(popcount(G), self.n)

    def subset_ids(self, G):
        """``ids_of`` of the subsets of the point set G, bit j of an index for
        the j-th point of G; past ``SUBSET_MAX_BITS`` points it raises."""
        return self.ids_of(_subset_masks(G))

    def is_member(self, masks):
        """``ids_of(masks) >= 0``; on a cube by point count: lo to c, or k."""
        if self._trunc is None:
            return self.ids_of(masks) >= 0
        k, lo, c = self._trunc
        m = popcounts(masks)
        return (masks >> k == 0) & (m >= lo) & ((m <= c) | (m == k))

    def truncation_bound(self):
        """The cardinality bound c of a cube truncation whose larger unions
        collapse to the top, or None for any other instance."""
        if self._trunc and self.top_id is not None:
            return self._trunc[2]
        return None

    def element_label(self, x: int) -> str:
        if self.labels:
            return self.labels[x]
        if self.kind == "set_system":
            if x == self.top_id and self._trunc is not None:
                return "{*}"
            pts = [str(self.ground[i]) for i in bits(self.member_mask(x))]
            return "{" + ",".join(pts) + "}"
        return str(x)

    # -- the semilattice operation ------------------------------------

    def product(self, x: int, y: int) -> int:
        if self.kind == "table":
            return self.table.item(x, y)
        mask = self._mask
        z = self._id(mask(x) | mask(y))
        if z is None:
            if self.top_id is not None:
                return self.top_id
            raise NotClosedError(
                f"union of elements {x} and {y} is not a member")
        return z

    def leq(self, x: int, y: int) -> bool:
        """Canonical order: ``x`` precedes ``y`` iff ``product(x, y) == x``."""
        return self.product(x, y) == x

    def product_ids(self, ids) -> int:
        it = iter(ids)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("product over an empty collection") from None
        for x in it:
            acc = self.product(acc, x)
        return acc

    def product_of_mask(self, idmask: int) -> int:
        return self.product_ids(bits(idmask))

    # -- upward sets ---------------------------------------------------

    def iter_factors(self, p: int):
        """Yield all z with z >= p in the canonical order (factors of p)."""
        if self.kind == "set_system":
            if p == self.top_id:
                yield from range(self.n)
                return
            pm = self._mask(p)
            if self.subsets_fit(pm):
                out = []
                for sub in submasks(pm):
                    z = self._id(sub)
                    if z is not None and z != self.top_id:
                        out.append(z)
                yield from sorted(out)
                return
        row = self.table[p] if self.kind == "table" else \
            self.product_rows()(p, p + 1)[0]      # z >= p when p.z == p
        yield from np.flatnonzero(row == p).tolist()

    def join_seam(self):
        """``(key, join, resolve)``: ``join(key(x))`` maps a product's key to
        that of its product with x; two keys name one element when ``resolve``
        (None: the identity) maps them to one value, a non-member to the top."""
        if self.kind == "table":
            return (lambda x: x), (lambda a: partial(self.table.item, a)), None
        ident, top = self._id, self.top_id
        resolve = None if top is None else (
            lambda m: top if (x := ident(m)) is None else x)
        return self._mask, (lambda m: m.__or__), resolve

    def factors_mask(self, p: int) -> int:
        """Bitmask over ids of ``{z : z >= p}``; cached per element."""
        m = self._factors_cache.get(p)
        if m is None:
            m = mask_of(self.iter_factors(p))
            self._factors_cache[p] = m
        return m

    # -- validation -----------------------------------------------------

    def validate(self):
        """Check commutativity, associativity and idempotence, exactly.
        Violations are data, not exceptions.

        A set system with no collapsed top, or a cube family, is a
        semilattice by construction and is not scanned.  Its builder
        rejects a family that is not union-closed, unless it closes it, and
        a union of two cube members is a member or the top, the whole
        ground; distinct masks, or the rank bijection, make it idempotent.
        A listed collapsed-top family past ``FULL_VALIDATE_CAP`` elements
        whose ground has at most ``SUBSET_MAX_BITS`` points is checked by
        the union rule (``_union_rule``): a union of members that is no
        member lies under no member but the top.  With an absorbing top the
        product is associative exactly when the rule holds.  Were a|b no
        member yet under a member m other than the top, (ab)m would be the
        top but a(bm) = m.  Conversely take a, b, c other than the top
        (which absorbs): if a|b|c is a member other than the top, a|b and
        b|c lie under it, so they are members and both bracketings give
        a|b|c; otherwise both give the top.  A union of three or more
        members that breaks the rule has a first partial union that is no
        member, a union of two that breaks it, so the masks that are the
        union of the members under them are the ones to test.  Any other
        host is checked on its dense table (``product_table_np``, which
        raises SizeOverflowError past ``TABLE_HARD_CAP``): idempotence on
        every element and commutativity on every pair of a table (set-system
        products are symmetric).  A commutative, idempotent table is
        associative exactly when ``meet_identity_failure`` finds nothing.
        Up to ``FULL_VALIDATE_CAP`` elements, when either fails, each triple
        x <= y <= z with (xy)z != x(yz) or (xz)y != x(zy) is a witness: on
        a commutative product, every triple that breaks associativity.
        Beyond it the identity's first failure (t, x, y) gives one sorted
        witness, the first of three triples: if tx = t, then (tx)y = ty !=
        t(xy); else t(xy) = t, so (tx)y != t(xy), or x(xy) != xy = (xx)y,
        or (t(xy))x = tx != t = t((xy)x).  Past the cap a table that fails
        idempotence or commutativity is not checked for associativity, and
        the report says so.  A collapsed top that passes these checks must
        absorb: each member x whose union with it is another member p is a
        ``NotAbsorbing`` violation (x, top, p).  A top whose set is the whole
        ground absorbs and is not scanned.
        """
        n, top = self.n, self.top_id
        rep = ValidationReport(checked_triples=math.comb(n + 2, 3))
        if self.kind == "set_system" and (top is None or self._trunc):
            return rep
        full = n <= FULL_VALIDATE_CAP
        if not full and self.kind == "set_system" and \
                len(self.ground) <= SUBSET_MAX_BITS:
            rep.violations += _union_rule(self)
            rep.notes.append("associativity by the union rule")
        else:
            T, ids = self.product_table_np(), np.arange(n)
            rep.violations += [Violation("NotIdempotent", (x,)) for x in
                               np.flatnonzero(T.diagonal() != ids).tolist()]
            if self.kind == "table":
                rep.violations += [
                    Violation("NotCommutative", pair) for pair in pairs_where(
                        n, n, lambda r0, r1: T[r0:r1, r0:] != T[r0:, r0:r1].T,
                        upper=True)]
            fail = rep.violations or meet_identity_failure(T)
            if fail and full:
                def nonassociative(r0, r1):  # row x, column y*n + z
                    x = ids[r0:r1, None, None]
                    bad = T[T[r0:r1]] != T[x, T]
                    bad |= bad.swapaxes(1, 2)
                    bad &= (x <= ids[:, None]) & (ids[:, None] <= ids)
                    return bad.reshape(r1 - r0, n * n)

                rep.violations += [
                    Violation("NotAssociative", (x, *divmod(yz, n)))
                    for x, yz in pairs_where(n, n * n, nonassociative)]
            elif rep.violations:
                rep.checked_triples, rep.exhaustive = 0, False
                rep.notes.append("associativity not checked")
            elif fail:
                (t, x, y), p = fail, T.item
                rep.violations.append(Violation("NotAssociative", tuple(sorted(
                    next(w for w in ((t, x, y), (x, x, y), (t, p(x, y), x))
                         if p(p(*w[:2]), w[2]) != p(w[0], p(*w[1:])))))))
        if not rep.violations and top is not None and \
                self.member_mask(top) != (1 << len(self.ground)) - 1:
            p = self.ids_of(self.member_masks_np() | self.member_mask(top))
            bad = np.flatnonzero((p >= 0) & (p != top))
            rep.violations += [Violation("NotAbsorbing", (x, top, q))
                               for x, q in zip(bad.tolist(), p[bad].tolist())]
        return rep

    def join_ids(self, a, b):
        """``product`` of the members with mask arrays ``a`` and ``b``, which
        broadcast; NotClosedError names the first failing pair in row-major
        order, as ``product`` would."""
        ids = self.ids_of(a | b)
        miss = ids < 0
        if self.top_id is not None:
            ids[miss] = self.top_id
        elif miss.any():
            x, y = np.broadcast_arrays(self.ids_of(a), self.ids_of(b))
            raise NotClosedError(f"union of elements {x[miss][0]} and "
                                 f"{y[miss][0]} is not a member")
        return ids

    # -- tables for vectorized scans ------------------------------------

    def member_masks_np(self):
        """``masks_of`` every id."""
        return self.masks_of(np.arange(self.n))

    def product_rows(self):
        """``rows(r0, r1, c0=0)``: the products of ids r0..r1-1 with the ids
        from c0 on, an array of r1 - r0 rows: a slice of a table, or one
        ``join_ids`` of the block's member masks against those from c0 on,
        read once here.  A whole-host scan calls it per ``row_blocks``
        block, the triangle walk of ``upper_blocks`` with c0 = r0."""
        if self.kind == "table":
            return lambda r0, r1, c0=0: self.table[r0:r1, c0:]
        masks = self.member_masks_np()
        return lambda r0, r1, c0=0: self.join_ids(masks[r0:r1, None],
                                                  masks[c0:])

    def product_table_np(self):
        """Dense n-by-n int32 product table: a table host's own read-only
        array, or a set system's ``product_rows`` stacked into a new array on
        each call (small n only)."""
        if self.kind == "table":
            return self.table
        n = _table_size(self.n)
        rows, t = self.product_rows(), np.empty((n, n), dtype=np.int32)
        for r0, r1 in row_blocks(n, n):
            t[r0:r1] = rows(r0, r1)
        return t

    # -- serialization ---------------------------------------------------

    def to_json(self):
        if self.kind == "table":
            obj = {"kind": "table", "n": self.n,
                   "product": self.table.tolist()}
        else:
            obj = {
                "kind": "set_system",
                "ground": [str(g) for g in self.ground],
                "elements": [sorted(bits(self.member_mask(i)))
                             for i in range(self.n)],
            }
            if self.top_id is not None:
                obj["collapsed_top"] = self.top_id
        if self.labels:
            obj["labels"] = list(self.labels)
        return obj

    @classmethod
    def from_json(cls, obj, close=False):
        if not isinstance(obj, dict):
            raise ValueError("instance must be a JSON object")
        kind = obj.get("kind")
        labels = obj.get("labels")
        if kind not in ("table", "set_system"):
            raise ValueError(f"unknown instance kind: {kind!r}")
        required = ("product",) if kind == "table" else ("ground", "elements")
        for key in required:
            if key not in obj:
                raise ValueError(f"{kind} instance is missing {key!r}")
        if kind == "table":
            return cls.from_table(obj["product"], labels=labels)
        ground, elements = obj["ground"], obj["elements"]
        if not isinstance(ground, list) or not isinstance(elements, list):
            raise ValueError("set_system instance needs lists 'ground' and "
                             "'elements'")
        if "collapsed_top" in obj:
            masks, labels = _canonical_members(len(ground), elements, labels)
            top = obj["collapsed_top"]
            if type(top) is not int or not 0 <= top < len(masks):
                raise ValueError(f"collapsed_top {top!r} is not an element "
                                 f"id in 0..{len(masks) - 1}")
            return cls("set_system", len(masks), ground=ground, masks=masks,
                       labels=labels, top_id=top,
                       trunc=_truncation_shape(len(ground), masks, top))
        return cls.from_sets(ground, elements, labels=labels, close=close)

    def __repr__(self):
        return f"Semilattice(kind={self.kind!r}, n={self.n})"


def _subset_sweep(f, op, into=1):
    """Over the first axis of ``f``, of length 2**k and indexed as
    ``Semilattice.subset_ids`` indexes subsets, in place, one point a pass:
    each subset with the point takes ``op`` of itself and the subset without
    it, or with ``into=0`` the other way round.  ``np.add`` gives the subset
    sums (superset sums with ``into=0``), ``np.subtract`` the Moebius
    transforms, and ``np.bitwise_or`` or ``np.minimum`` fold the same way."""
    k = len(f).bit_length() - 1
    for j in range(k):
        half = f.reshape(-1, 2, f.size >> k << j)
        op(half[:, into], half[:, 1 - into], out=half[:, into])
    return f


def _under_a_member(ids, top):
    """Over the ids, or other keys, of every subset of a point set (-1 for a
    non-member), indexed as ``Semilattice.subset_ids`` indexes them: whether
    each subset lies under a member other than the one keyed ``top`` (None:
    under any member), one superset-OR ``_subset_sweep``."""
    return _subset_sweep((ids >= 0) & (ids != top), np.bitwise_or, into=0)


def _union_rule(S):
    """``validate``'s exact associativity check of a set system on at most
    ``SUBSET_MAX_BITS`` points, in mask space: its violations, none or one.
    A mask u != 0 is bad when it is no member, lies under a member other
    than the top (``_under_a_member``) and is the union of the members under
    it (a subset-OR sweep of the member masks).  For the least bad u, the
    members under it, OR-ed in id order, give members only until the step
    a|b = u; with m the least member over u other than the top, (a, b, m) is
    a ``NotAssociative`` witness unless the top lies under m, which the
    ``NotAbsorbing`` scan then reports."""
    masks = np.arange(1 << len(S.ground))
    ids = S.ids_of(masks)
    joins = _subset_sweep(np.where(ids >= 0, masks, 0), np.bitwise_or)
    bad = _under_a_member(ids, S.top_id) & (ids < 0) & (joins == masks)
    bad[0] = False
    if not bad.any():
        return []
    u = int(bad.argmax())
    under = masks[(masks & ~u == 0) & (ids >= 0)]
    under = under[np.argsort(ids[under])]
    walk = np.bitwise_or.accumulate(under)
    i = int((walk == u).argmax())
    a, b = ids[[walk[i - 1], under[i]]].tolist()
    m = int(ids[(masks & u == u) & (ids >= 0) & (ids != S.top_id)].min())
    p = S.product
    if p(p(a, b), m) == p(a, p(b, m)):
        return []
    return [Violation("NotAssociative", (a, b, m))]


def _subset_masks(G):
    """The masks of the subsets of the point set G, rising, bit j of an index
    for the j-th point of G; past ``SUBSET_MAX_BITS`` points it raises
    before it allocates them."""
    k = popcount(G)
    if k > SUBSET_MAX_BITS:
        raise BudgetExceeded(f"closure spans {k} points; the subset "
                             f"closure takes at most {SUBSET_MAX_BITS}")
    subs = np.zeros(1 << k, dtype=object if G >> 63 else np.int64)
    for j, p in enumerate(bits(G)):
        subs[1 << j:2 << j] = subs[:1 << j] | 1 << p
    return subs


def _fits(k, n):
    """The density rule: 2^k subsets are at most 4n."""
    return 1 << k <= 4 * n


def _table_size(n):
    """``n``, or SizeOverflowError when an n-by-n table is above the cap."""
    if n > TABLE_HARD_CAP:
        raise SizeOverflowError(f"a product table on {n} elements is above "
                                f"the cap of {TABLE_HARD_CAP}")
    return n


def row_blocks(rows, cols):
    """The one row-block loop of a whole-host scan: ``(r0, r1)`` for each
    block r0..r1-1 of ``rows``, about ``NP_BLOCK_ELEMS`` entries over
    ``cols`` columns."""
    block = max(1, NP_BLOCK_ELEMS // max(cols, 1))
    for r0 in range(0, rows, block):
        yield r0, min(r0 + block, rows)


def pairs_where(rows, cols, bad, upper=False):
    """Yield the pairs ``(x, y)``, x < rows and y < cols, where ``bad(r0,
    r1)`` (a boolean array over rows r0..r1-1 and every column, one
    ``row_blocks`` block) is true, as plain ints in row-major order.  With
    ``upper`` (rows == cols) only the pairs x <= y, by ``upper_blocks``,
    whose ``bad`` starts at column r0."""
    blocks = upper_blocks(rows, bad) if upper else (
        (r0, bad(r0, r1)) for r0, r1 in row_blocks(rows, cols))
    for r0, b in blocks:
        xs, ys = np.nonzero(b)
        yield from zip((xs + r0).tolist(), (ys + upper * r0).tolist())


def upper_blocks(n, bad):
    """The one triangle walk of a symmetric whole-host scan: ``(r0, b)`` for
    each ``row_blocks(n, n)`` block r0..r1-1, with ``b = bad(r0, r1)`` a
    boolean array over its rows and the columns r0..n-1 only, whose lower
    corner (column below row) is cleared here: b holds pairs x <= y."""
    for r0, r1 in row_blocks(n, n):
        b = bad(r0, r1)
        b[:, :r1 - r0] &= _upper_corner(r1 - r0)
        yield r0, b


def meet_identity_failure(T):
    """The one exhaustive semilattice check: the first (t, x, y), for the
    pairs x <= y in ``upper_blocks`` order and then t rising, where the
    dense table ``T`` breaks t(xy) = t exactly when tx = t and ty = t, or
    None (column x of [tx = t] is packed over t into 64-bit words).  That
    is the filter identity of every up-set {z : xz = x}.  On a commutative,
    idempotent table it makes tx = t a partial order with xy the meet, so
    it finds nothing exactly when the table is associative."""
    n = len(T)
    cols = np.zeros((n, -(-n // 64)), np.uint64)    # column x of [tx = t]
    cols.view(np.uint8)[:, :-(-n // 8)] = np.packbits(
        T == np.arange(n)[:, None], axis=0).T        # packed over t
    w = cols.T.copy()   # a plane per word: a pair's words reduce on axis 0
    for r0, b in upper_blocks(n, lambda r0, r1: (
            w[:, T[r0:r1, r0:]] != w[:, r0:r1, None]
            & w[:, None, r0:]).any(0)):
        if b.any():
            x, y = (int(i) + r0 for i in np.argwhere(b)[0])
            tx, ty, txy = (T[:, [x, y, T[x, y]]] == np.arange(n)[:, None]).T
            return int(np.flatnonzero(txy != tx & ty)[0]), x, y
    return None


@lru_cache(maxsize=None)
def _upper_corner(h):
    """The h-by-h boolean array of column >= row, read-only; a block has at
    most 128 rows at the default ``NP_BLOCK_ELEMS``, so the cache stays
    small."""
    corner = ~np.tri(h, k=-1, dtype=bool)
    corner.flags.writeable = False
    return corner


def _randrange_bulk(rng, n, count):
    """``[rng.randrange(n) for _ in range(count)]`` as an int64 array, for
    0 < n < 2**32, drawn in bulk.  ``randrange(n)`` keeps the top
    ``n.bit_length()`` bits of one 32-bit Mersenne Twister output and draws
    again while the value is >= n; ``getrandbits(32 * m)`` is the next m
    such outputs in turn, little-endian, so filtering them the same way,
    one chunk of at most ``_DRAW_CHUNK`` outputs after another, gives the
    same values.  Whole chunks are drawn, the last sized for what is still
    needed and some 64 outputs to spare, so ``rng`` ends up past the
    ``count``-th accepted output by the rest of that chunk, not where
    ``count`` calls would leave it."""
    k = n.bit_length()
    out = np.empty(count, np.int64)
    got = 0
    while got < count:
        # the expected outputs, and some to spare
        m = min(_DRAW_CHUNK, ((count - got) << k) // n + 64)
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"),
                              dtype="<u4") >> (32 - k)
        kept = words.compress(words < n)[:count - got]
        out[got:got + len(kept)] = kept
        got += len(kept)
    return out


def _listed_lookups(masks):
    """``(masks_of, ids_of)`` of listed member masks: an array of them, and
    for ``ids_of`` a table indexed by mask when the masks' k bits pass the
    density rule, else a binary search among them sorted."""
    k = max(masks, default=0).bit_length()
    arr = np.array(masks, dtype=object if k > 63 else np.int64)
    if _fits(k, len(masks)):
        table = np.full((1 << k) + 1, -1, dtype=np.int64)
        table[arr] = np.arange(len(masks))
        return partial(np.take, arr), partial(_dense_ids, table)
    order = np.argsort(arr)
    return partial(np.take, arr), partial(_sorted_ids, order, arr[order])


def _dense_ids(table, ms):
    """``ids_of`` through a table indexed by mask; every mask at or past its
    last entry, -1, has a point no member has."""
    return table[np.minimum(ms, len(table) - 1).astype(np.int64, copy=False)]


def _sorted_ids(order, ordered, ms):
    at = np.minimum(np.searchsorted(ordered, ms), len(order) - 1)
    return np.where(ordered[at] == ms, order[at], -1)


def _no_member_masks(_):
    raise TypeError("member masks require a set system")


def _checked_labels(labels, n):
    """``labels`` if it is None or a list of ``n`` strings, else ValueError."""
    if labels is None or (isinstance(labels, list) and len(labels) == n
                          and all(isinstance(s, str) for s in labels)):
        return labels
    raise ValueError(f"labels must be a list of {n} strings, one per element")


def _canonical_members(k, member_sets, labels):
    """Masks of member sets given as lists of indices in ``0..k-1``, sorted
    into canonical order, with each label kept beside its member set."""
    masks = []
    for s in member_sets:
        if not isinstance(s, (list, tuple)):
            raise ValueError(f"element {s!r} is not a list of ground indices")
        m = 0
        for i in s:
            if type(i) is not int or not 0 <= i < k:
                raise ValueError(f"element index {i!r} is not a ground "
                                 f"index in 0..{k - 1}")
            m |= 1 << i
        masks.append(m)
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate element set")
    labels = _checked_labels(labels, len(masks))
    keys = list(map(_canonical_key(k), masks))
    order = sorted(range(len(masks)), key=keys.__getitem__)
    return [masks[i] for i in order], labels and [labels[i] for i in order]


def _canonical_key(width):
    """The sort key of canonical order (point count, then the rising tuple
    of points) on masks of at most ``width`` bits, as one int: the count
    above ``width`` bits less the mask's bit reversal, since the mask
    holding the lowest point where two of one count differ comes first."""
    return lambda mask: ((mask.bit_count() << width)
                         - int(f"{mask:0{width}b}"[::-1], 2))


def _join_closure(gens, join):
    """The set generated by ``gens`` under the associative, commutative and
    idempotent ``join``.  A generator adds itself and its join with each
    element generated so far, and nothing else; past 2^22 elements it
    raises."""
    closed = set()
    for g in gens:
        closed |= {g, *(join(g, c) for c in closed)}
        if len(closed) > 2**22:
            raise SizeOverflowError("union closure blew past the size cap")
    return closed


# -- rank storage for Boolean-cube families -----------------------------

def _truncation_shape(k, masks, top):
    """``(k, lo, c)`` when canonical ``masks`` are every subset of a k-point
    universe with lo to c points and then the full universe as the top;
    else None."""
    rest = masks[:top] + masks[top + 1:]
    if masks[top] != (1 << k) - 1 or not rest:
        return None
    lo, c = popcount(rest[0]), popcount(rest[-1])
    return (k, lo, c) if len(rest) == _trunc_offsets(k, lo, c)[-1] else None


@lru_cache(maxsize=None)
def _trunc_offsets(k, lo, c):
    """Id of the first m-subset for m = lo..c, then the count of them all."""
    offs = [0]
    for m in range(lo, c + 1):
        offs.append(offs[-1] + math.comb(k, m))
    return tuple(offs)


@lru_cache(maxsize=None)
def _binomials(k, c):
    """``_binomials(k, c)[a][b] == comb(a, b)`` for a <= k and b < c."""
    return tuple(tuple(math.comb(a, b) for b in range(c))
                 for a in range(k + 1))


def _trunc_rank(k, lo, c, top_id, mask):
    m = popcount(mask)
    if mask >> k or not lo <= m <= c:
        return top_id if mask == (1 << k) - 1 else None
    binom = _binomials(k, c)
    r = 0
    prev = -1
    # lexicographic rank of the sorted point tuple among m-subsets of [k]
    for i, p in enumerate(bits(mask)):
        for q in range(prev + 1, p):
            r += binom[k - q - 1][m - i - 1]
        prev = p
    return _trunc_offsets(k, lo, c)[m - lo] + r


def _trunc_unrank(k, lo, c, top_id, x):
    offs = _trunc_offsets(k, lo, c)
    if not 0 <= x < offs[-1] + (top_id is not None):
        raise IndexError(f"element id {x} is out of range")
    if x == top_id:
        return (1 << k) - 1
    binom = _binomials(k, c)
    m = lo
    while offs[m - lo + 1] <= x:
        m += 1
    r = x - offs[m - lo]
    mask = 0
    q = 0
    for i in range(m):
        while True:
            block = binom[k - q - 1][m - i - 1]
            if r < block:
                break
            r -= block
            q += 1
        mask |= 1 << q
        q += 1
    return mask


def _scalar_len(k):
    """Arrays shorter than this over k points rank one at a time: k numpy
    passes cost about 5k us, a scalar call 2 us (timeit, k = 6..62, 2 vCPUs)."""
    return 2 * k + 8


def _trunc_rank_np(k, lo, c, top_id, masks):
    """``_trunc_rank`` over an array, -1 for None.  The lexicographic rank of
    an m-subset is comb(k, m) - 1 less the sum, over its points p, of
    comb(k - 1 - p, its points from p up): one pass per point, downward."""
    masks = np.asarray(masks)
    if k >= 63 or masks.size < _scalar_len(k):     # past 62 points, Python ints
        ids = (_trunc_rank(k, lo, c, top_id, m) for m in masks.ravel().tolist())
        return np.array([-1 if x is None else x for x in ids],
                        dtype=np.int64).reshape(masks.shape)
    binom = np.array(_binomials(k, k + 2))
    last = np.array(_trunc_offsets(k, lo, c)[1:]) - 1   # per size m
    m, below = np.zeros((2, *masks.shape), dtype=np.int64)
    for p in range(k - 1, -1, -1):
        b = masks >> p & 1
        m += b
        below += b * binom[k - 1 - p][m]
    ok = (masks >> k == 0) & (m >= lo) & (m <= c)
    ids = np.where(ok, last[np.clip(m - lo, 0, c - lo)] - below, -1)
    if top_id is not None:
        ids[masks == (1 << k) - 1] = top_id
    return ids


def _trunc_unrank_np(k, lo, c, top_id, ids):
    """``_trunc_unrank`` over an array: one pass per point q, taken when the
    rest rank r is below the count of the subsets whose next point is q."""
    ids = np.asarray(ids, dtype=np.int64)
    if k >= 63 or ids.size < _scalar_len(k):    # past 62 points, Python ints
        return np.array([_trunc_unrank(k, lo, c, top_id, x) for x in
                         ids.ravel().tolist()], dtype=object if k >= 63
                        else np.int64).reshape(ids.shape)
    binom = np.array(_binomials(k, k + 2))     # its last column is 0
    offs = np.array(_trunc_offsets(k, lo, c))
    out = (ids < 0) | (ids >= offs[-1] + (top_id is not None))
    if out.any():                               # as the scalar form
        raise IndexError(f"element id {ids[out][0]} is out of range")
    level = np.searchsorted(offs, ids, side="right") - 1
    r = ids - offs[level]
    left = level + lo               # points still to place
    masks = np.zeros_like(ids)
    for q in range(k):
        block = binom[k - 1 - q][left - 1]      # 0 once none are left
        take = r < block
        r -= np.where(take, 0, block)
        left -= take
        masks |= take << q
    if top_id is not None:
        masks[ids == top_id] = (1 << k) - 1
    return masks


# -- instance generators -------------------------------------------------

def chain(m: int) -> Semilattice:
    """Totally ordered semilattice on m elements with product = min."""
    if m < 1:
        raise ValueError("chain needs at least one element")
    ids = np.arange(_table_size(m), dtype=np.int32)
    return Semilattice("table", m, table=np.minimum.outer(ids, ids))


def _cube(k, lo, c, top=False):
    """The subsets of a k-point universe with lo to c points in canonical
    order, then the full universe as a collapsed top when ``top``.  Up to
    ``IMPLICIT_THRESHOLD`` members (the top not counted) are listed as
    masks, with no closure scan; a larger cube uses rank storage.  Above
    ``CUBE_HARD_CAP`` members it raises before anything is built."""
    if any(s > CUBE_HARD_CAP for s in accumulate(  # stops early for any k
            math.comb(k, m) for m in range(lo, c + 1))):
        raise SizeOverflowError(f"a {k}-point cube with {lo} to {c} points "
                                f"is above the cap of {CUBE_HARD_CAP} members")
    n = _trunc_offsets(k, lo, c)[-1]
    masks = None
    if n <= IMPLICIT_THRESHOLD:
        points = [1 << i for i in range(k)]
        masks = [sum(s) for m in range(lo, c + 1)
                 for s in combinations(points, m)]
        if top:
            masks.append((1 << k) - 1)
    return Semilattice("set_system", n + 1 if top else n,
                       ground=[f"p{i}" for i in range(k)], masks=masks,
                       trunc=(k, lo, c), top_id=n if top else None)


def powerset(k: int) -> Semilattice:
    """All subsets of a k-point universe under union."""
    if k < 0 or k > 20:
        raise SizeOverflowError("powerset universe out of supported range")
    return _cube(k, 0, k)


def free_nonempty(k: int) -> Semilattice:
    """All nonempty subsets of a k-point universe under union (free on k)."""
    if k < 1 or k > 20:
        raise SizeOverflowError("free semilattice rank out of range")
    return _cube(k, 1, k)


def fin_truncation(k: int, c: int) -> Semilattice:
    """Subsets of a k-point universe of cardinality at most c.

    Unless the family is already union-closed (c >= k-1), the full universe
    is added as a top element and any union that escapes the cardinality
    bound collapses to it.
    """
    if k < 1 or c < 0:
        raise ValueError("bad truncation parameters")
    if c >= k - 1:
        return _cube(k, 0, k)  # with the full set added, the whole k-cube
    return _cube(k, 0, c, top=True)


def kary_tree(k: int, depth: int) -> Semilattice:
    """Complete k-ary rooted tree with product = youngest common ancestor."""
    if k < 1 or depth < 0:
        raise ValueError("bad tree parameters")
    n = width = 1
    for _ in range(depth):  # stops at the cap before k**depth grows large
        width *= k
        n = _table_size(n + width)
    # ids run level by level, so the children of v are k*v + 1 .. k*v + k;
    # x's row is its parent's with x's subtree, a range per level, set to x
    table = np.zeros((n, n), dtype=np.int32)
    for x in range(1, n):
        row = table[x]
        row[:] = table[(x - 1) // k]
        lo = hi = x
        while lo < n:
            row[lo:hi + 1] = x
            lo, hi = k * lo + 1, k * hi + k
    return Semilattice("table", n, table=table)


_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)\s*$")

GENERATORS = {
    "chain": (chain, 1),
    "powerset": (powerset, 1),
    "pstar": (free_nonempty, 1),
    "fin": (fin_truncation, 2),
    "tree": (kary_tree, 2),
}


def generate_instance(spec: str) -> Semilattice:
    """Build a named instance from a spec string like ``chain(5)`` or
    ``fin(6,3)``.  Known families: chain, powerset, pstar, fin, tree."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"cannot parse instance spec {spec!r}")
    name = m.group(1)
    args = [int(a) for a in m.group(2).split(",")]
    if name not in GENERATORS:
        raise ValueError(f"unknown instance family {name!r}")
    fn, arity = GENERATORS[name]
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} argument(s)")
    return fn(*args)


# -- order-preserving set-system embedding -------------------------------

@dataclass
class EmbeddingResult:
    semilattice: Semilattice
    mapping: list
    note: str


def sch_embed(S: Semilattice) -> EmbeddingResult:
    """Represent S faithfully as a union-closed set system over S itself.

    Each element maps to the complement of its down-set; intersections of
    down-sets turn into unions of their complements, so the image is
    union-closed.  The down-set of x is column x of ``rows == ids[:, None]``
    over S's ``product_rows``, which a second pass, the triangle walk of
    ``upper_blocks``, checks the map against.
    The complement convention is recorded in the result note.
    """
    n = S.n
    rows, ids = S.product_rows(), np.arange(n)
    below = np.empty((n, n), dtype=bool)
    for r0, r1 in row_blocks(n, n):
        below[r0:r1] = rows(r0, r1) == ids[r0:r1, None]
    above = ~below.T            # row x: the complement of x's down-set
    comp = [mask_of_indicator(c) for c in above]
    ground = [S.element_label(t) for t in range(n)]
    T = Semilattice.from_sets(ground, [np.flatnonzero(c).tolist()
                                       for c in above])
    mapping = [T.id_of_mask(m) for m in comp]
    image = T.masks_of(np.array(mapping, dtype=np.int64))     # comp, as masks
    if next(pairs_where(n, n, lambda r0, r1: image[r0:r1, None] | image[r0:]
                        != image[rows(r0, r1, r0)], upper=True), None):
        raise AssertionError("embedding failed to be a homomorphism")
    return EmbeddingResult(
        T, mapping,
        "elements are complements of down-sets (union-closed convention)")
