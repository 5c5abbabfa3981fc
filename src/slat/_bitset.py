"""Small helpers for integer bitmasks used as element subsets."""

from __future__ import annotations

from typing import Iterator

import numpy as np


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def indicator(mask: int, n: int):
    """``mask`` as a bool array over the ids 0..n-1."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def mask_of_indicator(flags) -> int:
    """The mask of a bool array over ids, the inverse of ``indicator``."""
    return int.from_bytes(np.packbits(flags, bitorder="little"), "little")


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def popcount(mask: int) -> int:
    return mask.bit_count()


def popcounts(masks):
    """Point counts, as int64, of an array of masks (of Python ints where
    masks reach 2**63)."""
    count = np.frompyfunc(int.bit_count, 1, 1) if masks.dtype == object \
        else np.bitwise_count
    return count(masks).astype(np.int64)
