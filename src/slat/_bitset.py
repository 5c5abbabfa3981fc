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
