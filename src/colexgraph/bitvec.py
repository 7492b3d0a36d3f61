"""Bit sequences with rank/select, and the bit width of a value range.

Backing storage is 64-bit words; the rank directory is one cumulative count per
word. ``payload_bits`` reports only the raw encoded bits, so space accounting
can separate content from the auxiliary directories. The fixed-width integer
arrays of an index file are packed by its reader and writer, in ``index``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable

import numpy as np


class BitVector:
    """Immutable bit sequence supporting rank1/select1."""

    __slots__ = ("_length", "_words", "_ranks", "_ones")

    def __init__(self, bits: Iterable[int]):
        bits = list(bits)
        n = len(bits)
        words = []
        for start in range(0, n + 1, 64):
            word = 0
            for shift, b in enumerate(bits[start:start + 64]):
                if b:
                    word |= 1 << shift
            words.append(word)
        ranks = [0, *accumulate(w.bit_count() for w in words)]
        self._length = n
        self._words = np.array(words, dtype=np.uint64)
        self._ranks = np.array(ranks, dtype=np.int64)
        self._ones = ranks[-1]

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._length:
            raise IndexError(i)
        return (int(self._words[i >> 6]) >> (i & 63)) & 1

    @property
    def ones(self) -> int:
        return self._ones

    @property
    def payload_bits(self) -> int:
        return self._length

    @property
    def aux_bits(self) -> int:
        return int(self._ranks.size) * 64

    def rank1(self, i: int) -> int:
        """Number of set bits strictly before position i."""
        if not 0 <= i <= self._length:
            raise IndexError(i)
        w = i >> 6
        partial = self._words.item(w) & ((1 << (i & 63)) - 1)
        return self._ranks.item(w) + partial.bit_count()

    def select1(self, k: int) -> int:
        """Position of the k-th set bit (0-based)."""
        if not 0 <= k < self._ones:
            raise IndexError(k)
        lo, hi = 0, len(self._words)
        while lo < hi:
            mid = (lo + hi) // 2
            if int(self._ranks[mid + 1]) <= k:
                lo = mid + 1
            else:
                hi = mid
        word = int(self._words[lo])
        need = k - int(self._ranks[lo])
        pos = lo << 6
        while True:
            if word & 1:
                if need == 0:
                    return pos
                need -= 1
            word >>= 1
            pos += 1

    def to_list(self) -> list[int]:
        return [self[i] for i in range(self._length)]


def width_for(max_value: int) -> int:
    """Bit width needed to store values in 0..max_value (at least 1)."""
    return max(1, int(max_value).bit_length())
