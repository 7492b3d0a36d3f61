"""Bit sequences with rank/select and fixed-width packed integer arrays.

Backing storage is 64-bit words; the rank directory is one cumulative count per
word. ``payload_bits`` reports only the raw encoded bits, so space accounting
can separate content from the auxiliary directories.
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


class PackedArray:
    """Immutable array of unsigned integers stored at a fixed bit width."""

    __slots__ = ("_width", "_length", "_words")

    def __init__(self, width: int, values: Iterable[int]):
        if width < 1 or width > 64:
            raise ValueError("width must be in 1..64")
        values = list(values)
        limit = 1 << width
        # 64 values fill exactly ``width`` words: pack each run of 64 into one
        # Python int, so the whole array is one join and one frombuffer.
        blocks = []
        for start in range(0, len(values), 64):
            block = 0
            for shift, v in enumerate(values[start:start + 64]):
                if not 0 <= v < limit:
                    raise ValueError(f"value {v} does not fit in {width} bits")
                block |= v << (shift * width)
            blocks.append(block.to_bytes(8 * width, "little"))
        n_words = width * len(values) // 64 + 2
        raw = b"".join(blocks)[:8 * n_words].ljust(8 * n_words, b"\0")
        self._width = width
        self._length = len(values)
        self._words = np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=False)

    @classmethod
    def from_words(cls, width: int, length: int, raw: bytes) -> "PackedArray":
        pa = cls.__new__(cls)
        pa._width = width
        pa._length = length
        stored = np.frombuffer(raw, dtype="<u8")
        words = np.zeros(max(width * length // 64 + 2, stored.size), dtype=np.uint64)
        words[:stored.size] = stored
        pa._words = words
        return pa

    @property
    def width(self) -> int:
        return self._width

    def __len__(self) -> int:
        return self._length

    def get(self, i: int) -> int:
        if not 0 <= i < self._length:
            raise IndexError(i)
        bitpos = i * self._width
        w, off = divmod(bitpos, 64)
        value = self._words.item(w) >> off  # item: a Python int, no numpy scalar
        if off + self._width > 64:
            value |= self._words.item(w + 1) << (64 - off)
        return value & ((1 << self._width) - 1)

    def to_list(self) -> list[int]:
        """All values, decoded 64 at a time: 64 values fill exactly ``width`` words."""
        width, n = self._width, self._length
        mask = (1 << width) - 1
        raw = self._words.astype("<u8").tobytes()
        out: list[int] = []
        for start in range(0, n, 64):
            block = int.from_bytes(raw[start * width // 8:(start + 64) * width // 8], "little")
            out += [(block >> k) & mask for k in range(0, width * min(64, n - start), width)]
        return out

    @property
    def payload_bits(self) -> int:
        return self._width * self._length

    def to_bytes(self) -> bytes:
        used_words = (self._width * self._length + 63) // 64
        return self._words[:used_words].astype("<u8").tobytes()


def width_for(max_value: int) -> int:
    """Bit width needed to store values in 0..max_value (at least 1)."""
    return max(1, int(max_value).bit_length())
