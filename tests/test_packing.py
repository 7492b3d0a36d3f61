import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colexgraph.graph import Alphabet
from colexgraph.index import _Arrays, _pack, _unpack, _write, width_for


class TestPackUnpack:
    """The packed arrays of a ``.clxi`` file, as ``index._pack`` writes them
    and ``index._unpack`` reads them."""

    @given(st.integers(1, 17), st.lists(st.integers(0, 2**17 - 1), max_size=120))
    @settings(max_examples=80)
    def test_roundtrip_at_fitting_width(self, extra, values):
        width = max([width_for(max(values))] if values else [1]) + extra % 3
        width = min(width, 64)
        raw = _pack(width, values)
        assert len(raw) == (width * len(values) + 63) // 64 * 8
        assert _unpack(width, len(values), raw) == values

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=80)
    def test_unpack_matches_one_value_at_a_time(self, width, data):
        # more than 64 values, so decoding runs over several blocks
        values = data.draw(st.lists(st.integers(0, 2**width - 1), max_size=200))
        raw = _pack(width, values)
        bits, mask = int.from_bytes(raw, "little"), (1 << width) - 1
        one_at_a_time = [(bits >> (i * width)) & mask for i in range(len(values))]
        assert _unpack(width, len(values), raw) == one_at_a_time == values

    def test_rejects_oversized_values(self):
        """The writer packs each array at the width its largest stored value
        needs, so ``_pack`` checks no fit: the writer refuses a value wider
        than the format's 64 bits and, through ``_refuse_stored``, a negative
        one, in any array and past the first 64 values."""
        def write(class_map):
            arrays = _Arrays([1], class_map, [], [], [], [], [], [])
            return _write(Alphabet(("a",)), len(class_map), 0, 1, arrays, None)
        assert _unpack(64, 1, write([2**64 - 1])[0][-12:-4]) == [2**64 - 1]
        with pytest.raises(ValueError, match=f"^value {2**64} does not fit in 64 bits$"):
            write([0] * 70 + [2**64])
        with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
            write([0] * 70 + [-1])

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=60)
    def test_words_match_a_value_loop(self, width, data):
        values = data.draw(st.lists(st.integers(0, 2**width - 1), max_size=200))
        words = np.zeros(width * len(values) // 64 + 2, dtype=np.uint64)
        for i, v in enumerate(values):
            w, off = divmod(i * width, 64)
            words[w] |= np.uint64((v << off) & 0xFFFFFFFFFFFFFFFF)
            if off + width > 64:
                words[w + 1] |= np.uint64(v >> (64 - off))
        used = (width * len(values) + 63) // 64
        assert _pack(width, values) == words[:used].astype("<u8").tobytes()

    def test_word_boundary_crossing(self):
        values = [(1 << 13) - 1] * 40  # 13-bit values straddle 64-bit words
        assert _unpack(13, 40, _pack(13, values)) == values


def test_width_for():
    assert width_for(0) == 1
    assert width_for(1) == 1
    assert width_for(2) == 2
    assert width_for(255) == 8
    assert width_for(256) == 9
