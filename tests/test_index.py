import random
import struct
import time

import pytest
from hypothesis import given, settings

from colexgraph import (ConvexSet, Index, LabeledGraph, Nfa, PatternError, QueryStats,
                        build_index, build_nfa_index, run_pipeline)
from colexgraph.graph import Alphabet
from colexgraph.bitvec import PackedArray
from colexgraph.index import _CompactStore, ceil_log2, parse_pattern
from colexgraph.oracle import (brute_match, enumerate_strings, is_convex, random_trim_nfa,
                               simulate_nfa)
from conftest import double_hub_graph, funnel_nfa, loop_branch_nfa, small_graphs
from helpers import nfa_pipeline, quotient_pipeline, reseal


def build_from(g):
    result = run_pipeline(g)
    return result.index(), result.quotient, result.chains


class TestBuildLayout:
    def test_edgeless_graph(self):
        g = LabeledGraph.build(3, [], ["a"])
        ix, _, _ = build_from(g)
        assert ix.e_quotient == 0
        ok, full = ix.match_pattern([])
        assert ok and ix.map_back(full) == {0, 1, 2}
        matched, end = ix.match_pattern(["a"])
        assert not matched and ix.map_back(end) == frozenset()

    def test_double_hub_single_group(self):
        ix, _, _ = build_from(double_hub_graph(3))
        assert ix.q == 1 and ix.n_classes == 2 and ix.e_quotient == 1
        assert ix._store.group_items() == [((0, 0, 0), ((1,), (0,)))]

    def test_loop_branch_groups(self):
        g = loop_branch_nfa().graph
        ix, _, _ = build_from(g)
        keys = [key for key, _ in ix._store.group_items()]
        assert keys == [(0, 0, 0), (0, 1, 0)]  # self-loop 'a' and edge 'b', one chain

    def test_boundary_bits_count_edges_and_nodes(self):
        g = loop_branch_nfa().graph
        ix, _, _ = build_from(g)
        total_bits = sum(len(b) for b in ix._boundaries)
        total_ones = sum(b.ones for b in ix._boundaries)
        assert total_ones == ix.n_classes
        assert total_bits - total_ones == ix.e_quotient

    def test_partition_must_match_order(self):
        qg, cp = quotient_pipeline(double_hub_graph(2))
        # hub class 1 sits below sink class 0, so the chain (0, 1) is backwards
        backwards = type(cp)(1, (0, 0), (0, 1), ((0, 1),))
        with pytest.raises(ValueError):
            build_index(qg, backwards)
        missing = type(cp)(1, (0, 0), (0, 0), ((0,),))
        with pytest.raises(ValueError):
            build_index(qg, missing)

    def test_monotone_group_check_fires_on_bad_input(self):
        for edges, error in (([(0, 1), (1, 0)], "source monotonicity"),
                             ([(1, 0), (0, 0)], "not sorted")):
            with pytest.raises(ValueError, match=error):
                Index(alphabet=Alphabet(("a",)), chains=((0, 1),), members=((0,), (1,)),
                      n_original=2, e_original=2,
                      store=_CompactStore.pack(1, [2], {(0, 0, 0): edges}),
                      finals=None, initial_class=None, marked_classes=frozenset())


class TestFollow:
    def test_double_hub_full_follow_a(self):
        ix, qg, cp = build_from(double_hub_graph(3))
        out = ix.follow(ix.full_set(), "a")
        assert ix.classes_in(out) == [qg.partition.class_of[0]]

    def test_empty_stays_empty(self):
        ix, _, _ = build_from(double_hub_graph(3))
        assert ix.follow(ix.empty_set(), "a").is_empty()

    def test_loop_branch_merged_class_to_sink(self):
        g = loop_branch_nfa().graph
        ix, qg, _ = build_from(g)
        start = ix.set_for_classes([qg.partition.class_of[0]])
        out = ix.follow(start, "b")
        assert ix.map_back(out) == {2}

    def test_rejects_markers_and_unknown(self):
        ix, _, _ = build_from(double_hub_graph(2))
        with pytest.raises(PatternError):
            ix.follow(ix.full_set(), "@")
        with pytest.raises(PatternError):
            ix.follow(ix.full_set(), "z")

    def test_rejects_foreign_convex_set(self):
        ix, _, _ = build_from(double_hub_graph(2))
        with pytest.raises(ValueError):
            ix.follow(ConvexSet(((0, 1), (0, 1))), "a")

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_image_is_convex(self, g):
        ix, qg, _ = build_from(g)
        cur = ix.full_set()
        for sym in (g.alphabet.symbols * 3)[:6]:
            cur = ix.follow(cur, sym)
            assert is_convex(qg.order, set(ix.classes_in(cur)))


class TestMatch:
    def test_empty_pattern_full_match(self):
        ix, _, _ = build_from(double_hub_graph(2))
        ok, end = ix.match_pattern([])
        assert ok and ix.map_back(end) == {0, 1, 2, 3}

    def test_loop_branch_aab(self):
        g = loop_branch_nfa().graph
        ix, _, _ = build_from(g)
        assert ix.match_pattern(["a", "a", "b"])[0] is True
        assert brute_match(g, ("a", "a", "b"))[0] is True

    def test_double_hub_no_aa_path(self):
        g = double_hub_graph(3)
        ix, _, _ = build_from(g)
        assert ix.match_pattern(["a", "a"])[0] is False
        assert brute_match(g, ("a", "a"))[0] is False

    def test_match_from_full_equals_match_pattern(self):
        g = loop_branch_nfa().graph
        ix, _, _ = build_from(g)
        for p in ([], ["a"], ["a", "b"], ["b", "a"]):
            assert ix.match_from(ix.full_set(), p) == ix.match_pattern(p)

    def test_match_from_empty_start(self):
        ix, _, _ = build_from(double_hub_graph(2))
        ok, end = ix.match_from(ix.empty_set(), ["a"])
        assert (ok, end.is_empty()) == (False, True)
        ok, end = ix.match_from(ix.empty_set(), [])
        assert (ok, end.is_empty()) == (False, True)

    def test_match_from_initial_class(self):
        nfa = loop_branch_nfa()
        qn, cp = nfa_pipeline(nfa)
        ix = build_nfa_index(qn, cp)
        start = ix.set_for_classes([qn.initial])
        ok, end = ix.match_from(start, ["a", "b"])
        assert ok and ix.map_back(end) == {2}

    def test_match_from_validates_convexity(self):
        import numpy as np
        # Order 0 < 2 < 1 with 2 parked on its own chain: selecting {0, 1}
        # skips the class between them.
        order = np.eye(3, dtype=bool)
        order[0, 1] = order[0, 2] = order[2, 1] = True
        ix = Index(alphabet=Alphabet(("a",)), chains=((0, 1), (2,)),
                   members=((0,), (1,), (2,)), n_original=3, e_original=0,
                   store=_CompactStore.pack(1, [2, 1], {}), finals=None, initial_class=None,
                   marked_classes=frozenset(), order_bits=order)
        gap = ConvexSet(((0, 2), (0, 0)))
        with pytest.raises(ValueError):
            ix.match_from(gap, [], validate=True)
        solid = ConvexSet(((0, 2), (0, 1)))
        ok, _ = ix.match_from(solid, [], validate=True)
        assert ok

    def test_validate_refuses_a_loaded_index(self):
        # A loaded index has no class order to check convexity against.
        ix, _, _ = build_from(loop_branch_nfa().graph)
        solid = ix.full_set()
        assert ix.match_from(solid, ["a"], validate=True) == ix.match_from(solid, ["a"])
        loaded = Index.from_bytes(ix.to_bytes())
        with pytest.raises(ValueError, match="loaded index"):
            loaded.match_from(solid, ["a"], validate=True)
        assert loaded.match_from(solid, ["a"]) == ix.match_from(solid, ["a"])

    def test_unknown_symbol_rejected_even_when_empty(self):
        ix, _, _ = build_from(double_hub_graph(2))
        with pytest.raises(PatternError):
            ix.match_from(ix.empty_set(), ["z"])


class TestAccept:
    def test_loop_branch_ab(self):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_nfa_index(qn, cp)
        assert ix.accept(["a", "b"]) is True
        assert ix.accept(["b"]) is False

    def test_epsilon_iff_initial_final(self):
        g = LabeledGraph.build(2, [(0, 1, "a"), (1, 1, "a")], ["a"])
        qn, cp = nfa_pipeline(Nfa(g, 0, frozenset({0, 1})))
        ix = build_nfa_index(qn, cp)
        assert ix.accept([]) is True
        qn2, cp2 = nfa_pipeline(Nfa(g, 0, frozenset({1})))
        ix2 = build_nfa_index(qn2, cp2)
        assert ix2.accept([]) is False

    def test_funnel_lengths(self):
        qn, cp = nfa_pipeline(funnel_nfa(3))
        ix = build_nfa_index(qn, cp)
        assert ix.accept(["a", "a"]) is True
        assert ix.accept(["a"]) is False

    def test_requires_automaton_data(self):
        ix, _, _ = build_from(loop_branch_nfa().graph)
        with pytest.raises(ValueError):
            ix.accept(["a"])

    def test_requires_marked_initial(self):
        nfa = loop_branch_nfa()
        g = nfa.graph
        qg, cp = quotient_pipeline(g)  # no marker: classes {0,1},{2}
        part = qg.partition
        ix = build_index(qg, cp, finals=frozenset(part.class_of[f] for f in nfa.finals),
                         initial=part.class_of[nfa.initial])
        with pytest.raises(ValueError):
            ix.accept(["a"])

    def test_agrees_with_simulation(self, rng):
        from colexgraph.oracle import enumerate_strings, random_trim_nfa
        for _ in range(20):
            nfa = random_trim_nfa(rng, 6, 2, 0.25)
            qn, cp = nfa_pipeline(nfa)
            ix = build_nfa_index(qn, cp)
            for s in enumerate_strings(nfa.graph.alphabet.symbols, 4):
                assert ix.accept(s) == simulate_nfa(nfa, s)


class TestMapBack:
    def test_empty(self):
        ix, _, _ = build_from(double_hub_graph(2))
        assert ix.map_back(ix.empty_set()) == frozenset()

    def test_merged_class(self):
        g = loop_branch_nfa().graph
        ix, qg, _ = build_from(g)
        s = ix.set_for_classes([qg.partition.class_of[0]])
        assert ix.map_back(s) == {0, 1}

    def test_full(self):
        g = double_hub_graph(4)
        ix, _, _ = build_from(g)
        assert ix.map_back(ix.full_set()) == frozenset(range(6))

    def test_set_for_classes_requires_contiguous(self):
        qn, cp = nfa_pipeline(funnel_nfa(2))  # one chain of 3 classes
        ix = build_nfa_index(qn, cp)
        with pytest.raises(ValueError):
            ix.set_for_classes([0, 2])


class TestSpaceReport:
    def test_edgeless_graph_formula_is_class_count(self):
        g = LabeledGraph.build(3, [], ["a"])
        ix, _, _ = build_from(g)
        rep = ix.space_report()
        assert rep.formula_bits == ix.n_classes == 1
        assert rep.measured_bits <= 2

    def test_one_edge_quotient_formula(self):
        # 1 quotient edge, unary alphabet, width 1: 1*(0+0+2) + 2 classes = 4.
        ix, _, _ = build_from(double_hub_graph(3))
        rep = ix.space_report()
        assert rep.formula_bits == 4

    def test_automaton_formula_counts_finals(self):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_nfa_index(qn, cp)
        # 3 edges * (1 + 1 + 2) + 3 + 3
        assert ix.space_report().formula_bits == 18

    def test_ceil_log2(self):
        assert [ceil_log2(x) for x in (0, 1, 2, 3, 4, 5)] == [0, 0, 1, 2, 2, 3]


class TestBackendsAndSerialization:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, g):
        ix, _, _ = build_from(g)
        for p in enumerate_strings(g.alphabet.symbols, 3):
            matched, end = ix.match_pattern(p)
            assert (matched, ix.map_back(end)) == brute_match(g, p)

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_bytes_roundtrip(self, g):
        ix, _, _ = build_from(g)
        again = Index.from_bytes(ix.to_bytes())
        for p in enumerate_strings(g.alphabet.symbols, 2):
            assert again.match_pattern(p) == ix.match_pattern(p)
            assert again.map_back(again.match_pattern(p)[1]) == \
                ix.map_back(ix.match_pattern(p)[1])

    def test_nfa_roundtrip_keeps_accept(self, tmp_path):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_nfa_index(qn, cp)
        path = tmp_path / "x.clxi"
        ix.save(path)
        again = Index.load(path)
        for s in ([], ["a"], ["a", "b"], ["b"], ["a", "a", "b"]):
            assert again.accept(s) == ix.accept(s)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            Index.from_bytes(b"NOPE" + b"\x00" * 40)

    def test_bad_version_rejected(self):
        ix, _, _ = build_from(double_hub_graph(2))
        raw = bytearray(ix.to_bytes())
        raw[4] = 99
        with pytest.raises(ValueError):
            Index.from_bytes(bytes(raw))

    def test_out_of_range_ids_rejected(self, monkeypatch):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        raw = build_nfa_index(qn, cp).to_bytes()
        at = _v2_offsets(raw)
        wrapped_bits = []  # of every packed array a load wraps
        from_words = PackedArray.from_words

        def spy(width, length, words):
            wrapped_bits.append(width * length)
            return from_words(width, length, words)
        monkeypatch.setattr(PackedArray, "from_words", spy)
        # chains (0, 2) and (1,); chain 0 holds groups (a, 1) and (b, 1) with
        # ends [1, 2], chain 1 holds group (a, 0); every position is 0 but the
        # second target of chain 0
        corruptions = [
            (at["initial"], "<I", 3, "corrupt"),
            (at["chain0"] + 4, "<I", 2, "corrupt"),        # class 2 in two chain slots
            (at["members0"] + 4, "<I", 3, "corrupt"),      # node 3 of a 3-state automaton
            (at["members1"] + 4, "<I", 0, "corrupt"),      # node 0 in two classes
            (at["marked"] + 4, "<I", 3, "corrupt"),
            (at["finals"] + 4, "<I", 3, "corrupt"),
            (at["keys0"], 1, 1, "not strictly increasing"),  # (b, 1) -> (a, 1) again
            (at["ends0"], 1, 3, "ends do not rise"),
            (at["targets1"], 0, 1, "outside its chain"),    # target 1 in a 1-class chain
            (at["sources0"], 0, 1, "outside its chain"),    # source 1 in a 1-class chain
        ]
        for count in ("chain0", "members0", "marked", "finals", "n_groups0", "n_edges0"):
            corruptions.append((at[count], "<I", 0xFFFFFFFF, "corrupt"))
        for field, fmt, value, error in corruptions:
            bad = bytearray(raw)
            if isinstance(fmt, str):
                struct.pack_into(fmt, bad, field, value)
            else:
                _put_packed(bad, field, fmt, value)
            with pytest.raises(ValueError, match=error):
                Index.from_bytes(reseal(bad))
        assert max(wrapped_bits) <= 8 * len(raw)  # huge counts were refused first
        # a key at sigma * q: one symbol on one chain leaves the 1-bit key room
        hub, _, _ = build_from(double_hub_graph(3))
        hub_raw = hub.to_bytes()
        bad = bytearray(hub_raw)
        _put_packed(bad, _v2_offsets(hub_raw)["keys0"], 0, 1)
        with pytest.raises(ValueError, match="below sigma"):
            Index.from_bytes(reseal(bad))

    def test_trailing_bytes_rejected(self):
        ix, _, _ = build_from(double_hub_graph(2))
        raw = ix.to_bytes()
        with pytest.raises(ValueError, match="corrupt"):
            Index.from_bytes(reseal(bytearray(raw[:-4] + bytes(8) + raw[-4:])))

    def test_every_bit_flip_and_truncation_rejected(self):
        rng = random.Random(1305)
        for _ in range(3):
            qn, cp = nfa_pipeline(random_trim_nfa(rng, 6, 2, 0.3))
            raw = build_nfa_index(qn, cp).to_bytes()
            damaged = [raw[:cut] for cut in range(len(raw))]
            for bit in range(8 * len(raw)):
                flipped = bytearray(raw)
                flipped[bit // 8] ^= 1 << (bit % 8)
                damaged.append(bytes(flipped))
            for bad in damaged:
                t0 = time.perf_counter()
                with pytest.raises(ValueError):
                    Index.from_bytes(bad)
                assert time.perf_counter() - t0 < 1.0

    def test_load_wraps_the_stored_words(self, monkeypatch):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_nfa_index(qn, cp)
        raw = ix.to_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("loading packed an array")
        monkeypatch.setattr(PackedArray, "__init__", refuse)
        again = Index.from_bytes(raw)
        assert again.to_bytes() == raw
        assert again.space_report() == ix.space_report()
        for s in ([], ["a"], ["a", "b"], ["a", "a", "b"]):
            assert again.accept(s) == ix.accept(s)


def _v2_offsets(raw: bytes) -> dict:
    """Where a v2 file's fields are: the byte offset of each id list's count
    and of each chain record's two counts, and (offset, width) of each packed
    array."""
    ix = Index.from_bytes(raw)
    off = struct.calcsize("<4sHHIQIII") + sum(
        2 + len(sym.encode("utf-8")) for sym in ix.alphabet.symbols)
    at = {}
    lists = [(f"chain{j}", c) for j, c in enumerate(ix.chains)]
    lists += [(f"members{c}", m) for c, m in enumerate(ix.members)]
    for name, ids in lists + [("marked", ix.marked_classes)]:
        at[name] = off
        off += 4 + 4 * len(ids)
    for j, ch in enumerate(ix._store.chains):
        at[f"n_groups{j}"], at[f"n_edges{j}"] = off, off + 4
        off += 8
        for name in ("keys", "ends", "targets", "sources"):
            array = getattr(ch, name)
            at[f"{name}{j}"] = (off, array.width)
            off += (array.payload_bits + 63) // 64 * 8
    if ix.finals is not None:
        at["finals"] = off
        off += 4 + 4 * len(ix.finals)
    if ix.initial_class is not None:
        at["initial"] = off
        off += 4
    assert off + 4 == len(raw)
    return at


def _put_packed(buf: bytearray, array: tuple[int, int], k: int, value: int) -> None:
    """Overwrite value ``k`` of a packed array, given as (offset, width), in its
    first word."""
    start, width = array
    word = int.from_bytes(buf[start:start + 8], "little")
    word &= ~(((1 << width) - 1) << (k * width))
    buf[start:start + 8] = (word | value << (k * width)).to_bytes(8, "little")


class TestInstrumentation:
    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_probe_budget(self, g):
        ix, _, cp = build_from(g)
        stats = QueryStats()
        for p in (list(g.alphabet.symbols) * 2,):
            ix.match_pattern(p, stats)
        assert stats.probes <= stats.symbols * cp.chain_count ** 2


class TestParsePattern:
    def test_char_split(self):
        alph = Alphabet(("a", "b"))
        assert parse_pattern(alph, "ab") == ["a", "b"]
        assert parse_pattern(alph, "") == []

    def test_whitespace_split(self):
        alph = Alphabet(("ab", "c"))
        assert parse_pattern(alph, "ab c") == ["ab", "c"]

    def test_whole_string_symbol(self):
        alph = Alphabet(("ab",))
        assert parse_pattern(alph, "ab") == ["ab"]

    def test_rejects_markers(self):
        alph = Alphabet(("a",))
        with pytest.raises(PatternError):
            parse_pattern(alph, "a@")
        with pytest.raises(PatternError):
            parse_pattern(alph, "#")

    def test_rejects_unknown(self):
        with pytest.raises(PatternError):
            parse_pattern(Alphabet(("a",)), "ax")
