import hashlib
import random
import struct
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cache, reduce
from itertools import accumulate, product
from operator import mul, or_
from threading import Barrier, Thread

import numpy as np
import pytest
from hypothesis import given, settings

from colexgraph import (Index, LabeledGraph, Nfa, PatternError, QueryStats, QuotientNfa,
                        WrittenIndex, build_index, parse_input, run_pipeline)
from colexgraph import index as index_module
from colexgraph.cli import main
from colexgraph.graph import Alphabet, parse_graph, parse_nfa
from colexgraph.index import (_Arrays, _decode, _follow_ons, _pack, _read, _write, ceil_log2,
                              parse_pattern)
from colexgraph.oracle import (brute_match, enumerate_strings, is_convex, random_graph,
                               random_trim_nfa, simulate_nfa)
from conftest import (SEED_NFA_CORPUS, diamond_nfa, double_hub_graph, funnel_nfa,
                      loop_branch_nfa, small_graphs)
from helpers import (benchmark_workloads, decoded, interval_set, nfa_pipeline, put_stored,
                     quotient_pipeline, reseal, seeded_debruijn, v6_offsets, written)


# Every public method that reads a class set, as (index, set) -> answer
SET_READERS = (lambda ix, s: ix.follow(s, "a"), lambda ix, s: ix.match_from(s, []),
               lambda ix, s: ix.match_from(s, ["a"]), Index.classes_in, Index.map_back)


def build_from(g):
    result = run_pipeline(g)
    return result.index().open(), result.quotient, result.chains


def group_items(ix):
    """Each group as ((target chain, symbol, source chain), (targets, sources))."""
    a = decoded(ix)[1]
    span = len(ix.alphabet) * ix.q
    items, start = [], 0
    for key, end in zip(a.keys, a.ends):
        j, rest = divmod(key, span)
        items.append(((j, *divmod(rest, ix.q)),
                      (tuple(a.targets[start:end]), tuple(a.sources[start:end]))))
        start = end
    return items


@cache
def far_target_index():
    """A loaded file of 8,000 one-class chains with one group per block of
    four source chains, each aimed at the last chain: every block is wide."""
    q = 8000
    keys = [(q - 1) * q + i for i in range(0, q, 4)]
    arrays = _Arrays(list(range(1, q + 1)), list(range(q)), keys,
                     list(range(1, len(keys) + 1)), [0] * len(keys), [0] * len(keys), [])
    return Index.from_bytes(written(alphabet=Alphabet(("a",)), n_original=q,
                                    e_original=len(keys), arrays=arrays,
                                    initial_class=None).to_bytes())


def criterion_5_automata():
    """The 300 seeded automata of acceptance criterion 5."""
    rng = random.Random(SEED_NFA_CORPUS)
    return [random_trim_nfa(rng, 7, rng.randint(1, 3), rng.choice([0.1, 0.3]))
            for _ in range(300)]


@cache
def top_band_automata():
    """40 seeded automata of 33 to 40 states, drawn as the benchmark's
    nfa-corpus draws its top band. Nearly every state is a chain of its own,
    so reached sets span several blocks of one-class chains, and most of the
    automata have a partial last block."""
    rng = random.Random(2104)
    out = []
    for _ in range(40):
        a = random_trim_nfa(rng, 40, 3, 0.08)
        while a.graph.n < 33:
            a = random_trim_nfa(rng, 40, 3, 0.08)
        out.append(a)
    return tuple(out)


@cache
def sparse_graphs():
    """Three seeded graphs of 300 to 900 nodes where each node has two edges
    per symbol, to nodes drawn at random. Most classes are chains of their
    own, so q ~ n, and many blocks of four source chains reach a chain id
    past 64 times their group count: their masks would be wide."""
    out = []
    for n in (300, 600, 900):
        rng = random.Random(n)
        edges = {(u, rng.randrange(n), a) for a in "ab" for u in range(n) for _ in range(2)}
        out.append(LabeledGraph(n, frozenset(edges), Alphabet(("a", "b"))))
    return tuple(out)


def deep_size(obj, seen):
    """Bytes held by ``obj`` and the tuples, lists, dicts and ints under it,
    each object counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list)):
        size += sum(deep_size(x, seen) for x in obj)
    elif isinstance(obj, dict):
        size += sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    return size


def nfa_walk(rng, a, length):
    """Labels of a random walk of up to ``length`` edges from the initial state."""
    out_adj = a.graph.out_adjacency()
    labels, u = [], a.initial
    for _ in range(length):
        moves = [(sym, v) for sym, targets in out_adj[u].items() for v in targets]
        if not moves:
            break
        sym, u = rng.choice(moves)
        labels.append(sym)
    return tuple(labels)


def quotient_image(qg, cp, intervals, a):
    """Per chain of ``cp``, the positions that the quotient's edges labeled
    ``a`` reach from the given position intervals, filled in to min..max,
    or (0, 0) where none is reached."""
    reached: dict[int, list[int]] = {}
    for cu, cv, b in qg.graph.edges:
        lo, hi = intervals[cp.chain_of[cu]]
        if b == a and lo <= cp.pos_in_chain[cu] < hi:
            reached.setdefault(cp.chain_of[cv], []).append(cp.pos_in_chain[cv])
    return tuple((min(reached[j]), max(reached[j]) + 1) if j in reached else (0, 0)
                 for j in range(cp.chain_count))


def one_chain_index(edges, length=2):
    """Index of a one-symbol graph whose classes 0 to length - 1 form one chain,
    with the given (target, source) positions as its only group, checked by
    the writer and the reader."""
    arrays = _Arrays([length], list(range(length)), [0], [len(edges)],
                     [t for t, _ in edges], [s for _, s in edges], [])
    return written(alphabet=Alphabet(("a",)), n_original=length, e_original=len(edges),
                   arrays=arrays, initial_class=None)


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
        assert group_items(ix) == [((0, 0, 0), ((1,), (0,)))]

    def test_loop_branch_groups(self):
        g = loop_branch_nfa().graph
        ix, _, _ = build_from(g)
        keys = [key for key, _ in group_items(ix)]
        assert keys == [(0, 0, 0), (0, 1, 0)]  # self-loop 'a' and edge 'b', one chain

    def test_space_report_counts_no_boundary_vector(self):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_index(qn, cp)
        parts = ix.space_report().breakdown
        assert parts["boundary_bits"] == 0
        # keys [1, 3, 4] stored as the gaps [1, 2, 1] at 2 bits and ends
        # [1, 2, 3] as the sizes [1, 1, 1] at 1; 2 * 3 positions, each a
        # group's head, at 1 bit; finals [1, 2] as [1, 1] at 1, as the file
        # packs them
        assert (parts["group_directory_bits"], parts["position_array_bits"],
                parts["final_bits"]) == (3 * 2 + 3 * 1, 2 * 3, 2 * 1)
        assert parts["rank_directory_bits"] == 0
        assert ix.space_report().measured_bits == 17

    def test_array_count_does_not_grow_with_q(self, monkeypatch):
        symbols = [f"s{k:02d}" for k in range(32)]
        # state k + 1 reads symbols k and 31 - k: nested label intervals, so
        # the 16 states are pairwise incomparable
        edges = [(0, k + 1, symbols[k]) for k in range(16)]
        edges += [(0, k + 1, symbols[31 - k]) for k in range(16)]
        wide = Nfa(LabeledGraph.build(17, edges, symbols), 0, frozenset(range(1, 17)))
        made = Counter()
        for name in ("_pack", "_unpack"):
            def counted(*args, _real=getattr(index_module, name), _name=name):
                made[_name] += 1
                return _real(*args)
            monkeypatch.setattr(index_module, name, counted)
        counts = {}
        for nfa in (funnel_nfa(2), wide):
            qn, cp = nfa_pipeline(nfa)
            made.clear()
            stages = []
            built = build_index(qn, cp)
            stages.append((made["_pack"], made["_unpack"]))
            raw = built.to_bytes()
            stages.append((made["_pack"], made["_unpack"]))
            ix = Index.from_bytes(raw)
            stages.append((made["_pack"], made["_unpack"]))
            counts[ix.q > 1] = stages
            assert ix.q in (1, 16) and ix.accept([symbols[0]] if ix.q > 1 else ["a", "a"])
        # a build packs 7 arrays, a save packs none and a load unpacks 7
        assert counts[True] == counts[False] == [(7, 0), (7, 0), (7, 7)]

    def test_partition_must_match_order(self):
        qg, cp = quotient_pipeline(double_hub_graph(2))
        # hub class 0 sits below sink class 1, so the chain (0, 1) is forwards
        assert cp.chains == ((0, 1),)
        forwards = type(cp)(((0, 1),))
        assert build_index(qg, forwards).to_bytes() == build_index(qg, cp).to_bytes()
        backwards = type(cp)(((1, 0),))
        with pytest.raises(ValueError, match="consecutive id ranges"):
            build_index(qg, backwards)
        missing = type(cp)(((0,),))
        with pytest.raises(ValueError, match="consecutive id ranges"):
            build_index(qg, missing)
        # two valid chains, but chain 0 does not start at class 0
        swapped = type(cp)(((1,), (0,)))
        with pytest.raises(ValueError, match="consecutive id ranges"):
            build_index(qg, swapped)
        # one consecutive range, but class 1 is not below class 2
        qn, cp = nfa_pipeline(loop_branch_nfa())
        assert cp.chains == ((0, 1), (2,)) and not qn.quotient.order.holds(1, 2)
        one_chain = type(cp)(((0, 1, 2),))
        with pytest.raises(ValueError, match="not strictly increasing"):
            build_index(qn.quotient, one_chain)

    def test_monotone_group_check_fires_on_bad_input(self):
        for edges, error in (([(0, 1), (1, 0)], "source monotonicity"),
                             ([(1, 0), (0, 0)], "not sorted")):
            with pytest.raises(ValueError, match=error):
                one_chain_index(edges)


class TestFollow:
    def test_double_hub_full_follow_a(self):
        ix, qg, cp = build_from(double_hub_graph(3))
        out = ix.follow(ix.full_set(), "a")
        assert ix.classes_in(out) == [qg.partition.class_of[0]]

    def test_empty_stays_empty(self):
        ix, _, _ = build_from(double_hub_graph(3))
        assert ix.follow(ix.set_for_classes([]), "a").is_empty()

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
        """A set that another index made is refused, even where that index
        has as many chains: one loaded from this index's bytes, and one
        built from another graph."""
        ix, _, _ = build_from(double_hub_graph(2))
        twin = Index.from_bytes(ix.to_bytes())
        other = build_from(loop_branch_nfa().graph)[0]
        assert twin.q == other.q == ix.q
        for foreign in (twin.full_set(), twin.set_for_classes([0]), other.full_set()):
            for read in SET_READERS:
                with pytest.raises(ValueError, match="not made by this index"):
                    read(ix, foreign)

    def test_rejects_intervals_outside_their_chain(self):
        """Raw intervals are refused wherever a set is read: those outside
        their chain (a negative start would read class -1, the last class,
        and its node; an empty pattern would match (-3, -1)), those that fit,
        and a tuple of a set's own fields."""
        ix = run_pipeline(parse_input("nodes 4\n0 1 a\n1 2 b\n2 3 a\n")).index().open()
        assert ix.q == 1 and ix.n_classes == 4
        full = ix.full_set()
        for raw in (((-1, 1),), ((-3, -1),), ((0, 5),), ((3, 2),), ((0, 4),),
                    (full.ones, full.longs, ix)):
            for read in SET_READERS:
                with pytest.raises(ValueError, match="not made by this index"):
                    read(ix, raw)
        assert ix.classes_in(ix.set_for_classes([])) == []
        assert ix.follow(interval_set(ix, ((0, 4),)), "a") == ix.follow(full, "a")

    def test_follow_from_one_class_allocates_what_it_reaches(self):
        """On 8,000 one-class chains, one follow from a one-class set holds
        the reached mask, not an interval per chain: the traced peak is under
        q / 2 bytes from a chain that reaches the last one (the q-bit mask
        and the one it is built from), and under 1 KiB from one that reaches
        nothing. A dense set of q intervals took about 17 bytes per chain."""
        ix = far_target_index()
        for cid, reached, bound in ((0, [ix.q - 1], ix.q // 2), (1, [], 1024)):
            start = ix.set_for_classes([cid])
            tracemalloc.start()
            try:
                end = ix.follow(start, "a")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ix.classes_in(end) == reached and peak < bound, (cid, peak)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_image_is_convex(self, g):
        ix, qg, _ = build_from(g)
        cur = ix.full_set()
        for sym in (g.alphabet.symbols * 3)[:6]:
            cur = ix.follow(cur, sym)
            assert is_convex(qg.order, set(ix.classes_in(cur)))


class TestProbeDirectory:
    def test_each_probe_outcome(self, monkeypatch):
        # sources 1, 2, 4 reach targets 0, 2, 4 on a chain of six classes
        # Each index is loaded before its steps' searches are counted: the
        # load's own bisections (the follow-on groups) are not a step's.
        ix = one_chain_index([(0, 1), (2, 2), (4, 4)], length=6)
        searches = []
        real = index_module.bisect_left

        def counted(values, x, lo, hi):
            searches.append(x)
            return real(values, x, lo, hi)
        monkeypatch.setattr(index_module, "bisect_left", counted)
        cases = [((5, 6), (0, 0), 0),  # above the last source: a miss
                 ((0, 1), (0, 0), 0),  # below the first source: a miss
                 ((0, 6), (0, 5), 0),  # the whole group
                 ((2, 6), (2, 5), 1),  # a cut at lo only
                 ((0, 3), (0, 3), 1),  # a cut at hi only
                 ((2, 4), (2, 3), 2),  # a cut at both ends
                 ((3, 4), (0, 0), 1)]  # a cut with no edge inside: the lo search
        for interval, image, n_searches in cases:
            searches.clear()
            stats = QueryStats()
            assert ix.follow(interval_set(ix, (interval,)), "a", stats).intervals() == (image,)
            assert (len(searches), stats.probes, stats.symbols) == (n_searches, 1, 1)
        # Sources 1, 2, 4 reach targets 0, 3, 3: a cut at lo that reaches the
        # last target already needs no search for hi.
        ix = one_chain_index([(0, 1), (3, 2), (3, 4)], length=6)
        searches.clear()
        stats = QueryStats()
        assert ix.follow(interval_set(ix, ((2, 4),)), "a", stats).intervals() == ((3, 4),)
        assert (len(searches), stats.probes, stats.symbols) == (1, 1, 1)
        # One (symbol, source chain) pair with two groups: chain 0 reaches
        # targets 0 and 1 of chain 0 from sources 0 and 1, and targets 0 and 2
        # of chain 1 from sources 1 and 2.
        arrays = _Arrays([3, 6], list(range(6)), [0, 2], [2, 4],
                         [0, 1, 0, 2], [0, 1, 1, 2], [])
        ix = written(alphabet=Alphabet(("a",)), n_original=6, e_original=4, arrays=arrays,
                     initial_class=None)
        cases = [((0, 3), ((0, 2), (0, 3)), 0),  # spans both groups
                 ((0, 2), ((0, 2), (0, 1)), 1)]  # stops inside the last group
        for interval, image, n_searches in cases:
            searches.clear()
            stats = QueryStats()
            assert ix.follow(interval_set(ix, (interval, (0, 0))), "a",
                             stats).intervals() == image
            assert (len(searches), stats.probes, stats.symbols) == (n_searches, 2, 1)
        # Chains 0 and 1 hold one class each, chain 2 holds four. Chain 0
        # reaches chain 1 and targets 0 and 2 of chain 2; chain 2 reaches
        # chain 0 from sources 0, 2 and 3, and its own target 1 from source 1.
        arrays = _Arrays([1, 2, 6], list(range(6)), [2, 3, 6, 8], [3, 4, 6, 7],
                         [0, 0, 0, 0, 0, 2, 1], [0, 2, 3, 0, 0, 0, 1], [])
        ix = written(alphabet=Alphabet(("a",)), n_original=6, e_original=7, arrays=arrays,
                     initial_class=None)
        cases = [(((0, 1), (0, 0), (0, 0)), ((0, 0), (0, 1), (0, 3)), 0),  # the image entry
                 (((0, 0), (0, 0), (1, 3)), ((0, 1), (0, 0), (1, 2)), 1),  # source 2 is inside
                 (((0, 0), (0, 0), (1, 2)), ((0, 0), (0, 0), (1, 2)), 1),  # no source inside
                 (((0, 0), (0, 0), (0, 4)), ((0, 1), (0, 0), (1, 2)), 0)]  # both groups whole
        for intervals, image, n_searches in cases:
            searches.clear()
            stats = QueryStats()
            assert ix.follow(interval_set(ix, intervals), "a", stats).intervals() == image
            assert (len(searches), stats.probes, stats.symbols) == (n_searches, 2, 1)

    def test_follow_matches_quotient_edges_on_arbitrary_sets(self, graph_corpus):
        """Per chain: empty, full or a random sub-interval; the image is the
        positions the quotient edges reach, filled in to min..max per chain."""
        rng = random.Random(1310)
        steps = 0
        for g in graph_corpus:
            ix, qg, cp = build_from(g)
            if ix.q < 2:
                continue
            for _ in range(6):
                intervals = []
                for chain in cp.chains:
                    kind, n = rng.randrange(3), len(chain)
                    if kind == 0:
                        k = rng.randint(0, n)
                        intervals.append((k, k))
                    elif kind == 1:
                        intervals.append((0, n))
                    else:
                        lo = rng.randrange(n)
                        intervals.append((lo, rng.randint(lo + 1, n)))
                for a in g.alphabet.symbols:
                    want = quotient_image(qg, cp, intervals, a)
                    assert ix.follow(interval_set(ix, intervals), a).intervals() == want
                    steps += 1
        assert steps > 1000

    def test_one_class_images_widen_a_longer_chain_on_a_finer_partition(self):
        """``build_index`` takes any partition into consecutive id ranges along
        the order. Here classes 2 to 5 become one-class chains 1 to 4, and
        chain 0 is classes 0 < 1. Chains 1, 2 and 3 share a block. On "a",
        class 2 enters chain 0 at position 0, class 3 above it at 1 and class
        4 below 3 at 0: chain 2's image widens chain 1's at the top, and chain
        3's widens chain 2's at the bottom. No minimum partition does this: its
        one-class chains are pairwise incomparable. ``follow`` from every
        convex set reaches the positions the quotient edges reach, filled in
        per chain."""
        g = LabeledGraph.build(6, [(1, 2, "a"), (1, 2, "b"), (1, 4, "a"), (2, 0, "a"),
                                   (2, 0, "b"), (4, 2, "b"), (4, 3, "a"), (5, 1, "a"),
                                   (5, 1, "b"), (5, 3, "a"), (5, 5, "a")], ["a", "b"])
        qg, cp = quotient_pipeline(g)
        assert cp.chains == ((0, 1), (2, 3), (4, 5))
        order = qg.order
        assert order.holds(2, 3) and order.holds(4, 3) and not order.holds(3, 4)
        assert {(2, 0, "a"), (3, 1, "a"), (4, 0, "a")} <= qg.graph.edges
        fine = type(cp)(((0, 1), (2,), (3,), (4,), (5,)))
        ix = build_index(qg, fine).open()
        assert ix.q == 5 and ix._one_class == {1, 2, 3, 4}
        top = ix.follow(interval_set(ix, [(0, 0), (0, 1), (0, 1), (0, 0), (0, 0)]), "a")
        bottom = ix.follow(interval_set(ix, [(0, 0), (0, 0), (0, 1), (0, 1), (0, 0)]), "a")
        assert top.intervals()[0] == bottom.intervals()[0] == (0, 2)
        for first in ((0, 0), (0, 1), (1, 2), (0, 2)):
            for ones in product(((0, 0), (0, 1)), repeat=4):
                intervals = [first, *ones]
                for a in ("a", "b"):
                    want = quotient_image(qg, fine, intervals, a)
                    assert ix.follow(interval_set(ix, intervals), a).intervals() == want

    def test_fold_agrees_with_follow(self, graph_corpus):
        """On the graph corpus, criterion 5's automata, the top band, as
        automata and as graphs, and seeded de Bruijn graphs (q = 1): the query
        fold and a fold of the public ``follow`` end on the same set with the
        same ``QueryStats``, and each step probes every group of the pairs
        whose source chain it starts from. The top band's steps start from
        sets that span more than two blocks of four chains, and from sets that
        reach a partial last block. The de Bruijn graphs' patterns, up to 12
        symbols, half of them read off the DNA, step one longer chain."""
        rng = random.Random(1711)
        checked = accepts = wide = partial = long_hits = 0
        top_band = top_band_automata()
        debruijn = [seeded_debruijn(seed, length, k)
                    for seed, length, k in ((31, 300, 4), (32, 500, 5), (33, 800, 6))]
        for source, dna in [*((s, None) for s in [*graph_corpus, *criterion_5_automata(),
                                                   *top_band, *(a.graph for a in top_band)]),
                            *((g, dna) for dna, g in debruijn)]:
            nfa = isinstance(source, Nfa)
            result = run_pipeline(source)
            ix = result.index().open()
            assert dna is None or ix.q == 1
            groups = Counter((sym, i) for (_, sym, i), _ in group_items(ix))
            symbols = ix.alphabet.symbols
            for _ in range(4 if dna is None else 40):
                if dna is None:
                    p = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 6)))
                else:
                    n, i = rng.randint(1, 12), rng.randrange(len(dna))
                    p = (tuple((dna + dna[:12])[i:i + n]) if rng.random() < 0.5
                         else tuple(rng.choice(symbols) for _ in range(n)))
                by_follow, by_fold = QueryStats(), QueryStats()
                cur = ix.set_for_classes([ix.initial_class]) if nfa else ix.full_set()
                for a in p:
                    sources = [i for i, (lo, hi) in enumerate(cur.intervals()) if lo < hi]
                    if len({i // 4 for i in sources}) > 2:
                        wide += 1
                        partial += ix.q % 4 > 0 and sources[-1] >= ix.q - ix.q % 4
                    before = by_follow.probes
                    cur = ix.follow(cur, a, by_follow)
                    sym = ix.alphabet.index(a)
                    assert by_follow.probes - before == sum(groups[sym, i] for i in sources)
                    if cur.is_empty():
                        break
                if nfa:
                    want = simulate_nfa(source, p)
                    assert ix.accept(p, by_fold) == want
                    assert any(c in ix.finals for c in ix.classes_in(cur)) == want
                    accepts += 1
                else:
                    assert ix.match_pattern(p, by_fold) == (not cur.is_empty(), cur)
                assert by_fold == by_follow
                checked += 1
                long_hits += dna is not None and len(p) > 6 and not cur.is_empty()
        assert checked > 1000 and accepts > 200
        assert wide > 400 and partial > 200 and long_hits > 20

    @pytest.mark.parametrize("seed, length, k", [(11, 300, 4), (12, 450, 5), (13, 600, 5)])
    def test_wheeler_graph_matches_brute_force(self, monkeypatch, seed, length, k):
        """The q = 1 case: one large group per symbol, so substrings cut into
        groups and the step bisects the decoded sources."""
        dna, g = seeded_debruijn(seed, length, k)
        ix = Index.from_bytes(build_from(g)[0].to_bytes())
        assert ix.q == 1
        searches = 0
        real = index_module.bisect_left

        def counted(values, x, lo, hi):
            nonlocal searches
            searches += 1
            return real(values, x, lo, hi)
        monkeypatch.setattr(index_module, "bisect_left", counted)
        rng = random.Random(seed + 100)  # not the graph's seed: its patterns miss
        circ = dna + dna[:12]
        misses = 0
        for _ in range(60):
            n, i = rng.randint(1, 12), rng.randrange(length)
            for p in (tuple(circ[i:i + n]), tuple(rng.choice("ACGT") for _ in range(n))):
                matched, end = ix.match_pattern(p)
                assert (matched, ix.map_back(end)) == brute_match(g, p)
                misses += not matched
        assert searches > 0 and misses >= 10

    def test_wheeler_search_work_is_pinned(self, monkeypatch):
        """The q = 1 step's work on a fixed pattern set, built and loaded: how
        a step reads a group may get cheaper, but not the number of steps,
        probes and ``bisect_left`` calls it makes, nor the hits."""
        dna, g = seeded_debruijn(21, 800, 6)
        built = build_from(g)[0]  # loaded before the spy: the load's bisections are not a step's
        searches = 0
        real = index_module.bisect_left

        def counted(values, x, lo, hi):
            nonlocal searches
            searches += 1
            return real(values, x, lo, hi)
        monkeypatch.setattr(index_module, "bisect_left", counted)
        circ = dna + dna[:12]
        for ix in (built, Index.from_bytes(built.to_bytes())):
            assert (ix.q, ix.n_classes, ix.e_quotient) == (1, 721, 770)
            rng = random.Random(21 * 7919)  # not the graph's seed: its patterns miss
            searches = hits = 0
            stats = QueryStats()
            for _ in range(100):
                n, i = rng.randint(1, 12), rng.randrange(len(dna))
                for p in (circ[i:i + n], "".join(rng.choice("ACGT") for _ in range(n))):
                    hits += ix.match_pattern(p, stats)[0]
            assert (stats.symbols, stats.probes, searches, hits) == (1027, 1027, 1483, 144)

    def test_one_class_search_work_is_pinned(self):
        """The q ~ n step's work on the top band, built and loaded: how a step
        reads the reached one-class chains may get cheaper, but not the number
        of steps and probes it makes, nor the answers. Four strings in five
        are walks from the initial state, as in the benchmark; each string is
        asked with ``accept`` and with ``match_pattern``."""
        built = [(a, run_pipeline(a).index().open())
                 for a in top_band_automata()[:12]]
        for load in (False, True):
            rng = random.Random(2105)
            stats, accepts, matches = QueryStats(), 0, 0
            for a, ix in built:
                if load:
                    ix = Index.from_bytes(ix.to_bytes())
                symbols = a.graph.alphabet.symbols
                for k in range(10):
                    length = rng.randint(1, 10)
                    p = (nfa_walk(rng, a, length) if k % 5 else
                         tuple(rng.choice(symbols) for _ in range(length)))
                    accepts += ix.accept(p, stats)
                    matches += ix.match_pattern(p, stats)[0]
            assert (stats.symbols, stats.probes, accepts, matches) == (1298, 98717, 117, 120)

    def test_directory_records_agree_with_the_store(self, graph_corpus):
        """On the graph corpus and criterion 5's automata, where q >= 2: each
        group on a longer source chain has one record in its pair's entry, in
        key order, holding its target chain, its edge range from the ends and
        the first and last target and source of that range."""
        checked = 0
        for source in [*graph_corpus, *criterion_5_automata()]:
            ix = run_pipeline(source).index().open()
            if ix.q < 2:
                continue
            a, span = decoded(ix)[1], len(ix.alphabet) * ix.q
            want: dict[tuple[int, int], list[tuple]] = {}
            for g, (key, end) in enumerate(zip(a.keys, a.ends)):
                j, rest = divmod(key, span)
                sym, i = divmod(rest, ix.q)
                if ix._offsets[i + 1] - ix._offsets[i] > 1:
                    start = a.ends[g - 1] if g else 0
                    want.setdefault((sym, i), []).append(
                        (j, a.targets[start], a.targets[end - 1], start, end,
                         a.sources[start], a.sources[end - 1]))
            got = {(sym, i): entry for sym, row in enumerate(ix._directory)
                   for i, entry in row.items()}
            assert got == {pair: (tuple(records), len(records))
                           for pair, records in want.items()}
            checked += sum(map(len, want.values()))
        assert checked > 1000

    def test_block_tables_agree_with_the_store(self, graph_corpus):
        """On the graph corpus, criterion 5's automata, the top band and the
        sparse graphs: for every symbol, block of four chains and subset of
        the block's one-class chains, the block's tables hold the OR of the
        subset's one-class target chains' bits, its group count, its longer
        target chains' ``(chain, first target, last target + 1)`` triples,
        chain after chain and in key order, or None for that table when no
        subset has one. A block whose highest one-class target is at least
        64 times its group count has masks of its targets below 64 only, and
        a fourth table of its other targets' ids; every other block has None
        there."""
        entries = with_images = partial = narrow_far = wide = 0
        for source in [*graph_corpus, *criterion_5_automata(), *top_band_automata(),
                       *sparse_graphs()]:
            ix = run_pipeline(source).index().open()
            ones = ix._one_class
            # (symbol, one-class source chain) -> [target chains, groups, triples]
            pairs: dict[tuple[int, int], list] = {}
            for (j, sym, i), (targets, _) in group_items(ix):
                if i in ones:
                    image = pairs.setdefault((sym, i), [(), 0, ()])
                    image[1] += 1
                    if j in ones:
                        image[0] += (j,)
                    else:
                        image[2] += ((j, targets[0], targets[-1] + 1),)
            want = {}
            for sym, block in {(sym, i // 4) for sym, i in pairs}:
                chains = [pairs.get((sym, 4 * block + b), [(), 0, ()]) for b in range(4)]
                top = max((j for p in chains for j in p[0]), default=0)
                is_wide = top >= 64 * sum(p[1] for p in chains)
                ors, counts, images, far = [], [], [], []
                for nibble in range(16):
                    picked = [chains[b] for b in range(4) if nibble >> b & 1]
                    hit = [j for p in picked for j in p[0]]
                    ors.append(reduce(or_, (1 << j for j in hit if j < 64 or not is_wide), 0))
                    counts.append(sum(p[1] for p in picked))
                    images.append(sum((p[2] for p in picked), ()))
                    far.append(tuple(j for j in hit if j >= 64))
                want[sym * ix.q + block] = (tuple(ors), tuple(counts),
                                            tuple(images) if any(images) else None,
                                            tuple(far) if is_wide else None)
                partial += 4 * block + 4 > ix.q > 4
                wide += is_wide
                narrow_far += top >= 64 and not is_wide
            assert ix._tables == want
            entries += 16 * len(want)
            with_images += sum(images is not None for _, _, images, _ in want.values())
        assert entries > 40000 and with_images > 300 and partial > 400
        assert wide > 100 and narrow_far > 100

    def test_wide_blocks_match_brute_force(self):
        """On the sparse graphs, built and loaded: match_pattern agrees with
        the brute-force product on walks and on random strings, so steps that
        read wide blocks' target ids reach the right chains."""
        for g in sparse_graphs():
            built = build_from(g)[0]
            assert built.q > 0.8 * g.n
            out_adj = g.out_adjacency()
            for ix in (built, Index.from_bytes(built.to_bytes())):
                rng = random.Random(g.n + 1)
                for k in range(60):
                    length = rng.randint(1, 8)
                    if k % 3:
                        u, p = rng.randrange(g.n), []
                        for _ in range(length):
                            a = rng.choice("ab")
                            p.append(a)
                            u = rng.choice(sorted(out_adj[u][a]))
                    else:
                        p = [rng.choice("ab") for _ in range(length)]
                    matched, end = ix.match_pattern(p)
                    assert (matched, ix.map_back(end)) == brute_match(g, p)

    def test_block_tables_take_memory_linear_in_the_groups(self):
        """A file of 8,000 one-class chains with one group per block of four
        source chains, each aimed at the last chain: masks would make every
        block hold 15 ints of 8,000 bits (about 9 KiB per group). The tables
        take under 2 KiB per group, and the step still reaches the last
        chain from every source."""
        ix = far_target_index()
        q, keys = ix.q, decoded(ix)[1].keys
        assert deep_size(ix._tables, set()) < 2048 * len(keys)
        stats = QueryStats()
        ok, end = ix.match_pattern(["a"], stats)
        assert ok and ix.map_back(end) == {q - 1} and stats.probes == len(keys)


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

    def test_sets_equal_whichever_path_made_them(self):
        """A step holds its longer chains' intervals as lists, where the full
        set and set_for_classes hold tuples: equal sets compare and hash
        equal all the same."""
        ix = build_from(parse_graph("nodes 4\n0 1 a\n1 2 b\n2 3 a\n"))[0]
        stepped = ix.follow(ix.full_set(), "a")
        made = ix.set_for_classes(ix.classes_in(stepped))
        assert isinstance(stepped.longs[0], list) and isinstance(made.longs[0], tuple)
        assert stepped == made and hash(stepped) == hash(made)
        assert ix.match_from(ix.full_set(), []) == ix.match_pattern([]) == (True, ix.full_set())
        assert stepped != ix.full_set()

    def test_full_set_start_skips_an_empty_chain(self):
        """A file whose chain ends repeat has a chain of no class. It holds
        no one-class chain's bit in match_pattern's start, so the empty
        pattern matches the classes there are and nothing outside a chain."""
        arrays = _Arrays([1, 1, 2], [0, 1], [], [], [], [], [])
        ix = written(alphabet=Alphabet(("a",)), n_original=2, e_original=0, arrays=arrays,
                     initial_class=None)
        for index in (ix, Index.from_bytes(ix.to_bytes())):
            ok, end = index.match_pattern([])
            assert ok and end.intervals() == ((0, 1), (0, 0), (0, 1))
            assert index.map_back(end) == {0, 1}

    def test_match_from_empty_start(self):
        ix, _, _ = build_from(double_hub_graph(2))
        ok, end = ix.match_from(ix.set_for_classes([]), ["a"])
        assert (ok, end.is_empty()) == (False, True)
        ok, end = ix.match_from(ix.set_for_classes([]), [])
        assert (ok, end.is_empty()) == (False, True)

    def test_match_from_initial_class(self):
        nfa = loop_branch_nfa()
        qn, cp = nfa_pipeline(nfa)
        ix = build_index(qn, cp).open()
        start = ix.set_for_classes([qn.initial])
        ok, end = ix.match_from(start, ["a", "b"])
        assert ok and ix.map_back(end) == {2}

    def test_unknown_symbol_rejected_even_when_empty(self):
        ix, _, _ = build_from(double_hub_graph(2))
        with pytest.raises(PatternError):
            ix.match_from(ix.set_for_classes([]), ["z"])


class TestFold:
    """The one fold loop that every query runs, ``follow`` with one symbol."""

    @staticmethod
    def shared_set_cases():
        """A q = 1 de Bruijn graph's index and a top-band graph's, of one
        longer chain among 35 one-class chains; sets whose longer chains'
        intervals a step made (lists) or the index's constructor made
        (tuples); and every pattern of up to three symbols."""
        for g in (seeded_debruijn(41, 200, 4)[1], top_band_automata()[4].graph):
            ix = build_from(g)[0]
            patterns = [p for n in range(4) for p in product(ix.alphabet.symbols, repeat=n)]
            starts = [ix.full_set(), *(ix.follow(ix.full_set(), a) for a in ix.alphabet.symbols)]
            assert any(isinstance(span, list) for s in starts for span in s.longs.values())
            yield ix, starts, patterns

    def test_a_shared_set_folds_unchanged(self):
        """A set folded twice through ``match_from`` gives equal answers, and
        the fold writes nothing into it: its intervals and the spans of its
        longer chains are as before."""
        for ix, starts, patterns in self.shared_set_cases():
            for start in starts:
                intervals = start.intervals()
                longs = {j: tuple(span) for j, span in start.longs.items()}
                for p in patterns:
                    first, stats = ix.match_from(start, p, QueryStats()), QueryStats()
                    assert ix.match_from(start, p, stats) == first
                assert start.intervals() == intervals
                assert {j: tuple(span) for j, span in start.longs.items()} == longs

    def test_a_generator_pattern_answers_as_its_tuple(self):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_index(qn, cp).open()
        start = ix.set_for_classes([ix.initial_class])
        for n in range(5):
            for p in product(ix.alphabet.symbols, repeat=n):
                by_tuple, by_generator = QueryStats(), QueryStats()
                assert (ix.match_pattern((a for a in p), by_generator)
                        == ix.match_pattern(p, by_tuple))
                assert ix.match_from(start, (a for a in p), by_generator) == \
                    ix.match_from(start, p, by_tuple)
                assert ix.accept((a for a in p), by_generator) == ix.accept(p, by_tuple)
                assert by_generator == by_tuple
        with pytest.raises(PatternError, match="unknown symbol 'z'"):
            ix.accept(a for a in ("a", "z"))

    def test_a_bad_symbol_after_an_emptying_prefix_is_refused(self):
        """The pattern is checked before the fold: a symbol outside the
        alphabet, or a marker, after a prefix that empties the set is
        refused, and the caller's ``QueryStats`` keeps its counts."""
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_index(qn, cp).open()
        start = ix.set_for_classes([ix.initial_class])
        prefix = ("b", "a")
        assert ix.match_from(start, prefix) == (False, ix.set_for_classes([]))
        assert ix.match_pattern(("a", "b", "b"))[0] is False
        for bad, message in (("z", "unknown symbol 'z'"),
                             ("#", "marker '#' cannot appear in a pattern"),
                             ("@", "marker '@' cannot appear in a pattern")):
            for query in (lambda p, st: ix.match_from(start, p, st),
                          lambda p, st: ix.match_pattern(("a", "b", *p), st), ix.accept):
                stats = QueryStats(probes=7, symbols=3)
                with pytest.raises(PatternError, match=message):
                    query((*prefix, bad), stats)
                assert stats == QueryStats(probes=7, symbols=3)

    def test_a_step_reads_one_table_per_reached_block(self, monkeypatch):
        """Over nfa-corpus seed 1's accept queries, each asked one ``follow``
        at a time from the initial class: a step reads the block tables once
        per non-zero 4-bit slice of its start's ``ones``, so a run of zero
        slices is skipped in one shift and never read."""

        class CountingTables(dict):
            reads = 0

            def get(self, key, default=None):
                CountingTables.reads += 1
                return super().get(key, default)

        want = skipped = 0
        for unit in benchmark_workloads(monkeypatch).nfa_corpus(1).units:
            ix = run_pipeline(parse_input(unit.text)).index().open()
            ix._tables = CountingTables(ix._tables)
            for query in unit.queries:
                s = ix.set_for_classes([ix.initial_class])
                for a in query:
                    slices = [s.ones >> k & 15 for k in range(0, s.ones.bit_length(), 4)]
                    want += sum(map(bool, slices))
                    skipped += slices.count(0)
                    s = ix.follow(s, a)
        assert CountingTables.reads == want
        assert want > 10000 and skipped > 1000

    def test_follow_from_the_empty_set_counts_one_symbol_and_no_probe(self):
        ix = build_from(double_hub_graph(3))[0]
        stats = QueryStats()
        assert ix.follow(ix.set_for_classes([]), "a", stats).is_empty()
        assert stats == QueryStats(probes=0, symbols=1)
        assert ix.match_from(ix.set_for_classes([]), ["a", "a"], stats)[0] is False
        assert stats == QueryStats(probes=0, symbols=2)


class TestAccept:
    def test_loop_branch_ab(self):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_index(qn, cp).open()
        assert ix.accept(["a", "b"]) is True
        assert ix.accept(["b"]) is False

    def test_epsilon_iff_initial_final(self):
        g = LabeledGraph.build(2, [(0, 1, "a"), (1, 1, "a")], ["a"])
        qn, cp = nfa_pipeline(Nfa(g, 0, frozenset({0, 1})))
        ix = build_index(qn, cp).open()
        assert ix.accept([]) is True
        qn2, cp2 = nfa_pipeline(Nfa(g, 0, frozenset({1})))
        ix2 = build_index(qn2, cp2).open()
        assert ix2.accept([]) is False

    def test_funnel_lengths(self):
        qn, cp = nfa_pipeline(funnel_nfa(3))
        ix = build_index(qn, cp).open()
        assert ix.accept(["a", "a"]) is True
        assert ix.accept(["a"]) is False

    def test_requires_automaton_data(self):
        ix, _, _ = build_from(loop_branch_nfa().graph)
        with pytest.raises(ValueError, match="^index lacks automaton data "):
            ix.accept(["a"])

    def test_requires_marked_initial(self):
        """``accept`` starts at the initial class, which must be a singleton,
        the condition of ``quotient_nfa``'s certificate: the writer refuses an
        automaton whose initial class has two members, as a quotient computed
        without the marker gives here. The file stores the initial class and
        no marker, and its arrays write it back."""
        nfa = loop_branch_nfa()
        qg, cp = quotient_pipeline(nfa.graph)  # no marker: classes {0,1},{2}
        part = qg.partition
        assert part.members[part.class_of[nfa.initial]] == (0, 1)
        unmarked = QuotientNfa(qg, part.class_of[nfa.initial],
                               frozenset(part.class_of[f] for f in nfa.finals))
        with pytest.raises(ValueError, match="^initial class is not a singleton; quotient the "
                                             "automaton with quotient_nfa$"):
            build_index(unmarked, cp)
        ix = build_index(*nfa_pipeline(nfa))
        a = decoded(ix)[1]
        header = dict(alphabet=ix.alphabet, n_original=ix.n_original, e_original=ix.e_original,
                      initial_class=ix.initial_class)
        assert ix.initial_class == 0
        assert written(arrays=a, **header).to_bytes() == ix.to_bytes()

    def test_agrees_with_simulation(self, rng):
        from colexgraph.oracle import enumerate_strings, random_trim_nfa
        for _ in range(20):
            nfa = random_trim_nfa(rng, 6, 2, 0.25)
            qn, cp = nfa_pipeline(nfa)
            ix = build_index(qn, cp).open()
            for s in enumerate_strings(nfa.graph.alphabet.symbols, 4):
                assert ix.accept(s) == simulate_nfa(nfa, s)

    def test_finals_at_the_ends_of_a_later_chain(self):
        """Chain 1 is classes 1 to 3, with finals at its first and last
        position and none between them or on chain 0: where an off-by-one in
        counting the finals of an end interval, or a missing chain offset,
        would show."""
        nfa = parse_nfa("alphabet a b\nnodes 4\n0 1 b\n1 0 b\n1 2 a\n2 1 b\n2 2 a\n"
                        "2 3 a\n3 3 a\ninitial 0\nfinal 1 3\n")
        qn, cp = nfa_pipeline(nfa)
        built = build_index(qn, cp).open()
        assert built._offsets == [0, 1, 4] and built.finals == [1, 3]
        for ix in (built, Index.from_bytes(built.to_bytes())):
            answers = Counter()
            for s in enumerate_strings(nfa.graph.alphabet.symbols, 4):
                answers[ix.accept(s)] += 1
                assert ix.accept(s) == simulate_nfa(nfa, s)
            assert answers[True] > 0 and answers[False] > 0


class TestMapBack:
    def test_empty(self):
        ix, _, _ = build_from(double_hub_graph(2))
        assert ix.map_back(ix.set_for_classes([])) == frozenset()

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
        ix = build_index(qn, cp).open()
        with pytest.raises(ValueError):
            ix.set_for_classes([0, 2])
        # a class given twice is one class, not a gap on its chain
        ix = build_from(parse_graph("nodes 4\n0 1 a\n1 2 b\n2 3 a\n"))[0]
        assert ix.q == 1
        assert ix.set_for_classes([1, 1]) == ix.set_for_classes([1])
        assert ix.set_for_classes([1]).intervals() == ((1, 2),)
        with pytest.raises(ValueError, match="not contiguous on chain 0"):
            ix.set_for_classes([3, 1, 1])

    def test_set_for_classes_refuses_ids_out_of_range(self):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_index(qn, cp).open()
        for cid in (-1, ix.n_classes):
            with pytest.raises(ValueError, match="not below 3"):
                ix.set_for_classes([cid])

    def test_set_for_classes_refuses_ids_that_are_not_integers(self):
        """A class id of another type would pass the range check (0 <= 1.5
        < 4) and make a set at position 0.5, which classes_in cannot read."""
        ix = build_from(parse_graph("nodes 4\n0 1 a\n1 2 b\n2 3 a\n"))[0]
        assert ix.q == 1
        for cid in (1.5, "1", None):
            with pytest.raises(ValueError, match=f"^class id {cid!r} is not an integer$"):
                ix.set_for_classes([0, cid])
        assert ix.classes_in(ix.set_for_classes([np.int64(1), True])) == [1]


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
        ix = build_index(qn, cp)
        # 3 edges * (1 + 1 + 2) + 3 + 3
        assert ix.space_report().formula_bits == 18

    def test_breakdown_counts_every_array_at_its_file_width(self):
        """The array entries of the breakdown add up to the seven arrays'
        width times length, on a graph index and on an automaton index."""
        qn, cp = nfa_pipeline(diamond_nfa())
        graph_ix = build_from(seeded_debruijn(11, 300, 4)[1])[0]
        for ix in (graph_ix, build_index(qn, cp).open()):
            parts = dict(ix.space_report().breakdown)
            assert (parts.pop("boundary_bits"), parts.pop("rank_directory_bits")) == (0, 0)
            assert set(parts) == {"group_directory_bits", "position_array_bits", "final_bits",
                                  "chain_table_bits", "class_map_bits"}
            widths, arrays = decoded(ix)
            assert sum(parts.values()) == sum(map(mul, widths, map(len, arrays)))

    def test_q1_index_is_within_one_and_a_half_times_the_formula(self):
        """On a Wheeler graph (q = 1) the stored differences bring the
        measured payload within 1.5x the paper's bound: the targets of each
        chain are one run of steps of 0 or 1, and the sources step by the
        gaps between the nodes that read one symbol."""
        _, g = seeded_debruijn(7, 1000, 8)
        ix = build_from(g)[0]
        assert ix.q == 1 and 900 <= ix.n_classes <= 1000 and ix.e_quotient >= 900
        widths = dict(zip(_Arrays._fields, decoded(ix)[0]))
        assert widths["targets"] == 1
        rep = ix.space_report()
        assert rep.measured_bits <= 1.5 * rep.formula_bits, rep.ratio

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
        ix = build_index(qn, cp).open()
        path = tmp_path / "x.clxi"
        ix.save(path)
        again = Index.load(path)
        for s in ([], ["a"], ["a", "b"], ["b"], ["a", "a", "b"]):
            assert again.accept(s) == ix.accept(s)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            Index.from_bytes(b"NOPE" + b"\x00" * 40)
        ix, _, _ = build_from(double_hub_graph(2))
        raw = ix.to_bytes()
        with pytest.raises(ValueError, match="bad magic"):
            Index.from_bytes(b"NOPE" + raw[4:])
        # The magic is read before the rest of the header: a text shorter
        # than the 28-byte header is not an index file, and a prefix of an
        # index file is a cut one.
        with pytest.raises(ValueError, match=r"^not an index file \(bad magic\)$"):
            Index.from_bytes(b"nodes 1\n")
        for k in range(28):
            with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                Index.from_bytes(raw[:k])

    def test_bad_version_rejected(self):
        ix, _, _ = build_from(double_hub_graph(2))
        raw = bytearray(ix.to_bytes())
        raw[4] = 99
        with pytest.raises(ValueError):
            Index.from_bytes(bytes(raw))

    def test_out_of_range_ids_rejected(self, monkeypatch):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        raw = build_index(qn, cp).to_bytes()
        at = v6_offsets(raw)
        unpacked_bits = []  # of every packed array a load unpacks
        real = index_module._unpack

        def spy(width, length, raw):
            unpacked_bits.append(width * length)
            return real(width, length, raw)
        monkeypatch.setattr(index_module, "_unpack", spy)
        # chains (0, 1) and (2,), so chain ends [2, 3], stored as the lengths
        # [2, 1]; classes {0}, {2}, {1}, so the class map is [0, 2, 1]; 0
        # initial, 1 and 2 final, stored [1, 1]; keys [1, 3, 4], stored
        # [1, 2, 1], are the groups (a, 1) and (b, 1) of chain 0 and (a, 0) of
        # chain 1, one edge each, so ends [1, 2, 3] are stored as the sizes
        # [1, 1, 1]; every position is 0 but the second target
        header = [
            (at["initial"], "<I", 3),                          # initial class 3 of 3
            (at["n_original"], "<I", 2),                       # 3 indexed nodes of 2
            (6, "<H", 2),                                      # finals without their flag
        ]
        for count in ("q", "n_nodes", "n_finals", "n_groups", "n_edges"):
            header.append((at[count], "<I", 0xFFFFFFFF))
        for field, fmt, value in header:
            bad = bytearray(raw)
            struct.pack_into(fmt, bad, field, value)
            with pytest.raises(ValueError, match="corrupt"):
                Index.from_bytes(reseal(bad))
        arrays = [
            ("chain_ends", [2, 0], "corrupt"),                 # chains end short of class 3
            ("class_map", [3, 2, 1], "corrupt"),               # node 0 in class 3 of 3
            ("class_map", [0, 2, 2], "corrupt"),               # class 1 has no member
            ("finals", [2, 1], "corrupt"),                     # final class 3 of 3
            ("finals", [1, 0], "corrupt"),                     # final class 1 twice
            ("keys", [1, 0, 3], "not strictly increasing"),    # (b, 1) -> (a, 1) again
            ("ends", [3, 1, 1], "ends do not rise"),           # groups end past edge 3
            ("ends", [0, 1, 2], "ends do not rise"),           # the first group is empty
            ("ends", [1, 2, 0], "ends do not rise"),           # the last group is empty
            ("targets", [0, 1, 1], "outside its chain"),       # target 1 in a 1-class chain
            ("sources", [1, 0, 0], "outside its chain"),       # source 1 in a 1-class chain
        ]
        for name, values, error in arrays:
            bad = bytearray(raw)
            put_stored(bad, at, name, values)
            with pytest.raises(ValueError, match=error):
                Index.from_bytes(reseal(bad))
        assert max(unpacked_bits) <= 8 * len(raw)  # huge counts were refused first
        # a key at sigma * q * q: one symbol on one chain leaves the 1-bit key room
        hub, _, _ = build_from(double_hub_graph(3))
        hub_raw = hub.to_bytes()
        bad = bytearray(hub_raw)
        put_stored(bad, v6_offsets(hub_raw), "keys", [1])
        with pytest.raises(ValueError, match="below sigma"):
            Index.from_bytes(reseal(bad))

    def test_more_groups_than_edges_rejected_before_unpacking(self, monkeypatch):
        """Every group holds an edge, so a file with more groups than edges
        is refused before its group count sizes any array."""
        qn, cp = nfa_pipeline(loop_branch_nfa())
        raw = build_index(qn, cp).to_bytes()
        bad = bytearray(raw)
        struct.pack_into("<I", bad, v6_offsets(raw)["n_groups"], 4)  # of 3 edges
        unpacked = []
        monkeypatch.setattr(index_module, "_unpack", lambda *args: unpacked.append(args))
        with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
            Index.from_bytes(reseal(bad))
        assert unpacked == []

    def test_stored_widths_must_be_canonical(self, monkeypatch):
        """A width byte is refused when it is 0 or over 64, before any array
        is unpacked, and when it is wider than its array's largest stored
        value needs: each array has one width, so a loaded file writes back
        its own bytes."""
        qn, cp = nfa_pipeline(loop_branch_nfa())
        raw = build_index(qn, cp).to_bytes()
        at = v6_offsets(raw)
        assert [raw[at[name + "_width"]] for name in _Arrays._fields] == [2, 2, 2, 1, 1, 1, 1]
        unpacked = []
        real = index_module._unpack

        def spy(*args):
            unpacked.append(args)
            return real(*args)
        monkeypatch.setattr(index_module, "_unpack", spy)
        for name in _Arrays._fields:
            for width in (0, 65, 255):
                bad = bytearray(raw)
                bad[at[name + "_width"]] = width
                with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                    Index.from_bytes(reseal(bad))
        assert unpacked == []
        # the same values one bit wider: sources [0, 0, 0] at 2 bits, the
        # chain lengths [2, 1] at 3 and the key gaps [1, 2, 1] at 3
        for name, values in (("sources", [0, 0, 0]), ("chain_ends", [2, 1]),
                             ("keys", [1, 2, 1])):
            bad = bytearray(raw)
            put_stored(bad, at, name, values, width=at[name][1] + 1)
            with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                Index.from_bytes(reseal(bad))
        assert Index.from_bytes(raw).to_bytes() == raw

    def test_padding_bits_rejected(self):
        """The bits after an array's last value, up to the end of its last
        word, are 0 as written: a file with one set is refused, so that a
        loaded file writes back its own bytes."""
        qn, cp = nfa_pipeline(loop_branch_nfa())
        raw = build_index(qn, cp).to_bytes()
        at = v6_offsets(raw)
        for name in _Arrays._fields:
            start, width = at[name]
            bad = bytearray(raw)
            bad[start + 7] |= 0x80  # the word's top bit: every array here is one word
            with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                Index.from_bytes(reseal(bad))

    def test_decode_equals_adding_to_every_follow_on_target(self, graph_corpus):
        """The reader adds the last target of the group before to a
        follow-on group's stored head alone, before the group's running sum.
        On the corpus graphs, criterion 5's automata and three de Bruijn
        graphs, its targets equal those of summing every group and then
        adding that target to each of a follow-on group's targets, and its
        other arrays are the running sums of the stored ones."""
        def by_target(stored, sigma):
            ends = [*accumulate(stored.ends)]
            targets = list(stored.targets)
            for start, end in zip([0, *ends], ends):
                targets[start:end] = accumulate(targets[start:end])
            keys = [*accumulate(stored.keys)]
            lengths = stored.chain_ends
            follow_ons = _follow_ons(keys, lengths, len(lengths), sigma)
            for g in follow_ons:
                start, end = ends[g - 1], ends[g]
                targets[start:end] = [t + targets[start - 1] for t in targets[start:end]]
            return targets, sum(ends[g] - ends[g - 1] > 1 for g in follow_ons)

        sources = [*graph_corpus[::5], *criterion_5_automata(),
                   *(seeded_debruijn(seed, 400, 4)[1] for seed in (31, 32, 33))]
        longer_follow_ons = 0
        for source in sources:
            alphabet, _, stored = _read(run_pipeline(source).index().to_bytes())
            want, longer = by_target(stored, len(alphabet))
            sums = [[*accumulate(values)] for values in (stored.chain_ends, stored.keys,
                                                         stored.ends, stored.finals)]
            got = _decode(stored._replace(targets=list(stored.targets)), len(alphabet))
            assert got.targets == want
            assert [got.chain_ends, got.keys, got.ends, got.finals] == sums
            longer_follow_ons += longer
        assert longer_follow_ons >= 40

    def test_multi_word_arrays_keep_their_refusals(self):
        """The padding and width checks hold for arrays of many words: on a
        de Bruijn index whose class map, targets and sources each hold over
        1,000 values, a file with the first bit past the last value of any
        of them set is refused, and so is one that stores any of them one bit
        wider than canonical."""
        raw = build_index(*quotient_pipeline(seeded_debruijn(5, 1200, 8)[1])).to_bytes()
        at = v6_offsets(raw)
        _, widths, stored = _read(raw)
        spans = {name: (width, values)
                 for name, width, values in zip(_Arrays._fields, widths, stored)
                 if width * len(values) > 64}
        assert list(spans) == ["class_map", "targets", "sources"]
        assert min(len(values) for _, values in spans.values()) > 1000
        for name, (width, values) in spans.items():
            start = at[name][0]
            bits = width * len(values)
            assert bits % 64  # the last word has padding bits
            bad = bytearray(raw)
            bad[start + bits // 8] |= 1 << bits % 8
            with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                Index.from_bytes(reseal(bad))
            size = (bits + 63) // 64 * 8
            assert raw[:start] + _pack(width, values) + raw[start + size:] == raw
            wider = bytearray(raw[:start] + _pack(width + 1, values) + raw[start + size:])
            wider[at[name + "_width"]] = width + 1
            with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                Index.from_bytes(reseal(wider))

    def test_constructor_refuses_what_a_file_cannot_store(self):
        """A file stores chain lengths and the steps inside each group, none
        negative, so chain ends that fall back and a group whose sources fall
        cannot be loaded; the writer refuses them in arrays laid out in
        memory."""
        qn, cp = nfa_pipeline(diamond_nfa())
        ix = build_index(qn, cp)
        a = decoded(ix)[1]

        def rebuilt(arrays):
            return written(alphabet=ix.alphabet, n_original=ix.n_original,
                           e_original=ix.e_original, arrays=arrays,
                           initial_class=ix.initial_class)
        assert list(a.chain_ends) == [4, 5]
        with pytest.raises(ValueError, match="corrupt"):
            rebuilt(a._replace(chain_ends=[6, 5]))
        # group ends [1, 2, 4, 5, 6, 8] and sources [0, 0, 1, 2, 0, 0, 1, 2];
        # edge 3 as 0 makes group 2's sources (1, 0)
        assert (list(a.ends), list(a.sources)) == ([1, 2, 4, 5, 6, 8], [0, 0, 1, 2, 0, 0, 1, 2])
        with pytest.raises(ValueError, match=r"group \(0, 3, 0\) breaks source monotonicity"):
            rebuilt(a._replace(sources=[0, 0, 1, 0, 0, 0, 1, 2]))
        # the targets of one chain's groups on increasing symbols are stored
        # as one run: a group on "b" whose first target lies below the last
        # target of the group on "a" cannot be stored, and is refused
        def two_groups(targets):
            arrays = _Arrays([2], [0, 1], [0, 1], [2, 3], targets, [0, 1, 0], [])
            return written(alphabet=Alphabet(("a", "b")), n_original=2, e_original=3,
                           arrays=arrays, initial_class=None)
        stored = Index.from_bytes(two_groups([0, 1, 1]).to_bytes())
        assert decoded(stored)[1].targets == [0, 1, 1]
        with pytest.raises(ValueError, match=r"group \(0, 1, 0\) starts below"):
            two_groups([0, 1, 0])
        # header fields a file cannot hold: a negative initial class and
        # counts; and ids and a count the reader would refuse: an initial or
        # final class past the last, fewer original nodes than the class map
        past = ix.n_classes
        for automaton, counts in ((replace(qn, initial=-1), {}), (qn, {"n_original": -1}),
                                  (qn, {"e_original": -1}), (replace(qn, initial=past), {}),
                                  (replace(qn, finals=qn.finals | {past}), {}),
                                  (qn, {"n_original": ix.n_original - 1})):
            with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                build_index(automaton, cp, **counts)

    def test_reader_fuzz_behind_a_valid_crc(self):
        """Random non-negative values at their canonical width in one
        one-word stored array of small seeded indexes, resealed with a fresh
        CRC: the reader either refuses the file with a ValueError or makes an
        index whose groups are (target, source)-sorted with non-decreasing
        sources and every position inside its chain, which writes back the
        same bytes and answers every query without raising. No stored value
        is negative, so no order is left for the open to check."""
        rng = random.Random(2501)
        sources = [random_graph(rng, rng.randint(1, 6), rng.randint(1, 3), 0.3)
                   for _ in range(20)]
        sources += [random_trim_nfa(rng, 6, 2, 0.3) for _ in range(20)]
        refused = loaded = 0
        for source in sources:
            raw = run_pipeline(source).index().to_bytes()
            at, (_, arrays) = v6_offsets(raw), decoded(Index.from_bytes(raw))
            one_word = [(name, len(values)) for name, values in zip(_Arrays._fields, arrays)
                        if 0 < len(values) * at[name][1] <= 64]
            for _ in range(100):
                name, length = rng.choice(one_word)
                width = rng.randint(1, min(6, 64 // length))
                bad = bytearray(raw)
                put_stored(bad, at, name, [rng.getrandbits(width) for _ in range(length)])
                bad = reseal(bad)
                try:
                    ix = Index.from_bytes(bad)
                except ValueError:
                    refused += 1
                    continue
                loaded += 1
                a, span = decoded(ix)[1], len(ix.alphabet) * ix.q
                start = 0
                for key, end in zip(a.keys, a.ends):
                    j, i = key // span, key % ix.q
                    edges = list(zip(a.targets[start:end], a.sources[start:end]))
                    assert edges == sorted(edges)
                    assert a.sources[start:end] == sorted(a.sources[start:end])
                    assert edges[-1][0] < ix._offsets[j + 1] - ix._offsets[j]
                    assert edges[-1][1] < ix._offsets[i + 1] - ix._offsets[i]
                    start = end
                assert ix.to_bytes() == bad
                for p in enumerate_strings(ix.alphabet.symbols, 2):
                    ix.map_back(ix.match_pattern(p)[1])
                    if ix.finals is not None:
                        ix.accept(p)
                ix.space_report()
        assert refused > 3000 and loaded > 300, (refused, loaded)

    def test_clxi_bytes_are_pinned(self):
        """The sha256 of two ``.clxi`` files, so that any change to the bytes
        an input is written as shows here."""
        auto = "alphabet a b\nnodes 3\n0 1 a\n1 0 a\n1 2 b\ninitial 0\nfinal 1 2\n"
        # the 12-node de Bruijn graph of ACGTTGCAAGGCTTAC at k = 2
        wheeler = ("alphabet A C G T\nnodes 12\n0 1 G\n0 6 A\n1 2 T\n2 3 T\n3 4 G\n"
                   "3 11 A\n4 5 C\n5 6 A\n5 10 T\n6 0 C\n6 7 A\n7 8 G\n8 9 G\n"
                   "9 5 C\n10 3 T\n11 0 C\n")
        pinned = [
            (auto, "f41bdf7a8dc1c22005dffe6ba3f68ee5272b6cc260ddfb9e6aa93f21b6766860"),
            (wheeler, "ce5f82e50a3c4b098b5f92fc355a6578015e4a4e78322ddd82129e4f3202fd48"),
        ]
        for text, digest in pinned:
            raw = run_pipeline(parse_input(text)).index().to_bytes()
            assert hashlib.sha256(raw).hexdigest() == digest

    def test_workload_bytes_are_pinned(self, monkeypatch):
        """The sha256 of every benchmark workload's ``.clxi`` files, seeds 1
        to 3, each unit built from its text as ``colexgraph build`` builds it
        and the files of one workload and seed concatenated in unit order: a
        change to the bytes the benchmark's inputs are written as shows
        here."""
        workloads = benchmark_workloads(monkeypatch)
        pinned = {
            ("wheeler-dna", 1): "753217d818c5f10f3ad4560526b4adef3751d7840fbcd64c787cc93c098364a2",
            ("wheeler-dna", 2): "3e67dd715052c81dbea7fcf8d304d645423570f98deeb6bb7e630836b7947473",
            ("wheeler-dna", 3): "eaf53041453292ab79e0e541fbcad962e48349b33656ee7620ed4178925cd5aa",
            ("nfa-corpus", 1): "a5ef3a3e90e8616bef6ffaee8fe6cfabca33239127b7db230cc0f86a2ee2556c",
            ("nfa-corpus", 2): "f18ab263be7bab37cbbdc52ad85ecaad0f9a97732348a99a3455b960f86c70a1",
            ("nfa-corpus", 3): "6d041bc5283a01ac489c58ca5f7286294d49521611535574140efb9060a639d1",
        }
        assert set(name for name, _ in pinned) == set(workloads.WORKLOADS)
        for (name, seed), digest in pinned.items():
            files = hashlib.sha256()
            for unit in workloads.WORKLOADS[name](seed).units:
                files.update(run_pipeline(parse_input(unit.text)).index().to_bytes())
            assert files.hexdigest() == digest, (name, seed)

    def test_built_and_loaded_agree(self, graph_corpus):
        """The space report comes from the file widths, so a built index and
        its reloaded copy report the same bits and write the same bytes."""
        for g in graph_corpus:
            built = run_pipeline(g).index()
            raw = built.to_bytes()
            loaded = Index.from_bytes(raw)
            assert loaded.to_bytes() == raw
            assert loaded.space_report() == built.space_report()

    def test_unknown_flag_bits_rejected(self, tmp_path, capsys):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        raw = build_index(qn, cp).to_bytes()
        (flags,) = struct.unpack_from("<H", raw, 6)
        assert flags == 3  # finals and initial
        for bit in range(2, 16):
            bad = bytearray(raw)
            struct.pack_into("<H", bad, 6, flags | 1 << bit)
            with pytest.raises(ValueError, match="corrupt"):
                Index.from_bytes(reseal(bad))
            if bit == 2:
                path = tmp_path / "flags.clxi"
                path.write_bytes(reseal(bad))
                assert main(["accept", str(path), "ab"]) == 2
                assert capsys.readouterr().err == "error: truncated or corrupt index file\n"

    def test_keys_past_64_bits_rejected(self, monkeypatch):
        """A header whose sigma * q * q is over 2**64 is refused before any
        array is decoded: the keys are held as u64."""
        qn, cp = nfa_pipeline(loop_branch_nfa())  # sigma 2
        raw = build_index(qn, cp).to_bytes()
        at_q = v6_offsets(raw)["q"]  # sigma follows q
        unpacked = []
        monkeypatch.setattr(index_module, "_unpack", lambda *args: unpacked.append(args))
        for q, sigma in ((0xFFFFFFFF, 2), (0x10001, 0xFFFFFFFF)):
            assert sigma * q * q > 1 << 64
            bad = bytearray(raw)
            struct.pack_into("<II", bad, at_q, q, sigma)
            with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                Index.from_bytes(reseal(bad))
        assert unpacked == []

    def test_trailing_bytes_rejected(self):
        ix, _, _ = build_from(double_hub_graph(2))
        raw = ix.to_bytes()
        with pytest.raises(ValueError, match="corrupt"):
            Index.from_bytes(reseal(bytearray(raw[:-4] + bytes(8) + raw[-4:])))

    def test_every_bit_flip_and_truncation_rejected(self):
        rng = random.Random(1305)
        for _ in range(3):
            qn, cp = nfa_pipeline(random_trim_nfa(rng, 6, 2, 0.3))
            raw = build_index(qn, cp).to_bytes()
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

    def test_load_unpacks_each_array_once(self, monkeypatch):
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_index(qn, cp).open()
        raw = ix.to_bytes()
        unpacked = []
        real = index_module._unpack

        def spy(width, length, words):
            unpacked.append(length)
            return real(width, length, words)

        def refuse(*args):
            raise AssertionError("loading packed an array")
        with monkeypatch.context() as patch:
            patch.setattr(index_module, "_unpack", spy)
            patch.setattr(index_module, "_pack", refuse)
            again = Index.from_bytes(raw)
        assert unpacked == [len(values) for values in decoded(ix)[1]]
        assert (again._offsets, again._targets, again._sources, again.finals) == \
            (ix._offsets, ix._targets, ix._sources, ix.finals)
        assert again.to_bytes() == raw
        assert again.space_report() == ix.space_report()
        for s in ([], ["a"], ["a", "b"], ["a", "a", "b"]):
            assert again.accept(s) == ix.accept(s)


def count_opens(monkeypatch) -> Counter:
    """Counts of the writer's runs and of the decodes and store checks of
    the indexes constructed from here on."""
    calls = Counter()
    for name in ("_write", "_decode"):
        def spy(*args, _real=getattr(index_module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(index_module, name, spy)
    real_check = Index._check_store

    def check(self, *args):
        calls["_check_store"] += 1
        return real_check(self, *args)
    monkeypatch.setattr(Index, "_check_store", check)
    return calls


class TestOpen:
    """A build writes its file and opens nothing: ``build_index`` returns a
    ``WrittenIndex``, which answers no query. An ``Index`` is open from its
    constructor on: ``from_bytes``, and so ``open()``, decodes, range-checks
    and derives its query structures once, before it returns."""

    OPENED = {"_decode": 1, "_check_store": 1}

    def test_build_writes_once_and_opens_nothing(self, monkeypatch, tmp_path):
        calls = count_opens(monkeypatch)
        qn, cp = nfa_pipeline(loop_branch_nfa())
        ix = build_index(qn, cp)
        assert calls == {"_write": 1}
        ix.save(tmp_path / "x.clxi")
        ix.to_bytes()
        ix.space_report()
        assert (ix.q, ix.n_classes, ix.e_quotient, ix.n_original, ix.e_original,
                ix.initial_class, ix.alphabet.symbols) == (2, 3, 3, 3, 3, 0, ("a", "b"))
        assert calls == {"_write": 1}
        assert type(ix) is WrittenIndex
        for name in ("match_pattern", "match_from", "accept", "follow", "full_set",
                     "set_for_classes", "classes_in", "map_back", "members", "finals"):
            assert not hasattr(ix, name), name

    def test_the_record_keeps_no_array(self):
        """Once ``build_index`` returns, the record holds its bytes and a few
        counts, not the stored or decoded arrays: on a de Bruijn graph of
        2,975 quotient edges, under 2 KiB beside its 6.6 KiB of bytes. Holding
        the stored arrays as Python lists took 160 KiB."""
        built = build_index(*quotient_pipeline(seeded_debruijn(31, 3000, 8)[1]))
        assert built.e_quotient > 2900
        assert deep_size(vars(built), set()) < len(built.to_bytes()) + 2048

    def test_first_query_opens_once(self, monkeypatch):
        """``open()`` decodes and checks the arrays once. The first query of
        the index it returns, and every public entry point after it, does
        neither again; those that read a set refuse one another index made."""
        calls = count_opens(monkeypatch)
        qn, cp = nfa_pipeline(loop_branch_nfa())
        built = build_index(qn, cp)
        foreign = built.open().full_set()
        calls.clear()
        ix = built.open()
        assert calls == self.OPENED
        assert ix.accept(["a", "b"])
        start = ix.set_for_classes([ix.initial_class])
        assert ix.match_pattern(["a", "b"])[0] and not ix.accept(["b"])
        assert ix.map_back(ix.match_from(start, ["a"])[1]) == {1}
        assert ix.classes_in(ix.follow(ix.full_set(), "b")) == [1]
        assert (ix.members, ix.finals) == (((0,), (2,), (1,)), [1, 2])
        for read in SET_READERS:
            with pytest.raises(ValueError, match="not made by this index"):
                read(ix, foreign)
        assert calls == self.OPENED

    def test_from_bytes_opens_before_it_returns(self, monkeypatch):
        """A loaded index has decoded and checked its arrays, and a file with
        a position outside its chain behind a valid CRC is refused by
        ``from_bytes`` itself, not at its first query."""
        qn, cp = nfa_pipeline(loop_branch_nfa())
        raw = build_index(qn, cp).to_bytes()
        calls = count_opens(monkeypatch)
        ix = Index.from_bytes(raw)
        assert calls == self.OPENED
        ix.accept(["a"])
        ix.match_pattern(["b"])
        assert calls == self.OPENED
        bad = bytearray(raw)
        put_stored(bad, v6_offsets(raw), "targets", [0, 1, 1])  # target 1 of a one-class chain
        calls.clear()
        with pytest.raises(ValueError, match=r"has a position outside its chain"):
            Index.from_bytes(reseal(bad))
        assert calls == self.OPENED

    def test_concurrent_first_queries_open_once(self, monkeypatch):
        """Six threads that query one loaded index at the same time each
        answer as ``simulate_nfa`` does: the index opened once, in
        ``from_bytes``, and its queries only read it, with no lock."""
        automaton = top_band_automata()[0]
        raw = run_pipeline(automaton).index().to_bytes()
        strings = list(enumerate_strings(automaton.graph.alphabet.symbols, 3))
        want = [simulate_nfa(automaton, s) for s in strings]
        calls = count_opens(monkeypatch)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                ix = Index.from_bytes(raw)
                answers: list = [None] * 6

                def ask(k, ix=ix, answers=answers):
                    answers[k] = [ix.accept(s) for s in strings]
                threads = [Thread(target=ask, args=(k,)) for k in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert answers == [want] * 6
        finally:
            sys.setswitchinterval(switch)
        assert calls == {"_decode": 10, "_check_store": 10}

    def test_members_are_made_on_first_read(self):
        """``from_bytes`` and ``open()`` keep the checked class map and build
        no member tuples, and neither do the queries that never map back.
        The first read of ``members`` groups the map, and a later read
        returns the same tuple. ``members`` is a plain property: no
        ``__getattr__`` or cached property writes to the instance dict."""
        assert isinstance(vars(Index)["members"], property)
        assert "__getattr__" not in vars(Index)
        qn, cp = nfa_pipeline(loop_branch_nfa())
        built = build_index(qn, cp)
        for ix in (Index.from_bytes(built.to_bytes()), built.open()):
            assert ix._members is None and ix.n_nodes == 3
            assert ix.accept(["a", "b"]) and ix.match_pattern(["a"])[0]
            assert ix.classes_in(ix.follow(ix.full_set(), "b")) == [1]
            assert ix._members is None
            members = ix.members
            assert members == ((0,), (2,), (1,))
            assert ix.members is members and ix._members is members
        ix = Index.from_bytes(built.to_bytes())
        assert ix.map_back(ix.full_set()) == {0, 1, 2} and ix._members == ((0,), (2,), (1,))

    def test_members_equal_the_partitions(self, graph_corpus, monkeypatch):
        """The members an opened index makes from its class map are the
        quotient's partition, and the indexed-node count is the class map's
        length: on 200 corpus graphs, on criterion 5's automata and on every
        unit of both benchmark workloads, seeds 1 to 3."""
        workloads = benchmark_workloads(monkeypatch)
        texts = [unit.text for make in workloads.WORKLOADS.values() for seed in (1, 2, 3)
                 for unit in make(seed).units]
        for source in (*graph_corpus[::5], *criterion_5_automata(), *map(parse_input, texts)):
            result = run_pipeline(source)
            ix = result.index().open()
            part = result.quotient.partition
            assert ix.n_nodes == len(part.class_of)
            assert ix.members == part.members

    def test_concurrent_first_reads_make_equal_members(self):
        """Eight threads, released together by a barrier, each map the full
        set of one freshly opened de Bruijn index back. Each gets every
        node, and the members kept, whichever thread's store kept them, are
        those an independent decode of the class map gives."""
        g = seeded_debruijn(38, 1200, 8)[1]
        raw = run_pipeline(g).index().to_bytes()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ix = Index.from_bytes(raw)
                barrier = Barrier(8)
                answers: list = [None] * 8

                def read(k, ix=ix, barrier=barrier, answers=answers):
                    barrier.wait(timeout=30)
                    answers[k] = ix.map_back(ix.full_set())
                threads = [Thread(target=read, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert answers == [frozenset(range(g.n))] * 8
                reference: list[list[int]] = [[] for _ in range(ix.n_classes)]
                for v, cid in enumerate(decoded(ix)[1].class_map):
                    reference[cid].append(v)
                assert ix.members == tuple(map(tuple, reference))
        finally:
            sys.setswitchinterval(switch)

    def test_a_refused_open_is_refused_again(self):
        """Arrays the writer stores but the range checks refuse: the record
        is written, and ``open()`` refuses it with the range check's message,
        a second time as the first, since each open reads the bytes anew and
        sums no position twice. Two chains of two classes: group 0, from
        chain 0, has the targets 1 and 1, and group 1, from chain 1, the
        target 2."""
        arrays = _Arrays([2, 4], list(range(4)), [0, 1], [2, 3], [1, 1, 2], [0, 1, 0], [])
        alphabet = Alphabet(("a",))
        raw, widths, stored = _write(alphabet, 4, 3, arrays, None)
        record = WrittenIndex(raw, alphabet, widths, stored)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^group \(0, 0, 1\) has a position outside"):
                record.open()

    def test_built_before_any_query_reports_as_loaded(self, graph_corpus):
        """A built record writes the same bytes and reports the same counts
        and space as the index loaded from them, and the index its
        ``open()`` returns answers every query as the loaded one does."""
        rng = random.Random(2601)
        sources = [*rng.sample(graph_corpus, 100), *criterion_5_automata()[:100]]
        header = ("q", "n_classes", "e_quotient", "n_original", "e_original",
                  "initial_class", "alphabet")
        for source in sources:
            nfa = isinstance(source, Nfa)
            built = run_pipeline(source).index()
            loaded = Index.from_bytes(built.to_bytes())
            assert [getattr(built, name) for name in header] == \
                [getattr(loaded, name) for name in header]
            assert built.to_bytes() == loaded.to_bytes()
            assert built.space_report() == loaded.space_report()
            opened = built.open()
            for p in enumerate_strings(built.alphabet.symbols, 3):
                matched, end = opened.match_pattern(p)
                again, end_again = loaded.match_pattern(p)
                assert (matched, opened.map_back(end)) == (again, loaded.map_back(end_again))
                if nfa:
                    assert opened.accept(p) == loaded.accept(p)
            assert (opened.members, opened.finals) == (loaded.members, loaded.finals)


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
