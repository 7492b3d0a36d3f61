import random

import numpy as np
import pytest
from hypothesis import given, settings

from colexgraph import (AT, HASH, Alphabet, EmptyLanguageError, GraphFormatError,
                        LabeledGraph, Nfa, format_graph, format_nfa, parse_graph, parse_input,
                        parse_nfa, trim_nfa)
from colexgraph.oracle import angle, lambda_sets, random_graph
from conftest import (SEED_NFA_CORPUS, fan_graph, funnel_nfa, loop_branch_nfa, small_graphs,
                      small_nfas)


class TestAlphabet:
    def test_order_is_declaration_order(self):
        alph = Alphabet(("z", "a", "m"))
        assert alph.rank("z") < alph.rank("a") < alph.rank("m")

    def test_markers_sort_below_everything(self):
        alph = Alphabet(("a",))
        assert alph.rank(HASH) < alph.rank(AT) < alph.rank("a")

    def test_rejects_markers_and_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet((HASH,))
        with pytest.raises(ValueError):
            Alphabet((AT,))
        with pytest.raises(ValueError):
            Alphabet(("a b",))


class TestParsing:
    def test_fan_example(self):
        g = parse_graph("nodes 3\n0 1 a\n0 2 a\n")
        assert g.n == 3
        assert len(g.edges) == 2

    def test_no_edges(self):
        g = parse_graph("nodes 1\n")
        assert g.n == 1 and not g.edges

    def test_duplicate_edge_lines_collapse(self):
        g = parse_graph("nodes 2\n0 1 a\n0 1 a\n")
        assert len(g.edges) == 1

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# heading\n\nnodes 2\n# another\n0 1 x\n")
        assert len(g.edges) == 1

    def test_alphabet_line_fixes_order(self):
        g = parse_graph("alphabet b a\nnodes 2\n0 1 a\n1 0 b\n")
        assert g.alphabet.symbols == ("b", "a")

    def test_implicit_alphabet_uses_first_appearance(self):
        g = parse_graph("nodes 2\n0 1 c\n1 0 a\n0 0 c\n")
        assert g.alphabet.symbols == ("c", "a")

    @pytest.mark.parametrize("text", [
        "0 1 a\n",                      # edge before nodes
        "nodes 2\n0 1\n",               # malformed edge
        "nodes 2\nnodes 2\n",           # duplicate nodes
        "alphabet a\nnodes 2\n0 1 b\n",  # unknown symbol
        "nodes 2\n0 5 a\n",             # out of range
        "nodes 2\n0 1 @\n",             # marker label
        "nodes -1\n",
        "nodes 2\ninitial 0\n",         # automaton directive in graph file
    ])
    def test_parse_errors(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    @pytest.mark.parametrize("text, message", [
        ("0 1 a\n", "line 1: 'nodes' line must come first"),
        ("x 1 a\n", "line 1: expected a node index, got 'x'"),
        ("nodes 2\n0 1\n", "line 2: expected '<src> <dst> <label>'"),
        ("nodes 2\n0 1 a b\n", "line 2: expected '<src> <dst> <label>'"),
        ("nodes 2\n5 x a\n", "line 2: node 5 out of declared range 0..1"),
        ("nodes 2\n0 x a\n", "line 2: expected a node index, got 'x'"),
        ("nodes 2\n-1 0 a\n", "line 2: node -1 out of declared range 0..1"),
        ("nodes 2\n0 1 a\n1 1 a\n0 2 a\n", "line 4: node 2 out of declared range 0..1"),
        ("alphabet a\nnodes 2\n0 1 b\n", "line 3: unknown symbol 'b'"),
        ("alphabet a\nnodes 2\n0 1 @\n", "line 3: marker '@' cannot be an edge label"),
        ("nodes 2\n0 1 #\n", "line 2: marker '#' cannot be an edge label"),
        ("nodes 2\n0 1 a\nalphabet a\n", "line 3: alphabet line must precede edges"),
        ("nodes 2\n0 1 #x\n", "line 2: edge label '#x' cannot start with marker '#'"),
        ("alphabet a\nnodes 2\n0 1 a\n1 0 #x\n",
         "line 4: edge label '#x' cannot start with marker '#'"),
        ("\n  # c\nnodes 1\n 0 0 a \n1 0 a\n", "line 5: node 1 out of declared range 0..0"),
    ])
    def test_parse_error_messages(self, text, message):
        """Each refusal names the first bad line, whichever check it fails."""
        with pytest.raises(GraphFormatError) as caught:
            parse_graph(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("parse, text, message", [
        (parse_graph, "alphabet a\nalphabet a\nnodes 1\n", "line 2: duplicate alphabet line"),
        (parse_graph, "alphabet\nnodes 1\n", "line 1: empty alphabet"),
        (parse_graph, "alphabet a a\nnodes 1\n", "line 1: duplicate alphabet symbol 'a'"),
        (parse_graph, "alphabet a @\nnodes 1\n", "line 1: invalid alphabet symbol '@'"),
        (parse_graph, "nodes 1 2\n", "line 1: expected 'nodes <count>'"),
        (parse_graph, "nodes x\n", "line 1: bad node count 'x'"),
        (parse_nfa, "nodes 2\ninitial 0\ninitial 1\nfinal 1\n", "line 3: duplicate initial line"),
        (parse_nfa, "nodes 2\ninitial 0 1\nfinal 1\n", "line 2: expected 'initial <state>'"),
        (parse_graph, "nodes 2\nfinal 1\n", "line 2: 'final' is only valid in an automaton file"),
        (parse_nfa, "nodes 2\ninitial 0\nfinal 1\nfinal 0\n", "line 4: duplicate final line"),
        (parse_graph, "alphabet a\n# nodes 1\n", "missing 'nodes' line"),
    ])
    def test_directive_error_messages(self, parse, text, message):
        """The refusals of the ``alphabet``, ``nodes``, ``initial`` and ``final``
        lines, and of a text with no ``nodes`` line, word for word."""
        with pytest.raises(GraphFormatError) as caught:
            parse(text)
        assert str(caught.value) == message

    def test_nfa_roundtrip(self):
        nfa = loop_branch_nfa()
        again = parse_nfa(format_nfa(nfa))
        assert again == nfa

    def test_nfa_requires_initial_and_final(self):
        with pytest.raises(GraphFormatError):
            parse_nfa("nodes 1\nfinal 0\n")
        with pytest.raises(GraphFormatError):
            parse_nfa("nodes 1\ninitial 0\n")

    def test_parse_input_tells_automata_from_graphs(self):
        assert parse_input(format_nfa(loop_branch_nfa())) == loop_branch_nfa()
        assert parse_input(format_graph(fan_graph())) == fan_graph()
        with pytest.raises(GraphFormatError, match="missing 'initial' line"):
            parse_input("nodes 1\nfinal 0\n")
        with pytest.raises(GraphFormatError, match="missing 'final' line"):
            parse_input("nodes 1\ninitial 0\n")

    @given(small_graphs())
    @settings(max_examples=60)
    def test_format_parse_roundtrip(self, g):
        assert parse_graph(format_graph(g)) == g


class TestGraphRefusals:
    """The refusals of ``LabeledGraph`` and ``Nfa``, word for word: the edge
    checks run on all edges at once and fall back to a per-edge loop that
    words the first refusal."""

    @pytest.mark.parametrize("edge, message", [
        ((0, 2, "a"), "edge (0,2,'a') out of node range 0..1"),
        ((2, 0, "a"), "edge (2,0,'a') out of node range 0..1"),
        ((-1, 0, "a"), "edge (-1,0,'a') out of node range 0..1"),
        ((0, -1, "a"), "edge (0,-1,'a') out of node range 0..1"),
        ((0, 1, "c"), "edge label 'c' is not a user symbol"),
        ((0, 1, HASH), "edge label '#' is not a user symbol"),
        ((0, 1, AT), "edge label '@' is not a user symbol"),
        ((0, 1), "not enough values to unpack (expected 3, got 2)"),
    ])
    def test_bad_edge(self, edge, message):
        with pytest.raises(ValueError) as caught:
            LabeledGraph(2, frozenset({edge}), Alphabet(("a", "b")))
        assert str(caught.value) == message

    @pytest.mark.parametrize("edges", [
        {(1, 1, "a", "b")},
        # next to triples: a zip that truncated would pass the 4-tuple
        {(0, 1, "a"), (1, 0, "b"), (1, 1, "a", "b")},
    ])
    def test_edge_longer_than_a_triple(self, edges):
        # Python's own unpacking message, which newer versions extend
        with pytest.raises(ValueError, match=r"^too many values to unpack \(expected 3"):
            LabeledGraph(2, frozenset(edges), Alphabet(("a", "b")))

    @pytest.mark.parametrize("bad", [0.5, float("nan")])
    def test_node_that_is_not_an_integer(self, bad):
        for edge in ((bad, 1, "a"), (1, bad, "a")):
            with pytest.raises(ValueError) as caught:
                LabeledGraph(2, frozenset({edge, (1, 0, "a")}), Alphabet(("a",)))
            u, v, _ = edge
            assert str(caught.value) == f"edge ({u},{v},'a') has a node that is not an integer"

    def test_no_edges(self):
        assert LabeledGraph(0, frozenset(), Alphabet(())).n == 0
        with pytest.raises(ValueError, match=r"^edge \(0,0,'a'\) out of node range 0\.\.-1$"):
            LabeledGraph(0, frozenset({(0, 0, "a")}), Alphabet(("a",)))
        with pytest.raises(ValueError, match="^node count must be non-negative$"):
            LabeledGraph(-1, frozenset(), Alphabet(("a",)))

    @pytest.mark.parametrize("initial, finals, message", [
        (2, {1}, "initial state out of range"),
        (-1, {1}, "initial state out of range"),
        (0, {2}, "final state out of range"),
        (0, {1, -1}, "final state out of range"),
    ])
    def test_nfa_states_out_of_range(self, initial, finals, message):
        g = LabeledGraph(2, frozenset({(0, 1, "a")}), Alphabet(("a",)))
        with pytest.raises(ValueError) as caught:
            Nfa(g, initial, frozenset(finals))
        assert str(caught.value) == message

    @pytest.mark.parametrize("initial, finals, message", [
        (0.5, {1}, "initial state 0.5 is not an integer"),
        ("0", {1}, "initial state '0' is not an integer"),
        (0, {1.5}, "final state 1.5 is not an integer"),
        (0, {1, None}, "final state None is not an integer"),
    ])
    def test_nfa_states_that_are_not_integers(self, initial, finals, message):
        """A state that is not an integer is refused by its type, before the
        range checks: 0.5 would pass them (0 <= 0.5 < 2), and "0" would stop
        them with a TypeError. Integers of other types pass."""
        g = LabeledGraph(2, frozenset({(0, 1, "a")}), Alphabet(("a",)))
        with pytest.raises(ValueError) as caught:
            Nfa(g, initial, frozenset(finals))
        assert str(caught.value) == message
        assert Nfa(g, np.int64(0), frozenset({True})).initial == 0


class TestLambdaSets:
    def test_fan_unmarked(self):
        assert lambda_sets(fan_graph()) == [
            frozenset({HASH}), frozenset({"a"}), frozenset({"a"})]

    def test_loop_branch_marked(self):
        g = loop_branch_nfa().graph
        assert lambda_sets(g, {0}) == [
            frozenset({AT, "a"}), frozenset({"a"}), frozenset({"b"})]

    def test_isolated_marked_node(self):
        g = LabeledGraph.build(1, [], ["a"])
        assert lambda_sets(g, {0}) == [frozenset({HASH, AT})]

    @given(small_graphs())
    @settings(max_examples=60)
    def test_always_nonempty(self, g):
        marked = set(range(0, g.n, 2))
        assert all(lam for lam in lambda_sets(g, marked))


class TestAngle:
    def test_hash_below_symbols(self):
        alph = Alphabet(("a",))
        assert angle(frozenset({HASH}), frozenset({"a"}), alph)

    def test_equal_singletons_go_both_ways(self):
        alph = Alphabet(("a",))
        s = frozenset({"a"})
        assert angle(s, s, alph) and angle(s, s, alph)

    def test_marker_mixed_set(self):
        alph = Alphabet(("a",))
        assert not angle(frozenset({AT, "a"}), frozenset({AT}), alph)

    @given(small_graphs())
    @settings(max_examples=50)
    def test_transitive_and_antisymmetric_to_singletons(self, g):
        lams = lambda_sets(g, {0} if g.n else set())
        alph = g.alphabet
        for x in lams:
            for y in lams:
                if angle(x, y, alph) and angle(y, x, alph):
                    assert x == y and len(x) == 1
                for z in lams:
                    if angle(x, y, alph) and angle(y, z, alph):
                        assert angle(x, z, alph)


class TestTrim:
    def test_unreachable_state_removed(self):
        g = LabeledGraph.build(3, [(0, 1, "a")], ["a"])
        trimmed, kept = trim_nfa(Nfa(g, 0, frozenset({1})))
        assert trimmed.graph.n == 2 and kept == (0, 1)

    def test_clean_automaton_is_identity(self):
        nfa = loop_branch_nfa()
        trimmed, kept = trim_nfa(nfa)
        assert trimmed == nfa and kept == (0, 1, 2)

    def test_funnel_all_states_live(self):
        nfa = funnel_nfa(3)
        trimmed, kept = trim_nfa(nfa)
        assert trimmed == nfa and kept == tuple(range(6))

    def test_empty_language_raises(self):
        g = LabeledGraph.build(2, [(0, 1, "a")], ["a"])
        with pytest.raises(EmptyLanguageError):
            trim_nfa(Nfa(g, 1, frozenset({0})))

    @given(small_nfas())
    @settings(max_examples=60)
    def test_idempotent(self, nfa):
        try:
            once, _ = trim_nfa(nfa)
        except EmptyLanguageError:
            return
        twice, kept = trim_nfa(once)
        assert twice == once and kept == tuple(range(once.graph.n))

    def test_agrees_with_brute_force_reachability(self):
        """Sparse random automata with unreachable and dead states, trimmed
        and compared with reachability read off repeated edge scans."""
        rng = random.Random(SEED_NFA_CORPUS)
        seen = {"unreachable": 0, "dead": 0, "empty": 0, "identity": 0}
        for _ in range(400):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.randint(1, 3), rng.choice([0.03, 0.08, 0.15]))
            nfa = Nfa(g, rng.randrange(n), frozenset(v for v in range(n) if rng.random() < 0.2))
            reach = scan_closure({(u, v) for u, v, _ in g.edges}, {nfa.initial})
            coreach = scan_closure({(v, u) for u, v, _ in g.edges}, set(nfa.finals))
            kept = tuple(v for v in range(n) if v in reach and v in coreach)
            if nfa.initial not in kept:
                seen["empty"] += 1
                with pytest.raises(EmptyLanguageError):
                    trim_nfa(nfa)
                continue
            seen["unreachable"] += len(reach) < n
            seen["dead"] += len(coreach) < n
            seen["identity"] += len(kept) == n
            trimmed, got = trim_nfa(nfa)
            assert got == kept
            new = {old: i for i, old in enumerate(kept)}
            assert trimmed.graph.n == len(kept) and trimmed.graph.alphabet == g.alphabet
            assert trimmed.initial == new[nfa.initial]
            assert trimmed.finals == {new[f] for f in nfa.finals if f in new}
            assert trimmed.graph.edges == {(new[u], new[v], a) for u, v, a in g.edges
                                           if u in new and v in new}
        assert min(seen.values()) >= 30, seen


def scan_closure(arcs: set[tuple[int, int]], start: set[int]) -> set[int]:
    """Nodes reached from ``start`` along ``arcs``: scan every arc until a
    scan adds nothing."""
    seen = set(start)
    while True:
        more = {v for u, v in arcs if u in seen} - seen
        if not more:
            return seen
        seen |= more
