import random

import numpy as np
import pytest
from hypothesis import given, settings

from colexgraph import (ClassPartition, LabeledGraph, Nfa, Preorder, Relation, build_index,
                        classes, first_axiom_violation, max_colex_relation,
                        min_chain_partition, quotient_graph, quotient_nfa)
from colexgraph.oracle import (dfa_isomorphic, enumerate_convex_sets, enumerate_strings,
                               identity_relation, is_colex_relation, is_convex, lambda_sets,
                               language_equiv, lift_classes, lift_relation, powerset,
                               preorder_width, project_nodes, project_relation,
                               random_colex_relation, random_graph, random_trim_nfa,
                               relation_from_pairs, simulate_nfa, transitive_closure)
from conftest import (SEED_GRAPH_CORPUS, SEED_NFA_CORPUS, diamond_nfa, double_hub_graph, funnel_nfa, loop_branch_nfa,
                      small_graphs, two_cycle_graph)


def assert_same_partition_chain_major(pre: Preorder, reference: ClassPartition) -> None:
    """``classes(pre)`` has the reference's classes, numbered chain-major: the
    chains of the class order are consecutive id ranges, in order."""
    part = classes(pre)
    assert set(part.members) == set(reference.members)
    assert all(part.class_of[v] == cid for cid, group in enumerate(part.members) for v in group)
    order = pre.class_order()
    chains = min_chain_partition(order).chains
    assert [c for chain in chains for c in chain] == list(range(part.count))
    assert all(order.holds(c, c + 1) for chain in chains for c in chain[:-1])


class TestClasses:
    def test_identity_gives_singletons(self):
        part = classes(Preorder(identity_relation(4).bits))
        assert part.members == ((0,), (1,), (2,), (3,))

    def test_loop_branch_merges_the_swap(self):
        g = loop_branch_nfa().graph
        part = classes(max_colex_relation(g))
        assert part.members == ((0, 1), (2,))

    def test_double_hub_groups(self):
        # chain-major: the hubs sit below the sinks on the one chain
        part = classes(max_colex_relation(double_hub_graph(3)))
        assert part.members == ((3, 4), (0, 1, 2))
        assert part.class_of == (1, 1, 1, 0, 0)

    def test_same_partition_as_the_member_loop(self):
        # Reference: each unseen node's mutual row, straight from the definition.
        def by_loop(pre):
            mutual = pre.bits & pre.bits.T
            class_of = [-1] * pre.n
            members = []
            for v in range(pre.n):
                if class_of[v] < 0:
                    group = tuple(int(u) for u in np.nonzero(mutual[v])[0])
                    for u in group:
                        class_of[u] = len(members)
                    members.append(group)
            return ClassPartition(tuple(class_of), tuple(members))

        rng = random.Random(SEED_NFA_CORPUS)
        for _ in range(300):
            n = rng.randint(1, 14)
            keep = np.random.default_rng(rng.randrange(1 << 30)).random((n, n)) < 0.2
            np.fill_diagonal(keep, True)
            pre = transitive_closure(Relation(keep))
            assert_same_partition_chain_major(pre, by_loop(pre))
            g = random_graph(rng, n, rng.randint(1, 3), 0.3)
            pre = max_colex_relation(g)
            assert_same_partition_chain_major(pre, by_loop(pre))


class TestInducedOrder:
    def test_identity(self):
        pre = Preorder(identity_relation(3).bits)
        assert pre.class_order() == Preorder(identity_relation(3).bits)

    def test_double_hub_total_order(self):
        pre = max_colex_relation(double_hub_graph(2))
        order = pre.class_order()
        assert order.n == 2 and order.holds(0, 1) and not order.holds(1, 0)
        assert min_chain_partition(order).chain_count == 1

    def test_two_cycle_single_class(self):
        pre = max_colex_relation(two_cycle_graph())
        order = pre.class_order()
        assert order.n == 1 and preorder_width(pre) == 1

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_width_equals_preorder_width(self, g):
        pre = max_colex_relation(g)
        order = pre.class_order()
        assert min_chain_partition(order).chain_count == preorder_width(pre)


class TestQuotientGraph:
    def test_loop_branch_golden(self):
        g = loop_branch_nfa().graph
        qg = quotient_graph(g, max_colex_relation(g))
        assert qg.partition.members == ((0, 1), (2,))
        assert set(qg.graph.edges) == {(0, 0, "a"), (0, 1, "b")}

    def test_identity_preorder_is_isomorphic_copy(self):
        g = loop_branch_nfa().graph
        qg = quotient_graph(g, Preorder(identity_relation(3).bits))
        assert qg.graph == g

    def test_double_hub_single_edge_and_single_in(self):
        g = double_hub_graph(3)
        qg = quotient_graph(g, max_colex_relation(g))
        assert qg.graph.n == 2
        assert set(qg.graph.edges) == {(0, 1, "a")}

    def test_rejects_non_colex_preorder(self):
        g = loop_branch_nfa().graph
        pre = transitive_closure(relation_from_pairs(3, [(2, 0)]))
        with pytest.raises(ValueError):
            quotient_graph(g, pre)

    def test_marked_maximum_relation_meets_the_unmarked_axioms(self, graph_corpus):
        # A marker only widens label sets, so the axioms that quotient_graph
        # checks on the graph as given hold for a relation computed with one.
        rng = random.Random(SEED_GRAPH_CORPUS)
        for g in graph_corpus:
            marked = frozenset(v for v in range(g.n) if rng.random() < 0.3)
            assert first_axiom_violation(g, max_colex_relation(g, marked)) is None, (g, marked)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_induced_order_is_max_relation_of_quotient(self, g):
        # On the quotient, the inherited order is itself the maximum relation.
        pre = max_colex_relation(g)
        qg = quotient_graph(g, pre)
        assert max_colex_relation(qg.graph) == qg.order

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_quotient_label_sets_match(self, g):
        pre = max_colex_relation(g)
        qg = quotient_graph(g, pre)
        original = lambda_sets(g)
        quotiented = lambda_sets(qg.graph)
        for v in range(g.n):
            assert original[v] == quotiented[qg.partition.class_of[v]]


class TestQuotientNfa:
    def test_loop_branch_marked_does_not_merge(self):
        nfa = loop_branch_nfa()
        pre = max_colex_relation(nfa.graph, {nfa.initial})
        qn = quotient_nfa(nfa, pre)
        assert qn.quotient.partition.count == 3
        assert qn.initial == 0 and qn.finals == {1, 2}
        assert is_convex(pre, {nfa.initial})

    def test_funnel_collapses_to_three_state_chain(self):
        nfa = funnel_nfa(4)
        pre = max_colex_relation(nfa.graph, {nfa.initial})
        qn = quotient_nfa(nfa, pre)
        assert qn.quotient.partition.members == ((0,), (1, 2), (3, 4, 5, 6))
        assert set(qn.quotient.graph.edges) == {(0, 1, "a"), (1, 2, "a")}
        assert language_equiv(nfa, qn.as_nfa())

    def test_distinct_string_sets_stay_unmerged(self):
        nfa = diamond_nfa()  # every state reads a different string set
        pre = max_colex_relation(nfa.graph, {nfa.initial})
        qn = quotient_nfa(nfa, pre)
        assert qn.quotient.partition.count == nfa.graph.n

    def test_trim_dfa_stays_isomorphic(self):
        g = LabeledGraph.build(4, [(0, 1, "a"), (0, 2, "b"), (1, 3, "c"), (2, 3, "d")],
                               ["a", "b", "c", "d"])
        dfa = Nfa(g, 0, frozenset({3}))
        qn = quotient_nfa(dfa, max_colex_relation(g, {0}))
        assert qn.quotient.partition.count == g.n
        assert qn.quotient.graph == g

    def test_unmarked_preorder_rejected(self):
        nfa = loop_branch_nfa()
        with pytest.raises(ValueError, match="^initial class is not a singleton"):
            quotient_nfa(nfa, max_colex_relation(nfa.graph))

    def test_unmarked_maximum_relation_keeps_the_language(self):
        """The certificate reads no marker: whenever ``quotient_nfa`` returns
        the quotient of an unmarked maximum relation, it keeps the language and
        its index accepts what the automaton accepts. Some of these relations
        break the axioms with the initial state marked, which a check with the
        marker would have refused."""
        rng = random.Random(SEED_NFA_CORPUS)
        returned = marked_violations = 0
        for _ in range(1000):
            nfa = random_trim_nfa(rng, 8, 2, 0.2)
            pre = max_colex_relation(nfa.graph)
            try:
                qn = quotient_nfa(nfa, pre)
            except ValueError:
                continue
            returned += 1
            marked_violations += first_axiom_violation(nfa.graph, pre, {nfa.initial}) is not None
            assert language_equiv(nfa, qn.as_nfa()), nfa
            ix = build_index(qn, min_chain_partition(qn.quotient.order)).open()
            for word in enumerate_strings(nfa.graph.alphabet.symbols, 4):
                assert ix.accept(word) == simulate_nfa(nfa, word), (nfa, word)
        assert returned >= 900 and marked_violations >= 30, (returned, marked_violations)

    @given(small_graphs(max_n=5, allow_empty=False))
    @settings(max_examples=30, deadline=None)
    def test_language_preserved(self, g):
        from colexgraph import EmptyLanguageError, trim_nfa
        try:
            nfa, _ = trim_nfa(Nfa(g, 0, frozenset({g.n - 1})))
        except EmptyLanguageError:
            return
        pre = max_colex_relation(nfa.graph, {nfa.initial})
        qn = quotient_nfa(nfa, pre)
        assert language_equiv(nfa, qn.as_nfa())

    def test_powerset_isomorphic_to_original(self, rng):
        for _ in range(25):
            nfa = random_trim_nfa(rng, 7, 3, 0.2)
            pre = max_colex_relation(nfa.graph, {nfa.initial})
            qn = quotient_nfa(nfa, pre)
            assert dfa_isomorphic(powerset(nfa), powerset(qn.as_nfa()))

    def test_merged_unreachable_sources_build(self):
        # 2 and 3 have no in-edges and are not marked, so the maximum relation
        # merges them; the class has no in-edge at all and reads nothing.
        g = LabeledGraph.build(4, [(0, 1, "a"), (2, 1, "b"), (3, 1, "b")], ["a", "b"])
        nfa = Nfa(g, 0, frozenset({1}))
        qn = quotient_nfa(nfa, max_colex_relation(g, {0}))
        assert qn.quotient.partition.members == ((2, 3), (0,), (1,))
        assert language_equiv(nfa, qn.as_nfa())


def merge_groups(rng, n):
    """Every pair of states, and three random groups of 3-5 states."""
    groups = [[u, v] for u in range(n) for v in range(u + 1, n)]
    if n >= 3:
        groups += [rng.sample(range(n), rng.randint(3, min(5, n))) for _ in range(3)]
    return groups


class TestLanguageCertificate:
    def test_certified_merges_keep_the_language(self, monkeypatch):
        # With the axiom check patched out, arbitrary merges reach the linear
        # certificate, which must refuse every one that changes the language.
        monkeypatch.setattr("colexgraph.quotient.first_axiom_violation", lambda *args: None)
        rng = random.Random(SEED_NFA_CORPUS)
        trimmed = [random_trim_nfa(rng, 8, 1, 0.2) for _ in range(500)]
        untrimmed = []
        for _ in range(300):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, rng.randint(1, 2), 0.15)
            untrimmed.append(Nfa(g, 0, frozenset(v for v in range(n) if rng.random() < 0.4)))
        for family in (trimmed, untrimmed):
            certified = refused = 0
            for a in family:
                for group in merge_groups(rng, a.graph.n):
                    bits = np.eye(a.graph.n, dtype=bool)
                    bits[np.ix_(group, group)] = True
                    try:
                        qn = quotient_nfa(a, Preorder(bits))
                    except (ValueError, AssertionError):
                        refused += 1
                        continue
                    certified += 1
                    assert language_equiv(a, qn.as_nfa()), (a, group)
            assert certified >= 20 and refused >= 20, (certified, refused)


class TestCorrespondences:
    @given(small_graphs(max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_convex_sets_are_unions_of_classes(self, g):
        pre = max_colex_relation(g)
        part = classes(pre)
        for s in enumerate_convex_sets(pre):
            for v in s:
                assert set(part.members[part.class_of[v]]) <= s

    @given(small_graphs(max_n=5))
    @settings(max_examples=20, deadline=None)
    def test_convex_bijection_round_trips(self, g):
        pre = max_colex_relation(g)
        part = classes(pre)
        order = pre.class_order()
        node_convex = enumerate_convex_sets(pre)
        class_convex = enumerate_convex_sets(order)
        assert len(node_convex) == len(class_convex)
        for s in node_convex:
            assert lift_classes(part, project_nodes(part, s)) == s
        for cs in class_convex:
            assert project_nodes(part, lift_classes(part, cs)) == cs
            assert is_convex(pre, lift_classes(part, cs))

    @given(small_graphs(max_n=5))
    @settings(max_examples=20, deadline=None)
    def test_relation_bijection_round_trips(self, g):
        rng = random.Random(17)
        pre = max_colex_relation(g)
        qg = quotient_graph(g, pre)
        part = qg.partition
        r_cls = random_colex_relation(rng, qg.graph)
        assert is_colex_relation(qg.graph, r_cls)
        lifted = lift_relation(part, r_cls)
        assert is_colex_relation(g, lifted)
        assert project_relation(part, lifted) == r_cls
        assert lift_relation(part, project_relation(part, lifted)) == lifted
        assert project_relation(part, pre) == qg.order
