import pytest
from hypothesis import given, settings

from colexgraph import (ChainPartition, ClassPartition, LabeledGraph, Nfa,
                        max_colex_relation, quotient_nfa, run_pipeline)
from colexgraph.oracle import (brute_theta, check_monotonic, check_powerset_bounds,
                               colex_key, dfa_isomorphic, exhaustive_max_antichain,
                               gfp_max_relation, identity_relation, is_acyclic, is_convex,
                               language_equiv, monotone_groups_hold, powerset, prec_a_acyclic,
                               preorder_width, random_acyclic_nfa, reached_string_sets,
                               refines, relation_from_pairs, simulate_nfa,
                               single_in_edge_holds)
from conftest import (diamond_nfa, double_hub_graph, funnel_nfa, loop_branch_nfa,
                      small_graphs, two_cycle_graph)
from helpers import expected_double_hub_relation


class TestBruteTheta:
    def test_empty_start(self):
        assert brute_theta(loop_branch_nfa().graph, set(), ("a",)) == frozenset()

    def test_epsilon_is_identity(self):
        g = loop_branch_nfa().graph
        assert brute_theta(g, range(g.n), ()) == frozenset(range(g.n))

    def test_loop_branch_ab_path(self):
        assert brute_theta(loop_branch_nfa().graph, {0}, ("a", "b")) == {2}


class TestGfp:
    def test_two_cycle(self):
        assert set(gfp_max_relation(two_cycle_graph()).strict_pairs()) == {(0, 1), (1, 0)}

    def test_double_hub_caption(self):
        got = gfp_max_relation(double_hub_graph(3))
        assert got.bits.tolist() == expected_double_hub_relation(3).bits.tolist()


class TestIsConvex:
    def test_trivial_sets(self):
        pre = max_colex_relation(loop_branch_nfa().graph)
        assert is_convex(pre, set()) and is_convex(pre, {0, 1, 2})

    def test_single_state_not_convex_without_marker(self):
        pre = max_colex_relation(loop_branch_nfa().graph)
        assert not is_convex(pre, {0})

    def test_single_state_convex_with_marker(self):
        pre = max_colex_relation(loop_branch_nfa().graph, {0})
        assert is_convex(pre, {0})


def small_dfa() -> Nfa:
    g = LabeledGraph.build(4, [(0, 1, "a"), (0, 2, "b"), (1, 3, "c"), (2, 3, "d")],
                           ["a", "b", "c", "d"])
    return Nfa(g, 0, frozenset({3}))


class TestPowerset:
    def test_dfa_stays_isomorphic(self):
        dfa = small_dfa()
        ps = powerset(dfa)
        assert len(ps.subsets) == dfa.graph.n
        assert all(len(s) == 1 for s in ps.subsets)

    def test_funnel_three_states(self):
        ps = powerset(funnel_nfa(4))
        assert [sorted(s) for s in ps.subsets] == [[0], [1, 2], [3, 4, 5, 6]]

    def test_diamond_subsets(self):
        ps = powerset(diamond_nfa())
        assert sorted(tuple(sorted(s)) for s in ps.subsets) == [
            (0,), (1,), (2,), (3,), (3, 4), (4,)]

    def test_language_preserved(self, rng):
        from colexgraph.oracle import enumerate_strings, random_trim_nfa
        for _ in range(15):
            nfa = random_trim_nfa(rng, 6, 2, 0.25)
            ps = powerset(nfa).as_nfa()
            for s in enumerate_strings(nfa.graph.alphabet.symbols, 4):
                assert simulate_nfa(nfa, s) == simulate_nfa(ps, s)

    def test_isomorphism_detects_difference(self):
        assert dfa_isomorphic(powerset(funnel_nfa(2)), powerset(funnel_nfa(2)))
        assert not dfa_isomorphic(powerset(funnel_nfa(2)), powerset(loop_branch_nfa()))


class TestStringSetOrder:
    def test_colex_key_orders_by_reversed_string(self):
        g = diamond_nfa().graph
        assert colex_key(("a",), g.alphabet) < colex_key(("b", "d"), g.alphabet)
        assert colex_key(("b", "d"), g.alphabet) < colex_key(("c", "d"), g.alphabet)
        assert colex_key(("a",), g.alphabet) < colex_key(("a", "a"), g.alphabet)

    def test_diamond_string_sets(self):
        sets = reached_string_sets(diamond_nfa())
        assert sets[3] == {("a",), ("b", "d"), ("c", "d")}
        assert sets[4] == {("b", "d"), ("c", "d"), ("e",)}

    def test_diamond_witness_pair(self):
        nfa = diamond_nfa()
        pa = prec_a_acyclic(nfa)
        ms = max_colex_relation(nfa.graph, {nfa.initial})
        assert pa.holds(3, 4)
        assert not ms.holds(3, 4)
        assert refines(pa, ms)

    def test_funnel_width_one(self):
        assert preorder_width(prec_a_acyclic(funnel_nfa(3))) == 1

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            prec_a_acyclic(loop_branch_nfa())
        assert not is_acyclic(loop_branch_nfa().graph)

    def test_mutual_comparability_means_equal_sets(self, rng):
        for _ in range(25):
            nfa = random_acyclic_nfa(rng, 7, 3, 0.3)
            pa = prec_a_acyclic(nfa)
            sets = reached_string_sets(nfa)
            for u in range(pa.n):
                for v in range(pa.n):
                    if u != v and pa.holds(u, v) and pa.holds(v, u):
                        assert sets[u] == sets[v]

    def test_refines_marked_max_relation(self, rng):
        for _ in range(25):
            nfa = random_acyclic_nfa(rng, 7, 3, 0.3)
            assert refines(prec_a_acyclic(nfa),
                           max_colex_relation(nfa.graph, {nfa.initial}))

    def test_equals_max_relation_on_acyclic_dfas(self, rng):
        found = 0
        for _ in range(120):
            nfa = random_acyclic_nfa(rng, 6, 3, 0.25)
            out = nfa.graph.out_adjacency()
            deterministic = all(len(vs) <= 1 for node in out for vs in node.values())
            if not deterministic:
                continue
            found += 1
            assert prec_a_acyclic(nfa) == max_colex_relation(nfa.graph, {nfa.initial})
        assert found > 10


class TestMonotonic:
    def test_identity_always_monotonic(self):
        nfa = diamond_nfa()
        assert check_monotonic(nfa, identity_relation(nfa.graph.n))

    def test_marked_max_relation_monotonic(self):
        nfa = diamond_nfa()
        assert check_monotonic(nfa, max_colex_relation(nfa.graph, {nfa.initial}))

    def test_backwards_pair_fails(self):
        nfa = diamond_nfa()
        assert not check_monotonic(nfa, relation_from_pairs(5, [(4, 3)]))


class TestPowersetBounds:
    def test_funnel_report(self):
        rep = check_powerset_bounds(funnel_nfa(3))
        assert (rep.r, rep.n_prec, rep.n_star, rep.exact) == (1, 3, 3, True)
        assert rep.r_star <= rep.r_star_limit() == 1
        assert rep.n_star <= rep.n_star_limit() == 5
        assert rep.bounds_hold

    def test_dfa_bounds_trivial(self):
        rep = check_powerset_bounds(small_dfa())
        assert rep.r_star == rep.r and rep.n_star == rep.n_prec
        assert rep.bounds_hold

    def test_diamond_report(self):
        rep = check_powerset_bounds(diamond_nfa())
        assert rep.exact and rep.bounds_hold
        assert rep.n_star == 6

    def test_cyclic_is_one_sided(self):
        rep = check_powerset_bounds(loop_branch_nfa())
        assert not rep.exact
        assert rep.bounds_hold


class TestLanguageEquiv:
    def test_reflexive(self):
        nfa = loop_branch_nfa()
        assert language_equiv(nfa, nfa)

    def test_quotient_preserves_language(self):
        nfa = funnel_nfa(3)
        qn = quotient_nfa(nfa, max_colex_relation(nfa.graph, {nfa.initial}))
        assert language_equiv(nfa, qn.as_nfa())

    def test_unmarked_quotient_changes_language(self):
        # Collapsing the swap states turns 'b' into an accepted word.
        nfa = loop_branch_nfa()
        from colexgraph import quotient_graph
        qg = quotient_graph(nfa.graph, max_colex_relation(nfa.graph))
        part = qg.partition
        quotient_automaton = Nfa(qg.graph, part.class_of[nfa.initial],
                                 frozenset(part.class_of[f] for f in nfa.finals))
        assert not language_equiv(nfa, quotient_automaton)


class TestExhaustiveAntichain:
    def test_small_goldens(self):
        from colexgraph import Preorder
        assert exhaustive_max_antichain(Preorder(identity_relation(4).bits)) == {0, 1, 2, 3}

    @given(small_graphs(max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_matches_width(self, g):
        pre = max_colex_relation(g)
        order = pre.class_order()
        assert len(exhaustive_max_antichain(order)) == preorder_width(pre)


class TestStructuralChecks:
    # Sources 0 and 1 each feed one of the sinks 2 and 3 with 'a'.
    GRAPH = LabeledGraph.build(4, [(0, 2, "a"), (1, 3, "a")], ["a"])

    @staticmethod
    def one_chain(chain):
        return ChainPartition((tuple(chain),))

    def test_single_in_edge(self):
        merged_sources = ClassPartition((0, 0, 1, 1), ((0, 1), (2, 3)))
        assert single_in_edge_holds(self.GRAPH, merged_sources)
        split_sources = ClassPartition((0, 1, 2, 2), ((0,), (1,), (2, 3)))
        assert not single_in_edge_holds(self.GRAPH, split_sources)

    def test_monotone_groups(self):
        assert monotone_groups_hold(self.GRAPH, self.one_chain((0, 1, 2, 3)))
        assert not monotone_groups_hold(self.GRAPH, self.one_chain((1, 0, 2, 3)))

    def test_hold_on_every_pipeline_result_of_the_graph_corpus(self, graph_corpus):
        # The pipeline refuses a quotient or an index that breaks them, so
        # these reference checks are not lines of verify.
        for g in graph_corpus:
            result = run_pipeline(g)
            qg = result.quotient
            assert single_in_edge_holds(g, qg.partition)
            assert monotone_groups_hold(qg.graph, result.chains)
