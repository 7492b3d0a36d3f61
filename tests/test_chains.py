import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from colexgraph import Preorder, max_colex_relation, min_chain_partition
from colexgraph.chains import _chain_cover, _greedy_chains
from colexgraph.oracle import (exhaustive_max_antichain, identity_relation, max_antichain,
                               preorder_width, random_colex_relation, random_partial_order,
                               random_trim_nfa, relation_from_pairs, transitive_closure)
from conftest import double_hub_graph, loop_branch_nfa, small_graphs


def total_order(n: int) -> Preorder:
    return Preorder(relation_from_pairs(n, [(i, j) for i in range(n) for j in range(i, n)]).bits)


def relabeled(order: Preorder, perm: list[int]) -> Preorder:
    """The same order with node perm[i] renamed to i, so ids need not be topological."""
    return Preorder(order.bits[np.ix_(perm, perm)])


class TestMinChainPartition:
    def test_antichain_of_k_gives_k_singletons(self):
        cp = min_chain_partition(Preorder(identity_relation(5).bits))
        assert cp.chain_count == 5
        assert cp.chains == ((0,), (1,), (2,), (3,), (4,))

    def test_total_order_is_one_chain(self):
        cp = min_chain_partition(total_order(6))
        assert cp.chain_count == 1
        assert cp.chains == ((0, 1, 2, 3, 4, 5),)

    def test_double_hub_quotient_is_one_chain(self):
        pre = max_colex_relation(double_hub_graph(4))
        cp = min_chain_partition(pre.class_order())
        assert cp.chain_count == 1

    def test_rejects_preorders_with_cycles(self):
        pre = Preorder(relation_from_pairs(2, [(0, 1), (1, 0)]).bits)
        with pytest.raises(ValueError):
            min_chain_partition(pre)

    def test_partition_invariants(self, rng):
        for _ in range(60):
            order = random_partial_order(rng, rng.randint(1, 12))
            cp = min_chain_partition(order)
            seen = sorted(c for chain in cp.chains for c in chain)
            assert seen == list(range(order.n))
            for chain in cp.chains:
                for a, b in zip(chain, chain[1:]):
                    assert order.holds(a, b) and a != b
            for chain_id, chain in enumerate(cp.chains):
                for pos, node in enumerate(chain):
                    assert cp.chain_of[node] == chain_id
                    assert cp.pos_in_chain[node] == pos

    def test_shuffled_total_order_is_one_chain_in_order(self, rng):
        rank = list(range(300))
        rng.shuffle(rank)
        ranks = np.array(rank)
        order = Preorder(ranks[:, None] <= ranks[None, :])
        cp = min_chain_partition(order)
        assert cp.chain_count == 1
        assert cp.chains == (tuple(sorted(range(300), key=rank.__getitem__)),)

    def test_augments_past_the_greedy_chains(self):
        # Greedy chains take 0<2 and 1<4 and leave 3 and 5 alone (4 chains);
        # augmenting moves 1 onto 5 so that 3<4 fits: 3 chains.
        pairs = [(0, 2), (0, 5), (1, 4), (1, 5), (3, 4)]
        cp = min_chain_partition(Preorder(relation_from_pairs(6, pairs).bits))
        assert cp.chain_count == 3
        assert sorted(cp.chains) == [(0, 2), (1, 5), (3, 4)]

    def test_augmenting_search_is_pinned(self):
        """Seeded random partial orders with shuffled ids, kept where the
        greedy chains alone leave more chains than the cover: Hopcroft-Karp's
        augmenting search ran. Each cover is as large as a maximum antichain,
        and a digest of all of them pins the chains the search makes."""
        rng = random.Random(35)
        digest = hashlib.sha256()
        augmented = 0
        for _ in range(4000):
            n = rng.randint(1, 12)
            perm = list(range(n))
            rng.shuffle(perm)
            order = relabeled(random_partial_order(rng, n, rng.choice((0.2, 0.3, 0.4))), perm)
            chains = _chain_cover(order.bits)
            if n - sum(v != -1 for v in greedy(order.bits)[0]) == len(chains):
                continue
            augmented += 1
            assert len(chains) == len(exhaustive_max_antichain(order))
            digest.update(repr(chains).encode())
        assert augmented >= 25  # 37
        assert digest.hexdigest() == (
            "312d485a5b47f42c6174fd0e671cfded765e73ec298793206c8fbdd4d6173c0e")

    def test_chain_cover_makes_no_k_by_k_copy(self):
        k = 3000
        rank = list(range(k))
        random.Random(3000).shuffle(rank)
        ranks = np.array(rank)
        order = ranks[:, None] <= ranks[None, :]  # 9 MB of bools
        tracemalloc.start()
        try:
            chains = _chain_cover(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chains == (tuple(sorted(range(k), key=rank.__getitem__)),)
        assert peak < k * k

    def test_deterministic(self, rng):
        order = random_partial_order(rng, 10)
        assert min_chain_partition(order) == min_chain_partition(order)


def greedy_by_full_scan(order: np.ndarray) -> tuple[list[int], list[int]]:
    """Reference greedy chains: every element scans its whole row for the
    earliest free strict successor along the linear extension."""
    n = order.shape[0]
    ext = np.argsort(order.sum(axis=0) - np.diagonal(order), kind="stable")
    free = np.ones(n, dtype=bool)
    match_left, match_right = [-1] * n, [-1] * n
    for i, u in enumerate(ext.tolist()):
        cand = order[u, ext] & free
        cand[i] = False
        j = int(cand.argmax())
        if cand[j]:
            free[j] = False
            v = int(ext[j])
            match_left[u], match_right[v] = v, u
    return match_left, match_right


def greedy(order: np.ndarray) -> tuple[list[int], list[int]]:
    has_successor = ((order.sum(axis=1) - np.diagonal(order)) > 0).tolist()
    return _greedy_chains(order, has_successor)


class TestGreedyChains:
    def test_total_orders_match_the_full_scan(self, rng):
        for k in (1, 2, 3, 50, 300):
            rank = list(range(k))
            rng.shuffle(rank)
            ranks = np.array(rank)
            order = ranks[:, None] <= ranks[None, :]
            assert greedy(order) == greedy_by_full_scan(order)

    def test_partial_orders_match_the_full_scan(self, rng):
        for _ in range(300):
            order = random_partial_order(rng, rng.randint(1, 60),
                                         rng.choice((0.02, 0.1, 0.3, 0.7))).bits
            assert greedy(order) == greedy_by_full_scan(order)

    def test_class_orders_of_automata_match_the_full_scan(self):
        # Drawn as the benchmark's nfa-corpus draws them: twenty trim automata
        # in each band of 1-4, 5-8, ..., 37-40 states, 3 symbols, density 0.08.
        rng = random.Random(1)
        shortcuts = 0
        for i in range(200):
            smallest = 4 * (i // 20) + 1
            a = random_trim_nfa(rng, smallest + 3, 3, 0.08)
            while a.graph.n < smallest:
                a = random_trim_nfa(rng, smallest + 3, 3, 0.08)
            order = max_colex_relation(a.graph, {a.initial}).class_order().bits
            match_left, match_right = greedy_by_full_scan(order)
            assert greedy(order) == (match_left, match_right)
            ext = np.argsort(order.sum(axis=0) - np.diagonal(order), kind="stable").tolist()
            shortcuts += sum(match_left[u] == v for u, v in zip(ext, ext[1:]))
        assert shortcuts >= 20


class TestMaxAntichain:
    def test_identity_order_full_set(self):
        assert max_antichain(Preorder(identity_relation(4).bits)) == {0, 1, 2, 3}

    def test_total_order_single_element(self):
        assert len(max_antichain(total_order(5))) == 1

    def test_matches_chain_count_and_exhaustive(self, rng):
        for _ in range(60):
            order = random_partial_order(rng, rng.randint(1, 10))
            q = min_chain_partition(order).chain_count
            anti = max_antichain(order)
            assert len(anti) == q
            bits = order.bits
            for u in anti:
                for v in anti:
                    assert u == v or not (bits[u, v] or bits[v, u])
            assert len(exhaustive_max_antichain(order)) == q

    def test_shuffled_ids_width_equality(self, rng):
        for _ in range(60):
            n = rng.randint(1, 10)
            perm = list(range(n))
            rng.shuffle(perm)
            order = relabeled(random_partial_order(rng, n, rng.choice((0.2, 0.5))), perm)
            cp = min_chain_partition(order)
            for chain in cp.chains:
                for a, b in zip(chain, chain[1:]):
                    assert order.holds(a, b) and a != b
            assert cp.chain_count == len(max_antichain(order))
            assert cp.chain_count == len(exhaustive_max_antichain(order))


class TestPreorderWidth:
    def test_double_hub(self):
        assert preorder_width(max_colex_relation(double_hub_graph(3))) == 1

    def test_identity(self):
        assert preorder_width(Preorder(identity_relation(7).bits)) == 7

    def test_loop_branch_marked(self):
        g = loop_branch_nfa().graph
        pre = max_colex_relation(g, {0})
        assert preorder_width(pre) == 2
        cp = min_chain_partition(pre.class_order())
        assert cp.chains == ((0, 1), (2,))

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_refinement(self, g):
        rng = random.Random(3)
        coarse = transitive_closure(random_colex_relation(rng, g))
        assert preorder_width(max_colex_relation(g)) <= preorder_width(coarse)
