import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from colexgraph import (Alphabet, AxiomViolation, LabeledGraph, Preorder, Relation,
                        dump_relation, first_axiom_violation, max_colex_relation, parse_nfa,
                        trim_nfa)
from colexgraph.oracle import (gfp_max_relation, identity_relation, is_antisymmetric,
                               is_colex_relation, is_transitive, lambda_sets,
                               min_colex_containing, parse_relation, preorder_width,
                               random_colex_relation, random_graph, refines,
                               relation_from_pairs, transitive_closure, union)
from colexgraph.relation import (_DENSE_NODE_CAP, _angle_violations, _certify,
                                 _label_extremes, _label_tables, _row_classes)
from conftest import (SEED_ORDER_CORPUS, double_hub_graph, fan_graph, loop_branch_nfa,
                      small_graphs, two_cycle_graph)
from helpers import (benchmark_workloads, expected_double_hub_relation, seeded_debruijn,
                     strict_label_relation, two_node_alphabet_graph)


class TestRelationType:
    def test_requires_reflexive(self):
        with pytest.raises(ValueError):
            Relation(np.zeros((2, 2), dtype=bool))

    def test_refuses_a_matrix_that_is_not_square_or_over_the_cap(self):
        for bits in (np.ones((2, 3), dtype=bool), np.ones(3, dtype=bool)):
            with pytest.raises(ValueError, match="^relation matrix must be square$"):
                Relation(bits)
        # a read-only view of one value: the refusal allocates nothing
        over = np.broadcast_to(np.True_, (_DENSE_NODE_CAP + 1, _DENSE_NODE_CAP + 1))
        capped = f"^dense relations are capped at {_DENSE_NODE_CAP} nodes$"
        with pytest.raises(ValueError, match=capped):
            Relation(over)

    def test_from_pairs_adds_diagonal(self):
        r = relation_from_pairs(3, [(0, 1)])
        assert r.holds(0, 1) and r.holds(2, 2) and not r.holds(1, 0)

    def test_immutable(self):
        r = identity_relation(2)
        with pytest.raises(AttributeError):
            r.n = 5
        with pytest.raises(ValueError):
            r.bits[0, 1] = True

    def test_writeable_input_is_copied(self):
        bits = np.eye(3, dtype=bool)
        r = Relation(bits)
        bits[0, 1] = True
        assert not r.holds(0, 1) and not np.shares_memory(bits, r.bits)

    def test_read_only_view_is_copied(self):
        base = np.eye(4, dtype=bool)
        view = base[:3, :3]
        view.setflags(write=False)
        r = Relation(view)
        base[0, 1] = True
        assert not r.holds(0, 1) and not np.shares_memory(base, r.bits)

    def test_read_only_array_that_owns_its_data_is_adopted(self):
        bits = np.eye(3, dtype=bool)
        bits.setflags(write=False)
        assert np.shares_memory(Relation(bits).bits, bits)
        pre = Preorder(bits)
        assert np.shares_memory(pre.bits, bits) and Relation(pre.bits).bits is bits

    def test_preorder_requires_transitive(self):
        bits = relation_from_pairs(3, [(0, 1), (1, 2)]).bits
        with pytest.raises(ValueError):
            Preorder(bits)


def random_relation_bits(rng: random.Random, n: int) -> np.ndarray:
    """A reflexive relation that is transitive about half the time.

    Random pairs at a random density; half are then closed, and of those some
    get one pair flipped, a near miss. Closures of random pairs have cycles,
    so many are not antisymmetric.
    """
    nrng = np.random.default_rng(rng.randrange(1 << 30))
    bits = nrng.random((n, n)) < rng.choice((0.05, 0.15, 0.3, 0.5, 0.8))
    np.fill_diagonal(bits, True)
    if rng.random() < 0.5:
        bits = transitive_closure(Relation(bits)).bits.copy()
        if rng.random() < 0.4:
            u, v = rng.sample(range(n), 2)
            bits[u, v] = not bits[u, v]
    return bits


def certificate_failure_of(bits: np.ndarray, chains) -> str | None:
    """The certificate's verdict on ``bits`` with hand-picked chains of its classes."""
    named = _row_classes(bits)
    if isinstance(named, str):
        return named
    certified = _certify(named[2], chains)
    return certified if isinstance(certified, str) else None


def order_from_pairs(n: int, pairs) -> np.ndarray:
    return relation_from_pairs(n, pairs).bits.copy()


def certified(bits: np.ndarray) -> bool:
    try:
        Preorder(bits)
    except ValueError as err:
        assert str(err) == "preorder must be transitive"
        return False
    return True


class TestTransitivityCertificate:
    def test_agrees_with_the_matrix_product(self):
        rng = random.Random(SEED_ORDER_CORPUS)
        verdicts = {True: 0, False: 0}
        cyclic = 0
        for _ in range(6000):
            bits = random_relation_bits(rng, rng.randint(2, 11))
            want = is_transitive(Relation(bits))
            assert certified(bits) == want, bits.astype(int)
            verdicts[want] += 1
            cyclic += want and not is_antisymmetric(Relation(bits))
        assert min(verdicts.values()) >= 1500 and cyclic >= 500

    @pytest.mark.parametrize("chains", [((0,), (1,)), ((0,), (1,), (1, 2)), ((0,), (1,), (3,)),
                                        ((0,), (), (1,), (2,)), ((0, 1, 2, 2),)])
    def test_cover(self, chains):
        assert certificate_failure_of(order_from_pairs(3, [(0, 1), (1, 2), (0, 2)]),
                                      chains) == "cover"

    def test_link(self):
        # (a) alone would also refuse these chains, through the reflexive pair (0, 0).
        assert certificate_failure_of(np.eye(2, dtype=bool), ((0, 1),)) == "link"

    def test_a(self):
        # 3 relates to 0 and 2 but not to 1, between them on a chain.
        bits = order_from_pairs(4, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 2)])
        assert certificate_failure_of(bits, ((0, 1, 2), (3,))) == "a"

    def test_b(self):
        # 0 <= 1 <= 2 without 0 <= 2; 0 and 1 share a chain.
        bits = order_from_pairs(3, [(0, 1), (1, 2)])
        assert certificate_failure_of(bits, ((0, 1), (2,))) == "b"

    def test_c(self):
        # The same relation on singleton chains: (a) and (b) cannot see it.
        bits = order_from_pairs(3, [(0, 1), (1, 2)])
        assert certificate_failure_of(bits, ((0,), (1,), (2,))) == "c"

    def test_lift(self):
        # 0 and 1 have equal rows, so they are one class, but 2 relates only to
        # 0: the class order {2} < {0, 1} is a chain, yet 2 <= 0 <= 1 without
        # 2 <= 1.
        bits = order_from_pairs(3, [(0, 1), (1, 0), (2, 0)])
        assert certificate_failure_of(bits, ((0,), (1,))) == "lift"

    @pytest.mark.parametrize("pairs, chains", [
        ([(0, 1), (1, 2), (0, 2)], ((0, 1, 2),)),
        ([(0, 1), (1, 0), (0, 2), (1, 2)], ((0, 1),)),
        ([(0, 2), (1, 2)], ((0, 2), (1,))),
    ])
    def test_every_check_passes_on_a_preorder(self, pairs, chains):
        assert certificate_failure_of(order_from_pairs(3, pairs), chains) is None

    @pytest.mark.parametrize("pairs", [
        [(0, 1), (1, 2)],
        [(0, 1), (1, 0), (0, 2)],
        [(0, 1), (1, 2), (0, 2), (3, 0), (3, 2)],
        [(0, 1), (1, 2), (2, 0)],
    ])
    def test_preorder_refuses_what_the_checks_find(self, pairs):
        with pytest.raises(ValueError, match="^preorder must be transitive$"):
            Preorder(order_from_pairs(4, pairs))

    def test_lift_reads_class_rows_not_node_rows(self):
        # A total preorder of 2,000 nodes in about 500 classes. The Preorder
        # copies the writeable input (n^2 bytes); naming the classes and
        # checking the lift read the k class rows, so the traced peak stays
        # under the n x n blocks a pass over all n node rows would add.
        n = 2000
        cls = np.random.default_rng(2000).integers(0, 500, n)
        bits = cls[:, None] <= cls[None, :]
        tracemalloc.start()
        try:
            pre = Preorder(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pre._reps.size == np.unique(cls).size and len(pre._ends) == 1
        assert peak < 2.5 * n * n

    def test_renumbering_holds_one_class_order(self, monkeypatch):
        # A shuffled total order of 1,500 nodes, each its own class, adopted
        # read-only. With 64 KiB blocks the certificate's renumbering splits
        # into blocks of 43 rows. Renumbering the whole class order with one
        # np.take held its row-permuted copy next to the result: 2.04 n^2
        # traced above the input, against 1.15 n^2 in blocks.
        monkeypatch.setattr("colexgraph.relation._BLOCK_CELLS", 1 << 16)
        n = 1500
        rank = np.random.default_rng(1500).permutation(n)
        bits = rank[:, None] <= rank[None, :]
        bits.setflags(write=False)
        tracemalloc.start()
        try:
            pre = Preorder(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pre._reps.size == n and len(pre._ends) == 1
        assert peak < 1.5 * n * n

    def test_agrees_in_small_blocks(self, monkeypatch):
        # Blocks of a few cells run every loop of the certificate many times.
        monkeypatch.setattr("colexgraph.relation._BLOCK_CELLS", 7)
        rng = random.Random(SEED_ORDER_CORPUS + 1)
        for _ in range(300):
            bits = random_relation_bits(rng, rng.randint(2, 11))
            assert certified(bits) == is_transitive(Relation(bits))


def row_classes_by_loop(bits: np.ndarray) -> tuple[list[int], list[int]]:
    """(class of each node, smallest member of each class), one row at a time."""
    ids: dict[bytes, int] = {}
    class_of, reps = [], []
    for u, row in enumerate(bits):
        c = ids.setdefault(row.tobytes(), len(ids))
        if c == len(reps):
            reps.append(u)
        class_of.append(c)
    return class_of, reps


class TestRowClasses:
    def test_no_nodes(self):
        bits = np.ones((0, 0), dtype=bool)
        class_of, reps, order = _row_classes(bits)
        assert class_of.size == reps.size == 0 and order is bits

    def test_one_node(self):
        bits = np.ones((1, 1), dtype=bool)
        class_of, reps, order = _row_classes(bits)
        assert class_of.tolist() == reps.tolist() == [0] and order is bits

    def test_every_class_one_node(self):
        # a shuffled total order: every row differs, so the order is the input
        rank = np.random.default_rng(40).permutation(40)
        bits = rank[:, None] <= rank[None, :]
        class_of, reps, order = _row_classes(bits)
        assert class_of.dtype == reps.dtype == np.intp
        assert class_of.tolist() == reps.tolist() == list(range(40)) and order is bits

    def test_merged_classes(self):
        # a total preorder by rank: nodes 0, 2 and 6 rank 5, nodes 1 and 4
        # rank 3, nodes 3 and 5 rank 4
        rank = np.array([5, 3, 5, 4, 3, 4, 5])
        class_of, reps, order = _row_classes(rank[:, None] <= rank[None, :])
        assert class_of.dtype == reps.dtype == np.intp
        assert class_of.tolist() == [0, 1, 0, 2, 1, 2, 0]
        assert reps.tolist() == [0, 1, 3]
        assert order.tolist() == [[True, False, False], [True, True, True], [True, False, True]]

    def test_equal_the_row_by_row_naming(self):
        rng = random.Random(SEED_ORDER_CORPUS + 2)
        merged = 0
        for _ in range(400):
            n = rng.randint(1, 20)
            cls = np.array([rng.randrange(rng.randint(1, n)) for _ in range(n)])
            bits = cls[:, None] <= cls[None, :]  # a total preorder on the drawn classes
            class_of, reps, order = _row_classes(bits)
            assert (class_of.tolist(), reps.tolist()) == row_classes_by_loop(bits)
            assert np.array_equal(order, bits[reps][:, reps])
            merged += reps.size < n
        assert merged >= 200


def first_axiom_two_by_loops(g, r):
    """Reference scan: labels in alphabet order, then pairs (u, v) row by row."""
    in_adj = g.in_adjacency()
    for a in g.alphabet.symbols:
        for u in range(g.n):
            for v in range(g.n):
                if u == v or not r.holds(u, v):
                    continue
                for u1 in in_adj[u].get(a, ()):
                    for v1 in in_adj[v].get(a, ()):
                        if not r.holds(u1, v1):
                            return AxiomViolation(
                                2, (u, v),
                                f"requires ({u1},{v1}) via label {a!r}, which is absent")
    return None


class TestAxiomChecker:
    def test_identity_is_colex(self):
        for g in (fan_graph(), two_cycle_graph(), double_hub_graph(3)):
            assert is_colex_relation(g, identity_relation(g.n))

    def test_fan_union_of_both_orders_passes(self):
        g = fan_graph()
        r = relation_from_pairs(3, [(1, 2), (2, 1)])
        assert is_colex_relation(g, r)

    def test_relation_of_another_size_is_refused(self):
        with pytest.raises(ValueError, match="^relation size does not match graph$"):
            first_axiom_violation(fan_graph(), identity_relation(2))

    def test_sourceless_node_cannot_be_above(self):
        g = fan_graph()  # node 0 has no incoming edges, node 1 does
        r = relation_from_pairs(3, [(1, 0)])
        violation = first_axiom_violation(g, r)
        assert violation is not None and violation.axiom == 1

    def test_axiom_two_violation_reported(self):
        g = two_cycle_graph()
        r = relation_from_pairs(2, [(0, 1)])  # needs (1, 0) via the 'a' edges
        violation = first_axiom_violation(g, r)
        assert violation is not None and violation.axiom == 2
        assert violation.pair == (0, 1)

    def test_reports_the_first_violation_in_scan_order(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 14), rng.randint(1, 3), 0.2)
            keep = np.random.default_rng(rng.randrange(1 << 30)).random((g.n, g.n)) < 0.5
            # Dominance-ordered pairs only, so any violation is of Axiom 2.
            bits = keep & ~_angle_violations(g, frozenset())
            np.fill_diagonal(bits, True)
            r = Relation(bits)
            assert first_axiom_violation(g, r) == first_axiom_two_by_loops(g, r)


class TestLabelTables:
    def test_extremes_match_the_label_sets(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12), rng.randint(1, 4), 0.15)
            marked = frozenset(rng.sample(range(g.n), rng.randint(0, min(2, g.n))))
            ranks = [[g.alphabet.rank(s) for s in lam] for lam in lambda_sets(g, marked)]
            lo, hi = _label_extremes(g, marked)
            assert lo.tolist() == [min(r) for r in ranks]
            assert hi.tolist() == [max(r) for r in ranks]

    def test_marked_node_out_of_range(self):
        with pytest.raises(ValueError, match="marked node 3 out of range"):
            max_colex_relation(fan_graph(), {3})

    def test_label_edges_built_once_per_graph(self):
        g = loop_branch_nfa().graph
        pre = max_colex_relation(g, {0})
        table = _label_tables(g)[0]
        assert first_axiom_violation(g, pre, {0}) is None
        assert _label_tables(g)[0] is table
        assert _label_tables(loop_branch_nfa().graph)[0] is not table

    @staticmethod
    def assert_tables_from_in_adjacency(g):
        """Each label's table, laid out again from ``g.in_adjacency()``."""
        in_adj = g.in_adjacency()
        want = []
        for a in g.alphabet.symbols:
            by_target = {v: in_adj[v][a] for v in range(g.n) if a in in_adj[v]}
            if not by_target:
                continue
            targets = sorted(by_target, key=lambda v: (-len(by_target[v]), v))
            widths = [sum(len(by_target[v]) > k for v in targets)
                      for k in range(len(by_target[targets[0]]))]
            sources = [by_target[v][k] for k, width in enumerate(widths)
                       for v in targets[:width]]
            columns = sorted(set(sources))
            want.append((a, targets, sources, tuple(widths), columns,
                         [columns.index(s) for s in sources]))
        got = _label_tables(g)[0]
        assert [le.label for le in got] == [w[0] for w in want]
        for le, w in zip(got, want):
            assert le.widths == w[3]
            for field, expected in zip((le.targets, le.sources, le.columns, le.slots),
                                       w[1:3] + w[4:]):
                assert field.dtype == np.intp and field.tolist() == expected

    def test_tables_match_the_in_adjacency_on_the_corpus(self, graph_corpus):
        for g in graph_corpus:
            self.assert_tables_from_in_adjacency(g)

    @pytest.mark.parametrize("seed, length, k", [(31, 300, 3), (32, 500, 5)])
    def test_tables_match_the_in_adjacency_on_de_bruijn_graphs(self, seed, length, k):
        self.assert_tables_from_in_adjacency(seeded_debruijn(seed, length, k)[1])

    def test_tables_match_the_in_adjacency_on_the_benchmark_automata(self, monkeypatch):
        workloads = benchmark_workloads(monkeypatch)
        for unit in workloads.nfa_corpus(1).units:
            self.assert_tables_from_in_adjacency(trim_nfa(parse_nfa(unit.text))[0].graph)

    def test_marking_never_writes_into_the_cache(self, graph_corpus):
        for g in graph_corpus[:200]:
            calls = [_label_extremes(g, {0}), _label_extremes(g, ())]
            fresh = [_label_extremes(LabeledGraph(g.n, g.edges, g.alphabet), marked)
                     for marked in ({0}, ())]
            assert [[x.tolist() for x in call] for call in calls] == \
                [[x.tolist() for x in call] for call in fresh]


def wide_alphabet_graph(rng: random.Random, sigma: int, n: int) -> LabeledGraph:
    """A random graph over ``sigma`` symbols whose labels come from both ends
    of the alphabet, so its in-label ranks reach sigma + 1, the highest."""
    symbols = tuple(f"s{i:03d}" for i in range(sigma))
    pool = symbols[:2] + symbols[-3:]
    edges = {(rng.randrange(n), rng.randrange(n), rng.choice(pool))
             for _ in range(rng.randint(0, 2 * n))}
    return LabeledGraph(n, frozenset(edges), Alphabet(symbols))


class TestRankWidth:
    """The label ranks take the smallest unsigned type that holds sigma + 1:
    one byte up to 254 symbols, two from 255."""

    @pytest.mark.parametrize("sigma", [253, 254, 255, 256])
    def test_angle_violations_equal_a_wide_reference(self, rng, sigma):
        top = 0
        for _ in range(40):
            g = wide_alphabet_graph(rng, sigma, rng.randint(1, 9))
            for marked in (frozenset(), frozenset({rng.randrange(g.n)})):
                ranks = [[g.alphabet.rank(s) for s in lam] for lam in lambda_sets(g, marked)]
                lo = np.array([min(r) for r in ranks], dtype=np.int64)
                hi = np.array([max(r) for r in ranks], dtype=np.int64)
                want = hi[:, None] > lo[None, :]
                np.fill_diagonal(want, False)
                assert np.array_equal(_angle_violations(g, marked), want)
                got = _label_extremes(g, marked)
                assert [x.dtype.itemsize for x in got] == [1 if sigma <= 254 else 2] * 2
                top = max(top, int(hi.max()))
        assert top == sigma + 1

    @pytest.mark.parametrize("sigma", [255, 256])
    def test_kernel_equals_greatest_fixpoint_over_a_wide_alphabet(self, rng, sigma):
        strict = 0
        for _ in range(40):
            g = wide_alphabet_graph(rng, sigma, rng.randint(2, 7))
            for marked in (frozenset(), frozenset({0})):
                pre = max_colex_relation(g, marked)
                assert pre == gfp_max_relation(g, marked)
                strict += len(pre.strict_pairs())
        assert strict >= 100

    def test_dna_ranks_take_one_byte(self):
        g = seeded_debruijn(31, 300, 3)[1]
        for marked in ((), {0}):
            assert [x.itemsize for x in _label_extremes(g, marked)] == [1, 1]


class TestMaxRelation:
    def test_two_cycle_has_all_pairs(self):
        pre = max_colex_relation(two_cycle_graph())
        assert set(pre.strict_pairs()) == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_double_hub_caption(self, n):
        pre = max_colex_relation(double_hub_graph(n))
        assert pre == Preorder(expected_double_hub_relation(n).bits)

    def test_loop_branch_marked_breaks_the_swap(self):
        g = loop_branch_nfa().graph
        assert set(max_colex_relation(g, {0}).strict_pairs()) == {(0, 2), (1, 2)}
        assert set(max_colex_relation(g).strict_pairs()) == {(0, 1), (1, 0), (0, 2), (1, 2)}

    def test_kernel_equals_greatest_fixpoint_small_and_large(self, rng):
        # Sizes on both sides of 64 nodes; sparse graphs keep many pairs related.
        sizes = [rng.randint(2, 50) for _ in range(25)] + [rng.randint(65, 80) for _ in range(6)]
        for n in sizes:
            density = rng.choice((0.15, rng.uniform(1.0, 3.0) / n))
            g = random_graph(rng, n, rng.randint(1, 3), density)
            for marked in (frozenset(), frozenset({rng.randrange(n)})):
                assert max_colex_relation(g, marked) == gfp_max_relation(g, marked)

    @pytest.mark.parametrize("seed, length, k", [(1, 200, 4), (2, 250, 5), (3, 300, 5)])
    def test_kernel_equals_greatest_fixpoint_on_de_bruijn_graphs(self, seed, length, k):
        # 139 to 261 nodes, each entered by one label: label blocks of about n/4 rows.
        _, g = seeded_debruijn(seed, length, k)
        assert 130 <= g.n <= 270
        for marked in (frozenset(), frozenset({0})):
            assert max_colex_relation(g, marked) == gfp_max_relation(g, marked)

    def test_kernel_equals_greatest_fixpoint_where_labels_share_targets(self, rng):
        # A node entered by two labels lies in both labels' blocks, so both
        # OR into its row of a level; three same-label sources make three layers.
        checked = strict = 0
        while checked < 30:
            g = random_graph(rng, rng.randint(6, 30), rng.randint(2, 3), rng.uniform(0.03, 0.12))
            in_labels = [set() for _ in range(g.n)]
            for _, v, a in g.edges:
                in_labels[v].add(a)
            if (max(map(len, in_labels)) < 2
                    or max(len(le.widths) for le in _label_tables(g)[0]) < 3):
                continue
            for marked in (frozenset(), frozenset({rng.randrange(g.n)})):
                pre = max_colex_relation(g, marked)
                assert pre == gfp_max_relation(g, marked)
                strict += len(pre.strict_pairs())
            checked += 1
        assert strict >= 500

    def test_oversized_graph_is_rejected_before_allocating(self):
        g = LabeledGraph(_DENSE_NODE_CAP + 1, frozenset({(0, 1, "a")}), Alphabet(("a",)))
        with pytest.raises(ValueError, match="capped"):
            max_colex_relation(g)
        with pytest.raises(ValueError, match="capped"):
            first_axiom_violation(g, identity_relation(2))

    @given(small_graphs())
    @settings(max_examples=80, deadline=None)
    def test_equals_greatest_fixpoint(self, g):
        marked = {0} if g.n else set()
        assert max_colex_relation(g) == gfp_max_relation(g)
        assert max_colex_relation(g, marked) == gfp_max_relation(g, marked)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_is_colex_and_transitive(self, g):
        pre = max_colex_relation(g)
        assert is_colex_relation(g, pre)
        assert is_transitive(pre)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_refines_other_colex_relations(self, g):
        rng = random.Random(11)
        pre = max_colex_relation(g)
        assert refines(pre, strict_label_relation(g))
        assert refines(pre, random_colex_relation(rng, g))

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_mutually_marked_nodes_stay_singleton(self, g):
        pre = max_colex_relation(g, {0})
        lams = lambda_sets(g, {0})
        for v in range(g.n):
            if "@" not in lams[v]:
                continue
            for u in range(g.n):
                assert u == v or not (pre.holds(u, v) and pre.holds(v, u))


class TestMinContaining:
    def test_fan_pair_closes_to_itself(self):
        r = min_colex_containing(fan_graph(), 1, 2)
        assert set(r.strict_pairs()) == {(1, 2)}

    def test_incompatible_labels_give_none(self):
        g = two_node_alphabet_graph()  # node 2 reads 'b', node 3 reads 'a'
        assert min_colex_containing(g, 2, 3) is None

    def test_double_hub_pulls_in_hub_pairs(self):
        # Axiom 2 forces both hub pairs once the sinks are related.
        g = double_hub_graph(2)
        r = min_colex_containing(g, 0, 1)
        assert set(r.strict_pairs()) == {(0, 1), (2, 3), (3, 2)}
        assert is_colex_relation(g, r)
        assert not is_colex_relation(g, relation_from_pairs(4, [(0, 1)]))

    def test_rejects_equal_nodes(self):
        with pytest.raises(ValueError):
            min_colex_containing(fan_graph(), 1, 1)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_defined_exactly_on_max_relation(self, g):
        pre = max_colex_relation(g)
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                r = min_colex_containing(g, u, v)
                assert (r is not None) == pre.holds(u, v)
                if r is not None:
                    assert is_colex_relation(g, r)
                    assert refines(pre, r)


class TestClosureUnionRefines:
    def test_closure_of_transitive_is_identity(self):
        r = relation_from_pairs(3, [(0, 1)])
        assert transitive_closure(r) == Preorder(r.bits)

    def test_closure_adds_composite(self):
        r = relation_from_pairs(3, [(0, 1), (1, 2)])
        assert transitive_closure(r).holds(0, 2)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_closure_preserves_colex(self, g):
        rng = random.Random(5)
        r = random_colex_relation(rng, g)
        assert is_colex_relation(g, transitive_closure(r))

    def test_union_of_fan_caption_orders(self):
        g = fan_graph()
        r1 = relation_from_pairs(3, [(1, 2)])
        r2 = relation_from_pairs(3, [(2, 1)])
        both = union([r1, r2])
        assert both.holds(1, 2) and both.holds(2, 1)
        assert not is_antisymmetric(both)
        assert is_colex_relation(g, both)

    def test_union_with_identity_is_absorbed(self):
        r = relation_from_pairs(2, [(0, 1)])
        assert union([r, identity_relation(2)]) == r

    def test_union_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            union([identity_relation(2), identity_relation(3)])

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_union_of_colex_is_colex(self, g):
        rng = random.Random(23)
        rels = [random_colex_relation(rng, g) for _ in range(3)]
        assert is_colex_relation(g, union(rels))

    def test_refines_is_reflexive(self):
        r = relation_from_pairs(3, [(0, 2)])
        assert refines(r, r)

    def test_identity_does_not_refine_two_cycle_max(self):
        pre = max_colex_relation(two_cycle_graph())
        assert not refines(identity_relation(2), pre)
        assert refines(pre, identity_relation(2))

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_width_shrinks_under_refinement(self, g):
        rng = random.Random(31)
        pre = max_colex_relation(g)
        closed = transitive_closure(random_colex_relation(rng, g))
        assert preorder_width(pre) <= preorder_width(closed)


class TestDumpFormat:
    def test_roundtrip(self):
        r = relation_from_pairs(4, [(0, 1), (2, 3), (3, 2)])
        assert parse_relation(dump_relation(r), 4) == r

    def test_dump_sorted_diagonal_implied(self):
        r = relation_from_pairs(3, [(2, 0), (0, 1)])
        assert dump_relation(r) == "0 1\n2 0\n"
