import hashlib
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from colexgraph import (LabeledGraph, Nfa, build_index, chains, max_colex_relation,
                        min_chain_partition, quotient_graph, run_pipeline)
from colexgraph.cli import main
from colexgraph.oracle import (enumerate_strings, language_equiv, random_trim_nfa,
                               simulate_nfa)
from conftest import SEED_NFA_CORPUS, double_hub_graph, loop_branch_nfa


class TestRunPipeline:
    @pytest.mark.parametrize("name", ["_hopcroft_karp", "_greedy_chains"])
    def test_one_matching_per_build(self, monkeypatch, name):
        calls = []
        real = getattr(chains, name)

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(chains, name, counted)
        for source in (double_hub_graph(3), loop_branch_nfa()):
            calls.clear()
            result = run_pipeline(source)
            result.index()
            assert len(calls) == 1

    def test_graph_matches_the_stages_one_by_one(self):
        g = double_hub_graph(3)
        result = run_pipeline(g)
        pre = max_colex_relation(g)
        qg = quotient_graph(g, pre)
        cp = min_chain_partition(qg.order)
        assert result.source is g and result.graph is g and result.marked == frozenset()
        assert result.relation == pre and result.quotient == qg and result.chains == cp
        assert result.automaton is None
        assert result.index().to_bytes() == build_index(qg, cp, n_original=5,
                                                        e_original=6).to_bytes()

    def test_stage_by_stage_build_counts_the_collapsed_graph(self, tmp_path, capsys):
        """``build_index`` counts the nodes and edges of the graph that
        ``quotient_graph`` collapsed, as ``run_pipeline`` passes them: the
        double hub's 5 nodes and 6 edges, not its quotient's 1 edge."""
        g = double_hub_graph(3)
        qg = quotient_graph(g, max_colex_relation(g))
        built = build_index(qg, min_chain_partition(qg.order))
        assert (len(qg.graph.edges), qg.input_edges) == (1, 6)
        assert (built.n_original, built.e_original) == (5, 6)
        assert built.to_bytes() == run_pipeline(g).index().to_bytes()
        path = tmp_path / "hub.clxi"
        built.save(path)
        assert main(["stats", str(path)]) == 0
        assert capsys.readouterr().out.startswith("n 5\nedges 6\nclasses 2\nquotient-edges 1\n")

    def test_automaton_is_trimmed_and_counted_before_trimming(self):
        # loop_branch_nfa plus a state 3 that no final state is reachable from
        base = loop_branch_nfa()
        g = LabeledGraph.build(4, set(base.graph.edges) | {(2, 3, "a")}, ["a", "b"])
        result = run_pipeline(Nfa(g, 0, base.finals))
        assert result.source == base and result.marked == {0}
        assert (result.n_original, result.e_original) == (4, 4)
        ix = result.index().open()
        assert (ix.n_original, ix.e_original, ix.n_classes) == (4, 4, 3)
        assert ix.accept(["a", "b"]) and not ix.accept(["b"])

    def test_automaton_corpus_bytes_are_pinned(self):
        """The sha256 of the ``.clxi`` bytes of criterion 5's 300 automata,
        one after another, so that a change to trimming, the quotient or the
        layout that moves any byte shows here."""
        rng = random.Random(SEED_NFA_CORPUS)
        digest = hashlib.sha256()
        for _ in range(300):
            nfa = random_trim_nfa(rng, 7, rng.randint(1, 3), rng.choice([0.1, 0.3]))
            digest.update(run_pipeline(nfa).index().to_bytes())
        assert digest.hexdigest() == (
            "6be5591715d25b282ac87c8cbcdb816853e576a93d41acf7dd453eb8c7787d79")

    def test_unmarked_automaton_keeps_an_automaton_view(self):
        """An automaton is built with its initial state marked, so its quotient
        keeps the language and its index accepts. Left unmarked, as its graph
        alone, it collapses states 0 and 1 and has no automaton view."""
        nfa = loop_branch_nfa()
        result = run_pipeline(nfa)
        assert result.marked == {0}
        assert result.quotient.partition.members == ((0,), (2,), (1,))
        assert language_equiv(nfa, result.automaton)
        ix = result.index().open()
        for s in enumerate_strings(("a", "b"), 4):
            assert ix.accept(s) == simulate_nfa(nfa, s)
        graph = run_pipeline(nfa.graph)
        assert graph.marked == frozenset() and graph.automaton is None
        assert graph.quotient.partition.members == ((0, 1), (2,))

    def test_chains_are_consecutive_id_ranges(self, graph_corpus):
        # The graph corpus, and the 300 automata of acceptance criterion 5.
        rng = random.Random(SEED_NFA_CORPUS)
        automata = [random_trim_nfa(rng, 7, rng.randint(1, 3), rng.choice([0.1, 0.3]))
                    for _ in range(300)]
        results = [run_pipeline(g) for g in graph_corpus]
        results += [run_pipeline(nfa) for nfa in automata]
        for result in results:
            order, chains = result.quotient.order, result.chains.chains
            assert [c for chain in chains for c in chain] == list(range(order.n))
            assert all(order.holds(c, c + 1) for chain in chains for c in chain[:-1])

    def test_sparse_nondeterministic_automaton_builds_in_bounded_memory(self):
        # 192 states with 0-2 targets per state and symbol: its subset pairs
        # number far more than fit in 1.5 GiB, so the build must not visit them.
        code = """
import random
from colexgraph import LabeledGraph, Nfa, run_pipeline
rng = random.Random(1)
n, syms = 192, ("a", "b", "c")
edges = {(u, v, s) for u in range(n) for s in syms
         for v in rng.sample(range(n), rng.randint(0, 2))}
finals = frozenset(v for v in range(n) if rng.random() < 0.3)
run_pipeline(Nfa(LabeledGraph.build(n, edges, syms), 0, finals)).index()
"""
        limit = 3 << 29  # 1.5 GiB of address space
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 0, proc.stderr[-2000:]
