"""The paper's claims about the width of the co-lex relation, on the inputs
that witness them."""

import pytest

from colexgraph import LabeledGraph, run_pipeline
from colexgraph.oracle import brute_match, min_colex_containing


def complete_loop_graph(n: int) -> LabeledGraph:
    """Every node feeds every node, itself included, on the one label 'a'."""
    return LabeledGraph.build(n, [(u, v, "a") for u in range(n) for v in range(n)], ["a"])


@pytest.mark.parametrize("n", [1, 2, 6, 50, 200])
def test_complete_loop_graph_has_relation_width_one(n):
    """Claim (2): for every n there is a graph whose co-lex orders have width
    p = n while its co-lex relation has width q = 1. On the complete one-label
    graph with self-loops every node reads the same strings, so the maximum
    relation relates every pair both ways: one class, one chain. For n <= 6,
    the least co-lex relation holding any pair (u, v) also holds (v, u), so no
    co-lex order relates two nodes and p = n."""
    g = complete_loop_graph(n)
    result = run_pipeline(g)
    assert result.quotient.partition.count == 1 and result.chains.chain_count == 1
    if n <= 6:
        for u in range(n):
            for v in range(n):
                if u != v:
                    least = min_colex_containing(g, u, v)
                    assert least is not None and least.holds(v, u), (u, v)
    ix = result.index().open()
    assert (ix.n_original, ix.e_original, ix.n_classes, ix.q) == (n, n * n, 1, 1)
    for pattern in ((), ("a",), ("a", "a", "a")):
        matched, end = ix.match_pattern(pattern)
        assert (matched, ix.map_back(end)) == brute_match(g, pattern)
