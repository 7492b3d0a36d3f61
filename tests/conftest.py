import random

import pytest
from hypothesis import strategies as st

from colexgraph import Alphabet, LabeledGraph, Nfa
from colexgraph.oracle import random_graph

# Seeds for every randomized sweep; keep in one place so runs are reproducible.
SEED_GRAPH_CORPUS = 1301
SEED_NFA_CORPUS = 1302
SEED_ORDER_CORPUS = 1303
SEED_ACYCLIC_CORPUS = 1304
SEED_SPACE_FAMILY = 909
SEED_BIG_GRAPH = 606


def fan_graph() -> LabeledGraph:
    """One source feeding two sinks with the same label."""
    return LabeledGraph.build(3, [(0, 1, "a"), (0, 2, "a")], ["a"])


def two_cycle_graph() -> LabeledGraph:
    return LabeledGraph.build(2, [(0, 1, "a"), (1, 0, "a")], ["a"])


def double_hub_graph(n: int) -> LabeledGraph:
    """Sinks 0..n-1, hubs n and n+1, every hub feeds every sink with 'a'."""
    edges = [(h, i, "a") for h in (n, n + 1) for i in range(n)]
    return LabeledGraph.build(n + 2, edges, ["a"])


def loop_branch_nfa() -> Nfa:
    """Two states swapping on 'a', with a 'b' branch to an accepting sink."""
    g = LabeledGraph.build(3, [(0, 1, "a"), (1, 0, "a"), (1, 2, "b")], ["a", "b"])
    return Nfa(g, 0, frozenset({1, 2}))


def funnel_nfa(n: int) -> Nfa:
    """Initial 0 feeds hubs 1,2; each hub feeds accepting sinks 3..n+2."""
    edges = [(0, 1, "a"), (0, 2, "a")] + [(h, 3 + i, "a") for h in (1, 2) for i in range(n)]
    g = LabeledGraph.build(n + 3, edges, ["a"])
    return Nfa(g, 0, frozenset(range(3, n + 3)))


def diamond_nfa() -> Nfa:
    """Five states whose string sets overlap but are not equal: 3 reads
    {a, bd, cd} and 4 reads {bd, cd, e}."""
    g = LabeledGraph.build(
        5,
        [(0, 1, "c"), (0, 2, "b"), (1, 3, "d"), (1, 4, "d"),
         (2, 3, "d"), (2, 4, "d"), (0, 3, "a"), (0, 4, "e")],
        ["a", "b", "c", "d", "e"])
    return Nfa(g, 0, frozenset({3, 4}))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(4242)


@pytest.fixture(scope="session")
def graph_corpus():
    """1000 seeded random graphs, n <= 8, up to 3 symbols, densities 0.1/0.3."""
    rng = random.Random(SEED_GRAPH_CORPUS)
    corpus = []
    for _ in range(1000):
        n = rng.randint(1, 8)
        syms = rng.randint(1, 3)
        density = rng.choice([0.1, 0.3])
        corpus.append(random_graph(rng, n, syms, density))
    return corpus


@st.composite
def small_graphs(draw, max_n: int = 6, max_symbols: int = 3, allow_empty: bool = True):
    n = draw(st.integers(1, max_n))
    n_syms = draw(st.integers(1, max_symbols))
    symbols = tuple("abc"[:n_syms])
    possible = [(u, v, a) for u in range(n) for v in range(n) for a in symbols]
    edges = draw(st.sets(st.sampled_from(possible),
                         min_size=0 if allow_empty else 1,
                         max_size=min(len(possible), 14)))
    return LabeledGraph(n, frozenset(edges), Alphabet(symbols))


@st.composite
def small_nfas(draw, max_n: int = 6):
    g = draw(small_graphs(max_n=max_n, allow_empty=False))
    initial = draw(st.integers(0, g.n - 1))
    finals = draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    return Nfa(g, initial, frozenset(finals))
