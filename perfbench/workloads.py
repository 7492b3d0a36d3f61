"""Seeded inputs for the benchmark workloads.

Every workload is a list of units; a unit is the text one ``colexgraph build``
would read plus the queries asked of the index built from it. The same seed
gives the same texts and queries. The de Bruijn generator lives here; the
automaton family comes from ``colexgraph.oracle``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from colexgraph import Alphabet, LabeledGraph, Nfa, format_graph, format_nfa
from colexgraph.oracle import random_trim_nfa

DNA = "ACGT"


@dataclass(frozen=True)
class Unit:
    """One index to build: its input text and the queries asked of it."""

    text: str
    nfa: bool
    queries: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    units: tuple[Unit, ...]
    rounds: int        # set-ups per run, each followed by opens and a query slice
    load_reps: int     # opens of every index per round


def random_dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(DNA) for _ in range(length))


def debruijn_text(dna: str, k: int) -> str:
    """Graph text of the order-k de Bruijn graph of ``dna`` read as a circle.

    Nodes are the distinct k-mers; each position adds the edge from its k-mer
    to the next one, labeled with the base the next k-mer ends in. Reading the
    sequence as a circle leaves no node without in-edges, so every string
    reaching a node ends in that node's k-mer and the graph is Wheeler (q = 1).
    """
    circ = dna + dna[:k]
    ids: dict[str, int] = {}
    for i in range(len(dna)):
        ids.setdefault(circ[i:i + k], len(ids))
    edges = frozenset((ids[circ[i:i + k]], ids[circ[i + 1:i + 1 + k]], circ[i + k])
                      for i in range(len(dna)))
    return format_graph(LabeledGraph(len(ids), edges, Alphabet(tuple(DNA))))


def wheeler_dna(seed: int) -> Workload:
    """k = 6 de Bruijn graph of 1400 bases; 2000 length-12 patterns.

    Three patterns in five are substrings of the circular sequence and walk all
    twelve steps; the others are uniform random and usually die part way. With
    an even split the median fell on the gap between the two kinds and moved
    by up to 45% between seeds while the tail and throughput held.
    """
    rng = random.Random(seed)
    dna = random_dna(rng, 1400)
    circ = dna + dna[:12]
    patterns = []
    for i in range(2000):
        if i % 5 < 3:
            j = rng.randrange(len(dna))
            patterns.append(tuple(circ[j:j + 12]))
        else:
            patterns.append(tuple(rng.choice(DNA) for _ in range(12)))
    unit = Unit(debruijn_text(dna, 6), False, tuple(patterns))
    return Workload("wheeler-dna", (unit,), rounds=4, load_reps=20)


def nfa_walk(rng: random.Random, a: Nfa, length: int) -> tuple[str, ...]:
    """Labels of a random walk of up to ``length`` edges from the initial state."""
    out_adj = a.graph.out_adjacency()
    labels: list[str] = []
    u = a.initial
    for _ in range(length):
        moves = [(sym, v) for sym, targets in out_adj[u].items() for v in targets]
        if not moves:
            break
        sym, u = rng.choice(moves)
        labels.append(sym)
    return tuple(labels)


def nfa_corpus(seed: int) -> Workload:
    """200 random trim automata, twenty in each size band 1-4, 5-8, ..., 37-40
    states; ten strings each, one of every length 1-10.

    Sizes drawn freely moved the corpus's total width, and with it the median
    accept latency, by about half from seed to seed; equal bands hold it steady.
    The slowest queries come from the top band, so it needs enough automata
    for the tail to be the band's and not one automaton's. Ten strings per
    automaton let every query be asked about five times in a run; giving each
    automaton every length once keeps the length mix, which sets the median,
    the same from seed to seed.
    No automaton has more than 40 states, so every one stays on the relation
    module's pair-graph queue path (at most 64 nodes).
    Four strings in five spell a random walk from the initial state, so they
    reach the finals check; the fifth is uniform random and mostly dies early.
    """
    rng = random.Random(seed)
    units = []
    for i in range(200):
        smallest = 4 * (i // 20) + 1
        a = random_trim_nfa(rng, smallest + 3, 3, 0.08)
        while a.graph.n < smallest:
            a = random_trim_nfa(rng, smallest + 3, 3, 0.08)
        symbols = a.graph.alphabet.symbols
        lengths = list(range(1, 11))
        rng.shuffle(lengths)
        strings = []
        for k, length in enumerate(lengths):
            if k % 5:
                strings.append(nfa_walk(rng, a, length))
            else:
                strings.append(tuple(rng.choice(symbols) for _ in range(length)))
        units.append(Unit(format_nfa(a), True, tuple(strings)))
    return Workload("nfa-corpus", tuple(units), rounds=4, load_reps=2)


WORKLOADS = {
    "wheeler-dna": wheeler_dna,
    "nfa-corpus": nfa_corpus,
}


def regime_error(name: str, sizes: list[dict]) -> str | None:
    """Why the built indexes left the regime the workload was chosen for, or None.

    ``sizes`` holds one dict per unit with at least ``n`` and ``q``.
    """
    if name == "wheeler-dna":
        q = sizes[0]["q"]
        if q > 2:
            return f"wheeler-dna must be Wheeler-like (q <= 2), got q={q}"
    return None
