"""Test-only constructions shared across modules."""

import zlib

import numpy as np

from colexgraph import LabeledGraph, QuotientNfa, Relation, lambda_sets, run_pipeline
from colexgraph.graph import Alphabet


def strict_label_relation(g: LabeledGraph, u_marked=()) -> Relation:
    """The canonical non-trivial co-lex relation: (u, v) whenever every label of
    u strictly precedes every label of v, plus the diagonal."""
    ranks = [[g.alphabet.rank(s) for s in lam] for lam in lambda_sets(g, u_marked)]
    hi = np.array([max(r) for r in ranks])
    lo = np.array([min(r) for r in ranks])
    return Relation(np.eye(g.n, dtype=bool) | (hi[:, None] < lo[None, :]))


def expected_double_hub_relation(n: int) -> Relation:
    """Relation the two-hub family must produce: sinks all mutually comparable,
    hubs mutually comparable, every hub below every sink."""
    bits = np.zeros((n + 2, n + 2), dtype=bool)
    bits[:n, :n] = True  # sinks
    bits[n:, :] = True  # hubs, below each other and every sink
    return Relation(bits)


def two_node_alphabet_graph() -> LabeledGraph:
    """Node 2 reads only 'b', node 3 reads only 'a': (2, 3) can never be ordered."""
    return LabeledGraph(4, frozenset({(0, 2, "b"), (1, 3, "a")}), Alphabet(("a", "b")))


def quotient_pipeline(g: LabeledGraph):
    """Graph -> (quotient, chain partition) via the maximum relation."""
    result = run_pipeline(g)
    return result.quotient, result.chains


def nfa_pipeline(nfa):
    """Automaton -> (quotient NFA, chain partition) with the initial marked."""
    result = run_pipeline(nfa, mark_initial=True)
    view = result.automaton
    return QuotientNfa(result.quotient, view.initial, view.finals), result.chains


def reseal(buf: bytearray) -> bytes:
    """The bytes with a fresh CRC32 trailer, so that the range checks see them."""
    return bytes(buf[:-4]) + zlib.crc32(buf[:-4]).to_bytes(4, "little")
