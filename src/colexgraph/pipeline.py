"""The build pipeline: one parsed input through every stage, in the paper's order.

An automaton is trimmed; then come the maximum co-lex relation, the quotient,
a minimum chain partition of the class order and, on request, the index layout.
Only the relation reads the marker on an automaton's initial state, which keeps
it a singleton class, from which ``quotient_nfa`` certifies the language.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import ChainPartition, min_chain_partition
from .graph import LabeledGraph, Nfa, trim_nfa
from .index import WrittenIndex, build_index
from .quotient import QuotientGraph, QuotientNfa, quotient_graph, quotient_nfa
from .relation import Preorder, max_colex_relation


@dataclass(frozen=True)
class PipelineResult:
    """Every stage's output for one input.

    ``source`` is what the stages saw: a graph as given, an automaton trimmed.
    ``automaton`` is the ``QuotientNfa`` that ``quotient_nfa`` made, the
    quotient with its initial and final classes and the same language
    (``None`` for a graph). ``kept`` maps each node the stages saw to its
    id in the input: ``trim_nfa``'s kept map, the identity for a graph.
    ``n_original`` and ``e_original`` count the input before trimming.
    """

    source: LabeledGraph | Nfa
    relation: Preorder
    quotient: QuotientGraph
    automaton: QuotientNfa | None
    chains: ChainPartition
    kept: tuple[int, ...]
    n_original: int
    e_original: int

    @property
    def graph(self) -> LabeledGraph:
        return self.source.graph if isinstance(self.source, Nfa) else self.source

    @property
    def marked(self) -> frozenset[int]:
        """The states the relation was computed with marked."""
        return _marked(self.source)

    def index(self) -> WrittenIndex:
        """The ``.clxi`` file of the quotient laid out along the chains, as
        ``build_index`` writes it: an automaton's with its finals and initial
        class. Its ``open()`` is the index that answers queries."""
        return build_index(self.automaton or self.quotient, self.chains,
                           self.n_original, self.e_original)


def _marked(source: LabeledGraph | Nfa) -> frozenset[int]:
    """An automaton's initial state; a graph has none."""
    return frozenset({source.initial}) if isinstance(source, Nfa) else frozenset()


def run_pipeline(source: LabeledGraph | Nfa) -> PipelineResult:
    """Run the stages on a parsed graph or automaton.

    An automaton is trimmed and its relation computed with the initial state
    marked, so that the quotient keeps the language (``quotient_nfa`` checks
    it) and the index answers ``accept``; ``run_pipeline(nfa.graph)`` indexes
    its edges as a graph.
    """
    if isinstance(source, Nfa):
        n_original, e_original = source.graph.n, len(source.graph.edges)
        source, kept = trim_nfa(source)
        relation = max_colex_relation(source.graph, _marked(source))
        automaton = quotient_nfa(source, relation)
        quotient = automaton.quotient
    else:
        n_original, e_original, kept = source.n, len(source.edges), tuple(range(source.n))
        relation = max_colex_relation(source, _marked(source))
        quotient, automaton = quotient_graph(source, relation), None
    return PipelineResult(source, relation, quotient, automaton,
                          min_chain_partition(quotient.order), kept, n_original, e_original)
