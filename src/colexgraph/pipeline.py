"""The build pipeline: one parsed input through every stage, in the paper's order.

An automaton is trimmed and its initial state marked, so that its quotient
keeps the language; then come the maximum co-lex relation, the quotient, a
minimum chain partition of the class order and, on request, the index layout.
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
    ``automaton`` reads the quotient as an automaton with the same language
    (``None`` for a graph). ``n_original`` and ``e_original`` count the input
    before trimming.
    """

    source: LabeledGraph | Nfa
    relation: Preorder
    quotient: QuotientGraph
    automaton: Nfa | None
    chains: ChainPartition
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
        view = self.automaton
        quotient = (self.quotient if view is None
                    else QuotientNfa(self.quotient, view.initial, view.finals))
        return build_index(quotient, self.chains, self.n_original, self.e_original)


def _marked(source: LabeledGraph | Nfa) -> frozenset[int]:
    """An automaton's initial state; a graph has none."""
    return frozenset({source.initial}) if isinstance(source, Nfa) else frozenset()


def run_pipeline(source: LabeledGraph | Nfa) -> PipelineResult:
    """Run the stages on a parsed graph or automaton.

    An automaton is trimmed and its initial state marked, so that the quotient
    keeps the language (``quotient_nfa`` checks it) and the index answers
    ``accept``; ``run_pipeline(nfa.graph)`` indexes its edges as a graph.
    """
    graph = source.graph if isinstance(source, Nfa) else source
    n_original, e_original = graph.n, len(graph.edges)
    if isinstance(source, Nfa):
        source, _ = trim_nfa(source)
        graph = source.graph
    relation = max_colex_relation(graph, _marked(source))
    if isinstance(source, Nfa):
        qn = quotient_nfa(source, relation)
        quotient, automaton = qn.quotient, qn.as_nfa()
    else:
        quotient, automaton = quotient_graph(graph, relation), None
    return PipelineResult(source, relation, quotient, automaton,
                          min_chain_partition(quotient.order), n_original, e_original)
