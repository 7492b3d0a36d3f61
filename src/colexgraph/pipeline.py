"""The build pipeline: one parsed input through every stage, in the paper's order.

An automaton is trimmed, and its initial state marked when asked; then come the
maximum co-lex relation, the quotient, a minimum chain partition of the class
order and, on request, the per-chain index layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import ChainPartition, min_chain_partition
from .graph import LabeledGraph, Nfa, trim_nfa
from .index import WrittenIndex, build_index
from .quotient import QuotientGraph, quotient_graph, quotient_nfa
from .relation import Preorder, max_colex_relation


@dataclass(frozen=True)
class PipelineResult:
    """Every stage's output for one input.

    ``source`` is what the stages saw: a graph as given, an automaton trimmed.
    ``automaton`` reads the quotient as an automaton (``None`` for a graph); it
    keeps the language only when the initial state was marked. ``n_original``
    and ``e_original`` count the input before trimming.
    """

    source: LabeledGraph | Nfa
    marked: frozenset[int]
    relation: Preorder
    quotient: QuotientGraph
    automaton: Nfa | None
    chains: ChainPartition
    n_original: int
    e_original: int

    @property
    def graph(self) -> LabeledGraph:
        return self.source.graph if isinstance(self.source, Nfa) else self.source

    def index(self) -> WrittenIndex:
        """The ``.clxi`` file of the quotient laid out along the chains, as
        ``build_index`` writes it: an automaton's with its finals and initial
        class. Its ``open()`` is the index that answers queries."""
        view = self.automaton
        finals, initial = (None, None) if view is None else (view.finals, view.initial)
        return build_index(self.quotient, self.chains, finals, initial,
                           self.n_original, self.e_original)


def run_pipeline(source: LabeledGraph | Nfa, mark_initial: bool = False) -> PipelineResult:
    """Run the stages on a parsed graph or automaton.

    ``mark_initial`` marks an automaton's initial state, so that the quotient
    keeps the language (``quotient_nfa`` checks it) and the index answers
    ``accept``. A graph has no initial state: asking is a ``ValueError``.
    """
    graph = source.graph if isinstance(source, Nfa) else source
    n_original, e_original = graph.n, len(graph.edges)
    if isinstance(source, Nfa):
        source, _ = trim_nfa(source)
        graph = source.graph
    elif mark_initial:
        raise ValueError("only an automaton (a file with 'initial' and 'final' lines) "
                         "has an initial state to mark")
    marked = frozenset({source.initial}) if mark_initial else frozenset()
    relation = max_colex_relation(graph, marked)
    if mark_initial:
        qn = quotient_nfa(source, relation)
        quotient, automaton = qn.quotient, qn.as_nfa()
    else:
        quotient, automaton = quotient_graph(graph, relation), None
        if isinstance(source, Nfa):  # a graph-level collapse: it need not keep the language
            class_of = quotient.partition.class_of
            automaton = Nfa(quotient.graph, class_of[source.initial],
                            frozenset(class_of[f] for f in source.finals))
    return PipelineResult(source, marked, relation, quotient, automaton,
                          min_chain_partition(quotient.order), n_original, e_original)
