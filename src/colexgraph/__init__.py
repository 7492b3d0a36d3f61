"""Pattern matching on edge-labeled graphs through the maximum co-lex relation.

Pipeline: parse a graph, compute its maximum co-lex relation, collapse to the
quotient graph, chain-partition the induced partial order, and build an index
answering path and language queries as per-chain interval steps.
``run_pipeline`` runs these stages in order on a parsed graph or automaton.
"""

from .chains import ChainPartition, min_chain_partition
from .graph import (AT, HASH, Alphabet, EmptyLanguageError, GraphFormatError, LabeledGraph,
                    Nfa, format_graph, format_nfa, parse_graph, parse_input, parse_nfa,
                    trim_nfa)
from .index import (ClassSet, Index, PatternError, QueryStats, SpaceReport, WrittenIndex,
                    build_index, build_nfa_index, parse_pattern)
from .pipeline import PipelineResult, run_pipeline
from .quotient import (ClassPartition, QuotientGraph, QuotientNfa, classes, quotient_graph,
                       quotient_nfa)
from .relation import (AxiomViolation, Preorder, Relation, dump_relation,
                       first_axiom_violation, max_colex_relation)

__version__ = "0.1.0"

__all__ = [
    "AT", "HASH", "Alphabet", "AxiomViolation", "ChainPartition", "ClassPartition",
    "ClassSet", "EmptyLanguageError", "GraphFormatError", "Index", "LabeledGraph",
    "Nfa", "PatternError", "PipelineResult", "Preorder", "QueryStats",
    "QuotientGraph", "QuotientNfa",
    "Relation", "SpaceReport", "WrittenIndex", "build_index", "build_nfa_index",
    "classes", "dump_relation", "first_axiom_violation", "format_graph", "format_nfa",
    "max_colex_relation", "min_chain_partition", "parse_graph", "parse_input", "parse_nfa",
    "parse_pattern", "quotient_graph", "quotient_nfa", "run_pipeline", "trim_nfa",
]
