"""The package's public names: what the benchmark imports, and what is not public."""

import argparse
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import colexgraph
from colexgraph import cli, oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Helpers that check the paper's lemmas; the build never calls them.
LEMMA_HELPERS = ("union", "refines", "transitive_closure", "parse_relation",
                 "is_colex_relation", "is_antisymmetric", "project_nodes", "lift_classes",
                 "project_relation", "lift_relation", "min_colex_containing",
                 "max_antichain", "preorder_width", "lambda_sets", "angle")

# Helpers that moved from the library modules into the oracle.
MOVED_TO_ORACLE = ("max_antichain", "preorder_width", "lambda_sets", "angle",
                   "identity_relation", "relation_from_pairs")


def _colexgraph_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every ``from colexgraph... import name`` in perfbench."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            if module and module.split(".")[0] == "colexgraph":
                found += [(path.name, module, alias.name) for alias in node.names]
    return found


def test_every_name_the_benchmark_imports_resolves():
    imports = _colexgraph_imports()
    assert {module for _, module, _ in imports} >= {"colexgraph", "colexgraph.oracle"}
    for file, module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{file}: {module} has no {name}"


def test_every_public_name_resolves():
    assert len(colexgraph.__all__) == len(set(colexgraph.__all__))
    for name in colexgraph.__all__:
        assert hasattr(colexgraph, name), name


def test_lemma_helpers_live_in_the_oracle():
    for name in LEMMA_HELPERS:
        assert callable(getattr(oracle, name)), name
        assert name not in colexgraph.__all__
        assert not hasattr(colexgraph, name), name
    assert not hasattr(colexgraph.Relation, "is_antisymmetric")


def test_the_library_modules_hold_no_lemma_helper():
    """The width certificate, the label sets and the test-only relation
    constructors are the oracle's alone: no library module or ``Relation``
    keeps a copy."""
    for name in MOVED_TO_ORACLE:
        assert callable(getattr(oracle, name)), name
        for module in (colexgraph, colexgraph.graph, colexgraph.chains, colexgraph.relation):
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("identity", "from_pairs", "__contains__"):
        assert not hasattr(colexgraph.Relation, name), name


def test_induced_order_is_gone():
    assert not hasattr(colexgraph, "induced_order")
    assert not hasattr(colexgraph.quotient, "induced_order")


def test_a_build_is_a_written_record_and_every_index_is_open():
    """``build_index`` returns the written file, which answers no query;
    an ``Index`` is open from its constructor on, with no lazy open."""
    assert "WrittenIndex" in colexgraph.__all__
    result = colexgraph.run_pipeline(colexgraph.parse_input("nodes 2\n0 1 a\n"))
    built = colexgraph.build_index(result.quotient, result.chains)
    assert type(built) is colexgraph.WrittenIndex
    for name in ("match_pattern", "accept", "follow"):
        assert not hasattr(built, name), name
    opened = built.open()
    assert type(opened) is colexgraph.Index
    for name in ("_open", "_lock", "_refusal"):
        assert not hasattr(colexgraph.Index, name), name
        assert not hasattr(opened, name), name


def test_one_class_set_type():
    """Queries take and return one state type; the dense set is gone."""
    assert not hasattr(colexgraph, "ConvexSet")
    assert not hasattr(colexgraph.index, "ConvexSet")
    assert not hasattr(colexgraph.Index, "empty_set")
    assert "ClassSet" in colexgraph.__all__ and "ConvexSet" not in colexgraph.__all__


def test_the_input_decides_the_marker():
    """``run_pipeline`` takes the parsed input alone: an automaton is always
    built with its initial state marked, so ``marked`` is derived, not
    stored, and no command has an option to choose the marker."""
    assert list(inspect.signature(colexgraph.run_pipeline).parameters) == ["source"]
    fields = {f.name for f in dataclasses.fields(colexgraph.PipelineResult)}
    assert "marked" not in fields and {"source", "automaton"} <= fields
    parser = cli._make_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: set(sub._option_string_actions) - {"-h", "--help"}
               for name, sub in commands.choices.items()}
    assert options == {"build": {"-o", "--output"}, "query": set(), "accept": set(),
                       "quotient": {"-o", "--output"}, "stats": {"--format"},
                       "verify": {"--seed", "--dump-relation"}}


def test_the_input_decides_the_index_mode():
    """``build_index`` reads the mode from the quotient it is given, a graph's
    or an automaton's; it has no option for finals or an initial class. The
    old automaton entry point is the same function, kept off the public
    list while the benchmark imports it."""
    assert list(inspect.signature(colexgraph.build_index).parameters) == [
        "quotient", "cp", "n_original", "e_original"]
    assert colexgraph.build_nfa_index is colexgraph.build_index
    assert "build_nfa_index" not in colexgraph.__all__


def test_the_marker_stops_at_the_relation():
    """Only ``max_colex_relation`` takes a marked set. The quotient takes the
    graph and the preorder, keeps no marked classes, and its partition no node
    count beside the class map; no name in the quotient or index modules
    refers to a marked set."""
    assert list(inspect.signature(colexgraph.quotient_graph).parameters) == ["g", "pre"]
    assert list(inspect.signature(colexgraph.quotient_nfa).parameters) == ["a", "pre"]
    assert [f.name for f in dataclasses.fields(colexgraph.QuotientGraph)] == [
        "graph", "partition", "order", "input_edges"]
    assert [f.name for f in dataclasses.fields(colexgraph.ClassPartition)] == [
        "class_of", "members"]
    for module in (colexgraph.quotient, colexgraph.index):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        names = {getattr(node, field) for node in ast.walk(tree)
                 for field in ("id", "attr", "arg", "name") if hasattr(node, field)}
        assert not [n for n in names if isinstance(n, str) and "marked" in n], module.__name__
