"""Command-line front end: build, query, accept, quotient, stats, verify.

Exit codes: 0 = match/accept (or success for non-query commands), 1 = no
match/no accept (or a failed verification), 2 = any error. User input never
raises a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .chains import min_chain_partition
from .graph import (EmptyLanguageError, GraphFormatError, Nfa, format_graph, format_nfa,
                    parse_graph, parse_nfa, trim_nfa)
from .index import MAGIC, Index, PatternError, build_index, parse_pattern
from .oracle import run_graph_checks
from .quotient import quotient_graph, quotient_nfa
from .relation import dump_relation, max_colex_relation

DEFAULT_SEED = 991

_EXIT_MATCH = 0
_EXIT_NO_MATCH = 1
_EXIT_ERROR = 2


class CliError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _is_index_file(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == MAGIC
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _is_nfa_text(text: str) -> bool:
    """Automaton files are the ones with an ``initial`` line."""
    return any(line.strip().startswith("initial") for line in text.splitlines())


def _quotient(text: str, nfa_mode: bool, mark_initial: bool):
    """Parse, trim, compute the maximum relation and take the quotient.

    Returns the quotient graph, its automaton view (``None`` for a graph
    file) and the node and edge counts of the input as parsed.
    """
    if not nfa_mode:
        graph = parse_graph(text)
        return quotient_graph(graph, max_colex_relation(graph)), None, graph.n, len(graph.edges)
    automaton = parse_nfa(text)
    n_orig, e_orig = automaton.graph.n, len(automaton.graph.edges)
    automaton, _ = trim_nfa(automaton)
    marked = frozenset({automaton.initial}) if mark_initial else frozenset()
    pre = max_colex_relation(automaton.graph, marked)
    if mark_initial:
        qn = quotient_nfa(automaton, pre)
        return qn.quotient, qn.as_nfa(), n_orig, e_orig
    # Without the marker the quotient is only a graph-level collapse;
    # the automaton view need not preserve the language.
    qg = quotient_graph(automaton.graph, pre)
    class_of = qg.partition.class_of
    view = Nfa(qg.graph, class_of[automaton.initial],
               frozenset(class_of[f] for f in automaton.finals))
    return qg, view, n_orig, e_orig


def _build_pipeline(text: str, nfa_mode: bool, mark_initial: bool) -> Index:
    """Quotient the input, partition its order into chains and index it."""
    qg, view, n_orig, e_orig = _quotient(text, nfa_mode, mark_initial)
    finals, initial = (view.finals, view.initial) if view is not None else (None, None)
    return build_index(qg, min_chain_partition(qg.order), finals=finals, initial=initial,
                       n_original=n_orig, e_original=e_orig)


def _cmd_build(args) -> int:
    if args.mark_initial and not args.nfa:
        raise CliError("--mark-initial requires --nfa")
    ix = _build_pipeline(_read_text(args.graph), args.nfa, args.mark_initial)
    ix.save(args.output)
    print(f"indexed {ix.n_original} nodes / {ix.e_original} edges -> "
          f"{ix.n_classes} classes / {ix.e_quotient} edges, width {ix.q}")
    return _EXIT_MATCH


def _cmd_query(args) -> int:
    ix = Index.load(args.index)
    symbols = parse_pattern(ix.alphabet, args.pattern)
    matched, end = ix.match_pattern(symbols)
    nodes = sorted(ix.map_back(end))
    print("yes" if matched else "no")
    if nodes:
        print("end-nodes " + " ".join(map(str, nodes)))
    return _EXIT_MATCH if matched else _EXIT_NO_MATCH


def _cmd_accept(args) -> int:
    ix = Index.load(args.index)
    symbols = parse_pattern(ix.alphabet, args.string)
    try:
        accepted = ix.accept(symbols)
    except ValueError as e:
        raise CliError(str(e)) from None
    print("accept" if accepted else "reject")
    return _EXIT_MATCH if accepted else _EXIT_NO_MATCH


def _cmd_quotient(args) -> int:
    qg, view, _, _ = _quotient(_read_text(args.graph), args.nfa, args.mark_initial)
    body = format_nfa(view) if view is not None else format_graph(qg.graph)
    lines = [body.rstrip("\n")]
    for cid, group in enumerate(qg.partition.members):
        lines.append(f"# class {cid}: " + " ".join(map(str, group)))
    out = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return _EXIT_MATCH


def _stats_rows(ix: Index) -> list[tuple[str, object]]:
    report = ix.space_report()
    return [
        ("n", ix.n_original),
        ("edges", ix.e_original),
        ("classes", ix.n_classes),
        ("quotient-edges", ix.e_quotient),
        ("width", ix.q),
        ("measured-bits", report.measured_bits),
        ("formula-bits", report.formula_bits),
    ]


def _cmd_stats(args) -> int:
    if _is_index_file(args.input):
        ix = Index.load(args.input)
    else:
        text = _read_text(args.input)
        nfa_mode = _is_nfa_text(text)
        ix = _build_pipeline(text, nfa_mode, nfa_mode)
    rows = _stats_rows(ix)
    if args.format == "tsv":
        print("\t".join(k for k, _ in rows))
        print("\t".join(str(v) for _, v in rows))
    else:
        for k, v in rows:
            print(f"{k} {v}")
    return _EXIT_MATCH


def _cmd_verify(args) -> int:
    text = _read_text(args.graph)
    nfa_mode = _is_nfa_text(text)
    if nfa_mode:
        automaton, _ = trim_nfa(parse_nfa(text))
        graph = automaton.graph
        results = run_graph_checks(graph, seed=args.seed, nfa=automaton)
    else:
        graph = parse_graph(text)
        results = run_graph_checks(graph, seed=args.seed)
    if args.dump_relation:
        marked = frozenset({automaton.initial}) if nfa_mode else frozenset()
        Path(args.dump_relation).write_text(
            dump_relation(max_colex_relation(graph, marked)), encoding="utf-8")
    failed = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        detail = f" {res.detail}" if res.detail else ""
        print(f"CHECK {res.name} {status}{detail}")
        failed += 0 if res.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return _EXIT_MATCH if failed == 0 else _EXIT_NO_MATCH


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colexgraph",
        description="Index edge-labeled graphs for pattern matching via the "
                    "maximum co-lex relation and its quotient.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index file from a graph/automaton file")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--nfa", action="store_true", help="input is an automaton file")
    p.add_argument("--mark-initial", action="store_true",
                   help="compute the relation with the initial state marked "
                        "(required for acceptance queries)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="match a pattern anywhere in the indexed graph")
    p.add_argument("index")
    p.add_argument("pattern")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("accept", help="test automaton language membership")
    p.add_argument("index")
    p.add_argument("string")
    p.set_defaults(func=_cmd_accept)

    p = sub.add_parser("quotient", help="print the quotient graph/automaton")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--nfa", action="store_true")
    p.add_argument("--mark-initial", action="store_true")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("stats", help="sizes and space accounting of an index or graph file")
    p.add_argument("input")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify", help="run oracle cross-checks on a graph/automaton file")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--dump-relation", metavar="FILE",
                   help="also write the maximum relation (one 'u v' line per strict pair)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GraphFormatError, EmptyLanguageError, PatternError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_ERROR
    except MemoryError:
        print(f"error: out of memory running {args.command}; the input is too large "
              "for the memory available", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
