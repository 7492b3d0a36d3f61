"""Command-line front end: build, query, accept, quotient, stats, verify.

An input file is an automaton when it has an ``initial`` or ``final`` line and
a graph otherwise; ``graph.parse_input`` decides, and every command that reads
one builds through ``pipeline.run_pipeline``, which marks an automaton's
initial state. To index an automaton's edges as a graph, drop its ``initial``
and ``final`` lines.

Exit codes: 0 = match/accept (or success for non-query commands), 1 = no
match/no accept (or a failed verification), 2 = any error. User input never
raises a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graph import LabeledGraph, Nfa, format_graph, format_nfa, parse_input
from .index import MAGIC, Index, parse_pattern
from .oracle import run_graph_checks
from .pipeline import run_pipeline
from .relation import dump_relation

DEFAULT_SEED = 991

_EXIT_MATCH = 0
_EXIT_NO_MATCH = 1
_EXIT_ERROR = 2


class CliError(Exception):
    pass


def _read_input(path: str) -> LabeledGraph | Nfa:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None
    return parse_input(text)


def _is_index_file(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == MAGIC
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _cmd_build(args) -> int:
    ix = run_pipeline(_read_input(args.graph)).index()
    ix.save(args.output)
    print(f"indexed {ix.n_original} nodes / {ix.e_original} edges -> "
          f"{ix.n_classes} classes / {ix.e_quotient} edges, width {ix.q}")
    return _EXIT_MATCH


def _cmd_query(args) -> int:
    ix = Index.load(args.index)
    symbols = parse_pattern(ix.alphabet, args.pattern)
    matched, end = ix.match_pattern(symbols)
    print("yes" if matched else "no")
    # a trimmed automaton's node map holds its renumbered states, not the input's
    if matched and ix.n_nodes == ix.n_original:
        print("end-nodes " + " ".join(map(str, sorted(ix.map_back(end)))))
    return _EXIT_MATCH if matched else _EXIT_NO_MATCH


def _cmd_accept(args) -> int:
    ix = Index.load(args.index)
    symbols = parse_pattern(ix.alphabet, args.string)
    accepted = ix.accept(symbols)
    print("accept" if accepted else "reject")
    return _EXIT_MATCH if accepted else _EXIT_NO_MATCH


def _cmd_quotient(args) -> int:
    result = run_pipeline(_read_input(args.graph))
    qn, qg, kept = result.automaton, result.quotient, result.kept
    out = format_nfa(qn.as_nfa()) if qn is not None else format_graph(qg.graph)
    out += "".join(f"# class {cid}: {' '.join(str(kept[v]) for v in group)}\n"
                   for cid, group in enumerate(qg.partition.members))
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return _EXIT_MATCH


def _cmd_stats(args) -> int:
    if _is_index_file(args.input):
        ix = Index.load(args.input)
    else:
        ix = run_pipeline(_read_input(args.input)).index()
    report = ix.space_report()
    rows = [("n", ix.n_original), ("edges", ix.e_original), ("classes", ix.n_classes),
            ("quotient-edges", ix.e_quotient), ("width", ix.q),
            ("measured-bits", report.measured_bits), ("formula-bits", report.formula_bits)]
    if args.format == "tsv":
        print("\t".join(k for k, _ in rows))
        print("\t".join(str(v) for _, v in rows))
    else:
        for k, v in rows:
            print(f"{k} {v}")
    return _EXIT_MATCH


def _cmd_verify(args) -> int:
    result = run_pipeline(_read_input(args.graph))
    results = run_graph_checks(result, seed=args.seed)
    if args.dump_relation:
        Path(args.dump_relation).write_text(dump_relation(result.relation), encoding="utf-8")
    failed = sum(not res.ok for res in results)
    for res in results:
        detail = f" {res.detail}" if res.detail else ""
        print(f"CHECK {res.name} {'PASS' if res.ok else 'FAIL'}{detail}")
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
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_ERROR
    except MemoryError:
        print(f"error: out of memory running {args.command}; the input is too large "
              "for the memory available", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
