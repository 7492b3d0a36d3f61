import os
import resource
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from colexgraph import (Index, Preorder, build_index, format_graph, format_nfa,
                        max_colex_relation, min_chain_partition, parse_input, parse_nfa,
                        quotient_nfa, run_pipeline)
from colexgraph.cli import main
from colexgraph.oracle import language_equiv, simulate_nfa
from conftest import double_hub_graph, funnel_nfa, loop_branch_nfa
from helpers import decoded, put_stored, reseal, v6_offsets


@pytest.fixture
def hub_file(tmp_path):
    path = tmp_path / "hub.graph"
    path.write_text(format_graph(double_hub_graph(2)), encoding="utf-8")
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.nfa"
    path.write_text(format_nfa(loop_branch_nfa()), encoding="utf-8")
    return str(path)


def record_loads(monkeypatch) -> list:
    """The indexes ``Index.load`` returns from here on, in load order."""
    loaded, load = [], Index.load
    monkeypatch.setattr(Index, "load", lambda path: loaded.append(load(path)) or loaded[-1])
    return loaded


class TestBuildAndQuery:
    def test_build_then_query(self, hub_file, tmp_path, capsys):
        out = str(tmp_path / "hub.clxi")
        assert main(["build", hub_file, "-o", out]) == 0
        assert main(["query", out, "a"]) == 0
        printed = capsys.readouterr().out
        assert "yes" in printed and "end-nodes 0 1" in printed

    def test_query_maps_back_classes_of_several_nodes(self, tmp_path, capsys, monkeypatch):
        """The double hub of five nodes has the classes {3, 4} and {0, 1, 2}:
        ``query`` prints the three end nodes of ``a`` from the members it
        makes, and a pattern that misses makes none."""
        path = tmp_path / "hub.txt"
        path.write_text("alphabet a\nnodes 5\n3 0 a\n3 1 a\n3 2 a\n4 0 a\n4 1 a\n4 2 a\n",
                        encoding="utf-8")
        out = str(tmp_path / "hub.clxi")
        assert main(["build", str(path), "-o", out]) == 0
        capsys.readouterr()
        opened = record_loads(monkeypatch)
        assert main(["query", out, "a"]) == 0
        assert capsys.readouterr().out == "yes\nend-nodes 0 1 2\n"
        assert opened[-1]._members == ((3, 4), (0, 1, 2))
        assert main(["query", out, "aa"]) == 1
        assert capsys.readouterr().out == "no\n"
        assert opened[-1]._members is None

    def test_trimmed_index_makes_no_members(self, tmp_path, capsys, monkeypatch):
        """``query`` on a trimmed automaton's index prints no node line, and
        it tells so from the indexed-node count, without making members."""
        path = tmp_path / "dead.nfa"
        path.write_text(TestTrimmedStates.TEXT, encoding="utf-8")
        out = str(tmp_path / "dead.clxi")
        assert main(["build", str(path), "-o", out]) == 0
        capsys.readouterr()
        opened = record_loads(monkeypatch)
        assert main(["query", out, "b"]) == 0
        assert capsys.readouterr().out == "yes\n"
        assert (opened[-1].n_nodes, opened[-1].n_original) == (2, 3)
        assert opened[-1]._members is None

    def test_no_match_exits_one(self, hub_file, tmp_path, capsys):
        out = str(tmp_path / "hub.clxi")
        main(["build", hub_file, "-o", out])
        assert main(["query", out, "aa"]) == 1
        assert "no" in capsys.readouterr().out

    def test_empty_pattern_matches_nonempty_graph(self, hub_file, tmp_path):
        out = str(tmp_path / "hub.clxi")
        main(["build", hub_file, "-o", out])
        assert main(["query", out, ""]) == 0

    def test_marker_pattern_is_an_error(self, hub_file, tmp_path, capsys):
        out = str(tmp_path / "hub.clxi")
        main(["build", hub_file, "-o", out])
        assert main(["query", out, "@"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path):
        assert main(["build", str(tmp_path / "nope"), "-o", str(tmp_path / "x")]) == 2

    def test_malformed_graph_is_an_error(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("nodes 2\n0 1\n", encoding="utf-8")
        assert main(["build", str(bad), "-o", str(tmp_path / "x")]) == 2

    def test_oversized_graph_is_a_one_line_error(self, tmp_path, capsys):
        big = tmp_path / "big.graph"
        big.write_text("nodes 70000\n0 1 a\n", encoding="utf-8")
        assert main(["build", str(big), "-o", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "capped" in err

    def test_graph_over_the_address_space_limit_is_refused_before_allocating(self, tmp_path):
        # 65,536 nodes pass the node cap, but the build would need about 16 GiB.
        big = tmp_path / "big.graph"
        big.write_text("nodes 65536\n0 1 a\n", encoding="utf-8")
        code = """
import sys, time
from colexgraph.cli import main
start = time.perf_counter()
status = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(status)
"""
        limit = 1 << 30  # 1 GiB of address space
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, "build", str(big), "-o", str(tmp_path / "big.clxi")],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr == ("error: graph has 65536 nodes; its dense relations need about "
                               "16.0 GiB, above the 1.0 GiB address-space limit\n")
        assert float(proc.stdout) < 1.0  # seconds in main: parse, then refuse

    def test_symbol_over_the_format_limit_is_a_one_line_error(self, tmp_path, capsys):
        # the alphabet table stores each symbol's UTF-8 length as a u16
        graph, out = tmp_path / "long.graph", tmp_path / "long.clxi"
        graph.write_text("nodes 2\n0 1 " + "x" * 70_000 + "\n", encoding="utf-8")
        error = ("error: symbol of 70000 UTF-8 bytes is over the index format's "
                 "limit of 65535\n")
        assert main(["build", str(graph), "-o", str(out)]) == 2
        assert capsys.readouterr().err == error
        assert not out.exists()
        # stats and verify build the same index, so they refuse it alike
        for command in ("stats", "verify"):
            assert main([command, str(graph)]) == 2
            assert capsys.readouterr() == ("", error)
        graph.write_text("nodes 2\n0 1 " + "x" * 65_535 + "\n", encoding="utf-8")
        assert main(["build", str(graph), "-o", str(out)]) == 0
        assert Index.load(str(out)).alphabet.symbols == ("x" * 65_535,)

    def test_querying_a_non_index_file_is_an_error(self, hub_file, tmp_path, capsys):
        assert main(["query", hub_file, "a"]) == 2
        assert "error" in capsys.readouterr().err
        # shorter than the 28-byte header: the magic is read first
        short = tmp_path / "one.graph"
        short.write_bytes(b"nodes 1\n")
        for command in ("query", "accept"):
            assert main([command, str(short), "a"]) == 2
            assert capsys.readouterr() == ("", "error: not an index file (bad magic)\n")

    def test_truncated_index_is_an_error(self, hub_file, tmp_path, capsys):
        out = tmp_path / "hub.clxi"
        main(["build", hub_file, "-o", str(out)])
        out.write_bytes(out.read_bytes()[:10])
        assert main(["query", str(out), "a"]) == 2
        assert "error" in capsys.readouterr().err

    def test_out_of_range_class_id_in_chain_is_an_error(self, loop_file, tmp_path, capsys):
        out = tmp_path / "loop.clxi"
        main(["build", loop_file, "-o", str(out)])
        raw = bytearray(out.read_bytes())
        # the class of node 0: 3 classes leave a 2-bit id room for 3
        assert Index.load(str(out)).n_classes == 3
        put_stored(raw, v6_offsets(bytes(raw)), "class_map", [3, 2, 1])
        out.write_bytes(reseal(raw))
        assert main(["query", str(out), "a"]) == 2
        err = capsys.readouterr().err
        assert err == "error: truncated or corrupt index file\n"

    def test_empty_group_is_a_one_line_error(self, loop_file, tmp_path, capsys):
        out = tmp_path / "loop.clxi"
        main(["build", loop_file, "-o", str(out)])
        raw = bytearray(out.read_bytes())
        # group ends [1, 2, 3], stored as the sizes [1, 1, 1], as [2, 2, 3]:
        # the first group takes two edges and the second none, which every
        # other check lets through
        assert decoded(Index.load(str(out)))[1].ends == [1, 2, 3]
        put_stored(raw, v6_offsets(bytes(raw)), "ends", [2, 0, 1])
        out.write_bytes(reseal(raw))
        with pytest.raises(ValueError, match="ends do not rise"):
            Index.load(str(out))
        capsys.readouterr()
        assert main(["stats", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: group ends do not rise to the edge count\n"

    def test_version_3_index_is_a_one_line_error(self, hub_file, tmp_path, capsys):
        out = tmp_path / "hub.clxi"
        main(["build", hub_file, "-o", str(out)])
        raw = bytearray(out.read_bytes())
        struct.pack_into("<H", raw, 4, 3)
        out.write_bytes(bytes(raw))
        assert main(["query", str(out), "a"]) == 2
        assert capsys.readouterr().err == "error: unsupported index format version 3\n"

    def test_version_4_index_is_a_one_line_error(self, hub_file, tmp_path, capsys):
        """A file marked v4 or v5, with a CRC that matches, is refused by its
        version: v5 stores differences where v4 stored values, and v6 drops
        v5's marked classes and its header's class count."""
        out = tmp_path / "hub.clxi"
        main(["build", hub_file, "-o", str(out)])
        built = out.read_bytes()
        for version in (4, 5):
            raw = bytearray(built)
            struct.pack_into("<H", raw, 4, version)
            out.write_bytes(reseal(raw))
            for argv in (["query", str(out), "a"], ["stats", str(out)]):
                assert main(argv) == 2
                assert capsys.readouterr().err == \
                    f"error: unsupported index format version {version}\n"

    def test_backend_option_is_gone(self, hub_file, tmp_path):
        out = str(tmp_path / "hub.clxi")
        main(["build", hub_file, "-o", out])
        for argv in (["build", hub_file, "-o", out], ["query", out, "a"],
                     ["accept", out, "a"]):
            with pytest.raises(SystemExit) as exited:
                main(argv + ["--backend", "plain"])
            assert exited.value.code == 2

    def test_out_of_memory_is_a_one_line_error(self, hub_file, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("colexgraph.pipeline.max_colex_relation", exhausted)
        assert main(["build", hub_file, "-o", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory ") and err.count("\n") == 1

    def test_saved_index_answers_like_in_memory(self, loop_file, tmp_path):
        out = str(tmp_path / "loop.clxi")
        main(["build", loop_file, "-o", out])
        from helpers import nfa_pipeline
        qn, cp = nfa_pipeline(loop_branch_nfa())
        mem = build_index(qn, cp).open()
        disk = Index.load(out)
        for p in ("", "a", "ab", "aab", "b", "aaab"):
            syms = list(p)
            assert disk.accept(syms) == mem.accept(syms)
            assert disk.match_pattern(syms) == mem.match_pattern(syms)


    def test_library_and_cli_write_the_same_file(self, loop_file, tmp_path, capsys):
        """``build`` saves the bytes that the library's
        ``run_pipeline(...).index()`` writes, and ``stats`` prints the
        same rows for both files as for the automaton text, which it builds
        and does not open."""
        cli, lib = tmp_path / "cli.clxi", tmp_path / "lib.clxi"
        assert main(["build", loop_file, "-o", str(cli)]) == 0
        text = Path(loop_file).read_text(encoding="utf-8")
        run_pipeline(parse_input(text)).index().save(lib)
        assert cli.read_bytes() == lib.read_bytes()
        capsys.readouterr()
        printed = []
        for path in (cli, lib, loop_file):
            assert main(["stats", str(path)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] == printed[2]
        assert printed[0].startswith("n 3\nedges 3\nclasses 3\n")


class TestAccept:
    def test_accept_and_reject(self, loop_file, tmp_path, capsys):
        out = str(tmp_path / "loop.clxi")
        assert main(["build", loop_file, "-o", out]) == 0
        assert main(["accept", out, "ab"]) == 0
        assert "accept" in capsys.readouterr().out
        assert main(["accept", out, "b"]) == 1

    def test_accept_needs_automaton_index(self, hub_file, tmp_path, capsys):
        out = str(tmp_path / "hub.clxi")
        main(["build", hub_file, "-o", out])
        capsys.readouterr()
        assert main(["accept", out, "a"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: index lacks automaton data ")
        assert captured.err.count("\n") == 1

    def test_half_automaton_index_is_refused(self, tmp_path, capsys):
        """Flag bits 0 (finals) and 1 (the initial class) are written together
        or not at all. An automaton's file with one of them cleared, finals
        without an initial class or an initial class without finals, is
        refused at open, and ``accept`` prints one error line."""
        raw = run_pipeline(loop_branch_nfa()).index().to_bytes()
        assert struct.unpack_from("<H", raw, 6) == (3,)
        for flags in (1, 2):
            half = bytearray(raw)
            struct.pack_into("<H", half, 6, flags)
            half = reseal(half)
            with pytest.raises(ValueError, match="^truncated or corrupt index file$"):
                Index.from_bytes(half)
            out = tmp_path / f"flags{flags}.clxi"
            out.write_bytes(half)
            capsys.readouterr()
            assert main(["accept", str(out), "a"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: truncated or corrupt index file\n"

    def test_accept_needs_marker(self, tmp_path, capsys):
        # The funnel quotients to the same automaton with or without the
        # marker; built with no flag, its index has the marker and accepts.
        nfa = funnel_nfa(2)
        path = tmp_path / "funnel.nfa"
        path.write_text(format_nfa(nfa), encoding="utf-8")
        out = str(tmp_path / "funnel.clxi")
        assert main(["build", str(path), "-o", out]) == 0
        capsys.readouterr()
        for word in ("", "a", "aa", "aaa"):
            want = simulate_nfa(nfa, tuple(word))
            assert main(["accept", out, word]) == (0 if want else 1)
            assert capsys.readouterr().out == ("accept\n" if want else "reject\n")

    def test_mark_initial_requires_nfa(self, hub_file, loop_file, tmp_path):
        # an automaton is always built marked, so the option is gone for a
        # graph and an automaton alike, and no index is written
        for path in (hub_file, loop_file):
            with pytest.raises(SystemExit) as exited:
                main(["build", path, "-o", str(tmp_path / "x"), "--mark-initial"])
            assert exited.value.code == 2
        assert not (tmp_path / "x").exists()


class TestInputKind:
    """The text decides between graph and automaton; there is no --nfa flag."""

    def test_automaton_text_builds_without_flags(self, loop_file, tmp_path, capsys):
        out = tmp_path / "loop.clxi"
        assert main(["build", loop_file, "-o", str(out)]) == 0
        assert capsys.readouterr().out == (
            "indexed 3 nodes / 3 edges -> 3 classes / 3 edges, width 2\n")
        # the automaton index with its initial state marked, laid out stage by stage
        nfa = loop_branch_nfa()
        qn = quotient_nfa(nfa, max_colex_relation(nfa.graph, {nfa.initial}))
        want = build_index(qn, min_chain_partition(qn.quotient.order))
        assert out.read_bytes() == want.to_bytes()

    def test_automaton_text_quotients_without_flags(self, loop_file, capsys):
        assert main(["quotient", loop_file]) == 0
        assert capsys.readouterr().out == (
            "alphabet a b\nnodes 3\n0 2 a\n2 0 a\n2 1 b\ninitial 0\nfinal 1 2\n"
            "# class 0: 0\n# class 1: 2\n# class 2: 1\n")

    def test_nfa_option_is_gone(self, loop_file, tmp_path):
        for argv in (["build", loop_file, "-o", str(tmp_path / "x")],
                     ["quotient", loop_file]):
            with pytest.raises(SystemExit) as exited:
                main(argv + ["--nfa"])
            assert exited.value.code == 2

    def test_final_without_initial_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "half.nfa"
        path.write_text("nodes 2\n0 1 a\nfinal 1\n", encoding="utf-8")
        assert main(["build", str(path), "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "error: missing 'initial' line\n"

    def test_mark_initial_on_a_graph_is_one_error_line(self, hub_file, tmp_path, capsys):
        # a graph has no initial state, and the option is gone: argparse
        # refuses it with its usage and one error line naming it
        for argv in (["build", hub_file, "-o", str(tmp_path / "x")], ["quotient", hub_file]):
            with pytest.raises(SystemExit) as exited:
                main(argv + ["--mark-initial"])
            assert exited.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if "error: " in line]
            assert len(errors) == 1 and "--mark-initial" in errors[0]
        assert not (tmp_path / "x").exists()


class TestStats:
    def test_stats_on_graph_file(self, hub_file, capsys):
        assert main(["stats", hub_file]) == 0
        out = capsys.readouterr().out
        assert "n 4" in out
        assert "edges 4" in out
        assert "classes 2" in out
        assert "quotient-edges 1" in out
        assert "width 1" in out

    def test_unreadable_path_is_a_one_line_error(self, tmp_path, capsys):
        for path in (tmp_path / "missing.clxi", tmp_path):
            assert main(["stats", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot read {path}: ")
            assert captured.err.count("\n") == 1

    def test_stats_on_index_file(self, hub_file, tmp_path, capsys):
        out = str(tmp_path / "hub.clxi")
        main(["build", hub_file, "-o", out])
        capsys.readouterr()
        assert main(["stats", out]) == 0
        assert "width 1" in capsys.readouterr().out

    def test_tsv_format(self, hub_file, capsys):
        assert main(["stats", hub_file, "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        header, values = (line.split("\t") for line in lines)
        assert len(header) == len(values)
        assert header[0] == "n" and values[0] == "4"


class TestQuotientCommand:
    def test_emits_classes_and_reparses(self, loop_file, capsys):
        assert main(["quotient", loop_file]) == 0
        out = capsys.readouterr().out
        assert "# class 0: 0" in out
        reparsed = parse_nfa(out)
        assert reparsed.graph.n == 3

    def test_unmarked_collapse(self, tmp_path, capsys):
        g = double_hub_graph(3)
        path = tmp_path / "hub.graph"
        path.write_text(format_graph(g), encoding="utf-8")
        assert main(["quotient", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes 2" in out
        assert "# class 0: 3 4" in out
        assert "# class 1: 0 1 2" in out

    @pytest.mark.parametrize("text", [
        # the three-state automaton of the CI's console steps
        "alphabet a b\nnodes 3\n0 1 a\n1 0 a\n1 2 b\ninitial 0\nfinal 1 2\n",
        format_nfa(funnel_nfa(2)),
    ], ids=["auto", "funnel"])
    def test_quotient_of_an_automaton_keeps_its_language(self, text, tmp_path, capsys):
        path = tmp_path / "auto.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["quotient", str(path)]) == 0
        assert language_equiv(parse_nfa(text), parse_nfa(capsys.readouterr().out))

    def test_output_file(self, loop_file, tmp_path):
        dest = tmp_path / "q.nfa"
        assert main(["quotient", loop_file, "-o", str(dest)]) == 0
        assert dest.exists() and "initial" in dest.read_text(encoding="utf-8")


class TestTrimmedStates:
    """Trimming renumbers the states it keeps; output names the input's ids."""

    # state 1 reads "a" but reaches no final, so trimming drops it and state 2
    # becomes state 1 of the automaton the stages see
    TEXT = "alphabet a b\nnodes 3\n0 1 a\n0 2 b\ninitial 0\nfinal 2\n"

    def test_quotient_class_lines_list_input_ids(self, tmp_path, capsys):
        path = tmp_path / "dead.nfa"
        path.write_text(self.TEXT, encoding="utf-8")
        assert main(["quotient", str(path)]) == 0
        assert capsys.readouterr().out == (
            "alphabet a b\nnodes 2\n0 1 b\ninitial 0\nfinal 1\n"
            "# class 0: 0\n# class 1: 2\n")

    def test_query_prints_no_trimmed_ids(self, loop_file, tmp_path, capsys):
        path = tmp_path / "dead.nfa"
        path.write_text(self.TEXT, encoding="utf-8")
        out = str(tmp_path / "dead.clxi")
        assert main(["build", str(path), "-o", out]) == 0
        capsys.readouterr()
        # the node map holds 2 of the 3 input states, under their trimmed ids
        for pattern in ("b", ""):
            assert main(["query", out, pattern]) == 0
            assert capsys.readouterr().out == "yes\n"
        # an automaton that trimming keeps whole indexes the input's ids
        out = str(tmp_path / "loop.clxi")
        assert main(["build", loop_file, "-o", out]) == 0
        capsys.readouterr()
        assert main(["query", out, "b"]) == 0
        assert capsys.readouterr().out == "yes\nend-nodes 2\n"


class TestVerify:
    def test_graph_checks_pass(self, hub_file, capsys):
        assert main(["verify", hub_file]) == 0
        out = capsys.readouterr().out
        assert "CHECK pattern-oracle PASS" in out
        assert "FAIL" not in out
        for gone in ("max-relation-axioms", "single-in-edge", "monotone-groups"):
            assert gone not in out

    def test_relation_breaking_the_axioms_is_a_one_line_error(self, hub_file, monkeypatch,
                                                              capsys):
        # The all-pairs preorder puts a sink below a hub: the pipeline refuses it.
        monkeypatch.setattr("colexgraph.pipeline.max_colex_relation",
                            lambda g, marked: Preorder(np.ones((g.n, g.n), dtype=bool)))
        assert main(["verify", hub_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: relation is not a co-lex relation")
        assert captured.err.count("\n") == 1

    def test_empty_graph_checks_pass(self, tmp_path, capsys):
        # build, query, stats and quotient accept a graph of no nodes; so does verify
        empty = tmp_path / "empty.graph"
        empty.write_text("nodes 0\n", encoding="utf-8")
        assert main(["verify", str(empty)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == "7/7 checks passed"

    def test_nfa_checks_pass(self, loop_file, capsys):
        assert main(["verify", loop_file]) == 0
        out = capsys.readouterr().out
        assert "CHECK accept-oracle PASS" in out
        assert "CHECK powerset-bounds PASS" in out
        assert "CHECK language-quotient-equal PASS" in out

    def test_wrong_antichain_fails(self, hub_file, monkeypatch, capsys):
        # The hub graph's two classes form one chain: both together are not
        # an antichain, and no antichain is empty.
        for wrong in (frozenset({0, 1}), frozenset()):
            monkeypatch.setattr("colexgraph.oracle.max_antichain", lambda order: wrong)
            assert main(["verify", hub_file]) == 1
            out = capsys.readouterr().out
            assert "CHECK dilworth-certificate FAIL" in out
            assert out.count("FAIL") == 1

    def test_a_reader_that_decodes_a_value_wrong_fails_the_roundtrip(self, loop_file,
                                                                      monkeypatch, capsys):
        """``serialize-roundtrip`` writes the arrays that the file decodes to
        again, with the header's fields: a reader that gets one value wrong
        writes other bytes, and that check alone fails."""
        import colexgraph.oracle
        real = colexgraph.oracle._read

        def misread(raw):
            alphabet, widths, stored = real(raw)
            stored.class_map[-1] ^= 1
            return alphabet, widths, stored
        assert main(["verify", loop_file]) == 0
        assert "CHECK serialize-roundtrip PASS" in capsys.readouterr().out
        monkeypatch.setattr(colexgraph.oracle, "_read", misread)
        assert main(["verify", loop_file]) == 1
        out = capsys.readouterr().out
        assert "CHECK serialize-roundtrip FAIL" in out and out.count("FAIL") == 1
        assert out.splitlines()[-1] == "9/10 checks passed"

    def test_graph_stages_run_once(self, hub_file, tmp_path, monkeypatch, capsys):
        import colexgraph.chains, colexgraph.oracle, colexgraph.pipeline, colexgraph.quotient
        import colexgraph.relation
        calls = Counter()
        stages = [(module, name) for module in (colexgraph.pipeline, colexgraph.oracle,
                                                colexgraph.chains, colexgraph.quotient)
                  for name in ("max_colex_relation", "quotient_graph", "min_chain_partition")
                  if hasattr(module, name)]
        # the matching, which every Preorder runs once when it certifies itself
        stages.append((colexgraph.relation, "_chain_cover"))
        for module, name in stages:
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        assert main(["build", hub_file, "-o", str(tmp_path / "hub.clxi")]) == 0
        assert calls == {"max_colex_relation": 1, "quotient_graph": 1,
                         "min_chain_partition": 1, "_chain_cover": 1}
        calls.clear()
        dest = tmp_path / "rel.txt"
        assert main(["verify", hub_file, "--dump-relation", str(dest)]) == 0
        # min_chain_partition: the pipeline's chains, and the matching of the
        # Dilworth certificate, both read from the certified class order;
        # _chain_cover: the pipeline's relation, and the reference Preorder
        # of oracle.gfp_max_relation
        assert calls == {"max_colex_relation": 1, "quotient_graph": 1,
                         "min_chain_partition": 2, "_chain_cover": 2}
        assert len(dest.read_text(encoding="utf-8").splitlines()) == 8

    def test_dump_relation(self, hub_file, tmp_path, capsys):
        dest = tmp_path / "rel.txt"
        assert main(["verify", hub_file, "--dump-relation", str(dest)]) == 0
        capsys.readouterr()
        lines = dest.read_text(encoding="utf-8").splitlines()
        # strict pairs of the two-hub maximum relation: 2 + 4 + 2
        assert len(lines) == 8
        assert all(len(line.split()) == 2 for line in lines)
        assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split())))
