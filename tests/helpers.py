"""Test-only constructions shared across modules."""

import importlib.util
import random
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from colexgraph import LabeledGraph, Relation, run_pipeline
from colexgraph.graph import Alphabet
from colexgraph.index import Index, WrittenIndex, _Arrays, _decode, _read, _write
from colexgraph.oracle import lambda_sets


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


def seeded_debruijn(seed: int, length: int, k: int) -> tuple[str, LabeledGraph]:
    """Seeded random DNA and its order-k de Bruijn graph, the sequence read as a
    circle: nodes are the distinct k-mers, and each position adds the edge from
    its k-mer to the next one, labeled with the base the next k-mer ends in. No
    node lacks an in-edge, so the graph is Wheeler (q = 1)."""
    rng = random.Random(seed)
    dna = "".join(rng.choice("ACGT") for _ in range(length))
    circ = dna + dna[:k]
    ids: dict[str, int] = {}
    for i in range(length):
        ids.setdefault(circ[i:i + k], len(ids))
    edges = ((ids[circ[i:i + k]], ids[circ[i + 1:i + 1 + k]], circ[i + k]) for i in range(length))
    return dna, LabeledGraph.build(len(ids), edges, "ACGT")


def benchmark_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def two_node_alphabet_graph() -> LabeledGraph:
    """Node 2 reads only 'b', node 3 reads only 'a': (2, 3) can never be ordered."""
    return LabeledGraph(4, frozenset({(0, 2, "b"), (1, 3, "a")}), Alphabet(("a", "b")))


def quotient_pipeline(g: LabeledGraph):
    """Graph -> (quotient, chain partition) via the maximum relation."""
    result = run_pipeline(g)
    return result.quotient, result.chains


def nfa_pipeline(nfa):
    """Automaton -> (quotient NFA, chain partition) with the initial marked."""
    result = run_pipeline(nfa)
    return result.automaton, result.chains


def interval_set(ix: Index, intervals):
    """The class set of one half-open position interval per chain, made by
    ``ix.set_for_classes`` from the classes the intervals cover."""
    return ix.set_for_classes([start + p for start, (lo, hi) in zip(ix._offsets, intervals)
                               for p in range(lo, hi)])


def reseal(buf: bytearray) -> bytes:
    """The bytes with a fresh CRC32 trailer, so that the range checks see them."""
    return bytes(buf[:-4]) + zlib.crc32(buf[:-4]).to_bytes(4, "little")


def written(*, alphabet: Alphabet, n_original: int, e_original: int, arrays: _Arrays,
            initial_class: int | None) -> Index:
    """The index of the given decoded arrays, written as ``build_index``
    writes them, by the ``.clxi`` writer, which refuses what a file cannot
    store, and loaded from the bytes, which the range checks refuse."""
    raw = _write(alphabet, n_original, e_original, arrays, initial_class)[0]
    return Index.from_bytes(raw)


def decoded(ix: WrittenIndex) -> tuple[tuple[int, ...], _Arrays]:
    """The width of each array that an index's file records, and the arrays
    the reader decodes from the file's stored ones."""
    alphabet, widths, stored = _read(ix.to_bytes())
    return widths, _decode(stored, len(alphabet))


def v6_offsets(raw: bytes) -> dict:
    """Where a v6 file's fields are: the byte offset of the header's
    ``n_original`` and ``q``, of each count after the alphabet, of each
    array's width byte (``<name>_width``) and of the initial class, and
    (offset, width) of each packed array."""
    ix = Index.from_bytes(raw)
    arrays = decoded(ix)[1]
    at = {"n_original": 8, "q": 20}
    off = struct.calcsize("<4sHHIQII") + sum(
        2 + len(sym.encode("utf-8")) for sym in ix.alphabet.symbols)
    for name in ("n_nodes", "n_groups", "n_edges", "n_finals"):
        at[name] = off
        off += 4
    widths = raw[off:off + len(_Arrays._fields)]
    for name in _Arrays._fields:
        at[name + "_width"] = off
        off += 1
    for name, width, values in zip(_Arrays._fields, widths, arrays):
        at[name] = (off, width)
        off += (width * len(values) + 63) // 64 * 8
    if ix.initial_class is not None:
        at["initial"] = off
        off += 4
    assert off + 4 == len(raw)
    return at


def put_stored(buf: bytearray, at: dict, name: str, values: list[int],
               width: int | None = None) -> None:
    """Overwrite the stored values of a one-word packed array and its width
    byte, by default at the width its largest value needs; ``at`` is from
    ``v6_offsets``."""
    start, old = at[name]
    if width is None:
        width = max(1, max(values).bit_length())
    assert len(values) * max(old, width) <= 64  # one word before and after
    buf[at[name + "_width"]] = width
    word = sum(value << (k * width) for k, value in enumerate(values))
    buf[start:start + 8] = word.to_bytes(8, "little")
