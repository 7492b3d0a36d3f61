"""The pattern-matching index over a quotient graph.

Classes are numbered chain-major, as the quotient numbers them: chain by chain
of a minimum chain partition of the class order, bottom to top along each, so
a class id is its chain's start plus its position on the chain. A convex class
set is one half-open position interval per chain. One symbol step ("follow")
probes, for every source chain with a non-empty interval, the edge groups of
that (symbol, source chain) pair, one per target chain; the reached positions
on each chain are filled in to an interval, which is exact because images of
convex sets are convex.

The index is one fixed set of seven integer arrays: the chain ends, the class
of every indexed node, the final class ids, and the edge store.
The store holds the group keys ``(target chain * sigma + symbol) * q + source
chain`` in increasing order with each group's end offset, and the edges' target
and source positions, group after group. An index is made from its ``.clxi``
file, which stores each increasing array as differences and the positions as
one head per group and the steps inside it (see docs/index-format.md). The
writer (``build_index``) returns the file as a ``WrittenIndex``: the bytes,
the header's counts and each array's bits, all that saving the file or
reporting its space reads, so a build never decodes what it wrote. The reader
(``Index.from_bytes``) hands the ``Index`` constructor the bytes and the
stored arrays, which it sums back once, in place, and range-checks; no stored
value is negative, so no array falls. The index keeps the bytes, which
``to_bytes`` returns, the decoded lists the queries read, and the checked
class map, which the first read of ``members`` (by ``map_back``) groups into
each class's nodes; no other query reads it. Each array is
packed (``_pack``) and unpacked (``_unpack``) bit-parallel: ``struct`` moves
its values into or out of little-endian lanes of 8, 16, 32 or 64 bits, and
⌈log₂ n⌉ rounds of whole-int shifts and masks merge neighbouring groups of
values or split them, so an array costs O(log n) C-level integer operations
and no Python step per value.

A chain of one class has one non-empty interval, so on it the step is NFA
state-set simulation. Queries fold over a state of two parts: the reached
one-class chains, as an ``int`` bitmask in which bit j stands for chain j, and
the non-empty interval ``lo, hi`` of each reached longer chain. A ``ClassSet``
is this state and the index that made it; every query takes and returns one, so
a step costs what it reaches, not O(q). Every query is one fold over its
symbols, ``follow`` a fold over one: it reads the index's tables once and adds
to its ``QueryStats`` once. The constructor checks the arrays and
derives two lookup structures from the store. One-class source chains are taken
four at a time, as in the Four Russians method for NFA simulation (Myers, J.
ACM 39(2), 1992): for each symbol and each block of four consecutive chain ids,
three 16-entry tables, indexed by the block's 4-bit slice of the reached mask,
give the OR of the reached chains' one-class target masks, their group count,
and their target intervals on longer chains, so a step does one table read per
non-zero slice. A block whose masks would be wide (see ``_NARROW``) keeps its
higher targets as ids in a fourth table, so the tables take memory linear in
the groups. A longer source chain has one probe-directory entry per symbol: one
record per group, with its target chain, first and last target, edge range, and
first and last source. A step probes these groups one at a time, and searches
the sources, with C ``bisect`` over the list of decoded positions, only where
the interval cuts into a group's source range. ``accept`` ANDs the reached mask
with the mask of the one-class chains that hold a final, and counts the finals
of each longer chain's end interval with two bisections of the final class ids.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, repeat
from numbers import Integral
from operator import ge, gt, mul, ne, sub
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .chains import ChainPartition
from .graph import MARKERS, Alphabet
from .quotient import QuotientGraph, QuotientNfa

MAGIC = b"CLXI"
FORMAT_VERSION = 6
_HEADER = "<4sHHIQII"
_COUNTS = "<IIII"  # indexed nodes, groups, edges, finals
_WIDTHS = "<7B"  # the bit width of each packed array, in file order

# Flag bits 0 (finals) and 1 (the initial class) are set together, for an
# automaton's index, or not at all, for a graph's.
_FLAG_AUTOMATON = 3
_CORRUPT = "truncated or corrupt index file"

# The step reads the reached one-class chains in blocks of four, and
# ``Index._check_store`` writes each block's 16-entry tables out for that
# width. On nfa-corpus, blocks of two cut the slowest queries' time by 51%, not
# 59%, and raised the load time by 22%, not 10%; blocks of eight (256-entry
# tables) about doubled the load time.
#
# A block's OR table holds masks only while they are at most _NARROW bits wide
# per group of the block, so that its 15 masks take O(1) words per group. A
# mask reaching a higher chain id is as wide as that id, and masks over the
# sparse images of a q ~ n automaton would take O(q) bits each, O(q^2) in all.
# A block whose targets all lie below _NARROW always passes.
_NARROW = 64

# The intervals of a fold state on the chains of more than one class:
# chain -> (lo, hi), non-empty.
_Longs = dict[int, Sequence[int]]
# The tables of one block of one-class source chains for one symbol, each
# indexed by the block's slice of the reached mask: the OR of the one-class
# target masks, the group count, the ``(chain, first target, last target + 1)``
# triples of the longer target chains (None if the block reaches none), and
# the one-class target ids left out of a wide block's masks (None if narrow).
_Tables = tuple[Sequence[int], Sequence[int], Sequence[tuple] | None,
                Sequence[tuple[int, ...]] | None]


class PatternError(ValueError):
    """Pattern contains a marker or a symbol outside the alphabet."""


@dataclass
class QueryStats:
    """Caller-owned instrumentation: one probe = one (target chain, symbol,
    source chain) group of the store looked at for a non-empty source
    interval. A step counts every group of each (symbol, source chain) pair
    it reads, whether the pair's groups come from a block table (one-class
    source chains, which carry their group counts) or from the probe
    directory (longer source chains)."""

    probes: int = 0
    symbols: int = 0


@dataclass(frozen=True, eq=False, slots=True)
class ClassSet:
    """A convex set of one index's classes, in the form its queries fold
    over: the reached one-class chains as a bitmask, bit j for chain j, and
    the non-empty interval ``lo, hi`` of each reached longer chain. Only the
    index's methods make one, and each of them refuses a set that another
    index made. Two sets are equal when they hold the same positions on the
    same chains, whichever index made them."""

    ones: int
    longs: _Longs
    index: Index = field(repr=False)

    def is_empty(self) -> bool:
        return not (self.ones or self.longs)

    def _chains(self) -> list[tuple[int, int, int]]:
        """The non-empty intervals as ``(chain, lo, hi)``, in chain order."""
        out = [(j, lo, hi) for j, (lo, hi) in self.longs.items()]
        # the mask's binary digits, lowest first: digit j is chain j's bit
        bits = bin(self.ones)[:1:-1]
        j = bits.find("1")
        while j >= 0:
            out.append((j, 0, 1))
            j = bits.find("1", j + 1)
        return sorted(out)

    def intervals(self) -> tuple[tuple[int, int], ...]:
        """One half-open position interval per chain, ``(0, 0)`` on a chain
        the set misses; made in O(q), only on request."""
        dense = [(0, 0)] * self.index.q
        for j, lo, hi in self._chains():
            dense[j] = (lo, hi)
        return tuple(dense)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassSet):
            return NotImplemented
        return self._chains() == other._chains()

    def __hash__(self) -> int:
        return hash(tuple(self._chains()))


def ceil_log2(x: int) -> int:
    """Smallest w with 2**w >= x; 0 for x <= 1."""
    return (x - 1).bit_length() if x > 1 else 0


def parse_pattern(alphabet: Alphabet, text: str) -> list[str]:
    """Split CLI pattern text into symbols.

    Whitespace-separated tokens if any whitespace is present; otherwise each
    character is a symbol (falling back to the whole string when it is itself
    an alphabet symbol). Markers are rejected.
    """
    if text == "":
        return []
    tokens = text.split() if any(c.isspace() for c in text) else list(text)
    if len(tokens) > 1 and not all(t in alphabet for t in tokens) and text in alphabet:
        tokens = [text]
    for t in tokens:
        if t not in alphabet:  # no alphabet holds a marker
            _refuse(t)
    return tokens


@dataclass(frozen=True)
class SpaceReport:
    measured_bits: int
    formula_bits: int
    breakdown: dict[str, int] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.measured_bits / self.formula_bits if self.formula_bits else float("inf")


class _Arrays(NamedTuple):
    """Every array of an index, in file order: decoded, stored, or its packed bits."""

    chain_ends: Sequence[int]  # one past the last class id of each chain
    class_map: Sequence[int]   # the class of each indexed node
    keys: Sequence[int]        # group keys, increasing
    ends: Sequence[int]        # end offset of each group's edges
    targets: Sequence[int]     # edge target positions, group after group
    sources: Sequence[int]     # edge source positions, group after group
    finals: Sequence[int]      # final class ids, increasing


def width_for(max_value: int) -> int:
    """Bit width needed to store values in 0..max_value (at least 1)."""
    return max(1, int(max_value).bit_length())


def _differences(values: Sequence[int]) -> list[int]:
    """The first value, then each value less the one before it."""
    return list(map(sub, values, [0, *values[:-1]]))


def _follow_ons(keys: Sequence[int], lengths: Sequence[int], q: int, sigma: int) -> list[int]:
    """The groups whose targets go on from the group before: both go into
    one chain of more than one class, on different symbols. A class entered
    by a smaller symbol lies no higher on a chain than one entered by a
    larger, so such a group's first target is at least the last target of
    the group before, and the file stores the step between them. The groups
    into one chain are one run of the keys, found by two bisections."""
    span, n, hi, out = sigma * q, len(keys), 0, []
    for j in compress(count(), map(gt, lengths, repeat(1))):
        lo = bisect_left(keys, j * span, hi, n)
        hi = bisect_left(keys, (j + 1) * span, lo, n)
        out += [g for g in range(lo + 1, hi) if keys[g] // q != keys[g - 1] // q]
    return out


def _lane(width: int) -> tuple[int, str]:
    """The lane that ``_pack`` and ``_unpack`` hold each value of ``width``
    bits in: the smallest of 8, 16, 32 and 64 bits that holds it, and its
    ``struct`` code."""
    k = ((width - 1) >> 3).bit_length()
    return 8 << k, "BHIQ"[k]


def _rounds(lane: int, length: int) -> Iterator[tuple[int, int]]:
    """The rounds of the codec for ``length`` values in lanes of ``lane``
    bits, from the widest down: for each group size g, a power of 2 below
    ``length``, g and a mask that is 1 on the low g lanes of every 2g lanes
    the values span. The first is the low g lanes alone, as the values span
    one chunk of 2g lanes; the one for g / 2 is the one for g XORed with
    itself shifted up by g / 2 lanes, two whole-int operations."""
    g = 1 << (max(length, 1) - 1).bit_length() >> 1
    mask = (1 << g * lane) - 1
    while g:
        yield g, mask
        g >>= 1
        mask ^= mask << g * lane


def _pack(width: int, values: Sequence[int]) -> bytes:
    """The values at ``width`` bits each, the first in the lowest bits, as whole
    little-endian 64-bit words: one array of a ``.clxi`` file. Each value
    must lie in 0 .. 2**width - 1, as the writer's choice of width makes it.

    ``struct`` puts each value in its lane, with explicit little-endian
    sizes, so the host's byte order never matters, and the lanes are read as
    one int. Each round, from the narrowest, merges the two groups of g
    packed values in every chunk of 2g lanes: the lower sits at the bottom of
    the chunk, and the upper, at the bottom of the chunk's upper g lanes,
    shifts down onto its end. That is ⌈log₂ n⌉ rounds of a few whole-int
    operations, O(n log n) bits of C work and no Python step per value
    (broadword field packing; Vigna, WEA 2008). The masks come widest
    first, so the rounds hold all ⌈log₂ n⌉ of them, each about n lanes."""
    n = len(values)
    lane, code = _lane(width)
    x = int.from_bytes(struct.pack(f"<{n}{code}", *values), "little")
    for g, mask in reversed([*_rounds(lane, n)]):
        lo = x & mask
        x = lo | ((x ^ lo) >> g * (lane - width))
    return x.to_bytes((width * n + 63) // 64 * 8, "little")


def _unpack(width: int, length: int, raw: bytes | memoryview) -> list[int]:
    """The ``length`` values that ``_pack(width, ...)`` wrote to ``raw``,
    whose bits past the last value are 0, as written. The rounds of
    ``_pack`` run backwards, from the widest: each splits the 2g packed
    values of every chunk of 2g lanes and shifts the upper g up to the bottom
    of the chunk's upper g lanes; then ``struct`` reads the lanes."""
    lane, code = _lane(width)
    x = int.from_bytes(raw, "little")
    for g, mask in _rounds(lane, length):
        # shifted down, the mask is 1 on the lower g values of each chunk
        # and 0 on the upper g, which end at 2g * width, below the point
        # g * (lane + width) where the next chunk's run now starts
        shift = g * (lane - width)
        lo = x & (mask >> shift)
        x = lo | ((x ^ lo) << shift)
    return list(struct.unpack(f"<{length}{code}", x.to_bytes(length * lane // 8, "little")))


def _refuse(symbol: str) -> NoReturn:
    if symbol in MARKERS:
        raise PatternError(f"marker {symbol!r} cannot appear in a pattern")
    raise PatternError(f"unknown symbol {symbol!r}")


def _require(ok: bool) -> None:
    if not ok:
        raise ValueError(_CORRUPT)


def _mask(chains: Iterable[int]) -> int:
    """The bitmask of a set of chain ids: bit j stands for chain j. It is
    built in a byte array, in time linear in the ids and the mask's width;
    ORing the bits in one at a time would copy the mask once per id."""
    ids = list(chains)
    bits = bytearray(max(ids, default=-1) // 8 + 1)
    for j in ids:
        bits[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(bits, "little")


def _unions(t0: tuple, t1: tuple, t2: tuple, t3: tuple) -> tuple[tuple, ...]:
    """The concatenations of a block's four tuples over each subset of its
    chains, indexed by the subset's bits: chain b is bit b."""
    t01, t23 = t0 + t1, t2 + t3
    return ((), t0, t1, t01, t2, t0 + t2, t1 + t2, t01 + t2,
            t3, t0 + t3, t1 + t3, t01 + t3, t23, t0 + t23, t1 + t23, t01 + t23)


def _write(alphabet: Alphabet, n_original: int, e_original: int, a: _Arrays,
           initial_class: int | None) -> tuple[bytes, tuple[int, ...], _Arrays]:
    """The ``.clxi`` file of the decoded arrays ``a``, an automaton's when
    ``initial_class`` is given, the bit width of each stored array, and the
    stored arrays: each increasing array as its first value and the
    differences between neighbours, the positions as a head per group and
    the steps inside it, a follow-on group's target head as its step from
    the group before (see ``_follow_ons``). Each array is packed at the
    width its largest stored value needs, which is the only check of its
    fit: ``_refuse_stored`` refuses arrays that would store a negative value,
    and a value wider than the format's 64 bits is refused here."""
    q, sigma = len(a.chain_ends), len(alphabet)
    flags = 0 if initial_class is None else _FLAG_AUTOMATON
    out = bytearray(struct.pack(_HEADER, MAGIC, FORMAT_VERSION, flags, n_original,
                                e_original, q, sigma))
    for sym in alphabet.symbols:
        raw = sym.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"symbol of {len(raw)} UTF-8 bytes is over the index "
                             "format's limit of 65535")
        out += struct.pack("<H", len(raw)) + raw
    out += struct.pack(_COUNTS, len(a.class_map), len(a.keys), len(a.targets), len(a.finals))
    lengths, sizes = _differences(a.chain_ends), _differences(a.ends)
    targets, sources = list(a.targets), list(a.sources)
    # A group of one edge is stored as its head alone; when every group
    # has one edge, there are no steps to take.
    longer = compress(zip(a.ends, sizes), map(gt, sizes, repeat(1))) \
        if len(sizes) < len(targets) else ()
    for end, size in longer:
        start = end - size
        targets[start + 1:end] = map(sub, a.targets[start + 1:end], a.targets[start:end - 1])
        sources[start + 1:end] = map(sub, a.sources[start + 1:end], a.sources[start:end - 1])
    follow_ons = _follow_ons(a.keys, lengths, q, sigma)
    for g in follow_ons:
        start = a.ends[g - 1]
        targets[start] -= a.targets[start - 1]
    stored = _Arrays(lengths, a.class_map, _differences(a.keys), sizes, targets, sources,
                     _differences(a.finals))
    if min(map(min, filter(None, stored)), default=0) < 0:
        _refuse_stored(a, stored, follow_ons, sigma)
    highs = [max(values, default=0) for values in stored]
    if max(highs) >> 64:
        raise ValueError(f"value {max(highs)} does not fit in 64 bits")
    widths = tuple(map(width_for, highs))
    out += struct.pack(_WIDTHS, *widths) + b"".join(map(_pack, widths, stored))
    if initial_class is not None:
        out += struct.pack("<I", initial_class)
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out), widths, stored


def _refuse_stored(a: _Arrays, stored: _Arrays, follow_ons: Sequence[int],
                   sigma: int) -> NoReturn:
    """Refuse the decoded arrays ``a``, whose stored form has a negative
    value, which no file holds. The first negative position names its group:
    inside it, a falling target is out of (target, source) order, and a
    falling source breaks source monotonicity; at its head, a follow-on
    group starts below the last target of the group before. Anything else
    is a corrupt index."""
    q, rest = len(a.chain_ends), stored._replace(targets=(), sources=())
    if min(map(min, filter(None, rest)), default=0) >= 0:
        p = next(p for p, (t, s) in enumerate(zip(stored.targets, stored.sources)) if min(t, s) < 0)
        g = bisect_right(a.ends, p)
        j, pair = divmod(a.keys[g], sigma * q)
        key = (j, *divmod(pair, q))
        if p > (a.ends[g - 1] if g else 0):
            raise ValueError(f"group {key} is not sorted by (target, source)"
                             if stored.targets[p] < 0 else
                             f"group {key} breaks source monotonicity; inputs were not a "
                             "chain partition of a co-lex order")
        if g in follow_ons and stored.targets[p] < 0:
            raise ValueError(
                f"group {key} starts below the last target of the group before it on a "
                "smaller symbol; inputs were not a chain partition of a co-lex order")
    raise ValueError(_CORRUPT)


def _read(raw: bytes) -> tuple[Alphabet, tuple[int, ...], _Arrays]:
    """The alphabet, the bit width of each stored array and the stored arrays
    of a ``.clxi`` file, after the file's own checks (see
    docs/index-format.md). A field cut short is a ``struct.error``."""
    view = memoryview(raw)
    off = 0

    def take(fmt: str):
        nonlocal off
        vals = struct.unpack_from(fmt, view, off)
        off += struct.calcsize(fmt)
        return vals

    def unpack(width: int, length: int) -> list[int]:
        nonlocal off
        size = (width * length + 63) // 64 * 8
        _require(size <= len(view) - off)  # before a huge count is decoded
        off += size
        # the last word's bits past the last value are 0, as written
        tail = width * length % 64
        _require(not tail or not int.from_bytes(view[off - 8:off], "little") >> tail)
        return _unpack(width, length, view[off - size:off])

    if raw[:4] != MAGIC[:len(raw)]:  # a shorter prefix of the magic is a cut file
        raise ValueError("not an index file (bad magic)")
    _, version, flags, _, _, q, sigma = take(_HEADER)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {version}")
    _require(zlib.crc32(view[:-4]) == struct.unpack_from("<I", view, len(view) - 4)[0])
    _require(flags in (0, _FLAG_AUTOMATON))
    # Group keys lie below sigma * q * q, which the format bounds by 2**64. No
    # build can exceed this: q <= 65,536 under the relation's dense cap, sigma < 2**32.
    _require(sigma * q * q <= 1 << 64)
    view = view[:-4]
    symbols = []
    for _ in range(sigma):
        (ln,) = take("<H")
        symbols.append(take(f"<{ln}s")[0].decode("utf-8"))
    n_nodes, n_groups, n_edges, n_finals = take(_COUNTS)
    _require(n_groups <= n_edges)  # no group is empty
    widths = take(_WIDTHS)
    _require(min(widths) >= 1 and max(widths) <= 64)
    counts = (q, n_nodes, n_groups, n_groups, n_edges, n_edges, n_finals)
    stored = _Arrays(*map(unpack, widths, counts))
    # Each width is the one its array's largest value needs, so that a file
    # is the one the writer makes of its arrays: width 1, or some value uses
    # the width's top bit, found at the first such value.
    _require(all(w == 1 or any(map(ge, values, repeat(1 << (w - 1))))
                 for w, values in zip(widths, stored)))
    off += 4 if flags else 0  # the initial class: the constructor reads it
    _require(off == len(view))  # no trailing bytes
    return Alphabet(tuple(symbols)), widths, stored


def _decode(stored: _Arrays, sigma: int) -> _Arrays:
    """The decoded arrays of the stored ones: the running sums of each
    increasing array, and the positions summed back group by group in the
    stored lists themselves. The class map is the stored list.

    A follow-on group's stored head is the step from the last target of the
    group before, so the groups are summed in order, and that target is
    added to the head alone, before the group's own running sum."""
    lengths, sizes = stored.chain_ends, stored.ends
    targets, sources, n_edges = stored.targets, stored.sources, len(stored.targets)
    chain_ends, keys, ends, finals = (
        [*accumulate(values)] for values in (lengths, stored.keys, sizes, stored.finals))
    follow_ons = set(_follow_ons(keys, lengths, len(lengths), sigma))
    # A group of one edge is stored as its head alone; when every group has
    # one edge and none follows on, there is nothing to sum.
    longer = compress(count(), map(gt, sizes, repeat(1))) if len(sizes) < n_edges else ()
    for g in sorted(follow_ons.union(longer)):
        end = ends[g]
        if end > n_edges:  # and so are the rest, which the constructor refuses
            break
        start = end - sizes[g]
        if g in follow_ons and start < end:
            targets[start] += targets[start - 1]
        if end - start > 1:
            targets[start:end] = accumulate(targets[start:end])
            sources[start:end] = accumulate(sources[start:end])
    return _Arrays(chain_ends, stored.class_map, keys, ends, targets, sources, finals)


class WrittenIndex:
    """A written ``.clxi`` file: its bytes, the header's counts and each
    array's bits as the file packs them, enough to save the file and to
    report its counts and space. ``build_index`` returns one. It keeps no
    array and answers no query; ``open()`` reads the bytes into an
    ``Index``."""

    def __init__(self, raw: bytes, alphabet: Alphabet, widths: Sequence[int],
                 stored: _Arrays):
        _, _, flags, n_original, e_original, q, _ = struct.unpack_from(_HEADER, raw)
        self.initial_class = (struct.unpack_from("<I", raw, len(raw) - 8)[0]
                              if flags else None)
        # the bytes, and each array's bits as the file packs it, for space_report()
        self._raw, self._bits = raw, _Arrays(*map(mul, widths, map(len, stored)))
        self.alphabet, self.n_original, self.e_original = alphabet, n_original, e_original
        # the chain lengths, stored as the differences of the chain ends, sum to the class count
        self.q, self.n_classes, self._sigma = q, sum(stored.chain_ends), len(alphabet)
        self.e_quotient = len(stored.targets)

    def open(self) -> Index:
        """The index these bytes hold, as ``Index.from_bytes`` reads it."""
        return Index.from_bytes(self._raw)

    def space_report(self) -> SpaceReport:
        """The bits of the arrays as the ``.clxi`` file packs them, against the
        paper's bound."""
        bits = self._bits
        breakdown = {
            "group_directory_bits": bits.keys + bits.ends,
            "position_array_bits": bits.targets + bits.sources,
            "boundary_bits": 0,  # the index holds no boundary vector
            "final_bits": bits.finals,
        }
        measured = sum(breakdown.values())
        # Reported, not counted:
        breakdown["chain_table_bits"] = bits.chain_ends
        breakdown["class_map_bits"] = bits.class_map
        breakdown["rank_directory_bits"] = 0  # the index holds no rank directory
        per_edge = ceil_log2(self._sigma) + ceil_log2(self.q) + 2
        formula = self.e_quotient * per_edge + self.n_classes
        if self.initial_class is not None:  # the finals
            formula += self.n_classes
        return SpaceReport(measured, formula, breakdown)

    def to_bytes(self) -> bytes:
        return self._raw

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self._raw)


class Index(WrittenIndex):
    """Immutable query structure; all methods are safe for concurrent readers.

    ``from_bytes`` and ``load`` make one from its ``.clxi`` file. The
    constructor takes the bytes, the width of each stored array and the
    stored arrays as the reader has them, sums the arrays back once, in
    place, range-checks them and derives what the queries read, so a
    corrupt file is refused before the index answers. It keeps the checked
    class map as it is; ``members``, which only ``map_back`` reads, groups it
    into one tuple of nodes per class on its first read. Concurrent first
    reads may each build equal tuples from the unchanging map, and each
    result is kept by a single attribute store, so every reader gets equal
    members."""

    def __init__(self, raw: bytes, alphabet: Alphabet, widths: Sequence[int],
                 stored: _Arrays):
        super().__init__(raw, alphabet, widths, stored)
        n_classes, q, initial_class = self.n_classes, self.q, self.initial_class
        a = _decode(stored, self._sigma)
        # Chain j holds the classes offsets[j]..offsets[j+1]. Every class has
        # a member, which also bounds n_classes by the file size.
        offsets, lengths, class_map = [0, *a.chain_ends], stored.chain_ends, a.class_map
        _require(len(class_map) <= self.n_original and len(set(class_map)) == n_classes
                 and max(class_map, default=-1) < n_classes)
        # No stored gap or size is negative; a zero gap after the first
        # repeats an id or key, and a zero size leaves a group empty.
        _require(0 not in stored.finals[1:] and (not a.finals or a.finals[-1] < n_classes))
        # An automaton's initial class is a class; a graph has no finals.
        _require(not a.finals if initial_class is None else initial_class < n_classes)
        # the final class ids, increasing; None in a graph's index
        self.finals = a.finals if initial_class is not None else None
        if 0 in stored.keys[1:] or (a.keys and a.keys[-1] >= self._sigma * q * q):
            raise ValueError("group keys are not strictly increasing below sigma*q*q")
        if 0 in stored.ends or (a.ends or [0])[-1] != len(a.targets):
            raise ValueError("group ends do not rise to the edge count")
        self._offsets = offsets
        # the checked class map, which the first read of ``members`` groups
        self._class_map = class_map
        self._members: tuple[tuple[int, ...], ...] | None = None
        # match_pattern's start, the full set as a fold state: every one-class
        # chain, and the whole of each longer chain
        longer = {j: (0, n) for j, n in enumerate(lengths) if n > 1}
        self._one_class = frozenset(j for j, n in enumerate(lengths) if n == 1)
        self._full = (_mask(self._one_class), longer)
        self._tables, self._directory = self._check_store(a, lengths)
        # The query step bisects the sources and reads the targets as the
        # decoded ints they came as.
        self._sources, self._targets = a.sources, a.targets
        # accept's start, the initial class as a fold state, and the mask of
        # the one-class chains that hold a final
        self._start: tuple[int, _Longs] = (0, {})
        self._final_ones = _mask(self._one_class.intersection(
            map(bisect_right, repeat(a.chain_ends), a.finals)))
        if initial_class is not None:
            self._start = self._own(self.set_for_classes([initial_class]))

    def _check_store(self, a: _Arrays, lengths: Sequence[int]
                     ) -> tuple[dict[int, _Tables], list[dict[int, tuple]]]:
        """Check that each group's last target and source, its largest as
        stored, lie inside their chains.

        Returns the step's two lookup structures, built in this pass. They
        take memory linear in the groups, with no term in q * q.

        - The block tables, for the one-class source chains. A one-class
          chain's only non-empty interval, (0, 1), covers every group, so
          what it reaches is its groups' image. Chain i is bit ``i % 4`` of
          block ``i // 4``, keyed ``symbol * q + i // 4``. Each block has
          three 16-entry tables, indexed by a subset of its four chains: the
          OR of their one-class target chains' bits; their group count; and
          the concatenated ``(chain, first target, last target + 1)`` triples
          of their longer target chains, or None in place of that table when
          the block reaches no longer chain. The OR table covers every
          one-class target when the highest is below ``_NARROW`` times the
          block's group count. Otherwise it covers those below ``_NARROW``,
          and a fourth table holds the concatenated ids of the others; it is
          None for every other block.
        - The probe directory, for the longer source chains: for each symbol,
          a map from source chain i to the pair's tuple of one record per
          group, in target chain order, and its group count. A record is the
          tuple ``(j, first target, last target, start, end, first source,
          last source)``: the target chain j, the group's edge range
          ``start:end`` in the position lists, and the positions at its two
          ends, so that a step reads no position of a group its interval
          covers or misses.
        """
        q, span = self.q, self._sigma * self.q
        keys, ends, targets, sources = a.keys, a.ends, a.targets, a.sources
        one_class = self._one_class
        # symbol * q + i // 4 -> per chain of the block, its one-class target
        # mask below _NARROW, its group count and its longer targets' triples
        # so far; then, once the block meets a one-class target from _NARROW
        # up, the ids of those targets, per chain of the block
        by_block: dict[int, list] = {}
        # symbol * q + longer source chain -> the record of each group so far
        by_pair: dict[int, list] = {}
        start = 0
        for key, end in zip(keys, ends):
            j, pair = divmod(key, span)
            i = pair % q
            t_last = targets[end - 1]
            if t_last >= lengths[j] or sources[end - 1] >= lengths[i]:
                raise ValueError(f"group {(j, *divmod(pair, q))} has a position outside its chain")
            if i not in one_class:
                by_pair.setdefault(pair, []).append(
                    (j, targets[start], t_last, start, end, sources[start], sources[end - 1]))
            else:
                block = pair - i + i // 4
                acc = by_block.get(block)
                if acc is None:
                    acc = by_block[block] = [0, 0, 0, 0, 0, 0, 0, 0, (), (), (), (), None]
                b = i % 4
                acc[4 + b] += 1
                if j not in one_class:
                    acc[8 + b] += ((j, targets[start], t_last + 1),)
                elif j < _NARROW:
                    acc[b] |= 1 << j
                else:
                    far = acc[12]
                    if far is None:
                        far = acc[12] = ([], [], [], [])
                    far[b].append(j)
            start = end
        tables: dict[int, _Tables] = {}
        for block, (m0, m1, m2, m3, c0, c1, c2, c3, l0, l1, l2, l3, far) in by_block.items():
            c01, c23 = c0 + c1, c2 + c3
            n = (0, c0, c1, c01, c2, c0 + c2, c1 + c2, c01 + c2,
                 c3, c0 + c3, c1 + c3, c01 + c3, c23, c0 + c23, c1 + c23, c01 + c23)
            wide = None
            if far is not None:
                if max(max(f, default=0) for f in far) >= _NARROW * n[15]:
                    wide = _unions(*map(tuple, far))
                else:
                    m0, m1, m2, m3 = (m | _mask(f) for m, f in zip((m0, m1, m2, m3), far))
            m01, m23 = m0 | m1, m2 | m3
            ors = (0, m0, m1, m01, m2, m0 | m2, m1 | m2, m01 | m2,
                   m3, m0 | m3, m1 | m3, m01 | m3, m23, m0 | m23, m1 | m23, m01 | m23)
            images = _unions(l0, l1, l2, l3) if l0 or l1 or l2 or l3 else None
            tables[block] = (ors, n, images, wide)
        rows: list[dict[int, tuple]] = [{} for _ in range(self._sigma)]
        for pair, records in by_pair.items():
            sym, i = divmod(pair, q)
            rows[sym][i] = (tuple(records), len(records))
        return tables, rows

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The original nodes of each class, in class id order. The open
        checks that every class has one; the first read groups the class map,
        and later reads return the same tuple."""
        if self._members is None:
            members: list[list[int]] = [[] for _ in range(self.n_classes)]
            for v, cid in enumerate(self._class_map):
                members[cid].append(v)
            self._members = tuple(map(tuple, members))
        return self._members

    @property
    def n_nodes(self) -> int:
        """The number of indexed nodes: the length of the class map."""
        return len(self._class_map)

    # Class sets -------------------------------------------------------------

    def full_set(self) -> ClassSet:
        return ClassSet(*self._full, self)

    def set_for_classes(self, class_ids: Iterable[int]) -> ClassSet:
        """The set of the given classes, which must be contiguous on each
        chain; a class given twice counts once. It costs O(log q) per id."""
        offsets = self._offsets
        per_chain: dict[int, list[int]] = {}
        for cid in set(class_ids):
            if not isinstance(cid, Integral):
                raise ValueError(f"class id {cid!r} is not an integer")
            if not 0 <= cid < self.n_classes:
                raise ValueError(f"class id {cid} is not below {self.n_classes}")
            j = bisect_right(offsets, cid) - 1
            per_chain.setdefault(j, []).append(cid - offsets[j])
        ones, longs = [], {}
        for j, positions in sorted(per_chain.items()):
            lo, hi = min(positions), max(positions) + 1
            if hi - lo != len(positions):
                raise ValueError(f"classes are not contiguous on chain {j}")
            if j in self._one_class:
                ones.append(j)
            else:
                longs[j] = (lo, hi)
        return ClassSet(_mask(ones), longs, self)

    def _own(self, s: ClassSet) -> tuple[int, _Longs]:
        """The fold state of ``s``, which this index must have made."""
        if not isinstance(s, ClassSet) or s.index is not self:
            raise ValueError("class set was not made by this index")
        return s.ones, s.longs

    def classes_in(self, s: ClassSet) -> list[int]:
        """The set's class ids, increasing."""
        self._own(s)
        offsets = self._offsets
        return [c for j, lo, hi in s._chains() for c in range(offsets[j] + lo, offsets[j] + hi)]

    # Queries ----------------------------------------------------------------

    def _symbol_ids(self, pattern: Iterable[str]) -> list[int]:
        """The pattern's symbols as alphabet positions. No alphabet holds a
        marker, so a marker is refused as well as an unknown symbol."""
        ids, symbols = self.alphabet._index, tuple(pattern)
        try:
            return list(map(ids.__getitem__, symbols))
        except KeyError:
            _refuse(next(a for a in symbols if a not in ids))

    def _fold(self, state: tuple[int, _Longs], syms: Iterable[int],
              stats: QueryStats | None) -> tuple[int, _Longs]:
        """The fold state reached from ``state`` along ``syms``, stopping
        after the first step that empties it: the mask of the reached
        one-class chains, and the non-empty interval ``lo, hi`` of each
        reached longer chain. The tables are read once per fold, and
        ``stats`` gets one addition. The start's intervals are only read: a
        ``ClassSet`` is shared.

        Each group of a pair read is one probe. The reached one-class chains
        are read four at a time, with no test and no search: each non-zero
        4-bit slice of ``ones`` indexes its block's tables once, which OR its
        chains' one-class targets into the result mask, add their group
        count to the probes, and give their target intervals on longer
        chains. A wide block's target ids outside its masks are gathered,
        and the step ORs in their mask once, at its end. A run of zero
        slices is skipped in one shift. Each shift and OR copies a mask of up
        to q bits, so the one-class part of a step costs O(q / 30) digit
        operations per reached block: O(q * q) at worst, inside the paper's
        bound (docs/index-format.md weighs it against a set union).
        From an interval on a longer chain each group is taken on its own,
        from its record: an interval that misses the group's source range is
        skipped; one that cuts into it at ``lo`` bisects the source list over
        the group's edge range once, and misses if the first source at or
        above ``lo`` is not below ``hi``. A reached one-class target chain sets
        its bit in the result mask. A reached longer chain takes the targets
        from the first one the interval reaches to the group's last, and
        bisects for ``hi`` only when ``hi`` cuts into the sources and those
        two targets differ."""
        table, q, directory = self._tables.get, self.q, self._directory
        sources, targets, one_class = self._sources, self._targets, self._one_class
        ones, longs = state
        steps = probes = 0
        for steps, sym in enumerate(syms, 1):
            got = 0
            # Per reached longer chain: [least position, one past the greatest]
            box: dict[int, list[int]] = {}
            if ones:
                block = sym * q
                # the one-class targets a wide block's masks leave out: most steps read none
                far: list[int] | None = None
                while ones:
                    nibble = ones & 15
                    if not nibble:
                        skip = ((ones & -ones).bit_length() - 1) // 4
                        ones >>= skip * 4
                        block += skip
                        nibble = ones & 15
                    entry = table(block)
                    ones >>= 4
                    block += 1
                    if entry is None:
                        continue
                    ors, counts, images, wide = entry
                    got |= ors[nibble]
                    probes += counts[nibble]
                    if wide is not None:
                        if far is None:
                            far = []
                        far += wide[nibble]
                    if images is None:
                        continue
                    for j, t_min, t_hi in images[nibble]:
                        span = box.get(j)
                        if span is None:
                            box[j] = [t_min, t_hi]
                            continue
                        if t_min < span[0]:
                            span[0] = t_min
                        if t_hi > span[1]:
                            span[1] = t_hi
                if far:
                    got |= _mask(far)
            for i, (lo, hi) in longs.items():
                entry = directory[sym].get(i)
                if entry is None:
                    continue
                groups, n = entry
                probes += n
                for j, t_min, t_max, start, end, s_first, s_last in groups:
                    if hi <= s_first or lo > s_last:
                        continue
                    p = start
                    if lo > s_first:
                        p = bisect_left(sources, lo, start, end)
                        if sources[p] >= hi:
                            continue
                        t_min = targets[p]
                    if j in one_class:
                        got |= 1 << j
                        continue
                    if hi <= s_last and t_min != t_max:
                        t_max = targets[bisect_left(sources, hi, p, end) - 1]
                    span = box.get(j)
                    if span is None:
                        box[j] = [t_min, t_max + 1]
                        continue
                    if t_min < span[0]:
                        span[0] = t_min
                    if t_max >= span[1]:
                        span[1] = t_max + 1
            ones, longs = got, box
            if not (got or box):
                break
        if stats is not None:
            stats.symbols += steps
            stats.probes += probes
        return ones, longs

    def follow(self, s: ClassSet, a: str, stats: QueryStats | None = None) -> ClassSet:
        """Classes reachable from ``s`` by one edge labeled ``a``: a one-symbol fold."""
        state, sym = self._own(s), self.alphabet._index.get(a)
        if sym is None:
            _refuse(a)
        return ClassSet(*self._fold(state, (sym,), stats), self)

    def match_from(self, s: ClassSet, pattern: Iterable[str],
                   stats: QueryStats | None = None) -> tuple[bool, ClassSet]:
        """Fold ``follow`` over the pattern, starting at ``s``."""
        ones, longs = self._fold(self._own(s), self._symbol_ids(pattern), stats)
        return bool(ones or longs), ClassSet(ones, longs, self)

    def match_pattern(self, pattern: Iterable[str],
                      stats: QueryStats | None = None) -> tuple[bool, ClassSet]:
        """Match starting anywhere: fold from the full set."""
        ones, longs = self._fold(self._full, self._symbol_ids(pattern), stats)
        return bool(ones or longs), ClassSet(ones, longs, self)

    def accept(self, alpha: Iterable[str], stats: QueryStats | None = None) -> bool:
        """Language membership: match from the initial class, then hit a final.

        The reached one-class chains hold a final when their mask meets the
        mask of the one-class chains that do. A longer chain's end interval
        holds one when the sorted final ids have one in ``[off + lo, off +
        hi)``, that is, two ``bisect_left`` calls differ."""
        if self.finals is None:
            raise ValueError("index lacks automaton data (build it from an automaton)")
        ones, longs = self._fold(self._start, self._symbol_ids(alpha), stats)
        if ones & self._final_ones:
            return True
        if not longs:
            return False
        finals, offsets = self.finals, self._offsets
        return any(bisect_left(finals, offsets[j] + lo) < bisect_left(finals, offsets[j] + hi)
                   for j, (lo, hi) in longs.items())

    def map_back(self, s: ClassSet) -> frozenset[int]:
        """Union of original nodes over all classes in the set. It reads
        ``members`` once, which makes them on the index's first call."""
        members, out = self.members, set()
        for cid in self.classes_in(s):
            out.update(members[cid])
        return frozenset(out)

    # Loading ----------------------------------------------------------------

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Index":
        """The index of a ``.clxi`` file; a corrupt file is refused here."""
        try:
            return cls(bytes(raw), *_read(raw))
        except struct.error:
            raise ValueError(_CORRUPT) from None

    @classmethod
    def load(cls, path) -> "Index":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def build_index(quotient: QuotientGraph | QuotientNfa, cp: ChainPartition,
                n_original: int | None = None, e_original: int | None = None) -> WrittenIndex:
    """Lay out a quotient along a chain partition of its order, and write its
    ``.clxi`` file: a ``QuotientNfa``'s with its finals and initial class,
    which answers ``accept``, a ``QuotientGraph``'s with neither.

    The chains must be the consecutive id ranges that cover the classes of
    the order in order, as chain-major ids make them, with consecutive
    members related. An automaton's initial class must be a singleton, as
    ``quotient_nfa``'s certificate needs. ``n_original`` and ``e_original``
    default to the counts of the graph that was collapsed. The checks below
    and the writer's refusals run here. The file is never opened: the range
    checks of its arrays and the query structures come with the ``Index``
    that ``open()`` reads from it.
    """
    qg, finals, initial = ((quotient.quotient, quotient.finals, quotient.initial)
                           if isinstance(quotient, QuotientNfa) else (quotient, (), None))
    n_classes = qg.partition.count
    flat = [c for chain in cp.chains for c in chain]
    if flat != list(range(n_classes)):
        raise ValueError("chains are not the consecutive id ranges of the quotient classes")
    if n_original is None:
        n_original = len(qg.partition.class_of)
    # the caller's ids and count, which the reader would refuse in the file
    _require((initial is None or 0 <= initial < n_classes) and max(finals, default=-1) < n_classes
             and n_original >= len(qg.partition.class_of))
    if initial is not None and len(qg.partition.members[initial]) != 1:
        raise ValueError("initial class is not a singleton; quotient the automaton with "
                         "quotient_nfa")
    alphabet, q = qg.graph.alphabet, cp.chain_count
    sigma, chain_of, pos = len(alphabet), cp.chain_of, cp.pos_in_chain
    # class c + 1 follows class c on a chain exactly when it is not at position 0
    if not np.diagonal(qg.order.bits, 1)[np.array(pos[1:], dtype=np.intp) > 0].all():
        raise ValueError("chain members are not strictly increasing in the order")
    symbol = alphabet._index
    # (key, target position, source position) of every edge, in store order
    edges = sorted(((chain_of[cv] * sigma + symbol[a]) * q + chain_of[cu], pos[cv], pos[cu])
                   for cu, cv, a in qg.graph.edges)
    edge_keys = [edge[0] for edge in edges]
    # a group ends where the next edge's key differs, and the last at the end
    last = list(map(ne, edge_keys, [*edge_keys[1:], None]))
    arrays = _Arrays([*accumulate(map(len, cp.chains))], qg.partition.class_of,
                     [*compress(edge_keys, last)], [*compress(count(1), last)],
                     [edge[1] for edge in edges], [edge[2] for edge in edges], sorted(finals))
    try:
        raw, widths, stored = _write(
            alphabet, n_original, qg.input_edges if e_original is None else e_original,
            arrays, initial)
    except struct.error:  # a header value its field cannot hold, such as a negative count
        raise ValueError(_CORRUPT) from None
    return WrittenIndex(raw, alphabet, widths, stored)


# The older name of an automaton's build, which the benchmark harness imports.
build_nfa_index = build_index
