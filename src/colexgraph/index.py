"""The pattern-matching index over a quotient graph.

Classes live at (chain, position) coordinates of a minimum chain partition of
the class order. A convex class set is one half-open position interval per
chain. One symbol step ("follow") binary-searches, for every target chain, the
per-(target chain, symbol, source chain) edge groups; the reached positions on
each chain are filled in to an interval, which is exact because images of
convex sets are convex.

The edges live in one store: per target chain, a sorted directory of group
keys with end offsets, and the edges' target and source positions, each array
bit-packed at a width derived from the sizes. The space report measures these
arrays, and the ``.clxi`` file holds their words as they are, so loading wraps
them without unpacking or packing again (see docs/index-format.md).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain as iter_chain
from typing import Iterable, Sequence

import numpy as np

from .bitvec import BitVector, PackedArray, bisect_left_packed, width_for
from .chains import ChainPartition
from .graph import MARKERS, Alphabet
from .quotient import QuotientGraph, QuotientNfa

MAGIC = b"CLXI"
FORMAT_VERSION = 2
_HEADER = "<4sHHIQIII"

_FLAG_FINALS = 1
_FLAG_INITIAL = 2
_CORRUPT = "truncated or corrupt index file"


class PatternError(ValueError):
    """Pattern contains a marker or a symbol outside the alphabet."""


@dataclass
class QueryStats:
    """Caller-owned instrumentation: one probe = one group lookup."""

    probes: int = 0
    symbols: int = 0


@dataclass(frozen=True)
class ConvexSet:
    """One half-open within-chain position interval per chain."""

    intervals: tuple[tuple[int, int], ...]

    def is_empty(self) -> bool:
        return all(lo >= hi for lo, hi in self.intervals)

    def size(self) -> int:
        return sum(hi - lo for lo, hi in self.intervals if hi > lo)


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
        if t in MARKERS:
            raise PatternError(f"marker {t!r} cannot appear in a pattern")
        if t not in alphabet:
            raise PatternError(f"unknown symbol {t!r}")
    return tokens


@dataclass(frozen=True)
class SpaceReport:
    measured_bits: int
    formula_bits: int
    breakdown: dict[str, int] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.measured_bits / self.formula_bits if self.formula_bits else float("inf")


def _width_rule(sigma: int, chain_lengths: Sequence[int]):
    """Bit widths of chain ``j``'s keys, ends, targets and sources when it holds
    ``n_edges`` edges. They follow from the sizes alone, so the file stores none."""
    key = width_for(max(sigma * len(chain_lengths) - 1, 0))
    source = width_for(max(max(chain_lengths, default=1) - 1, 0))

    def widths(j: int, n_edges: int) -> tuple[int, int, int, int]:
        return key, width_for(n_edges), width_for(max(chain_lengths[j] - 1, 0)), source
    return widths


class _CompactChain:
    __slots__ = ("keys", "ends", "targets", "sources")

    def __init__(self, keys: PackedArray, ends: PackedArray,
                 targets: PackedArray, sources: PackedArray):
        self.keys = keys
        self.ends = ends
        self.targets = targets
        self.sources = sources


class _CompactStore:
    """The edge store. Per target chain: the sorted keys (symbol * q + source
    chain) of its groups, each group's end offset, and the target and source
    positions of its edges, group after group, (target, source)-sorted."""

    def __init__(self, q: int, chains: list[_CompactChain]):
        self.q = q
        self.chains = chains

    @classmethod
    def pack(cls, sigma: int, chain_lengths: Sequence[int],
             group_edges: dict[tuple[int, int, int], list[tuple[int, int]]]) -> "_CompactStore":
        """Pack (target chain, symbol, source chain) -> sorted (target, source) edges."""
        q = len(chain_lengths)
        widths = _width_rule(sigma, chain_lengths)
        per_chain: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in range(q)]
        for (j, sym, i), edges in group_edges.items():
            per_chain[j].append((sym * q + i, edges))
        chains = []
        for j, groups in enumerate(per_chain):
            keys, ends, targets, sources = [], [], [], []
            for key, edges in sorted(groups):
                keys.append(key)
                for t, s in edges:
                    targets.append(t)
                    sources.append(s)
                ends.append(len(targets))
            chains.append(_CompactChain(*map(PackedArray, widths(j, len(targets)),
                                             (keys, ends, targets, sources))))
        return cls(q, chains)

    def run(self, j: int, sym: int, i: int, lo: int, hi: int) -> tuple[int, int] | None:
        ch = self.chains[j]
        key = sym * self.q + i
        g = bisect_left_packed(ch.keys, key, 0, len(ch.keys))
        if g == len(ch.keys) or ch.keys.get(g) != key:
            return None
        start = ch.ends.get(g - 1) if g > 0 else 0
        end = ch.ends.get(g)
        p = bisect_left_packed(ch.sources, lo, start, end)
        r = bisect_left_packed(ch.sources, hi, start, end)
        if p == r:
            return None
        return ch.targets.get(p), ch.targets.get(r - 1)

    def group_items(self):
        items = []
        for j, ch in enumerate(self.chains):
            start = 0
            targets, sources = ch.targets.to_list(), ch.sources.to_list()
            for key, end in zip(ch.keys.to_list(), ch.ends.to_list()):
                sym, i = divmod(key, self.q)
                items.append(((j, sym, i), (tuple(targets[start:end]), tuple(sources[start:end]))))
                start = end
        return sorted(items)

    def payload_bits(self) -> dict[str, int]:
        directory = sum(ch.keys.payload_bits + ch.ends.payload_bits for ch in self.chains)
        positions = sum(ch.targets.payload_bits + ch.sources.payload_bits for ch in self.chains)
        return {"group_directory_bits": directory, "position_array_bits": positions}


def _decode_checked(store: _CompactStore, sigma: int,
                    chain_lengths: Sequence[int]) -> list[list[list[int]]]:
    """Each chain's keys, ends, targets and sources as lists, once they are
    checked: keys strictly increasing below sigma * q, ends non-decreasing up
    to the chain's edge count, and every group monotone inside its chains."""
    q = len(chain_lengths)
    if store.q != q or len(store.chains) != q:
        raise ValueError("edge store does not match the chain count")
    decoded = []
    for j, ch in enumerate(store.chains):
        arrays = [a.to_list() for a in (ch.keys, ch.ends, ch.targets, ch.sources)]
        keys, ends, targets, sources = arrays
        if any(a >= b for a, b in zip(keys, keys[1:])) or (keys and keys[-1] >= sigma * q):
            raise ValueError(f"chain {j}: group keys are not strictly increasing below sigma*q")
        if any(a > b for a, b in zip(ends, ends[1:])) or (ends[-1] if ends else 0) != len(targets):
            raise ValueError(f"chain {j}: group ends do not rise to the chain's edge count")
        start = 0
        for key, end in zip(keys, ends):
            sym, i = divmod(key, q)
            _check_monotone_groups((j, sym, i), targets[start:end], sources[start:end],
                                   chain_lengths[j], chain_lengths[i])
            start = end
        decoded.append(arrays)
    return decoded


def _check_monotone_groups(key: tuple[int, int, int], targets: Sequence[int],
                           sources: Sequence[int], target_len: int, source_len: int) -> None:
    """A group's edges must be (target, source)-sorted with non-decreasing
    sources, and each position must lie inside its chain."""
    prev_t = prev_s = -1
    for t, s in zip(targets, sources):
        if t < prev_t:
            raise ValueError(f"group {key} is not sorted by (target, source)")
        if s < prev_s:
            raise ValueError(
                f"group {key} breaks source monotonicity; inputs were not a "
                "chain partition of a co-lex order")
        prev_t, prev_s = t, s
    if prev_t >= target_len or prev_s >= source_len:  # the largest of each
        raise ValueError(f"group {key} has a position outside its chain")


def _invert_group_keys(decoded: list[list[list[int]]], q: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """(symbol, source chain) -> target chains with a nonempty group.

    Derived acceleration metadata (reconstructible from the group keys, like
    the rank directories); lets follow skip guaranteed-empty probes.
    """
    by_source: dict[tuple[int, int], list[int]] = {}
    for j, (keys, _, _, _) in enumerate(decoded):
        for key in keys:
            by_source.setdefault(divmod(key, q), []).append(j)
    return {key: tuple(js) for key, js in by_source.items()}


def _boundary_bits(targets: list[int], length: int) -> BitVector:
    """One unary run per class of a chain: a 1, then a 0 per incoming edge."""
    indeg = [0] * length
    for t in targets:
        indeg[t] += 1
    bits: list[int] = []
    for d in indeg:
        bits.append(1)
        bits.extend([0] * d)
    return BitVector(bits)


class Index:
    """Immutable query structure; all methods are safe for concurrent readers."""

    def __init__(self, *, alphabet: Alphabet, chains: tuple[tuple[int, ...], ...],
                 members: tuple[tuple[int, ...], ...], n_original: int, e_original: int,
                 store: _CompactStore, finals: frozenset[int] | None,
                 initial_class: int | None, marked_classes: frozenset[int],
                 order_bits: np.ndarray | None = None):
        self.alphabet = alphabet
        self.chains = chains
        self.members = members
        self.n_original = n_original
        self.e_original = e_original
        self.finals = finals
        self.initial_class = initial_class
        self.marked_classes = marked_classes
        self._order_bits = order_bits
        self.q = len(chains)
        self.n_classes = len(members)
        self.chain_of = [0] * self.n_classes
        self.pos_in_chain = [0] * self.n_classes
        for j, chain in enumerate(chains):
            for pos, cid in enumerate(chain):
                self.chain_of[cid] = j
                self.pos_in_chain[cid] = pos
        lengths = [len(c) for c in chains]
        decoded = _decode_checked(store, len(alphabet), lengths)
        self._store = store
        self.e_quotient = sum(len(targets) for _, _, targets, _ in decoded)
        self._target_chains = _invert_group_keys(decoded, self.q)
        self._boundaries = tuple(
            _boundary_bits(targets, n) for (_, _, targets, _), n in zip(decoded, lengths))
        self._finals_bv = None
        if finals is not None:
            self._finals_bv = tuple(
                BitVector([1 if cid in finals else 0 for cid in chain]) for chain in chains)

    # Convex-set constructors ------------------------------------------------

    def full_set(self) -> ConvexSet:
        return ConvexSet(tuple((0, len(c)) for c in self.chains))

    def empty_set(self) -> ConvexSet:
        return ConvexSet(tuple((0, 0) for _ in self.chains))

    def set_for_classes(self, class_ids: Iterable[int]) -> ConvexSet:
        """Intervals covering exactly the given classes; they must be contiguous per chain."""
        per_chain: dict[int, list[int]] = {}
        for cid in class_ids:
            per_chain.setdefault(self.chain_of[cid], []).append(self.pos_in_chain[cid])
        intervals = []
        for j in range(self.q):
            positions = sorted(per_chain.get(j, []))
            if not positions:
                intervals.append((0, 0))
                continue
            lo, hi = positions[0], positions[-1] + 1
            if positions != list(range(lo, hi)):
                raise ValueError(f"classes are not contiguous on chain {j}")
            intervals.append((lo, hi))
        return ConvexSet(tuple(intervals))

    def classes_in(self, s: ConvexSet) -> list[int]:
        out = []
        for j, (lo, hi) in enumerate(s.intervals):
            out.extend(self.chains[j][lo:hi])
        return sorted(out)

    # Queries ----------------------------------------------------------------

    def _symbol_id(self, a: str) -> int:
        if a in MARKERS:
            raise PatternError(f"marker {a!r} cannot appear in a pattern")
        if a not in self.alphabet:
            raise PatternError(f"unknown symbol {a!r}")
        return self.alphabet.index(a)

    def follow(self, s: ConvexSet, a: str, stats: QueryStats | None = None) -> ConvexSet:
        """Classes reachable from ``s`` by one edge labeled ``a``, as intervals."""
        if len(s.intervals) != self.q:
            raise ValueError("convex set does not match this index's chain count")
        sym = self._symbol_id(a)
        if stats is not None:
            stats.symbols += 1
        mins = [-1] * self.q
        maxs = [-1] * self.q
        target_chains = self._target_chains
        for i, (lo, hi) in enumerate(s.intervals):
            if lo >= hi:
                continue
            for j in target_chains.get((sym, i), ()):
                if stats is not None:
                    stats.probes += 1
                run = self._store.run(j, sym, i, lo, hi)
                if run is None:
                    continue
                rmin, rmax = run
                if mins[j] < 0 or rmin < mins[j]:
                    mins[j] = rmin
                if rmax > maxs[j]:
                    maxs[j] = rmax
        return ConvexSet(tuple(
            (mins[j], maxs[j] + 1) if mins[j] >= 0 else (0, 0) for j in range(self.q)))

    def _check_convex(self, s: ConvexSet) -> None:
        if self._order_bits is None:
            raise ValueError("convexity cannot be checked on a loaded index: "
                             "the class order is not stored in the file")
        ids = self.classes_in(s)
        inside = set(ids)
        bits = self._order_bits
        for u in ids:
            for v in range(self.n_classes):
                if v in inside:
                    continue
                for z in ids:
                    if bits[u, v] and bits[v, z]:
                        raise ValueError(f"starting set is not convex: {v} lies between")

    def match_from(self, u: ConvexSet, pattern: Iterable[str],
                   stats: QueryStats | None = None, validate: bool = False) -> tuple[bool, ConvexSet]:
        """Fold follow over the pattern starting at ``u`` (which must be convex)."""
        symbols = list(pattern)
        for a in symbols:
            self._symbol_id(a)
        if validate:
            self._check_convex(u)
        cur = u
        for a in symbols:
            cur = self.follow(cur, a, stats)
            if cur.is_empty():
                break
        return (not cur.is_empty(), cur)

    def match_pattern(self, pattern: Iterable[str],
                      stats: QueryStats | None = None) -> tuple[bool, ConvexSet]:
        """Match starting anywhere: fold from the full (trivially convex) set."""
        return self.match_from(self.full_set(), pattern, stats)

    def accept(self, alpha: Iterable[str], stats: QueryStats | None = None) -> bool:
        """Language membership: match from the initial class, then hit a final."""
        if self.initial_class is None or self._finals_bv is None:
            raise ValueError("index lacks automaton data (build with finals and an initial state)")
        if self.initial_class not in self.marked_classes:
            raise ValueError("index was built without marking the initial state; "
                             "acceptance queries need the marker")
        start = self.set_for_classes([self.initial_class])
        ok, end = self.match_from(start, alpha, stats)
        if not ok:
            return False
        for j, (lo, hi) in enumerate(end.intervals):
            if lo < hi and self._finals_bv[j].rank1(hi) - self._finals_bv[j].rank1(lo) > 0:
                return True
        return False

    def map_back(self, s: ConvexSet) -> frozenset[int]:
        """Union of original nodes over all classes in the set."""
        out: set[int] = set()
        for cid in self.classes_in(s):
            out.update(self.members[cid])
        return frozenset(out)

    # Accounting ---------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        breakdown = self._store.payload_bits()
        breakdown["boundary_bits"] = sum(b.payload_bits for b in self._boundaries)
        breakdown["final_bits"] = (
            sum(b.payload_bits for b in self._finals_bv) if self._finals_bv else 0)
        measured = sum(breakdown.values())
        breakdown["class_map_bits"] = (
            self.n_original * width_for(max(self.n_classes - 1, 0)))  # reported, not counted
        breakdown["rank_directory_bits"] = (
            sum(b.aux_bits for b in self._boundaries)
            + (sum(b.aux_bits for b in self._finals_bv) if self._finals_bv else 0))
        per_edge = ceil_log2(len(self.alphabet)) + ceil_log2(self.q) + 2
        formula = self.e_quotient * per_edge + self.n_classes
        if self._finals_bv is not None:
            formula += self.n_classes
        return SpaceReport(measured, formula, breakdown)

    # Serialization -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        flags = (_FLAG_FINALS if self.finals is not None else 0) | (
            _FLAG_INITIAL if self.initial_class is not None else 0)
        out += struct.pack(_HEADER, MAGIC, FORMAT_VERSION, flags,
                           self.n_original, self.e_original, self.n_classes, self.q,
                           len(self.alphabet))
        for sym in self.alphabet.symbols:
            raw = sym.encode("utf-8")
            out += struct.pack("<H", len(raw)) + raw
        for ids in (*self.chains, *self.members, sorted(self.marked_classes)):
            out += struct.pack(f"<I{len(ids)}I", len(ids), *ids)
        for ch in self._store.chains:
            out += struct.pack("<II", len(ch.keys), len(ch.targets))
            for array in (ch.keys, ch.ends, ch.targets, ch.sources):
                out += array.to_bytes()
        if self.finals is not None:
            finals = sorted(self.finals)
            out += struct.pack(f"<I{len(finals)}I", len(finals), *finals)
        if self.initial_class is not None:
            out += struct.pack("<I", self.initial_class)
        out += struct.pack("<I", zlib.crc32(out))
        return bytes(out)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Index":
        try:
            return cls._from_bytes(raw)
        except struct.error:
            raise ValueError(_CORRUPT) from None

    @classmethod
    def _from_bytes(cls, raw: bytes) -> "Index":
        view = memoryview(raw)
        off = 0

        def take(fmt: str):
            nonlocal off
            size = struct.calcsize(fmt)
            vals = struct.unpack_from(fmt, view, off)
            off += size
            return vals

        def require(ok: bool) -> None:
            if not ok:
                raise ValueError(_CORRUPT)

        def ids() -> tuple[int, ...]:
            (n,) = take("<I")
            require(4 * n <= len(view) - off)
            return take(f"<{n}I")

        def packed(width: int, length: int) -> PackedArray:
            nonlocal off
            size = (width * length + 63) // 64 * 8
            require(size <= len(view) - off)
            off += size
            return PackedArray.from_words(width, length, view[off - size:off])

        magic, version, flags, n_original, e_original, n_classes, q, sigma = take(_HEADER)
        if magic != MAGIC:
            raise ValueError("not an index file (bad magic)")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported index format version {version}")
        require(zlib.crc32(view[:-4]) == struct.unpack_from("<I", view, len(view) - 4)[0])
        view = view[:-4]
        symbols = []
        for _ in range(sigma):
            (ln,) = take("<H")
            symbols.append(take(f"<{ln}s")[0].decode("utf-8"))
        chains = [ids() for _ in range(q)]
        in_chains = list(iter_chain.from_iterable(chains))  # each class exactly once
        require(len(in_chains) == n_classes == len(set(in_chains))
                and max(in_chains, default=-1) < n_classes)
        members = [ids() for _ in range(n_classes)]
        in_members = list(iter_chain.from_iterable(members))  # each node in one class at most
        require(len(in_members) == len(set(in_members))
                and max(in_members, default=-1) < n_original)
        marked = frozenset(ids())
        require(max(marked, default=-1) < n_classes)
        widths = _width_rule(sigma, [len(c) for c in chains])
        store_chains = []
        for j in range(q):
            n_groups, n_edges = take("<II")
            kw, ew, tw, sw = widths(j, n_edges)
            store_chains.append(_CompactChain(packed(kw, n_groups), packed(ew, n_groups),
                                              packed(tw, n_edges), packed(sw, n_edges)))
        finals = None
        if flags & _FLAG_FINALS:
            finals = frozenset(ids())
            require(max(finals, default=-1) < n_classes)
        initial_class = None
        if flags & _FLAG_INITIAL:
            (initial_class,) = take("<I")
            require(initial_class < n_classes)
        require(off == len(view))  # no trailing bytes
        return cls(alphabet=Alphabet(tuple(symbols)), chains=tuple(chains),
                   members=tuple(members), n_original=n_original, e_original=e_original,
                   store=_CompactStore(q, store_chains), finals=finals,
                   initial_class=initial_class, marked_classes=marked)

    @classmethod
    def load(cls, path) -> "Index":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def build_index(qg: QuotientGraph, cp: ChainPartition,
                finals: frozenset[int] | None = None, initial: int | None = None,
                n_original: int | None = None, e_original: int | None = None) -> Index:
    """Lay out the quotient graph along a chain partition of its order.

    ``finals``/``initial`` switch on automaton mode. The partition must cover
    exactly the classes of ``qg.order`` with consecutive chain members strictly
    comparable.
    """
    order = qg.order
    n_classes = qg.partition.count
    if cp.chain_count != len(cp.chains) or sorted(c for ch in cp.chains for c in ch) != list(range(n_classes)):
        raise ValueError("chain partition does not cover the quotient classes")
    for chain in cp.chains:
        for a, b in zip(chain, chain[1:]):
            if a == b or not order.holds(a, b):
                raise ValueError("chain members are not strictly increasing in the order")
    group_edges: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for cu, cv, a in qg.graph.edges:
        key = (cp.chain_of[cv], qg.graph.alphabet.index(a), cp.chain_of[cu])
        group_edges.setdefault(key, []).append((cp.pos_in_chain[cv], cp.pos_in_chain[cu]))
    for edges in group_edges.values():
        edges.sort()
    store = _CompactStore.pack(len(qg.graph.alphabet), [len(c) for c in cp.chains], group_edges)
    return Index(alphabet=qg.graph.alphabet, chains=cp.chains,
                 members=qg.partition.members,
                 n_original=qg.partition.n if n_original is None else n_original,
                 e_original=len(qg.graph.edges) if e_original is None else e_original,
                 store=store, finals=finals, initial_class=initial,
                 marked_classes=qg.marked_classes, order_bits=order.bits)


def build_nfa_index(qnfa: QuotientNfa, cp: ChainPartition,
                    n_original: int | None = None, e_original: int | None = None) -> Index:
    return build_index(qnfa.quotient, cp, finals=qnfa.finals, initial=qnfa.initial,
                       n_original=n_original, e_original=e_original)
