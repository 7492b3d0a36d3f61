"""Edge-labeled graphs, automata and the text format.

Nodes are dense integers 0..n-1. Edges are (source, target, label) triples over
a totally ordered alphabet of user symbols. Two reserved marker labels exist
only inside the library: HASH marks nodes with no incoming edge and AT marks
nodes of a caller-chosen distinguished set; both sort before every user symbol
(HASH before AT). Markers never appear in input files or query patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from typing import Iterable

HASH = "#"
AT = "@"

MARKERS = (HASH, AT)

# The first words of the text format's non-edge lines.
_DIRECTIVES = frozenset({"alphabet", "nodes", "initial", "final"})


class GraphFormatError(ValueError):
    """Malformed graph/automaton text input."""


class EmptyLanguageError(ValueError):
    """Trimming removed the initial state: the automaton accepts nothing."""


@dataclass(frozen=True)
class Alphabet:
    """Totally ordered user symbols; list position is the order.

    The extended order used everywhere is HASH < AT < symbols[0] < symbols[1] < ...
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for s in self.symbols:
            if not s or s in MARKERS or any(c.isspace() for c in s) or s.startswith(HASH):
                raise ValueError(f"invalid alphabet symbol {s!r}")
            if s in seen:
                raise ValueError(f"duplicate alphabet symbol {s!r}")
            seen.add(s)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def index(self, symbol: str) -> int:
        """0-based position of a user symbol."""
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def rank(self, symbol: str) -> int:
        """Position in the extended order: HASH=0, AT=1, user symbol i = i+2."""
        if symbol == HASH:
            return 0
        if symbol == AT:
            return 1
        return self._index[symbol] + 2


@dataclass(frozen=True)
class LabeledGraph:
    """Finite edge-labeled graph: nodes 0..n-1, a set of labeled edge triples.

    Construction refuses an edge that is not a triple, a node that is not an
    integer or lies outside 0..n-1, and a label outside the alphabet (a marker
    included). It checks all edges at once, with C-level passes, and only when
    that check fails does it walk the edges one by one to word the refusal of
    the first bad one.
    """

    n: int
    edges: frozenset[tuple[int, int, str]]
    alphabet: Alphabet

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be non-negative")
        if self._edges_fit():
            return
        for u, v, a in self.edges:  # the first refusal, worded per edge
            if not (isinstance(u, Integral) and isinstance(v, Integral)):
                raise ValueError(f"edge ({u},{v},{a!r}) has a node that is not an integer")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v},{a!r}) out of node range 0..{self.n - 1}")
            if a not in self.alphabet:
                raise ValueError(f"edge label {a!r} is not a user symbol")

    def _edges_fit(self) -> bool:
        """Whether every edge is a triple of two nodes in 0..n-1 and a user
        symbol, checked in bulk: a strict ``zip`` refuses tuples of other
        lengths (a plain one would truncate them), then the nodes' types, the
        extremes of the sources and targets and a subset test of the labels.
        A node of a type that is not an integer type, a NaN among them, gives
        ``False``, and the per-edge loop words the refusal."""
        if not self.edges:
            return True
        try:
            sources, targets, labels = zip(*self.edges, strict=True)
            types = {*map(type, sources), *map(type, targets)}
            return (all(issubclass(t, Integral) for t in types)
                    and min(sources) >= 0 and min(targets) >= 0 and max(sources) < self.n
                    and max(targets) < self.n and self.alphabet._index.keys() >= set(labels))
        except (TypeError, ValueError):
            return False

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int, str]],
              alphabet: Alphabet | Iterable[str]) -> "LabeledGraph":
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(tuple(alphabet))
        return cls(n, frozenset(edges), alphabet)

    def sorted_edges(self) -> list[tuple[int, int, str]]:
        return sorted(self.edges, key=lambda e: (e[0], e[1], self.alphabet.index(e[2])))

    def in_adjacency(self) -> list[dict[str, tuple[int, ...]]]:
        """Per node: label -> sorted tuple of sources. Cached."""
        cached = getattr(self, "_in_adj", None)
        if cached is None:
            buckets: list[dict[str, list[int]]] = [{} for _ in range(self.n)]
            for u, v, a in self.edges:
                buckets[v].setdefault(a, []).append(u)
            cached = [{a: tuple(sorted(us)) for a, us in sorted(b.items())} for b in buckets]
            object.__setattr__(self, "_in_adj", cached)
        return cached

    def out_adjacency(self) -> list[dict[str, tuple[int, ...]]]:
        """Per node: label -> sorted tuple of targets. Cached."""
        cached = getattr(self, "_out_adj", None)
        if cached is None:
            buckets: list[dict[str, list[int]]] = [{} for _ in range(self.n)]
            for u, v, a in self.edges:
                buckets[u].setdefault(a, []).append(v)
            cached = [{a: tuple(sorted(vs)) for a, vs in sorted(b.items())} for b in buckets]
            object.__setattr__(self, "_out_adj", cached)
        return cached


@dataclass(frozen=True)
class Nfa:
    """Automaton view of a labeled graph: one initial state, a set of finals."""

    graph: LabeledGraph
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        n = self.graph.n
        if not isinstance(self.initial, Integral):
            raise ValueError(f"initial state {self.initial!r} is not an integer")
        for f in self.finals:
            if not isinstance(f, Integral):
                raise ValueError(f"final state {f!r} is not an integer")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if any(not 0 <= f < n for f in self.finals):
            raise ValueError("final state out of range")


def _reached(adjacent: list[list[int]], start: Iterable[int]) -> set[int]:
    """The nodes that ``adjacent`` reaches from ``start``, start included: one
    set union per level of the search."""
    seen = set(start)
    frontier = seen
    while frontier:
        frontier = set(chain.from_iterable(map(adjacent.__getitem__, frontier))) - seen
        seen |= frontier
    return seen


def trim_nfa(a: Nfa) -> tuple[Nfa, tuple[int, ...]]:
    """Restrict to states reachable from the initial and co-reachable to a final.

    Returns the trimmed automaton and the kept-state map: kept[new_id] = old_id.
    Raises EmptyLanguageError when the initial state itself would be removed.
    Labels play no part: both searches run on plain successor and predecessor
    lists, built in one pass over the edges. An automaton that keeps every
    state is returned as it is.
    """
    g = a.graph
    successors: list[list[int]] = [[] for _ in range(g.n)]
    predecessors: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        successors[u].append(v)
        predecessors[v].append(u)
    keep = _reached(successors, (a.initial,)) & _reached(predecessors, a.finals)
    if a.initial not in keep:
        raise EmptyLanguageError("initial state is not co-reachable to any final state")
    kept = tuple(sorted(keep))
    if len(kept) == g.n:
        return a, kept
    renum = {old: new for new, old in enumerate(kept)}
    edges = frozenset((renum[u], renum[v], s) for u, v, s in g.edges if u in keep and v in keep)
    graph = LabeledGraph(len(kept), edges, g.alphabet)
    finals = frozenset(renum[f] for f in a.finals if f in keep)
    return Nfa(graph, renum[a.initial], finals), kept


def _parse(text: str, *, automaton: bool | None):
    n = None
    explicit_alphabet: tuple[str, ...] | None = None
    # the alphabet so far: the explicit one, or the symbols in order of first appearance
    symbols: dict[str, None] = {}
    edges: set[tuple[int, int, str]] = set()
    initial = None
    finals: set[int] | None = None

    def node(tok: str, lineno: int) -> int:
        try:
            i = int(tok)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected a node index, got {tok!r}") from None
        if n is None:
            raise GraphFormatError(f"line {lineno}: 'nodes' line must come first")
        if not 0 <= i < n:
            raise GraphFormatError(f"line {lineno}: node {i} out of declared range 0..{n - 1}")
        return i

    for lineno, parts in enumerate(map(str.split, text.splitlines()), 1):
        if not parts or parts[0].startswith(HASH):
            continue
        head = parts[0]
        if head not in _DIRECTIVES:
            try:
                src, dst, label = parts
                u, v = int(src), int(dst)
                fits = 0 <= u < n and 0 <= v < n  # a TypeError before the nodes line
            except (TypeError, ValueError):
                fits = False
            if not fits:  # the refusal that names this line
                if len(parts) != 3:
                    raise GraphFormatError(f"line {lineno}: expected '<src> <dst> <label>'")
                u, v = node(src, lineno), node(dst, lineno)
            if label not in symbols:
                if label in MARKERS:
                    raise GraphFormatError(f"line {lineno}: marker {label!r} cannot be an edge label")
                if label.startswith(HASH):
                    raise GraphFormatError(
                        f"line {lineno}: edge label {label!r} cannot start with marker {HASH!r}")
                if explicit_alphabet is not None:
                    raise GraphFormatError(f"line {lineno}: unknown symbol {label!r}")
                symbols[label] = None
            edges.add((u, v, label))
        elif head == "alphabet":
            if explicit_alphabet is not None:
                raise GraphFormatError(f"line {lineno}: duplicate alphabet line")
            if edges:
                raise GraphFormatError(f"line {lineno}: alphabet line must precede edges")
            if len(parts) < 2:
                raise GraphFormatError(f"line {lineno}: empty alphabet")
            try:
                explicit_alphabet = tuple(Alphabet(tuple(parts[1:])).symbols)
            except ValueError as e:
                raise GraphFormatError(f"line {lineno}: {e}") from None
            symbols = dict.fromkeys(explicit_alphabet)
        elif head == "nodes":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate nodes line")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'nodes <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad node count {parts[1]!r}") from None
            if n < 0:
                raise GraphFormatError(f"line {lineno}: negative node count")
        elif head == "initial":
            if automaton is False:
                raise GraphFormatError(f"line {lineno}: 'initial' is only valid in an automaton file")
            if initial is not None:
                raise GraphFormatError(f"line {lineno}: duplicate initial line")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'initial <state>'")
            initial = node(parts[1], lineno)
        else:
            if automaton is False:
                raise GraphFormatError(f"line {lineno}: 'final' is only valid in an automaton file")
            if finals is not None:
                raise GraphFormatError(f"line {lineno}: duplicate final line")
            finals = {node(t, lineno) for t in parts[1:]}

    if n is None:
        raise GraphFormatError("missing 'nodes' line")
    graph = LabeledGraph(n, frozenset(edges), Alphabet(tuple(symbols)))
    if automaton is None:
        automaton = initial is not None or finals is not None
    if automaton:
        if initial is None:
            raise GraphFormatError("missing 'initial' line")
        if finals is None:
            raise GraphFormatError("missing 'final' line")
        return Nfa(graph, initial, frozenset(finals))
    return graph


def parse_graph(text: str) -> LabeledGraph:
    """Parse the edge-list text format.

    Format: optional ``alphabet a b c``, a ``nodes <n>`` line, then one edge per
    line ``<src> <dst> <label>``. Lines starting with ``#`` are comments.
    Duplicate edge lines collapse to one edge. Without an alphabet line, symbol
    order is the order of first appearance.
    """
    return _parse(text, automaton=False)


def parse_nfa(text: str) -> Nfa:
    """Parse an automaton file: the graph format plus ``initial`` and ``final`` lines."""
    return _parse(text, automaton=True)


def parse_input(text: str) -> LabeledGraph | Nfa:
    """Parse either format: an automaton when there is an ``initial`` or ``final`` line."""
    return _parse(text, automaton=None)


def format_graph(g: LabeledGraph) -> str:
    lines = []
    if g.alphabet.symbols:
        lines.append("alphabet " + " ".join(g.alphabet.symbols))
    lines.append(f"nodes {g.n}")
    lines.extend(f"{u} {v} {a}" for u, v, a in g.sorted_edges())
    return "\n".join(lines) + "\n"


def format_nfa(a: Nfa) -> str:
    body = format_graph(a.graph)
    lines = [body.rstrip("\n"), f"initial {a.initial}",
             "final" + "".join(f" {f}" for f in sorted(a.finals))]
    return "\n".join(lines) + "\n"
