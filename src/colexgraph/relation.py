"""Co-lex relations over labeled graphs.

A co-lex relation is a reflexive node relation where (Axiom 1) every related
distinct pair has dominated label sets and (Axiom 2) same-label predecessors of
a related distinct pair are related. The maximum co-lex relation is the union
of all of them; it always exists and is a preorder. It is computed here by
marking pairs of the pair graph level by level: one same-label step ORs the
frontier's rows, then its columns, at each label's edge sources, grouped by
target, which costs O(n * e) byte operations per level. The axiom checker
applies the same step to the complement of a relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .graph import LabeledGraph, lambda_sets

# Relations are dense n*n matrices; past this the representation is the wrong tool.
_DENSE_NODE_CAP = 1 << 16


class Relation:
    """Reflexive binary relation on 0..n-1 as a dense boolean matrix."""

    __slots__ = ("n", "bits")

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
            raise ValueError("relation matrix must be square")
        if bits.shape[0] > _DENSE_NODE_CAP:
            raise ValueError(f"dense relations are capped at {_DENSE_NODE_CAP} nodes")
        if not bits.diagonal().all():
            raise ValueError("relation must be reflexive")
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "n", bits.shape[0])
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("relations are immutable")

    @classmethod
    def identity(cls, n: int) -> "Relation":
        return cls(np.eye(n, dtype=bool))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        bits = np.eye(n, dtype=bool)
        for u, v in pairs:
            bits[u, v] = True
        return cls(bits)

    def holds(self, u: int, v: int) -> bool:
        return bool(self.bits[u, v])

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self.holds(*pair)

    def strict_pairs(self) -> list[tuple[int, int]]:
        """Off-diagonal members, sorted."""
        us, vs = np.nonzero(self.bits)
        return [(int(u), int(v)) for u, v in zip(us, vs) if u != v]

    def pair_count(self) -> int:
        return int(self.bits.sum())

    def is_transitive(self) -> bool:
        m = self.bits.astype(np.float32)
        return bool(((m @ m) > 0.5)[~self.bits].sum() == 0)

    def is_antisymmetric(self) -> bool:
        both = self.bits & self.bits.T
        return bool(both.sum() == self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Relation) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.n, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, pairs={self.pair_count()})"


class Preorder(Relation):
    """Relation that is also transitive (checked on construction)."""

    def __init__(self, bits: np.ndarray):
        super().__init__(bits)
        if not self.is_transitive():
            raise ValueError("preorder must be transitive")


class PairGraph:
    """Distinct-node pair view of a graph.

    Nodes are the n(n-1) ordered pairs (u, v), u != v; an arc joins (u', v')
    to (u, v) when some label carries both u'->u and v'->v. Arcs are generated
    on demand from per-label out buckets: materialized, they can reach |E|^2.
    """

    def __init__(self, g: LabeledGraph):
        self.graph = g
        self._out = g.out_adjacency()

    def node_count(self) -> int:
        return self.graph.n * (self.graph.n - 1)

    def successors(self, u: int, v: int):
        """Pairs one same-label step forward of (u, v), duplicates included."""
        ou, ov = self._out[u], self._out[v]
        for a, xs in ou.items():
            ys = ov.get(a)
            if ys is None:
                continue
            for x in xs:
                for y in ys:
                    if x != y:
                        yield x, y

    def arcs(self):
        """Every arc ((u', v'), (u, v)); exponential care advised on dense inputs."""
        n = self.graph.n
        for u in range(n):
            for v in range(n):
                if u != v:
                    for x, y in self.successors(u, v):
                        yield (u, v), (x, y)


def _label_extremes(g: LabeledGraph, u_marked) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (min rank, max rank) of the label set, in the extended order."""
    lams = lambda_sets(g, u_marked)
    lo = np.empty(g.n, dtype=np.int64)
    hi = np.empty(g.n, dtype=np.int64)
    for v, lam in enumerate(lams):
        ranks = [g.alphabet.rank(s) for s in lam]
        lo[v] = min(ranks)
        hi[v] = max(ranks)
    return lo, hi


def _angle_violations(g: LabeledGraph, u_marked) -> np.ndarray:
    """Boolean matrix of ordered distinct pairs whose label sets break dominance."""
    lo, hi = _label_extremes(g, u_marked)
    bad = hi[:, None] > lo[None, :]
    np.fill_diagonal(bad, False)
    return bad


class _LabelEdges(NamedTuple):
    """One label's edges, grouped by target for the same-label step.

    ``targets`` lists the label's distinct targets by descending in-degree
    (ties by id); ``layers[k]`` holds the k-th source of each target that has
    more than k, in the same order, so every layer is a prefix of the last.
    """

    label: str
    targets: np.ndarray
    layers: tuple[np.ndarray, ...]


def _label_edges(g: LabeledGraph) -> list[_LabelEdges]:
    """Per label with at least one edge, in alphabet order."""
    by_label: dict[str, list[tuple[int, int]]] = {}
    for u, v, a in g.edges:
        by_label.setdefault(a, []).append((v, u))
    out = []
    for a in sorted(by_label, key=g.alphabet.index):
        edges = np.array(sorted(by_label[a]), dtype=np.intp)
        targets, starts, counts = np.unique(edges[:, 0], return_index=True,
                                            return_counts=True)
        by_degree = np.argsort(-counts, kind="stable")
        starts, counts = starts[by_degree], counts[by_degree]
        layers = tuple(edges[starts[counts > k] + k, 1] for k in range(int(counts[0])))
        out.append(_LabelEdges(a, targets[by_degree], layers))
    return out


def _or_by_target(x: np.ndarray, layers: tuple[np.ndarray, ...]) -> np.ndarray:
    """Row i is the OR of x's rows at the sources of the label's i-th target."""
    out = x[layers[0]]
    for sources in layers[1:]:
        out[:len(sources)] |= x[sources]
    return out


def _same_label_step(f: np.ndarray, le: _LabelEdges) -> np.ndarray:
    """One same-label step of a pair set: ``A^T f A`` on the label's targets.

    Entry [i, j] is True when f[u, v] holds for some edges u -> targets[i] and
    v -> targets[j]. OR-ing f's rows at the edge sources per target, then the
    same on columns, costs O(n * e) byte operations, against the n^3 of a
    dense triple product.
    """
    rows = _or_by_target(f, le.layers)
    return _or_by_target(np.ascontiguousarray(rows.T), le.layers).T


def _check_dense_size(n: int) -> None:
    if n > _DENSE_NODE_CAP:
        raise ValueError(f"graph has {n} nodes; dense relations are capped at "
                         f"{_DENSE_NODE_CAP} nodes")


def max_colex_relation(g: LabeledGraph, u_marked: Iterable[int] = ()) -> Preorder:
    """The unique maximum co-lex relation (always a preorder).

    A distinct pair (u, v) belongs exactly when no pair preceding it violates
    label-set dominance: mark the dominance-violating pairs of the pair graph,
    then everything reachable from them along same-label forward arcs; the
    unmarked pairs plus the diagonal form the relation.
    """
    _check_dense_size(g.n)
    labels = _label_edges(g)
    marked = _angle_violations(g, u_marked)
    frontier = marked.copy()
    while frontier.any():
        new = np.zeros_like(marked)
        for le in labels:
            new[np.ix_(le.targets, le.targets)] |= _same_label_step(frontier, le)
        np.fill_diagonal(new, False)
        new &= ~marked
        marked |= new
        frontier = new
    bits = ~marked
    np.fill_diagonal(bits, True)
    return Preorder(bits)


def min_colex_containing(g: LabeledGraph, u: int, v: int,
                         u_marked: Iterable[int] = ()) -> Relation | None:
    """Minimum co-lex relation containing the distinct pair (u, v), or None.

    Closes {(u, v)} backwards under same-label in-edge pairs with a stack; the
    closure is the set of pairs preceding (u, v). If any of them violates
    label-set dominance no co-lex relation contains (u, v) and None is returned
    (an ordinary outcome, not an error).
    """
    if u == v:
        raise ValueError("pair must be distinct")
    lo, hi = _label_extremes(g, u_marked)
    in_adj = g.in_adjacency()
    seen = {(u, v)}
    stack = [(u, v)]
    while stack:
        x, y = stack.pop()
        if hi[x] > lo[y]:
            return None
        ix, iy = in_adj[x], in_adj[y]
        for a, xs in ix.items():
            ys = iy.get(a)
            if ys is None:
                continue
            for x1 in xs:
                for y1 in ys:
                    if x1 != y1 and (x1, y1) not in seen:
                        seen.add((x1, y1))
                        stack.append((x1, y1))
    return Relation.from_pairs(g.n, seen)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: int
    pair: tuple[int, int]
    detail: str

    def __str__(self) -> str:
        return f"axiom {self.axiom} violated at {self.pair}: {self.detail}"


def first_axiom_violation(g: LabeledGraph, r: Relation,
                          u_marked: Iterable[int] = ()) -> AxiomViolation | None:
    """First violated co-lex axiom of a reflexive relation, or None if both hold."""
    _check_dense_size(g.n)
    if r.n != g.n:
        raise ValueError("relation size does not match graph")
    lo, hi = _label_extremes(g, u_marked)
    strict = r.bits & ~np.eye(g.n, dtype=bool)
    bad1 = strict & (hi[:, None] > lo[None, :])
    if bad1.any():
        u, v = (int(x) for x in np.argwhere(bad1)[0])
        return AxiomViolation(1, (u, v), "label sets are not dominance-ordered")
    # Axiom 2, per label: a violation is a related distinct pair with
    # same-label in-neighbours (u', v') outside the relation.
    not_r = ~r.bits
    in_adj = g.in_adjacency()
    for le in _label_edges(g):
        # Ascending target ids, so argwhere finds the first pair by (u, v).
        order = np.argsort(le.targets)
        targets = le.targets[order]
        step = _same_label_step(not_r, le)[np.ix_(order, order)]
        bad2 = strict[np.ix_(targets, targets)] & step
        if bad2.any():
            a = le.label
            u, v = (int(targets[x]) for x in np.argwhere(bad2)[0])
            for u1 in in_adj[u][a]:
                for v1 in in_adj[v][a]:
                    if not r.bits[u1, v1]:
                        return AxiomViolation(
                            2, (u, v),
                            f"requires ({u1},{v1}) via label {a!r}, which is absent")
    return None


def is_colex_relation(g: LabeledGraph, r: Relation, u_marked: Iterable[int] = ()) -> bool:
    return first_axiom_violation(g, r, u_marked) is None


def transitive_closure(r: Relation) -> Preorder:
    """Transitive closure by repeated boolean squaring; co-lex in, co-lex out."""
    bits = r.bits.copy()
    while True:
        step = ((bits.astype(np.float32) @ bits.astype(np.float32)) > 0.5) | bits
        if np.array_equal(step, bits):
            break
        bits = step
    return Preorder(bits)


def union(relations: Iterable[Relation]) -> Relation:
    """Entrywise union; the union of co-lex relations is a co-lex relation."""
    rels = list(relations)
    if not rels:
        raise ValueError("union of no relations")
    n = rels[0].n
    if any(r.n != n for r in rels):
        raise ValueError("relations have mismatched sizes")
    bits = np.zeros((n, n), dtype=bool)
    for r in rels:
        bits |= r.bits
    return Relation(bits)


def refines(r1: Relation, r2: Relation) -> bool:
    """True when r2 is contained entrywise in r1."""
    if r1.n != r2.n:
        raise ValueError("relations have mismatched sizes")
    return not bool((r2.bits & ~r1.bits).any())


def dump_relation(r: Relation) -> str:
    """One line per strict pair ``u v``, sorted; the diagonal is implied."""
    return "".join(f"{u} {v}\n" for u, v in r.strict_pairs())


def parse_relation(text: str, n: int) -> Relation:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: node out of range")
        pairs.append((u, v))
    return Relation.from_pairs(n, pairs)
