"""Co-lex relations over labeled graphs.

A co-lex relation is a reflexive node relation where (Axiom 1) every related
distinct pair has dominated label sets and (Axiom 2) same-label predecessors of
a related distinct pair are related. The maximum co-lex relation is the union
of all of them; it always exists and is a preorder. It is computed here by
marking pairs of the pair graph level by level: one same-label step ORs the
frontier's rows, then its source columns, at each label's edge sources,
grouped by target. The result on the label's t targets goes into the level
through a t x n row block, one fancy axis at a time. A level costs
O(n * e + n^2) byte operations. The axiom checker applies the same step to the
complement of a relation and looks for the first violating pair only in a
label that has one. A graph whose dense matrices would not fit the
address-space limit is refused before any of them is allocated.

A ``Preorder`` certifies its transitivity without a matrix product: it names
its classes by equal rows and checks that the relation is the lift of its
class order in O(k * n) over the k class rows (``_row_classes``). It then
finds a minimum chain partition of the class order (which the quotient and
the index use anyway), numbers the classes chain by chain, and checks the
chain certificate of ``_certify``, which reads only the class order, in
O(k^2 + k * q^2) on q chains.
The helpers that only check the paper's lemmas on relations (union,
refinement, transitive closure, antisymmetry, parsing) are in ``oracle``.
"""

from __future__ import annotations

import resource
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .chains import _chain_cover
from .graph import AT, HASH, LabeledGraph

# Relations are dense n*n matrices; past this the representation is the wrong tool.
_DENSE_NODE_CAP = 1 << 16

# Peak heap of a build per node pair, in bytes. tracemalloc read 5.2 n^2 on
# the seeded de Bruijn graph at n = 1,182 (the certificate's row blocks still
# hold whole matrices there) and 3.65 n^2 at n = 3,882: the kernel's n x n
# arrays plus its t x n label blocks, or the certificate's plus its row blocks.
_PEAK_BYTES_PER_PAIR = 4

# Cells in one block of the certificate's temporaries (4 MiB of bools), so no
# step allocates a full n x n or k x q x q array at once.
_BLOCK_CELLS = 1 << 22


class Relation:
    """Reflexive binary relation on 0..n-1 as a dense boolean matrix. A read-only
    input that owns its data is adopted; any other is copied."""

    __slots__ = ("n", "bits")

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2 or bits.shape[0] != bits.shape[1]:
            raise ValueError("relation matrix must be square")
        if bits.shape[0] > _DENSE_NODE_CAP:
            raise ValueError(f"dense relations are capped at {_DENSE_NODE_CAP} nodes")
        if not bits.diagonal().all():
            raise ValueError("relation must be reflexive")
        if bits.flags.writeable or bits.base is not None:
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

    def __eq__(self, other) -> bool:
        return isinstance(other, Relation) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.n, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, pairs={self.pair_count()})"


class Preorder(Relation):
    """Relation that is also transitive, certified on construction.

    The construction keeps what the certificate computes: the classes (nodes
    with equal rows), the class order, and a minimum chain partition of it
    from greedy chains plus Hopcroft-Karp. Class ids are chain-major (chain by
    chain, bottom to top along each), so every chain is a consecutive id range.
    ``quotient.classes``, ``class_order`` and ``chains.min_chain_partition``
    read them, so a build runs one matching.
    The certificate costs one packing pass over the n^2 cells, O(k * n) for
    the lift and O(k^2 + k * q^2) on n nodes, k classes and q chains, against
    the n^3 of a boolean matrix product.
    """

    __slots__ = ("_class_of", "_reps", "_order", "_ends")

    def __init__(self, bits: np.ndarray):
        super().__init__(bits)
        certified = _row_classes(self.bits)
        if not isinstance(certified, str):
            class_of, reps, order = certified
            certified = _certify(order, _chain_cover(order))
        if isinstance(certified, str):
            raise ValueError("preorder must be transitive")
        chain_major, order, ends = certified
        self._keep(np.argsort(chain_major)[class_of], reps[chain_major], order, ends)

    def class_order(self) -> "Preorder":
        """The partial order on the classes, certified with this preorder."""
        order = Preorder.__new__(Preorder)
        object.__setattr__(order, "n", self._reps.size)
        object.__setattr__(order, "bits", self._order)
        ids = np.arange(self._reps.size)
        order._keep(ids, ids, self._order, self._ends)
        return order

    def _keep(self, class_of: np.ndarray, reps: np.ndarray, order: np.ndarray,
              ends: tuple[int, ...]) -> None:
        for array in (class_of, reps, order):
            array.setflags(write=False)
        object.__setattr__(self, "_class_of", class_of)
        object.__setattr__(self, "_reps", reps)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_ends", ends)


def _row_classes(bits: np.ndarray) -> str | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``"lift"`` if ``bits`` is not the lift of an order on its classes, else
    (class of each node, smallest member of each class, the class order).

    Nodes with equal rows form a class, with ids in order of first appearance,
    so each class's smallest member names it: the row that opens its id. On a
    preorder these are the classes of nodes related both ways: u <= v <= u
    makes the rows of u and v equal by transitivity, and equal rows hold
    u <= v and v <= u, as each row holds its own node. ``lift`` checks on each
    class's smallest member that the columns of a class agree; with rows
    equal by naming, that gives bits[u, v] = order[c(u), c(v)] for all u and
    v, so ``bits`` is transitive exactly when ``order`` is. It reads the k class rows in O(k * n), and is
    not needed when every class is one node, where ``order`` is ``bits``.
    """
    n = bits.shape[0]
    ids: dict[bytes, int] = {}
    class_of, reps = [], []
    for u, row in enumerate(np.packbits(bits, axis=1)):
        c = ids.setdefault(row.tobytes(), len(ids))
        if c == len(reps):  # the row opens a class, so it is the smallest member
            reps.append(u)
        class_of.append(c)
    class_of, reps = np.array(class_of, dtype=np.intp), np.array(reps, dtype=np.intp)
    k = reps.size
    if k == n:
        return class_of, reps, bits
    order = np.empty((k, k), dtype=bool)
    rows = max(1, _BLOCK_CELLS // n)
    for lo in range(0, k, rows):
        block = bits[reps[lo:lo + rows]]
        order[lo:lo + rows] = np.take(block, reps, axis=1)
        if not np.array_equal(block, np.take(order[lo:lo + rows], class_of, axis=1)):
            return "lift"
    return class_of, reps, order


def _certify(order: np.ndarray, chains: Sequence[Sequence[int]]) -> str | tuple:
    """The first failing check of the transitivity certificate of a class
    order, or (the classes in chain-major order, ``order`` renumbered to it,
    chain ends).

    ``chains`` should partition the k classes. After ``cover`` (every class on
    exactly one chain) the classes are numbered chain by chain. With m_j(u)
    the first position on chain C_j that class u relates to (|C_j| if there is
    none), ``order`` is transitive if and only if, after ``link`` (consecutive
    members related):

    - ``a``: u relates to exactly the positions from m_j(u) on, for all u, j;
    - ``b``: m_j never decreases along a chain;
    - ``c``: m_j(u) <= m_j(C_k[m_k(u)]) for all u, j and k with m_k(u) < |C_k|.

    Proof: take u <= v <= w, with v on C_k and w on C_j. By (a), m_k(u) <=
    pos(v); (c) and then (b) from C_k[m_k(u)] up to v give m_j(u) <= m_j(v) <=
    pos(w), so u <= w by (a). Every preorder meets (a)-(c). The checks cost
    O(k^2 + k * q^2) on q chains, (c) only at pairs (u, k) where u has a
    successor on C_k.
    """
    k = order.shape[0]
    q = len(chains)
    lengths = np.array([len(c) for c in chains], dtype=np.intp)
    flat = np.array([v for c in chains for v in c], dtype=np.intp)
    if flat.size != k or (lengths == 0).any() or not np.array_equal(np.sort(flat), np.arange(k)):
        return "cover"
    # Renumbered by row blocks into one C-ordered array (order[flat][:, flat]
    # is Fortran), so only a block's rows are copied next to the input and
    # the result. ``flat`` is a permutation, so "clip" changes no index; it
    # lets np.take write to ``out`` without buffering a copy of it.
    renumbered = np.empty((k, k), dtype=bool)
    rows = max(1, _BLOCK_CELLS // max(k, 1))
    for lo in range(0, k, rows):
        np.take(order[flat[lo:lo + rows]], flat, axis=1, out=renumbered[lo:lo + rows],
                mode="clip")
    order = renumbered
    if k == 0:
        return flat, order, ()
    starts = np.cumsum(lengths) - lengths
    chain_at = np.repeat(np.arange(q), lengths)  # chain of each class
    pos_at = np.arange(k) - starts[chain_at]     # position of each class on its chain
    follows = pos_at[1:] > 0                     # class i + 1 follows class i on a chain
    if not np.diagonal(order, 1)[follows].all():
        return "link"

    m = np.empty((k, q), dtype=np.min_scalar_type(int(lengths.max())))
    rows = max(1, _BLOCK_CELLS // k)
    for lo in range(0, k, rows):
        block = order[lo:lo + rows].copy()
        before = block[:, :-1] & follows      # related to the chain's previous member
        if (before > block[:, 1:]).any():
            return "a"
        # Each row now rises at most once per chain, at m_j; without a rise m_j = |C_j|.
        block[:, 1:] &= ~before
        m[lo:lo + rows] = lengths
        r, col = np.divmod(np.flatnonzero(block), k)  # 2-D np.nonzero is ~10x slower
        m[lo + r, chain_at[col]] = pos_at[col]

    steps = max(1, _BLOCK_CELLS // q)
    for lo in range(1, k, steps):
        at = np.arange(lo, min(k, lo + steps))
        at = at[follows[at - 1]]
        if (m[at - 1] > m[at]).any():
            return "b"

    rows = max(1, steps // q)
    for lo in range(0, k, rows):
        head = m[lo:lo + rows]
        u, j = np.nonzero(head < lengths)
        v = starts[j] + head[u, j]
        u += lo
        for s in range(0, u.size, steps):
            if (m[u[s:s + steps]] > m[v[s:s + steps]]).any():
                return "c"

    return flat, order, tuple((starts + lengths).tolist())


def _label_extremes(g: LabeledGraph, u_marked) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (min rank, max rank) of the label set, in the extended order.

    The in-label extremes come with the label tables (``_label_tables``), so
    they agree with ``lambda_sets`` without building the graph's
    in-adjacency lists; this only adds ``@`` at the marked nodes. Without a
    marked node it returns the cached read-only arrays, and with one it
    writes into copies, so marking never changes the cache.
    """
    marked = list(u_marked)
    for v in marked:
        if not 0 <= v < g.n:
            raise ValueError(f"marked node {v} out of range")
    lo, hi = _label_tables(g)[1:]
    if marked:
        at = g.alphabet.rank(AT)
        lo, hi = lo.copy(), hi.copy()
        lo[marked] = np.minimum(lo[marked], at)
        hi[marked] = np.maximum(hi[marked], at)
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
    (ties by id). Layer k holds the k-th smallest source of each target that
    has more than k, in the same order, so every layer is a prefix of the
    last; the layers sit one after another in ``sources``, ``widths[k]``
    entries each. ``columns`` lists the distinct sources in ascending order,
    and ``slots`` is ``sources`` with each source replaced by its index in
    ``columns``. The four arrays are ``np.intp``.
    """

    label: str
    targets: np.ndarray
    sources: np.ndarray
    widths: tuple[int, ...]
    columns: np.ndarray
    slots: np.ndarray


def _label_tables(g: LabeledGraph) -> tuple[tuple[_LabelEdges, ...], np.ndarray, np.ndarray]:
    """(each label's table, each node's lowest and highest in-label rank).

    The tables are those of the labels with at least one edge, in alphabet
    order. A node without in-edges has ``#`` as both extremes. One Python
    pass over the edges groups each label's sources by target, and each table
    is laid out from those lists with one ``np.array`` call per field: on the
    small tables of an automaton, numpy's cost per call is most of the work.
    Cached on the graph; the rank arrays are read-only, so the cache is
    never written after it is built.
    """
    cached = getattr(g, "_label_tables", None)
    if cached is not None:
        return cached
    by_label = {a: defaultdict(list) for a in g.alphabet.symbols}
    for u, v, a in g.edges:
        by_label[a][v].append(u)
    no_label = g.alphabet.rank(HASH)
    lo, hi = [no_label] * g.n, [no_label] * g.n
    tables = []
    for a, by_target in by_label.items():
        if not by_target:
            continue
        rank = g.alphabet.rank(a)
        for v, us in by_target.items():
            us.sort()
            if lo[v] == no_label:  # the labels come in ascending rank
                lo[v] = rank
            hi[v] = rank
        targets = sorted(by_target)
        targets.sort(key=lambda v: len(by_target[v]), reverse=True)  # stable: ties by id
        per_target = list(map(by_target.__getitem__, targets))
        sources, widths = [], []
        width = len(per_target)
        for k in range(len(per_target[0])):  # layer k: the targets with more than k sources
            while len(per_target[width - 1]) <= k:
                width -= 1
            sources += [us[k] for us in per_target[:width]]
            widths.append(width)
        columns = sorted(set(sources))
        slot = dict(zip(columns, range(len(columns))))
        tables.append(_LabelEdges(a, np.array(targets, dtype=np.intp),
                                  np.array(sources, dtype=np.intp), tuple(widths),
                                  np.array(columns, dtype=np.intp),
                                  np.array(list(map(slot.__getitem__, sources)), dtype=np.intp)))
    lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    lo.setflags(write=False)
    hi.setflags(write=False)
    cached = (tuple(tables), lo, hi)
    object.__setattr__(g, "_label_tables", cached)
    return cached


def _label_edges(g: LabeledGraph) -> tuple[_LabelEdges, ...]:
    """Per label with at least one edge, in alphabet order: the tables of
    ``_label_tables``, cached on the graph with the label extremes."""
    return _label_tables(g)[0]


def _or_by_target(x: np.ndarray, sources: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Row i is the OR of x's rows at the i-th target's entries of ``sources``."""
    end = widths[0]
    out = x[sources[:end]]
    for width in widths[1:]:
        out[:width] |= x[sources[end:end + width]]
        end += width
    return out


def _same_label_step(f: np.ndarray, le: _LabelEdges) -> np.ndarray:
    """One same-label step of a pair set: ``A^T f A`` on the label's targets.

    Entry [i, j] is True when f[u, v] holds for some edges u -> targets[i] and
    v -> targets[j]. The row step ORs f's rows at the edge sources per target
    (t x n). The column step reads only the label's source columns of that:
    it takes them as the rows of one transposed gather, then ORs those per
    target the same way. Both cost O(n * e) byte operations, against the n^3
    of a dense triple product, and no t x n block is transposed whole. The
    t x t result is the transpose of a C-ordered array, the layout in which
    scattering it into node columns (``block[:, targets] = step``) is fastest.
    """
    rows = _or_by_target(f, le.sources, le.widths)
    return _or_by_target(rows.T[le.columns], le.slots, le.widths).T


def _check_dense_size(n: int) -> None:
    """Refuse a graph whose dense relations cannot fit, before allocating any."""
    if n > _DENSE_NODE_CAP:
        raise ValueError(f"graph has {n} nodes; dense relations are capped at "
                         f"{_DENSE_NODE_CAP} nodes")
    need = _PEAK_BYTES_PER_PAIR * n * n
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY and need > limit:
        raise ValueError(f"graph has {n} nodes; its dense relations need about "
                         f"{need / 2**30:.1f} GiB, above the {limit / 2**30:.1f} GiB "
                         "address-space limit")


def _unrelated_pairs(g: LabeledGraph, u_marked) -> np.ndarray:
    """The pairs outside the maximum co-lex relation, and the diagonal.

    Marks the dominance-violating pairs, then level by level every pair one
    same-label step from the pairs the last level marked. A label's step is
    scattered into node columns of a t x n row block, which is then OR-ed into
    the level by rows: one fancy axis at a time, which costs far less than an
    ``np.ix_`` scatter on both. The diagonal is marked from the start, so one
    comparison keeps each level to the pairs it newly marks.
    """
    n = g.n
    labels = _label_edges(g)
    marked = _angle_violations(g, u_marked)
    frontier = marked.copy()
    np.fill_diagonal(marked, True)
    while frontier.any():
        new = np.zeros((n, n), dtype=bool)
        for le in labels:
            block = np.zeros((le.targets.size, n), dtype=bool)
            block[:, le.targets] = _same_label_step(frontier, le)
            new[le.targets] |= block
        np.greater(new, marked, out=new)  # reached and not yet marked
        marked |= new
        frontier = new
    return marked


def max_colex_relation(g: LabeledGraph, u_marked: Iterable[int] = ()) -> Preorder:
    """The unique maximum co-lex relation (always a preorder).

    A distinct pair (u, v) belongs exactly when no pair preceding it violates
    label-set dominance: mark the dominance-violating pairs of the pair graph,
    then everything reachable from them along same-label forward arcs; the
    unmarked pairs plus the diagonal form the relation. Each level costs
    O(n * e + n^2) byte operations on n nodes and e edges, however few pairs
    it marks.
    """
    _check_dense_size(g.n)
    bits = _unrelated_pairs(g, u_marked)
    np.logical_not(bits, out=bits)
    np.fill_diagonal(bits, True)
    bits.setflags(write=False)  # fresh and dropped here, so the Preorder adopts it
    return Preorder(bits)


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
    bad1 = _angle_violations(g, u_marked)
    bad1 &= r.bits
    if bad1.any():
        u, v = (int(x) for x in np.argwhere(bad1)[0])
        return AxiomViolation(1, (u, v), "label sets are not dominance-ordered")
    # Axiom 2, per label: a violation is a related distinct pair with
    # same-label in-neighbours (u', v') outside the relation.
    not_r = np.logical_not(r.bits, out=bad1)
    for le in _label_edges(g):
        targets = le.targets
        bad2 = r.bits[targets][:, targets] & _same_label_step(not_r, le)
        np.fill_diagonal(bad2, False)  # the targets are distinct
        if not bad2.any():
            continue
        rows, cols = np.nonzero(bad2)
        first = np.argmin(targets[rows] * g.n + targets[cols])  # the first pair by (u, v)
        u, v = int(targets[rows[first]]), int(targets[cols[first]])
        a = le.label
        in_adj = g.in_adjacency()
        for u1 in in_adj[u][a]:
            for v1 in in_adj[v][a]:
                if not r.bits[u1, v1]:
                    return AxiomViolation(
                        2, (u, v), f"requires ({u1},{v1}) via label {a!r}, which is absent")
    return None


def dump_relation(r: Relation) -> str:
    """One line per strict pair ``u v``, sorted; the diagonal is implied."""
    return "".join(f"{u} {v}\n" for u, v in r.strict_pairs())
