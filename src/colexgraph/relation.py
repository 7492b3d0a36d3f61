"""Co-lex relations over labeled graphs.

A co-lex relation is a reflexive node relation where (Axiom 1) every related
distinct pair has dominated label sets and (Axiom 2) same-label predecessors of
a related distinct pair are related. The maximum co-lex relation is the union
of all of them; it always exists and is a preorder. It is computed here by
marking pairs of the pair graph level by level, from the pairs that break
label-set dominance: one n x n comparison of each node's lowest and highest
in-label rank, lo(v) and hi(v). The ranks take the smallest unsigned type
that holds them, one byte on an alphabet of up to 254 symbols. A later level
can mark (u, v) through label a only in H_a x L_a, the nodes with hi(u) = a
by those with lo(v) = a. So the kernel keeps its matrices with rows ordered
by hi and columns by lo, where each H_a x L_a is one rectangle, and a level
computes one same-label step per label, on its rectangle alone: it ORs the
frontier's rows, then its source columns, at the label's edge sources,
grouped by row and by column node. A level costs O(n * e) byte operations
plus the area of the rectangles. The axiom checker applies the same step to
the complement of a relation, on the same rectangles in node ids, and looks
for the first violating pair only in a label that has one. A graph whose
dense matrices would not fit the address-space limit is refused before any of
them is allocated.

A ``Preorder`` certifies its transitivity without a matrix product: it names
its classes by equal rows, all rows at once, and checks that the relation is
the lift of its class order in O(k * n) over the k class rows
(``_row_classes``). It then finds a minimum chain partition of the class
order (which the quotient and the index use anyway), numbers the classes
chain by chain, and checks the chain certificate of ``_certify``, which reads
only the class order, in O(k^2 + k * q^2) on q chains. Its O(k^2) part is
one pass over cache-sized row blocks that renumbers each block and reads it
while it is in cache.
The helpers that only check the paper's lemmas on relations (union,
refinement, transitive closure, antisymmetry, parsing, and the constructors
``identity_relation`` and ``relation_from_pairs``) are in ``oracle``.
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

# Peak heap of a build per node pair, in bytes. tracemalloc read 3.46 n^2 on
# the seeded de Bruijn graph at n = 1,182 and 3.44 n^2 at n = 3,882 in
# max_colex_relation (3.58 and 3.52 n^2 in the whole run_pipeline): the
# kernel's marked pairs and two frontiers, plus one label's row step and its
# transposed gather. The certificate holds the relation, its renumbered class
# order and row blocks of _BLOCK_CELLS cells, about 2 n^2.
_PEAK_BYTES_PER_PAIR = 4

# Cells in one block of the certificate's temporaries (256 KiB of bools), so no
# step allocates a full n x n or k x q x q array at once, and a block's
# temporaries stay in cache: on the wheeler-dna graph (k = 1,182, on a 2-core
# Xeon) ``_certify`` took 3.0 ms in blocks of 4 MiB and 2.0 ms in blocks of
# 256 KiB, best of 150 in-process calls.
_BLOCK_CELLS = 1 << 18


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

    def holds(self, u: int, v: int) -> bool:
        return bool(self.bits[u, v])

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
    u <= v and v <= u, as each row holds its own node. The rows are named in
    bulk: one void view of the packed matrix lists every row's bytes, and
    ``dict.fromkeys`` keeps the distinct ones in order. When every class is
    one node ``order`` is ``bits``, and nothing more is read. Otherwise
    ``lift`` checks on each class's smallest member that the columns of a
    class agree; with rows equal by naming, that gives bits[u, v] =
    order[c(u), c(v)] for all u and v, so ``bits`` is transitive exactly when
    ``order`` is. It reads the k class rows in O(k * n).
    """
    n = bits.shape[0]
    packed = np.packbits(bits, axis=1)
    named = packed.view(f"V{packed.shape[1]}").ravel().tolist()  # each row's bytes
    ids = dict.fromkeys(named)  # the distinct rows, in order of first appearance
    if len(ids) == n:
        return np.arange(n), np.arange(n), bits
    ids.update(zip(ids, range(len(ids))))
    class_of = np.fromiter(map(ids.__getitem__, named), dtype=np.intp, count=n)
    # a class's smallest member opens its id, where the running maximum rises
    reps = np.flatnonzero(np.diff(np.maximum.accumulate(class_of), prepend=-1))
    k = reps.size
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
    successor on C_k. ``link`` reads the k - q consecutive pairs in
    ``order`` itself. One pass over row blocks then writes the renumbered
    order and reads (a) and m from each block as it is written: a row's
    rises are computed into its ``before`` buffer, so the pass copies no
    block of the order beyond the rows it gathers.
    """
    k = order.shape[0]
    q = len(chains)
    lengths = np.array([len(c) for c in chains], dtype=np.intp)
    flat = np.array([v for c in chains for v in c], dtype=np.intp)
    if flat.size != k or (lengths == 0).any() or not np.array_equal(np.sort(flat), np.arange(k)):
        return "cover"
    if k == 0:
        return flat, np.empty((0, 0), dtype=bool), ()
    starts = np.cumsum(lengths) - lengths
    chain_at = np.repeat(np.arange(q), lengths)  # chain of each class
    pos_at = np.arange(k) - starts[chain_at]     # position of each class on its chain
    follows = pos_at[1:] > 0                     # class i + 1 follows class i on a chain
    if not order[flat[:-1], flat[1:]][follows].all():
        return "link"

    # One pass over row blocks renumbers the order into one C-ordered array
    # (order[flat][:, flat] is Fortran) and reads m off each block while it
    # is in cache, so only a block's rows are copied next to the input and
    # the result. ``flat`` is a permutation, so "clip" changes no index; it
    # lets np.take write to ``out`` without buffering a copy of it.
    renumbered = np.empty((k, k), dtype=bool)
    m = np.empty((k, q), dtype=np.min_scalar_type(int(lengths.max())))
    rows = max(1, _BLOCK_CELLS // k)
    for lo in range(0, k, rows):
        block = renumbered[lo:lo + rows]
        np.take(order[flat[lo:lo + rows]], flat, axis=1, out=block, mode="clip")
        before = np.zeros(block.shape, dtype=bool)  # related to the chain's previous member
        np.logical_and(block[:, :-1], follows, out=before[:, 1:])
        if (before > block).any():
            return "a"
        # Each row now rises at most once per chain, at m_j; without a rise
        # m_j = |C_j|. The rises go into ``before``'s own buffer.
        rises = np.greater(block, before, out=before)
        m[lo:lo + rows] = lengths
        r, col = np.divmod(np.flatnonzero(rises), k)  # 2-D np.nonzero is ~10x slower
        m[lo + r, chain_at[col]] = pos_at[col]
    order = renumbered

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
    they agree with ``oracle.lambda_sets`` without building the graph's
    in-adjacency lists; this only adds ``@`` at the marked nodes. Without a
    marked node it returns the cached read-only arrays, and with one it
    writes into copies, so marking never changes the cache.
    """
    marked = list(u_marked)
    for v in marked:
        if not 0 <= v < g.n:
            raise ValueError(f"marked node {v} out of range")
    tables = _label_tables(g)
    lo, hi = tables.lo, tables.hi
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


class _LabelBlock(NamedTuple):
    """One label a's rectangle H_a x L_a, with its edges grouped for the step.

    H_a holds the nodes whose highest in-label is a, and L_a those whose
    lowest is a. ``rows`` and ``cols`` are their ranges in the row and column
    orders of ``_LabelTables``, where each lists its nodes by descending
    a-in-degree (ties by id). Layer k of ``sources`` holds the row of the
    k-th smallest a-source of each H_a node that has more than k, in the
    block's row order, so every layer is a prefix of the last; the layers sit
    one after another, ``widths[k]`` entries each. ``columns`` lists the
    columns of the distinct a-sources of L_a in ascending order, and
    ``slots``, layered over L_a in the same way (``col_widths``), holds each
    source's index in ``columns``. The three arrays are ``np.intp``.
    """

    label: str
    rows: slice
    cols: slice
    sources: np.ndarray
    widths: tuple[int, ...]
    columns: np.ndarray
    slots: np.ndarray
    col_widths: tuple[int, ...]


class _LabelTables(NamedTuple):
    """A graph's label blocks, in-label extremes and the kernel's node orders.

    ``lo`` and ``hi`` are each node's lowest and highest in-label rank, ``#``
    for a node without in-edges. Row i of the kernel's matrices is node
    ``row_nodes[i]``: first the nodes without in-edges, by id, then H_a of
    each label in alphabet order. The columns list L_a in the same way
    (``col_nodes``). ``row_at`` and ``col_at`` are the inverse permutations.
    """

    blocks: tuple[_LabelBlock, ...]
    lo: np.ndarray
    hi: np.ndarray
    row_nodes: np.ndarray
    col_nodes: np.ndarray
    row_at: np.ndarray
    col_at: np.ndarray


def _layers(nodes: list[int], by_target: dict[int, list[int]]) -> tuple[list[int], tuple[int, ...]]:
    """The sources of ``nodes`` (by descending in-degree), layer by layer."""
    per_node = list(map(by_target.__getitem__, nodes))
    sources, widths = [], []
    width = len(per_node)
    for k in range(len(per_node[0])):  # layer k: the nodes with more than k sources
        while len(per_node[width - 1]) <= k:
            width -= 1
        sources += [us[k] for us in per_node[:width]]
        widths.append(width)
    return sources, tuple(widths)


def _label_tables(g: LabeledGraph) -> _LabelTables:
    """The label blocks of the kernel and of the Axiom-2 check (see
    ``_LabelTables``).

    A label whose H_a or L_a is empty gets no block, and the blocks come in
    alphabet order. One Python pass over the edges groups each label's
    sources by target and sets the extremes, one more lays out each block's
    sources, and numpy gathers turn them into rows and columns. When H_a and
    L_a list the same nodes, as on a graph whose nodes are each entered by one
    label, the column side reuses the row side's layers. Cached on the graph;
    the extremes and node orders are read-only, and no caller writes the
    blocks, so the cache is never written after it is built.
    """
    cached = getattr(g, "_label_tables", None)
    if cached is not None:
        return cached
    n = g.n
    by_label = {a: defaultdict(list) for a in g.alphabet.symbols}
    for u, v, a in g.edges:
        by_label[a][v].append(u)
    no_label = g.alphabet.rank(HASH)
    lo, hi = [no_label] * n, [no_label] * n
    ranked = []
    for a, by_target in by_label.items():
        if not by_target:
            continue
        rank = g.alphabet.rank(a)
        for v, us in by_target.items():
            us.sort()
            if lo[v] == no_label:  # the labels come in ascending rank
                lo[v] = rank
            hi[v] = rank
        ranked.append((a, rank, by_target))
    row_nodes = [v for v in range(n) if hi[v] == no_label]
    col_nodes = row_nodes.copy()
    spans = []
    for a, rank, by_target in ranked:
        targets = sorted(by_target)
        targets.sort(key=lambda v: len(by_target[v]), reverse=True)  # stable: ties by id
        heads = [v for v in targets if hi[v] == rank]
        tails = [v for v in targets if lo[v] == rank]
        rows = slice(len(row_nodes), len(row_nodes) + len(heads))
        cols = slice(len(col_nodes), len(col_nodes) + len(tails))
        row_nodes += heads
        col_nodes += tails
        if heads and tails:
            spans.append((a, by_target, heads, tails, rows, cols))
    row_nodes = np.array(row_nodes, dtype=np.intp)
    col_nodes = np.array(col_nodes, dtype=np.intp)
    row_at, col_at = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    row_at[row_nodes] = col_at[col_nodes] = np.arange(n)  # the inverse permutations
    blocks = []
    for a, by_target, heads, tails, rows, cols in spans:
        sources, widths = _layers(heads, by_target)
        tail_sources, col_widths = (sources, widths) if tails == heads else _layers(tails, by_target)
        at = col_at[tail_sources]  # each source's column, layer by layer
        seen = np.zeros(n, dtype=bool)
        seen[at] = True
        columns = np.flatnonzero(seen)
        slots = np.cumsum(seen, dtype=np.intp)[at] - 1  # a column's index in ``columns``
        blocks.append(_LabelBlock(a, rows, cols, row_at[sources], widths,
                                  columns, slots, col_widths))
    rank_type = np.min_scalar_type(len(g.alphabet) + 1)  # the highest rank: one byte on DNA
    cached = _LabelTables(tuple(blocks), np.array(lo, dtype=rank_type),
                          np.array(hi, dtype=rank_type), row_nodes, col_nodes, row_at, col_at)
    for array in cached[1:]:
        array.setflags(write=False)
    object.__setattr__(g, "_label_tables", cached)
    return cached


def _or_by_target(x: np.ndarray, sources: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Row i is the OR of x's rows at the i-th node's entries of the layered
    ``sources`` (see ``_LabelBlock``)."""
    end = widths[0]
    out = x[sources[:end]]
    for width in widths[1:]:
        out[:width] |= x[sources[end:end + width]]
        end += width
    return out


def _same_label_step(f: np.ndarray, b: _LabelBlock) -> np.ndarray:
    """One same-label step of a pair set on a label's block, ``A^T f A``.

    Entry [i, j] is True when f holds at (u, v) for some a-edges u -> x and
    v -> y, with x the block's i-th row node and y its j-th column node. The
    block's ``sources`` and ``columns`` index f: in the kernel's row and
    column orders, or mapped to node ids. The row step ORs f's rows at the
    edge sources per row node (|H_a| x n). The column step reads only the
    block's source columns of that: it takes them as the rows of one
    transposed gather, then ORs those per column node the same way. Both
    cost O(n * e_a) byte operations on the label's e_a edges.
    """
    rows = _or_by_target(f, b.sources, b.widths)
    return _or_by_target(rows.T[b.columns], b.slots, b.col_widths).T


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
    same-label step from the pairs the last level marked. A pair (u, v) that
    a level marks through label a lies in H_a x L_a: it was not marked at
    level 0, so hi(u) <= lo(v) under the marked extremes, and as both nodes
    are entered by a, a <= hi(u) <= lo(v) <= a under the unmarked ones, which
    the marker only widens. So the kernel works in the row and column orders
    of ``_LabelTables``, where each H_a x L_a is one rectangle, and a level
    writes only those: the label's step, less the pairs already marked, into
    its rectangle of the next frontier, which it then ORs into ``marked``.
    Two frontier buffers take turns. Outside the blocks, one of them keeps
    the seed, whose steps only reach pairs already marked. The diagonal is
    marked from the start, so one comparison keeps each level to the pairs it
    newly marks. At the end the rows, then the columns, are put back in node
    order, into the two freed buffers.
    """
    n = g.n
    tables = _label_tables(g)
    lo, hi = _label_extremes(g, u_marked)
    frontier = hi[tables.row_nodes, None] > lo[tables.col_nodes]
    diagonal = tables.row_at, tables.col_at
    frontier[diagonal] = False
    marked = frontier.copy()
    marked[diagonal] = True
    following = np.zeros((n, n), dtype=bool)
    new = True
    while new:
        new = False
        for b in tables.blocks:
            step = _same_label_step(frontier, b)
            seen, fresh = marked[b.rows, b.cols], following[b.rows, b.cols]
            np.greater(step, seen, out=fresh)  # reached and not yet marked
            seen |= fresh
            new = new or fresh.any()
        frontier, following = following, frontier
    # A permutation is never out of range, so "clip" changes no index; it lets
    # np.take write to ``out`` without buffering a copy of it.
    np.take(marked, tables.row_at, axis=0, out=frontier, mode="clip")
    return np.take(frontier, tables.col_at, axis=1, out=following, mode="clip")


def max_colex_relation(g: LabeledGraph, u_marked: Iterable[int] = ()) -> Preorder:
    """The unique maximum co-lex relation (always a preorder).

    A distinct pair (u, v) belongs exactly when no pair preceding it violates
    label-set dominance: mark the dominance-violating pairs of the pair graph,
    then everything reachable from them along same-label forward arcs; the
    unmarked pairs plus the diagonal form the relation. After the n x n seed,
    each level costs O(n * e) byte operations on n nodes and e edges, plus
    the area of the label blocks H_a x L_a, the only pairs a level can mark.
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
    """First violated co-lex axiom of a reflexive relation, or None if both hold.

    Axiom 1 is one n x n comparison. Once it holds, a related distinct pair
    (u, v) of a-targets has hi(u) <= lo(v), so a = hi(u) = lo(v) as in the
    kernel, and Axiom 2 is checked per label only on H_a x L_a, in node ids.
    The first violation is the first label's, at its least pair (u, v).
    """
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
    tables = _label_tables(g)
    for b in tables.blocks:
        heads, tails = tables.row_nodes[b.rows], tables.col_nodes[b.cols]
        step = _same_label_step(not_r, b._replace(sources=tables.row_nodes[b.sources],
                                                  columns=tables.col_nodes[b.columns]))
        # A node with one in-label is in both H_a and L_a, and u = v is no
        # pair: for the gather alone, the diagonal reads as unrelated.
        np.fill_diagonal(not_r, True)
        bad2 = step > not_r[heads][:, tails]
        np.fill_diagonal(not_r, False)  # r is reflexive
        if not bad2.any():
            continue
        rows, cols = np.nonzero(bad2)
        first = np.argmin(heads[rows] * g.n + tails[cols])  # the first pair by (u, v)
        u, v = int(heads[rows[first]]), int(tails[cols[first]])
        a = b.label
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
