"""Quotients of co-lex preorders: class partitions, quotient graphs and automata.

Collapsing mutually comparable nodes yields a graph that answers the same
pattern-matching queries; the induced class order is a partial order of the
same width, and on the quotient it is both the maximum co-lex relation and the
maximum co-lex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import getitem, or_
from typing import Iterable

import numpy as np

from .graph import LabeledGraph, Nfa
from .relation import Preorder, Relation, first_axiom_violation


@dataclass(frozen=True)
class ClassPartition:
    """Mutual-comparability classes of a preorder.

    Class ids are assigned in increasing order of smallest member, so outputs
    are deterministic.
    """

    n: int
    class_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.members)


def classes(pre: Preorder) -> ClassPartition:
    """Partition nodes into classes of pairs comparable in both directions."""
    if not isinstance(pre, Preorder):
        pre = Preorder(pre.bits)  # re-validates reflexivity and transitivity
    mutual = pre.bits & pre.bits.T
    class_of = [-1] * pre.n
    members: list[tuple[int, ...]] = []
    for v in range(pre.n):
        if class_of[v] >= 0:
            continue
        group = tuple(int(u) for u in np.nonzero(mutual[v])[0])
        cid = len(members)
        for u in group:
            class_of[u] = cid
        members.append(group)
    return ClassPartition(pre.n, tuple(class_of), tuple(members))


def induced_order(pre: Preorder, part: ClassPartition) -> Preorder:
    """The partial order on classes: [u] <= [v] iff u <= v (well-defined)."""
    if part.n != pre.n or classes(pre).members != part.members:
        raise ValueError("partition was not derived from this preorder")
    reps = [m[0] for m in part.members]
    bits = pre.bits[np.ix_(reps, reps)]
    order = Preorder(bits)
    if not order.is_antisymmetric():
        raise AssertionError("induced class order must be a partial order")
    return order


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient of a graph by a co-lex preorder, with its induced class order.

    ``marked_classes`` carries the distinguished-set marker down to classes, so
    label sets on the quotient reproduce the original ones.
    """

    graph: LabeledGraph
    partition: ClassPartition
    order: Preorder
    marked_classes: frozenset[int]


def quotient_graph(g: LabeledGraph, pre: Preorder,
                   u_marked: Iterable[int] = (), validate: bool = True) -> QuotientGraph:
    """Collapse each mutual-comparability class of ``pre`` to a single node.

    A class edge ([u], [v], a) exists when some member edge does. Classes with
    two or more members end up with at most one incoming edge; this is checked.
    """
    marked = frozenset(u_marked)
    if validate:
        violation = first_axiom_violation(g, pre, marked)
        if violation is not None:
            raise ValueError(f"relation is not a co-lex relation on this graph: {violation}")
    part = classes(pre)
    order = induced_order(pre, part)
    class_of = part.class_of
    qedges = frozenset((class_of[u], class_of[v], a) for u, v, a in g.edges)
    qg = LabeledGraph(part.count, qedges, g.alphabet)
    incoming: dict[int, set[tuple[int, str]]] = {}
    for src, dst, a in qedges:
        incoming.setdefault(dst, set()).add((src, a))
    for cid, group in enumerate(part.members):
        if len(group) >= 2 and len(incoming.get(cid, ())) > 1:
            raise AssertionError(
                f"class {cid} has several incoming edges; input was not a co-lex preorder")
    marked_classes = frozenset(class_of[v] for v in marked)
    return QuotientGraph(qg, part, order, marked_classes)


@dataclass(frozen=True)
class QuotientNfa:
    quotient: QuotientGraph
    initial: int
    finals: frozenset[int]

    def as_nfa(self) -> Nfa:
        return Nfa(self.quotient.graph, self.initial, self.finals)


class _ByteImages(dict):
    """Images of the subsets of eight consecutive states, keyed by the subset's
    byte and filled on first use, so memory follows the subsets the walk meets.

    ``targets`` holds, per state, the distinct bit positions of its successor
    mask.
    """

    __slots__ = ("targets",)

    def __init__(self, targets: list[list[int]]):
        super().__init__()
        self.targets = targets

    def __missing__(self, byte: int) -> int:
        low = byte & -byte
        if byte == low:
            image = sum(1 << p for p in self.targets[low.bit_length() - 1])
        else:
            image = self[low] | self[byte ^ low]
        self[byte] = image
        return image


def _bounded_equivalent(a: Nfa, b: Nfa, depth: int) -> bool:
    """Acceptance agreement of all strings up to ``depth``, with subset-pair dedup.

    A subset pair is one int bitset over the disjoint union of both state sets,
    ``b``'s states shifted up by ``a.graph.n``. A state's successor mask holds
    its targets under every symbol, symbol k shifted up by k times the number of
    states of both; the images of a pair under all symbols are one lookup and
    one OR per non-zero byte of the pair.
    """
    na = a.graph.n
    width = na + b.graph.n
    offsets = range(0, len(a.graph.alphabet) * width, width)
    offset_of = dict(zip(a.graph.alphabet.symbols, offsets))
    targets: list[list[int]] = [[] for _ in range(width)]
    for base, g in ((0, a.graph), (na, b.graph)):
        for u, v, sym in g.edges:
            off = offset_of.get(sym)
            if off is not None:
                targets[base + u].append(off + base + v)
    tables = [_ByteImages(targets[lo:lo + 8]) for lo in range(0, width, 8)]
    n_bytes = len(tables)
    all_states = (1 << width) - 1
    a_finals = sum(1 << f for f in a.finals)
    b_finals = sum(1 << (na + f) for f in b.finals)
    start = 1 << a.initial | 1 << (na + b.initial)
    seen = {start}
    frontier = [start]
    for _ in range(depth + 1):
        next_frontier = []
        for pair in frontier:
            if (not pair & a_finals) != (not pair & b_finals):
                return False
            raw = pair.to_bytes(n_bytes, "little")
            image = reduce(or_, map(getitem, compress(tables, raw), filter(None, raw)), 0)
            for off in offsets:
                nxt = image >> off & all_states
                if nxt not in seen:
                    seen.add(nxt)
                    next_frontier.append(nxt)
        if not next_frontier:
            break
        frontier = next_frontier
    return True


def quotient_nfa(a: Nfa, pre: Preorder, validate: bool = True) -> QuotientNfa:
    """Quotient automaton over the classes of ``pre``.

    ``pre`` must be a co-lex preorder computed with the initial state marked;
    otherwise classes may merge states reading different string sets. The
    initial class must be a singleton, and (unless ``validate`` is off) the
    quotient is checked to accept the same strings as the original up to
    length n+2: a breadth-first walk over pairs of state subsets, one of each
    automaton, held as int bitsets and visited once each.
    """
    qg = quotient_graph(a.graph, pre, u_marked={a.initial}, validate=validate)
    part = qg.partition
    init_class = part.class_of[a.initial]
    if len(part.members[init_class]) != 1:
        raise ValueError(
            "initial class is not a singleton; the preorder was not computed "
            "with the initial state marked")
    finals = frozenset(part.class_of[f] for f in a.finals)
    result = QuotientNfa(qg, init_class, finals)
    if validate and not _bounded_equivalent(a, result.as_nfa(), a.graph.n + 2):
        raise ValueError("quotient changes the accepted language; "
                         "the preorder does not respect string sets")
    return result


# Correspondences between the original graph and its quotient. Convex sets and
# class-respecting relations transfer bijectively in both directions.

def project_nodes(part: ClassPartition, nodes: Iterable[int]) -> frozenset[int]:
    """Node set -> class set (the forward half of the convex-set bijection)."""
    return frozenset(part.class_of[v] for v in nodes)


def lift_classes(part: ClassPartition, class_ids: Iterable[int]) -> frozenset[int]:
    """Class set -> union of members (the inverse half of the bijection)."""
    out: set[int] = set()
    for cid in class_ids:
        out.update(part.members[cid])
    return frozenset(out)


def project_relation(part: ClassPartition, r: Relation) -> Relation:
    """Class-respecting node relation -> relation on classes."""
    reps = [m[0] for m in part.members]
    return Relation(r.bits[np.ix_(reps, reps)])


def lift_relation(part: ClassPartition, r_classes: Relation) -> Relation:
    """Relation on classes -> node relation holding between all member pairs."""
    if r_classes.n != part.count:
        raise ValueError("relation size does not match class count")
    cls = np.asarray(part.class_of)
    return Relation(r_classes.bits[np.ix_(cls, cls)])
