"""Quotients of co-lex preorders: class partitions, quotient graphs and automata.

Collapsing mutually comparable nodes yields a graph that answers the same
pattern-matching queries; the induced class order is a partial order of the
same width (``Preorder.class_order``), and on the quotient it is both the
maximum co-lex relation and the maximum co-lex order. The correspondences
between a graph and its quotient (convex sets and class-respecting relations,
both ways) are checked in ``oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import LabeledGraph, Nfa
from .relation import Preorder, first_axiom_violation


@dataclass(frozen=True)
class ClassPartition:
    """Mutual-comparability classes of a preorder.

    Class ids are chain-major: chain by chain of the preorder's minimum chain
    partition, bottom to top along each, so every chain is a consecutive id
    range. Members are listed in increasing order.
    """

    n: int
    class_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.members)


def classes(pre: Preorder) -> ClassPartition:
    """Partition nodes into classes of pairs comparable in both directions.

    The classes are the ones ``pre`` found when it certified itself.
    """
    class_of = pre._class_of.tolist()
    members: list[list[int]] = [[] for _ in range(pre._reps.size)]
    for v, cid in enumerate(class_of):
        members[cid].append(v)
    return ClassPartition(pre.n, tuple(class_of), tuple(map(tuple, members)))


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient of a graph by a co-lex preorder, with its induced class order.

    ``marked_classes`` carries the distinguished-set marker down to classes, so
    label sets on the quotient reproduce the original ones. ``input_edges``
    counts the edges of the collapsed graph, as ``partition.n`` its nodes.
    """

    graph: LabeledGraph
    partition: ClassPartition
    order: Preorder
    marked_classes: frozenset[int]
    input_edges: int


def quotient_graph(g: LabeledGraph, pre: Preorder,
                   u_marked: Iterable[int] = ()) -> QuotientGraph:
    """Collapse each mutual-comparability class of ``pre`` to a single node.

    A class edge ([u], [v], a) exists when some member edge does. A class with
    two or more members ends up with at most one incoming edge, and either all
    of its members have an incoming edge in ``g`` or none has; both are checked.
    """
    marked = frozenset(u_marked)
    violation = first_axiom_violation(g, pre, marked)
    if violation is not None:
        raise ValueError(f"relation is not a co-lex relation on this graph: {violation}")
    part = classes(pre)
    order = pre.class_order()
    class_of = part.class_of
    qedges = frozenset((class_of[u], class_of[v], a) for u, v, a in g.edges)
    qg = LabeledGraph(part.count, qedges, g.alphabet)
    merged = [cid for cid, group in enumerate(part.members) if len(group) > 1]
    if merged:  # only merged classes have something to check
        entered = {v for _, v, _ in g.edges}
        incoming: dict[int, set[tuple[int, str]]] = {cid: set() for cid in merged}
        for src, dst, a in qedges:
            if dst in incoming:
                incoming[dst].add((src, a))
        for cid in merged:
            if not incoming[cid]:
                continue
            if len(incoming[cid]) > 1:
                raise AssertionError(
                    f"class {cid} has several incoming edges; input was not a co-lex preorder")
            if not entered.issuperset(part.members[cid]):
                raise AssertionError(
                    f"class {cid} merges states with and without incoming edges; "
                    "input was not a co-lex preorder")
    marked_classes = frozenset(class_of[v] for v in marked)
    return QuotientGraph(qg, part, order, marked_classes, len(g.edges))


@dataclass(frozen=True)
class QuotientNfa:
    quotient: QuotientGraph
    initial: int
    finals: frozenset[int]

    def as_nfa(self) -> Nfa:
        return Nfa(self.quotient.graph, self.initial, self.finals)


def quotient_nfa(a: Nfa, pre: Preorder) -> QuotientNfa:
    """Quotient automaton over the classes of ``pre``.

    ``pre`` must be a co-lex preorder computed with the initial state marked;
    otherwise classes may merge states reading different string sets. The
    quotient keeps the language, certified in O(|V| + |E|) by a singleton
    initial class (checked here) and by ``quotient_graph``'s class checks.
    Proof, by induction on length: each state reads exactly its class's strings.
    Only the singleton initial class reads the empty string; a class reads w·a
    through an in-edge on a from a class reading w, and that edge is the image of
    an in-edge of the singleton's member, or of every merged member's in-edges.
    """
    qg = quotient_graph(a.graph, pre, u_marked={a.initial})
    part = qg.partition
    init_class = part.class_of[a.initial]
    if len(part.members[init_class]) != 1:
        raise ValueError(
            "initial class is not a singleton; the preorder was not computed "
            "with the initial state marked")
    finals = frozenset(part.class_of[f] for f in a.finals)
    return QuotientNfa(qg, init_class, finals)
