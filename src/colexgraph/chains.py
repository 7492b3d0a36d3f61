"""Minimum chain partition of a (partial) order.

The minimum chain partition of a transitively closed strict order is a minimum
path cover: n minus a maximum bipartite matching. The matching starts from
greedy chains along a linear extension (exact in one pass on a total order)
and Hopcroft-Karp augments only what the greedy pass left; every step is a
fixed function of the order, so the partition is deterministic. Chains are
recovered by following matched pairs from heads in ascending id.

Every ``Preorder`` runs the matching (``_chain_cover``) once, on its class
order, when it is built: the chains are part of its transitivity certificate,
which costs O(k^2 + k * q^2) on k classes and q chains (``relation._certify``).
``min_chain_partition`` reads a ``Preorder``'s chains; ``relation`` imports
this module, which names ``Preorder`` only in annotations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .relation import Preorder

_INF = -1


@dataclass(frozen=True)
class ChainPartition:
    """Partition of class ids into chains, each totally ordered by the order."""

    chains: tuple[tuple[int, ...], ...]

    @property
    def chain_count(self) -> int:
        return len(self.chains)

    @cached_property
    def chain_of(self) -> tuple[int, ...]:
        """The chain of each id."""
        at = {node: cid for cid, chain in enumerate(self.chains) for node in chain}
        return tuple(at[node] for node in range(len(at)))

    @cached_property
    def pos_in_chain(self) -> tuple[int, ...]:
        """The position of each id on its chain."""
        at = {node: pos for chain in self.chains for pos, node in enumerate(chain)}
        return tuple(at[node] for node in range(len(at)))


def _byte_sums(order: np.ndarray, axis: int) -> np.ndarray:
    """Sums of a boolean matrix along an axis, from its bytes: int32 sums of
    uint8 take half the time of numpy's sums of bool."""
    return order.view(np.uint8).sum(axis=axis, dtype=np.int32)


def _greedy_chains(order: np.ndarray, above: list[bool]) -> tuple[list[int], list[int]]:
    """Matching of greedy chains along a linear extension: (match_left, match_right).

    A strict successor has strictly more strict predecessors, so sorting by
    that count gives a linear extension. In that order each element takes the
    earliest free strict successor, which is exact in one pass on a total
    order. On a partial order no strict successor comes earlier in the
    extension, so the next element, when free and above, is the earliest one
    and no row is scanned; an element u with no strict successor (``above[u]``
    false) is skipped. Whether each element relates to the next in the
    extension is read in one gather before the pass. Otherwise one row of
    ``order`` is read, the diagonal masked, so no k x k copy is made.
    """
    n = order.shape[0]
    ext = np.argsort(_byte_sums(order, 0) - np.diagonal(order), kind="stable")
    at = ext.tolist()
    to_next = order[ext[:-1], ext[1:]].tolist()  # at[i] relates to at[i + 1]
    free = np.ones(n, dtype=bool)
    taken = [False] * n + [True]  # ~free as a list; the sentinel ends the extension
    match_left = [-1] * n
    match_right = [-1] * n
    for i, u in enumerate(at):
        if not above[u]:
            continue
        j = i + 1
        if taken[j] or not to_next[i]:  # the sentinel ends the extension before it
            cand = order[u, ext] & free
            cand[i] = False  # u itself
            j = int(cand.argmax())
            if not cand[j]:
                continue
        free[j] = False
        taken[j] = True
        v = at[j]
        match_left[u] = v
        match_right[v] = u
    return match_left, match_right


def _hopcroft_karp(adj: Callable[[int], list[int]], match_left: list[int],
                   match_right: list[int]) -> None:
    """Grow a matching to maximum in place; adj(u) lists left u's right neighbours."""
    n_left = len(match_left)
    dist = [0] * n_left

    def bfs() -> bool:
        dq = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                dq.append(u)
            else:
                dist[u] = _INF
        found = False
        while dq:
            u = dq.popleft()
            for v in adj(u):
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        return found

    def dfs(root: int) -> bool:
        # Iterative DFS over the layered graph: a path of left vertices, an
        # iterator over the rest of each one's row, and the right vertices
        # the path went through, so a success augments the whole path at once.
        path, rows, via = [root], [iter(adj(root))], []
        while path:
            u = path[-1]
            for v in rows[-1]:
                w = match_right[v]
                if w == -1:
                    via.append(v)
                    for uu, vv in zip(path, via):
                        match_left[uu] = vv
                        match_right[vv] = uu
                    return True
                if dist[w] == dist[u] + 1:
                    path.append(w)
                    rows.append(iter(adj(w)))
                    via.append(v)
                    break
            else:
                dist[u] = _INF
                path.pop()
                rows.pop()
                if via:
                    via.pop()
        return False

    while bfs():
        for u in range(n_left):
            if match_left[u] == -1:
                dfs(u)


def _chain_cover(order: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Chains of a maximum matching of the strict part of ``order``.

    Hopcroft-Karp augments the greedy chains' matching. Each adjacency row is
    listed from the order's boolean row the first time a phase visits it, so
    the transitive closure is never listed in full; a row without a strict
    successor is known empty from one pass of row sums. On a partial order
    the chains partition it; on any other relation they may not, which the
    certificate's cover check finds.
    """
    n = order.shape[0]
    above = (_byte_sums(order, 1) > np.diagonal(order)).tolist()  # has a strict successor
    rows: list[list[int] | None] = [None if up else [] for up in above]

    def adj(u: int) -> list[int]:
        if rows[u] is None:
            row = np.flatnonzero(order[u])
            rows[u] = row[row != u].tolist()
        return rows[u]

    match_left, match_right = _greedy_chains(order, above)
    _hopcroft_karp(adj, match_left, match_right)
    chains = []
    for head in range(n):
        if match_right[head] != -1:
            continue
        chain = []
        cur = head
        while cur != -1:
            chain.append(cur)
            cur = match_left[cur]
        chains.append(tuple(chain))
    return tuple(chains)


def min_chain_partition(order: Preorder) -> ChainPartition:
    """Minimum-size chain partition of a partial order.

    These are the chains the order's certificate was checked with, in its
    node ids. On a class order, whose ids are chain-major, every chain is a
    consecutive id range.
    """
    if order._reps.size != order.n:
        raise ValueError("order must be a partial order (antisymmetric)")
    nodes = order._reps.tolist()  # the node of each chain-major class
    return ChainPartition(tuple(tuple(nodes[a:b])
                                for a, b in zip((0, *order._ends), order._ends)))
