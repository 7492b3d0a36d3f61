"""Brute-force reference implementations and the verification driver.

Everything here recomputes a queryable concept by direct definition (BFS
products, greatest fixpoints, exhaustive enumeration, subset construction) so
the fast paths always have an independent answer to agree with; the helpers
that check the paper's lemmas, which no build calls, live here too. The driver,
``run_graph_checks``, takes the stages' outputs from one ``run_pipeline``
result and builds none of them again.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .chains import ChainPartition, _partial_order_chains
from .graph import AT, HASH, Alphabet, LabeledGraph, Nfa, trim_nfa
from .index import Index, QueryStats, _decode, _read, _write
from .pipeline import PipelineResult
from .quotient import ClassPartition, classes
from .relation import (Preorder, Relation, _label_extremes, first_axiom_violation,
                       max_colex_relation)

_SYMBOL_POOL = tuple("abcdefghij")


# Ground-truth traversals ----------------------------------------------------

def brute_theta(g: LabeledGraph, start: Iterable[int], alpha: Sequence[str]) -> frozenset[int]:
    """Nodes reached from ``start`` reading ``alpha``, by direct BFS product."""
    out_adj = g.out_adjacency()
    cur = set(start)
    for a in alpha:
        cur = {v for u in cur for v in out_adj[u].get(a, ())}
        if not cur:
            break
    return frozenset(cur)


def brute_match(g: LabeledGraph, alpha: Sequence[str]) -> tuple[bool, frozenset[int]]:
    """Pattern matching from every node; the truth for match_pattern."""
    end = brute_theta(g, range(g.n), alpha)
    return (bool(end), end)


def simulate_nfa(a: Nfa, alpha: Sequence[str]) -> bool:
    end = brute_theta(a.graph, {a.initial}, alpha)
    if not alpha:
        end = frozenset({a.initial})
    return bool(end & a.finals)


# Maximum relation, the slow way ----------------------------------------------

def lambda_sets(g: LabeledGraph, u_marked: Iterable[int] = ()) -> list[frozenset[str]]:
    """Label set of every node: incoming labels, or {HASH} when there are none.

    Nodes in u_marked additionally carry AT. Every returned set is nonempty.
    """
    marked = set(u_marked)
    for v in marked:
        if not 0 <= v < g.n:
            raise ValueError(f"marked node {v} out of range")
    incoming = g.in_adjacency()
    out = []
    for v in range(g.n):
        labels = set(incoming[v])
        if not labels:
            labels = {HASH}
        if v in marked:
            labels.add(AT)
        out.append(frozenset(labels))
    return out


def angle(a: frozenset[str], b: frozenset[str], alph: Alphabet) -> bool:
    """Label-set dominance: every symbol of a precedes-or-equals every symbol of b.

    Equivalent to max(a) <= min(b) in the extended order, so constant time once
    the extremes are known.
    """
    if not a or not b:
        raise ValueError("label sets must be nonempty")
    return max(alph.rank(x) for x in a) <= min(alph.rank(y) for y in b)


def gfp_max_relation(g: LabeledGraph, u_marked: Iterable[int] = ()) -> Preorder:
    """Greatest fixpoint: start from all dominance-ordered pairs and repeatedly
    delete pairs whose required same-label predecessor pair is missing."""
    lams = lambda_sets(g, u_marked)
    n = g.n
    rel = [[u == v or angle(lams[u], lams[v], g.alphabet) for v in range(n)] for u in range(n)]
    in_adj = g.in_adjacency()
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(n):
                if u == v or not rel[u][v]:
                    continue
                ok = True
                for a, us in in_adj[u].items():
                    vs = in_adj[v].get(a)
                    if vs is None:
                        continue
                    for u1 in us:
                        for v1 in vs:
                            if u1 != v1 and not rel[u1][v1]:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    rel[u][v] = False
                    changed = True
    return Preorder(np.array(rel, dtype=bool).reshape(n, n))  # (0, 0) when n = 0


def is_transitive(r: Relation) -> bool:
    """Transitivity by one boolean matrix product (n^3), the reference for ``Preorder``."""
    m = r.bits.astype(np.float32)
    return bool(((m @ m) > 0.5)[~r.bits].sum() == 0)


def is_convex(order: Relation, s: Iterable[int]) -> bool:
    """Triple-loop betweenness check of a node set under a relation."""
    inside = set(s)
    bits = order.bits
    for u in inside:
        for z in inside:
            for v in range(order.n):
                if v not in inside and bits[u, v] and bits[v, z]:
                    return False
    return True


# The paper's lemmas: closure under union and transitive closure, quotients --

def identity_relation(n: int) -> Relation:
    return Relation(np.eye(n, dtype=bool))


def relation_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Relation:
    """The given pairs plus the diagonal."""
    bits = np.eye(n, dtype=bool)
    for u, v in pairs:
        bits[u, v] = True
    return Relation(bits)


def is_colex_relation(g: LabeledGraph, r: Relation, u_marked: Iterable[int] = ()) -> bool:
    return first_axiom_violation(g, r, u_marked) is None


def is_antisymmetric(r: Relation) -> bool:
    both = r.bits & r.bits.T
    return bool(both.sum() == r.n)


def transitive_closure(r: Relation) -> Preorder:
    """Transitive closure by Warshall's algorithm on rows; co-lex in, co-lex out."""
    bits = r.bits.copy()
    for w in range(r.n):
        bits[bits[:, w]] |= bits[w]
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
    return relation_from_pairs(n, pairs)


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
    return relation_from_pairs(g.n, seen)


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


# Powerset machinery -----------------------------------------------------------

@dataclass(frozen=True)
class PowersetDfa:
    """Determinization by reachable subsets, canonically numbered in BFS order."""

    subsets: tuple[frozenset[int], ...]
    edges: frozenset[tuple[int, int, str]]
    initial: int
    finals: frozenset[int]
    alphabet: Alphabet

    def as_nfa(self) -> Nfa:
        graph = LabeledGraph(len(self.subsets), self.edges, self.alphabet)
        return Nfa(graph, self.initial, self.finals)


def powerset(a: Nfa) -> PowersetDfa:
    """Subset construction over the reachable, prefix-live subsets."""
    out_adj = a.graph.out_adjacency()
    symbols = a.graph.alphabet.symbols
    start = frozenset({a.initial})
    ids: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    edges: set[tuple[int, int, str]] = set()
    dq = deque([start])
    while dq:
        cur = dq.popleft()
        for sym in symbols:
            nxt = frozenset(v for u in cur for v in out_adj[u].get(sym, ()))
            if not nxt:
                continue
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
                dq.append(nxt)
            edges.add((ids[cur], ids[nxt], sym))
    finals = frozenset(i for i, sub in enumerate(order) if sub & a.finals)
    return PowersetDfa(tuple(order), frozenset(edges), 0, finals, a.graph.alphabet)


def dfa_isomorphic(p1: PowersetDfa, p2: PowersetDfa) -> bool:
    """Isomorphism of reachable DFAs by lockstep traversal from the initials."""
    if len(p1.subsets) != len(p2.subsets):
        return False
    out1 = p1.as_nfa().graph.out_adjacency()
    out2 = p2.as_nfa().graph.out_adjacency()
    symbols = p1.alphabet.symbols
    mapping = {p1.initial: p2.initial}
    dq = deque([p1.initial])
    while dq:
        u = dq.popleft()
        v = mapping[u]
        if (u in p1.finals) != (v in p2.finals):
            return False
        for sym in symbols:
            t1 = out1[u].get(sym, ())
            t2 = out2[v].get(sym, ())
            if len(t1) != len(t2):
                return False
            if not t1:
                continue
            nu, nv = t1[0], t2[0]
            if nu in mapping:
                if mapping[nu] != nv:
                    return False
            else:
                mapping[nu] = nv
                dq.append(nu)
    return len(mapping) == len(p1.subsets)


def _topological_order(g: LabeledGraph) -> list[int]:
    """Kahn's order of the nodes; it misses every node on or after a cycle."""
    out_adj = g.out_adjacency()
    succ = [sorted({v for vs in out_adj[u].values() for v in vs}) for u in range(g.n)]
    indeg = [0] * g.n
    for u in range(g.n):
        for v in succ[u]:
            indeg[v] += 1
    order = [u for u in range(g.n) if indeg[u] == 0]
    for u in order:  # grows while it is read
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    return order


def is_acyclic(g: LabeledGraph) -> bool:
    return len(_topological_order(g)) == g.n


def colex_key(alpha: Sequence[str], alphabet: Alphabet) -> tuple[int, ...]:
    """Sort key realizing the co-lexicographic string order."""
    return tuple(alphabet.index(s) for s in reversed(alpha))


def reached_string_sets(a: Nfa) -> list[frozenset[tuple[str, ...]]]:
    """I_u for every state of an acyclic automaton (all strings from the initial)."""
    order = _topological_order(a.graph)
    if len(order) < a.graph.n:
        raise ValueError("automaton has a cycle; string sets would be infinite")
    out_adj = a.graph.out_adjacency()
    sets: list[set[tuple[str, ...]]] = [set() for _ in range(a.graph.n)]
    sets[a.initial].add(())
    for u in order:
        for sym, vs in out_adj[u].items():
            for v in vs:
                sets[v].update(alpha + (sym,) for alpha in sets[u])
    result = [frozenset(s) for s in sets]
    if any(not s for s in result):
        raise ValueError("automaton is not trim (some state reads no string)")
    return result


def _string_set_precedes(iu: frozenset, iv: frozenset, alphabet: Alphabet) -> bool:
    """I_u strictly precedes I_v: outside the intersection, everything of I_u
    is co-lexicographically smaller than everything of I_v."""
    if iu == iv:
        return False
    common = iu & iv
    for alpha in iu:
        for beta in iv:
            if alpha in common and beta in common:
                continue
            if colex_key(alpha, alphabet) >= colex_key(beta, alphabet):
                return False
    return True


def prec_a_acyclic(a: Nfa) -> Preorder:
    """The finest co-lexicographically monotonic preorder, exactly, on an
    acyclic automaton: compare the full string sets of every state pair."""
    sets = reached_string_sets(a)
    n = a.graph.n
    bits = np.eye(n, dtype=bool)
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if sets[u] == sets[v] or _string_set_precedes(sets[u], sets[v], a.graph.alphabet):
                bits[u, v] = True
    return Preorder(bits)


def check_monotonic(a: Nfa, r: Relation) -> bool:
    """Relation sends related states to ordered string sets, and every reachable
    string's state set is convex under it."""
    sets = reached_string_sets(a)
    alphabet = a.graph.alphabet
    for u in range(r.n):
        for v in range(r.n):
            if u == v or not r.holds(u, v):
                continue
            if sets[u] != sets[v] and not _string_set_precedes(sets[u], sets[v], alphabet):
                return False
    for sub in powerset(a).subsets:
        if not is_convex(r, sub):
            return False
    return True


@dataclass(frozen=True)
class PowersetBoundsReport:
    r: int
    r_star: int
    n_star: int
    n_prec: int
    bounds_hold: bool
    exact: bool

    def r_star_limit(self) -> int:
        return 2 ** self.r - 1

    def n_star_limit(self) -> int:
        return 2 ** self.r * (self.n_prec - self.r + 1) - 1


def check_powerset_bounds(a: Nfa) -> PowersetBoundsReport:
    """Determinization blow-up against the width bounds.

    Acyclic automata get the exact nondeterminism width; cyclic ones fall back
    to the (computable) maximum co-lex relation, whose width and class count
    only upper-bound the exact quantities, so the test is one-sided.
    """
    exact = is_acyclic(a.graph)
    if exact:
        pre = prec_a_acyclic(a)
    else:
        pre = max_colex_relation(a.graph, {a.initial})
    r = preorder_width(pre)
    n_prec = classes(pre).count
    psd = powerset(a)
    pnfa = psd.as_nfa()
    r_star = preorder_width(max_colex_relation(pnfa.graph, {pnfa.initial}))
    n_star = len(psd.subsets)
    holds = r_star <= 2 ** r - 1 and n_star <= 2 ** r * (n_prec - r + 1) - 1
    return PowersetBoundsReport(r, r_star, n_star, n_prec, holds, exact)


def language_equiv(a: Nfa, b: Nfa) -> bool:
    """Symmetric-difference emptiness via the product of both powersets."""
    a_out = a.graph.out_adjacency()
    b_out = b.graph.out_adjacency()
    symbols = tuple(dict.fromkeys(a.graph.alphabet.symbols + b.graph.alphabet.symbols))
    start = (frozenset({a.initial}), frozenset({b.initial}))
    seen = {start}
    dq = deque([start])
    while dq:
        sa, sb = dq.popleft()
        if bool(sa & a.finals) != bool(sb & b.finals):
            return False
        for sym in symbols:
            ta = frozenset(v for u in sa for v in a_out[u].get(sym, ()))
            tb = frozenset(v for u in sb for v in b_out[u].get(sym, ()))
            if not ta and not tb:
                continue
            pair = (ta, tb)
            if pair not in seen:
                seen.add(pair)
                dq.append(pair)
    return True


# Width: the Dilworth certificate ----------------------------------------------

def max_antichain(order: Preorder) -> frozenset[int]:
    """A maximum antichain, from the Konig cover of the path-cover matching."""
    chains = _partial_order_chains(order)
    n = order.n
    # The maximum matching the chains were built from: each member to the next.
    match_left = [-1] * n
    match_right = [-1] * n
    for chain in chains:
        for u, v in zip(chain, chain[1:]):
            match_left[u] = v
            match_right[v] = u
    strict = order.bits & ~np.eye(n, dtype=bool)
    # Alternating reachability from unmatched left vertices.
    in_z_left = [False] * n
    in_z_right = [False] * n
    dq = deque()
    for u in range(n):
        if match_left[u] == -1:
            in_z_left[u] = True
            dq.append(u)
    while dq:
        u = dq.popleft()
        for v in np.flatnonzero(strict[u]).tolist():
            if match_left[u] == v or in_z_right[v]:
                continue
            in_z_right[v] = True
            w = match_right[v]
            if w != -1 and not in_z_left[w]:
                in_z_left[w] = True
                dq.append(w)
    # Cover = (L outside Z) plus (R inside Z); the antichain avoids both.
    return frozenset(v for v in range(n) if in_z_left[v] and not in_z_right[v])


def preorder_width(pre: Preorder) -> int:
    """Width of a preorder = width of its quotient partial order."""
    return len(pre._ends)


# Exhaustive small-scale oracles ------------------------------------------------

def exhaustive_max_antichain(order: Preorder) -> frozenset[int]:
    """Largest pairwise-incomparable subset, by scanning sizes downward."""
    n = order.n
    bits = order.bits
    comparable = bits | bits.T
    for k in range(n, 0, -1):
        for combo in combinations(range(n), k):
            if all(not comparable[u, v] for u, v in combinations(combo, 2)):
                return frozenset(combo)
    return frozenset()


def enumerate_convex_sets(rel: Relation) -> list[frozenset[int]]:
    """All convex node sets (exponential; for small n only)."""
    out = []
    for mask in range(1 << rel.n):
        s = frozenset(v for v in range(rel.n) if mask >> v & 1)
        if is_convex(rel, s):
            out.append(s)
    return out


def enumerate_strings(symbols: Sequence[str], max_len: int) -> Iterator[tuple[str, ...]]:
    for length in range(max_len + 1):
        yield from product(symbols, repeat=length)


# Seeded random instances ---------------------------------------------------------

def random_graph(rng: random.Random, n: int, n_symbols: int, density: float) -> LabeledGraph:
    """Independent coin per (ordered pair, symbol); self-loops allowed."""
    symbols = _SYMBOL_POOL[:n_symbols]
    edges = {(u, v, a) for a in symbols for u in range(n) for v in range(n)
             if rng.random() < density}
    return LabeledGraph(n, frozenset(edges), Alphabet(symbols))


def random_trim_nfa(rng: random.Random, max_states: int, n_symbols: int,
                    density: float) -> Nfa:
    """Random automaton, trimmed; resamples until the language is nonempty."""
    while True:
        n = rng.randint(1, max_states)
        g = random_graph(rng, n, n_symbols, density)
        finals = frozenset(v for v in range(n) if rng.random() < 0.4)
        if not finals:
            finals = frozenset({rng.randrange(n)})
        try:
            trimmed, _ = trim_nfa(Nfa(g, 0, finals))
        except ValueError:
            continue
        return trimmed


def random_acyclic_nfa(rng: random.Random, max_states: int, n_symbols: int,
                       density: float) -> Nfa:
    """Random trim DAG automaton (edges only go to higher ids before trimming)."""
    symbols = _SYMBOL_POOL[:n_symbols]
    while True:
        n = rng.randint(2, max_states)
        edges = {(u, v, a) for a in symbols for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density}
        finals = frozenset(v for v in range(1, n) if rng.random() < 0.4)
        if not finals:
            finals = frozenset({n - 1})
        try:
            trimmed, _ = trim_nfa(Nfa(LabeledGraph(n, frozenset(edges), Alphabet(symbols)),
                                      0, finals))
        except ValueError:
            continue
        return trimmed


def random_partial_order(rng: random.Random, n: int, density: float = 0.3) -> Preorder:
    """Transitive closure of a random DAG on 0..n-1, plus the diagonal."""
    bits = np.eye(n, dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                bits[u, v] = True
    return transitive_closure(Relation(bits))


def random_colex_relation(rng: random.Random, g: LabeledGraph,
                          u_marked: Iterable[int] = (), tries: int = 6) -> Relation:
    """Union of minimum relations around random pairs (a co-lex relation)."""
    marked = frozenset(u_marked)
    bits = np.eye(g.n, dtype=bool)
    for _ in range(tries):
        if g.n < 2:
            break
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        r = min_colex_containing(g, u, v, marked)
        if r is not None:
            bits |= r.bits
    return Relation(bits)


# Whole-graph verification driver --------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def single_in_edge_holds(g: LabeledGraph, part: ClassPartition) -> bool:
    """Every class of two or more nodes is entered from one class by one label."""
    incoming: dict[int, set[tuple[int, str]]] = {}
    for u, v, a in g.edges:
        incoming.setdefault(part.class_of[v], set()).add((part.class_of[u], a))
    return all(len(incoming.get(cid, ())) <= 1
               for cid, group in enumerate(part.members) if len(group) >= 2)


def monotone_groups_hold(qg: LabeledGraph, cp: ChainPartition) -> bool:
    """Same-label edges from one chain into another never cross.

    Within each (target chain, label, source chain) group, edges sorted by
    target position must have non-decreasing source positions; this is what
    lets one symbol step map an interval to an interval.
    """
    groups: dict[tuple[int, str, int], list[tuple[int, int]]] = {}
    for cu, cv, a in qg.edges:
        groups.setdefault((cp.chain_of[cv], a, cp.chain_of[cu]), []).append(
            (cp.pos_in_chain[cv], cp.pos_in_chain[cu]))
    for edges in groups.values():
        sources = [s for _, s in sorted(edges)]
        if sources != sorted(sources):
            return False
    return True


def rewritten(ix: Index) -> bytes:
    """The arrays that ``ix``'s file decodes to, written again with the
    header's fields: the file's own bytes when the reader undoes the writer."""
    alphabet, _, stored = _read(ix.to_bytes())
    return _write(alphabet, ix.n_original, ix.e_original, ix.n_classes,
                  _decode(stored, len(alphabet)), ix.initial_class)[0]


def _pattern_sample(rng: random.Random, symbols: Sequence[str], count: int,
                    max_len: int) -> list[tuple[str, ...]]:
    patterns = [()]
    for _ in range(count):
        length = rng.randint(1, max_len)
        patterns.append(tuple(rng.choice(symbols) for _ in range(length)))
    return patterns


def run_graph_checks(result: PipelineResult, seed: int = 0) -> list[CheckResult]:
    """Cross-check one pipeline run against the oracles; one result per check.

    The relation, quotient, chains and index come from ``result``; every
    reference they are compared with is computed here.
    """
    g, marked, pre, qg, cp = (result.graph, result.marked, result.relation,
                              result.quotient, result.chains)
    nfa = result.source if isinstance(result.source, Nfa) else None
    rng = random.Random(seed)
    results: list[CheckResult] = []

    def add(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, bool(ok), detail))

    if g.n <= 16:
        add("gfp-agreement", gfp_max_relation(g, marked) == pre)
        add("min-containing-iff-max", all(
            (min_colex_containing(g, u, v, marked) is not None) == pre.holds(u, v)
            for u in range(g.n) for v in range(g.n) if u != v))
    order = qg.order
    antichain = max_antichain(order)
    incomparable = not any(order.holds(u, v) for u in antichain for v in antichain if u != v)
    add("dilworth-certificate", incomparable and len(antichain) == cp.chain_count,
        f"q={cp.chain_count} antichain={len(antichain)}")
    ix = result.index().open()
    symbols = g.alphabet.symbols
    patterns = (_pattern_sample(rng, symbols, 40, 5) if symbols else [()])
    ok = True
    convex_ok = True
    stats = QueryStats()
    for p in patterns:
        matched, end = ix.match_pattern(p, stats)
        want_match, want_nodes = brute_match(g, p)
        if matched != want_match or ix.map_back(end) != want_nodes:
            ok = False
        if not is_convex(order, set(ix.classes_in(end))):
            convex_ok = False
    add("pattern-oracle", ok, f"{len(patterns)} patterns")
    add("follow-convexity", convex_ok)
    budget = stats.symbols * cp.chain_count ** 2
    add("probe-budget", stats.probes <= budget,
        f"{stats.probes} probes for {stats.symbols} symbol steps, q={cp.chain_count}")
    add("serialize-roundtrip", rewritten(ix) == ix.to_bytes())
    if nfa is not None:
        add("language-quotient-equal", language_equiv(nfa, result.automaton))
        strings = list(enumerate_strings(symbols, 4)) if len(symbols) ** 4 < 700 else \
            _pattern_sample(rng, symbols, 80, 6)
        ok = all(ix.accept(s) == simulate_nfa(nfa, s) for s in strings)
        add("accept-oracle", ok, f"{len(strings)} strings")
        report = check_powerset_bounds(nfa)
        add("powerset-bounds", report.bounds_hold,
            f"r={report.r}{'' if report.exact else ' (upper bound)'} r*={report.r_star} "
            f"n*={report.n_star} n_prec={report.n_prec}")
    return results
