"""End-to-end acceptance suite.

One test per acceptance criterion; each prints one pass/fail line with the
measured quantities (visible under pytest -s) and asserts the criterion at its
stated tolerance.
"""

import itertools
import random
import time

import pytest

from colexgraph import (Preorder, QueryStats, build_index, build_nfa_index,
                        max_colex_relation, min_chain_partition, oracle, quotient_graph,
                        quotient_nfa)
from colexgraph.oracle import (brute_theta, check_powerset_bounds,
                               exhaustive_max_antichain, gfp_max_relation, is_convex,
                               language_equiv, prec_a_acyclic, preorder_width,
                               random_acyclic_nfa, random_graph, random_partial_order,
                               random_trim_nfa, relation_from_pairs, rewritten, simulate_nfa)
from conftest import (SEED_ACYCLIC_CORPUS, SEED_BIG_GRAPH, SEED_NFA_CORPUS,
                      SEED_ORDER_CORPUS, SEED_SPACE_FAMILY, diamond_nfa, double_hub_graph, funnel_nfa, loop_branch_nfa,
                      two_cycle_graph)
from helpers import expected_double_hub_relation, nfa_pipeline, quotient_pipeline


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_golden_relations():
    ok = True
    worst = 0.0
    for n in range(2, 7):
        t0 = time.perf_counter()
        pre = max_colex_relation(double_hub_graph(n))
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok &= (pre == Preorder(expected_double_hub_relation(n).bits)
               and preorder_width(pre) == 1 and elapsed < 1.0)
    t0 = time.perf_counter()
    cyc = max_colex_relation(two_cycle_graph())
    elapsed = time.perf_counter() - t0
    worst = max(worst, elapsed)
    ok &= set(cyc.strict_pairs()) == {(0, 1), (1, 0)} and elapsed < 1.0
    report(1, "golden-relations", ok, f"hub n=2..6 + two-cycle, worst {worst * 1000:.1f} ms")


def test_criterion_02_quotient_golden():
    nfa = loop_branch_nfa()
    g = nfa.graph
    qg = quotient_graph(g, max_colex_relation(g))
    collapsed_ok = (qg.partition.members == ((0, 1), (2,))
                    and set(qg.graph.edges) == {(0, 0, "a"), (0, 1, "b")})
    pres = max_colex_relation(g, {nfa.initial})
    qn = quotient_nfa(nfa, pres)
    unmerged_ok = (qn.quotient.partition.count == 3
                   and qn.initial == 0 and qn.finals == {1, 2})
    convex_ok = is_convex(pres, {nfa.initial})
    report(2, "quotient-golden", collapsed_ok and unmerged_ok and convex_ok,
           "collapse to {{0,1}},{{2}}; marked run keeps singletons and a convex start")


def test_criterion_03_two_algorithm_agreement(graph_corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for g in graph_corpus:
        if max_colex_relation(g) != gfp_max_relation(g):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(3, "two-algorithm-agreement", mismatches == 0 and elapsed < 60.0,
           f"{len(graph_corpus)} graphs, {mismatches} mismatches, {elapsed:.1f} s")


def _walk_pattern_tree(ix, g, start_set, start_nodes, max_len, stats=None):
    """Compare every follow image against the brute traversal, sharing prefixes.

    Returns (comparisons, mismatches, probe_violations).
    """
    out_adj = g.out_adjacency()
    symbols = g.alphabet.symbols
    budget = ix.q * ix.q
    comparisons = mismatches = violations = 0
    stack = [(start_set, frozenset(start_nodes), 0)]
    while stack:
        cs, nodes, depth = stack.pop()
        comparisons += 1
        if ix.map_back(cs) != nodes:
            mismatches += 1
            continue
        if depth == max_len:
            continue
        for a in symbols:
            before = stats.probes if stats is not None else 0
            child = ix.follow(cs, a, stats)
            if stats is not None and stats.probes - before > budget:
                violations += 1
            nxt = frozenset(v for u in nodes for v in out_adj[u].get(a, ()))
            stack.append((child, nxt, depth + 1))
    return comparisons, mismatches, violations


def test_criterion_04_pattern_matching_oracle(graph_corpus):
    t0 = time.perf_counter()
    total = mismatches = violations = roundtrip_bad = 0
    for g in graph_corpus:
        qg, cp = quotient_pipeline(g)
        ix = build_index(qg, cp).open()
        roundtrip_bad += rewritten(ix) != ix.to_bytes()
        stats = QueryStats()
        done, bad, viol = _walk_pattern_tree(
            ix, g, ix.full_set(), range(g.n), 5, stats)
        total += done
        mismatches += bad
        violations += viol
        # match_pattern / match_from surfaces on short patterns
        for p in itertools.chain([()], itertools.product(g.alphabet.symbols, repeat=2)):
            got, end = ix.match_pattern(p)
            want_nodes = brute_theta(g, range(g.n), p)
            total += 1
            if got != bool(want_nodes) or ix.map_back(end) != want_nodes:
                mismatches += 1
        picks = sorted({0, ix.n_classes // 2, ix.n_classes - 1})
        for cid in picks:
            start = ix.set_for_classes([cid])
            nodes = ix.members[cid]
            for p in itertools.chain([()], itertools.product(g.alphabet.symbols, repeat=2)):
                got, end = ix.match_from(start, p)
                want_nodes = brute_theta(g, nodes, p)
                total += 1
                if got != bool(want_nodes) or ix.map_back(end) != want_nodes:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    report(4, "pattern-matching-oracle",
           mismatches == 0 and violations == 0 and roundtrip_bad == 0,
           f"{total} comparisons, {mismatches} mismatches, {violations} probe "
           f"overruns, {roundtrip_bad} roundtrip diffs, {elapsed:.1f} s")


def test_criterion_05_nfa_acceptance():
    rng = random.Random(SEED_NFA_CORPUS)
    t0 = time.perf_counter()
    strings_checked = mismatches = 0
    language_failures = roundtrip_bad = 0
    for _ in range(300):
        nfa = random_trim_nfa(rng, 7, rng.randint(1, 3), rng.choice([0.1, 0.3]))
        qn, cp = nfa_pipeline(nfa)
        if not language_equiv(nfa, qn.as_nfa()):
            language_failures += 1
        ix = build_nfa_index(qn, cp).open()
        roundtrip_bad += rewritten(ix) != ix.to_bytes()
        symbols = nfa.graph.alphabet.symbols
        for length in range(7):
            for s in itertools.product(symbols, repeat=length):
                strings_checked += 1
                if ix.accept(s) != simulate_nfa(nfa, s):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    report(5, "nfa-acceptance",
           mismatches == 0 and language_failures == 0 and roundtrip_bad == 0,
           f"300 automata, {strings_checked} strings, {mismatches} mismatches, "
           f"{language_failures} language failures, {roundtrip_bad} roundtrip diffs, "
           f"{elapsed:.1f} s")


def test_roundtrip_diffs_count_a_misread_value(graph_corpus, monkeypatch):
    """Criteria 4 and 5 count the files whose decoded arrays, written again
    with the header's fields, differ from the file: a reader that decodes
    one value wrong makes every file count."""
    rng = random.Random(SEED_NFA_CORPUS)
    indexes = [build_index(*quotient_pipeline(g)).open() for g in graph_corpus[:20]]
    indexes += [build_nfa_index(*nfa_pipeline(
        random_trim_nfa(rng, 7, rng.randint(1, 3), rng.choice([0.1, 0.3])))).open()
        for _ in range(20)]
    assert sum(rewritten(ix) != ix.to_bytes() for ix in indexes) == 0
    real = oracle._read

    def misread(raw):
        alphabet, widths, stored = real(raw)
        stored.class_map[-1] ^= 1
        return alphabet, widths, stored
    monkeypatch.setattr(oracle, "_read", misread)
    assert sum(rewritten(ix) != ix.to_bytes() for ix in indexes) == len(indexes)


def test_criterion_06_dilworth_for_preorders():
    rng = random.Random(SEED_ORDER_CORPUS)
    mismatches = 0
    for _ in range(500):
        order = random_partial_order(rng, rng.randint(1, 12), rng.choice([0.2, 0.35]))
        q = min_chain_partition(order).chain_count
        if q != len(exhaustive_max_antichain(order)):
            mismatches += 1
    report(6, "dilworth-for-preorders", mismatches == 0,
           f"500 partial orders, {mismatches} mismatches")


def _axiom2_requirement(g, u, v):
    """Distinct same-label predecessor pairs forced into any relation holding (u, v)."""
    in_adj = g.in_adjacency()
    need = set()
    for a, us in in_adj[u].items():
        vs = in_adj[v].get(a)
        if vs:
            for u1 in us:
                for v1 in vs:
                    if u1 != v1:
                        need.add((u1, v1))
    return frozenset(need)


def _min_colex_order_width(nfa):
    """Exhaustive width minimum over every co-lex order of the automaton.

    Co-lex orders are exactly the antisymmetric, transitive, Axiom-2-closed
    subsets of the maximum relation's strict pairs (Axiom 1 holds on all of
    them already), so enumerate per-slot choices.
    """
    g = nfa.graph
    pre = max_colex_relation(g, {nfa.initial})
    cand = set(pre.strict_pairs())
    requirement = {p: _axiom2_requirement(g, *p) for p in cand}
    mutual = sorted({(min(p), max(p)) for p in cand if (p[1], p[0]) in cand})
    single = sorted(p for p in cand if (p[1], p[0]) not in cand)
    slot_options = [((), (p,), ((p[1], p[0]),)) for p in mutual]
    slot_options += [((), (p,)) for p in single]
    best = g.n  # the identity order always exists
    orders_seen = 0
    for combo in itertools.product(*slot_options):
        chosen = frozenset(p for slot in combo for p in slot)
        if any(not requirement[p] <= chosen for p in chosen):
            continue
        succ = {}
        for a, b in chosen:
            succ.setdefault(a, set()).add(b)
        transitive = all(
            c in succ.get(a, ()) or a == c
            for a in succ for b in succ[a] for c in succ.get(b, ()))
        if not transitive:
            continue
        orders_seen += 1
        order = relation_from_pairs(g.n, chosen)
        width = min_chain_partition(Preorder(order.bits)).chain_count
        best = min(best, width)
    return best, orders_seen


def test_criterion_07_powerset_bounds():
    rng = random.Random(SEED_ACYCLIC_CORPUS)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        nfa = random_acyclic_nfa(rng, 7, rng.randint(1, 3), rng.choice([0.2, 0.4]))
        rep = check_powerset_bounds(nfa)
        if not (rep.exact and rep.bounds_hold):
            failures += 1
    widths = []
    family_ok = True
    for n in (1, 2, 3):
        nfa = funnel_nfa(n)
        if preorder_width(prec_a_acyclic(nfa)) != 1:
            family_ok = False
        if n >= 2:
            p_min, seen = _min_colex_order_width(nfa)
            widths.append((n, p_min, seen))
            if p_min != n:
                family_ok = False
    elapsed = time.perf_counter() - t0
    report(7, "powerset-bounds", failures == 0 and family_ok,
           f"1000 acyclic automata, {failures} bound failures; funnel family "
           f"min order widths {widths}, {elapsed:.1f} s")


def test_criterion_08_strict_refinement_witness():
    nfa = diamond_nfa()
    fine = prec_a_acyclic(nfa)
    coarse = max_colex_relation(nfa.graph, {nfa.initial})
    ok = fine.holds(3, 4) and not coarse.holds(3, 4)
    report(8, "strict-refinement-witness", ok,
           "(3,4) ordered by string sets but not by the computable relation")


def test_criterion_09_space_accounting():
    g = random_graph(random.Random(SEED_SPACE_FAMILY), 200, 3, 0.15)
    qg, cp = quotient_pipeline(g)
    ix = build_index(qg, cp)
    rep = ix.space_report()
    ok = ix.e_quotient >= 10_000 and rep.measured_bits <= 3 * rep.formula_bits
    report(9, "space-accounting", ok,
           f"|E/<=|={ix.e_quotient}, measured={rep.measured_bits} bits, "
           f"formula={rep.formula_bits} bits, ratio={rep.ratio:.2f} (<= 3)")


def test_criterion_10_complexity_spot_check(graph_corpus):
    violations = 0
    checked = 0
    for g in graph_corpus[:100]:
        qg, cp = quotient_pipeline(g)
        ix = build_index(qg, cp).open()
        stats = QueryStats()
        _, _, viol = _walk_pattern_tree(ix, g, ix.full_set(), range(g.n), 3, stats)
        checked += stats.symbols
        violations += viol
    big = random_graph(random.Random(SEED_BIG_GRAPH), 600, 3, 0.1)
    assert len(big.edges) >= 100_000
    t0 = time.perf_counter()
    pre = max_colex_relation(big)
    relation_time = time.perf_counter() - t0
    qg, cp = quotient_pipeline(big)
    ix = build_index(qg, cp).open()
    stats = QueryStats()
    ix.match_pattern(["a", "b", "c"], stats)
    build_time = time.perf_counter() - t0
    big_ok = stats.probes <= stats.symbols * ix.q * ix.q
    report(10, "complexity-spot-check", violations == 0 and checked > 0 and big_ok,
           f"{checked} instrumented symbol steps, {violations} probe overruns; "
           f"{len(big.edges)}-edge graph: relation {relation_time:.1f} s, "
           f"full pipeline {build_time:.1f} s (reported, 10 min budget)")
