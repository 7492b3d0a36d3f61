"""One benchmark run: set up, open and query one workload, then report.

Set-up is what ``colexgraph build`` does, from text to serialized index bytes;
open is ``Index.from_bytes``; queries run on the reopened indexes. The untraced
run reports the end-to-end metrics. The traced run wraps each call into a
module in a span, folds queries over the public ``Index.follow`` so that each
symbol step is a span, and reports each layer's self time and counts.

Every time is scaled to the host's full speed (see ``hostspeed``). A query's
latency is the median of its repetitions; set-up takes the median of its
rounds and an open the lower quartile of its repetitions, per unit.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil, inf, isfinite
from time import perf_counter, perf_counter_ns

import numpy as np
from colexgraph import (Index, LabeledGraph, Nfa, Preorder, QueryStats, build_index,
                        build_nfa_index, first_axiom_violation, max_colex_relation,
                        min_chain_partition, parse_graph, parse_nfa, quotient_graph,
                        quotient_nfa, trim_nfa)
from colexgraph.oracle import brute_match, simulate_nfa

from hostspeed import HostClock
from spans import NullTracer, Tracer
from workloads import WORKLOADS, Unit, Workload, regime_error

_EXIT_WRONG = 1
_EXIT_REGIME = 3

# Longest stretch of timed calls between two host-speed readings, in seconds.
_SLICE_S = 0.05


class RegimeError(Exception):
    """The seeded input left the regime its workload was chosen to stress."""


# Layer spans of one set-up, in pipeline order, and their per-layer metric names.
_SETUP_LAYERS = ("graph.parse", "graph.trim", "relation.build", "quotient.build",
                 "chains.build", "index.layout", "index.save")

# Index.space_report() breakdown keys -> per-layer metric names.
_SPACE_KEYS = {
    "group_directory_bits": "bitvec.directory_bits",
    "position_array_bits": "bitvec.position_bits",
    "boundary_bits": "bitvec.boundary_bits",
    "final_bits": "bitvec.final_bits",
    "rank_directory_bits": "bitvec.rank_directory_bits",
}


@dataclass
class Built:
    """What one build produced that the run checks answers against or reports."""

    raw: bytes
    original: LabeledGraph | Nfa   # as parsed, the oracle's input
    edges: int                     # edges as parsed
    graph: LabeledGraph            # after trimming, the relation's input
    marked: frozenset[int]
    relation: Preorder
    classes: int
    quotient_edges: int
    q: int


def build(unit: Unit, tr) -> Built:
    """Text to index bytes, as ``colexgraph build`` (``--nfa --mark-initial``) does."""
    with tr.span("graph.parse"):
        original = parse_nfa(unit.text) if unit.nfa else parse_graph(unit.text)
    with tr.span("graph.trim"):
        automaton = trim_nfa(original)[0] if unit.nfa else None
    graph = automaton.graph if unit.nfa else original
    marked = frozenset({automaton.initial}) if unit.nfa else frozenset()
    with tr.span("relation.build"):
        pre = max_colex_relation(graph, marked)
    with tr.span("quotient.build"):
        if unit.nfa:
            qn = quotient_nfa(automaton, pre)
            qg = qn.quotient
        else:
            qg = quotient_graph(graph, pre)
    with tr.span("chains.build"):
        cp = min_chain_partition(qg.order)
    source = original.graph if unit.nfa else original
    with tr.span("index.layout"):
        if unit.nfa:
            ix = build_nfa_index(qn, cp, n_original=source.n, e_original=len(source.edges))
        else:
            ix = build_index(qg, cp, n_original=source.n, e_original=len(source.edges))
    with tr.span("index.save"):
        raw = ix.to_bytes()
    return Built(raw, original, len(source.edges), graph, marked, pre, qg.partition.count,
                 len(qg.graph.edges), cp.chain_count)


class Stopwatch:
    """Times items of work at the host's full speed (see ``hostspeed``).

    Work is timed in pieces: an item's piece ends with ``lap``, which the item
    may also call part way. Once the pieces since the last host-speed reading
    have run for ``_SLICE_S``, a new reading is taken, outside any piece, and
    each of those pieces is divided by the slowdown factor of its stretch.
    """

    def __init__(self, clock: HostClock, items: int):
        self.clock = clock
        self.times = [0.0] * items    # each item's time at full speed
        self.raw = 0.0
        self._pending: list[tuple[int, float]] = []    # (item, seconds)
        self._item = 0
        clock.start()
        self._t0 = perf_counter()

    def start(self, item: int) -> None:
        self._item = item
        self._t0 = perf_counter()

    def lap(self) -> None:
        self._pending.append((self._item, perf_counter() - self._t0))
        if sum(t for _, t in self._pending) >= _SLICE_S:
            self.read()
        self._t0 = perf_counter()

    def read(self) -> None:
        if not self._pending:
            return
        f = self.clock.factor()
        for item, t in self._pending:
            self.times[item] += t / f
            self.raw += t
        self._pending.clear()


class Laps:
    """A tracer that also ends a stopwatch piece after each span, so that a
    long build takes host-speed readings between its stages."""

    def __init__(self, tr, watch: Stopwatch):
        self.tr = tr
        self.watch = watch

    @contextmanager
    def span(self, name: str):
        with self.tr.span(name):
            yield
        self.watch.lap()


def timed(items, work, clock: HostClock) -> tuple[list[float], list, float]:
    """Call ``work(item, stopwatch)`` on each item, one at a time.

    Returns each call's time at full host speed, the results, and the mean
    slowdown factor over the calls.
    """
    gc.collect()
    watch = Stopwatch(clock, len(items))
    results = []
    for i, item in enumerate(items):
        watch.start(i)
        results.append(work(item, watch))
        watch.lap()
    watch.read()
    return watch.times, results, watch.raw / sum(watch.times)


def set_up(wl: Workload, tr, clock: HostClock) -> tuple[list[float], list[Built], float]:
    """Build every unit: each unit's time at full speed, the builds, the slowdown."""
    with tr.span("setup"):
        return timed(wl.units, lambda unit, watch: build(unit, Laps(tr, watch)), clock)


def open_all(raws: list[bytes], tr, clock: HostClock) -> tuple[list[float], list[Index]]:
    """Open every index: each open's time at full speed, and the indexes."""
    def load(raw: bytes, _) -> Index:
        with tr.span("index.load"):
            return Index.from_bytes(raw)
    times, indexes, _ = timed(raws, load, clock)
    return times, indexes


def per_unit(repeats: list[list[float]], p: float) -> float:
    """Sum over units of the ``p`` quantile of each unit's times, from one list
    of unit times per repetition.

    Set-up takes the median. Opens take the lower quartile: an open slows
    somewhat more than the calibration loop does, so its scaled time still
    reads high while the host is slow, and the quartile comes from the
    stretches where it was not.
    """
    return sum(percentile(sorted(unit_times), p) for unit_times in zip(*repeats))


def oracle_answers(wl: Workload, built: list[Built]) -> list[list]:
    """Expected answer of every query: (matched, end nodes) or accepted."""
    out = []
    for unit, b in zip(wl.units, built):
        if unit.nfa:
            out.append([simulate_nfa(b.original, s) for s in unit.queries])
        else:
            out.append([brute_match(b.original, p) for p in unit.queries])
    return out


def ask(ix: Index, nfa: bool, query, stats: QueryStats):
    return ix.accept(query, stats) if nfa else ix.match_pattern(query, stats)


def ask_traced(ix: Index, nfa: bool, query, stats: QueryStats, tr):
    """The same answer as ``ask``, folded over ``Index.follow`` one span per step."""
    cur = ix.set_for_classes([ix.initial_class]) if nfa else ix.full_set()
    for a in query:
        with tr.span("index.follow"):
            cur = ix.follow(cur, a, stats)
        if cur.is_empty():
            break
    if nfa:
        return not cur.is_empty() and any(c in ix.finals for c in ix.classes_in(cur))
    return not cur.is_empty(), cur


class QueryLoop:
    """Closed-loop queries, one at a time, cycling through the workload's queries.

    Every query is asked again on each pass through the stream, at a different
    moment of the run. Its latency is the median of its times at full host
    speed; a query that fails even once counts as failed, with an infinite
    latency.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        # Query k of every index comes before query k + 1 of any, so that any
        # stretch of the stream samples every index.
        self.stream = [(u, k) for k in range(max(len(x.queries) for x in wl.units))
                       for u, unit in enumerate(wl.units) if k < len(unit.queries)]
        self.samples_ns: list[list[float]] = [[] for _ in self.stream]
        self.steps = [0] * len(self.stream)    # symbol steps of each query
        self.bad = [False] * len(self.stream)
        self.asked = 0
        self.hits = 0
        self.failed = 0
        self.raw_ns = 0.0
        self.scaled_ns = 0.0
        self.stats = QueryStats()

    def run(self, indexes: list[Index], expected: list[list], seconds: float,
            min_total: int, tr, traced: bool, clock: HostClock) -> None:
        """Query until ``seconds`` pass and ``min_total`` queries are done in all.

        A host-speed reading follows every ``_SLICE_S`` of queries.
        """
        stats = self.stats
        chunk: list[tuple[int, int]] = []    # (stream position, ns) since the last reading
        gc.collect()
        clock.start()
        deadline = perf_counter() + seconds
        chunk_end = perf_counter() + _SLICE_S
        while self.asked < min_total or perf_counter() < deadline:
            i = self.asked % len(self.stream)
            u, k = self.stream[i]
            unit, ix = self.wl.units[u], indexes[u]
            query = unit.queries[k]
            symbols = stats.symbols
            t0 = perf_counter_ns()
            try:
                if traced:
                    with tr.span("query"):
                        answer = ask_traced(ix, unit.nfa, query, stats, tr)
                else:
                    answer = ask(ix, unit.nfa, query, stats)
                elapsed = perf_counter_ns() - t0
                with tr.span("oracle.check"):
                    if not unit.nfa:
                        answer = (answer[0], ix.map_back(answer[1]))
                    ok = answer == expected[u][k]
            except Exception:  # a query that raises is a failed operation, not a crash
                elapsed = perf_counter_ns() - t0
                if self.failed == 0:
                    traceback.print_exc()
                ok = False
            self.asked += 1
            self.steps[i] = stats.symbols - symbols
            chunk.append((i, elapsed))
            if ok:
                self.hits += bool(answer if unit.nfa else answer[0])
            else:
                if self.failed == 0:
                    print(f"error: unit {u} query {query!r} failed", file=sys.stderr)
                self.bad[i] = True
                self.failed += 1
            if perf_counter() >= chunk_end:
                self._settle(chunk, clock)
                chunk_end = perf_counter() + _SLICE_S
        if chunk:
            self._settle(chunk, clock)

    def _settle(self, chunk: list[tuple[int, int]], clock: HostClock) -> None:
        f = clock.factor()
        for i, ns in chunk:
            self.samples_ns[i].append(ns / f)
            self.raw_ns += ns
            self.scaled_ns += ns / f
        chunk.clear()

    def latencies_ns(self) -> list[float]:
        """Each query's latency, ascending; a failed query's is inf."""
        return sorted(inf if bad else statistics.median(samples)
                      for bad, samples in zip(self.bad, self.samples_ns))

    def steps_per_s(self) -> float:
        """Symbol steps of one pass over the time the pass takes."""
        return sum(self.steps) / (sum(self.latencies_ns()) / 1e9)

    def slowdown(self) -> float:
        return self.raw_ns / self.scaled_ns


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(ceil(p * len(sorted_values)) - 1, 0)]


def tail(sorted_values: list[float]) -> tuple[str, float, int]:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(sorted_values)
    for label, p in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        beyond = n - ceil(p * n)
        if beyond >= 10:
            return label, percentile(sorted_values, p), beyond
    raise ValueError(f"{n} samples are too few for a tail percentile")


def sizes_of(built: list[Built]) -> list[dict]:
    return [{"n": b.graph.n, "e": b.edges, "q": b.q, "classes": b.classes}
            for b in built]


def check_regime(wl: Workload, built: list[Built]) -> None:
    problem = regime_error(wl.name, sizes_of(built))
    if problem:
        raise RegimeError(problem)


def input_sizes(wl: Workload, built: list[Built]) -> dict:
    sizes = sizes_of(built)
    return {
        "indexes": len(built),
        "n": sum(s["n"] for s in sizes), "e": sum(s["e"] for s in sizes),
        "q": sum(s["q"] for s in sizes), "q_max": max(s["q"] for s in sizes),
        "distinct_queries": sum(len(u.queries) for u in wl.units),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value if isfinite(value) else None, "unit": unit}


@dataclass
class Observations:
    built: list[Built] = field(default_factory=list)
    indexes: list[Index] = field(default_factory=list)
    setups: list[list[float]] = field(default_factory=list)   # unit times per untraced set-up
    traced_setups: list[list[float]] = field(default_factory=list)
    setup_spans: list[dict] = field(default_factory=list)     # per traced set-up, at full speed
    loads: list[list[float]] = field(default_factory=list)    # unit times per open
    loop: QueryLoop | None = None
    clock: HostClock = field(default_factory=HostClock)


def measure(wl: Workload, seconds: float, tr: Tracer | None) -> Observations:
    """Run the workload's rounds; each is one set-up and then some opens, each
    open followed by a slice of the query phase.

    Spreading every phase over the whole run gives each unit's set-up, each
    open and each query repetitions in many host conditions. Every query is
    answered at least once. With a tracer, each round also runs one traced
    set-up next to the untraced one, and opens and queries are traced.
    """
    spans = tr or NullTracer()
    obs = Observations(loop=QueryLoop(wl))
    clock = obs.clock
    slices = wl.rounds * wl.load_reps
    one_pass = len(obs.loop.stream)
    done = 0
    for r in range(wl.rounds):
        t, obs.built, _ = set_up(wl, NullTracer(), clock)
        obs.setups.append(t)
        if tr is not None:
            mark = tr.mark()
            t, obs.built, slowdown = set_up(wl, tr, clock)
            obs.traced_setups.append(t)
            obs.setup_spans.append({name: (count, ns / slowdown) for name, (count, ns)
                                    in tr.self_times(mark).items()})
        if r == 0:
            check_regime(wl, obs.built)
            with spans.span("oracle.check"):
                expected = oracle_answers(wl, obs.built)
        raws = [b.raw for b in obs.built]
        for _ in range(wl.load_reps):
            t, obs.indexes = open_all(raws, spans, clock)
            obs.loads.append(t)
            done += 1
            obs.loop.run(obs.indexes, expected, seconds / slices,
                         ceil(one_pass * done / slices), spans, tr is not None, clock)
    return obs


def host_env(clock: HostClock) -> dict:
    f = clock.factors
    return {"host_slowdown": {"min": round(min(f), 3),
                              "median": round(statistics.median(f), 3),
                              "max": round(max(f), 3), "stretches": len(f)}}


def end_to_end(wl: Workload, seconds: float, env: dict):
    obs = measure(wl, seconds, None)
    loop, built = obs.loop, obs.built
    latencies = loop.latencies_ns()
    tail_label, tail_ns, beyond = tail(latencies)
    attempted = loop.asked
    env.update(input_sizes(wl, built), queries=attempted,
               passes=attempted // len(loop.stream), setups=len(obs.setups),
               opens=len(obs.loads), tail_percentile=tail_label, tail_beyond=beyond,
               **host_env(obs.clock))
    metrics = {
        "setup_s": metric(per_unit(obs.setups, 0.5), "s"),
        "load_s": metric(per_unit(obs.loads, 0.25), "s"),
        "query_p50_us": metric(percentile(latencies, 0.5) / 1e3, "us"),
        "query_tail_us": metric(tail_ns / 1e3, "us"),
        "query_steps_per_s": metric(loop.steps_per_s(), "1/s"),
        "index_bytes_per_edge": metric(
            sum(len(b.raw) for b in built) / sum(b.edges for b in built), "B/edge"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    # fail_rate is carried by "attempted"/"failed"; it is 0 on a correct run,
    # so it is printed here but not listed among the bounded metrics.
    extra = {"fail_rate": metric(loop.failed / attempted, "ratio")}
    return attempted, loop.failed, metrics, extra


def per_layer(wl: Workload, seconds: float, env: dict):
    tr = Tracer()
    obs = measure(wl, seconds, tr)
    loop, built, indexes = obs.loop, obs.built, obs.indexes

    def layer_s(name: str) -> float:
        return statistics.median(r.get(name, (0, 0))[1] / 1e9 for r in obs.setup_spans)

    metrics = {f"{name}_s": metric(layer_s(name), "s") for name in _SETUP_LAYERS}

    def check(b: Built, _) -> None:
        with tr.span("relation.check"):
            violation = first_axiom_violation(b.graph, b.relation, b.marked)
        if violation is not None:
            raise RuntimeError(f"maximum relation breaks an axiom: {violation}")

    check_times, _, _ = timed(built, check, obs.clock)
    metrics["relation.check_s"] = metric(sum(check_times), "s")
    metrics["index.load_s"] = metric(per_unit(obs.loads, 0.25), "s")

    spans = tr.self_times()
    queries = loop.asked
    steps, probes = loop.stats.symbols, loop.stats.probes
    follow_count, follow_ns = spans.get("index.follow", (0, 0))
    metrics["index.follow_us"] = metric(
        follow_ns / loop.slowdown() / 1e3 / max(follow_count, 1), "us")
    metrics["index.probes_per_step"] = metric(probes / max(steps, 1), "probes/step")
    metrics["index.steps_per_query"] = metric(steps / queries, "steps/query")
    metrics["index.hit_frac"] = metric(loop.hits / queries, "ratio")
    metrics["oracle.check_s"] = metric(spans["oracle.check"][1] / 1e9, "s")
    metrics["oracle.checked_ops"] = metric(queries, "count")

    metrics["relation.strict_pairs"] = metric(
        sum(b.relation.pair_count() - b.graph.n for b in built), "count")
    metrics["quotient.classes"] = metric(sum(b.classes for b in built), "count")
    metrics["quotient.edges"] = metric(sum(b.quotient_edges for b in built), "count")
    metrics["chains.q"] = metric(sum(b.q for b in built), "count")
    reports = [ix.space_report() for ix in indexes]
    measured = sum(r.measured_bits for r in reports)
    formula = sum(r.formula_bits for r in reports)
    metrics["index.space_ratio"] = metric(measured / formula, "ratio")
    metrics["index.measured_bits"] = metric(measured, "bits")
    metrics["index.formula_bits"] = metric(formula, "bits")
    for key, name in _SPACE_KEYS.items():
        metrics[name] = metric(sum(r.breakdown[key] for r in reports), "bits")
    metrics["trace.overhead_s"] = metric(
        per_unit(obs.traced_setups, 0.5) - per_unit(obs.setups, 0.5), "s")
    env.update(input_sizes(wl, built), queries=queries, spans=tr.mark(),
               **host_env(obs.clock))
    return queries, loop.failed, metrics, {}


def run(name: str, seed: int, seconds: float, traced: bool, blas_threads: int) -> int:
    wl = WORKLOADS[name](seed)
    env = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
           "python": platform.python_version(), "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads}
    try:
        attempted, failed, metrics, extra = (per_layer if traced else end_to_end)(
            wl, seconds, env)
    except RegimeError as e:
        print(f"error: regime guard: {e}", file=sys.stderr)
        return _EXIT_REGIME
    print("env " + json.dumps(env))
    for key, m in {**metrics, **extra}.items():
        print(f"metric {key} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else _EXIT_WRONG
