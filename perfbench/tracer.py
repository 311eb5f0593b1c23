"""Span tracing from outside the program, and the per-layer metrics.

Spans are recorded by instance-level wrappers that the benchmark installs
on one simulation's objects after set-up: nothing in ``src/`` changes, and
an untraced round pays nothing.  Each span is ``(name, start, end,
parent, tag)``, where ``parent`` indexes the enclosing span of the same
thread and ``tag`` is the batch or query id current when it ended.  Spans
stay in memory; the last traced round is written out when the run ends.

A span's self time is its duration minus its direct children's; self
times of the spans under one ``simulation.run`` sum to that span, so the
layer self times below account for the run's wall time.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

from repro.analytics.counter_bank import stable_key_hash
from repro.rng.bitstream import BitBudgetedRandom

Span = tuple[str, float, float, int, int]

#: Span names whose self time is reported under their layer's metric.
RUN = "simulation.run"
ROUTE = "router.route"
WAL_APPEND = "storage.wal_append"
SUBMIT = "node.submit"
CONSUME = "counter_bank.consume"
CHECKPOINT = "storage.checkpoint"
BYTES_SCAN = "storage.bytes_scan"
GOSSIP_ROUND = "gossip.round"
GOSSIP_CONVERGE = "gossip.converge"
GLOBAL_VIEW = "aggregator.global_view"
QUERY_GET = "query.get"
QUERY_TOP_K = "query.top_k"
QUERY_FOLD = "query.fold"
QUERY_CACHED = "query.cached_view"

#: Largest gap allowed between the layers' summed self times and the
#: run() wall time measured around the call.
ACCOUNTING_MARGIN = 0.02


class Tracer:
    """Collects spans per thread; ``tag`` labels the spans that end."""

    def __init__(self) -> None:
        self.tag = 0
        self._local = threading.local()
        self._threads: list[tuple[int, list[Span | None]]] = []
        #: ``(bank seed, pairs)`` per ``consume_counts`` call, in order.
        self.consumed: list[tuple[int, list[tuple[str, int]]]] = []

    def _state(self) -> tuple[list[Span | None], list[int]]:
        try:
            return self._local.state
        except AttributeError:
            spans: list[Span | None] = []
            self._local.state = (spans, [])
            self._threads.append((threading.get_ident(), spans))
            return self._local.state

    def reset(self) -> None:
        """Forget every span (between traced rounds)."""
        self._local = threading.local()
        self._threads = []
        self.consumed = []

    def wrap(
        self,
        owner: Any,
        method: str,
        name: str,
        classify: Callable[[], str] | None = None,
    ) -> None:
        """Replace ``owner.method`` by a spanning wrapper on the instance.

        ``classify`` (called when the span ends) names the span instead
        of ``name`` -- how a read is told apart as a fold or a cache hit.
        """
        inner = getattr(owner, method)
        state = self._state
        perf = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack = state()
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (
                    name if classify is None else classify(),
                    start,
                    end,
                    stack[-1] if stack else -1,
                    tracer.tag,
                )

        setattr(owner, method, traced)

    def instrument(self, simulation: Any, reader: Any) -> None:
        """Wrap the public calls into every layer of one cluster."""
        self.wrap(simulation, "run", RUN)
        self.wrap(simulation.router, "route_event", ROUTE)
        self.wrap(simulation.store.wal, "append", WAL_APPEND)
        self.wrap(simulation.store, "storage_bytes", BYTES_SCAN)
        self.wrap(simulation, "checkpoint_node", CHECKPOINT)
        self.wrap(simulation.aggregator, "global_view", GLOBAL_VIEW)
        if simulation.gossip is not None:
            self.wrap(simulation.gossip, "run_round", GOSSIP_ROUND)
            self.wrap(simulation.gossip, "converge", GOSSIP_CONVERGE)
        for node in simulation.nodes:
            self.wrap(node, "submit", SUBMIT)
            self._capture_consumed(node.bank)
        self.wrap(reader, "get", QUERY_GET)
        self.wrap(reader, "top_k", QUERY_TOP_K)
        misses = [reader.cache_misses]

        def fold_or_hit() -> str:
            missed = reader.cache_misses != misses[0]
            misses[0] = reader.cache_misses
            return QUERY_FOLD if missed else QUERY_CACHED

        self.wrap(reader, "raw_view", QUERY_CACHED, classify=fold_or_hit)

    def _capture_consumed(self, bank: Any) -> None:
        """Span the bank's flush entry point and keep the pairs it saw,
        so ``core`` can be timed on them alone afterwards."""
        self.wrap(bank, "consume_counts", CONSUME)
        spanned = bank.consume_counts
        consumed = self.consumed
        seed = bank.seed

        def capture(items: Iterable[tuple[str, int]], **kwargs: Any) -> int:
            if not isinstance(items, list):
                items = list(items)
            consumed.append((seed, items))
            return spanned(items, **kwargs)

        bank.consume_counts = capture

    def threads(self) -> list[list[Span]]:
        """Every thread's spans, the calling thread's first.

        Call between rounds only: a span still open would be ``None``.
        """
        me = threading.get_ident()
        ordered = sorted(self._threads, key=lambda item: item[0] != me)
        return [spans for _, spans in ordered]  # type: ignore[misc]


def self_times(
    spans: list[Span], roots: tuple[str, ...]
) -> tuple[dict[str, float], Counter[str]]:
    """Summed self time and call count per span name, over the spans of
    one thread that descend from a span named in ``roots``.

    A parent is always recorded before its children, so one forward
    pass finds each span's root.
    """
    children = [0.0] * len(spans)
    root = [0] * len(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
            root[index] = root[parent]
        else:
            root[index] = index
    totals: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        if spans[root[index]][0] in roots:
            totals[name] += end - start - children[index]
            calls[name] += 1
    return totals, calls


def replay_core(
    template: Any, consumed: list[tuple[int, list[tuple[str, int]]]]
) -> tuple[int, float, float, dict[tuple[int, str], Any]]:
    """Time ``add`` alone on the pairs the banks consumed.

    Bare counters are built from the cluster's template on the random
    stream the bank gives each key, so the replay draws the same coins
    and does the same work as the run did; the timed loop holds nothing
    but the ``add`` calls.  Returns ``(calls, seconds, rng bits per
    increment, counters by (bank seed, key))``.
    """
    roots: dict[int, BitBudgetedRandom] = {}
    counters: dict[tuple[int, str], Any] = {}
    ops = []
    increments = 0
    for seed, pairs in consumed:
        root = roots.get(seed)
        if root is None:
            root = roots[seed] = BitBudgetedRandom(seed)
        for key, count in pairs:
            if count == 0:
                continue
            counter = counters.get((seed, key))
            if counter is None:
                counter = counters[seed, key] = template.build(
                    root.split(stable_key_hash(key), len(key))
                )
            ops.append((counter.add, count))
            increments += count
    bits_before = sum(c.rng.bits_consumed for c in counters.values())
    perf = time.perf_counter
    started = perf()
    for add, count in ops:
        add(count)
    seconds = perf() - started
    bits = sum(c.rng.bits_consumed for c in counters.values()) - bits_before
    return len(ops), seconds, bits / max(increments, 1), counters


def write_spans(path: Any, tracer: Tracer) -> None:
    """One tab-separated line per span: thread, index, name, start,
    end, parent index, tag."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("thread\tindex\tname\tstart\tend\tparent\ttag\n")
        for thread, spans in enumerate(tracer.threads()):
            for index, (name, start, end, parent, tag) in enumerate(spans):
                out.write(
                    f"{thread}\t{index}\t{name}\t{start:.9f}\t{end:.9f}"
                    f"\t{parent}\t{tag}\n"
                )


def layer_metrics(
    tracer: Tracer,
    simulation: Any,
    reader: Any,
    measured: Any,
    http_tags: list[int],
    tally: Any,
) -> dict[str, float]:
    """The per-layer metrics of one traced round.

    ``measured`` is the round's :class:`Round`, whose ``run_s`` was
    timed around each ``run()`` call from outside every span, and
    ``http_tags`` the query id of each HTTP request in ``measured.http_s``
    order.
    """
    threads = tracer.threads()
    selfs, calls = self_times(threads[0], (RUN,))
    run_s = sum(
        end - start
        for name, start, end, parent, _ in threads[0]
        if name == RUN and parent < 0
    )
    add_calls, add_s, bits, replayed = replay_core(
        simulation.config.template, tracer.consumed
    )
    nodes = simulation.nodes
    tally.check(
        all(
            replayed[node.bank.seed, key].estimate() == counter.estimate()
            for node in nodes
            for key, counter in node.bank.items()
        ),
        "replayed counters differ from the banks': core.add_s timed "
        "other work than the run did",
    )
    queries = 0
    fold_s = 0.0
    served: dict[int, float] = {}
    for thread, spans in enumerate(threads):
        for name, start, end, parent, tag in spans:
            if name in (QUERY_GET, QUERY_TOP_K):
                queries += 1
                if thread > 0 and parent < 0:
                    served[tag] = end - start
            elif name == QUERY_FOLD:
                fold_s += end - start
    tally.check(
        all(tag in served for tag in http_tags),
        "an HTTP request left no query span in a handler thread",
    )
    overheads = [
        latency - served.get(tag, 0.0)
        for latency, tag in zip(measured.http_s, http_tags)
    ]
    tally.check(
        calls[ROUTE] == calls[WAL_APPEND] == measured.events,
        f"{calls[ROUTE]} routes and {calls[WAL_APPEND]} WAL appends "
        f"traced for {measured.events} events",
    )
    accounted = sum(selfs.values()) / measured.run_s
    tally.check(
        abs(accounted - 1.0) <= ACCOUNTING_MARGIN,
        f"layer self times cover {accounted:.4f} of the run() wall time",
    )
    registry = simulation.telemetry.registry
    ingested = sum(node.events_ingested for node in nodes)
    lookups = reader.cache_hits + reader.cache_misses
    non_2xx = sum(
        n for status, n in measured.http_status.items()
        if status is None or not 200 <= status < 300
    )
    return {
        "core.add_calls": add_calls,
        "core.add_s": add_s,
        "core.rng_bits_per_increment": bits,
        "counter_bank.consume_calls": calls[CONSUME],
        "counter_bank.self_s": selfs[CONSUME] - add_s,
        "node.submit_calls": calls[SUBMIT],
        "node.submit_self_s": selfs[SUBMIT],
        "node.flushes": sum(node.n_flushes for node in nodes),
        "node.coalesce_ratio": sum(node.events_coalesced for node in nodes)
        / ingested,
        "router.route_calls": calls[ROUTE],
        "router.route_s": selfs[ROUTE],
        "storage.wal_append_calls": calls[WAL_APPEND],
        "storage.wal_append_s": selfs[WAL_APPEND],
        "storage.fsyncs": sum(
            registry.counter("wal_fsyncs_total", node=node.node_id)
            for node in nodes
        ),
        "storage.checkpoints": calls[CHECKPOINT],
        "storage.checkpoint_s": selfs[CHECKPOINT],
        "storage.bytes_scan_s": selfs[BYTES_SCAN],
        "gossip.rounds": calls[GOSSIP_ROUND],
        "gossip.round_s": selfs[GOSSIP_ROUND],
        "gossip.converge_s": selfs[GOSSIP_CONVERGE],
        "aggregator.global_view_calls": calls[GLOBAL_VIEW],
        "aggregator.global_view_s": selfs[GLOBAL_VIEW],
        "query.calls": queries,
        "query.cache_hit_ratio": reader.cache_hits / max(lookups, 1),
        "query.fold_s": fold_s,
        "httpd.requests": sum(measured.http_status.values()),
        "httpd.non_2xx": non_2xx,
        "httpd.overhead_ms": 1e3 * sum(overheads) / max(len(overheads), 1),
        "simulation.run_s": run_s,
        "simulation.self_s": selfs[RUN],
        "tracing.accounted_share": accounted,
    }
