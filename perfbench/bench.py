"""One workload's rounds, their checks, and the metrics they yield.

A round builds a fresh cluster (``ClusterSimulation``, a ``ClusterReader``
over it and an HTTP server on that reader), feeds it every generated batch
through ``ClusterSimulation.run``, and after each batch issues the batch's
reads from one client in a closed loop: all of them in process, then the
same reads over HTTP.  Outputs are checked after each batch, outside the
timed regions, against the exact counts of the generated stream.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import quote

from repro.cluster import ClusterReader, ClusterSimulation
from repro.cluster.httpd import serve_http

from tracer import Tracer, layer_metrics, write_spans
from workloads import TOP_K, WORKLOADS, Batch, make_inputs

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"

#: Measured rounds in a run, however short ``--seconds`` is ...
MIN_ROUNDS = 4
#: ... and reads (in process, and again over HTTP): ten samples must lie
#: beyond the rounds' p99s.
MIN_READS = 1000

#: Query ids start here so they never collide with batch ids in tags.
QUERY_TAG_BASE = 1 << 20


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    ``BENCHMARK.json`` declares them."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)[kind]}


class Tally:
    """Operations attempted and failed; every failure is reported."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    events: int = 0
    run_s: float = 0.0
    read_s: list[float] = field(default_factory=list)
    http_s: list[float] = field(default_factory=list)
    # The median of each batch's burst of reads, and of HTTP requests.
    read_p50_s: list[float] = field(default_factory=list)
    http_p50_s: list[float] = field(default_factory=list)
    state_bits_per_key: float = 0.0
    storage_bytes_per_event: float = 0.0
    http_status: Counter[int | None] = field(default_factory=Counter)
    layers: dict[str, float] | None = None

    @property
    def ingest_events_per_s(self) -> float:
        return self.events / self.run_s


def _strict_json(body: bytes) -> Any:
    def reject(constant: str) -> Any:
        raise ValueError(f"non-finite JSON number {constant}")

    return json.loads(body, parse_constant=reject)


def _directory_bytes(path: pathlib.Path) -> int:
    return sum(
        (pathlib.Path(parent) / name).stat().st_size
        for parent, _, names in os.walk(path)
        for name in names
    )


def _percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Bench:
    """One workload's rounds, run in this process."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        self.batches = make_inputs(self.workload, seed)
        # The inputs live as long as the run: keep the collector from
        # rescanning them inside the program's measured work.
        gc.collect()
        gc.freeze()
        self.tally = Tally()
        self.rounds = 0
        self.first_state_bits: float | None = None

    def round(self, tracer: Tracer | None = None, fence: bool = False) -> Round:
        """Set up a fresh cluster, feed every batch, read, check.

        ``fence`` measures the durable bytes after the checks.
        """
        workload = self.workload
        self.rounds += 1
        # The last round's garbage is the benchmark's, not this round's
        # work; collecting it here also starts every round from the same
        # collector state.
        gc.collect()
        store_dir = None
        if workload.file_store:
            store_dir = OUT / f"store-{os.getpid()}-{self.rounds}"
        config = workload.config(None if store_dir is None else str(store_dir))
        started = time.perf_counter()
        simulation = ClusterSimulation(config)
        reader = ClusterReader.from_simulation(simulation)
        server = serve_http(reader)
        measured = Round(setup_s=time.perf_counter() - started)
        try:
            if tracer is not None:
                tracer.instrument(simulation, reader)
            http_tags: list[int] = []
            for index, batch in enumerate(self.batches):
                self._batch(
                    index, batch, simulation, reader, server.port,
                    measured, tracer, http_tags,
                )
            measured.state_bits_per_key = sum(
                node.state_bits() for node in simulation.nodes
            ) / len(self.batches[-1].truth)
            if self.first_state_bits is None:
                self.first_state_bits = measured.state_bits_per_key
            self.tally.check(
                measured.state_bits_per_key == self.first_state_bits,
                f"round {self.rounds}: {measured.state_bits_per_key} "
                f"state bits per key, the first round "
                f"{self.first_state_bits} on the same seed and stream",
            )
            if fence:
                # Checkpoint every node first, so the figure does not
                # depend on where the stream ends relative to the
                # checkpoint cadence: what is left is the durable state
                # a clean shutdown keeps.
                for node in simulation.nodes:
                    simulation.checkpoint_node(node.node_id)
                stored = (
                    _directory_bytes(store_dir)
                    if store_dir is not None
                    else simulation.store.storage_bytes()
                )
                measured.storage_bytes_per_event = stored / measured.events
            if tracer is not None:
                measured.layers = layer_metrics(
                    tracer, simulation, reader, measured, http_tags,
                    self.tally,
                )
        finally:
            server.close()
            simulation.close()
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
        return measured

    def _batch(
        self,
        index: int,
        batch: Batch,
        simulation: ClusterSimulation,
        reader: ClusterReader,
        port: int,
        measured: Round,
        tracer: Tracer | None,
        http_tags: list[int],
    ) -> None:
        perf = time.perf_counter
        tally = self.tally
        if tracer is not None:
            tracer.tag = index
        started = perf()
        result = simulation.run(batch.events)
        measured.run_s += perf() - started
        measured.events += len(batch.events)
        tally.attempted += 1

        answers = []
        first_read = len(measured.read_s)
        query = QUERY_TAG_BASE + index * 2 * len(batch.reads)
        for key in batch.reads:
            if tracer is not None:
                tracer.tag = query
            query += 1
            started = perf()
            answer = (
                reader.top_k(TOP_K) if key is None else reader.get(key)
            )
            measured.read_s.append(perf() - started)
            answers.append(answer)
        measured.read_p50_s.append(
            _percentile(measured.read_s[first_read:], 0.50)
        )

        responses = []
        first_request = len(measured.http_s)
        for key in batch.reads:
            path = (
                f"/v1/topk?k={TOP_K}"
                if key is None
                else "/v1/keys/" + quote(key, safe="")
            )
            if tracer is not None:
                tracer.tag = query
            # One connection per request, as a client without keep-alive
            # makes them: on a reused connection the server's separate
            # header and body writes meet the client's delayed ACK.
            started = perf()
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=60
            )
            try:
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException) as exc:
                measured.http_status[None] += 1
                responses.append((key, None, repr(exc).encode()))
            else:
                measured.http_s.append(perf() - started)
                http_tags.append(query)
                measured.http_status[response.status] += 1
                responses.append((key, response.status, body))
            query += 1
        if len(measured.http_s) > first_request:
            measured.http_p50_s.append(
                _percentile(measured.http_s[first_request:], 0.50)
            )

        # Everything below checks outputs; none of it is timed.
        checker = ClusterReader.from_simulation(simulation)
        view = checker.raw_view("consistent")
        estimates = {
            key: counter.estimate() for key, counter in view.counters.items()
        }
        where = f"round {self.rounds} batch {index}"
        truth = batch.truth
        tally.check(
            result.total_events == sum(truth.values()),
            f"{where}: run() reports {result.total_events} increments, "
            f"the stream holds {sum(truth.values())}",
        )
        tally.check(
            estimates.keys() == truth.keys(),
            f"{where}: the consistent view holds {len(estimates)} keys, "
            f"the stream {len(truth)}",
        )
        rms = math.sqrt(
            statistics.fmean(
                ((estimates.get(key, 0.0) - count) / count) ** 2
                for key, count in truth.items()
            )
        )
        tally.check(
            rms <= self.workload.rms_ceiling,
            f"{where}: rms relative error {rms:.4f} exceeds "
            f"{self.workload.rms_ceiling}",
        )
        if simulation.gossip is not None:
            replica = checker.raw_view("replica")
            tally.check(
                {k: c.estimate() for k, c in replica.counters.items()}
                == estimates,
                f"{where}: replica read differs from the consistent read",
            )
        top = [[key, estimate] for key, estimate in view.top_keys(TOP_K)]
        for key, answer in zip(batch.reads, answers):
            if key is None:
                got = [[e.key, e.estimate] for e in answer.entries]
                tally.check(got == top, f"{where}: top_k {got} != {top}")
            else:
                tally.check(
                    answer.estimate == estimates[key],
                    f"{where}: get({key!r}) = {answer.estimate}, "
                    f"consistent view {estimates[key]}",
                )
        for key, status, body in responses:
            if not tally.check(
                status == 200, f"{where}: HTTP status {status} {body[:200]!r}"
            ):
                continue
            try:
                payload = _strict_json(body)
            except ValueError as exc:
                tally.check(False, f"{where}: invalid JSON body: {exc}")
                continue
            if key is None:
                got = [[e["key"], e["estimate"]] for e in payload["entries"]]
                tally.check(got == top, f"{where}: HTTP top_k {got} != {top}")
            else:
                tally.check(
                    payload["key"] == key
                    and payload["estimate"] == estimates[key],
                    f"{where}: HTTP get({key!r}) answered {payload}",
                )


def report(
    tally: Tally, metrics: dict[str, float], units: dict[str, str]
) -> None:
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"measured {sorted(metrics)}, declared {sorted(units)}"
        )
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def _fast_decile(values: list[float]) -> float:
    """The lower decile of per-round or per-burst times.

    A shared two-core cloud host can run for seconds at a time at one of
    two speeds, about 1.5x apart, and ``durable-serve`` reads run at one
    of two speeds (15 or 25 us a ``get``) from one ``run()`` to the next.
    A median, or a percentile pooled over a run, lands in whichever state
    held more than half of the run, so it flips between the two from run
    to run; the lower decile stays with the faster state as long as a
    tenth of the rounds or bursts fall in it.
    """
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def _measured_rounds(bench: Bench, seconds: float) -> list[Round]:
    """Rounds until ``seconds`` pass: a round starts only if half of it
    fits, so a run ends within half a round of its deadline."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while (
        len(rounds) < MIN_ROUNDS
        or sum(len(r.read_s) for r in rounds) < MIN_READS
        or time.perf_counter() + last / 2 < deadline
    ):
        started = time.perf_counter()
        rounds.append(bench.round())
        last = time.perf_counter() - started
    return rounds


def run_untraced(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics over the rounds that fit in ``seconds``.

    Every round does the same work, so each timing is taken per round (a
    p50 per burst of reads: a burst lasts milliseconds, a round seconds)
    and the run reports their lower decile (``_fast_decile``);
    set-up, a millisecond, is the median over rounds.
    """
    # The warm-up round's timings are discarded.  Sizes are exact at a
    # fixed seed (every round must end with the same state bits), so the
    # costly fence that measures stored bytes runs here, outside the
    # measured window.
    stored = bench.round(fence=True).storage_bytes_per_event
    rounds = _measured_rounds(bench, seconds)
    print(
        f"{bench.workload.name}: {len(rounds)} measured rounds, "
        f"{sum(len(r.read_s) for r in rounds)} reads, "
        f"{sum(len(r.http_s) for r in rounds)} HTTP requests"
    )
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ingest_events_per_s": rounds[0].events
        / _fast_decile([r.run_s for r in rounds]),
        "read_p50_ms": 1e3
        * _fast_decile([p50 for r in rounds for p50 in r.read_p50_s]),
        "read_p99_ms": 1e3
        * _fast_decile([_percentile(r.read_s, 0.99) for r in rounds]),
        "http_p50_ms": 1e3
        * _fast_decile([p50 for r in rounds for p50 in r.http_p50_s]),
        "http_p99_ms": 1e3
        * _fast_decile([_percentile(r.http_s, 0.99) for r in rounds]),
        "state_bits_per_key": rounds[-1].state_bits_per_key,
        "storage_bytes_per_event": stored,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def run_traced(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics: untraced and traced rounds alternate."""
    tracer = Tracer()
    bench.round()  # warm-up, discarded
    plain: list[Round] = []
    traced: list[Round] = []
    deadline = time.perf_counter() + seconds
    while (
        not plain or not traced or time.perf_counter() < deadline
    ):
        if len(traced) <= len(plain):
            tracer.reset()
            traced.append(bench.round(tracer))
        else:
            plain.append(bench.round())
    print(
        f"{bench.workload.name}: {len(traced)} traced and {len(plain)} "
        "untraced rounds"
    )
    OUT.mkdir(exist_ok=True)
    write_spans(OUT / f"{bench.workload.name}.spans.tsv", tracer)
    metrics = {
        name: statistics.fmean(r.layers[name] for r in traced)
        for name in traced[0].layers
    }
    metrics["tracing.ingest_slowdown"] = statistics.median(
        r.ingest_events_per_s for r in plain
    ) / statistics.median(r.ingest_events_per_s for r in traced)
    return metrics
