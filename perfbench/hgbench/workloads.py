"""The two workloads: ``serve_read`` and ``serve_ingest``.

Every workload reports every end-to-end metric (see ``perfbench/METRICS.md``
for how each one is measured on each workload) and runs its own
correctness checks; a failed check makes the run incorrect.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from hgbench import corpus
from hgbench.loadgen import Accounting, Client, Outcome, call_once, run_open_loop
from hgbench.schedule import (
    Arrival, build_schedule, draw_ops, poisson_times, spaced_poisson_times,
)
from hgbench.server import Server
from hgbench.spans import Tracer
from hgbench.stats import limit_crossing, median, percentile_report

#: A rung of the read ladder passes when its (supported) p99 stays under
#: this limit and its last request finished no later than this after the
#: rung's end.
READ_P99_LIMIT_MS = 150.0
#: Both workloads' gated read latency comes from reads at this rate.
READ_FIXED_RPS = 16.0
#: The ladder starts above the fixed rate, which the fixed-rate reads cover.
LADDER_START_RPS = 2 * READ_FIXED_RPS
#: The read ladder (see :func:`read_ladder`) climbs by this factor, a step
#: no wider than ``read_max_rps``'s bound, until this many rungs failed.
LADDER_STEP = 1.1
LADDER_FAILURES = 2
LADDER_RUNG_S = 1.5
LADDER_MAX_RUNGS = 40
LADDER_REST_S = 1.0
#: Seconds between the reads that wait for a tenant's rows to publish;
#: faster polling steals the interpreter lock from the service's writer.
POLL_S = 0.02
DATASET = "bench"
#: The market is fixed per workload, so every seed sees the same model
#: size; ``--seed`` draws the request streams, samples and probes.
MARKET_SEED = 7


@dataclass
class Result:
    """What one pass of a workload measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    accounting: Accounting = field(default_factory=Accounting)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    report: dict[str, Any] = field(default_factory=dict)
    #: Monotonic-seconds windows of the measured phases.
    windows: dict[str, tuple[float, float]] = field(default_factory=dict)
    outcomes: list[Outcome] = field(default_factory=list)
    server_spans_path: Path | None = None
    edges: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    tracer: Tracer | None = None
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 5


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _latency_metrics(prefix: str, outcomes: list[Outcome], qs: dict[str, float],
                     result: Result) -> None:
    samples = [_ms(o.latency) for o in outcomes]
    for name, q in qs.items():
        report = percentile_report(samples, q)
        result.metrics[f"{prefix}_{name}_ms"] = report["value"]
        result.report[f"{prefix}_{name}_ms"] = report


# ----------------------------------------------------------------- offline
def offline_pipeline(market: corpus.Market, result: Result):
    """Discretize, batch build, engine build and analyse one market, once.

    This is the in-process reference the service's answers are checked
    against; its steps are also where a traced run times the ``core`` and
    ``data`` layers.  Sets ``build_s``, ``engine_build_s`` and
    ``analysis_s`` (reported, not gated), checks engine/batch parity and
    returns the engine.
    """
    from repro.core import (
        CONFIG_C1,
        AssociationBasedClassifier,
        build_association_hypergraph,
        build_similarity_graph,
        cluster_attributes,
        dominator_set_cover,
    )
    from repro.engine import AssociationEngine

    begin = time.monotonic()
    # Each timed step starts from a full collection, so the collector's
    # pauses inside it depend only on that step's own allocations.
    gc.collect()
    start = time.perf_counter()
    market.discretize()
    train, test = market.seed_database(), market.extra_database()
    hypergraph = build_association_hypergraph(train, CONFIG_C1)
    result.metrics["build_s"] = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    engine = AssociationEngine.from_database(train, CONFIG_C1)
    index = engine.index
    result.metrics["engine_build_s"] = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    graph = build_similarity_graph(index)
    cluster_attributes(graph, max(1, round(math.sqrt(len(market.attributes)))))
    dominator_set_cover(index)
    evidence = market.attributes[: len(market.attributes) // 2]
    AssociationBasedClassifier(hypergraph, index=index).evaluate(test, evidence)
    result.metrics["analysis_s"] = time.perf_counter() - start
    result.windows["offline"] = (begin, time.monotonic())

    batch = {edge.key(): edge.weight for edge in hypergraph.edges()}
    incremental = {edge.key(): edge.weight for edge in engine.hypergraph.edges()}
    result.check("engine_equals_batch_build", batch == incremental,
                 f"{len(incremental)} engine edges vs {len(batch)} batch edges")
    result.edges = len(batch)
    return engine


# ----------------------------------------------------------------- serve helpers
@dataclass(frozen=True)
class ServeShape:
    scale: float
    seed_rows: int
    extra_rows: int


def _market(shape: ServeShape) -> corpus.Market:
    market = corpus.Market(shape.scale, shape.seed_rows, shape.extra_rows, MARKET_SEED)
    market.generate()
    market.discretize()
    return market


def _seed_tenant(port: int, market: corpus.Market, dataset: str) -> None:
    """Create a tenant, append its seed rows and wait until a read sees them."""
    call_once(port, "POST", "/v1/tenants", {
        "dataset_id": dataset, "attributes": market.attributes, "values": market.values,
    })
    call_once(port, "POST", f"/v1/tenants/{dataset}/append",
              {"rows": market.rows[: market.seed_rows]})
    _wait_rows(port, market.seed_rows, dataset)


def _tenant(port: int, dataset: str = DATASET) -> dict:
    return call_once(port, "GET", f"/v1/tenants/{dataset}")


def _wait_rows(port: int, rows: int, dataset: str = DATASET, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _tenant(port, dataset).get("num_rows", -1) >= rows:
            return
        time.sleep(POLL_S)
    raise RuntimeError(f"tenant {dataset!r} never published {rows} rows")


def serve_setup(ctx: Context, shape: ServeShape, result: Result):
    """Build the inputs, then set the service up ``ctx.setup_repeats`` times.

    Each set-up starts a fresh service process, creates the tenant, seeds
    it, and waits until a read sees the seed rows; ``setup_s`` is the
    median.  The last service stays up for the measured phases.
    """
    market = _market(shape)
    times, server = [], None
    for attempt in range(ctx.setup_repeats):
        last = attempt == ctx.setup_repeats - 1
        traced = last and ctx.tracer is not None
        name = f"service-{attempt}"
        start = time.perf_counter()
        server = Server(ctx.workdir / name,
                        spans_out=ctx.workdir / f"{name}.spans.json" if traced else None)
        try:
            server.wait_ready()
            _seed_tenant(server.port, market, DATASET)
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - start)
        if not last:
            server.stop()
    result.metrics["setup_s"] = median(times)
    result.report["setup_s_samples"] = times
    return market, server


def _read_stream(requests: corpus.Requests, mix: dict, rate: float, duration: float,
                 rng: random.Random, min_gap: float = 0.0) -> list[Arrival]:
    times = (spaced_poisson_times(rate, min_gap, duration, rng) if min_gap
             else poisson_times(rate, duration, rng))
    ops = draw_ops(mix, len(times), rng)
    return build_schedule(times, ops, requests.request, rng)


def fixed_reads(server: Server, requests: corpus.Requests, mix: dict[str, float],
                seconds: float, rng: random.Random, result: Result) -> list[Outcome]:
    """Poisson reads at ``READ_FIXED_RPS`` on two connections: ``read_p50/p99_ms``."""
    schedule = _read_stream(requests, mix, READ_FIXED_RPS, seconds, rng)
    t0, outcomes = run_open_loop(server.port, [(schedule, 2)])
    result.windows["reads"] = (t0, t0 + seconds)
    result.accounting.add(outcomes)
    result.outcomes.extend(outcomes)
    _latency_metrics("read", outcomes, {"p50": 0.5, "p99": 0.99}, result)
    return outcomes


def read_ladder(server: Server, requests: corpus.Requests, mix: dict[str, float],
                rng: random.Random, result: Result) -> list[Outcome]:
    """``read_max_rps``: the highest offered rate that meets the limit.

    Each rung offers ``LADDER_RUNG_S`` seconds of Poisson reads of ``mix``
    on two connections, starting from an idle service.  A rung's load is
    the larger of its supported p99 and the lateness of its last answer (a
    growing backlog), over ``READ_P99_LIMIT_MS``; it passes at a load of
    at most 1.  The offered rate starts at ``LADDER_START_RPS`` and
    doubles until a rung fails.  From the last passing rung it then grows
    by ``LADDER_STEP`` until ``LADDER_FAILURES`` rungs have failed.  The
    metric is the rate where a monotone fit of these rungs' loads reaches
    1 (:func:`~hgbench.stats.limit_crossing`), so it moves with the
    program rather than by whole rungs, and one noisy rung neither ends
    the climb nor sets the answer.
    """
    table, every, climbed = [], [], []
    rate, passed = LADDER_START_RPS, None
    for _ in range(LADDER_MAX_RUNGS):
        schedule = _read_stream(requests, mix, rate, LADDER_RUNG_S, rng)
        t0, outcomes = run_open_loop(server.port, [(schedule, 2)])
        result.accounting.add(outcomes)
        every += outcomes
        p99 = percentile_report([_ms(o.latency) for o in outcomes], 0.99)
        backlog_ms = _ms(max(o.end for o in outcomes) - t0 - LADDER_RUNG_S)
        load = max(p99["value"], backlog_ms) / READ_P99_LIMIT_MS
        table.append({"offered_rps": rate, "p99_ms": p99, "backlog_ms": backlog_ms,
                      "load": load})
        if climbed:  # climbing by LADDER_STEP
            climbed.append((rate, load))
            if sum(point[1] > 1.0 for point in climbed) == LADDER_FAILURES:
                break
            rate *= LADDER_STEP
        elif load <= 1.0:  # doubling
            passed, rate = (rate, load), rate * 2
        else:
            # The rung after an overloaded one ran slower now and then
            # while this benchmark was tuned; a rest lets the service settle.
            # When the first rung failed, the climb starts from it, so one
            # noisy rung does not end the ladder.
            time.sleep(LADDER_REST_S)
            climbed = [passed or (rate, load)]
            rate = climbed[0][0] * LADDER_STEP
    result.report["read_ladder"] = table
    # Doubling rungs that all pass leave the last one as the answer.
    result.metrics["read_max_rps"] = limit_crossing(climbed) if climbed else passed[0]
    return every


def _check_answers(engine, outcomes: list[Outcome], result: Result, label: str,
                   rows: int, sample: int, rng: random.Random) -> None:
    """A seeded sample of successful answers equals the in-process engine's."""
    answered = [o for o in outcomes if o.ok and o.op in corpus.READ_MIX
                and o.body.get("num_rows") == rows]
    chosen = rng.sample(answered, min(sample, len(answered)))
    wrong = [o.rid for o in chosen
             if corpus.served_answer(o.op, o.body) != corpus.engine_answer(engine, o.op, o.request)]
    result.check(f"{label}_answers_equal_engine", bool(chosen) and not wrong,
                 f"{len(chosen)} sampled, {len(wrong)} differ")


def _probe_answers(port: int, probes: list[tuple[str, dict]]) -> list[Any]:
    answers = []
    for op, body in probes:
        served = call_once(port, "POST", f"/v1/tenants/{DATASET}/query/{op}", body)
        answers.append((served["num_rows"], corpus.served_answer(op, served)))
    return answers


def reopen_phase(server: Server, probes: list[tuple[str, dict]], cycles: int,
                 result: Result) -> None:
    """Evict the tenant, then time the query that re-opens it."""
    before = _probe_answers(server.port, probes)
    times, same = [], True
    for _ in range(cycles):
        call_once(server.port, "DELETE", f"/v1/tenants/{DATASET}")
        op, body = probes[0]
        start = time.perf_counter()
        status, code, _ = Client(server.port, close_each=True).call(
            "POST", f"/v1/tenants/{DATASET}/query/{op}", body)
        times.append(_ms(time.perf_counter() - start))
        result.accounting.add_result(code is None, code)
        same = same and _probe_answers(server.port, probes) == before
    result.metrics["reopen_p50_ms"] = median(times)
    result.report["reopen_ms_samples"] = times
    result.check("answers_after_reopen_equal_before", same, f"{cycles} cycles")


# ----------------------------------------------------------------- ingest phase
INGEST_SHAPE = ServeShape(scale=0.25, seed_rows=2400, extra_rows=400)
INGEST_APPEND_RPS = 1.9
INGEST_APPEND_MIN_GAP_S = 0.3
#: The reads beside the appends are the freshness probe: at 12/s with a
#: 50 ms dead time one lands every ~83 ms, the metric's resolution.  At
#: 6/s the per-run freshness median moved by up to ±20% between runs.
INGEST_READ_RPS = 12.0
INGEST_READ_MIN_GAP_S = 0.05


def ingest_phase(server: Server, market: corpus.Market, dataset: str, seconds: float,
                 rng: random.Random, result: Result) -> list[Outcome]:
    """One-day appends on one connection, point reads beside them on another.

    Both streams are Poisson with a dead time.  An append gap longer than
    a publish lets each append find the writer idle (under plain Poisson
    arrivals the append median sat on the edge between waiting and not
    waiting for a publish and swung tenfold between runs), and a read gap
    longer than the 40 ms delayed-ACK window keeps the transport stall
    (serve_read's subject) out of the reads.  Reads run one second past
    the last append, so its row is seen.

    Sets ``append_*`` and ``freshness_*``; freshness runs from an append's
    due time to the first read whose snapshot holds that row, so its
    resolution is the read interval, which the report states.  Checks that
    the tenant's ``num_rows`` equals its seed rows plus the acknowledged
    appends.
    """
    requests = corpus.Requests(dataset, market.attributes, market.values)
    due = spaced_poisson_times(INGEST_APPEND_RPS, INGEST_APPEND_MIN_GAP_S, seconds, rng)
    rows = market.rows[market.seed_rows:]
    if len(due) > len(rows):
        raise RuntimeError("not enough extra rows for the append schedule")
    appends = [Arrival(t, "append", "POST", f"/v1/tenants/{dataset}/append",
                       {"rows": [rows[i]]}) for i, t in enumerate(due)]
    reads = _read_stream(requests, corpus.POINT_READ_MIX, INGEST_READ_RPS, seconds + 1.0,
                         rng, min_gap=INGEST_READ_MIN_GAP_S)
    before = _tenant(server.port, dataset)
    t0, outcomes = run_open_loop(server.port, [(appends, 1), (reads, 1)])
    result.windows["ingest"] = (t0, t0 + seconds)
    result.accounting.add(outcomes)
    appended = [o for o in outcomes if o.op == "append"]
    acked = [o for o in appended if o.ok]
    total = market.seed_rows + len(acked)
    _wait_rows(server.port, total, dataset)
    after = _tenant(server.port, dataset)
    result.check(f"{dataset}_num_rows_equals_acknowledged", after["num_rows"] == total,
                 f"{total} rows expected, {after['num_rows']} served")
    _latency_metrics("append", appended, {"p50": 0.5, "p90": 0.9}, result)

    read_done = sorted((o.end, o.body["num_rows"]) for o in outcomes
                       if o.op != "append" and o.ok)
    freshness, cursor = [], 0
    for k, outcome in enumerate(sorted(acked, key=lambda o: o.end)):
        needed = market.seed_rows + k + 1
        while cursor < len(read_done) and (read_done[cursor][1] < needed
                                           or read_done[cursor][0] < outcome.due):
            cursor += 1
        freshness.append(_ms(read_done[cursor][0] - outcome.due)
                         if cursor < len(read_done) else math.inf)
    freshness += [math.inf] * (len(appended) - len(acked))
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        report = percentile_report(freshness, q)
        result.metrics[f"freshness_{name}_ms"] = report["value"]
        result.report[f"freshness_{name}_ms"] = report
    reads_out = [o for o in outcomes if o.op != "append"]
    span = max(o.due for o in reads_out) - min(o.due for o in reads_out)
    result.report["freshness_resolution_ms"] = _ms(span / max(1, len(reads_out) - 1))
    result.report["ingest_publishes"] = after["publishes"] - before["publishes"]
    result.report["ingest_appends_acked"] = len(acked)
    # Reads beside the appends ride on the writer's share of the
    # interpreter lock, which put their median on the edge between two
    # modes and swung it twofold between runs: reported, not gated.
    _latency_metrics("read_beside_appends", reads_out, {"p50": 0.5, "p99": 0.99}, result)
    result.outcomes.extend(outcomes)
    return outcomes


def server_spans(server: Server) -> Path | None:
    path = server.spans_out
    return path if path is not None and path.exists() else None


# ----------------------------------------------------------------- serve_read
READ_SHAPE = ServeShape(scale=0.5, seed_rows=2400, extra_rows=60)
#: The tenant serve_read's appends go to, beside the resident read tenant.
FRESH_DATASET = "fresh"


def serve_read(ctx: Context) -> Result:
    result = Result()
    rng = random.Random(ctx.seed)
    market, server = serve_setup(ctx, READ_SHAPE, result)
    try:
        engine = offline_pipeline(market, result)
        requests = corpus.Requests(DATASET, market.attributes, market.values)
        # Warm-up: every neighbors key fills the similarity cache, and the
        # graph-wide clusters and dominators answers are computed once.
        for attribute in market.attributes:
            call_once(server.port, "POST", requests.path("neighbors"),
                      {"attribute": attribute, "limit": corpus.NEIGHBOR_LIMIT})
        for op in ("clusters", "dominators"):
            call_once(server.port, "POST", requests.path(op), requests.body(op, rng))
        outcomes = fixed_reads(server, requests, corpus.READ_MIX, ctx.seconds / 2, rng, result)
        result.windows["primary"] = result.windows["reads"]
        outcomes += read_ladder(server, requests, corpus.READ_MIX, rng, result)
        _check_answers(engine, outcomes, result, "read", market.seed_rows, 300, rng)

        # A publish of the read tenant takes over a second, so enough
        # one-day appends to support a p90 would outlast the run.  The
        # appends go to a second tenant of serve_ingest's shape in the same
        # service instead, once the reads have stopped.
        fresh = _market(INGEST_SHAPE)
        _seed_tenant(server.port, fresh, FRESH_DATASET)
        ingest_phase(server, fresh, FRESH_DATASET, ctx.seconds * 3 / 4, rng, result)

        probes = [("similarity", requests.body("similarity", rng)),
                  ("classify", requests.body("classify", rng))]
        reopen_phase(server, probes, 2, result)
    finally:
        server.stop()
    result.metrics["peak_rss_mb"] = server.peak_rss_mb
    result.server_spans_path = server_spans(server)
    return result


# ----------------------------------------------------------------- serve_ingest
#: Seconds of the gated fixed-rate point reads, on the ingested tenant
#: once the appends stop.
INGEST_FIXED_READ_S = 8.0


def serve_ingest(ctx: Context) -> Result:
    result = Result()
    rng = random.Random(ctx.seed)
    market, server = serve_setup(ctx, INGEST_SHAPE, result)
    try:
        engine = offline_pipeline(market, result)
        requests = corpus.Requests(DATASET, market.attributes, market.values)
        ingest_phase(server, market, DATASET, ctx.seconds, rng, result)
        result.windows["primary"] = result.windows["ingest"]
        fixed_reads(server, requests, corpus.INGEST_READ_MIX, INGEST_FIXED_READ_S, rng, result)
        read_ladder(server, requests, corpus.INGEST_READ_MIX, rng, result)

        total = market.seed_rows + result.report["ingest_appends_acked"]
        _check_final_answers(server, engine, market, total, result)
        probes = [("similarity", requests.body("similarity", rng)),
                  ("classify", requests.body("classify", rng)),
                  ("clusters", {})]
        reopen_phase(server, probes, 3, result)
    finally:
        server.stop()
    result.metrics["peak_rss_mb"] = server.peak_rss_mb
    result.server_spans_path = server_spans(server)
    return result


def _check_final_answers(server: Server, engine, market: corpus.Market, rows: int,
                         result: Result) -> None:
    """Every attribute pair, and each classify target, equals an engine on the same rows.

    ``engine`` is the reference build of the seed rows; the acknowledged
    rows are appended to it first.
    """
    engine.append_rows(market.rows[market.seed_rows:rows])
    attributes, wrong, total = market.attributes, 0, 0
    checks = [("similarity", {"first": a, "second": b})
              for i, a in enumerate(attributes) for b in attributes[i + 1:]]
    checks += [("classify", {"evidence": {attributes[0]: market.values[0]}, "targets": [t]})
               for t in attributes[1:]]
    checks += [("clusters", {}), ("dominators", {"algorithm": "set-cover"})]
    for op, body in checks:
        served = call_once(server.port, "POST", f"/v1/tenants/{DATASET}/query/{op}", body)
        total += 1
        wrong += served["num_rows"] != rows or (
            corpus.served_answer(op, served) != corpus.engine_answer(engine, op, body))
    result.check("final_answers_equal_engine", wrong == 0, f"{total} answers, {wrong} differ")


WORKLOADS: dict[str, Callable[[Context], Result]] = {
    "serve_read": serve_read,
    "serve_ingest": serve_ingest,
}
