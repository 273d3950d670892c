"""Per-layer metrics of a traced run, and the human-readable report.

Conventions: a ``*_ms`` or ``*_s`` per-layer metric is the mean duration
of that span per call, except the two ``serve.http`` ones, which are
medians over requests, and ``core.contingency_ms``, which is total busy
time; ``self.<layer>_ms`` is the layer's total self time (span time minus
its child spans) over the workload's primary window.  The serve,
storage, engine and hypergraph metrics come from the service process;
the ``core`` and ``data`` metrics come from the benchmark process, where
the in-process reference build and analysis run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Any

from hgbench import spans as sp
from hgbench.instrument import LAYERS, layer_of
from hgbench.stats import median

OPS = ("similarity", "neighbors", "classify", "clusters", "dominators")

#: The gated end-to-end metrics.  The workloads also measure
#: ``append_p50_ms``, ``append_p90_ms``, ``reopen_p50_ms``, ``build_s``,
#: ``engine_build_s`` and ``analysis_s``; they are printed as reported, not
#: gated (see METRICS.md for why).
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "read_max_rps": "1/s",
    "freshness_p50_ms": "ms",
    "freshness_p90_ms": "ms",
}

LAYER_UNITS: dict[str, str] = {
    "serve.http.request_ms": "ms",
    "serve.http.gap_ms": "ms",
    **{f"serve.query_ms.{op}": "ms" for op in OPS},
    "serve.append_ms": "ms",
    "serve.append_wait_ms": "ms",
    "serve.publishes_per_append": "ratio",
    "serve.evict_ms": "ms",
    "storage.append_rows_ms": "ms",
    "storage.wal_append_ms": "ms",
    "storage.wal_bytes_per_row": "B",
    "storage.fsyncs": "count",
    "storage.checkpoint_ms": "ms",
    "storage.open_ms": "ms",
    "engine.append_rows_ms": "ms",
    "engine.refresh_ms": "ms",
    "engine.index_ms": "ms",
    "engine.refreshed_heads_per_row": "ratio",
    "engine.shard_compiles_per_publish": "ratio",
    "engine.clone_ms": "ms",
    **{f"engine.query_ms.{op}": "ms" for op in OPS},
    "engine.cache_hit_rate": "ratio",
    "hypergraph.shard_compile_ms": "ms",
    "hypergraph.edges": "count",
    "hypergraph.applicable_edges_ms": "ms",
    "core.contingency_calls": "count",
    "core.contingency_ms": "ms",
    "core.similarity_graph_s": "s",
    "core.clusters_s": "s",
    "core.dominators_s": "s",
    "core.classify_s": "s",
    "data.discretize_s": "s",
    **{f"self.{layer}_ms": "ms" for layer in LAYERS},
    "self.client_ms": "ms",
    "trace.blocking_share": "ratio",
    **{f"overhead.{name}": unit for name, unit in END_TO_END_UNITS.items()},
}

class _Spans:
    """Spans of one process with parent lookups."""

    def __init__(self, spans: list[tuple], events: list[tuple]) -> None:
        self.spans = spans
        self.events = events
        self.by_id = {s[sp.SID]: s for s in spans}
        self.own = sp.self_times(spans)

    def named(self, name: str, window=None, top_level: bool = False,
              outside: tuple[str, ...] = ()) -> list[tuple]:
        chosen = [s for s in self.spans if s[sp.NAME] == name]
        if window is not None:
            chosen = sp.within(chosen, *window)
        if top_level:
            chosen = [s for s in chosen if not self._under(s, (name,))]
        if outside:
            chosen = [s for s in chosen if not self._under(s, outside)]
        return chosen

    def _under(self, span: tuple, prefixes: tuple[str, ...]) -> bool:
        parent = self.by_id.get(span[sp.PARENT])
        while parent is not None:
            if parent[sp.NAME].startswith(prefixes):
                return True
            parent = self.by_id.get(parent[sp.PARENT])
        return False

    def in_window(self, name: str, window) -> list[tuple]:
        return [e for e in self.events if e[0] == name
                and window[0] * 1e9 <= e[1] <= window[1] * 1e9]


def _ms(span: tuple) -> float:
    return (span[sp.END] - span[sp.START]) / 1e6


def _mean_ms(chosen: list[tuple]) -> float:
    return statistics.fmean(_ms(s) for s in chosen) if chosen else 0.0


def _total_ms(chosen: list[tuple]) -> float:
    return sum(_ms(s) for s in chosen)


def _deltas(events: list[tuple]) -> tuple[dict[Any, Any], dict[Any, int]]:
    """Per source id: ``(first payload, last payload)``, and the sample counts."""
    first, last, count = {}, {}, defaultdict(int)
    for _, _, (source, payload) in events:
        first.setdefault(source, payload)
        last[source] = payload
        count[source] += 1
    return {k: (first[k], last[k]) for k in last}, count


def layer_metrics(workload: str, untraced, traced, tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass, plus the tracing overhead."""
    local = _Spans(tracer.spans, tracer.events)
    server = _Spans(*sp.load(str(traced.server_spans_path)))
    primary = traced.windows["primary"]
    # Write-side spans: from the one-row appends to the end of the run.
    run = (traced.windows["ingest"][0], float("inf"))
    offline = traced.windows["offline"]
    m: dict[str, float] = {}

    # serve
    requests = {s[sp.RID]: s for s in server.named("serve.http.request", primary)
                if s[sp.RID] is not None}
    joined = [(o, requests[o.rid]) for o in traced.outcomes if o.rid in requests]
    m["serve.http.request_ms"] = median(_ms(s) for s in requests.values()) if requests else 0.0
    m["serve.http.gap_ms"] = (
        median(o.service * 1000.0 - _ms(s) for o, s in joined) if joined else 0.0)
    for op in OPS:
        m[f"serve.query_ms.{op}"] = _mean_ms(server.named(f"serve.query.{op}", primary))
    m["serve.append_ms"] = _mean_ms(server.named("serve.append", run))
    m["storage.append_rows_ms"] = _mean_ms(server.named("storage.append_rows", run))
    m["serve.append_wait_ms"] = (
        max(0.0, m["serve.append_ms"] - m["storage.append_rows_ms"])
        if m["serve.append_ms"] else 0.0)
    acked = traced.report.get("ingest_appends_acked", 0)
    m["serve.publishes_per_append"] = (
        traced.report.get("ingest_publishes", 0) / acked if acked else 0.0)
    m["serve.evict_ms"] = _mean_ms(server.named("serve.evict", run))

    # storage
    m["storage.wal_append_ms"] = _mean_ms(server.named("storage.wal_append", run))
    rows = len(server.named("storage.append_rows", run))
    wal_bytes = sum(e[2] for e in server.in_window("storage.wal_bytes", run))
    m["storage.wal_bytes_per_row"] = wal_bytes / rows if rows else 0.0
    syncs: dict[Any, int] = {}
    for _, _, (wal, count) in server.in_window("storage.syncs", (0.0, float("inf"))):
        syncs[wal] = max(syncs.get(wal, 0), count)
    m["storage.fsyncs"] = float(sum(syncs.values()))
    m["storage.checkpoint_ms"] = _mean_ms(server.named("storage.checkpoint", run))
    m["storage.open_ms"] = _mean_ms(server.named("storage.open", run))

    # engine
    readers = ("serve.query", "engine.query")
    m["engine.append_rows_ms"] = _mean_ms(server.named("engine.append_rows", run))
    m["engine.refresh_ms"] = _mean_ms(
        server.named("engine.refresh", run, top_level=True, outside=readers))
    m["engine.index_ms"] = _mean_ms(server.named("engine.index", run, outside=readers))
    pairs, samples = _deltas(server.in_window("engine.counters", run))
    heads = sum(last["refreshed_heads"] - (first["refreshed_heads"] if samples[k] > 1 else 0)
                for k, (first, last) in pairs.items())
    appended = sum(last["appended_rows"] - (first["appended_rows"] if samples[k] > 1 else 0)
                   for k, (first, last) in pairs.items())
    compiles = sum(last["shard_compiles"] - (first["shard_compiles"] if samples[k] > 1 else 0)
                   for k, (first, last) in pairs.items())
    publishes = sum(max(1, n - 1) for n in samples.values())
    m["engine.refreshed_heads_per_row"] = heads / appended if appended else 0.0
    m["engine.shard_compiles_per_publish"] = compiles / publishes if publishes else 0.0
    m["engine.clone_ms"] = (_mean_ms(server.named("engine.to_snapshot", run))
                            + _mean_ms(server.named("engine.from_snapshot", run)))
    for op in OPS:
        m[f"engine.query_ms.{op}"] = _mean_ms(
            server.named(f"engine.query.{op}", primary, top_level=True,
                         outside=("engine.query",)))
    cache, _ = _deltas(server.in_window("engine.cache", primary))
    hits = sum(last[0] - first[0] for first, last in cache.values())
    looked = hits + sum(last[1] - first[1] for first, last in cache.values())
    m["engine.cache_hit_rate"] = hits / looked if looked else 0.0

    # hypergraph
    m["hypergraph.shard_compile_ms"] = _mean_ms(server.named("hypergraph.shard_compile", run))
    m["hypergraph.edges"] = float(traced.edges)
    m["hypergraph.applicable_edges_ms"] = _mean_ms(
        server.named("hypergraph.applicable_edges", primary))

    # core and data: the offline pipeline runs in the benchmark process.
    contingency = local.named("core.contingency", offline)
    m["core.contingency_calls"] = float(len(contingency))
    m["core.contingency_ms"] = _total_ms(contingency)
    for metric, name in (("core.similarity_graph_s", "core.similarity_graph"),
                         ("core.clusters_s", "core.clusters"),
                         ("core.dominators_s", "core.dominators"),
                         ("core.classify_s", "core.classify"),
                         ("data.discretize_s", "data.discretize")):
        m[metric] = _mean_ms(local.named(name, offline)) / 1000.0

    # self time per layer over the primary window
    window_spans = sp.within(server.spans, *primary)
    for layer in LAYERS:
        m[f"self.{layer}_ms"] = sum(
            server.own[s[sp.SID]] for s in window_spans if layer_of(s[sp.NAME]) == layer
        ) / 1e6
    m["self.client_ms"] = sum(
        max(0.0, o.service * 1000.0 - _ms(s)) for o, s in joined
        if primary[0] <= o.due <= primary[1])

    m["trace.blocking_share"] = _blocking_share(workload, traced, joined)
    for name in END_TO_END_UNITS:
        m[f"overhead.{name}"] = traced.metrics[name] - untraced.metrics[name]
    return m


def _blocking_share(workload: str, traced, joined) -> float:
    """Share of the traced end-to-end median the blocking-step spans cover.

    The median request span over the median latency: of reads on
    serve_read, of appends on serve_ingest.
    """
    appends = workload == "serve_ingest"
    chosen = [(o, s) for o, s in joined
              if (o.op == "append") == appends and o.due <= traced.windows["primary"][1]]
    if not chosen:
        return 0.0
    latency = median(o.latency * 1000.0 for o, _ in chosen)
    return median(_ms(s) for _, s in chosen) / latency if latency else 0.0


def print_report(workload: str, results, metrics: dict[str, float],
                 units: dict[str, str]) -> None:
    """Human-readable lines before the final JSON line."""
    out = sys.stdout
    for label, result in zip(("untraced", "traced"), results):
        print(f"== {workload} ({label}) ==", file=out)
        print("accounting: " + json.dumps(result.accounting.as_dict()), file=out)
        if result.accounting.generator_behind:
            print("WARNING: the load generator, not the program, fell behind", file=out)
        for name, ok, detail in result.checks:
            print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=out)
        for name, value in sorted(result.metrics.items()):
            if name not in END_TO_END_UNITS:
                print(f"reported, not gated: {name} = {value:.4f}", file=out)
        print("details: " + json.dumps(result.report, default=str), file=out)
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {metrics[name]:>14.4f} {unit}", file=out)
    selfs = {k: v for k, v in metrics.items() if k.startswith("self.")}
    total = sum(selfs.values())
    if total:
        print(f"self time per layer ({workload}, primary window):", file=out)
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"  {name[5:-3]:<12} {value:>12.1f} ms  {100 * value / total:5.1f}%", file=out)
