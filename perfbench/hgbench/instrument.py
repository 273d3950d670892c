"""Which public functions of the program a traced run wraps, by layer.

Span names start with the layer they time: ``serve``, ``storage``,
``engine``, ``hypergraph``, ``core`` or ``data`` (the program's modules
on a measured path).  The client side of a request is the load
generator's own record of it, joined to the server's request span by
request id.  Importing this module patches nothing; :func:`install`
does, and only in the process that calls it.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler

from hgbench.loadgen import REQUEST_ID_HEADER
from hgbench.spans import Tracer

LAYERS = ("serve", "storage", "engine", "hypergraph", "core", "data")

#: Size of a WAL frame header: magic (2) + type (1) + crc32 (4) + length (4).
WAL_FRAME_HEADER = 11


def layer_of(name: str) -> str | None:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None


def _install_http(tracer: Tracer) -> None:
    """Span each request from its parsed request line to its response.

    ``handle_one_request`` first blocks reading the next request line of
    a keep-alive connection; that idle wait is not request time, so the
    span starts when ``parse_request`` begins.
    """
    parse_request = BaseHTTPRequestHandler.parse_request
    handle_one_request = BaseHTTPRequestHandler.handle_one_request
    local = threading.local()
    ids, stack_of = tracer._ids, tracer._stack

    def traced_parse_request(self):
        local.start = time.monotonic_ns()
        return parse_request(self)

    def traced_handle_one_request(self):
        local.start = None
        stack = stack_of()
        sid = next(ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        try:
            return handle_one_request(self)
        finally:
            end = time.monotonic_ns()
            stack.pop()
            if local.start is not None:
                headers = getattr(self, "headers", None)
                rid = headers.get(REQUEST_ID_HEADER) if headers is not None else None
                tracer.spans.append(
                    (sid, parent, "serve.http.request", local.start, end,
                     threading.get_ident(), int(rid) if rid else None)
                )

    BaseHTTPRequestHandler.parse_request = traced_parse_request
    BaseHTTPRequestHandler.handle_one_request = traced_handle_one_request


def install(tracer: Tracer) -> None:
    """Wrap every measured public function of the program with spans."""
    import repro.core.builder as builder
    import repro.core.classifier as classifier
    import repro.core.clustering as clustering
    import repro.core.dominators as dominators
    import repro.core.similarity_graph as similarity_graph
    import repro.data.discretization as discretization
    import repro.engine  # noqa: F401  (binds the names patched below)
    import repro.experiments.cli  # noqa: F401
    import repro.serve.http  # noqa: F401
    from repro.engine.engine import AssociationEngine
    from repro.hypergraph.shards import IndexShard, ShardedHypergraphIndex
    from repro.serve.service import TenantManager
    from repro.storage.durable import DurableEngine
    from repro.storage.wal import WriteAheadLog

    _install_http(tracer)

    # serve
    def after_query(args, kwargs, result):
        stats = result[1].engine.cache_stats
        tracer.event("engine.cache", [id(result[1].engine), [stats.hits, stats.misses]])

    tracer.patch_method(
        TenantManager, "query", lambda a, k: f"serve.query.{a[2]}", after_query
    )
    tracer.patch_method(TenantManager, "append", "serve.append")
    tracer.patch_method(TenantManager, "evict", "serve.evict")

    # storage
    def after_wal_append(args, kwargs, result):
        tracer.event("storage.wal_bytes", len(args[2]) + WAL_FRAME_HEADER)

    def after_sync_point(args, kwargs, result):
        try:
            wal = args[0].wal
        except Exception:  # closed engines may refuse; the last sample stands
            return
        tracer.event("storage.syncs", [id(wal), wal.syncs])

    tracer.patch_method(DurableEngine, "append_rows", "storage.append_rows")
    tracer.patch_method(DurableEngine, "checkpoint", "storage.checkpoint", after_sync_point)
    tracer.patch_method(DurableEngine, "open", "storage.open")
    tracer.patch_method(WriteAheadLog, "append", "storage.wal_append", after_wal_append)
    tracer.patch_method(WriteAheadLog, "sync", "storage.wal_sync")

    # engine
    def after_to_snapshot(args, kwargs, result):
        tracer.event("engine.counters", [id(args[0]), args[0].counters.as_dict()])

    tracer.patch_method(AssociationEngine, "append_rows", "engine.append_rows")
    tracer.patch_method(AssociationEngine, "refresh", "engine.refresh")
    tracer.patch_method(AssociationEngine, "index", "engine.index")
    tracer.patch_method(AssociationEngine, "to_snapshot", "engine.to_snapshot", after_to_snapshot)
    tracer.patch_method(AssociationEngine, "from_snapshot", "engine.from_snapshot")
    for op in ("similarity", "neighbors", "clusters", "dominators", "classify"):
        tracer.patch_method(AssociationEngine, op, f"engine.query.{op}")

    # hypergraph
    tracer.patch_method(IndexShard, "compile", "hypergraph.shard_compile")
    tracer.patch_method(
        ShardedHypergraphIndex, "applicable_edges", "hypergraph.applicable_edges"
    )

    # core
    tracer.patch_function(builder, "contingency_from_codes", "core.contingency")
    tracer.patch_function(
        similarity_graph, "build_similarity_graph", "core.similarity_graph"
    )
    tracer.patch_function(clustering, "cluster_attributes", "core.clusters")
    tracer.patch_function(dominators, "dominator_set_cover", "core.dominators")
    tracer.patch_method(
        classifier.AssociationBasedClassifier, "evaluate", "core.classify"
    )

    # data
    tracer.patch_function(discretization, "discretize_panel", "data.discretize")
