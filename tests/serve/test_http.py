"""End-to-end tests of the stdlib JSON transport.

A real :class:`~repro.serve.http.ServeHTTPServer` on an ephemeral port,
exercised with ``http.client`` — the full create / append / query /
evict lifecycle, every query operation, the operational endpoints, and
one test per distinct error-envelope path (malformed body, missing
tenant, duplicate create, invalid rows, corrupted durable state).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import obs
from repro.serve import TenantManager
from repro.serve.http import create_server

ATTRIBUTES = ["sector", "trend", "volume"]


def rows(count: int, start: int = 0) -> list[list[str]]:
    return [
        [f"s{(start + i) % 3}", f"t{(start + i) % 4}", f"v{(start + i) % 5}"]
        for i in range(count)
    ]


class Client:
    """A minimal JSON client over ``http.client``."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(self, method: str, path: str, body=None):
        import http.client

        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            content_type = response.getheader("Content-Type", "")
            if content_type.startswith("application/json"):
                return response.status, json.loads(raw)
            return response.status, raw.decode("utf-8")
        finally:
            connection.close()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body)

    def delete(self, path):
        return self.request("DELETE", path)


@pytest.fixture()
def served(tmp_path):
    registry = obs.enable()
    manager = TenantManager(tmp_path / "serve", max_tenants=4)
    server = create_server(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield Client(host, port), manager
    finally:
        server.shutdown()
        server.server_close()
        manager.close()
        thread.join(timeout=10)
        obs.disable()
    assert registry is not None


def wait_for_rows(client: Client, dataset: str, expected: int) -> None:
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        status, body = client.get(f"/v1/tenants/{dataset}")
        if status == 200 and body["num_rows"] == expected:
            return
        time.sleep(0.01)
    raise AssertionError(f"{dataset} never reached {expected} rows")


# ------------------------------------------------------------------ lifecycle
def test_full_lifecycle_over_http(served):
    client, _manager = served
    status, body = client.post(
        "/v1/tenants", {"dataset_id": "market", "attributes": ATTRIBUTES}
    )
    assert status == 201 and body["dataset_id"] == "market" and body["resident"]

    status, body = client.post("/v1/tenants/market/append", {"rows": rows(60)})
    assert status == 200 and body["appended"] == 60
    wait_for_rows(client, "market", 60)

    status, body = client.get("/v1/tenants")
    assert status == 200 and body["datasets"] == ["market"]

    status, body = client.post(
        "/v1/tenants/market/query/similarity",
        {"first": "sector", "second": "trend"},
    )
    assert status == 200
    assert body["dataset_id"] == "market" and body["num_rows"] == 60
    assert 0.0 <= body["similarity"] <= 1.0

    status, body = client.post(
        "/v1/tenants/market/query/neighbors", {"attribute": "sector"}
    )
    assert status == 200 and isinstance(body["neighbors"], list)

    status, body = client.post("/v1/tenants/market/query/clusters", {"t": 2})
    assert status == 200 and len(body["centers"]) <= 2 and body["clusters"]

    status, body = client.post(
        "/v1/tenants/market/query/dominators", {"algorithm": "greedy"}
    )
    assert status == 200 and body["algorithm"] == "greedy"
    assert 0.0 <= body["coverage"] <= 1.0

    status, body = client.post(
        "/v1/tenants/market/query/classify", {"evidence": {"sector": "s0"}}
    )
    assert status == 200 and set(body["predictions"]) == {"trend", "volume"}

    status, body = client.delete("/v1/tenants/market")
    assert status == 200 and body == {"dataset_id": "market", "evicted": True}
    status, body = client.get("/v1/tenants/market")
    assert status == 200 and body["resident"] is False
    # Queries after eviction transparently re-open from the checkpoint.
    status, body = client.post(
        "/v1/tenants/market/query/similarity",
        {"first": "sector", "second": "trend"},
    )
    assert status == 200 and body["num_rows"] == 60


def test_operational_endpoints(served):
    client, _manager = served
    client.post("/v1/tenants", {"dataset_id": "ops", "attributes": ATTRIBUTES})
    client.post("/v1/tenants/ops/append", {"rows": rows(10)})
    wait_for_rows(client, "ops", 10)

    status, body = client.get("/health")
    assert status == 200
    assert body["status"] == "ok" and body["resident_tenants"] == 1

    status, body = client.get("/stats")
    assert status == 200
    assert body["tenants"]["ops"]["num_rows"] == 10
    assert body["max_tenants"] == 4

    status, text = client.get("/metrics")
    assert status == 200 and isinstance(text, str)
    assert "serve_publish" in text and "serve_tenants" in text


# ------------------------------------------------------------------ envelopes
def test_error_envelopes_over_http(served):
    client, manager = served

    status, body = client.post("/v1/tenants", {"attributes": ATTRIBUTES})
    assert (status, body["error"]["code"]) == (400, "bad_request")
    assert "dataset_id" in body["error"]["message"]

    status, body = client.post(
        "/v1/tenants/ghost/query/similarity", {"first": "a", "second": "b"}
    )
    assert (status, body["error"]["code"]) == (404, "tenant_not_found")

    client.post("/v1/tenants", {"dataset_id": "dup", "attributes": ATTRIBUTES})
    status, body = client.post(
        "/v1/tenants", {"dataset_id": "dup", "attributes": ATTRIBUTES}
    )
    assert (status, body["error"]["code"]) == (409, "tenant_exists")

    status, body = client.post("/v1/tenants/dup/append", {"rows": [["one"]]})
    assert (status, body["error"]["code"]) == (422, "invalid_rows")

    status, body = client.post(
        "/v1/tenants/dup/query/dominators", {"algorithm": "magic"}
    )
    assert (status, body["error"]["code"]) == (400, "bad_request")

    status, body = client.post("/v1/tenants/dup/query/teleport", {})
    assert (status, body["error"]["code"]) == (400, "bad_request")

    status, body = client.post("/nowhere", {})
    assert (status, body["error"]["code"]) == (400, "bad_request")

    connection_body = b"{not json"
    import http.client

    connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
    connection.request(
        "POST",
        "/v1/tenants/dup/append",
        body=connection_body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    body = json.loads(response.read())
    connection.close()
    assert (response.status, body["error"]["code"]) == (400, "bad_request")


def test_health_degrades_while_a_publish_fails(served):
    client, manager = served
    client.post("/v1/tenants", {"dataset_id": "ops", "attributes": ATTRIBUTES})
    client.post("/v1/tenants/ops/append", {"rows": rows(10)})
    wait_for_rows(client, "ops", 10)
    tenant = manager._resolve("ops")
    build = tenant._build_snapshot

    def failing():
        raise RuntimeError("no space left")

    tenant._build_snapshot = failing
    status, _ = client.post("/v1/tenants/ops/append", {"rows": rows(2, start=10)})
    assert status == 200
    deadline = time.monotonic() + 10
    while manager.tenant_stats("ops").last_publish_error is None:
        assert time.monotonic() < deadline, "the publish never failed"
        time.sleep(0.01)
    status, body = client.get("/health")
    assert status == 503
    assert body["status"] == "degraded" and body["degraded_tenants"] == ["ops"]
    status, body = client.get("/v1/tenants/ops")
    assert body["publish_failures"] >= 1
    assert body["last_publish_error"] == "RuntimeError: no space left"

    tenant._build_snapshot = build
    client.post("/v1/tenants/ops/append", {"rows": rows(1, start=12)})
    wait_for_rows(client, "ops", 13)
    status, body = client.get("/health")
    assert status == 200 and body["status"] == "ok"
    assert body["degraded_tenants"] == []


def test_corrupted_tenant_maps_to_storage_corruption(served):
    client, manager = served
    client.post("/v1/tenants", {"dataset_id": "bad", "attributes": ATTRIBUTES})
    client.post("/v1/tenants/bad/append", {"rows": rows(10)})
    wait_for_rows(client, "bad", 10)
    client.delete("/v1/tenants/bad")  # checkpoint + close

    manifest = manager.root / "bad" / "MANIFEST.json"
    manifest.write_text("{ this is not a manifest")

    status, body = client.post(
        "/v1/tenants/bad/query/similarity", {"first": "sector", "second": "trend"}
    )
    assert status == 500
    assert body["error"]["code"] == "storage_corruption"
    assert body["error"]["detail"] == {"type": "StorageCorruptionError"}


def test_overload_maps_to_503_with_typed_envelope(tmp_path):
    """A full append queue answers 503 ``overloaded`` at the transport, and
    ``/stats`` exposes the shed counter and the in-flight gauge."""
    registry = obs.enable()
    manager = TenantManager(tmp_path / "serve", max_queue_depth=1)
    server = create_server(manager, port=0)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    host, port = server.server_address[:2]
    client = Client(host, port)
    try:
        client.post("/v1/tenants", {"dataset_id": "jam", "attributes": ATTRIBUTES})
        client.post("/v1/tenants/jam/append", {"rows": rows(10)})
        wait_for_rows(client, "jam", 10)

        tenant = manager._resolve("jam")
        release = threading.Event()
        entered = threading.Event()
        original = tenant._durable.append_rows

        def wedged(batch):
            entered.set()
            release.wait(timeout=30.0)
            return original(batch)

        tenant._durable.append_rows = wedged
        writers = [
            threading.Thread(
                target=client.post,
                args=("/v1/tenants/jam/append", {"rows": rows(10, start=10 * b)}),
                daemon=True,
            )
            for b in (1, 2)
        ]
        # The first batch wedges inside the writer (confirmed via the
        # event, freeing its queue slot); the second fills the queue.
        writers[0].start()
        assert entered.wait(timeout=10.0)
        writers[1].start()
        deadline = time.monotonic() + 10
        while tenant.queue_depth < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert tenant.queue_depth >= 1

        status, body = client.post(
            "/v1/tenants/jam/append", {"rows": rows(10, start=30)}
        )
        assert status == 503
        assert body["error"]["code"] == "overloaded"
        assert body["error"]["detail"] == {"type": "TenantOverloadedError"}

        release.set()
        for writer in writers:
            writer.join(timeout=30.0)
        tenant._durable.append_rows = original

        status, stats = client.get("/stats")
        assert status == 200
        assert stats["appends_shed"] >= 1
        assert stats["in_flight_queries"] == 0
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        manager.close()
        server_thread.join(timeout=10)
        obs.disable()
    assert registry is not None
