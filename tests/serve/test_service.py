"""Concurrency contracts of the serving core.

The claims under test are exactly the ones the design makes:

* **Snapshot isolation** — a reader holding a published snapshot gets
  bit-identical answers at that version no matter how many appends and
  publishes land concurrently.
* **Appends never block queries** — with the writer thread artificially
  wedged mid-append, queries keep answering from the current snapshot.
* **Atomic publish** — readers only ever observe complete versions, and
  versions are monotone per observer.
* **Tenant lifecycle** — LRU eviction checkpoints to the durable
  directory and a later touch re-opens O(delta) with *zero* shard
  compiles (the checkpointed sidecars are adopted, not rebuilt).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import (
    EngineError,
    ServeError,
    TenantExistsError,
    TenantNotFoundError,
    TenantOverloadedError,
)
from repro.serve import TenantManager

ATTRIBUTES = ["sector", "trend", "volume"]


def rows(count: int, start: int = 0) -> list[list[str]]:
    return [
        [f"s{(start + i) % 3}", f"t{(start + i) % 4}", f"v{(start + i) % 5}"]
        for i in range(count)
    ]


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


@pytest.fixture()
def manager(tmp_path):
    with TenantManager(tmp_path / "serve") as m:
        yield m


def reference_answers(engine) -> dict:
    """Every query layer's answer, for bit-identical comparison."""
    attrs = sorted(engine.attributes)
    return {
        "similarity": {
            (a, b): engine.similarity(a, b)
            for i, a in enumerate(attrs)
            for b in attrs[i + 1 :]
        },
        "clusters": engine.clusters(t=2),
        "dominators": engine.dominators(algorithm="set-cover"),
        "classify": engine.classify({"sector": "s0"}),
    }


# ------------------------------------------------------------------ basics
def test_create_append_query_roundtrip(manager):
    stats = manager.create_tenant("market", ATTRIBUTES)
    assert stats.version == 1 and stats.num_rows == 0 and stats.resident
    appended = manager.append("market", rows(60))
    assert appended == 60
    assert wait_until(lambda: manager.snapshot("market").num_rows == 60)
    value, snapshot = manager.query("market", "similarity", first="sector", second="trend")
    assert 0.0 <= value <= 1.0
    assert snapshot.num_rows == 60 and snapshot.version >= 2


def test_append_accepts_mapping_rows(manager):
    manager.create_tenant("m", ATTRIBUTES)
    appended = manager.append(
        "m", [{"sector": "s1", "trend": "t1", "volume": "v1"}]
    )
    assert appended == 1
    assert wait_until(lambda: manager.snapshot("m").num_rows == 1)


def test_dataset_id_validation(manager):
    for bad in ("", ".hidden", "a/b", "x" * 200, 7):
        with pytest.raises(ServeError):
            manager.create_tenant(bad, ATTRIBUTES)
    with pytest.raises(TenantNotFoundError):
        manager.snapshot("never-created")
    manager.create_tenant("dup", ATTRIBUTES)
    with pytest.raises(TenantExistsError):
        manager.create_tenant("dup", ATTRIBUTES)


def test_max_tenants_must_be_positive(tmp_path):
    with pytest.raises(ServeError):
        TenantManager(tmp_path, max_tenants=0)


def test_closed_manager_refuses(tmp_path):
    manager = TenantManager(tmp_path / "serve")
    manager.create_tenant("m", ATTRIBUTES)
    manager.close()
    manager.close()  # idempotent
    with pytest.raises(ServeError):
        manager.snapshot("m")


# ------------------------------------------------------------------ isolation
def test_snapshot_isolation_bit_identical_under_appends(manager):
    manager.create_tenant("iso", ATTRIBUTES)
    manager.append("iso", rows(80))
    assert wait_until(lambda: manager.snapshot("iso").num_rows == 80)

    held = manager.snapshot("iso")
    baseline = reference_answers(held.engine)
    for batch in range(6):
        manager.append("iso", rows(15, start=80 + batch * 15))
        # The held snapshot must stay bit-identical at its version even
        # as newer versions are published underneath it.
        assert reference_answers(held.engine) == baseline
    assert wait_until(lambda: manager.snapshot("iso").num_rows == 170)
    latest = manager.snapshot("iso")
    assert latest.version > held.version
    assert latest.num_rows == 170 and held.num_rows == 80
    assert reference_answers(held.engine) == baseline


def test_query_never_blocks_on_a_wedged_writer(manager):
    manager.create_tenant("wedge", ATTRIBUTES)
    manager.append("wedge", rows(40))
    assert wait_until(lambda: manager.snapshot("wedge").num_rows == 40)
    tenant = manager._resolve("wedge")
    held_version = tenant.snapshot.version

    release = threading.Event()
    original = tenant._durable.append_rows

    def wedged(batch):
        release.wait(timeout=30.0)
        return original(batch)

    tenant._durable.append_rows = wedged
    writer = threading.Thread(
        target=manager.append, args=("wedge", rows(10, start=40)), daemon=True
    )
    writer.start()
    try:
        # With the writer wedged mid-append, every query must still answer
        # promptly from the published snapshot at the old version.
        started = time.monotonic()
        for _ in range(25):
            value, snapshot = manager.query(
                "wedge", "similarity", first="sector", second="trend"
            )
            assert snapshot.version == held_version
        assert time.monotonic() - started < 10.0
    finally:
        release.set()
        writer.join(timeout=30.0)
    assert not writer.is_alive()
    tenant._durable.append_rows = original
    assert wait_until(lambda: manager.snapshot("wedge").num_rows == 50)
    assert manager.snapshot("wedge").version > held_version


def test_publish_is_an_atomic_swap_with_monotone_versions(manager):
    manager.create_tenant("atomic", ATTRIBUTES)
    manager.append("atomic", rows(30))
    assert wait_until(lambda: manager.snapshot("atomic").num_rows == 30)

    stop = threading.Event()
    failures: list[str] = []

    def reader() -> None:
        last_version = 0
        while not stop.is_set():
            snapshot = manager.snapshot("atomic")
            # A torn publish would show a version/num_rows pair that never
            # existed; versions must also be monotone per observer.
            if snapshot.version < last_version:
                failures.append(
                    f"version went backwards: {last_version} -> {snapshot.version}"
                )
            if snapshot.engine.num_observations != snapshot.num_rows:
                failures.append("snapshot fields disagree with its engine")
            last_version = snapshot.version

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
    for thread in threads:
        thread.start()
    for batch in range(8):
        manager.append("atomic", rows(10, start=30 + batch * 10))
    assert wait_until(lambda: manager.snapshot("atomic").num_rows == 110)
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert failures == []
    tenant = manager._resolve("atomic")
    assert tenant.publishes == manager.snapshot("atomic").version


def test_published_reader_engines_never_compile_shards(manager):
    manager.create_tenant("zero", ATTRIBUTES)
    manager.append("zero", rows(50))
    assert wait_until(lambda: manager.snapshot("zero").num_rows == 50)
    engine = manager.snapshot("zero").engine
    reference_answers(engine)  # exercise every query layer
    counters = engine.counters
    assert counters.shard_compiles == 0
    assert counters.full_compiles == 0


# ------------------------------------------------------------------ lifecycle
def test_lru_eviction_checkpoints_and_reopens_with_zero_compiles(tmp_path):
    with TenantManager(tmp_path / "serve", max_tenants=2) as manager:
        manager.create_tenant("t1", ATTRIBUTES)
        manager.append("t1", rows(40))
        assert wait_until(lambda: manager.snapshot("t1").num_rows == 40)
        baseline = manager.similarity("t1", "sector", "volume")
        manager.create_tenant("t2", ATTRIBUTES)
        manager.create_tenant("t3", ATTRIBUTES)  # evicts t1 (the LRU)
        assert manager.resident() == ("t2", "t3")
        assert manager.stats().evictions == 1
        assert set(manager.known_datasets()) == {"t1", "t2", "t3"}
        offline = manager.tenant_stats("t1")
        assert not offline.resident and offline.num_rows == -1

        # Touching t1 re-opens it from its checkpoint, evicting t2.
        snapshot = manager.snapshot("t1")
        assert snapshot.num_rows == 40
        assert manager.resident() == ("t3", "t1")
        assert manager.similarity("t1", "sector", "volume") == baseline
        live = manager._resolve("t1")._durable.engine
        assert live.counters.shard_compiles == 0
        assert live.counters.full_compiles == 0


def test_explicit_evict_roundtrip(manager):
    manager.create_tenant("cold", ATTRIBUTES)
    manager.append("cold", rows(25))
    assert manager.evict("cold") is True
    assert manager.evict("cold") is False
    assert manager.resident() == ()
    # Appends after eviction lazily re-open and keep growing the dataset.
    manager.append("cold", rows(5, start=25))
    assert wait_until(lambda: manager.snapshot("cold").num_rows == 30)


def test_rejected_batch_surfaces_typed_error_and_mutates_nothing(manager):
    manager.create_tenant("strict", ATTRIBUTES)
    manager.append("strict", rows(20))
    assert wait_until(lambda: manager.snapshot("strict").num_rows == 20)
    version = manager.snapshot("strict").version
    with pytest.raises(EngineError):
        manager.append("strict", [["only-two", "values"]])
    assert manager.snapshot("strict").num_rows == 20
    assert manager.snapshot("strict").version == version
    # The tenant stays healthy for good batches afterwards.
    manager.append("strict", rows(5, start=20))
    assert wait_until(lambda: manager.snapshot("strict").num_rows == 25)


def test_publish_failure_keeps_the_writer_alive(manager):
    """A publish that raises must not kill the writer: the batch still
    acks, readers keep the previous snapshot, the error is reported in the
    tenant's stats, and the next applied batch retries the publish."""
    manager.create_tenant("flaky", ATTRIBUTES)
    manager.append("flaky", rows(10))
    assert wait_until(lambda: manager.snapshot("flaky").num_rows == 10)
    tenant = manager._resolve("flaky")
    build = tenant._build_snapshot
    calls = []

    def fail_once():
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("publish exploded")
        return build()

    tenant._build_snapshot = fail_once
    assert manager.append("flaky", rows(5, start=10)) == 5
    assert wait_until(lambda: manager.tenant_stats("flaky").publish_failures == 1)
    stats = manager.tenant_stats("flaky")
    assert stats.last_publish_error == "RuntimeError: publish exploded"
    assert manager.snapshot("flaky").num_rows == 10

    assert manager.append("flaky", rows(5, start=15), timeout=10.0) == 5
    assert wait_until(lambda: manager.snapshot("flaky").num_rows == 20)
    stats = manager.tenant_stats("flaky")
    assert stats.last_publish_error is None
    assert stats.publish_failures == 1


def test_unknown_query_operation(manager):
    manager.create_tenant("ops", ATTRIBUTES)
    with pytest.raises(ServeError):
        manager.query("ops", "drop_tables")


# ------------------------------------------------------- admission control
def test_overloaded_queue_sheds_appends_without_enqueueing(tmp_path):
    """With the writer wedged and the queue at ``max_queue_depth``, further
    appends raise :class:`TenantOverloadedError` at the door — nothing is
    enqueued, the shed counter moves, and draining the wedge restores
    service with exactly the admitted batches applied."""
    with TenantManager(tmp_path / "serve", max_queue_depth=2) as manager:
        manager.create_tenant("busy", ATTRIBUTES)
        manager.append("busy", rows(10))
        assert wait_until(lambda: manager.snapshot("busy").num_rows == 10)

        tenant = manager._resolve("busy")
        release = threading.Event()
        entered = threading.Event()
        original = tenant._durable.append_rows

        def wedged(batch):
            entered.set()
            release.wait(timeout=30.0)
            return original(batch)

        tenant._durable.append_rows = wedged
        writers = []

        def spawn(start: int) -> None:
            writer = threading.Thread(
                target=manager.append,
                args=("busy", rows(10, start=start)),
                daemon=True,
            )
            writer.start()
            writers.append(writer)

        try:
            # One batch wedges *inside* the writer thread (confirmed via the
            # event, so it no longer occupies a queue slot); two more then
            # fill the queue to its depth limit.
            spawn(10)
            assert entered.wait(timeout=10.0)
            spawn(20)
            spawn(30)
            assert wait_until(lambda: tenant.queue_depth >= 2)

            before = tenant.queue_depth
            with pytest.raises(TenantOverloadedError):
                manager.append("busy", rows(10, start=40), timeout=5.0)
            assert tenant.queue_depth == before  # nothing was enqueued
            assert manager.stats().appends_shed == 1
        finally:
            release.set()
            for writer in writers:
                writer.join(timeout=30.0)
        tenant._durable.append_rows = original
        # Exactly the three admitted batches landed, never the shed one.
        assert wait_until(lambda: manager.snapshot("busy").num_rows == 40)


def test_queue_depth_validation(tmp_path):
    with pytest.raises(ServeError):
        TenantManager(tmp_path / "serve", max_queue_depth=0)


def test_stats_report_in_flight_and_shed_counters(manager):
    manager.create_tenant("counted", ATTRIBUTES)
    manager.append("counted", rows(10))
    stats = manager.stats()
    assert stats.in_flight_queries == 0
    assert stats.appends_shed == 0
    manager.query("counted", "similarity", first="sector", second="trend")
    assert manager.stats().in_flight_queries == 0  # back to idle after
