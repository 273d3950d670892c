"""Persisted count-state checkpoints: O(delta) γ-recovery, exact parity.

The storage layer persists the engine's per-candidate contingency count
arrays (base archive at create/compact, dirty-head archives at every
delta checkpoint).  Recovery adopts them after WAL replay, so the first
refresh catches each candidate up incrementally instead of rebuilding it
from the row store.  The invariants:

* adopted-and-caught-up count arrays are **bit-identical** to those of a
  never-persisted twin (hypothesis-checked over random interleavings);
* a compacted-then-reopened engine performs **zero** count rebuilds;
* archives from an older value domain are discarded, not misapplied.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BuildConfig
from repro.engine import AssociationEngine
from repro.engine.counts import load_count_states
from repro.exceptions import EngineError, StorageCorruptionError
from repro.storage import DurableEngine, read_manifest

CONFIG = BuildConfig(
    name="count-state-test",
    k=2,
    gamma_edge=1.0,
    gamma_hyperedge=1.2,
    min_acv=0.4,
    include_hyperedges=True,
)

ATTRIBUTES = ("A", "B", "C", "D")
VALUES = (0, 1, 2)


def row_batches():
    return st.lists(
        st.lists(
            st.sampled_from(VALUES),
            min_size=len(ATTRIBUTES),
            max_size=len(ATTRIBUTES),
        ),
        min_size=1,
        max_size=4,
    )


def assert_counts_bit_identical(recovered: AssociationEngine, twin: AssociationEngine):
    """Refresh both engines and compare every exported count state exactly."""
    # Adoption is lazy; exporting forces any staged archive to materialize
    # (a refresh alone would skip it when nothing is dirty).
    recovered.export_count_states()
    recovered.refresh()
    twin.refresh()
    states = recovered.export_count_states()
    twin_states = twin.export_count_states()
    assert set(states) == set(twin_states)
    for key, (twin_counts, twin_upto) in twin_states.items():
        counts, upto = states[key]
        assert np.array_equal(counts, twin_counts), key
        assert upto == twin_upto, key


class TestRecoveredCountParity:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_recovered_counts_match_never_persisted_twin(self, data):
        ops = data.draw(
            st.lists(
                st.sampled_from(("append", "checkpoint", "compact", "reopen")),
                min_size=1,
                max_size=8,
            )
        )
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "store"
            durable = DurableEngine.create(
                directory, attributes=ATTRIBUTES, config=CONFIG, values=VALUES
            )
            twin = AssociationEngine(ATTRIBUTES, CONFIG, values=VALUES)
            try:
                for op in ops:
                    if op == "append":
                        batch = data.draw(row_batches())
                        durable.append_rows(batch)
                        twin.append_rows(batch)
                    elif op == "checkpoint":
                        durable.checkpoint()
                    elif op == "compact":
                        durable.compact()
                    else:
                        durable.close()
                        durable = DurableEngine.open(directory)
                durable.close()
                durable = DurableEngine.open(directory)
                assert_counts_bit_identical(durable.engine, twin)
                assert durable.stats() == twin.stats()
            finally:
                durable.close()


class TestRecoveryIsODelta:
    def seeded(self, tmp_path):
        durable = DurableEngine.create(
            tmp_path / "store", attributes=ATTRIBUTES, config=CONFIG, values=VALUES
        )
        durable.append_rows([[0, 1, 2, 0], [1, 1, 0, 2], [2, 0, 1, 1], [0, 0, 0, 0]])
        return durable

    def test_compacted_reopen_rebuilds_nothing(self, tmp_path):
        durable = self.seeded(tmp_path)
        durable.checkpoint()
        durable.compact()
        durable.close()
        recovered = DurableEngine.open(tmp_path / "store")
        # Adoption is lazy: the archive is staged at open and merged by
        # the first refresh that would otherwise rebuild from rows — a
        # session that never refreshes never reads it.
        assert recovered.counters.count_states_restored == 0
        recovered.refresh()
        assert recovered.counters.count_states_restored == 0
        # One appended row dirties the heads; the following refresh adopts
        # the staged states and increments them instead of rebuilding.
        recovered.append_rows([[1, 0, 2, 1]])
        recovered.refresh()
        assert recovered.counters.count_states_restored > 0
        counters = recovered.engine.counters
        assert counters.table_rebuilds == 0
        assert counters.table_increments > 0

    def test_wal_tail_recovery_increments_instead_of_rebuilding(self, tmp_path):
        durable = self.seeded(tmp_path)
        durable.checkpoint()
        durable.compact()
        durable.append_rows([[1, 2, 0, 1], [2, 2, 2, 2]])  # tail, never checkpointed
        durable.close()
        recovered = DurableEngine.open(tmp_path / "store")
        assert recovered.counters.recovered_rows == 2
        recovered.refresh()
        counters = recovered.engine.counters
        assert counters.table_rebuilds == 0
        assert counters.table_increments > 0

    def test_delta_checkpoint_persists_only_dirty_head_counts(self, tmp_path):
        durable = self.seeded(tmp_path)
        durable.checkpoint()
        durable.append_rows([[0, 1, 2, 1]])
        result = durable.checkpoint()
        if not result.dirty_heads:
            pytest.skip("append left every head signature unchanged")
        manifest = read_manifest(tmp_path / "store")
        entry = manifest.deltas[-1]
        assert entry.counts_file is not None
        archive = load_count_states(tmp_path / "store" / entry.counts_file)
        heads = {key[0] for key in archive.states}
        dirty = {ATTRIBUTES.index(h) for h in result.dirty_heads}
        assert heads == dirty
        durable.close()

    def test_domain_growth_in_tail_discards_stale_archives(self, tmp_path):
        durable = self.seeded(tmp_path)
        durable.checkpoint()
        durable.compact()
        # 7 is outside the initial domain: every stored code shifts, so
        # the persisted arrays describe a dead code space.
        durable.append_rows([[7, 0, 1, 2]])
        durable.close()
        twin = AssociationEngine(ATTRIBUTES, CONFIG, values=VALUES)
        twin.append_rows([[0, 1, 2, 0], [1, 1, 0, 2], [2, 0, 1, 1], [0, 0, 0, 0]])
        twin.append_rows([[7, 0, 1, 2]])
        recovered = DurableEngine.open(tmp_path / "store")
        assert_counts_bit_identical(recovered.engine, twin)
        # The stale archives were read but discarded, not misapplied.
        assert recovered.counters.count_states_restored == 0
        assert recovered.stats() == twin.stats()

    def test_corrupt_counts_archive_is_typed_error(self, tmp_path):
        durable = self.seeded(tmp_path)
        durable.checkpoint()
        durable.compact()
        durable.close()
        manifest = read_manifest(tmp_path / "store")
        counts_path = tmp_path / "store" / (manifest.base_file + ".counts.npz")
        data = bytearray(counts_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        counts_path.write_bytes(bytes(data))
        with pytest.raises(StorageCorruptionError):
            DurableEngine.open(tmp_path / "store")


class TestAdoptionValidation:
    def test_adopt_rejects_impossible_upto(self):
        engine = AssociationEngine(ATTRIBUTES, CONFIG, values=VALUES)
        engine.append_rows([[0, 1, 2, 0]])
        counts = np.zeros((len(VALUES), len(VALUES)), dtype=np.int64)
        with pytest.raises(EngineError, match="absorbed"):
            engine.adopt_count_states({(0, 1): (counts, 5)})

    def test_adopt_rejects_wrong_shape(self):
        engine = AssociationEngine(ATTRIBUTES, CONFIG, values=VALUES)
        engine.append_rows([[0, 1, 2, 0]])
        counts = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(EngineError, match="shape"):
            engine.adopt_count_states({(0, 1): (counts, 1)})

    def test_adopt_rejects_unknown_attribute_index(self):
        engine = AssociationEngine(ATTRIBUTES, CONFIG, values=VALUES)
        counts = np.zeros(len(VALUES), dtype=np.int64)
        with pytest.raises(EngineError, match="outside"):
            engine.adopt_count_states({(9,): (counts, 0)})
