"""Count-state oracle: every maintained contingency table, recomputed afresh.

The engine keeps one count array per γ-significance candidate and only
ever *adds* new rows to it.  This suite recomputes every candidate's
table directly from the row store with
:func:`~repro.core.builder.contingency_from_codes` and requires the
maintained arrays — and the per-candidate group-max sums the ACVs are
read from — to match exactly, across the situations that move a count
array off its steady path:

* append blocks of 1, 8, 9, 1,024, 1,025 and 2,400 rows;
* value-domain growth mid-stream (every code moves);
* ``adopt_count_states`` mid-stream, with equal and with mixed ``upto``;
* ``max_tail_candidates`` pool churn (the pair candidate set changes);
* pair pools too small to hold a pair (two attributes, or a cap of one).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import AssociationHypergraphBuilder
from repro.core.config import BuildConfig
from repro.data.database import Database
from repro.engine import AssociationEngine
from tests.engine.count_oracle import (
    candidate_counts,
    expected_candidates,
    group_max_sum,
)

CONFIG = BuildConfig(
    name="oracle",
    k=3,
    gamma_edge=1.0,
    gamma_hyperedge=1.05,
    include_hyperedges=True,
)
ATTRIBUTES = ("A", "B", "C", "D", "E")
BLOCK_SIZES = (1, 8, 9, 1024, 1025, 2400)


def random_rows(
    num_rows: int, seed: int, values=(0, 1, 2), attributes=ATTRIBUTES
) -> list[list[int]]:
    """Correlated rows: each column copies a common column half the time."""
    rng = np.random.default_rng(seed)
    values = np.asarray(values)
    common = rng.integers(0, len(values), size=num_rows)
    columns = []
    for _ in attributes:
        noise = rng.integers(0, len(values), size=num_rows)
        columns.append(
            values[np.where(rng.random(num_rows) < 0.5, common, noise)].tolist()
        )
    return [list(row) for row in zip(*columns)]


def engine_max_sums(engine: AssociationEngine) -> dict[tuple[int, ...], int]:
    """The group-max sums the engine's ACVs are computed from."""
    index = {a: i for i, a in enumerate(engine.attributes)}
    sums: dict[tuple[int, ...], int] = {}
    for (head, _arity), block in engine._blocks.items():
        for tails, max_sum in zip(block.groups, block.max_sums):
            sums[(index[head],) + tuple(index[t] for t in tails)] = max_sum
    return sums


def assert_matches_oracle(engine: AssociationEngine) -> None:
    """Refresh, then check every exported state and max sum afresh."""
    engine.refresh()
    n = engine.num_observations
    exported = engine.export_count_states()
    for key, (counts, upto) in exported.items():
        assert np.array_equal(counts, candidate_counts(engine, key, upto)), key
    current = {key for key, (_, upto) in exported.items() if upto == n}
    expected = expected_candidates(engine)
    assert not expected - current, f"not current: {sorted(expected - current)}"
    max_sums = engine_max_sums(engine)
    for key in expected:
        assert max_sums[key] == group_max_sum(candidate_counts(engine, key, n)), key


def copied_states(engine: AssociationEngine):
    return {
        key: (counts.copy(), upto)
        for key, (counts, upto) in engine.export_count_states().items()
    }


class TestAppendBlocks:
    def test_every_block_size_matches_the_oracle(self):
        engine = AssociationEngine(ATTRIBUTES, CONFIG, values=(0, 1, 2))
        for seed, size in enumerate(BLOCK_SIZES):
            engine.append_rows(random_rows(size, seed))
            assert_matches_oracle(engine)

    def test_refresh_after_many_unrefreshed_blocks(self):
        engine = AssociationEngine(ATTRIBUTES, CONFIG, values=(0, 1, 2))
        engine.append_rows(random_rows(9, 0))
        assert_matches_oracle(engine)
        for seed, size in enumerate((1, 8, 1024), start=1):
            engine.append_rows(random_rows(size, seed))
        assert_matches_oracle(engine)

    def test_single_row_appends_count_as_increments(self):
        engine = AssociationEngine(ATTRIBUTES, CONFIG, values=(0, 1, 2))
        engine.append_rows(random_rows(50, 1))
        engine.refresh()
        built = engine.counters.table_rebuilds
        for seed in range(3):
            engine.append_rows(random_rows(1, 10 + seed))
            assert_matches_oracle(engine)
        assert engine.counters.table_rebuilds == built
        assert engine.counters.table_increments == 3 * built


class TestDomainGrowth:
    def test_new_value_mid_stream_rebuilds_exactly(self):
        engine = AssociationEngine(ATTRIBUTES, CONFIG, values=(0, 1))
        engine.append_rows(random_rows(40, 3, values=(0, 1)))
        assert_matches_oracle(engine)
        engine.append_rows(random_rows(9, 4, values=(0, 1, 2)))
        assert engine._store.cardinality == 3
        assert_matches_oracle(engine)
        engine.append_rows(random_rows(1, 5, values=(0, 1, 2)))
        assert_matches_oracle(engine)

    def test_growth_between_unrefreshed_appends(self):
        engine = AssociationEngine(ATTRIBUTES, CONFIG)
        engine.append_rows(random_rows(30, 6, values=(0, 1)))
        assert_matches_oracle(engine)
        engine.append_rows(random_rows(5, 7, values=(0, 1)))
        engine.append_rows(random_rows(5, 8, values=(0, 1, 2, 3)))
        assert_matches_oracle(engine)


class TestAdoptionMidStream:
    @staticmethod
    def twins(rows):
        engines = []
        for _ in range(2):
            engine = AssociationEngine(ATTRIBUTES, CONFIG, values=(0, 1, 2))
            engine.append_rows(rows)
            engines.append(engine)
        return engines

    def test_equal_upto_states_are_caught_up(self):
        rows = random_rows(60, 11)
        source, target = self.twins(rows)
        source.refresh()
        target.append_rows(random_rows(20, 12))
        assert_matches_oracle(target)
        states = copied_states(source)
        # Adopted states lag the store by 21 rows after the next append:
        # the refresh must count exactly those rows on top of them.
        target.adopt_count_states(states)
        target.append_rows(random_rows(1, 18))
        target.counters.reset()
        assert_matches_oracle(target)
        assert target.counters.table_rebuilds == 0
        assert target.counters.table_increments == len(states)

    def test_mixed_upto_states_still_match(self):
        rows = random_rows(60, 13)
        source, target = self.twins(rows)
        source.refresh()
        early = copied_states(source)
        later_rows = random_rows(8, 14)
        source.append_rows(later_rows)
        source.refresh()
        late = copied_states(source)
        # Every other state from the later export: each head's candidates
        # now disagree on how many rows they absorbed.
        mixed = {
            key: (late if i % 2 else early)[key] for i, key in enumerate(sorted(early))
        }
        assert {upto for _, upto in mixed.values()} == {60, 68}
        target.append_rows(later_rows)
        target.append_rows(random_rows(9, 15))
        target.adopt_count_states(mixed)
        assert_matches_oracle(target)

    def test_partial_adoption_into_a_current_engine(self):
        rows = random_rows(40, 16)
        source, target = self.twins(rows)
        source.refresh()
        assert_matches_oracle(target)
        one_key = next(key for key in copied_states(source) if len(key) == 3)
        target.adopt_count_states({one_key: copied_states(source)[one_key]})
        target.append_rows(random_rows(3, 17))
        assert_matches_oracle(target)


class TestPoolChurn:
    def test_changing_pair_pool_matches_the_oracle(self):
        config = CONFIG.with_overrides(max_tail_candidates=2)
        engine = AssociationEngine(ATTRIBUTES, config, values=(0, 1, 2))
        pools = set()
        rng = np.random.default_rng(21)
        for step in range(12):
            engine.append_rows(random_rows(int(rng.integers(1, 30)), 100 + step))
            assert_matches_oracle(engine)
            pools.add(
                frozenset(k for k in expected_candidates(engine) if len(k) == 3)
            )
        assert len(pools) > 1, "the pair pool never changed; pick another seed"

    def test_pool_change_recounts_only_entering_pairs(self):
        config = CONFIG.with_overrides(max_tail_candidates=3)
        engine = AssociationEngine(ATTRIBUTES, config, values=(0, 1, 2))
        engine.append_rows(random_rows(40, 200))
        assert_matches_oracle(engine)
        rng = np.random.default_rng(22)
        churned = 0
        for step in range(12):
            before = set(engine.export_count_states())
            engine.append_rows(random_rows(int(rng.integers(1, 30)), 201 + step))
            engine.counters.reset()
            assert_matches_oracle(engine)
            after = set(engine.export_count_states())
            entering = after - before
            churned += bool(entering)
            # Surviving pairs keep their counted rows: only the entering
            # ones are recounted from row 0.
            assert engine.counters.table_rebuilds == len(entering)
            assert engine.counters.table_increments == len(after) - len(entering)
        assert churned, "the pair pool never changed; pick another seed"


class TestPoolsWithoutPairs:
    @pytest.mark.parametrize(
        "attributes, cap", [(("A", "B"), None), (ATTRIBUTES, 1)], ids=["two", "cap1"]
    )
    def test_refresh_and_query(self, attributes, cap):
        config = CONFIG.with_overrides(max_tail_candidates=cap)
        engine = AssociationEngine(attributes, config, values=(0, 1, 2))
        rows: list[list[int]] = []
        for seed, size in enumerate((50, 1, 9)):
            block = random_rows(size, 300 + seed, attributes=attributes)
            engine.append_rows(block)
            rows.extend(block)
            assert_matches_oracle(engine)
        assert all(len(key) <= 2 for key in engine.export_count_states())
        builder = AssociationHypergraphBuilder(config)
        builder.build(Database(attributes, rows, values=(0, 1, 2)))
        assert engine.stats() == builder.last_stats
        assert engine.stats().hyperedges_2to1 == 0


@pytest.mark.parametrize("include_hyperedges", [False, True])
def test_export_round_trips_through_a_fresh_engine(include_hyperedges):
    config = CONFIG.with_overrides(include_hyperedges=include_hyperedges)
    rows = random_rows(200, 31)
    live = AssociationEngine(ATTRIBUTES, config, values=(0, 1, 2))
    live.append_rows(rows)
    live.refresh()
    restored = AssociationEngine(ATTRIBUTES, config, values=(0, 1, 2))
    restored.append_rows(rows)
    restored.adopt_count_states(copied_states(live))
    assert_matches_oracle(restored)
    assert restored.counters.table_rebuilds == 0
    assert restored.stats() == live.stats()
