"""Benchmarks for the exactly-rounded segmented-reduction kernel's hot paths.

One primitive, three spends, one artifact: ``BENCH_kernels.json`` records

* the all-pairs similarity matrix at 10³ attributes — global context
  grouping + exact fixed-point segmented sums vs the per-pair
  intersection path (required ≥ 5x, asserted);
* a large γ-refresh — the engine's count-block syncs vs the per-candidate
  count oracle of ``tests/engine/count_oracle.py`` (required ≥ 3x,
  asserted);
* greedy-cover dominators — per-round segmented-fsum scoring on the
  compiled index vs the dict-walking reference (must not be slower).

Every comparison asserts *exact* equality of results — the kernel is only
admissible because it is exactly rounded, and these benchmarks double as
parity checks at scales the unit suites do not reach.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit, measure

from repro.core.config import BuildConfig
from repro.core.dominators import dominator_greedy_cover
from repro.core import similarity
from repro.data.database import Database
from repro.engine import AssociationEngine
from repro.hypergraph.dhg import DirectedHypergraph
from repro.hypergraph.index import HypergraphIndex
from tests.engine.count_oracle import PerCandidateCounts

pytestmark = pytest.mark.bench

#: Timings collected across the module's benchmarks, dumped as the
#: ``BENCH_kernels.json`` artifact by the final test.
RESULTS: dict[str, dict[str, float]] = {}

REFRESH_CONFIG = BuildConfig(
    name="kernel-bench",
    k=3,
    gamma_edge=1.0,
    gamma_hyperedge=1.1,
    min_acv=0.4,
    include_hyperedges=True,
)


def synthetic_index(num_attrs: int, num_edges: int, seed: int = 5):
    """A random weighted hypergraph of ``num_attrs`` vertices, compiled."""
    rng = np.random.RandomState(seed)
    hypergraph = DirectedHypergraph(range(num_attrs))
    for _ in range(num_edges):
        tail = rng.choice(num_attrs, size=rng.randint(1, 4), replace=False)
        head = rng.randint(num_attrs)
        if head in tail:
            continue
        hypergraph.add_edge(
            [int(t) for t in tail],
            [int(head)],
            weight=float(rng.uniform(0.05, 1.0)),
        )
    return HypergraphIndex.from_hypergraph(hypergraph)


def synthetic_market(num_attrs: int, num_rows: int, seed: int = 7) -> Database:
    """A correlated panel wide enough to make refreshes candidate-bound."""
    rng = np.random.RandomState(seed)
    columns: dict[str, list[int]] = {}
    base = rng.randint(0, 3, size=num_rows)
    for a in range(num_attrs):
        noise = rng.randint(0, 3, size=num_rows)
        mixed = np.where(rng.uniform(size=num_rows) < 0.5, base, noise)
        columns[f"S{a:03d}"] = mixed.tolist()
    attributes = list(columns)
    rows = [[columns[a][r] for a in attributes] for r in range(num_rows)]
    return Database(attributes, rows)


def test_bench_similarity_matrix_at_1000_attributes():
    """All-pairs similarity: global context grouping vs per-pair intersection.

    The per-pair path costs the same for every pair (uniform per-pivot
    entry counts here), so its full-matrix time is measured on a 150-node
    subset and scaled by the pair count — running it outright at 10³
    attributes takes minutes, which is exactly the point.
    """
    index = synthetic_index(num_attrs=1000, num_edges=6000)
    nodes = list(index.vertices)
    total_pairs = len(nodes) * (len(nodes) - 1) // 2

    t_grouped, (_, in_matrix, out_matrix) = measure(
        lambda: similarity.pairwise_similarity_components(index),
        rounds=3,
        warmup=1,
    )

    subset = nodes[:150]
    subset_ids = [index.vertex_id(v) for v in subset]
    subset_pairs = len(subset) * (len(subset) - 1) // 2
    out_table = index.rewrite_table("out")
    in_table = index.rewrite_table("in")

    def per_pair_subset():
        sums = []
        for i in range(len(subset_ids)):
            for j in range(i + 1, len(subset_ids)):
                a, b = subset_ids[i], subset_ids[j]
                sums.append(similarity._index_match_sums(index, out_table, a, b))
                sums.append(similarity._index_match_sums(index, in_table, a, b))
        return sums

    start = time.perf_counter()
    reference_sums = per_pair_subset()
    t_subset = time.perf_counter() - start
    reference_s = t_subset * (total_pairs / subset_pairs)

    # Exact parity on the measured subset: the grouped matrix entries are
    # the same bits the per-pair sums produce.
    position = {v: i for i, v in enumerate(nodes)}
    cursor = iter(reference_sums)
    for i in range(len(subset)):
        for j in range(i + 1, len(subset)):
            pi, pj = position[subset[i]], position[subset[j]]
            num, den = next(cursor)
            assert out_matrix[pi, pj] == (num / den if den != 0.0 else 0.0)
            num, den = next(cursor)
            assert in_matrix[pi, pj] == (num / den if den != 0.0 else 0.0)

    speedup = reference_s / t_grouped
    RESULTS["similarity_matrix"] = {
        "attributes": len(nodes),
        "pairs": total_pairs,
        "grouped_s": t_grouped,
        "per_pair_subset_s": t_subset,
        "per_pair_extrapolated_s": reference_s,
        "speedup": speedup,
    }
    emit(
        "Similarity matrix at 10^3 attributes — grouped contexts vs per-pair",
        f"grouped {t_grouped * 1e3:8.1f} ms, per-pair "
        f"{reference_s:8.2f} s (extrapolated from {subset_pairs} pairs), "
        f"{speedup:.1f}x over {total_pairs} pairs",
    )
    assert speedup >= 5.0, f"grouped similarity only {speedup:.2f}x faster"


def test_bench_large_refresh():
    """Steady-state γ-refreshes: count-block syncs vs the per-candidate loop.

    The regime is many candidates per head brought forward over a modest
    row block — what every refresh after the first sees, and what
    recovery replays after a count-state checkpoint (the WAL tail).  The
    engine's side is its whole refresh (counts, significance, edge
    reconciliation); the reference is only the per-candidate oracle
    bringing the same candidates' counts and max sums up to date, one
    ``contingency_from_codes`` call each.
    """
    num_attrs = 32
    base_rows, block, waves = 2000, 64, 4
    seeds = [synthetic_market(num_attrs, base_rows, seed=7).to_rows()]
    seeds += [
        synthetic_market(num_attrs, block, seed=100 + wave).to_rows()
        for wave in range(waves)
    ]

    engine = AssociationEngine([f"S{a:03d}" for a in range(num_attrs)], REFRESH_CONFIG)
    engine.append_rows(seeds[0])
    engine.refresh()  # initial full build, untimed on both sides
    keys = list(engine.export_count_states())
    oracle = PerCandidateCounts()
    oracle.sync(engine, keys)
    t_engine = t_oracle = 0.0
    for wave in seeds[1:]:
        engine.append_rows(wave)
        start = time.perf_counter()
        engine.refresh()
        t_engine += time.perf_counter() - start
        start = time.perf_counter()
        oracle.sync(engine, keys)
        t_oracle += time.perf_counter() - start

    exported = engine.export_count_states()
    assert set(exported) == set(oracle.states)
    for key, (counts, upto) in exported.items():
        oracle_counts, oracle_upto, _ = oracle.states[key]
        assert upto == oracle_upto
        assert np.array_equal(counts, oracle_counts), key

    speedup = t_oracle / t_engine
    RESULTS["large_refresh"] = {
        "attributes": num_attrs,
        "base_rows": base_rows,
        "block_rows": block,
        "waves": waves,
        "candidates": len(keys),
        "engine_refresh_s": t_engine,
        "oracle_counts_s": t_oracle,
        "speedup": speedup,
    }
    emit(
        "Steady-state refresh — count blocks vs per-candidate oracle",
        f"per-candidate {t_oracle:6.3f} s, count blocks {t_engine:6.3f} s "
        f"({speedup:.1f}x) over {waves} x {block}-row refresh waves, "
        f"{num_attrs} heads",
    )
    assert speedup >= 3.0, f"count-block refresh only {speedup:.2f}x faster"


def test_bench_greedy_cover_round():
    """Algorithm 5: segmented-fsum round scoring vs the dict reference.

    Round scoring is a per-*vertex* loop, so the vectorization pays off
    on vertex-heavy graphs — the same regime the similarity benchmark
    exercises — not on the 30-attribute markets of the unit suites.
    """
    index = synthetic_index(num_attrs=400, num_edges=2400, seed=9)
    hypergraph = index.hypergraph

    t_reference, reference = measure(
        lambda: dominator_greedy_cover(hypergraph), rounds=3, warmup=1
    )
    t_vectorized, vectorized = measure(
        lambda: dominator_greedy_cover(index), rounds=3, warmup=1
    )
    assert vectorized == reference

    speedup = t_reference / t_vectorized
    RESULTS["greedy_cover_round"] = {
        "edges": hypergraph.num_edges,
        "reference_s": t_reference,
        "vectorized_s": t_vectorized,
        "speedup": speedup,
    }
    emit(
        "Greedy cover — segmented-fsum scoring vs reference",
        f"reference {t_reference * 1e3:8.2f} ms, vectorized "
        f"{t_vectorized * 1e3:8.2f} ms ({speedup:.1f}x), "
        f"|dom| = {len(vectorized.dominators)}",
    )
    assert speedup >= 1.0, f"vectorized greedy cover slower ({speedup:.2f}x)"


def test_write_bench_artifact():
    """Dump the module's collected timings for the CI artifact upload."""
    path = Path("BENCH_kernels.json")
    path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True))
    emit("BENCH_kernels.json", path.read_text())
    assert RESULTS, "benchmarks above must have recorded timings"
