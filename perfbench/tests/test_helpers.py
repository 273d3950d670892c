"""Tests of the benchmark's schedule, percentile, ladder and self-time helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import random
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hgbench import schedule, spans, stats  # noqa: E402


# ----------------------------------------------------------------- schedule
def test_poisson_times_have_the_exact_count_sorted_inside_the_window():
    times = schedule.poisson_times(12.0, 10.0, random.Random(1))
    assert len(times) == 120
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 10.0


def test_same_seed_same_schedule_and_other_seed_differs():
    def make(seed):
        rng = random.Random(seed)
        times = schedule.poisson_times(20.0, 5.0, rng)
        ops = schedule.draw_ops({"a": 0.7, "b": 0.3}, len(times), rng)
        return schedule.build_schedule(
            times, ops, lambda op, r: ("POST", f"/{op}", {"x": r.random()}), rng, 2.0
        )

    assert make(7) == make(7)
    assert make(7) != make(8)
    assert all(arrival.due >= 2.0 for arrival in make(7))


def test_poisson_gaps_are_exponential():
    times = schedule.poisson_times(10.0, 2000.0, random.Random(3))
    gaps = [b - a for a, b in zip(times, times[1:])]
    short = sum(gap < 0.04 for gap in gaps) / len(gaps)
    # P(gap < 40 ms) = 1 - exp(-10 * 0.04) = 0.33 for a rate of 10/s.
    assert abs(short - 0.3297) < 0.01


def test_draw_ops_has_exact_counts_in_a_seeded_order():
    mix = {"a": 0.45, "b": 0.36, "c": 0.15, "d": 0.02, "e": 0.02}
    ops = schedule.draw_ops(mix, 160, random.Random(5))
    assert len(ops) == 160
    assert {op: ops.count(op) for op in mix} == {"a": 72, "b": 58, "c": 24, "d": 3, "e": 3}
    assert ops == schedule.draw_ops(mix, 160, random.Random(5))
    assert ops != schedule.draw_ops(mix, 160, random.Random(6))


def test_spaced_poisson_times_keep_the_dead_time_and_the_count():
    times = schedule.spaced_poisson_times(4.0, 0.15, 50.0, random.Random(2))
    assert len(times) == 200
    assert 0.0 <= times[0] and times[-1] < 50.0
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) >= 0.15 - 1e-12
    assert abs(sum(gaps) / len(gaps) - 0.25) < 0.01
    assert times == schedule.spaced_poisson_times(4.0, 0.15, 50.0, random.Random(2))
    with pytest.raises(ValueError):
        schedule.spaced_poisson_times(10.0, 0.15, 5.0, random.Random(2))


def test_poisson_times_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        schedule.poisson_times(0.0, 1.0, random.Random(1))


# ----------------------------------------------------------------- percentiles
def test_quantile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.quantile(samples, 0.5) == 50
    assert stats.quantile(samples, 0.99) == 99
    assert stats.quantile(samples, 1.0) == 100
    assert stats.quantile([5.0], 0.5) == 5.0


def test_percentile_keeps_ten_samples_beyond_it():
    report = stats.percentile_report(list(range(1, 1001)), 0.99)
    assert report == {"value": 990, "quantile": 0.99, "samples": 1000}
    report = stats.percentile_report(list(range(1, 201)), 0.99)
    assert report["quantile"] == pytest.approx(0.95)
    assert report["value"] == 190
    assert 200 - report["value"] == 10


def test_small_samples_fall_back_to_the_median():
    assert stats.supported_quantile(0.99, 12) == 0.5
    assert stats.supported_quantile(0.5, 3) == 0.5


def test_failures_count_as_missing_the_limit():
    samples = [1.0] * 985 + [float("inf")] * 15
    assert stats.percentile_report(samples, 0.99)["value"] == float("inf")


def test_limit_crossing_interpolates_between_the_rungs_around_it():
    assert stats.limit_crossing([(32.0, 0.5), (35.2, 1.5)]) == pytest.approx(33.6)
    assert stats.limit_crossing([(16.0, 2.0)]) == pytest.approx(8.0)
    assert stats.limit_crossing([(32.0, 0.9), (35.2, 0.95)]) == 35.2


def test_limit_crossing_pools_rungs_whose_load_falls():
    # 42.6 and 46.9 pool at 1.0 + 0.8 -> 0.9, so the crossing lies above 46.9.
    points = [(38.7, 0.5), (42.6, 1.0), (46.9, 0.8), (51.5, 1.9)]
    assert stats.limit_crossing(points) == pytest.approx(46.9 + 4.6 * 0.1 / 1.0)
    # A lone failure below a pass pools with it and stays under the limit.
    points = [(32.0, 0.4), (35.2, 1.2), (38.7, 0.6), (42.6, 1.6)]
    assert stats.limit_crossing(points) == pytest.approx(38.7 + 3.9 * 0.1 / 0.7)


# ----------------------------------------------------------------- spans
def _span(sid, parent, name, start, end):
    return (sid, parent, name, start, end, 1, None)


def test_self_time_subtracts_children_only():
    recorded = [
        _span(1, 0, "serve.query", 0, 100),
        _span(2, 1, "engine.query", 10, 60),
        _span(3, 2, "hypergraph.lookup", 20, 30),
        _span(4, 1, "engine.refresh", 70, 80),
    ]
    own = spans.self_times(recorded)
    assert own == {1: 40, 2: 40, 3: 10, 4: 10}
    assert sum(own.values()) == 100


def test_tracer_nests_spans_per_thread_and_joins_by_name():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.001)

    traced_inner = tracer.wrap("engine.inner", inner)
    traced_outer = tracer.wrap(lambda a, k: f"serve.outer.{a[0]}", lambda op: traced_inner())
    threads = [threading.Thread(target=traced_outer, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)
        assert not thread.is_alive()
    by_id = {s[spans.SID]: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s[spans.NAME] == "engine.inner"]
    assert len(inners) == 2
    for span in inners:
        parent = by_id[span[spans.PARENT]]
        assert parent[spans.NAME].startswith("serve.outer.")
        assert parent[spans.TID] == span[spans.TID]
        assert parent[spans.START] <= span[spans.START] <= span[spans.END] <= parent[spans.END]


def test_patch_method_wraps_properties_and_classmethods():
    class Thing:
        @property
        def size(self):
            return 3

        @classmethod
        def make(cls):
            return cls()

    tracer = spans.Tracer()
    tracer.patch_method(Thing, "size", "engine.size")
    tracer.patch_method(Thing, "make", "engine.make")
    assert Thing.make().size == 3
    assert [s[spans.NAME] for s in tracer.spans] == ["engine.make", "engine.size"]


def test_within_selects_by_start_time():
    recorded = [_span(1, 0, "a", 1_000_000_000, 3_000_000_000),
                _span(2, 0, "b", 5_000_000_000, 6_000_000_000)]
    assert [s[spans.SID] for s in spans.within(recorded, 0.5, 2.0)] == [1]
    assert len(spans.within(recorded, 0.0, float("inf"))) == 2
