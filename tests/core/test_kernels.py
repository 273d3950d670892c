"""Bit-for-bit parity of the segmented reduction kernel with ``math.fsum``.

The kernel is only admissible in the similarity/dominator/γ hot paths
because it is *exactly rounded*: every segment total must equal
``math.fsum`` of that segment's addends with ``==`` — same bits, same
signed zeros, same overflow behaviour.  The hypothesis suites here drive it
with the adversarial shapes floating-point summation is known to get wrong
(mixed magnitudes, mass cancellation, ``±0.0``, subnormals) plus the edge
segments the engine actually produces (empty, singleton, all-negative-zero).

Order-independence is part of the contract for sums (an exactly rounded
sum depends only on the addend multiset) and is asserted under shuffles;
``group_max`` deliberately does NOT promise it for NaN addends or the sign
of a zero maximum — see its docstring — so those cases are pinned to numpy
``maximum`` semantics instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import (
    SegmentedAccumulator,
    batched_group_max,
    group_max,
    segmented_fsum,
)
from repro.exceptions import ConfigurationError


def reference(values, segment_ids, num_segments):
    """Per-segment ``math.fsum`` in input order — the parity oracle."""
    buckets = [[] for _ in range(num_segments)]
    for value, segment in zip(values, segment_ids):
        buckets[segment].append(value)
    return [math.fsum(bucket) for bucket in buckets]


def assert_identical(got: np.ndarray, want: list[float]) -> None:
    """Equality including the sign of zero (``==`` treats ``-0.0 == 0.0``)."""
    assert got.shape == (len(want),)
    for g, w in zip(got.tolist(), want):
        assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), (g, w)


#: Finite doubles spanning the full exponent range, subnormals and both
#: zeros included — the adversarial pool the parity suite draws from.
adversarial_floats = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e280, max_value=1e280),
    st.sampled_from(
        [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1.5e-323,
            1e-310,
            -1e-310,
            2.2250738585072014e-308,  # smallest normal
            -2.2250738585072014e-308,
            1.0,
            -1.0,
            2.0**53,
            -(2.0**53),
            1.0 + 2.0**-52,
        ]
    ),
)


@st.composite
def segmented_inputs(draw, elements=adversarial_floats, max_size=60):
    values = draw(st.lists(elements, max_size=max_size))
    num_segments = draw(st.integers(1, 6))
    segment_ids = [
        draw(st.integers(0, num_segments - 1)) for _ in range(len(values))
    ]
    return values, segment_ids, num_segments


class TestFsumParity:
    @given(case=segmented_inputs())
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit_equal_to_fsum(self, case):
        values, segment_ids, num_segments = case
        got = segmented_fsum(values, segment_ids, num_segments)
        assert_identical(got, reference(values, segment_ids, num_segments))

    @given(case=segmented_inputs(), seed=st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def test_within_segment_order_never_matters(self, case, seed):
        # An exactly rounded sum depends only on the addend multiset, so a
        # global shuffle (which permutes within and across segments alike)
        # must reproduce the same bits.
        values, segment_ids, num_segments = case
        baseline = segmented_fsum(values, segment_ids, num_segments)
        order = np.random.RandomState(seed).permutation(len(values))
        shuffled = segmented_fsum(
            np.asarray(values, dtype=np.float64)[order],
            np.asarray(segment_ids, dtype=np.int64)[order],
            num_segments,
        )
        assert_identical(shuffled, baseline.tolist())

    @given(case=segmented_inputs(), mapping=st.permutations(range(6)))
    @settings(max_examples=150, deadline=None)
    def test_segment_permutation_invariance(self, case, mapping):
        # Relabeling segments permutes the output rows and nothing else.
        values, segment_ids, num_segments = case
        baseline = segmented_fsum(values, segment_ids, num_segments)
        relabeled = [mapping[s] for s in segment_ids]
        permuted = segmented_fsum(values, relabeled, 6)
        for old, new in enumerate(mapping[:num_segments]):
            assert permuted[new] == baseline[old]

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), max_size=40
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_single_segment_any_finite_doubles(self, values):
        # Unconstrained finite doubles, all in one segment: the overflow
        # behaviours may legitimately differ (fsum can overflow on a
        # running partial sum; the superaccumulator only on the total), so
        # only compare when the oracle stays finite.
        try:
            want = math.fsum(values)
        except OverflowError:
            return
        got = segmented_fsum(values, [0] * len(values), 1)
        assert_identical(got, [want])

    def test_python_backend_matches_numpy_backend(self):
        rng = np.random.RandomState(7)
        values = rng.standard_normal(500) * 10.0 ** rng.randint(-200, 200, size=500)
        segment_ids = rng.randint(0, 9, size=500)
        assert kernels.set_backend("fsum") == "fsum"
        try:
            via_python = segmented_fsum(values, segment_ids, 9)
        finally:
            assert kernels.set_backend("numpy") == "numpy"
        via_numpy = segmented_fsum(values, segment_ids, 9)
        assert_identical(via_numpy, via_python.tolist())


class TestEdgeSegments:
    def test_empty_input_and_empty_segments(self):
        out = segmented_fsum([], [], 4)
        assert_identical(out, [0.0, 0.0, 0.0, 0.0])
        out = segmented_fsum([1.5, 2.5], [3, 3], 5)
        assert_identical(out, [0.0, 0.0, 0.0, 4.0, 0.0])

    def test_zero_segments(self):
        assert segmented_fsum([], [], 0).shape == (0,)
        assert segmented_fsum([], []).shape == (0,)

    @given(value=adversarial_floats)
    @settings(max_examples=100, deadline=None)
    def test_single_element_segments(self, value):
        # fsum of one addend is the addend — except that a lone -0.0 sums
        # to +0.0 (fsum never returns a negative zero).
        got = segmented_fsum([value], [0], 1)
        assert_identical(got, [math.fsum([value])])

    def test_all_negative_zero_segments(self):
        # fsum([-0.0, ..., -0.0]) == +0.0: zero totals are always +0.0.
        for count in (1, 2, 7):
            got = segmented_fsum([-0.0] * count, [0] * count, 1)
            assert_identical(got, [0.0])
        mixed = segmented_fsum([-0.0, 0.0, -0.0], [0, 1, 1], 2)
        assert_identical(mixed, [0.0, 0.0])

    def test_exact_cancellation_is_positive_zero(self):
        got = segmented_fsum([1e300, -1e300, 2.5, -2.5], [0, 0, 0, 0], 1)
        assert_identical(got, [0.0])

    def test_subnormal_totals_are_exact(self):
        tiny = 5e-324
        got = segmented_fsum([tiny] * 3 + [-tiny], [0] * 4, 1)
        assert_identical(got, [math.fsum([tiny] * 3 + [-tiny])])

    def test_overflowing_total_raises_like_fsum(self):
        with pytest.raises(OverflowError):
            segmented_fsum([1e308, 1e308], [0, 0], 1)
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308])

    def test_nonfinite_segments_fall_back_to_fsum_semantics(self):
        out = segmented_fsum([np.inf, 1.0, 2.0, np.nan], [0, 0, 1, 2], 3)
        assert out[0] == np.inf and out[1] == 2.0 and math.isnan(out[2])
        with pytest.raises(ValueError):
            segmented_fsum([np.inf, -np.inf, 1.0], [0, 0, 1], 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            segmented_fsum([1.0, 2.0], [0], 1)
        with pytest.raises(ValueError):
            segmented_fsum([1.0], [1], 1)
        with pytest.raises(ValueError):
            segmented_fsum([1.0], [-1], 1)
        with pytest.raises(ConfigurationError):
            kernels.set_backend("simd-of-the-gaps")

    def test_numba_request_degrades_gracefully(self):
        # There is no JIT backend: requesting one is a typed configuration
        # error that leaves the active exact backend in place.
        with pytest.raises(ConfigurationError):
            kernels.set_backend("numba")
        assert kernels.active_backend() == "numpy"
        assert kernels.available_backends() == ("numpy", "fsum")


class TestAccumulator:
    @given(case=segmented_inputs(max_size=30), split=st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_split_adds_equal_one_shot(self, case, split):
        # Interleaving addends across add() calls cannot change the bits.
        values, segment_ids, num_segments = case
        values = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(values)
        values = values[finite]
        segment_ids = np.asarray(segment_ids, dtype=np.int64)[finite]
        split = min(split, values.size)
        acc = SegmentedAccumulator.for_values(num_segments, values)
        acc.add(segment_ids[:split], values[:split])
        acc.add(segment_ids[split:], values[split:])
        assert_identical(
            acc.round(), reference(values, segment_ids, num_segments)
        )

    def test_paired_rows_share_the_base_totals(self):
        pool = np.array([0.1, 0.2, 1e-300, 7.5, -0.3, 2.0**40])
        ids = np.array([0, 0, 1, 1, 2, 2])
        base = SegmentedAccumulator.for_values(3, pool)
        base.add(ids, pool)
        pairs = SegmentedAccumulator.paired(
            base, np.array([0, 0, 1]), np.array([1, 2, 2])
        )
        corrections = np.array([-0.1, 2.5])
        pairs.add(np.array([0, 2]), corrections)
        want = [
            math.fsum([0.1, 0.2, 1e-300, 7.5, -0.1]),
            math.fsum([0.1, 0.2, -0.3, 2.0**40]),
            math.fsum([1e-300, 7.5, -0.3, 2.0**40, 2.5]),
        ]
        assert_identical(pairs.round(), want)

    def test_window_must_cover_added_values(self):
        acc = SegmentedAccumulator.for_values(1, np.array([1.0]))
        with pytest.raises(ValueError):
            acc.add(np.array([0]), np.array([1e300]))


class TestGroupMax:
    @given(case=segmented_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_python_max(self, case):
        values, segment_ids, num_segments = case
        got = group_max(values, segment_ids, num_segments)
        for segment in range(num_segments):
            bucket = [v for v, s in zip(values, segment_ids) if s == segment]
            if bucket:
                assert got[segment] == max(bucket)
            else:
                assert got[segment] == -np.inf

    def test_empty_segments_take_the_initial_value(self):
        got = group_max([3, 1], [1, 1], 3, initial=0.0)
        assert got.tolist() == [0.0, 3.0, 0.0]

    def test_documented_non_promises(self):
        # NaN propagates (numpy maximum semantics, unlike Python max) ...
        got = group_max([1.0, np.nan], [0, 0], 1)
        assert math.isnan(got[0])
        # ... and a zero maximum's sign follows numpy, whichever it is.
        got = group_max([-0.0, 0.0], [0, 0], 1)
        assert got[0] == 0.0

    def test_batched_group_max_matches_flat(self):
        rng = np.random.RandomState(3)
        counts = rng.randint(0, 50, size=(5, 12))
        batched = batched_group_max(counts, 4)
        assert batched.shape == (5, 3)
        for row in range(5):
            ids = np.repeat(np.arange(3), 4)
            flat = group_max(counts[row], ids, 3)
            assert batched[row].tolist() == flat.tolist()
