"""Exactly-rounded segmented reductions — the one primitive under three hot paths.

Every fast path of the reproduction (similarity matrices, greedy-cover
scoring, batch γ-refresh) must stay *bit-identical* to reference code that
accumulates with :func:`math.fsum`.  ``fsum`` returns the correctly rounded
double nearest the exact real sum of its inputs, which has a powerful
consequence: the result depends only on the *multiset* of addends, never on
their order or grouping.  Any other algorithm that also rounds the exact
sum correctly is therefore interchangeable with ``fsum`` — not approximately,
but bit for bit.

:func:`segmented_fsum` is such an algorithm, vectorized over segments.  It
accumulates every double into a per-segment **fixed-point superaccumulator**
(an array of 32-bit limbs stored in ``int64``, spanning the binary range the
inputs actually occupy) via exact integer scatter-adds, then rounds each
segment's exact total to nearest-even in one vectorized pass.  No compensated
(Neumaier/Kahan) trick is involved because compensation alone is *not*
exactly rounded — the integer accumulator is what makes the parity suite's
``==`` assertions hold on adversarial cancellation patterns.

Semantics mirror ``math.fsum`` exactly:

* an empty segment sums to ``+0.0``, and a zero total is always ``+0.0``
  (``fsum`` never returns ``-0.0``, not even for ``[-0.0, -0.0]``);
* subnormal totals are exact;
* a total beyond the double range raises :class:`OverflowError` ("intermediate
  overflow in fsum");
* segments containing non-finite values fall back to :func:`math.fsum`
  per segment, reproducing its ``inf``/``nan``/:class:`ValueError` behaviour.

The one documented divergence: ``math.fsum`` may raise ``OverflowError``
when a *running* partial sum overflows even though the final total is
finite; the superaccumulator never overflows transiently, so it returns the
finite total instead.  No engine path sums magnitudes anywhere near
``2**1023``, and the parity suite pins the shared behaviour below that.

Backends
--------
``numpy`` (default) is the vectorized superaccumulator; ``fsum`` is a pure
Python ``math.fsum`` loop kept as the always-available reference/escape
hatch.  Both are exactly rounded, so switching can never change a result,
only its speed.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.exceptions import ConfigurationError

__all__ = [
    "SegmentedAccumulator",
    "active_backend",
    "available_backends",
    "batched_group_max",
    "group_max",
    "segmented_fsum",
    "set_backend",
]

_OBS_SEGMENTED_FSUM = obs.timer(
    "kernel.segmented_fsum", "one exactly-rounded segmented sum"
)

#: Bit position 0 of the fixed-point accumulator is ``2**-1074`` (the least
#: significant bit any finite double can carry), so every limb index is
#: non-negative once trailing zero bits are stripped per value.
_BIAS = 1074
_LIMB_BITS = 32
_LIMB_MASK = np.int64((1 << _LIMB_BITS) - 1)
_EMPTY_F8 = np.empty(0, dtype=np.float64)

#: Values scattered per :meth:`SegmentedAccumulator.add` call between carry
#: folds.  Each value contributes at most two sub-``2**32`` pieces per limb,
#: so one chunk moves any limb by ``< 2**(26 + 1 + 32) = 2**59`` — far from
#: the ``int64`` edge even on top of previously folded residue.
_ADD_CHUNK = 1 << 26

class SegmentedAccumulator:
    """Exact fixed-point totals for ``num_segments`` independent sums.

    The accumulator is an ``(num_segments, num_limbs)`` ``int64`` array of
    signed 32-bit limbs whose bit 0 sits at ``2**(32 * lo - 1074)``.  Adds
    are exact integer scatter-adds; :meth:`round` produces the correctly
    rounded double per segment.  The limb window must cover every value the
    accumulator will ever see — size it with :meth:`for_values` over the
    full pool of potential addends (windows only depend on the *exponent*
    range, so a superset pool costs a few limbs, never correctness).
    """

    __slots__ = ("limbs", "lo", "num_segments", "num_limbs")

    def __init__(self, num_segments: int, lo: int, num_limbs: int) -> None:
        self.num_segments = int(num_segments)
        self.lo = int(lo)
        self.num_limbs = int(num_limbs)
        self.limbs = np.zeros((self.num_segments, self.num_limbs), dtype=np.int64)

    # ------------------------------------------------------------------ windows
    @staticmethod
    def window_for(values: np.ndarray) -> tuple[int, int]:
        """The ``(lo, num_limbs)`` limb window covering ``values``.

        Sized from the exponent range actually present (plus headroom for
        mantissa spill and carries), so accumulators never pay for the full
        2098-bit double range.  Zeros and non-finite values are ignored;
        an all-zero pool yields the minimal one-limb window.
        """
        values = np.asarray(values, dtype=np.float64)
        finite = values[np.isfinite(values)]
        nonzero = finite[finite != 0.0]
        if nonzero.size == 0:
            return 0, 4
        mantissa, exponent = np.frexp(nonzero)
        exponent = exponent.astype(np.int64)
        m53 = np.ldexp(np.abs(mantissa), 53).astype(np.int64)
        low_bit = m53 & -m53
        trailing = np.frexp(low_bit.astype(np.float64))[1].astype(np.int64) - 1
        position = exponent - 53 + trailing + _BIAS
        lo = int(position.min()) >> 5
        top_limb = int(position.max()) >> 5
        # Mantissa pieces reach ``top_limb + 2``; one more limb absorbs
        # carries (segment totals stay below ``2**32`` counts of sub-window
        # contributions, so a single headroom limb suffices).
        return lo, (top_limb - lo) + 4

    @classmethod
    def for_values(
        cls, num_segments: int, values: np.ndarray
    ) -> "SegmentedAccumulator":
        """An accumulator whose window covers every value in ``values``."""
        lo, num_limbs = cls.window_for(values)
        return cls(num_segments, lo, num_limbs)

    @classmethod
    def paired(
        cls,
        base: "SegmentedAccumulator",
        first: np.ndarray,
        second: np.ndarray,
    ) -> "SegmentedAccumulator":
        """Row sums of ``base``: segment ``k`` starts at ``base[first[k]] + base[second[k]]``.

        Exact by construction (limb-wise integer addition), this is what
        lets the similarity path form every pair's denominator baseline
        from per-pivot totals without revisiting any weight.
        """
        acc = cls.__new__(cls)
        acc.lo = base.lo
        acc.num_limbs = base.num_limbs
        acc.num_segments = int(len(first))
        acc.limbs = base.limbs[first] + base.limbs[second]
        return acc

    # ------------------------------------------------------------------ accumulate
    def add(self, segment_ids: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add ``values`` (finite doubles) into their segments, exactly.

        Zeros contribute nothing (matching ``fsum``, whose result never
        depends on ``±0.0`` addends).  Non-finite values are the caller's
        responsibility — :func:`segmented_fsum` routes them to the per-
        segment fallback before ever touching an accumulator.
        """
        values = np.asarray(values, dtype=np.float64)
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        for start in range(0, values.size, _ADD_CHUNK):
            chunk = slice(start, min(start + _ADD_CHUNK, values.size))
            self._add_chunk(segment_ids[chunk], values[chunk])
            if values.size > _ADD_CHUNK:
                self._fold()

    def _add_chunk(self, segment_ids: np.ndarray, values: np.ndarray) -> None:
        keep = values != 0.0
        if not keep.all():
            values = values[keep]
            segment_ids = segment_ids[keep]
        if values.size == 0:
            return
        mantissa, exponent = np.frexp(values)
        exponent = exponent.astype(np.int64)
        m53 = np.ldexp(np.abs(mantissa), 53).astype(np.int64)
        sign = np.where(values < 0.0, np.int64(-1), np.int64(1))
        # Strip trailing zero bits so the least significant set bit of every
        # contribution lands at a non-negative fixed-point position.
        low_bit = m53 & -m53
        trailing = np.frexp(low_bit.astype(np.float64))[1].astype(np.int64) - 1
        m53 >>= trailing
        position = exponent - 53 + trailing + _BIAS
        limb = (position >> 5) - self.lo
        shift = position & 31
        if limb.size and (int(limb.min()) < 0 or int(limb.max()) + 2 >= self.num_limbs):
            raise ValueError(
                "accumulator window does not cover the added values; size it "
                "with SegmentedAccumulator.for_values over the full pool"
            )
        # Split each (≤53-bit mantissa) << shift into sub-2**32 limb pieces:
        # low 32 mantissa bits shifted stay below 2**63, high bits below 2**53.
        low_part = (m53 & _LIMB_MASK) << shift
        high_part = (m53 >> _LIMB_BITS) << shift
        flat = self.limbs.reshape(-1)
        base = segment_ids * self.num_limbs + limb
        np.add.at(
            flat,
            np.concatenate((base, base + 1, base + 1, base + 2)),
            np.concatenate(
                (
                    (low_part & _LIMB_MASK) * sign,
                    (low_part >> _LIMB_BITS) * sign,
                    (high_part & _LIMB_MASK) * sign,
                    (high_part >> _LIMB_BITS) * sign,
                )
            ),
        )

    def _fold(self) -> None:
        """Renormalize limbs to sub-``2**32`` residues (value-preserving)."""
        limbs = self.limbs
        for k in range(self.num_limbs - 1):
            carry = limbs[:, k] >> _LIMB_BITS
            limbs[:, k] &= _LIMB_MASK
            limbs[:, k + 1] += carry

    # ------------------------------------------------------------------ rounding
    def _magnitudes(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical non-negative limbs plus the per-segment sign mask."""
        limbs = self.limbs
        rows = self.num_segments
        norm = np.empty_like(limbs)
        carry = np.zeros(rows, dtype=np.int64)
        for k in range(self.num_limbs):
            cell = limbs[:, k] + carry
            norm[:, k] = cell & _LIMB_MASK
            carry = cell >> _LIMB_BITS
        negative = carry < 0
        negative_rows = np.flatnonzero(negative)
        if negative_rows.size:
            carry = np.zeros(negative_rows.size, dtype=np.int64)
            negated = -limbs[negative_rows]
            for k in range(self.num_limbs):
                cell = negated[:, k] + carry
                norm[negative_rows, k] = cell & _LIMB_MASK
                carry = cell >> _LIMB_BITS
        return norm, negative

    def round(self) -> np.ndarray:
        """The correctly rounded (nearest-even) double total of every segment.

        Exactly what ``math.fsum`` would return for each segment's addends:
        ``+0.0`` for a zero total, exact subnormals, and
        :class:`OverflowError` past the double range.
        """
        norm, negative = self._magnitudes()
        out = np.zeros(self.num_segments, dtype=np.float64)
        nonzero = norm != 0
        rows = np.flatnonzero(nonzero.any(axis=1))
        if rows.size == 0:
            return out
        exponent_base = _LIMB_BITS * self.lo - _BIAS
        top_limb = self.num_limbs - 1 - np.argmax(nonzero[rows, ::-1], axis=1)
        top_bits = np.frexp(norm[rows, top_limb].astype(np.float64))[1].astype(np.int64)
        msb = _LIMB_BITS * top_limb + top_bits - 1

        exact = msb <= 52
        if exact.any():
            if np.any(exponent_base + msb[exact] > 1023):
                raise OverflowError("intermediate overflow in fsum")
            sub = rows[exact]
            small = norm[sub, 0].astype(np.float64)
            if self.num_limbs > 1:
                small += np.ldexp(norm[sub, 1].astype(np.float64), _LIMB_BITS)
            out[sub] = np.ldexp(small, exponent_base)

        wide = ~exact
        if wide.any():
            sub = rows[wide]
            sub_msb = msb[wide]
            window_low = sub_msb - 53
            low_limb = window_low >> 5
            low_shift = window_low & 31
            gather0 = norm[sub, low_limb]
            gather1 = np.where(
                low_limb + 1 < self.num_limbs, norm[sub, low_limb + 1], np.int64(0)
            )
            gather2 = np.where(
                low_limb + 2 < self.num_limbs, norm[sub, low_limb + 2], np.int64(0)
            )
            window = (gather0 >> low_shift) | (gather1 << (_LIMB_BITS - low_shift))
            needs_third = low_shift >= 11
            window |= np.where(needs_third, gather2, np.int64(0)) << np.where(
                needs_third, 64 - low_shift, np.int64(0)
            )
            window &= (np.int64(1) << 54) - 1
            # Sticky: any set bit strictly below the 54-bit window.
            limb_nonzero = np.cumsum(nonzero[sub], axis=1)
            below = np.where(
                low_limb > 0, limb_nonzero[np.arange(sub.size), low_limb - 1], 0
            )
            sticky = (below > 0) | ((gather0 & ((np.int64(1) << low_shift) - 1)) != 0)
            mantissa = window >> 1
            round_bit = (window & 1).astype(bool)
            mantissa += (round_bit & (sticky | ((mantissa & 1) == 1))).astype(np.int64)
            carried = mantissa == (np.int64(1) << 53)
            mantissa = np.where(carried, mantissa >> 1, mantissa)
            result_msb = sub_msb + carried
            if np.any(exponent_base + result_msb > 1023):
                raise OverflowError("intermediate overflow in fsum")
            out[sub] = np.ldexp(
                mantissa.astype(np.float64), exponent_base + result_msb - 52
            )
        np.negative(out, where=negative, out=out)
        return out


# --------------------------------------------------------------------------- backends
def _segmented_fsum_numpy(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    accumulator = SegmentedAccumulator.for_values(num_segments, values)
    accumulator.add(segment_ids, values)
    return accumulator.round()


def _segmented_fsum_python(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    buckets: list[list[float]] = [[] for _ in range(num_segments)]
    for segment, value in zip(segment_ids.tolist(), values.tolist()):
        buckets[segment].append(value)
    return np.asarray([math.fsum(bucket) for bucket in buckets], dtype=np.float64)


_BACKENDS = {"numpy": _segmented_fsum_numpy, "fsum": _segmented_fsum_python}
_active_backend = "numpy"


def available_backends() -> tuple[str, ...]:
    """The backends :func:`set_backend` accepts."""
    return tuple(_BACKENDS)


def active_backend() -> str:
    """The backend :func:`segmented_fsum` currently dispatches to."""
    return _active_backend


def set_backend(name: str) -> str:
    """Select the reduction backend; returns its name.

    Every backend is exactly rounded — this knob can change speed, never
    results.  An unknown name raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    global _active_backend
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        )
    _active_backend = name
    return _active_backend


# --------------------------------------------------------------------------- kernels
def segmented_fsum(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int | None = None,
) -> np.ndarray:
    """Per-segment sums, each bit-for-bit equal to ``math.fsum`` of its addends.

    ``segment_ids[k]`` assigns ``values[k]`` to a segment; segments need not
    be sorted or contiguous.  ``num_segments`` defaults to
    ``segment_ids.max() + 1``.  Because every segment total is the correctly
    rounded exact sum, the result is independent of the order of ``values``
    *and* of how addends are interleaved across calls — the property the
    similarity/dominator parity suites pin with ``==``.
    """
    values = np.asarray(values, dtype=np.float64)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if values.shape != segment_ids.shape or values.ndim != 1:
        raise ValueError("values and segment_ids must be equal-length 1-d arrays")
    if num_segments is None:
        num_segments = int(segment_ids.max()) + 1 if segment_ids.size else 0
    if segment_ids.size and (
        int(segment_ids.min()) < 0 or int(segment_ids.max()) >= num_segments
    ):
        raise ValueError("segment_ids out of range")
    with _OBS_SEGMENTED_FSUM.time():
        finite = np.isfinite(values)
        if finite.all():
            return _BACKENDS[_active_backend](values, segment_ids, num_segments)
        # Segments touched by a non-finite value reproduce math.fsum's own
        # inf/nan/ValueError semantics via the real thing, one segment at a
        # time; untouched segments still take the vectorized path.
        troubled = np.unique(segment_ids[~finite])
        troubled_mask = np.zeros(num_segments, dtype=bool)
        troubled_mask[troubled] = True
        keep = ~troubled_mask[segment_ids]
        out = _BACKENDS[_active_backend](values[keep], segment_ids[keep], num_segments)
        for segment in troubled.tolist():
            out[segment] = math.fsum(values[segment_ids == segment])
        return out


def group_max(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int | None = None,
    *,
    initial: float = -np.inf,
) -> np.ndarray:
    """Per-segment maxima; empty segments yield ``initial``.

    Unlike :func:`segmented_fsum` this is only order-independent up to the
    usual ``max`` caveats: a NaN addend propagates (numpy ``maximum``
    semantics, not Python ``max``), and the *sign* of a zero result is
    unspecified when a segment holds both ``0.0`` and ``-0.0``.  The engine
    only reduces non-negative integer counts, where none of that applies.
    """
    values = np.asarray(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if values.shape != segment_ids.shape or values.ndim != 1:
        raise ValueError("values and segment_ids must be equal-length 1-d arrays")
    if num_segments is None:
        num_segments = int(segment_ids.max()) + 1 if segment_ids.size else 0
    out = np.full(num_segments, initial, dtype=np.result_type(values, np.float64))
    if values.size:
        with np.errstate(invalid="ignore"):  # NaN propagation is documented
            np.maximum.at(out, segment_ids, values)
    return out


def batched_group_max(counts: np.ndarray, cardinality: int) -> np.ndarray:
    """Row-batched dense group maxima: ``(B, groups * cardinality) -> (B, groups)``.

    The layout-specialized sibling of :func:`group_max` for contingency
    arrays whose segments are contiguous runs of equal length — one reshape
    and one axis reduction instead of a scatter, which is what the batched
    γ-refresh leans on.
    """
    batch, cells = counts.shape
    return counts.reshape(batch, cells // cardinality, cardinality).max(axis=2)
