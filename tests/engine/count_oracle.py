"""Per-candidate count oracle for the engine's contingency tables.

The engine counts all of a head's same-arity candidates together in one
matrix.  The oracle does the opposite and the obvious thing: every
candidate's table is computed on its own with
:func:`~repro.core.builder.contingency_from_codes`, either from the first row
(:func:`candidate_counts`) or advanced one candidate at a time over newly
appended rows (:class:`PerCandidateCounts`, the per-candidate loop the
count-refresh benchmark measures against).

Candidates are keyed like :meth:`AssociationEngine.export_count_states`:
attribute indices ``(head,)`` for the head column's value counts and
``(head, *tails)`` for contingency tables, tails in attribute order.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

import numpy as np

from repro.core.builder import contingency_from_codes
from repro.engine import AssociationEngine

Key = tuple[int, ...]


def candidate_counts(
    engine: AssociationEngine, key: Key, stop: int, start: int = 0
) -> np.ndarray:
    """One candidate's count array over stored rows ``[start, stop)``."""
    store = engine._store
    names = [engine.attributes[i] for i in key]
    head_codes = store.codes(names[0])[start:stop]
    if len(names) == 1:
        return np.bincount(head_codes, minlength=store.cardinality)
    tails = [store.codes(t)[start:stop] for t in names[1:]]
    return contingency_from_codes(tails, head_codes, store.cardinality)


def group_max_sum(counts: np.ndarray) -> int:
    """The ACV numerator: per-tail-group maxima over head values, summed."""
    return int(counts.reshape(-1, counts.shape[-1]).max(axis=1).sum())


def expected_candidates(engine: AssociationEngine) -> set[Key]:
    """Every candidate a full refresh of ``engine`` must leave current.

    Pair candidates follow the γ-refresh's pool rule: all pairs of the
    other attributes, or with ``max_tail_candidates`` only pairs among
    that many tails of highest single-tail ACV.
    """
    n = engine.num_observations
    config = engine.config
    index = {a: i for i, a in enumerate(engine.attributes)}
    expected: set[Key] = set()
    for head in engine.head_attributes:
        h = index[head]
        others = [i for i in range(len(index)) if i != h]
        expected.add((h,))
        acv = {}
        for t in others:
            expected.add((h, t))
            acv[t] = group_max_sum(candidate_counts(engine, (h, t), n)) / n
        if not config.include_hyperedges:
            continue
        pool = others
        if config.max_tail_candidates is not None:
            pool = sorted(others, key=lambda t: acv[t], reverse=True)
            pool = pool[: config.max_tail_candidates]
        expected.update((h,) + pair for pair in combinations(sorted(pool), 2))
    return expected


class PerCandidateCounts:
    """Count arrays advanced one candidate at a time.

    ``states`` maps each key to ``(counts, upto, max_sum)``; :meth:`sync`
    adds each candidate's rows ``[upto, n)`` with its own
    ``contingency_from_codes`` call and re-derives its max sum.
    """

    def __init__(self) -> None:
        self.states: dict[Key, tuple[np.ndarray, int, int]] = {}

    def sync(self, engine: AssociationEngine, keys: Iterable[Key]) -> None:
        n = engine.num_observations
        for key in keys:
            state = self.states.get(key)
            if state is None:
                counts, upto = candidate_counts(engine, key, n), n
            else:
                counts, upto = state[0], state[1]
                if upto < n:
                    counts = counts + candidate_counts(engine, key, n, upto)
            self.states[key] = (counts, n, group_max_sum(counts))
