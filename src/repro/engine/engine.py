"""The incremental association-mining engine (facade of :mod:`repro.engine`).

:class:`AssociationEngine` maintains the paper's association hypergraph
*online*.  Where :class:`repro.core.builder.AssociationHypergraphBuilder`
re-derives every contingency table from scratch on each build, the engine
keeps an append-only encoded row store plus persistent contingency counts
for every γ-significance candidate ``(T, {Y})``; appending observations
only adds the new rows' cell counts, and re-evaluating significance reads
cached per-candidate ACV numerators instead of sweeping the data.  The
maintained hypergraph is bit-identical to a fresh batch build on the same
rows (the parity tests assert exact edge sets and weights), so every
downstream algorithm — similarity, clustering, dominators,
classification — runs unchanged on it.

Counts live in one *count block* per ``(head, arity)``: a single integer
matrix with one row per candidate, the per-candidate sums of group
maxima, and the row count and domain generation the matrix reflects.
There is exactly one way to bring a block up to date: count the rows it
has not absorbed with one joint ``bincount`` per bounded tile of
candidates, add them in, and recompute the maxima.  A rebuild — domain
growth, or adopted states that disagree on how many rows they absorbed —
is the same sync starting from row 0 and a zero matrix.  When the
candidate set changes (a ``max_tail_candidates`` pool moved), surviving
candidates keep their rows and only the entering ones are counted from
row 0 before the shared sync.

Refreshes are lazy and scoped: ``append_rows`` only marks head attributes
dirty, and a query refreshes no more heads than it needs (``classify``
touches just its targets; graph-global queries refresh everything).  Query
results are memoized under version stamps that advance only for attributes
whose hyperedges actually changed, so serving repeated queries between
appends costs a dictionary lookup.

Queries run on a compiled sharded index of the maintained hypergraph —
one :class:`~repro.hypergraph.shards.IndexShard` per head attribute,
stitched into a :class:`~repro.hypergraph.shards.ShardedHypergraphIndex`
(the same array substrate the batch experiment runners use).  Compilation
is *incremental*: each refresh records an exact per-head signature of the
head's hyperedges (keys and weights), and only the shards whose signature
actually changed are recompiled and restitched — an append that dirties a
single head leaves the other shards untouched
(:attr:`EngineCounters.shard_compiles` vs
:attr:`EngineCounters.full_compiles` count the difference).  Query cache
entries are stamped with per-shard versions, so queries that only touch
clean heads keep serving from cache across appends.  Payload
materialization never invalidates anything — the index reads payloads
live from the graph.

``save``/``load`` snapshot the full engine state — encoded rows, the
hypergraph with association-table payloads (via :mod:`repro.hypergraph.io`),
and build statistics — to a single JSON document, plus an ``.npz``
*sidecar* holding the compiled index arrays.  Loading memory-attaches the
sidecar (after validating its model-version stamp against the JSON rows —
a mismatch raises :class:`~repro.exceptions.SnapshotVersionError`), so a
cold-started engine serves its first query without recompiling a single
shard.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.core.builder import BuildStats, association_table_from_counts
from repro.core.classifier import AssociationBasedClassifier, Prediction
from repro.core.kernels import batched_group_max
from repro.core.clustering import AttributeClustering, cluster_attributes
from repro.core.config import BuildConfig, CONFIG_C1
from repro.core.dominators import (
    DominatorResult,
    dominator_greedy_cover,
    dominator_set_cover,
    threshold_by_top_fraction,
)
from repro.core.similarity import combined_similarity, pair_similarity_components
from repro.core.similarity_graph import build_similarity_graph
from repro.data.database import Database
from repro.engine.cache import CacheStats, VersionedQueryCache
from repro.engine.counts import load_count_states, save_count_states
from repro.engine.store import EncodedRowStore
from repro.exceptions import (
    ConfigurationError,
    EngineError,
    SchemaError,
    SnapshotVersionError,
)
from repro.hypergraph.dhg import DirectedHypergraph
from repro.hypergraph.index import HypergraphIndex
from repro.hypergraph.io import (
    atomic_write_text,
    hypergraph_from_dict,
    hypergraph_model_crc32,
    hypergraph_to_dict,
    load_index_snapshot,
    save_index_snapshot,
)
from repro.hypergraph.shards import IndexShard, ShardedHypergraphIndex
from repro.rules.association_table import AssociationTable

__all__ = ["AssociationEngine", "EngineCounters", "SNAPSHOT_FORMAT"]

#: Identifier written into (and required from) engine snapshot documents.
SNAPSHOT_FORMAT = "repro.engine/1"

#: Codes per joint-``bincount`` tile of a count-block sync: a tile holds
#: ``rows x candidates`` codes, so each int64 temporary stays at 512 KB.
_TILE_ELEMENTS = 1 << 16

# Observability handles (no-ops until ``repro.obs.enable`` activates a
# registry).  The per-instance ``EngineCounters`` ints below stay the
# source of truth for each engine; these mirror the same events
# process-wide and add latency distributions the plain ints cannot carry.
_OBS_APPEND = obs.timer("engine.append_rows", "one append_rows call")
_OBS_APPENDED = obs.counter("engine.appended_rows", "rows accepted by appends")
_OBS_REFRESH_HEAD = obs.timer("engine.refresh_head", "one head significance refresh")
_OBS_REFRESHED = obs.counter("engine.refreshed_heads", "head refreshes performed")
_OBS_TABLE_INCREMENTS = obs.counter(
    "engine.table_increments", "count arrays updated incrementally"
)
_OBS_TABLE_REBUILDS = obs.counter(
    "engine.table_rebuilds", "count arrays rebuilt from the row store"
)
_OBS_SHARD_COMPILE = obs.timer("engine.shard_compile", "one head shard compile")
_OBS_SHARD_COMPILES = obs.counter(
    "engine.shard_compiles", "incremental per-head shard recompiles"
)
_OBS_FULL_COMPILES = obs.counter(
    "engine.full_compiles", "compilations rebuilding every shard"
)
_OBS_STITCH = obs.timer("engine.index_stitch", "stitching shards into the index")
_OBS_INDEX_COMPILES = obs.counter(
    "engine.index_compiles", "stitched index (re)assemblies"
)
_OBS_BATCH_REFRESH = obs.timer(
    "engine.batch_refresh", "one batched multi-candidate count sync"
)
_OBS_BATCH_CANDIDATES = obs.histogram(
    "refresh.candidates_per_batch",
    "candidates brought up to date per batched sync",
    boundaries=(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0),
)
_OBS_QUERY_SIMILARITY = obs.timer("engine.query.similarity")
_OBS_QUERY_NEIGHBORS = obs.timer("engine.query.neighbors")
_OBS_QUERY_CLUSTERS = obs.timer("engine.query.clusters")
_OBS_QUERY_DOMINATORS = obs.timer("engine.query.dominators")
_OBS_QUERY_CLASSIFY = obs.timer("engine.query.classify")


@dataclass(frozen=True)
class EngineCounters:
    """Operational counters describing how the engine has worked so far.

    Attributes
    ----------
    appended_rows:
        Total observations accepted by :meth:`AssociationEngine.append_rows`.
    refreshed_heads:
        Head attributes whose significance set was re-evaluated.
    table_increments:
        Persistent count arrays updated incrementally from appended rows.
    table_rebuilds:
        Count arrays (re)built with a full pass over the row store — on
        first use of a candidate or after the value domain grew.
    index_compiles:
        Times the stitched array-backed query index was (re)assembled from
        the per-head shards; stays flat while queries are served between
        appends.  Stitching is cheap array concatenation — the expensive
        per-edge work is counted by the two compile counters below.
    shard_compiles:
        Individual head shards recompiled because exactly those heads'
        hyperedges changed (the incremental path).
    full_compiles:
        Compilations that had to rebuild *every* shard at once — the first
        build, and refreshes that dirtied all heads.
    """

    appended_rows: int
    refreshed_heads: int
    table_increments: int
    table_rebuilds: int
    index_compiles: int = 0
    shard_compiles: int = 0
    full_compiles: int = 0

    # Back-reference to the engine this snapshot was read from (set by the
    # ``counters`` property).  Deliberately unannotated: it must stay a
    # plain class attribute, not a dataclass field, so equality, repr, and
    # ``as_dict`` compare and export only the counts.
    _owner = None

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain ``{name: count}`` dict."""
        return asdict(self)

    def reset(self) -> None:
        """Zero the owning engine's live counters.

        Only snapshots obtained from :attr:`AssociationEngine.counters`
        carry an owner; calling ``reset`` on a detached instance raises
        :class:`~repro.exceptions.EngineError`.  The snapshot itself is
        frozen and keeps its values — re-read ``engine.counters`` to see
        the zeroed state.
        """
        if self._owner is None:
            raise EngineError(
                "this EngineCounters snapshot is not attached to an engine"
            )
        self._owner._reset_counters()


class _CountBlock:
    """The contingency counts of one head's same-arity candidates.

    Row ``i`` of ``matrix`` holds candidate ``groups[i]``'s flat count
    array (tail axes first, head axis last) over the first ``upto`` stored
    rows of domain ``generation``; ``max_sums[i]`` is the sum of its
    per-tail-group maxima over head values — the ACV numerator.  Arity 0
    is the head column's own value counts: one candidate with no tails,
    whose max sum is the baseline numerator.  The joint count's gather
    plan is ``columns`` — the attribute indices any candidate uses as a
    tail — plus ``selector``, each candidate's tails as positions in
    ``columns``.
    """

    __slots__ = (
        "groups",
        "row_of",
        "columns",
        "selector",
        "shape",
        "matrix",
        "max_sums",
        "upto",
        "generation",
    )

    def __init__(
        self,
        groups: tuple[tuple[str, ...], ...],
        columns: np.ndarray,
        selector: np.ndarray,
        shape: tuple[int, ...],
        matrix: np.ndarray,
        upto: int,
        generation: int,
    ) -> None:
        self.groups = groups
        self.row_of = {tails: row for row, tails in enumerate(groups)}
        self.columns = columns
        self.selector = selector
        self.shape = shape
        self.matrix = matrix
        self.max_sums: list[int] | None = None
        self.upto = upto
        self.generation = generation

    def counts(self, tails: tuple[str, ...]) -> np.ndarray:
        """One candidate's count array: a view of its matrix row."""
        return self.matrix[self.row_of[tails]].reshape(self.shape)


@dataclass(frozen=True)
class _HeadSummary:
    """Per-head build statistics kept for exact :class:`BuildStats` parity."""

    edge_acvs: tuple[float, ...]
    hyper_acvs: tuple[float, ...]
    candidates: int


class AssociationEngine:
    """Maintains an association hypergraph incrementally and serves queries.

    Parameters
    ----------
    attributes:
        Ordered attribute names (at least two, fixed for the engine's life).
    config:
        The γ-significance build configuration (default ``CONFIG_C1``).
    heads:
        Optional restriction of which attributes may head hyperedges,
        mirroring :meth:`AssociationHypergraphBuilder.build`.
    values:
        Optional initial value domain; values first seen in appended rows
        are adopted automatically.
    cache_size:
        Maximum number of memoized query results.

    Notes
    -----
    The engine trades memory for append speed: it keeps persistent counts
    for every γ-significance candidate, which with unrestricted 2-to-1
    candidates is O(|A|³) cells.  That is what makes a day's append
    independent of history length, but for markets beyond a few hundred
    attributes set ``config.max_tail_candidates`` (the same
    lever the batch builder documents for large markets) to bound the
    pair-candidate pool per head.

    Examples
    --------
    >>> from repro.data import patient_database_discretized
    >>> engine = AssociationEngine.from_database(patient_database_discretized())
    >>> engine.num_observations
    8
    >>> engine.hypergraph.num_edges > 0
    True
    """

    def __init__(
        self,
        attributes: Sequence[str],
        config: BuildConfig | None = None,
        *,
        heads: Iterable[str] | None = None,
        values: Iterable[Any] = (),
        cache_size: int = 4096,
    ) -> None:
        attrs = tuple(attributes)
        if len(attrs) < 2:
            raise ConfigurationError("association engines need at least two attributes")
        self.config = config or CONFIG_C1
        self._attributes = attrs
        self._attr_index = {a: i for i, a in enumerate(attrs)}
        if len(self._attr_index) != len(attrs):
            raise ConfigurationError(f"duplicate attribute names in {list(attrs)!r}")
        if heads is None:
            self._heads: tuple[str, ...] | None = None
        else:
            head_list = tuple(heads)
            unknown = [h for h in head_list if h not in self._attr_index]
            if unknown:
                raise ConfigurationError(f"unknown head attributes: {unknown}")
            if not head_list:
                raise ConfigurationError("heads must name at least one attribute")
            self._heads = head_list
        self._store = EncodedRowStore(attrs, values=values)
        self._hypergraph = DirectedHypergraph(attrs)
        self._dirty: set[str] = set(self.head_attributes)
        #: One count block per ``(head, arity)`` — see :class:`_CountBlock`.
        self._blocks: dict[tuple[str, int], _CountBlock] = {}
        #: Adopted count states not yet merged into a block, per
        #: ``(head, arity)`` and then per tail tuple: ``(counts, upto)``.
        self._adopted: dict[
            tuple[str, int], dict[tuple[str, ...], tuple[np.ndarray, int]]
        ] = {}
        self._head_summary: dict[str, _HeadSummary] = {}
        self._stale_payloads: dict[
            tuple[frozenset[str], frozenset[str]], tuple[tuple[str, ...], str, int]
        ] = {}
        self._attr_version: dict[str, int] = {a: 0 for a in attrs}
        # Exact per-attribute *topology* versions: advance only when an
        # edge incident to the attribute was actually added, removed, or
        # re-weighted (unlike the conservative ``_attr_version`` above,
        # which also covers payload-content changes).
        self._attr_topo_version: dict[str, int] = {a: 0 for a in attrs}
        self._model_version = 0
        self._cache = VersionedQueryCache(max_entries=cache_size)
        # Per-head compiled shards, their version stamps, and the stitched
        # view.  ``_head_signatures`` records the exact (edge key, weight)
        # sequence each shard was compiled from, which is what lets a
        # refresh prove a head unchanged and skip its recompile.
        self._shards: dict[int, IndexShard] = {}
        self._shard_versions: dict[str, int] = {h: 0 for h in self.head_attributes}
        self._dirty_shards: set[str] = set()
        self._head_signatures: dict[str, tuple] = {}
        self._stitched: ShardedHypergraphIndex | None = None
        self._pending_shards: list[IndexShard] | None = None
        # Deferred source of persisted count states (the storage recovery
        # hook): invoked at most once, by the first refresh that would
        # otherwise rebuild count arrays from rows.
        self._count_loader: Any = None
        self._appended_rows = 0
        self._refreshed_heads = 0
        self._table_increments = 0
        self._table_rebuilds = 0
        self._index_compiles = 0
        self._shard_compiles = 0
        self._full_compiles = 0

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_database(
        cls,
        database: Database,
        config: BuildConfig | None = None,
        *,
        heads: Iterable[str] | None = None,
        cache_size: int = 4096,
    ) -> "AssociationEngine":
        """Seed an engine with every observation of a discretized database."""
        engine = cls(
            database.attributes,
            config,
            heads=heads,
            values=database.values,
            cache_size=cache_size,
        )
        engine.append_rows(database)
        return engine

    # ------------------------------------------------------------------ basics
    @property
    def attributes(self) -> tuple[str, ...]:
        """Ordered attribute names (the hypergraph's vertex set)."""
        return self._attributes

    @property
    def head_attributes(self) -> tuple[str, ...]:
        """Attributes allowed to head hyperedges (all attributes by default)."""
        return self._heads if self._heads is not None else self._attributes

    @property
    def num_observations(self) -> int:
        """Number of observations appended so far."""
        return self._store.num_rows

    @property
    def model_version(self) -> int:
        """Monotonic counter advanced whenever any refresh touches an edge.

        Conservative: a refresh that re-derives an edge counts as a change
        even if every number comes out identical (see :meth:`refresh`).
        """
        return self._model_version

    def attribute_version(self, attribute: str) -> int:
        """Version of one attribute (advances when its incident hyperedges change)."""
        self._require_attribute(attribute)
        return self._attr_version[attribute]

    def attribute_topology_version(self, attribute: str) -> int:
        """Exact topology version of one attribute.

        Advances only when an edge incident to the attribute was added,
        removed, or re-weighted — appends that leave the attribute's edges
        numerically unchanged keep it flat, which is what lets similarity
        queries over clean attributes stay cached across appends.
        """
        self._require_attribute(attribute)
        return self._attr_topo_version[attribute]

    def shard_version(self, head: str) -> int:
        """Version of one head attribute's index shard.

        Advances exactly when the head's hyperedge signature (keys, weights,
        order) changed, i.e. when the shard had to be recompiled.
        """
        if head not in self._shard_versions:
            raise EngineError(f"{head!r} is not a head attribute")
        return self._shard_versions[head]

    @property
    def index_version_vector(self) -> tuple[int, ...]:
        """Per-shard versions in head-attribute order.

        The stamp for graph-global query-cache entries: a query over the
        whole hypergraph is valid exactly as long as no shard changed.
        """
        return tuple(self._shard_versions[h] for h in self.head_attributes)

    @property
    def dirty_attributes(self) -> frozenset[str]:
        """Head attributes whose significance has not been re-evaluated yet."""
        return frozenset(self._dirty)

    @property
    def counters(self) -> EngineCounters:
        """Operational counters (appends, refreshes, table maintenance)."""
        counters = EngineCounters(
            appended_rows=self._appended_rows,
            refreshed_heads=self._refreshed_heads,
            table_increments=self._table_increments,
            table_rebuilds=self._table_rebuilds,
            index_compiles=self._index_compiles,
            shard_compiles=self._shard_compiles,
            full_compiles=self._full_compiles,
        )
        object.__setattr__(counters, "_owner", self)
        return counters

    def _reset_counters(self) -> None:
        """Zero the live operational counters (see :meth:`EngineCounters.reset`)."""
        self._appended_rows = 0
        self._refreshed_heads = 0
        self._table_increments = 0
        self._table_rebuilds = 0
        self._index_compiles = 0
        self._shard_compiles = 0
        self._full_compiles = 0

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the query cache."""
        return self._cache.stats

    @property
    def hypergraph(self) -> DirectedHypergraph:
        """The maintained association hypergraph (refreshed on access).

        Access refreshes every dirty head and materializes every stale
        association-table payload, so the returned graph is always exactly
        what a fresh batch build on the same rows would produce.  The
        object is the engine's live hypergraph: treat it as read-only and
        re-read this property after appending rows.
        """
        self.refresh()
        self._materialize_payloads()
        return self._hypergraph

    @property
    def index(self) -> ShardedHypergraphIndex:
        """The compiled sharded index of the fully refreshed hypergraph.

        Refreshes every dirty head first, then returns the shared stitched
        :class:`~repro.hypergraph.shards.ShardedHypergraphIndex`,
        recompiling only the shards of heads whose hyperedges actually
        changed since the last compilation.  Vertex ids follow the
        engine's attribute order and are stable across recompiles.
        """
        self.refresh()
        return self._compiled_index()

    def _current_signature(self, head: str) -> tuple:
        """The exact (edge key, weight) sequence of one head's in-edges."""
        return tuple(
            (edge.key(), edge.weight) for edge in self._hypergraph.in_edges(head)
        )

    def _compile_shard(self, head: str) -> IndexShard:
        """Compile one head's shard from the live hypergraph."""
        with _OBS_SHARD_COMPILE.time(head=head):
            shard = IndexShard.compile(
                self._attr_index[head],
                self._hypergraph.in_edges(head),
                self._attr_index,
                len(self._attributes),
            )
            self._head_signatures[head] = self._current_signature(head)
        return shard

    def _adopt_pending_shards(self) -> None:
        """Adopt sidecar arrays from ``load`` without compiling anything.

        Head signatures are *not* seeded here — they hydrate lazily per
        head on its first refresh (reading the restored graph, which the
        stamp guarantees the shards mirror), so a cold start pays no
        per-edge Python work until a head actually changes.
        """
        if self._pending_shards is None:
            return
        shards, self._pending_shards = self._pending_shards, None
        self._shards = {shard.head_vertex: shard for shard in shards}
        self._dirty_shards.clear()
        self._stitched = None

    def adopt_compiled_shards(
        self,
        shards: Iterable[IndexShard],
        signatures: Mapping[str, tuple] | None = None,
    ) -> None:
        """Attach externally loaded compiled shards (the storage recovery hook).

        ``shards`` replace any currently compiled shards on the next index
        access without a single shard compile.  ``signatures`` maps head
        attributes to the exact ``(edge key, weight)`` sequence each
        shard's arrays encode (see
        :func:`repro.storage.deltas.shard_signature`); recording them up
        front lets the next refresh prove a head unchanged *against the
        adopted arrays* even when the live hypergraph currently reflects an
        older base snapshot — a shard whose signature no longer matches is
        simply recompiled, so adoption is always safe.
        """
        self._pending_shards = list(shards)
        self._dirty_shards.clear()
        self._stitched = None
        if signatures:
            self._head_signatures.update(signatures)

    def compiled_shard(self, head: str) -> IndexShard:
        """The compiled index shard of one head attribute.

        Refreshes and compiles as needed; the returned shard mirrors the
        head's current hyperedges exactly.  The storage layer's delta
        checkpoints persist these per dirty head.
        """
        if head not in self._shard_versions:
            raise EngineError(f"{head!r} is not a head attribute")
        self.refresh()
        self._compiled_index()
        return self._shards[self._attr_index[head]]

    def _index_is_fresh(self) -> bool:
        """True when the stitched view mirrors the live hypergraph exactly."""
        return (
            self._stitched is not None
            and not self._dirty_shards
            and self._pending_shards is None
        )

    def _compiled_index(self) -> ShardedHypergraphIndex:
        """The stitched index of the hypergraph *as it stands* (no refresh).

        Used by scoped queries (``classify``) that deliberately leave
        unrelated heads dirty: graph edges only change inside a refresh,
        so a γ-dirty-but-unrefreshed head's shard still mirrors the live
        graph and is reused as-is.  Only the shards refreshes actually
        changed (``_dirty_shards``) are recompiled; the stitched view is
        then reassembled by array concatenation.  Payload-only mutations
        invalidate nothing (payloads are read through the index from the
        live graph).
        """
        self._adopt_pending_shards()
        attr_index = self._attr_index
        rebuild = [
            head
            for head in self.head_attributes
            if head in self._dirty_shards or attr_index[head] not in self._shards
        ]
        if rebuild:
            for head in rebuild:
                self._shards[attr_index[head]] = self._compile_shard(head)
            if len(rebuild) == len(self.head_attributes):
                self._full_compiles += 1
                _OBS_FULL_COMPILES.inc()
            else:
                self._shard_compiles += len(rebuild)
                _OBS_SHARD_COMPILES.inc(len(rebuild))
            self._dirty_shards.clear()
            self._stitched = None
        if self._stitched is None:
            with _OBS_STITCH.time(shards=len(self._shards)):
                self._stitched = ShardedHypergraphIndex(
                    self._hypergraph,
                    self._shards.values(),
                    vertex_order=self._attributes,
                )
            self._index_compiles += 1
            _OBS_INDEX_COMPILES.inc()
        return self._stitched

    def __repr__(self) -> str:
        return (
            f"AssociationEngine(config={self.config.name!r}, "
            f"attributes={len(self._attributes)}, rows={self._store.num_rows}, "
            f"edges={self._hypergraph.num_edges}, dirty={len(self._dirty)})"
        )

    def _require_attribute(self, attribute: str) -> None:
        if attribute not in self._attr_index:
            raise EngineError(f"unknown attribute {attribute!r}")

    # ------------------------------------------------------------------ appends
    def append_rows(
        self,
        rows: Database | Iterable[Sequence[Any] | Mapping[str, Any]],
        *,
        assume_normalized: bool = False,
    ) -> int:
        """Append observations; returns how many rows were added.

        Accepts a :class:`Database` (attributes must match the engine's) or
        any iterable of row sequences / attribute-to-value mappings.  The
        work done here is O(appended rows): significance re-evaluation is
        deferred to the next query or explicit :meth:`refresh`.
        ``assume_normalized`` passes through to
        :meth:`EncodedRowStore.append` for callers that already normalized
        the batch (the durability layer logs exactly that form).
        """
        if isinstance(rows, Database):
            if rows.attributes != self._attributes:
                raise EngineError(
                    "appended database attributes do not match the engine's "
                    f"({rows.attributes!r} != {self._attributes!r})"
                )
            rows = rows.to_rows()
        with _OBS_APPEND.time():
            try:
                added, grew = self._store.append(
                    rows, assume_normalized=assume_normalized
                )
            except SchemaError as error:
                raise EngineError(str(error)) from error
            if grew:
                # Every code moved: adopted states no longer describe them.
                self._adopted.clear()
            if added:
                self._appended_rows += added
                _OBS_APPENDED.inc(added)
                self._dirty.update(self.head_attributes)
        return added

    def append_row(self, row: Sequence[Any] | Mapping[str, Any]) -> int:
        """Append a single observation (one trading day, say)."""
        return self.append_rows([row])

    # ------------------------------------------------------------------ maintenance
    def refresh(self, attributes: Iterable[str] | None = None) -> frozenset[str]:
        """Re-evaluate γ-significance for dirty heads; returns changed attributes.

        ``attributes`` restricts the refresh to the given heads (unknown or
        non-head names are ignored), which is how ``classify`` avoids paying
        for heads it will not read.  Attribute versions advance for every
        attribute incident to an edge the refresh added, removed, or
        re-weighted — conservatively: an appended row changes the ACV
        denominator, so surviving edges count as re-weighted even when
        their weight lands on the same value.  Queries over attributes with
        no edge activity (and all queries between appends) stay warm.
        """
        if not self._dirty:
            return frozenset()
        # Adopt any staged count states first: the sync below must see
        # them, or it would rebuild the same arrays from rows.
        self._materialize_staged_counts()
        if attributes is None:
            wanted = self._dirty
        else:
            wanted = self._dirty & set(attributes)
            if not wanted:
                return frozenset()
        todo = [h for h in self.head_attributes if h in wanted]
        changed_all: set[str] = set()
        topo_all: set[str] = set()
        row_codes: dict[int, np.ndarray] = {}
        for head in todo:
            with _OBS_REFRESH_HEAD.time(head=head):
                changed, topo = self._refresh_head(head, row_codes)
            changed_all |= changed
            topo_all |= topo
            self._dirty.discard(head)
            self._refreshed_heads += 1
            _OBS_REFRESHED.inc()
        if changed_all:
            self._model_version += 1
            for attribute in changed_all:
                self._attr_version[attribute] += 1
        for attribute in topo_all:
            self._attr_topo_version[attribute] += 1
        return frozenset(changed_all)

    def _refresh_head(
        self, head: str, row_codes: dict[int, np.ndarray]
    ) -> tuple[set[str], set[str]]:
        """Recompute the significance set of one head and reconcile its edges.

        ACVs come from the head's count blocks (:meth:`_sync_block`, which
        shares ``row_codes`` across the heads of one refresh), so this is
        arithmetic over cached integers plus a count of the rows appended
        since the head's last refresh.  Edge payloads (association tables)
        are *not* rebuilt here: they are marked stale and materialized
        lazily by :meth:`_materialize_payloads` when a consumer reads them.

        Returns ``(changed, topo_changed)``: the conservatively changed
        attributes (any surviving edge counts — its payload may differ even
        when its weight lands on the same value) and the *exactly* changed
        ones (an incident edge was added, removed, or re-weighted).  When
        the head's post-reconciliation edge signature differs from the one
        its shard was compiled under, the shard is marked dirty and its
        version advances.
        """
        # A shard adopted from a sidecar mirrors the live graph but carries
        # no signature yet; record the pre-reconciliation state so the
        # change detection below stays exact.
        self._adopt_pending_shards()
        if (
            head not in self._head_signatures
            and self._attr_index[head] in self._shards
            and head not in self._dirty_shards
        ):
            self._head_signatures[head] = self._current_signature(head)

        config = self.config
        total = self._store.num_rows
        desired: dict[frozenset[str], tuple[tuple[str, ...], float]] = {}
        edge_acvs: list[float] = []
        hyper_acvs: list[float] = []
        candidates = 0

        if total > 0:
            sync = self._sync_block
            baseline = sync(head, 0, ((),), row_codes).max_sums[0] / total
            others = [a for a in self._attributes if a != head]
            gamma_edge = config.gamma_edge
            gamma_hyperedge = config.gamma_hyperedge
            min_acv = config.min_acv

            single_acv: dict[str, float] = {}
            singles = sync(head, 1, tuple((a,) for a in others), row_codes)
            for tail, max_sum in zip(others, singles.max_sums):
                value = max_sum / total
                single_acv[tail] = value
                candidates += 1
                if value >= gamma_edge * baseline and value >= min_acv:
                    desired[frozenset((tail,))] = ((tail,), value)
                    edge_acvs.append(value)

            pair_pool: list[str] = []
            if config.include_hyperedges:
                if config.max_tail_candidates is None:
                    pair_pool = others
                else:
                    pair_pool = sorted(
                        others, key=lambda a: single_acv[a], reverse=True
                    )
                    pair_pool = pair_pool[: config.max_tail_candidates]
            # A pool of fewer than two tails has no pairs to count.
            if len(pair_pool) >= 2:
                index = self._attr_index
                # The block keys pairs in canonical (attribute) order, so
                # its candidate set survives pool reorderings.
                canonical_pool = sorted(pair_pool, key=index.__getitem__)
                pairs = sync(
                    head, 2, tuple(combinations(canonical_pool, 2)), row_codes
                )
                pair_rows, pair_sums = pairs.row_of, pairs.max_sums
                for first, second in combinations(pair_pool, 2):
                    if index[first] < index[second]:
                        pair = (first, second)
                    else:
                        pair = (second, first)
                    value = pair_sums[pair_rows[pair]] / total
                    candidates += 1
                    best_constituent = max(single_acv[first], single_acv[second])
                    if (
                        value >= gamma_hyperedge * best_constituent
                        and value >= min_acv
                    ):
                        # Payload tails keep the batch builder's iteration
                        # order so association tables compare equal to a
                        # batch build even when the pool was ACV-sorted.
                        desired[frozenset(pair)] = ((first, second), value)
                        hyper_acvs.append(value)

        self._head_summary[head] = _HeadSummary(
            tuple(edge_acvs), tuple(hyper_acvs), candidates
        )

        # Reconcile the hypergraph's in-edges of this head: drop edges no
        # longer significant, then re-insert every desired edge in canonical
        # candidate order (re-insertion moves an edge to the end of the
        # insertion-ordered indices).  After any refresh the head's in-edge
        # order is therefore a pure function of the current rows — not of
        # the refresh cadence that led here — which is what lets storage
        # recovery (replay rows, refresh once) reproduce the exact edge
        # order of an engine that refreshed at every checkpoint.
        changed: set[str] = set()
        head_set = frozenset((head,))
        hypergraph = self._hypergraph
        for edge in list(hypergraph.in_edges(head)):
            if edge.head == head_set and edge.tail not in desired:
                hypergraph.remove_edge(edge.tail, edge.head)
                self._stale_payloads.pop((edge.tail, head_set), None)
                changed.add(head)
                changed.update(edge.tail)
        for tail_key, (tails, value) in desired.items():
            existing = hypergraph.get_edge(tail_key, head_set)
            hypergraph.add_edge(
                tails,
                [head],
                weight=value,
                payload=existing.payload if existing is not None else None,
            )
            self._stale_payloads[(tail_key, head_set)] = (tails, head, total)
            changed.add(head)
            changed.update(tail_key)

        # Exact change detection for the index shard and topology versions:
        # compare the reconciled in-edge signature against the one the
        # head's shard was compiled under.
        topo: set[str] = set()
        signature = self._current_signature(head)
        previous = self._head_signatures.get(head)
        if previous != signature:
            self._head_signatures[head] = signature
            self._shard_versions[head] += 1
            self._dirty_shards.add(head)
            old_weights = dict(previous) if previous is not None else {}
            new_weights = dict(signature)
            for key in old_weights.keys() | new_weights.keys():
                if old_weights.get(key) != new_weights.get(key):
                    topo.add(head)
                    topo.update(key[0])
        return changed, topo

    def _materialize_payloads(self, heads: Iterable[str] | None = None) -> None:
        """Build the association tables of stale edges (all heads by default).

        Stale entries always describe the *current* refresh of their head
        (a newer refresh overwrites them), so the recorded total and the
        head's count blocks are mutually consistent.
        """
        if not self._stale_payloads:
            return
        if heads is None:
            keys = list(self._stale_payloads)
        else:
            head_sets = {frozenset((h,)) for h in heads}
            keys = [k for k in self._stale_payloads if k[1] in head_sets]
        decode = self._store.decode
        index = self._attr_index
        for key in keys:
            tails, head, total = self._stale_payloads.pop(key)
            canonical = tuple(sorted(tails, key=index.__getitem__))
            counts = self._blocks[(head, len(tails))].counts(canonical)
            if tails != canonical:
                # The block stores each candidate under the canonical
                # attribute order; permute its tail axes to the payload's.
                axes = [canonical.index(t) for t in tails] + [len(tails)]
                counts = counts.transpose(axes)
            table = association_table_from_counts(decode, tails, head, counts, total)
            self._hypergraph.update_edge(key[0], key[1], payload=table)

    # ------------------------------------------------------------------ count arrays
    def _sync_block(
        self,
        head: str,
        arity: int,
        groups: tuple[tuple[str, ...], ...],
        row_codes: dict[int, np.ndarray],
    ) -> _CountBlock:
        """The count block of ``head``'s ``groups``, current to the last row.

        The block is replaced by a new one — seeded from adopted states
        when they cover every candidate at one ``upto``, zeros otherwise —
        when the domain grew or states were adopted for it, and re-keyed
        (:meth:`_regroup_block`) when the candidate set changed.  Either way
        the rows it has not absorbed are then counted in
        (:meth:`_count_rows`) and the max sums recomputed.  Each candidate
        counts once per sync in ``EngineCounters``: as a rebuild when it
        was counted from row 0, as an increment otherwise.
        """
        store = self._store
        n, generation = store.num_rows, store.generation
        key = (head, arity)
        block = self._blocks.get(key)
        adopted = self._adopted.pop(key, None)
        entering = 0
        if block is None or block.generation != generation or adopted is not None:
            block = self._new_block(arity, groups, adopted or {})
            self._blocks[key] = block
        elif block.groups != groups:
            block, entering = self._regroup_block(head, block, groups, row_codes)
            self._blocks[key] = block
        start = block.upto
        if start < n:
            codes = self._row_codes(start, row_codes)
            if len(groups) > 1:
                # The obs batch metrics cover multi-candidate syncs only.
                _OBS_BATCH_CANDIDATES.record(len(groups))
                with _OBS_BATCH_REFRESH.time(head=head, candidates=len(groups)):
                    self._count_rows(head, block, codes)
            else:
                self._count_rows(head, block, codes)
            block.upto = n
            if start == 0:
                self._table_rebuilds += len(groups)
                _OBS_TABLE_REBUILDS.inc(len(groups))
            elif len(groups) > entering:
                self._table_increments += len(groups) - entering
                _OBS_TABLE_INCREMENTS.inc(len(groups) - entering)
        if start < n or block.max_sums is None:
            group_max = batched_group_max(block.matrix, store.cardinality)
            block.max_sums = group_max.sum(axis=1).tolist()
        return block

    def _new_block(
        self,
        arity: int,
        groups: tuple[tuple[str, ...], ...],
        adopted: Mapping[tuple[str, ...], tuple[np.ndarray, int]],
    ) -> _CountBlock:
        """A block over ``groups``, seeded from ``adopted`` states if it can be.

        Adopted states seed the block only when they cover every candidate
        and all absorbed the same number of rows; otherwise the block
        starts empty at row 0 (a rebuild).
        """
        store = self._store
        cardinality = store.cardinality
        index = self._attr_index
        tail_indices = np.array(
            [[index[a] for a in tails] for tails in groups], dtype=np.int64
        )
        columns, selector = np.unique(tail_indices, return_inverse=True)
        selector = selector.reshape(len(groups), arity)
        shape = (cardinality,) * (arity + 1)
        picked = [adopted.get(tails) for tails in groups]
        uptos = {state[1] for state in picked if state is not None}
        if groups and None not in picked and len(uptos) == 1:
            matrix = np.stack([counts.reshape(-1) for counts, _ in picked])
            upto = uptos.pop()
        else:
            matrix = np.zeros((len(groups), cardinality ** (arity + 1)), np.int64)
            upto = 0
        return _CountBlock(
            groups, columns, selector, shape, matrix, upto, store.generation
        )

    def _regroup_block(
        self,
        head: str,
        old: _CountBlock,
        groups: tuple[tuple[str, ...], ...],
        row_codes: dict[int, np.ndarray],
    ) -> tuple[_CountBlock, int]:
        """``old`` re-keyed to ``groups``, at ``old.upto``; also how many entered.

        Candidates in both keep their rows of ``old``; only the entering
        ones are counted, over the rows ``old`` has absorbed, so a pool
        change costs its new candidates' history rather than the whole
        block's.
        """
        arity = old.selector.shape[1]
        block = self._new_block(arity, groups, {})
        kept = [row for row, tails in enumerate(groups) if tails in old.row_of]
        block.matrix[kept] = old.matrix[[old.row_of[groups[row]] for row in kept]]
        entering = tuple(tails for tails in groups if tails not in old.row_of)
        if entering:
            fresh = self._new_block(arity, entering, {})
            codes = self._row_codes(0, row_codes)[:, : old.upto]
            self._count_rows(head, fresh, codes)
            block.matrix[[block.row_of[tails] for tails in entering]] = fresh.matrix
            self._table_rebuilds += len(entering)
            _OBS_TABLE_REBUILDS.inc(len(entering))
        block.upto = old.upto
        return block, len(entering)

    def _row_codes(self, start: int, cache: dict[int, np.ndarray]) -> np.ndarray:
        """Codes of rows ``[start, n)`` as an ``(attributes, rows)`` matrix."""
        codes = cache.get(start)
        if codes is None:
            store = self._store
            codes = np.stack([store.codes(a)[start:] for a in self._attributes])
            cache[start] = codes
        return codes

    def _count_rows(self, head: str, block: _CountBlock, codes: np.ndarray) -> None:
        """Add the rows in ``codes`` to every candidate of ``block``.

        Candidate ``g``'s cell codes are offset by ``g * cells`` so one
        ``bincount`` per tile yields every candidate's histogram side by
        side.  Each of the block's tail columns is scaled by its place
        value once per sync — the last tail together with the head
        column — so a tile costs one gather and one add per tail.  A tile
        holds at most ``_TILE_ELEMENTS`` codes, which bounds the
        temporaries.
        """
        cardinality = self._store.cardinality
        head_codes = codes[self._attr_index[head]]
        candidates, cells = block.matrix.shape
        arity = block.selector.shape[1]
        if arity == 0:
            block.matrix[0] += np.bincount(head_codes, minlength=cells)
            return
        used = codes[block.columns]
        scaled = [used * cardinality ** (arity - p) for p in range(arity - 1)]
        used *= cardinality
        used += head_codes
        scaled.append(used)
        step = max(1, _TILE_ELEMENTS // head_codes.size)
        offsets = np.arange(min(step, candidates), dtype=np.int64)[:, None] * cells
        for lo in range(0, candidates, step):
            hi = min(lo + step, candidates)
            tile = block.selector[lo:hi]
            combined = scaled[0][tile[:, 0]]
            combined += offsets[: hi - lo]
            for position in range(1, arity):
                combined += scaled[position][tile[:, position]]
            counts = np.bincount(combined.reshape(-1), minlength=(hi - lo) * cells)
            block.matrix[lo:hi] += counts.reshape(hi - lo, cells)

    # ------------------------------------------------------------------ count-state persistence
    def count_state_stamp(self) -> dict[str, int]:
        """The stamp pinning exported count states to this engine's code space."""
        store = self._store
        return {
            "domain_crc32": store.domain_crc32(),
            "cardinality": store.cardinality,
            "num_attributes": len(self._attributes),
            "num_rows": store.num_rows,
        }

    def export_count_states(
        self, heads: Iterable[str] | None = None
    ) -> dict[tuple[int, ...], tuple[np.ndarray, int]]:
        """The persistent count arrays, keyed by attribute-index candidates.

        ``heads`` restricts the export to candidates of the given head
        attributes (the storage layer's delta checkpoints pass exactly the
        dirty heads).  Keys are ``(head,)`` for per-column baseline counts
        and ``(head, *tails)`` for contingency tables; values are
        ``(counts, upto)`` pairs ready for
        :func:`repro.engine.counts.save_count_states`; the arrays are views
        of the engine's live count blocks.  Blocks left behind by an earlier
        domain generation are omitted — their code space no longer exists —
        and adopted states not yet merged into a block are exported as
        adopted.
        """
        self._materialize_staged_counts()
        index = self._attr_index
        wanted: set[str] | None = None
        if heads is not None:
            wanted = set()
            for head in heads:
                self._require_attribute(head)
                wanted.add(head)
        generation = self._store.generation
        states: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}
        for (head, _arity), block in self._blocks.items():
            if block.generation == generation and (wanted is None or head in wanted):
                for tails in block.groups:
                    key = (index[head],) + tuple(index[t] for t in tails)
                    states[key] = (block.counts(tails), block.upto)
        for (head, _arity), adopted in self._adopted.items():
            if wanted is None or head in wanted:
                for tails, state in adopted.items():
                    states[(index[head],) + tuple(index[t] for t in tails)] = state
        return states

    def stage_count_states(self, loader: Any) -> None:
        """Register a deferred source of count states (the recovery hook).

        ``loader`` is a zero-argument callable returning what
        :meth:`adopt_count_states` accepts (possibly empty).  It is
        invoked at most once — by the first refresh that would otherwise
        rebuild count arrays from rows — so recoveries that only serve
        already-materialized query results never pay for it.  Staging
        replaces any previously staged loader.
        """
        self._count_loader = loader

    def _materialize_staged_counts(self) -> None:
        """Invoke and clear the staged count-state loader, if any."""
        if self._count_loader is None:
            return
        loader, self._count_loader = self._count_loader, None
        states = loader()
        if states:
            self.adopt_count_states(states)

    def adopt_count_states(
        self, states: Mapping[tuple[int, ...], tuple[np.ndarray, int]]
    ) -> int:
        """Attach restored count arrays (the recovery hook); returns how many.

        Each state must describe this engine's attribute and code space
        (callers gate on :meth:`count_state_stamp` — in particular the
        domain digest — before adopting); a state whose ``upto`` is behind
        the store is fine and is caught up incrementally on its head's
        next refresh, which is what makes recovery O(new rows).  Adopted
        states replace their candidates' counts at that refresh: a head's
        block is seeded from them when they cover all its candidates at
        one ``upto``, and rebuilt from the rows otherwise.  A state that is
        structurally impossible against the current store raises
        :class:`~repro.exceptions.EngineError`.
        """
        store = self._store
        cardinality = store.cardinality
        num_rows = store.num_rows
        num_attributes = len(self._attributes)
        attributes = self._attributes
        int64 = np.int64
        adopted = 0
        for key, (counts, upto) in states.items():
            if not key or min(key) < 0 or max(key) >= num_attributes:
                raise EngineError(
                    f"count-state key {key!r} names attributes outside the "
                    f"{num_attributes}-attribute model"
                )
            if not 0 <= upto <= num_rows:
                raise EngineError(
                    f"count state {key!r} absorbed {upto} rows but the store "
                    f"holds only {num_rows}"
                )
            array = counts
            if array.dtype != int64 or not array.flags.c_contiguous:
                array = np.ascontiguousarray(array, dtype=int64)
            if array.shape != (cardinality,) * len(key):
                raise EngineError(
                    f"count state {key!r} has shape {array.shape}; the "
                    f"{cardinality}-value domain requires "
                    f"{(cardinality,) * len(key)}"
                )
            names = tuple(attributes[i] for i in key)
            pending = self._adopted.setdefault((names[0], len(names) - 1), {})
            pending[names[1:]] = (array, upto)
            adopted += 1
        return adopted

    # ------------------------------------------------------------------ statistics
    def stats(self) -> BuildStats:
        """Current build statistics, identical to a fresh batch build's."""
        self.refresh()
        edge_acvs: list[float] = []
        hyper_acvs: list[float] = []
        candidates = 0
        for head in self.head_attributes:
            summary = self._head_summary.get(head)
            if summary is None:
                continue
            edge_acvs.extend(summary.edge_acvs)
            hyper_acvs.extend(summary.hyper_acvs)
            candidates += summary.candidates
        return BuildStats(
            config_name=self.config.name,
            num_attributes=len(self._attributes),
            num_observations=self._store.num_rows,
            directed_edges=len(edge_acvs),
            hyperedges_2to1=len(hyper_acvs),
            mean_acv_edges=float(np.mean(edge_acvs)) if edge_acvs else 0.0,
            mean_acv_hyperedges=float(np.mean(hyper_acvs)) if hyper_acvs else 0.0,
            candidates_examined=candidates,
        )

    # ------------------------------------------------------------------ queries
    def similarity(self, first: str, second: str) -> float:
        """Memoized combined (in + out) similarity of two attributes."""
        self._require_attribute(first)
        self._require_attribute(second)
        if first == second:
            return 1.0
        with _OBS_QUERY_SIMILARITY.time():
            return self._similarity(first, second)

    def _similarity(self, first: str, second: str) -> float:
        self.refresh()
        a, b = sorted((first, second), key=str)
        key = ("similarity", a, b)
        # Exact topology stamps: similarity depends only on edge sets and
        # weights, so appends that leave both attributes' edges unchanged
        # (e.g. ones that only dirtied another head's shard) keep serving
        # from cache.
        stamp = (self._attr_topo_version[a], self._attr_topo_version[b])

        def compute() -> float:
            # A single pair does not justify compiling the whole index: use
            # it only when some earlier query already paid for a stitched
            # view that is still fresh; otherwise the per-pair reference
            # kernel is O(deg(a) + deg(b)) and — both paths summing with
            # fsum — bit-identical.
            if self._index_is_fresh():
                in_sim, out_sim = pair_similarity_components(self._stitched, a, b)
                return 0.5 * (in_sim + out_sim)
            return combined_similarity(self._hypergraph, a, b)

        return self._cache.get_or_compute(key, stamp, compute)

    def neighbors(
        self,
        attribute: str,
        *,
        limit: int | None = None,
        min_similarity: float = 0.0,
    ) -> tuple[tuple[str, float], ...]:
        """Attributes most similar to ``attribute``, best first.

        Returns ``(other, similarity)`` pairs sorted by descending
        similarity (ties broken by name), truncated to ``limit`` and
        filtered by ``min_similarity``.
        """
        self._require_attribute(attribute)
        with _OBS_QUERY_NEIGHBORS.time():
            self.refresh()
            key = ("neighbors", attribute, limit, min_similarity)
            stamp = self.index_version_vector

            def compute() -> tuple[tuple[str, float], ...]:
                scored = [
                    (other, self.similarity(attribute, other))
                    for other in self._attributes
                    if other != attribute
                ]
                scored = [(other, s) for other, s in scored if s >= min_similarity]
                scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
                return tuple(scored if limit is None else scored[:limit])

            return self._cache.get_or_compute(key, stamp, compute)

    def clusters(
        self, t: int | None = None, first_center: str | None = None
    ) -> AttributeClustering:
        """Memoized t-clustering of the attributes by association similarity.

        ``t`` defaults to ``round(sqrt(num_attributes))``, a standard
        heuristic when no sector count is known.
        """
        with _OBS_QUERY_CLUSTERS.time():
            self.refresh()
            if t is None:
                t = max(1, round(math.sqrt(len(self._attributes))))
            key = ("clusters", t, first_center)
            # Graph-global result: valid exactly as long as no shard changed.
            stamp = self.index_version_vector

            def compute() -> AttributeClustering:
                graph = build_similarity_graph(self._compiled_index())
                return cluster_attributes(graph, t, first_center=first_center)

            return self._cache.get_or_compute(key, stamp, compute)

    def dominators(
        self,
        *,
        algorithm: str = "set-cover",
        top_fraction: float | None = None,
        target: Iterable[str] | None = None,
    ) -> DominatorResult:
        """Memoized leading-indicator computation (Algorithms 5 / 6).

        ``algorithm`` is ``"set-cover"`` (Algorithm 6, the default) or
        ``"greedy"`` (Algorithm 5); ``top_fraction`` applies the Section 5.4
        ACV-threshold preprocessing before covering.
        """
        with _OBS_QUERY_DOMINATORS.time():
            self.refresh()
            target_key: tuple[str, ...] | None
            if target is None:
                target_key = None
            else:
                target_key = tuple(sorted(target, key=str))
            key = ("dominators", algorithm, top_fraction, target_key)
            stamp = self.index_version_vector
            if algorithm not in ("set-cover", "greedy"):
                raise ConfigurationError(
                    f"unknown dominator algorithm {algorithm!r} "
                    "(use 'set-cover' or 'greedy')"
                )

            def compute() -> DominatorResult:
                if top_fraction is None:
                    index = self._compiled_index()
                else:
                    pruned = threshold_by_top_fraction(self._hypergraph, top_fraction)
                    index = HypergraphIndex.from_hypergraph(
                        pruned, vertex_order=self._attributes
                    )
                if algorithm == "set-cover":
                    return dominator_set_cover(index, target=target_key)
                return dominator_greedy_cover(index, target=target_key)

            return self._cache.get_or_compute(key, stamp, compute)

    def classify(
        self,
        evidence: Mapping[str, Any],
        targets: Iterable[str] | None = None,
    ) -> dict[str, Prediction]:
        """Predict target attributes from an evidence assignment (Algorithm 9).

        Only the targets' heads are refreshed, and each per-target
        prediction is memoized under the target's attribute version, so a
        hot serving loop pays one dictionary lookup per (evidence, target)
        pair until the relevant hyperedges actually change.
        """
        if targets is None:
            target_list = [a for a in self._attributes if a not in evidence]
        else:
            target_list = list(targets)
            for t in target_list:
                self._require_attribute(t)
        with _OBS_QUERY_CLASSIFY.time(targets=len(target_list)):
            self.refresh(target_list)
            self._materialize_payloads(target_list)
            evidence_key = tuple(sorted(evidence.items(), key=lambda kv: str(kv[0])))
            classifier = AssociationBasedClassifier(
                self._hypergraph, index=self._compiled_index()
            )
            predictions: dict[str, Prediction] = {}
            for t in target_list:
                key = ("classify", t, evidence_key)
                stamp = self._attr_version[t]
                predictions[t] = self._cache.get_or_compute(
                    key, stamp, lambda t=t: classifier.predict_attribute(t, evidence)
                )
        return predictions

    # ------------------------------------------------------------------ snapshots
    def to_snapshot(self) -> dict[str, Any]:
        """The full engine state as a JSON-serializable document.

        Attribute names must be strings and domain values JSON-representable
        (the discretizers produce small integers, which round-trip exactly).
        """
        if not all(isinstance(a, str) for a in self._attributes):
            raise EngineError("snapshots require string attribute names")
        self.refresh()
        self._materialize_payloads()
        return {
            "format": SNAPSHOT_FORMAT,
            "model_version": self._model_version,
            # Counts plus a CRC over the exact edge keys and weights: a
            # stale sidecar from a *different* model with coincidentally
            # equal counts (e.g. left behind by ``save(index_arrays=False)``
            # over the same path) must still be refused at load.
            "index_stamp": {
                "model_version": self._model_version,
                "num_rows": self._store.num_rows,
                "num_edges": self._hypergraph.num_edges,
                "model_crc32": hypergraph_model_crc32(self._hypergraph),
            },
            "config": asdict(self.config),
            "attributes": list(self._attributes),
            "heads": list(self._heads) if self._heads is not None else None,
            "domain": list(self._store.domain),
            "columns": self._store.encoded_columns(),
            "hypergraph": hypergraph_to_dict(
                self._hypergraph,
                payload_encoder=lambda payload: payload.to_dict()
                if isinstance(payload, AssociationTable)
                else None,
            ),
            "stats": asdict(self.stats()),
            "head_summaries": {
                head: {
                    "edge_acvs": list(summary.edge_acvs),
                    "hyper_acvs": list(summary.hyper_acvs),
                    "candidates": summary.candidates,
                }
                for head, summary in self._head_summary.items()
            },
        }

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "AssociationEngine":
        """Rebuild an engine from :meth:`to_snapshot` output.

        The hypergraph (with association-table payloads) is restored
        directly, so no recomputation happens at load time; candidate count
        arrays are rebuilt lazily from the restored rows when the engine
        next needs them.
        """
        if data.get("format") != SNAPSHOT_FORMAT:
            raise EngineError(
                f"unknown snapshot format {data.get('format')!r}, expected {SNAPSHOT_FORMAT!r}"
            )
        config = BuildConfig(**data["config"])
        engine = cls(
            data["attributes"],
            config,
            heads=data["heads"],
            values=data["domain"],
        )
        engine._store = EncodedRowStore.from_codes(
            data["attributes"], data["domain"], data["columns"]
        )
        engine._hypergraph = hypergraph_from_dict(
            data["hypergraph"],
            payload_decoder=AssociationTable.from_dict,
        )
        engine._appended_rows = engine._store.num_rows
        engine._model_version = int(data.get("model_version", 0))
        engine._head_summary = {
            head: _HeadSummary(
                tuple(summary["edge_acvs"]),
                tuple(summary["hyper_acvs"]),
                summary["candidates"],
            )
            for head, summary in data.get("head_summaries", {}).items()
        }
        engine._dirty.clear()
        return engine

    @staticmethod
    def sidecar_path(path: str | Path) -> Path:
        """Where :meth:`save` puts the compiled-index ``.npz`` next to ``path``."""
        return Path(str(path) + ".npz")

    @staticmethod
    def counts_sidecar_path(path: str | Path) -> Path:
        """Where :meth:`save` puts the count-state archive next to ``path``."""
        return Path(str(path) + ".counts.npz")

    def save(
        self,
        path: str | Path,
        *,
        index_arrays: bool = True,
        count_arrays: bool | None = None,
    ) -> None:
        """Write the engine snapshot to ``path`` as JSON.

        With ``index_arrays`` (the default) the compiled sharded index is
        persisted alongside as an ``.npz`` sidecar (:meth:`sidecar_path`),
        stamped with the snapshot's model version and row/edge counts so
        :meth:`load` can hand the arrays straight to the first query.
        ``count_arrays`` (defaulting to ``index_arrays``) likewise persists
        the per-candidate contingency count states
        (:meth:`counts_sidecar_path`), so a loaded engine's first γ-refresh
        reads cached accumulators instead of sweeping every row.

        All files are written via temp-file + ``os.replace``, so a crash
        mid-save leaves the previous snapshot intact rather than a torn
        JSON or ``.npz``.
        """
        path = Path(path)
        snapshot = self.to_snapshot()
        atomic_write_text(path, json.dumps(snapshot))
        if index_arrays:
            save_index_snapshot(
                self.sidecar_path(path), self._compiled_index(), snapshot["index_stamp"]
            )
        if count_arrays is None:
            count_arrays = index_arrays
        if count_arrays:
            stamp = self.count_state_stamp()
            save_count_states(
                self.counts_sidecar_path(path),
                self.export_count_states(),
                domain_digest=stamp["domain_crc32"],
                cardinality=stamp["cardinality"],
                num_attributes=stamp["num_attributes"],
                num_rows=stamp["num_rows"],
            )

    @classmethod
    def load(cls, path: str | Path) -> "AssociationEngine":
        """Restore an engine previously written by :meth:`save`.

        When an ``.npz`` sidecar sits next to the JSON its stamp is
        validated against the document's ``index_stamp`` — any mismatch
        (stale sidecar, mixed files) raises
        :class:`~repro.exceptions.SnapshotVersionError` instead of silently
        recompiling or serving stale arrays.  A valid sidecar is attached
        lazily: the first query adopts the shards without a single shard
        compile.
        """
        path = Path(path)
        data = json.loads(path.read_text())
        engine = cls.from_snapshot(data)
        sidecar = cls.sidecar_path(path)
        if sidecar.exists():
            expected = data.get("index_stamp")
            if expected is None:
                raise SnapshotVersionError(
                    f"{sidecar} exists but {path} carries no index stamp to "
                    "validate it against; delete the sidecar or re-save"
                )
            _stamp, shards = load_index_snapshot(sidecar, expected_stamp=expected)
            total = sum(shard.num_edges for shard in shards)
            if total != engine._hypergraph.num_edges:
                raise SnapshotVersionError(
                    f"index sidecar {sidecar} holds {total} edges but the "
                    f"snapshot hypergraph has {engine._hypergraph.num_edges}"
                )
            engine._pending_shards = shards
        counts_sidecar = cls.counts_sidecar_path(path)
        if counts_sidecar.exists():
            archive = load_count_states(counts_sidecar)
            stamp = engine.count_state_stamp()
            if (
                not archive.matches_domain(
                    stamp["domain_crc32"], stamp["cardinality"]
                )
                or archive.num_attributes != stamp["num_attributes"]
                or archive.num_rows != stamp["num_rows"]
            ):
                raise SnapshotVersionError(
                    f"count-state sidecar {counts_sidecar} does not match the "
                    f"snapshot's rows and domain; refusing to adopt stale "
                    "count arrays — delete the sidecar or re-save"
                )
            engine.adopt_count_states(archive.states)
        return engine
