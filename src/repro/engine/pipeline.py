"""Batched whole-network ProSparsity runs with a content-hash forest cache.

SNN traces repeat themselves: the same spike tile recurs across time
steps, and layers often share activation structure. The engine therefore
keys every per-tile artifact (record or forest) by a BLAKE2 digest of the
tile's ``np.packbits`` content, so a repeated tile is a cache hit instead
of a recompute. On top of that, every call runs through the
:class:`~repro.engine.planner.TracePlanner`: all tiles of a trace are
bucketed by shape and deduplicated by content, amortizing packing and
Python dispatch over many layers/timesteps.

:class:`ProsperityEngine` is the high-throughput entry point used by the
CLI (``repro run``), the architecture simulator, and the throughput
benchmark; it mirrors the :mod:`repro.core` transform contract exactly.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from repro.core.dispatch import build_dispatch_plan
from repro.core.forest import ProSparsityForest
from repro.core.prosparsity import (
    DEFAULT_TILE_K,
    DEFAULT_TILE_M,
    TILE_RECORD_FIELDS,
    ProSparsityResult,
    ProSparsityStats,
    TileTransform,
    _sample_tiles,
    forest_record,
    validate_tile_shape,
)
from repro.core.spike_matrix import SpikeMatrix, SpikeTile
from repro.engine.backends import (
    DEFAULT_BACKEND,
    Backend,
    ReferenceBackend,
    get_backend,
)
from repro.engine.planner import (
    PLANNED_PROFILE_STAGES,
    TracePlanner,
    validate_plan_mode,
)
from repro.snn.trace import GeMMWorkload, ModelTrace

__all__ = [
    "BatchAccount",
    "EngineReport",
    "ForestCache",
    "ProsperityEngine",
    "WorkloadRun",
    "stats_from_records",
]

_FIELD = {name: i for i, name in enumerate(TILE_RECORD_FIELDS)}


def stats_from_records(
    records: np.ndarray, sample_fraction: float = 1.0
) -> ProSparsityStats:
    """Aggregate tile records into :class:`ProSparsityStats` in one pass."""
    stats = ProSparsityStats(sample_fraction=sample_fraction)
    if records.size == 0:
        return stats
    m_col = records[:, _FIELD["m"]]
    stats.elements = int((m_col * records[:, _FIELD["k"]]).sum())
    stats.bit_nnz = int(records[:, _FIELD["bit_nnz"]].sum())
    stats.product_nnz = int(records[:, _FIELD["product_nnz"]].sum())
    stats.rows = int(m_col.sum())
    stats.em_rows = int(records[:, _FIELD["em_rows"]].sum())
    stats.reused_rows = int(records[:, _FIELD["reused_rows"]].sum())
    stats.zero_residual_rows = int(records[:, _FIELD["zero_residual_rows"]].sum())
    stats.zero_bit_rows = int(records[:, _FIELD["zero_bit_rows"]].sum())
    stats.tiles = len(records)
    return stats


class ForestCache:
    """LRU cache of per-tile artifacts keyed by tile content hash.

    One entry per distinct tile content holds the statistics record
    and/or the forest arrays, filled lazily by whichever path touched the
    tile first. Forest arrays are stored coordinate-free so a hit can be
    rebound to a tile at any position in any matrix.

    ``store`` layers a persistent
    :class:`~repro.engine.store.ResultStore` underneath the *record*
    slot: a memory miss consults the store (counted as a memory miss
    plus a store hit/miss — the two tiers stay separately observable),
    a store hit backfills the memory entry, and every record put also
    publishes durably. Forests stay memory-only — they rebuild cheaply
    and their arrays dwarf the 72-byte records the store is sized for.
    """

    def __init__(self, capacity: int = 1024, store=None):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.store = store
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, dict] = OrderedDict()
        # Engines are shared across threads by the serving scheduler
        # (a session's direct calls can overlap the dispatcher), so the
        # LRU mutations and counters are guarded.
        self._mutex = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def key(m: int, k: int, packed: np.ndarray) -> tuple:
        """Content key: shape plus a BLAKE2 digest of the packed bits."""
        digest = hashlib.blake2b(
            np.ascontiguousarray(packed).tobytes(), digest_size=16
        ).digest()
        return (m, k, digest)

    def _lookup(self, key: tuple, slot: str):
        with self._mutex:
            entry = self._entries.get(key)
            value = entry.get(slot) if entry is not None else None
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def _store(self, key: tuple, slot: str, value) -> None:
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                entry = {}
                self._entries[key] = entry
            entry[slot] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    # -- records (keyed by :meth:`key`) -----------------------------------
    def get_record_by_key(self, key: tuple):
        """Record lookup with a precomputed :meth:`key` (hash once per
        unique tile content, as the fused/sharded dedup does).

        Tiered: memory first, then the persistent store (whose file IO
        happens *outside* the LRU mutex); a store hit backfills memory
        so repeats within the process stay in-memory hits.
        """
        record = self._lookup(key, "record")
        if record is not None or self.store is None:
            return record
        record = self.store.get(key)
        if record is not None:
            self._store(key, "record", tuple(record))
        return record

    def put_record_by_key(self, key: tuple, record) -> None:
        self._store(key, "record", tuple(record))
        if self.store is not None:
            self.store.put(key, record)

    # -- forests --------------------------------------------------------
    def get_forest(self, tile: SpikeTile) -> ProSparsityForest | None:
        arrays = self._lookup(self.key(tile.m, tile.k, tile.packed), "forest")
        if arrays is None:
            return None
        prefix, pattern, popcounts = arrays
        return ProSparsityForest(
            tile=tile, prefix=prefix, pattern=pattern, popcounts=popcounts
        )

    def put_forest(self, tile: SpikeTile, forest: ProSparsityForest) -> None:
        self._store(
            self.key(tile.m, tile.k, tile.packed),
            "forest",
            (forest.prefix, forest.pattern, forest.popcounts),
        )


@dataclass
class WorkloadRun:
    """Transform outcome for one GeMM workload inside an engine run."""

    name: str
    kind: str
    tiles: int
    records: np.ndarray
    stats: ProSparsityStats
    seconds: float

    @property
    def tiles_per_sec(self) -> float:
        return self.tiles / self.seconds if self.seconds > 0 else 0.0


@dataclass(frozen=True)
class BatchAccount:
    """Wall-clock and counter deltas of one planned batch.

    Only :meth:`ProsperityEngine.execute_batch` measures one: it takes
    every snapshot inside the planner lock, so the deltas are the
    batch's own and never include another thread's run on the same
    engine. ``elapsed`` is the batch's plan+execute wall-clock (lock
    wait excluded) and ``profile`` its stage seconds, nested inside
    ``elapsed``. Accounts add up (``a + b``): times and counts sum,
    while the states ``store_active``/``degraded`` keep the later
    batch's value — a stream's report is the sum of its
    windows' accounts.
    """

    elapsed: float = 0.0
    profile: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType({})
    )
    planned_tiles: int = 0
    unique_tiles: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_corrupt: int = 0
    store_evictions: int = 0
    store_active: bool | None = None
    pool_rebuilds: int = 0
    retries: int = 0
    degraded: bool | None = None

    def __add__(self, other: "BatchAccount") -> "BatchAccount":
        profile = dict(self.profile)
        for stage, seconds in other.profile.items():
            profile[stage] = profile.get(stage, 0.0) + seconds
        summed = {name: getattr(self, name) + getattr(other, name) for name in _SUMMED}
        return replace(other, profile=MappingProxyType(profile), **summed)

    def seconds_for(self, tiles: int) -> float:
        """The batch wall-clock apportioned to ``tiles`` of its planned
        tiles — by tile count, not measured per workload."""
        return self.elapsed * tiles / self.planned_tiles if self.planned_tiles else 0.0

    def workload_runs(self, workloads, per_workload) -> list[WorkloadRun]:
        """One :class:`WorkloadRun` per workload/records pair, with
        apportioned :meth:`seconds_for`."""
        return [
            WorkloadRun(
                name=workload.name,
                kind=workload.kind,
                tiles=len(records),
                records=records,
                stats=stats_from_records(records),
                seconds=self.seconds_for(len(records)),
            )
            for workload, records in zip(workloads, per_workload)
        ]


#: Account fields that sum across batches (the rest are states).
_SUMMED = (
    "elapsed",
    "planned_tiles",
    "unique_tiles",
    "cache_hits",
    "cache_misses",
    "store_hits",
    "store_misses",
    "store_corrupt",
    "store_evictions",
    "pool_rebuilds",
    "retries",
)

#: Account fields an :class:`EngineReport` carries under the same name.
_REPORTED = tuple(
    f.name for f in fields(BatchAccount) if f.name not in ("elapsed", "profile")
)


@dataclass
class EngineReport:
    """Aggregate result of one batched engine run over a trace.

    ``profile`` breaks the run's wall-clock into pipeline stages (see
    :data:`~repro.engine.planner.PLANNED_PROFILE_STAGES`): ``pack`` (bit
    packing, padding), ``plan`` (bucket merge / arena fill), ``dedup``
    (global content dedup + cache traffic), ``select`` (prefix selection
    kernels / worker dispatch), ``record`` (residual popcounts, depths,
    record assembly), and ``scatter`` (per-workload scatter-back). Stage
    times nest inside the batch's own wall-clock, which is measured under the
    planner lock and excludes lock wait. :attr:`total_seconds` is that
    wall-clock apportioned to this report's workloads, so stage times
    sum to at most it — except in a coalesced scheduler batch, where
    every job's report carries the whole batch's profile but only its
    own share of the wall-clock. ``workers`` echoes the process count
    for sharded runs; ``planned_tiles``/``unique_tiles`` describe the
    cross-workload dedup. ``plan`` is ``"trace"`` for engine and
    scheduler runs and ``"stream"`` for streamed ones.
    """

    backend: str
    tile_m: int
    tile_k: int
    model: str = ""
    dataset: str = ""
    runs: list[WorkloadRun] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int | None = None
    profile: dict[str, float] = field(default_factory=dict)
    plan: str = "trace"
    planned_tiles: int = 0
    unique_tiles: int = 0
    #: Supervision deltas for this run (``sharded`` backend): worker
    #: pools rebuilt after ``BrokenProcessPool`` and kernel dispatches
    #: retried during the run. Zero for unsupervised backends.
    pool_rebuilds: int = 0
    retries: int = 0
    #: ``sharded`` only: True once the rebuild budget was exhausted and
    #: the backend fell back to the in-process fused path; ``None`` for
    #: unsupervised backends.
    degraded: bool | None = None
    #: Persistent-store deltas for this run (engines with a
    #: :class:`~repro.engine.store.ResultStore` attached): durable
    #: record hits/misses under the in-memory tier, entries quarantined
    #: after a checksum failure, and entries evicted past the byte
    #: budget. All zero when no store is configured.
    store_hits: int = 0
    store_misses: int = 0
    store_corrupt: int = 0
    store_evictions: int = 0
    #: True while a configured store is serving; False once it degraded
    #: to cache-off (unwritable/damaged directory); ``None`` without a
    #: store.
    store_active: bool | None = None

    @property
    def total_tiles(self) -> int:
        return sum(run.tiles for run in self.runs)

    @property
    def total_seconds(self) -> float:
        return sum(run.seconds for run in self.runs)

    @property
    def tiles_per_sec(self) -> float:
        seconds = self.total_seconds
        return self.total_tiles / seconds if seconds > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def dedup_ratio(self) -> float:
        """Cross-workload dedup multiplier: planned tiles per unique tile.

        ``0.0`` when no tile was planned.
        """
        return self.planned_tiles / self.unique_tiles if self.unique_tiles else 0.0

    @property
    def stats(self) -> ProSparsityStats:
        merged = ProSparsityStats()
        for run in self.runs:
            merged.merge(run.stats)
        return merged


class ProsperityEngine:
    """Batched, backend-pluggable ProSparsity execution engine.

    .. note:: Direct construction is the low-level path and remains
       supported, but :class:`repro.api.Session` is the canonical entry
       point: it builds this engine from a typed
       :class:`~repro.api.RunConfig` and shares one backend (and sharded
       pool) across runs, simulations, and sweeps.

    Parameters
    ----------
    backend:
        Backend name (``"reference"`` / ``"fused"`` / ``"sharded"``) or
        instance.
    cache_size:
        LRU capacity in distinct tile contents; ``0`` disables caching.
    workers:
        Process count for the ``sharded`` backend (rejected by backends
        that do not take it; ``None`` leaves the backend default).
    backend_options:
        Extra constructor options for name-constructed backends (e.g.
        the ``sharded`` supervision knobs ``max_rebuilds``/``degrade``
        from the ``[resilience]`` config section). ``None`` values are
        dropped; options a backend does not accept are rejected with
        the same typed error as :func:`~repro.engine.backends.
        get_backend`. Ignored for caller-supplied instances.
    plan:
        Execution-planning mode; only ``"trace"`` is accepted. Every
        call runs through the :class:`~repro.engine.planner.TracePlanner`
        — cross-workload shape buckets, one global content dedup per
        bucket, arena-backed buffers reused across runs.
    store:
        Optional :class:`~repro.engine.store.ResultStore` layered under
        the in-memory cache: record misses consult it before the kernel
        path and computed records publish to it durably. The engine
        never owns the store (sessions/schedulers share one across
        engines and close it); per-batch traffic deltas land in the
        ``store_*`` report fields. A store with ``cache_size == 0``
        still works — a minimal one-entry memory tier fronts it.
    """

    def __init__(
        self,
        backend: str | Backend = DEFAULT_BACKEND,
        tile_m: int = DEFAULT_TILE_M,
        tile_k: int = DEFAULT_TILE_K,
        cache_size: int = 1024,
        workers: int | None = None,
        plan: str = "trace",
        backend_options: dict | None = None,
        store=None,
    ):
        validate_tile_shape(tile_m, tile_k)
        # Ownership rule: backends constructed here (from a name) are
        # ours to close; caller-supplied instances stay open for their
        # other users.
        self._owns_backend = not isinstance(backend, Backend)
        options = dict(backend_options or {}) if self._owns_backend else {}
        self.backend = get_backend(backend, workers=workers, **options)
        self.tile_m = tile_m
        self.tile_k = tile_k
        self.store = store
        if cache_size:
            self.cache = ForestCache(cache_size, store=store)
        elif store is not None:
            self.cache = ForestCache(1, store=store)
        else:
            self.cache = None
        self.plan = validate_plan_mode(plan)
        self.planner = TracePlanner()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release engine resources: arena slabs always, and the
        backend (e.g. the sharded worker pool) when this engine
        constructed it from a name — shared instances stay open.
        Idempotent, and safe against a concurrently executing plan
        (the arena is only dropped once the planner is quiescent)."""
        with self.planner.exclusive():
            self.planner.arena.clear()
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ProsperityEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def execute_batch(
        self,
        sources: list,
        on_workload=None,
        tile_m: int | None = None,
        tile_k: int | None = None,
    ) -> tuple[list[np.ndarray], BatchAccount]:
        """Plan and execute one batch; the only place a batch is accounted.

        ``sources`` are planner sources (one :class:`SpikeMatrix` or
        sampled tile list per workload) and ``on_workload`` is passed to
        :meth:`~repro.engine.planner.TracePlanner.execute`. The planner
        is held exclusively for the whole batch, and the cache, store
        and supervision snapshots are taken inside that hold, so the
        returned :class:`BatchAccount` holds this batch's deltas only.
        Returns the per-workload records and the account.
        """
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        backend, cache, store = self.backend, self.cache, self.store

        def counters() -> dict:
            # Cache, store and supervision counters are lifetime totals;
            # the account carries their deltas over this batch.
            totals = dict(backend.failure_counters())
            if cache is not None:
                totals.update(cache_hits=cache.hits, cache_misses=cache.misses)
            if store is not None:
                totals.update(store.counters())
            return totals

        profile = dict.fromkeys(PLANNED_PROFILE_STAGES, 0.0)
        with self.planner.exclusive():
            before = counters()
            start = time.perf_counter()
            plan = self.planner.plan(sources, tile_m, tile_k, profile=profile)
            per_workload = self.planner.execute(
                plan, backend, cache=cache, profile=profile, on_workload=on_workload
            )
            elapsed = time.perf_counter() - start
            after = counters()
        if store is not None:
            # Publish this batch's new entries in the background now
            # that the kernels are done (puts buffer during the batch to
            # keep writer IO off the compute path).
            store.kick()
        account = BatchAccount(
            elapsed=elapsed,
            profile=MappingProxyType(profile),
            planned_tiles=plan.total_tiles,
            unique_tiles=plan.unique_tiles,
            store_active=store.enabled if store is not None else None,
            degraded=after.get("degraded"),
            **{name: after[name] - before[name] for name in _SUMMED if name in after},
        )
        return per_workload, account

    def build_report(
        self,
        account: BatchAccount,
        runs: list[WorkloadRun],
        model: str = "",
        dataset: str = "",
        plan: str | None = None,
    ) -> EngineReport:
        """The :class:`EngineReport` of ``runs`` under ``account`` — the
        one report constructor for engine, scheduler and stream runs."""
        return EngineReport(
            backend=self.backend.name,
            tile_m=self.tile_m,
            tile_k=self.tile_k,
            model=model,
            dataset=dataset,
            runs=list(runs),
            workers=getattr(self.backend, "workers", None),
            profile=dict(account.profile),
            plan=plan or self.plan,
            **{name: getattr(account, name) for name in _REPORTED},
        )

    # ------------------------------------------------------------------
    def _forest_for(self, tile: SpikeTile) -> ProSparsityForest:
        if self.cache is not None:
            forest = self.cache.get_forest(tile)
            if forest is not None:
                return forest
        forest = self.backend.forest(tile)
        if self.cache is not None:
            self.cache.put_forest(tile, forest)
        return forest

    # ------------------------------------------------------------------
    def transform_matrix(
        self,
        matrix: SpikeMatrix | np.ndarray,
        tile_m: int | None = None,
        tile_k: int | None = None,
        keep_transforms: bool = False,
        max_tiles: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> ProSparsityResult:
        """Drop-in, cache-aware equivalent of ``core.transform_matrix``.

        Records, statistics, and (when kept) forests are bit-identical to
        the core path for every backend; sampling draws the same RNG
        sequence so sampled runs match the core path tile for tile.
        """
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        validate_tile_shape(tile_m, tile_k)
        if not isinstance(matrix, SpikeMatrix):
            matrix = SpikeMatrix(matrix)
        result = ProSparsityResult()

        total_tiles = matrix.num_tiles(tile_m, tile_k)
        sampled = max_tiles is not None and total_tiles > max_tiles
        if sampled:
            if rng is None:
                rng = np.random.default_rng(0)
            tiles = _sample_tiles(matrix, tile_m, tile_k, max_tiles, rng)
            fraction = len(tiles) / total_tiles
        else:
            fraction = 1.0

        if keep_transforms:
            tile_iter = tiles if sampled else matrix.tile(tile_m, tile_k)
            records: list[tuple[int, ...]] = []
            for tile in tile_iter:
                forest = self._forest_for(tile)
                dispatch = build_dispatch_plan(forest)
                result.transforms.append(
                    TileTransform(tile=tile, forest=forest, plan=dispatch)
                )
                records.append(forest_record(forest))
            record_array = np.array(records, dtype=np.int64).reshape(
                len(records), len(TILE_RECORD_FIELDS)
            )
        else:
            # Sampled tiles and whole matrices land in the same shape
            # buckets, so sampling composes with the dedup.
            source = tiles if sampled else matrix
            per_workload, _ = self.execute_batch(
                [source], tile_m=tile_m, tile_k=tile_k
            )
            record_array = per_workload[0]
        result.tile_records = record_array
        result.stats = stats_from_records(record_array, sample_fraction=fraction)
        return result

    # ------------------------------------------------------------------
    def transform_trace(
        self,
        trace: ModelTrace | list,
        tile_m: int | None = None,
        tile_k: int | None = None,
        max_tiles: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> list[ProSparsityResult]:
        """Transform every workload of a trace, one result per workload.

        The whole trace is packed into one cross-workload plan (one
        kernel per shape bucket, one global dedup). ``max_tiles``
        sampling draws the same RNG sequence as calling
        :meth:`transform_matrix` per workload — workloads are visited in
        order and only sampled workloads consume draws — so records are
        bit-identical to that loop. Entries may be :class:`GeMMWorkload`
        or bare ``SpikeMatrix``.
        """
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        validate_tile_shape(tile_m, tile_k)
        workloads = list(trace.workloads if isinstance(trace, ModelTrace) else trace)
        matrices = [
            workload.spikes if hasattr(workload, "spikes") else workload
            for workload in workloads
        ]
        matrices = [
            matrix if isinstance(matrix, SpikeMatrix) else SpikeMatrix(matrix)
            for matrix in matrices
        ]
        sources: list = []
        fractions: list[float] = []
        for matrix in matrices:
            total_tiles = matrix.num_tiles(tile_m, tile_k)
            if max_tiles is not None and total_tiles > max_tiles:
                # rng=None mirrors transform_matrix exactly: that path
                # seeds a fresh default_rng(0) per *workload*, so the
                # trace plan must too or sampled tiles would diverge.
                workload_rng = (
                    rng if rng is not None else np.random.default_rng(0)
                )
                sampled = _sample_tiles(
                    matrix, tile_m, tile_k, max_tiles, workload_rng
                )
                sources.append(sampled)
                fractions.append(len(sampled) / total_tiles)
            else:
                sources.append(matrix)
                fractions.append(1.0)
        per_workload, _ = self.execute_batch(sources, tile_m=tile_m, tile_k=tile_k)
        results = []
        for records, fraction in zip(per_workload, fractions):
            result = ProSparsityResult()
            result.tile_records = records
            result.stats = stats_from_records(records, sample_fraction=fraction)
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def run(self, trace: ModelTrace | list[GeMMWorkload]) -> EngineReport:
        """Transform a whole trace in one cross-workload plan.

        The entire trace is packed into shape buckets: one kernel launch
        and one global content dedup per bucket, records scattered back
        per workload.
        """
        if isinstance(trace, ModelTrace):
            workloads = list(trace.workloads)
            model, dataset = trace.model, trace.dataset
        else:
            workloads = list(trace)
            model = dataset = ""
        per_workload, account = self.execute_batch(
            [workload.spikes for workload in workloads]
        )
        return self.build_report(
            account,
            account.workload_runs(workloads, per_workload),
            model=model,
            dataset=dataset,
        )

    # ------------------------------------------------------------------
    def execute_gemm(
        self,
        spike_matrix: SpikeMatrix | np.ndarray,
        weights: np.ndarray,
        tile_m: int | None = None,
        tile_k: int | None = None,
    ) -> np.ndarray:
        """Lossless spiking GeMM through the configured backend.

        Same contract as ``core.execute_gemm``. Tiles route through the
        planner's shape buckets: each *distinct* tile content builds its
        forest once per GeMM (content dedup on top of the forest cache)
        and partial sums accumulate in row-major tile order, so outputs
        match the core path exactly (integer weights) or up to float
        summation order, same as every backend pair.
        """
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        validate_tile_shape(tile_m, tile_k)
        if not isinstance(spike_matrix, SpikeMatrix):
            spike_matrix = SpikeMatrix(spike_matrix)
        weights = np.asarray(weights)
        if weights.shape[0] != spike_matrix.cols:
            raise ValueError(
                f"weight rows ({weights.shape[0]}) must match spike cols"
                f" ({spike_matrix.cols})"
            )
        out_dtype = (
            np.int64 if np.issubdtype(weights.dtype, np.integer) else np.float64
        )
        output = np.zeros((spike_matrix.rows, weights.shape[1]), dtype=out_dtype)
        col_tiles = -(-spike_matrix.cols // tile_k)
        with self.planner.exclusive():
            trace_plan = self.planner.plan([spike_matrix], tile_m, tile_k)
            partials: list[np.ndarray | None] = [None] * trace_plan.total_tiles
            for bucket in trace_plan.buckets:
                forests: dict[int, ProSparsityForest] = {}
                for index in range(bucket.tiles):
                    unique = int(bucket.inverse[index])
                    forest = forests.get(unique)
                    if forest is None:
                        tile = next(
                            TracePlanner._tiles_from_raw(
                                bucket, bucket.first[unique : unique + 1]
                            )
                        )
                        forest = self._forest_for(tile)
                        forests[unique] = forest
                    position = int(bucket.position[index])
                    col_start = (position % col_tiles) * tile_k
                    w_slice = weights[col_start : col_start + bucket.k]
                    partials[position] = self.backend.execute(forest, w_slice)
        # Accumulate in row-major tile order — the core path's float
        # summation order, independent of bucket iteration.
        for position, partial in enumerate(partials):
            if partial is None:
                raise RuntimeError(f"planned GeMM left tile {position} unexecuted")
            row_start = (position // col_tiles) * tile_m
            output[row_start : row_start + partial.shape[0]] += partial
        return output

    # ------------------------------------------------------------------
    def verify_trace(
        self,
        trace: ModelTrace | list[GeMMWorkload],
        max_tiles: int | None = None,
        seed: int = 0,
    ) -> bool:
        """Check this backend's records against the reference oracle.

        Both sides draw their tile samples from identically seeded RNGs,
        so sampled runs compare the very same tiles.
        """
        oracle = ProsperityEngine(
            backend=ReferenceBackend(),
            tile_m=self.tile_m,
            tile_k=self.tile_k,
            cache_size=0,
        )
        workloads = trace.workloads if isinstance(trace, ModelTrace) else trace
        for workload in workloads:
            mine = self.transform_matrix(
                workload.spikes,
                max_tiles=max_tiles,
                rng=np.random.default_rng(seed),
            )
            theirs = oracle.transform_matrix(
                workload.spikes,
                max_tiles=max_tiles,
                rng=np.random.default_rng(seed),
            )
            if not np.array_equal(mine.tile_records, theirs.tile_records):
                return False
        return True
