"""Multiprocess sharded execution of the fused tile-batch kernels.

The ``sharded`` backend reuses the whole fused pipeline — packing, shape
grouping, content dedup, cache composition — and parallelizes only the
compute-bound step: the batched prefix-selection/record kernel over the
deduplicated tile stacks. Stacks are split into contiguous shards across
a persistent :class:`~concurrent.futures.ProcessPoolExecutor`; workers
receive raw packed bytes (codes + popcounts), never pickled tile
objects, and return raw record bytes.

Determinism: shard boundaries depend only on the stack size and worker
count, shard results are concatenated in submission order, and the
deduplicated stack order itself is byte-sorted
(:func:`~repro.engine.fused.dedup_tiles`) — so tile records are
bit-identical to the ``fused`` and ``reference`` backends for *any*
worker count.

Supervision: a crashed worker breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`
(``BrokenProcessPool``).  Instead of staying poisoned forever, the
backend discards the broken pool, rebuilds it within a bounded budget
(``max_rebuilds``), and re-dispatches the shards — the retried result is
bit-identical because shard inputs are pure functions of the stack.
When the budget is exhausted it either degrades to the in-process fused
path (``degrade=True``) or raises :class:`PoolBrokenError`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.engine import faults
from repro.engine.backends import register_backend, validate_workers
from repro.engine.fused import FusedBackend, add_stage, records_from_codes_batch

__all__ = ["PoolBrokenError", "ShardedBackend", "shard_bounds"]

#: Below this many tiles a stack runs inline: pool round-trips would
#: dominate the kernel time.
MIN_TILES_PER_SHARD = 8


class PoolBrokenError(RuntimeError):
    """The sharded worker pool broke and the rebuild budget is spent.

    Raised only with ``degrade=False``; the default configuration falls
    back to the in-process fused path instead.  Carries no partial
    results — the failed dispatch produced none.
    """


def shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, deterministic ``[start, end)`` splits of ``total`` items."""
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    bounds = []
    start = 0
    for i in range(shards):
        end = start + base + (1 if i < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def _worker_records(payload: tuple) -> tuple[bytes, float, float]:
    """Pool entry point: rebuild arrays from raw bytes, run the kernel.

    ``payload`` is ``(code_bytes, code_dtype, shape, pop_bytes, k)``.
    Returns the ``(T, len(TILE_RECORD_FIELDS))`` int64 records as bytes
    plus the worker's own select/record stage seconds, so the parent can
    attribute its wall-clock to the right profile stages.
    """
    faults.worker_tick()
    code_bytes, code_dtype, shape, pop_bytes, k = payload
    codes = np.frombuffer(code_bytes, dtype=code_dtype).reshape(shape)
    popcounts = np.frombuffer(pop_bytes, dtype=np.int64).reshape(shape[:2])
    profile: dict[str, float] = {}
    records = records_from_codes_batch(codes, popcounts, k, profile=profile)
    return records.tobytes(), profile.get("select", 0.0), profile.get("record", 0.0)


@register_backend
class ShardedBackend(FusedBackend):
    """Fused kernels sharded across a persistent process pool.

    The pool is spawned lazily on first use, persists across calls, and
    is released by :meth:`close` (idempotent) or by using the backend as
    a context manager — sweep loops and repeated simulator construction
    must route through one of those so pools are reused, never leaked.

    Parameters
    ----------
    workers:
        Process count. ``1`` runs the fused kernel inline (no pool);
        ``None`` uses ``os.cpu_count()`` capped at 8.
    max_rebuilds:
        Lifetime budget of pool rebuilds after ``BrokenProcessPool``
        before the backend stops retrying (``[resilience]
        max_pool_rebuilds`` in the config).
    degrade:
        When the rebuild budget is spent: ``True`` falls back to the
        in-process fused path for the rest of the backend's lifetime,
        ``False`` raises :class:`PoolBrokenError`.
    """

    name = "sharded"

    def __init__(
        self,
        workers: int | None = None,
        max_rebuilds: int = 2,
        degrade: bool = True,
    ):
        super().__init__()
        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        self.workers = validate_workers(workers)
        if int(max_rebuilds) < 0:
            raise ValueError(f"max_rebuilds must be >= 0, got {max_rebuilds}")
        self.max_rebuilds = int(max_rebuilds)
        self.degrade = bool(degrade)
        self._pool: ProcessPoolExecutor | None = None
        #: Pools spawned over this backend's lifetime. Stays at 1 across
        #: any number of calls (and at 0 until the pool path engages) —
        #: sweep loops and repeated engine runs must reuse, not respawn.
        self.pools_spawned = 0
        #: Supervision counters surfaced through :meth:`failure_counters`
        #: into ``EngineReport`` / scheduler stats.
        self.pool_rebuilds = 0
        self.retries = 0
        self.degraded = False

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self.pools_spawned += 1
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its corpse."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except BaseException:  # noqa: BLE001 - already broken
                pass

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __del__(self):  # best effort; explicit close() is preferred
        # GC may run during interpreter shutdown, when the executor's
        # management thread and queues are already half torn down and
        # shutdown(wait=True) can raise or hang. Detach the pool first
        # (so a failed shutdown is never retried), never wait, and
        # swallow everything — a backend collected without close() must
        # not print teardown noise.
        try:
            pool = getattr(self, "_pool", None)
            if pool is None:
                return
            self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
        except BaseException:  # noqa: BLE001 - teardown must stay silent
            pass

    def failure_counters(self) -> dict:
        return {
            "pool_rebuilds": self.pool_rebuilds,
            "retries": self.retries,
            "degraded": self.degraded,
        }

    # -- kernel dispatch ------------------------------------------------
    def _compute_records(
        self,
        codes: np.ndarray,
        popcounts: np.ndarray,
        k: int,
        profile: dict[str, float] | None = None,
    ) -> np.ndarray:
        total = codes.shape[0]
        if self.degraded or self.workers == 1 or total < 2 * MIN_TILES_PER_SHARD:
            return super()._compute_records(codes, popcounts, k, profile)
        faults.kernel_fault("sharded.dispatch")
        while True:
            try:
                return self._dispatch_shards(codes, popcounts, k, profile)
            except BrokenProcessPool as exc:
                self._discard_pool()
                # A harness-killed worker spent one trigger in the child;
                # burn it from the parent-side budget so rebuilt pools
                # fork clean workers once the fault is exhausted.
                faults.consume("worker_crash")
                if self.pool_rebuilds < self.max_rebuilds:
                    self.pool_rebuilds += 1
                    self.retries += 1
                    continue
                if self.degrade:
                    self.degraded = True
                    return super()._compute_records(codes, popcounts, k, profile)
                raise PoolBrokenError(
                    "sharded worker pool broke and the rebuild budget "
                    f"({self.max_rebuilds}) is exhausted"
                ) from exc

    def _dispatch_shards(
        self,
        codes: np.ndarray,
        popcounts: np.ndarray,
        k: int,
        profile: dict[str, float] | None,
    ) -> np.ndarray:
        """One pooled dispatch over the stack; raises ``BrokenProcessPool``
        if a worker dies (the supervisor in :meth:`_compute_records`
        rebuilds and re-dispatches — inputs are pure, so a retry is
        bit-identical)."""
        total = codes.shape[0]
        start = time.perf_counter()
        shards = min(self.workers, max(1, total // MIN_TILES_PER_SHARD))
        bounds = shard_bounds(total, shards)
        pool = self._ensure_pool()
        popcounts = np.ascontiguousarray(popcounts, dtype=np.int64)
        futures = [
            pool.submit(
                _worker_records,
                (
                    np.ascontiguousarray(codes[lo:hi]).tobytes(),
                    codes.dtype.str,
                    (hi - lo,) + codes.shape[1:],
                    popcounts[lo:hi].tobytes(),
                    k,
                ),
            )
            for lo, hi in bounds
        ]
        # Submission-order collection keeps the merge deterministic for
        # any worker count and completion order.
        parts = []
        select_seconds = 0.0
        record_seconds = 0.0
        for future, (lo, hi) in zip(futures, bounds):
            record_bytes, worker_select, worker_record = future.result()
            select_seconds += worker_select
            record_seconds += worker_record
            parts.append(
                np.frombuffer(record_bytes, dtype=np.int64).reshape(
                    hi - lo, len(TILE_RECORD_FIELDS)
                )
            )
        records = np.concatenate(parts) if parts else np.empty(
            (0, len(TILE_RECORD_FIELDS)), dtype=np.int64
        )
        # Workers overlap, so their stage times exceed wall-clock; split
        # the measured elapsed proportionally (dispatch/IPC overhead
        # follows the dominant select stage).
        elapsed = time.perf_counter() - start
        kernel_seconds = select_seconds + record_seconds
        record_share = (
            elapsed * record_seconds / kernel_seconds if kernel_seconds else 0.0
        )
        add_stage(profile, "record", record_share)
        add_stage(profile, "select", elapsed - record_share)
        return records
