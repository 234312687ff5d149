"""repro.engine — batched, backend-pluggable ProSparsity execution.

The engine is the throughput layer above :mod:`repro.core`: it chooses a
:class:`~repro.engine.backends.Backend` (``reference`` oracle,
tile-batched ``fused`` kernels — the default — or multiprocess
``sharded`` execution), batches whole-network traces, and caches
per-tile forests by content hash. Every call runs through
:mod:`repro.engine.planner`: cross-workload shape buckets, one global
content dedup per bucket, and arena-backed buffers reused across runs.
Every backend is bit-identical to the core transform; the engine only
changes *how fast* the answer arrives.
"""

from repro.engine.backends import (
    DEFAULT_BACKEND,
    Backend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.faults import FaultInjected, FaultPlan, FaultSpec
from repro.engine.fused import FusedBackend
from repro.engine.parallel import PoolBrokenError, ShardedBackend
from repro.engine.planner import (
    PLAN_MODES,
    BufferArena,
    TracePlan,
    TracePlanner,
    validate_plan_mode,
)
from repro.engine.pipeline import (
    BatchAccount,
    EngineReport,
    ForestCache,
    ProsperityEngine,
    WorkloadRun,
    stats_from_records,
)
from repro.engine.store import ResultStore, StoreStats, default_store_path

__all__ = [
    "Backend",
    "BatchAccount",
    "BufferArena",
    "DEFAULT_BACKEND",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FusedBackend",
    "PLAN_MODES",
    "PoolBrokenError",
    "ReferenceBackend",
    "ResultStore",
    "ShardedBackend",
    "StoreStats",
    "TracePlan",
    "TracePlanner",
    "available_backends",
    "default_store_path",
    "get_backend",
    "register_backend",
    "validate_plan_mode",
    "EngineReport",
    "ForestCache",
    "ProsperityEngine",
    "WorkloadRun",
    "stats_from_records",
]
