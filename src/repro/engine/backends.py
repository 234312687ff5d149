"""Pluggable ProSparsity execution backends.

The engine separates *what* the ProSparsity transform computes (prefix
forests, tile records, lossless GeMM execution — defined by
:mod:`repro.core`) from *how* it is computed. This module holds the
backend interface, the registry, and the ``reference`` backend, which
delegates to the per-tile/per-row code in :mod:`repro.core.forest` and
:mod:`repro.core.prosparsity`. Slow but simple, it is the correctness
oracle every other backend is tested against.

Two more backends register themselves on import of :mod:`repro.engine`:
``fused`` (:mod:`repro.engine.fused` — tile-batched packed-code kernels,
the default) and ``sharded`` (:mod:`repro.engine.parallel` —
multiprocess tile-batch sharding). Every backend produces bit-identical
forests, tile records, and (for integer weights) GeMM outputs.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod

import numpy as np

from repro.core.dispatch import build_dispatch_plan
from repro.core.forest import ProSparsityForest, build_forest
from repro.core.prosparsity import TileTransform, execute_tile, forest_record
from repro.core.spike_matrix import SpikeTile

__all__ = [
    "DEFAULT_BACKEND",
    "Backend",
    "ReferenceBackend",
    "available_backends",
    "backend_accepts_option",
    "backend_option_error",
    "get_backend",
    "register_backend",
    "unknown_backend_error",
    "validate_workers",
]

#: The backend every entry point uses unless told otherwise.
DEFAULT_BACKEND = "fused"

#: Removed backend names and the backend that replaced each.
_REMOVED_BACKENDS = {"compiled": "fused", "vectorized": "fused"}


class Backend(ABC):
    """Strategy interface for the ProSparsity transform and execution.

    Implementations must be *observationally identical* to the reference
    backend: same forests, same tile records, same integer GeMM outputs.
    Floating-point GeMM outputs may differ by summation order only.
    """

    name: str = "abstract"

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (worker pools etc.); idempotent.

        Most backends hold none — the base implementation is a no-op —
        but callers that construct backends by name should always close
        them (or use the backend as a context manager) so pool-backed
        backends like ``sharded`` never leak processes.
        """

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def failure_counters(self) -> dict:
        """Lifetime supervision counters for this backend.

        Supervised backends (``sharded``) report ``pool_rebuilds`` /
        ``retries`` / ``degraded``; the base returns an empty dict so
        callers can snapshot-and-diff uniformly (see
        ``ProsperityEngine.execute_batch``, which surfaces per-batch
        deltas in ``EngineReport``).
        """
        return {}

    # -- transform ------------------------------------------------------
    @abstractmethod
    def forest(self, tile: SpikeTile) -> ProSparsityForest:
        """Build the pruned prefix forest for one tile."""

    def tile_record(self, tile: SpikeTile) -> tuple[int, ...]:
        """Per-tile statistics record (see ``TILE_RECORD_FIELDS``)."""
        return forest_record(self.forest(tile))

    # -- execution ------------------------------------------------------
    @abstractmethod
    def execute(self, forest: ProSparsityForest, weights: np.ndarray) -> np.ndarray:
        """Execute one tile's forest against a ``(k, n)`` weight slice."""


class ReferenceBackend(Backend):
    """The per-tile/per-row oracle: exactly the :mod:`repro.core` path."""

    name = "reference"

    def forest(self, tile: SpikeTile) -> ProSparsityForest:
        return build_forest(tile)

    def execute(self, forest: ProSparsityForest, weights: np.ndarray) -> np.ndarray:
        plan = build_dispatch_plan(forest)
        transform = TileTransform(tile=forest.tile, forest=forest, plan=plan)
        return execute_tile(transform, weights)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, type[Backend]] = {}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Register a backend class under its ``name`` (later scaling seam)."""
    _BACKENDS[cls.name] = cls
    return cls


def unknown_backend_error(backend: str) -> ValueError:
    """The canonical unknown-backend error, shared by every entry point.

    A removed backend's name gets an error naming its replacement.
    """
    if backend in _REMOVED_BACKENDS:
        return ValueError(
            f"backend {backend!r} was removed; use "
            f"{_REMOVED_BACKENDS[backend]!r}, which gives bit-identical records"
        )
    return ValueError(
        f"unknown backend {backend!r}; "
        f"available: {', '.join(available_backends())}"
    )


def backend_option_error(backend: str, options) -> ValueError:
    """The canonical option-rejection error.

    Every layer that rejects an option a backend cannot take — the
    registry, the engine, and :class:`repro.api.RunConfig` validation —
    raises exactly this wording, so callers can match one message.
    """
    return ValueError(
        f"backend {backend!r} does not accept option(s) {sorted(options)}"
    )


def backend_accepts_option(backend: str, option: str) -> bool:
    """Whether the named backend's constructor takes ``option``.

    Raises :func:`unknown_backend_error` for unregistered names, so
    config validation and backend construction fail identically.
    """
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise unknown_backend_error(backend) from None
    return option in inspect.signature(cls.__init__).parameters


def validate_workers(workers: int) -> int:
    """Shared worker-count validation (``>= 1``), one wording everywhere."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


register_backend(ReferenceBackend)


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends."""
    return tuple(sorted(_BACKENDS))


def get_backend(backend: str | Backend, **options) -> Backend:
    """Resolve a backend instance from a name or pass one through.

    ``options`` with non-``None`` values (e.g. ``workers=4`` for the
    ``sharded`` backend) are forwarded to the backend constructor; a
    backend that does not accept an option rejects it with a
    ``ValueError`` rather than silently ignoring it.
    """
    options = {key: value for key, value in options.items() if value is not None}
    if isinstance(backend, Backend):
        if options:
            raise ValueError(
                f"backend options {sorted(options)} cannot be applied to an "
                "already-constructed backend instance"
            )
        return backend
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise unknown_backend_error(backend) from None
    accepted = inspect.signature(cls.__init__).parameters
    unknown = set(options) - set(accepted)
    if unknown:
        raise backend_option_error(backend, unknown)
    return cls(**options)
