"""Compiled (Numba) ProSparsity kernels behind the backend registry.

The ``fused`` backend already runs the transform as a handful of NumPy
broadcasts per deduplicated ``(T, m, W)`` bucket stack — but those
broadcasts still materialize ``(chunk, m, m)`` candidate blocks and are
driven from Python. This module pushes the whole per-stack hot path —
sorted-key triangle prefix scan, pointer-doubling forest depths, and
record emission — into one ``@njit(parallel=True, cache=True)`` nopython
kernel with an explicit ``prange`` over tiles: every tile resolves its
rows at their first subset hit (no ``(m, m)`` block is ever
materialized), and tiles spread across all cores without pickling or
process pools.

Numba is an *optional* extra (``pip install prosperity-repro[compiled]``).
The backend always registers; whether the JIT engages is resolved per
instance:

* numba importable and ``REPRO_NO_JIT`` unset -> ``jit_active=True``,
  records come from the compiled kernel;
* numba missing, broken, or ``REPRO_NO_JIT=1`` -> ``jit_active=False``
  and every call transparently falls back to the inherited fused NumPy
  path — same records, bit for bit, just without the native speedup.

JIT compilation cost is paid once per process through the eager
:meth:`CompiledBackend.warmup` seam (auto-invoked before the first
kernel dispatch) and is booked under its own ``warmup`` stage in the
profile of the dispatch that pays it, so ``EngineReport.profile``
attributes compile time separately from kernel time. ``cache=True``
persists the compiled machine code next to this file
(``__pycache__``), so warm processes and CI runs with a restored cache
skip recompilation entirely.

The kernel body (:func:`_tile_records_impl`) is written in
nopython-compatible Python and stays runnable *without* numba —
``prange`` degrades to ``range`` — which is how the property suite pins
the kernel's logic bit-identical to the fused/reference path even in
environments where numba is absent (:func:`tile_records_python`).
"""

from __future__ import annotations

import os
import time
from importlib import util as _importlib_util

import numpy as np

from repro.core.forest import NO_PREFIX
from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.engine.backends import register_backend
from repro.engine.fused import FusedBackend, add_stage

__all__ = [
    "CompiledBackend",
    "jit_disabled",
    "jit_status",
    "numba_installed",
    "tile_records_python",
]

_NFIELDS = len(TILE_RECORD_FIELDS)

#: Rebound to ``numba.prange`` when the JIT kernel is built; as plain
#: ``range`` the kernel body runs as ordinary (slow but exact) Python.
prange = range


def _tile_records_impl(codes, popcounts, k, out):  # pragma: no cover - jitted
    """Tile records for a ``(T, m, W)`` uint64 stack, one tile per lane.

    Row-for-row identical to
    :func:`repro.engine.fused.records_from_codes_batch` (pinned by the
    property suite): per tile, rows and candidate columns are sorted by
    the Pruner's descending ``(popcount, index)`` key, so the legal
    candidate region is the strict upper triangle in sorted order and a
    candidate with zero popcount ends the scan (everything after it is
    zero too). Forest depth comes from pointer doubling, records are
    emitted in ``TILE_RECORD_FIELDS`` order into ``out``.
    """
    T, m, W = codes.shape
    for t in prange(T):
        pops = popcounts[t]
        # Descending (popcount, index) sort via one packed int64 key;
        # keys are unique, so the order is exact, not just stable.
        key = np.empty(m, np.int64)
        for i in range(m):
            key[i] = (pops[i] << 32) | i
        asc = np.argsort(key)
        prefix = np.empty(m, np.int64)
        for i in range(m):
            prefix[i] = NO_PREFIX
        # Triangle scan with first-hit resolution: for the row at
        # descending-sorted position p, candidates are positions > p.
        for p in range(m):
            row = asc[m - 1 - p]
            for q in range(p + 1, m):
                cand = asc[m - 1 - q]
                if pops[cand] <= 0:
                    # Zero-popcount rows sort last: no later candidate
                    # can be a legal prefix either.
                    break
                subset = True
                for w in range(W):
                    if (codes[t, cand, w] & ~codes[t, row, w]) != np.uint64(0):
                        subset = False
                        break
                if subset:
                    prefix[row] = cand
                    break
        # Forest depth by pointer doubling: every round each row's
        # pointer jumps to its ancestor's pointer while chain lengths
        # add. Keys strictly decrease along a chain, so chains always
        # terminate; 64 rounds cover any m representable in an int64.
        pointer = np.empty(m, np.int64)
        length = np.empty(m, np.int64)
        for i in range(m):
            if prefix[i] != NO_PREFIX:
                pointer[i] = prefix[i]
                length[i] = 1
            else:
                pointer[i] = i
                length[i] = 0
        for _round in range(64):
            live = False
            for i in range(m):
                if length[pointer[i]] > 0:
                    live = True
                    break
            if not live:
                break
            next_pointer = np.empty(m, np.int64)
            next_length = np.empty(m, np.int64)
            for i in range(m):
                j = pointer[i]
                next_length[i] = length[i] + length[j]
                next_pointer[i] = pointer[j]
            pointer = next_pointer
            length = next_length
        depth = np.int64(0)
        for i in range(m):
            if length[i] > depth:
                depth = length[i]
        # Record emission, TILE_RECORD_FIELDS order (a prefix is always
        # a subset of its row, so residual = pop(row) - pop(prefix)).
        bit_nnz = np.int64(0)
        product_nnz = np.int64(0)
        zero_residual = np.int64(0)
        zero_bit = np.int64(0)
        em_rows = np.int64(0)
        reused_rows = np.int64(0)
        for i in range(m):
            pop = pops[i]
            bit_nnz += pop
            if prefix[i] != NO_PREFIX:
                residual = pop - pops[prefix[i]]
                reused_rows += 1
                if residual == 0 and pop > 0:
                    em_rows += 1
            else:
                residual = pop
            product_nnz += residual
            if residual == 0:
                zero_residual += 1
            if pop == 0:
                zero_bit += 1
        out[t, 0] = m
        out[t, 1] = k
        out[t, 2] = bit_nnz
        out[t, 3] = product_nnz
        out[t, 4] = zero_residual
        out[t, 5] = zero_bit
        out[t, 6] = em_rows
        out[t, 7] = reused_rows
        out[t, 8] = depth


# -- JIT resolution ---------------------------------------------------------

# One kernel per process: numba import and njit construction happen at
# most once, on the first CompiledBackend that wants the fast path.
_jit_checked = False
_jit_kernel = None
_jit_error: str | None = None


def numba_installed() -> bool:
    """Whether the ``numba`` distribution is importable (cheap spec probe)."""
    return _importlib_util.find_spec("numba") is not None


def jit_disabled() -> bool:
    """Whether ``REPRO_NO_JIT`` forces the NumPy fallback (read per call)."""
    return os.environ.get("REPRO_NO_JIT", "") not in ("", "0")


def _load_kernel():
    global _jit_checked, _jit_kernel, _jit_error, prange
    if _jit_checked:
        return _jit_kernel
    _jit_checked = True
    try:
        import numba
    except Exception as exc:  # pragma: no cover - needs a broken install
        _jit_error = f"numba import failed: {exc}"
        return None
    try:
        prange = numba.prange
        _jit_kernel = numba.njit(parallel=True, cache=True)(_tile_records_impl)
    except Exception as exc:  # pragma: no cover - needs a broken install
        prange = range
        _jit_kernel = None
        _jit_error = f"numba jit construction failed: {exc}"
    return _jit_kernel


def jit_status() -> str:
    """One-line JIT availability for CLI footers and CI annotations."""
    if jit_disabled():
        return "disabled (REPRO_NO_JIT=1)"
    if not numba_installed():
        return "unavailable (numba not installed)"
    if _jit_error is not None:
        return f"broken ({_jit_error})"
    return "available"


def tile_records_python(codes: np.ndarray, popcounts: np.ndarray, k: int) -> np.ndarray:
    """Run the kernel body as plain Python (exactly what Numba compiles).

    The property-test seam: environments without numba still execute and
    pin the compiled backend's *logic* bit-identical to the fused path,
    so the fast path's correctness never depends on the optional extra
    being installed. Slow — only feed it small stacks.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint64)
    popcounts = np.ascontiguousarray(popcounts, dtype=np.int64)
    out = np.empty((codes.shape[0], _NFIELDS), dtype=np.int64)
    impl = _tile_records_impl if _jit_kernel is None else _jit_kernel.py_func
    impl(codes, popcounts, k, out)
    return out


@register_backend
class CompiledBackend(FusedBackend):
    """Fused pipeline with the per-stack kernel compiled by Numba.

    Packing, shape grouping, content dedup, cache composition, and the
    planner seam are all inherited from :class:`FusedBackend`; only the
    ``_compute_records`` hot path is replaced — by the JIT kernel when
    :attr:`jit_active`, by the inherited NumPy broadcasts otherwise.
    Records are bit-identical either way.
    """

    name = "compiled"
    profile_stages = ("warmup",)

    def __init__(self):
        self._warmed = False
        #: True when records come from the compiled kernel; False means
        #: every call transparently runs the fused NumPy fallback.
        self.jit_active = not jit_disabled() and _load_kernel() is not None

    @classmethod
    def availability(cls) -> str:
        """Install status, surfaced by ``unknown_backend_error``."""
        return (
            "numba installed"
            if numba_installed()
            else "numba not installed, runs as NumPy fallback"
        )

    # -- warmup ---------------------------------------------------------
    def warmup(self, profile: dict[str, float] | None = None) -> bool:
        """Compile (or cache-load) the JIT kernel now; idempotent.

        Returns ``jit_active`` after the attempt. The one-time cost is
        booked under the ``warmup`` stage of ``profile`` (the first
        dispatch passes its run's profile) so engine reports separate
        compile time from kernel time; call it eagerly (e.g. at service
        startup) to keep the first request's latency flat. If
        compilation itself fails, the backend degrades to the NumPy
        fallback instead of erroring.
        """
        if not self.jit_active or self._warmed:
            return self.jit_active
        start = time.perf_counter()
        codes = np.array([[[5], [1]], [[3], [3]]], dtype=np.uint64)
        pops = np.array([[2, 1], [2, 2]], dtype=np.int64)
        out = np.empty((2, _NFIELDS), dtype=np.int64)
        try:
            _jit_kernel(codes, pops, 8, out)
        except Exception as exc:  # pragma: no cover - needs a broken install
            global _jit_error
            _jit_error = f"numba compilation failed: {exc}"
            self.jit_active = False
        self._warmed = True
        add_stage(profile, "warmup", time.perf_counter() - start)
        return self.jit_active

    # -- kernel dispatch ------------------------------------------------
    def _compute_records(
        self,
        codes: np.ndarray,
        popcounts: np.ndarray,
        k: int,
        profile: dict[str, float] | None = None,
    ) -> np.ndarray:
        if not self._warmed:
            self.warmup(profile)
        if not self.jit_active:
            return super()._compute_records(codes, popcounts, k, profile)
        start = time.perf_counter()
        # One kernel signature: narrower code words zero-extend to
        # uint64 (bitwise algebra and equality are width-agnostic).
        codes64 = np.ascontiguousarray(codes, dtype=np.uint64)
        pops = np.ascontiguousarray(popcounts, dtype=np.int64)
        records = np.empty((codes64.shape[0], _NFIELDS), dtype=np.int64)
        _jit_kernel(codes64, pops, k, records)
        add_stage(profile, "select", time.perf_counter() - start)
        return records
