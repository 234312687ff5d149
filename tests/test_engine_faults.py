"""Deterministic fault-injection harness + ShardedBackend supervision.

Contract (ISSUE 7): fault points are provably inert when disabled; the
spec grammar round-trips and rejects malformed plans eagerly; an
injected worker crash breaks the pool, the supervisor rebuilds it within
``max_rebuilds`` and the retried records are bit-identical; a spent
budget either degrades to the in-process fused path (still
bit-identical) or raises :class:`PoolBrokenError`.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.spike_matrix import random_spike_matrix
from repro.engine import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    PoolBrokenError,
    ProsperityEngine,
    ReferenceBackend,
    ShardedBackend,
)
from repro.engine import faults
from repro.engine.fused import FusedBackend
from repro.engine.parallel import MIN_TILES_PER_SHARD


def _records(backend, matrix, tile_m, tile_k):
    """Whole-matrix tile records through the engine's trace planner."""
    engine = ProsperityEngine(
        backend=backend, tile_m=tile_m, tile_k=tile_k, cache_size=0
    )
    return engine.transform_matrix(matrix).tile_records


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no plan and a scrubbed env."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def pooled_matrix(rng):
    """A spike matrix big enough that the sharded pool path engages."""
    return random_spike_matrix(64 * 2 * MIN_TILES_PER_SHARD, 16, 0.3, rng, 0.2)


class TestFaultSpec:
    def test_parse_options(self):
        spec = FaultSpec.parse("worker_crash:after=2:times=3")
        assert (spec.kind, spec.after, spec.times) == ("worker_crash", 2, 3)

    def test_parse_defaults(self):
        spec = FaultSpec.parse("engine_error")
        assert (spec.after, spec.times) == (0, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.parse("disk_full")

    def test_bad_option_key(self):
        with pytest.raises(ValueError, match="bad fault option"):
            FaultSpec.parse("engine_error:when=later")

    def test_bad_option_value(self):
        with pytest.raises(ValueError, match="bad fault option value"):
            FaultSpec.parse("slow_kernel:seconds=soon")

    def test_poison_requires_match(self):
        with pytest.raises(ValueError, match="requires match"):
            FaultSpec.parse("poison_job")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="after must be >= 0"):
            FaultSpec(kind="engine_error", after=-1)
        with pytest.raises(ValueError, match="times must be >= 0"):
            FaultSpec(kind="engine_error", times=-1)
        with pytest.raises(ValueError, match="seconds must be >= 0"):
            FaultSpec(kind="slow_kernel", seconds=-0.1)

    def test_should_fire_honors_after_and_times(self):
        spec = FaultSpec(kind="engine_error", after=1, times=2)
        assert [spec.should_fire() for _ in range(4)] == [
            False, True, True, False,
        ]
        assert spec.exhausted

    def test_times_zero_is_unlimited(self):
        spec = FaultSpec(kind="engine_error", times=0)
        assert all(spec.should_fire() for _ in range(10))
        assert not spec.exhausted

    def test_to_text_serializes_remaining_budget(self):
        spec = FaultSpec.parse("engine_error:times=3")
        assert spec.should_fire()
        assert spec.to_text() == "engine_error:times=2"
        assert spec.should_fire()
        # One trigger left is the default and is omitted.
        assert spec.to_text() == "engine_error"

    def test_round_trip(self):
        for text in (
            "worker_crash:after=2:times=3",
            "slow_kernel:seconds=0.5",
            "poison_job:match=bad",
        ):
            assert FaultSpec.parse(text).to_text() == text


class TestFaultPlan:
    def test_blank_means_no_plan(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  , ") is None

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault kind"):
            FaultPlan.parse("engine_error,engine_error:times=2")

    def test_round_trip(self):
        text = "worker_crash:times=2,poison_job:match=bad"
        plan = FaultPlan.parse(text)
        assert plan.to_text() == text
        assert plan.get("worker_crash").times == 2
        assert plan.get("slow_kernel") is None

    def test_exhausted_specs_drop_from_text(self):
        plan = FaultPlan.parse("engine_error,poison_job:match=bad")
        plan.get("engine_error").should_fire()
        assert plan.to_text() == "poison_job:match=bad"


class TestActivation:
    def test_install_syncs_env(self):
        faults.install("engine_error:times=2")
        assert os.environ[faults.ENV_VAR] == "engine_error:times=2"
        faults.clear()
        assert faults.ENV_VAR not in os.environ
        assert faults.active_plan() is None

    def test_injected_restores_previous_state(self):
        faults.install("slow_kernel:seconds=0.5")
        with faults.injected("engine_error"):
            assert faults.active_plan().get("engine_error") is not None
            assert os.environ[faults.ENV_VAR] == "engine_error"
        plan = faults.active_plan()
        assert plan.get("slow_kernel") is not None
        assert os.environ[faults.ENV_VAR] == "slow_kernel:seconds=0.5"

    def test_refresh_resolves_from_env(self, monkeypatch):
        faults.clear()
        monkeypatch.setenv(faults.ENV_VAR, "engine_error:times=4")
        plan = faults.refresh()
        assert plan is not None and plan.get("engine_error").times == 4

    def test_bad_env_spec_raises_on_resolve(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "nonsense")
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.refresh()
        monkeypatch.delenv(faults.ENV_VAR)
        faults.refresh()

    def test_consume_burns_parent_budget(self):
        faults.install("worker_crash:times=2")
        faults.consume("worker_crash")
        assert os.environ[faults.ENV_VAR] == "worker_crash"
        faults.consume("worker_crash")
        assert faults.ENV_VAR not in os.environ


class TestInertWhenDisabled:
    """The acceptance bar: fault points provably do nothing by default."""

    def test_no_plan_resolves_to_none(self):
        assert faults.active_plan() is None

    def test_hooks_are_noops(self):
        for _ in range(100):
            faults.kernel_fault("test.site")
            faults.poison_fault(["any", "labels"], site="test")
            faults.worker_tick()
        assert faults.active_plan() is None

    def test_backend_results_identical_with_harness_imported(self, rng):
        matrix = random_spike_matrix(64 * 4, 16, 0.3, rng, 0.2)
        backend = FusedBackend()
        expected = _records(backend, matrix, 64, 16)
        again = _records(backend, matrix, 64, 16)
        assert np.array_equal(expected, again)


class TestKernelFaults:
    def test_engine_error_is_transient_and_burns_out(self):
        faults.install("engine_error:times=1")
        with pytest.raises(FaultInjected) as err:
            faults.kernel_fault("unit.site")
        assert err.value.transient is True
        assert err.value.site == "unit.site"
        faults.kernel_fault("unit.site")  # budget spent: no-op now
        assert faults.ENV_VAR not in os.environ

    def test_slow_kernel_sleeps(self):
        faults.install("slow_kernel:seconds=0.05:times=1")
        start = time.perf_counter()
        faults.kernel_fault()
        assert time.perf_counter() - start >= 0.04
        start = time.perf_counter()
        faults.kernel_fault()
        assert time.perf_counter() - start < 0.04

    def test_poison_matches_label_substring_persistently(self):
        faults.install("poison_job:match=bad")
        faults.poison_fault(["good", "fine"])  # no match: no-op
        for _ in range(2):  # poison never burns out
            with pytest.raises(FaultInjected) as err:
                faults.poison_fault(["good", "very-bad-job"])
            assert err.value.transient is False
            assert "very-bad-job" in str(err.value)

    def test_empty_labels_never_poisoned(self):
        faults.install("poison_job:match=bad")
        faults.poison_fault([""])
        faults.poison_fault([])


class TestRequestFaults:
    """Server-side drill kinds (ISSUE 9): ``reject_request`` turns one
    request into a clean refusal, ``slow_request`` delays it; ``match``
    scopes both to a request-path substring."""

    def test_reject_fires_then_burns_out(self):
        faults.install("reject_request:times=1")
        assert faults.request_fault(site="server/v1/jobs") == "reject"
        assert faults.request_fault(site="server/v1/jobs") is None

    def test_match_scopes_to_path_substring(self):
        faults.install("reject_request:match=jobs")
        assert faults.request_fault(site="server/healthz") is None
        assert faults.request_fault(site="server/v1/jobs") == "reject"

    def test_slow_request_sleeps(self):
        faults.install("slow_request:seconds=0.05:times=1")
        started = time.perf_counter()
        assert faults.request_fault(site="server/v1/jobs") is None
        assert time.perf_counter() - started >= 0.05
        started = time.perf_counter()
        assert faults.request_fault(site="server/v1/jobs") is None
        assert time.perf_counter() - started < 0.05  # budget burned out

    def test_slow_then_reject_compose(self):
        faults.install("slow_request:seconds=0.01,reject_request:times=1")
        started = time.perf_counter()
        assert faults.request_fault(site="server/v1/jobs") == "reject"
        assert time.perf_counter() - started >= 0.01

    def test_inert_without_plan(self):
        assert faults.request_fault(site="server/v1/jobs") is None


class TestPoolSupervision:
    def test_crash_rebuild_retry_bit_identical(self, pooled_matrix):
        oracle = _records(FusedBackend(), pooled_matrix, 64, 16)
        with ShardedBackend(workers=2) as backend:
            with faults.injected("worker_crash"):
                records = _records(backend, pooled_matrix, 64, 16)
                # The supervisor burned the crash budget before the
                # rebuilt pool forked, so its workers came up clean.
                assert "worker_crash" not in os.environ.get(faults.ENV_VAR, "")
            assert np.array_equal(records, oracle)
            assert backend.pool_rebuilds == 1
            assert backend.retries == 1
            assert backend.pools_spawned == 2
            assert backend.degraded is False
            assert backend.failure_counters() == {
                "pool_rebuilds": 1, "retries": 1, "degraded": False,
            }

    def test_budget_spent_degrades_to_inline(self, pooled_matrix):
        oracle = _records(FusedBackend(), pooled_matrix, 64, 16)
        with ShardedBackend(workers=2, max_rebuilds=0) as backend:
            with faults.injected("worker_crash:times=0"):
                records = _records(backend, pooled_matrix, 64, 16)
            assert np.array_equal(records, oracle)
            assert backend.degraded is True
            assert backend.pool_rebuilds == 0
            # Once degraded, later calls stay inline — no pool respawn.
            again = _records(backend, pooled_matrix, 64, 16)
            assert np.array_equal(again, oracle)
            assert backend.pools_spawned == 1

    def test_budget_spent_without_degrade_raises(self, pooled_matrix):
        with ShardedBackend(workers=2, max_rebuilds=0, degrade=False) as backend:
            with faults.injected("worker_crash:times=0"):
                with pytest.raises(PoolBrokenError, match="rebuild budget"):
                    _records(backend, pooled_matrix, 64, 16)

    def test_pool_broken_error_chains_cause(self, pooled_matrix):
        from concurrent.futures.process import BrokenProcessPool

        with ShardedBackend(workers=2, max_rebuilds=0, degrade=False) as backend:
            with faults.injected("worker_crash:times=0"):
                with pytest.raises(PoolBrokenError) as err:
                    _records(backend, pooled_matrix, 64, 16)
        assert isinstance(err.value.__cause__, BrokenProcessPool)

    def test_negative_rebuild_budget_rejected(self):
        with pytest.raises(ValueError, match="max_rebuilds"):
            ShardedBackend(workers=2, max_rebuilds=-1)

    def test_failure_counters_base_is_empty(self):
        assert ReferenceBackend().failure_counters() == {}


class TestStreamSupervision:
    def test_stream_report_shows_pool_rebuild(self):
        """A replay stream on ``sharded`` reports the rebuild its window
        paid for, like a batch run does."""
        from repro.api import RunConfig, Session

        config = RunConfig().with_overrides(
            {
                "workload.model": "lenet5",
                "workload.dataset": "mnist",
                "engine.backend": "sharded",
                "engine.workers": 2,
                "streaming.source": "replay",
                "resilience.faults": "worker_crash",
            }
        )
        with Session(config) as session:
            stream = session.stream_source()
            chunks = []
            while True:
                try:
                    chunks.append(next(stream))
                except StopIteration as stop:
                    report = stop.value.report
                    break
            counters = session.engine.backend.failure_counters()
        assert counters == {"pool_rebuilds": 1, "retries": 1, "degraded": False}
        assert (report.pool_rebuilds, report.retries, report.degraded) == (
            1,
            1,
            False,
        )
