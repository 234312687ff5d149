"""Shared pieces of the benchmark: results, statistics, layer numbers."""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from perfbench.spans import Tracer

#: Engine/simulator settings every workload runs under: the ``fused``
#: kernel on the trace planner, the path serving and streaming use.
ENGINE = {"engine.backend": "fused", "engine.plan": "trace"}

#: The designs ``Session.simulate()`` races by default, plus Prosperity.
SIM_DESIGNS = ("eyeriss", "ptb", "sato", "mint", "stellar", "a100")

#: Per-run stage counters the engine books into its profile dicts.
ENGINE_STAGES = ("select", "record", "pack", "dedup", "scatter")

#: How many times each workload repeats its set-up; setup_s is the median.
SETUP_REPEATS = 3


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    #: Traced runs only: per-layer metrics and the spans behind them.
    layers: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok

    def metric(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = float(value)
        if note:
            self.notes[name] = note

    def book_health(self, what: str = "operations") -> None:
        """The metrics every workload reports: ok_frac and rss_peak_mb.
        Call it as the measured phase ends."""
        self.metric("ok_frac", (self.attempted - self.failed) / self.attempted,
                    f"{self.failed} of {self.attempted} {what} failed")
        self.metric("rss_peak_mb", rss_peak_mb())

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


# -- statistics -----------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile): p99, or lower when fewer than 10 samples lie
    beyond p99 — the highest percentile with at least 10 samples beyond it
    (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    index = max(0, min(math.ceil(0.99 * n) - 1, n - 11))
    return ordered[index], 100.0 * (index + 1) / n


def timing_note(values, unit: str = "ms") -> str:
    value, pct = tail(values)
    return f"n={len(values)} p50={median(values):.3f}{unit} p{pct:.1f}={value:.3f}{unit}"


def reset_peak_rss() -> None:
    """Start a new peak-resident-set window, so ``rss_peak_mb`` covers the
    measured phase and not set-up or warm-up (Linux: writing 5 to
    ``clear_refs`` resets ``VmHWM``). Elsewhere the peak stays the
    process's whole-life peak."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")


def rss_peak_mb() -> float:
    """Peak resident set since the last ``reset_peak_rss()``, in MiB."""
    with contextlib.suppress(OSError):
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def records_digest(runs) -> str:
    """One digest over a run's per-workload record arrays, in order."""
    digest = hashlib.blake2b(digest_size=16)
    for name, records in runs:
        digest.update(name.encode())
        digest.update(records.astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


def report_digest(report) -> str:
    return records_digest((run.name, run.records) for run in report.runs)


def timed_setups(setup, result: Result, repeats: int = SETUP_REPEATS):
    """Run ``setup()`` ``repeats`` times, book the median as ``setup_s``,
    and return the last state (earlier ones are closed when they can be)."""
    seconds = []
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        start = time.perf_counter()
        state = setup()
        seconds.append(time.perf_counter() - start)
    result.metric("setup_s", median(seconds),
                  "median of " + ", ".join(f"{s:.2f}" for s in seconds) + " s")
    return state


# -- layer numbers --------------------------------------------------------
def report_counts(report) -> tuple:
    """The engine numbers of one ``EngineReport``: stage seconds (in
    ``ENGINE_STAGES`` order), cache hits, cache misses, planned tiles and
    unique tiles. The scheduler attaches its batch-scoped numbers to every
    job of a coalesced batch, so equal tuples from a serving run are one
    batch."""
    return (*(report.profile.get(stage, 0.0) for stage in ENGINE_STAGES),
            report.cache_hits, report.cache_misses,
            report.planned_tiles, report.unique_tiles)


def engine_metrics(counts, ops: float) -> dict:
    """Per-operation engine, cache and dedup metrics summed over
    ``report_counts`` tuples."""
    totals = [sum(column) for column in zip(*counts)]
    if not totals:
        totals = [0] * (len(ENGINE_STAGES) + 4)
    *stages, hits, misses, tiles, unique = totals
    ops = max(ops, 1)
    out = {f"engine.{stage}_ms": seconds * 1e3 / ops
           for stage, seconds in zip(ENGINE_STAGES, stages)}
    out.update({
        "cache.hits": hits / ops,
        "cache.misses": misses / ops,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "planner.tiles": tiles / ops,
        "planner.unique_tiles": unique / ops,
        "planner.dedup_ratio": tiles / unique if unique else 0.0,
    })
    return out


def planner_metrics(tracer: Tracer, ops: float, parent: str | None = None) -> dict:
    """Per-operation time in ``TracePlanner.plan`` and ``.execute``;
    ``parent`` keeps only calls made directly under spans of that name."""
    ops = max(ops, 1)
    return {
        f"planner.{call}_ms":
            sum(span.ms for span in tracer.named(f"planner.{call}", parent)) / ops
        for call in ("plan", "execute")
    }


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace the layers every workload shares while the block runs:
    ``repro.engine.planner`` (plan / execute), ``repro.arch`` (the
    Prosperity simulator) and ``repro.baselines``."""
    from repro.arch.simulator import ProsperitySimulator
    from repro.baselines import BASELINES
    from repro.engine.planner import TracePlanner

    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer.patch(TracePlanner, "plan", "planner.plan"))
        stack.enter_context(
            tracer.patch(TracePlanner, "execute", "planner.execute"))
        stack.enter_context(
            tracer.patch(ProsperitySimulator, "simulate", "arch.simulate"))
        for design in SIM_DESIGNS:
            stack.enter_context(
                tracer.patch(BASELINES[design], "simulate", f"baselines.{design}"))
        yield tracer
