"""``serve``: a live ``ReproServer`` under open-loop and saturated load.

Jobs are LeNet-5 ``small`` runs whose workload seed is drawn Zipf over
256 seeds (traces prebuilt in set-up), so the hot head hits the forest
cache while the tail overflows it. One generator thread submits into
``server.scheduler`` on a seeded Poisson schedule well below the knee,
timing each job from when it was due; meanwhile one ``ServeClient``
connection runs a closed loop with ``records="full"`` to probe the wire
path. A second phase keeps a fixed number of jobs outstanding to measure
saturated throughput and latency. The two phases alternate over the run,
so both sample the whole measured time and not one stretch of it.
Coalescing, cross-job dedup and the forest cache do most of the work; the
kernel does little.

The bounded metrics (``tiles_per_s``, ``p50_ms``) come from the saturated
phase. There, by Little's law, latency is the outstanding count over
throughput, so it follows the host's speed one to one. Open-loop latency
grows faster than that as the host slows (on a 2-vCPU host, runs 1.35x
apart in saturated throughput were 1.8x apart in open-loop p50), so it and
the wire probe are printed, not bounded.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import threading
import time

import numpy as np

from perfbench.common import (
    ENGINE,
    Result,
    engine_metrics,
    instrument,
    median,
    planner_metrics,
    records_digest,
    report_counts,
    report_digest,
    reset_peak_rss,
    tail,
    timed_setups,
    timing_note,
)
from perfbench.spans import Tracer, maybe_span

#: Distinct workload seeds jobs draw from, and the Zipf exponent.
N_SEEDS = 256
ZIPF_S = 1.0

#: Open-loop arrival rate (jobs/s), well below the knee (200-400 jobs/s).
#: Latency at low load is queueing on one interpreter, which magnifies
#: the host's speed: on a 2-vCPU host at 50 jobs/s, runs 20 % apart in
#: saturated throughput were 85 % apart in job p50.
RATE = 25.0

#: Jobs kept outstanding in the saturated phase.
OUTSTANDING = 32

#: Pause between a probe response and the next probe request. The probe's
#: HTTP and JSON work competes with the open-loop jobs for the interpreter
#: (on a 2-vCPU host, back-to-back probes doubled job p50).
PROBE_THINK_S = 0.1

#: Share of the measured time spent in the open-loop phase.
OPEN_SHARE = 0.5

#: Open-loop + saturated phase pairs a measured stretch is cut into.
ROUNDS = 4

#: Unmeasured phase pair before the first measured one: fills the forest
#: cache, grows the planner's buffers to saturated batch sizes, and opens
#: the wire path.
WARMUP_S = 3.0

#: A submission waiting longer than this for queue space is refused.
ADMIT_TIMEOUT_S = 1.0


def _base_config():
    from repro.api import RunConfig

    return RunConfig().with_overrides({
        "workload.model": "lenet5",
        "workload.dataset": "mnist",
        "workload.preset": "small",
        **ENGINE,
    })


class _State:
    """Set-up outcome: per-seed configs, expected digests, live server."""

    def __init__(self, seed: int):
        from repro.api import Session
        from repro.engine import ProsperityEngine
        from repro.server import ReproServer
        from repro.workloads import clear_trace_cache

        clear_trace_cache()
        base = _base_config()
        seeds = [seed * N_SEEDS + i for i in range(N_SEEDS)]
        # One popularity order for every client of the run, hottest first.
        order = np.random.default_rng([seed, 0]).permutation(N_SEEDS)
        self.ranked = [seeds[i] for i in order]
        self.configs = {s: base.with_overrides({"workload.seed": s}) for s in seeds}
        self.expected = {}
        engine_cfg = base.engine
        with ProsperityEngine(backend=engine_cfg.backend, plan=engine_cfg.plan,
                              cache_size=engine_cfg.cache_size) as engine:
            for s, config in self.configs.items():
                with Session(config, engine=engine) as session:
                    self.expected[s] = report_digest(session.run().report)
        self.server = ReproServer(base).start()

    def close(self) -> None:
        self.server.close()


class _Draw:
    """Seeded Zipf draw over seeds ranked hottest first."""

    def __init__(self, ranked: list[int], rng: np.random.Generator):
        self.seeds = ranked
        weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())
        self.rng = rng

    def __call__(self) -> int:
        index = int(np.searchsorted(self.cdf, self.rng.random(), side="right"))
        return self.seeds[min(index, len(self.seeds) - 1)]


class _Job:
    """One submitted job: when it was due and what its completion showed."""

    __slots__ = ("due", "seed", "done", "digest", "tiles", "error")

    def __init__(self, due: float, seed: int):
        self.due, self.seed = due, seed
        self.done = self.digest = self.tiles = self.error = None


class _Load:
    """Submits jobs into the server's scheduler; keeps what checks need.

    A job's result is reduced to its records digest as it completes, so
    results do not pile up on the heap the program's own GC has to scan.
    """

    def __init__(self, state: _State, seed: int, result: Result):
        self.state = state
        self.result = result
        self.rng = np.random.default_rng([seed, 1])
        self.jobs: list[_Job] = []
        self.refused = 0
        self._settled = 0
        self._outstanding = 0
        self._idle = threading.Condition()

    def _finished(self, job: _Job, future) -> None:
        job.done = time.perf_counter()
        try:
            error = future.exception()
            if error is None:
                report = future.result().report
                job.digest, job.tiles = report_digest(report), report.total_tiles
            else:
                job.error = repr(error)
        finally:
            with self._idle:
                self._outstanding -= 1
                self._idle.notify_all()

    def _submit(self, s: int, due: float, on_done=None) -> _Job | None:
        from repro.api import Job, SchedulerSaturated

        self.result.attempted += 1
        try:
            handle = self.state.server.scheduler.submit(
                Job(kind="run", config=self.state.configs[s], label=f"load-{s}"),
                timeout=ADMIT_TIMEOUT_S)
        except SchedulerSaturated:
            self.refused += 1
            self.result.failed += 1
            return None
        job = _Job(due, s)
        self.jobs.append(job)
        with self._idle:
            self._outstanding += 1
        handle.future.add_done_callback(lambda future: self._finished(job, future))
        if on_done is not None:
            handle.future.add_done_callback(on_done)
        return job

    def open_loop(self, seconds: float, draw: _Draw) -> tuple[list, list]:
        """Poisson arrivals for ``seconds``; (jobs, lateness ms)."""
        jobs, late = [], []
        start = due = time.perf_counter()
        while due < start + seconds:
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            late.append((time.perf_counter() - due) * 1e3)
            job = self._submit(draw(), due)
            if job is not None:
                jobs.append(job)
            due += self.rng.exponential(1.0 / RATE)
        return jobs, late

    def saturated(self, seconds: float, draw: _Draw) -> tuple[int, float, list]:
        """``OUTSTANDING`` jobs in flight for ``seconds``; (completions,
        seconds from the phase's start to its last completion, latency ms
        of each job completed within the phase).

        Coalesced jobs complete a batch at a time, so the rate counts from
        the start (the first batch's latency included), not from the first
        completion, which would drop one batch's time but not its jobs."""
        slots = threading.BoundedSemaphore(OUTSTANDING)
        done: list[float] = []

        def finished(_future):
            done.append(time.perf_counter())
            slots.release()

        jobs = []
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            if not slots.acquire(timeout=0.05):
                continue
            job = self._submit(draw(), time.perf_counter(), finished)
            if job is None:
                slots.release()
            else:
                jobs.append(job)
        inside = [t for t in done if t <= end]
        if not inside:
            return 0, 0.0, []
        latency = [(job.done - job.due) * 1e3 for job in jobs
                   if job.done is not None and job.done <= end]
        return len(inside), max(inside) - start, latency

    def settle(self) -> None:
        """Wait for every outstanding job; count errors since the last call."""
        with self._idle:
            self._idle.wait_for(lambda: self._outstanding == 0, timeout=60.0)
        pending, self._settled = self.jobs[self._settled:], len(self.jobs)
        for job in pending:
            if job.done is None:
                job.error = "job did not complete within 60 s"
            if job.error is not None:
                self.result.failed += 1
                self.result.lines.append(f"serve: job failed: {job.error}")


class _Probe(threading.Thread):
    """Closed loop of ``records="full"`` requests over one connection,
    with a short pause after each response. Request ``n`` (drawn from
    ``ids``) is labelled ``probe-n`` and traced as trace ``n``."""

    def __init__(self, state: _State, draw: _Draw, tracer: Tracer | None, ids):
        super().__init__(name="perfbench-probe")
        self.state = state
        self.draw = draw
        self.tracer = tracer
        self.ids = ids
        self.stop = threading.Event()
        self.rtt_ms: list[float] = []
        self.responses: list[tuple[int, str]] = []  # (seed, digest)
        self.errors: list[str] = []
        self.sent = 0

    def run(self) -> None:
        from repro.api import ServeClient

        with ServeClient(self.state.server.url, timeout=60.0) as conn:
            while not self.stop.is_set():
                s, n = self.draw(), next(self.ids)
                self.sent += 1
                start = time.perf_counter()
                try:
                    with maybe_span(self.tracer, "client.submit", trace=n):
                        reply = conn.submit(
                            "run", config={"workload": {"seed": s}},
                            records="full", label=f"probe-{n}")
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    self.errors.append(repr(exc))
                    continue
                self.rtt_ms.append((time.perf_counter() - start) * 1e3)
                self.responses.append((s, records_digest(
                    (run["name"], run["records"]) for run in reply.report["runs"])))
                self.stop.wait(PROBE_THINK_S)


class _Phase:
    """What one measured stretch saw: open-loop latency and lateness,
    probe round trips and responses, saturated completions and latency."""

    def __init__(self):
        self.latency: list[float] = []
        self.saturated_latency: list[float] = []
        self.late: list[float] = []
        self.rtt_ms: list[float] = []
        self.responses: list[tuple[int, str]] = []
        self.completions = 0
        self.busy_s = 0.0

    @property
    def rate(self) -> float:
        """Saturated jobs/s over every saturated slice."""
        return self.completions / self.busy_s if self.busy_s else 0.0


def _phase(load: _Load, seconds: float, seed: int,
           tracer: Tracer | None) -> _Phase:
    """``ROUNDS`` x (open loop with the wire probe, then saturated)."""
    state, result = load.state, load.result
    probe_draw = _Draw(state.ranked, np.random.default_rng([seed, 2]))
    draw = _Draw(state.ranked, np.random.default_rng([seed, 3]))
    out, ids = _Phase(), itertools.count(1)
    for _ in range(ROUNDS):
        probe = _Probe(state, probe_draw, tracer, ids)
        probe.start()
        try:
            jobs, late = load.open_loop(seconds * OPEN_SHARE / ROUNDS, draw)
        finally:
            probe.stop.set()
            probe.join()
        # Open-loop jobs still in flight would queue behind the saturated
        # flood and time the flood, not the open loop.
        load.settle()
        completions, busy_s, latency = load.saturated(
            seconds * (1.0 - OPEN_SHARE) / ROUNDS, draw)
        load.settle()
        result.attempted += probe.sent
        result.failed += len(probe.errors)
        for error in probe.errors[:3]:
            result.lines.append(f"serve: probe failed: {error}")
        out.latency += [(job.done - job.due) * 1e3
                        for job in jobs if job.done is not None]
        out.late += late
        out.rtt_ms += probe.rtt_ms
        out.responses += probe.responses
        out.completions += completions
        out.saturated_latency += latency
        out.busy_s += busy_s
    return out


def _check(load: _Load, phases: list[_Phase], result: Result) -> None:
    expected = load.state.expected
    bad = sum(job.digest != expected[job.seed]
              for job in load.jobs if job.error is None)
    result.check("every job's records equal its Session.run() digest", bad == 0,
                 f"{bad} of {len(load.jobs)} differ")
    wire = [response for phase in phases for response in phase.responses]
    bad = sum(digest != expected[s] for s, digest in wire)
    result.check("every probe response's records equal its Session.run() digest",
                 bad == 0 and bool(wire), f"{bad} of {len(wire)} differ")


@contextlib.contextmanager
def _instrument_serve(tracer: Tracer, server):
    """Serve-only hooks: wire encode/decode, and each scheduler job from
    submission to completion with its report's engine numbers."""
    import repro.api.client as client_module
    import repro.server.app as app_module

    def job_hook(span, args, kwargs):
        job = args[0] if args else kwargs.get("job")

        def after(handle):
            start = span.start
            label = getattr(job, "label", "")

            def done(future):
                error = future.exception()
                tracer.record(
                    "scheduler.job", start, time.perf_counter_ns(), label=label,
                    failed=error is not None,
                    engine=None if error else report_counts(future.result().report))

            handle.future.add_done_callback(done)

        return after

    with contextlib.ExitStack() as stack:
        stack.enter_context(instrument(tracer))
        stack.enter_context(
            tracer.patch(app_module, "encode_result", "server.encode"))
        stack.enter_context(
            tracer.patch(client_module, "decode_records", "client.decode"))
        stack.enter_context(
            tracer.patch(server.scheduler, "submit", "scheduler.submit", job_hook))
        yield


def _serve_layers(tracer: Tracer, late: list[float], server, stats0: dict) -> dict:
    jobs = tracer.named("scheduler.job")
    plans = sorted(tracer.named("planner.plan"), key=lambda s: s.start)
    executes = sorted(tracer.named("planner.execute"), key=lambda s: s.start)
    starts = [span.start for span in plans]
    waits = []
    for job in jobs:
        index = bisect.bisect_right(starts, job.end) - 1
        if index >= 0:
            waits.append((plans[index].start - job.start) / 1e6)
    # Jobs of one coalesced batch carry that batch's numbers: count each
    # batch once.
    batches = {job.counts["engine"] for job in jobs if job.counts["engine"]}
    metrics = engine_metrics(batches, len(jobs))
    metrics.update(planner_metrics(tracer, len(jobs)))
    by_label = {job.counts["label"]: job for job in jobs}
    decode_ms: dict[int, float] = {}
    for span in tracer.named("client.decode", parent="client.submit"):
        decode_ms[span.parent] = decode_ms.get(span.parent, 0.0) + span.ms
    decode, overhead = [], []
    for probe in tracer.named("client.submit"):
        decode.append(decode_ms.get(probe.id, 0.0))
        job = by_label.get(f"probe-{probe.trace}")
        if job is not None:
            overhead.append(probe.ms - job.ms)
    stats = server.scheduler.stats
    statuses = server.metrics_snapshot()["server"]["requests_by_status"]
    metrics.update({
        "scheduler.queue_wait_ms": median(waits),
        "scheduler.batch_ms": median(
            (e.end - p.start) / 1e6 for p, e in zip(plans, executes)),
        "scheduler.jobs_per_batch":
            (stats["jobs_submitted"] - stats0["jobs_submitted"])
            / max(stats["batches"] - stats0["batches"], 1),
        "scheduler.failed": sum(bool(job.counts["failed"]) for job in jobs),
        "server.encode_ms": median(span.ms for span in tracer.named("server.encode")),
        "client.decode_ms": median(decode),
        "server.wire_overhead_ms": median(overhead),
        "server.non200": sum(n for code, n in statuses.items() if code != "200"),
        "loadgen.late_tail_ms": tail(late)[0],
    })
    return metrics


def run(seed: int, seconds: float, traced: bool) -> Result:
    result = Result()
    state = timed_setups(lambda: _State(seed), result)
    try:
        load = _Load(state, seed, result)
        phases = [_phase(load, WARMUP_S, seed + 1, None)]
        result.attempted = result.failed = 0
        reset_peak_rss()
        if not traced:
            phase = _phase(load, seconds, seed, None)
        else:
            base = _phase(load, seconds / 2, seed, None)
            tracer = Tracer()
            stats0 = state.server.scheduler.stats
            with _instrument_serve(tracer, state.server):
                phase = _phase(load, seconds / 2, seed, tracer)
            phases.append(base)
            result.layers = _serve_layers(tracer, phase.late, state.server, stats0)
            result.layers["client.wire_tail_ms"] = tail(phase.rtt_ms)[0]
            result.layers["trace.overhead_pct"] = (
                median(phase.latency) / median(base.latency) - 1.0) * 100.0
            result.tracer = tracer
        phases.append(phase)
        result.book_health()
        _check(load, phases, result)
    finally:
        state.close()
    tiles_per_job = median(job.tiles for job in load.jobs if job.tiles)
    result.metric("p50_ms", median(phase.saturated_latency),
                  f"{OUTSTANDING} outstanding, "
                  + timing_note(phase.saturated_latency))
    result.metric("open_p50_ms", median(phase.latency),
                  f"open loop {RATE:g} jobs/s, " + timing_note(phase.latency))
    result.metric("tail_ms", tail(phase.latency)[0],
                  "open loop, " + timing_note(phase.latency))
    result.metric("wire_p50_ms", median(phase.rtt_ms), timing_note(phase.rtt_ms))
    result.metric("jobs_per_s", phase.rate,
                  f"{OUTSTANDING} outstanding, {phase.completions} completions")
    result.metric("tiles_per_s", phase.rate * tiles_per_job,
                  f"saturated phase, {tiles_per_job:g} tiles per job")
    result.lines.append(f"loadgen lateness: {timing_note(phase.late)}; "
                        f"{load.refused} submissions refused")
    return result
