"""``stream``: sliding-window inference over a seeded Poisson source.

Each pass opens a fresh ``Session`` and drains ``Session.stream_source()``
over the ``poisson`` source for thousands of steps with overlapping
windows (``hop < window``). Per-window plan and assembly overhead
dominates; the events carry no content reuse (dedup 1.00), so a change to
the forest cache should show no change here. The source materialises all
its steps up front, so peak memory grows with stream length.
"""

from __future__ import annotations

import contextlib
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
    reset_peak_rss,
    tail,
    timed_setups,
    timing_note,
)
from perfbench.spans import Tracer, maybe_span

#: Streams a run completes at least, and the most it attempts past its
#: deadline when streams fail.
MIN_PASSES = 2
MAX_TRIES = 4 * MIN_PASSES

#: Stream geometry: steps x (rows x cols) events, windows of WINDOW steps
#: advancing by HOP.
STEPS = 2048
ROWS = 256
COLS = 64
RATE = 0.15
WINDOW = 4
HOP = 2


def _config(seed: int):
    from repro.api import RunConfig

    return RunConfig().with_overrides({
        "workload.seed": seed,
        "streaming.source": "poisson",
        "streaming.steps": STEPS,
        "streaming.rows": ROWS,
        "streaming.cols": COLS,
        "streaming.rate": RATE,
        "streaming.window": WINDOW,
        "streaming.hop": HOP,
        **ENGINE,
    })


def _setup(seed: int):
    """The config and the batch run's records digest the stream must equal."""
    from repro.api import Session
    from repro.streaming import build_source

    config = _config(seed)
    with Session(config) as session:
        report = session.engine.run(build_source(config).batch_trace())
    return config, records_digest((run.name, run.records) for run in report.runs)


def _one(config, expected: str, result: Result, tracer: Tracer | None):
    """One stream: (seconds, tiles, windows, consumer gaps ms, engine
    counts) or None."""
    from repro.api import Session
    from repro.streaming import build_source

    result.attempted += 1
    records: dict[str, list] = {}
    gaps = []
    try:
        with Session(config) as session, contextlib.ExitStack() as stack:
            start = last = time.perf_counter()
            with maybe_span(tracer, "stream.source_build"):
                source = build_source(config)
            if tracer is not None:
                stack.enter_context(tracer.patch(source, "emit", "stream.emit"))
            generator = session.stream_source(source)
            while True:
                try:
                    with maybe_span(tracer, "stream.next"):
                        chunk = next(generator)
                except StopIteration as stop:
                    final = stop.value
                    break
                now = time.perf_counter()
                gaps.append((now - last) * 1e3)
                last = now
                for run in chunk.runs:
                    records.setdefault(run.name, []).append(run.records)
            seconds = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - counted, reported
        result.failed += 1
        result.lines.append(f"stream: pass failed: {exc!r}")
        return None
    digest = records_digest(
        (workload.name, np.concatenate(records.get(workload.name, [])))
        for workload in source.workloads)
    result.check("concatenated window records equal the batch run",
                 digest == expected)
    return (seconds, final.report.total_tiles, final.windows, gaps,
            report_counts(final.report))


def _measure(config, expected, result, seconds, tracer=None) -> list:
    """Streams until ``seconds`` pass and ``MIN_PASSES`` completed, or
    ``MAX_TRIES`` were attempted past the deadline."""
    passes, tries = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        one = _one(config, expected, result, tracer)
        tries += 1
        if one is not None:
            passes.append(one)
        if time.perf_counter() >= deadline and (
                len(passes) >= MIN_PASSES or tries >= MAX_TRIES):
            return passes


def _stream_layers(tracer: Tracer, passes: list) -> dict:
    windows = sum(p[2] for p in passes)
    metrics = engine_metrics([p[4] for p in passes], windows)
    metrics.update(planner_metrics(tracer, windows))
    exec_ms: dict[int, float] = {}
    for name in ("planner.plan", "planner.execute"):
        for span in tracer.named(name, parent="stream.next"):
            exec_ms[span.parent] = exec_ms.get(span.parent, 0.0) + span.ms
    nexts = [span for span in tracer.named("stream.next") if span.id in exec_ms]
    source_ms = sum(span.ms for span in tracer.named("stream.source_build"))
    source_ms += sum(span.ms for span in tracer.named("stream.emit"))
    metrics.update({
        "stream.source_ms": source_ms / max(windows, 1),
        "stream.window_exec_ms": median(exec_ms[span.id] for span in nexts),
        "stream.wait_ms": median(span.ms - exec_ms[span.id] for span in nexts),
        "stream.tiles_per_window": sum(p[1] for p in passes) / max(windows, 1),
    })
    return metrics


def run(seed: int, seconds: float, traced: bool) -> Result:
    result = Result()
    config, expected = timed_setups(lambda: _setup(seed), result)
    reset_peak_rss()
    if not traced:
        passes = _measure(config, expected, result, seconds)
    else:
        untraced = _measure(config, expected, result, seconds / 2)
        tracer = Tracer()
        with instrument(tracer):
            passes = _measure(config, expected, result, seconds / 2, tracer)
    result.book_health("streams")
    if not passes or (traced and not untraced):
        result.check("every measured phase completed a stream", False)
        return result
    if traced:
        result.layers = _stream_layers(tracer, passes)
        result.layers["trace.overhead_pct"] = (
            median(p[0] for p in passes) / median(p[0] for p in untraced) - 1.0
        ) * 100.0
        result.tracer = tracer
    gaps = [gap for p in passes for gap in p[3]]
    result.metric("tiles_per_s", sum(p[1] for p in passes) / sum(p[0] for p in passes),
                  f"{len(passes)} streams of {passes[0][1]} tiles in "
                  f"{passes[0][2]} windows")
    result.metric("p50_ms", median(gaps), "gap between windows, " + timing_note(gaps))
    # Each stream's own tail, then the median over streams: one slow
    # stretch of the host lifts one stream's tail, not the run's.
    tails = [tail(p[3]) for p in passes]
    result.metric("tail_ms", median(t[0] for t in tails),
                  f"median over {len(passes)} streams of each stream's "
                  f"p{tails[0][1]:.1f} (n={len(passes[0][3])} gaps each)")
    return result
