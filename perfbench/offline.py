"""``offline``: cold ``Session.run()`` + ``Session.simulate()`` passes.

Each pass runs the ``paper`` preset of VGG-16/CIFAR-100, Spikformer/
CIFAR-10 and SpikeBERT/SST-2, each in a fresh ``Session`` (cold forest
cache). The kernel and planner do most of the work; SpikeBERT's ~9.8k
tiles overflow the 4096-entry forest cache. The scheduler, server and
streaming layers sit idle. Traces are built in set-up.

The traces are the repository's canonical ones (workload seed 7, the
traces every ``benchmarks/results`` table is built from), so the work per
pass does not drift with the benchmark seed and ``paper_gap`` is exact;
the benchmark seed picks the tiles checked against the ``reference``
oracle.
"""

from __future__ import annotations

import math
import time
from statistics import fmean

import numpy as np

from perfbench.common import (
    ENGINE,
    SIM_DESIGNS,
    Result,
    engine_metrics,
    instrument,
    median,
    planner_metrics,
    report_counts,
    report_digest,
    reset_peak_rss,
    timed_setups,
)
from perfbench.spans import Tracer, maybe_span

MODELS = (("vgg16", "cifar100"), ("spikformer", "cifar10"), ("spikebert", "sst2"))

#: Workload seed of the traces (the ``WorkloadConfig`` default).
TRACE_SEED = 7

#: Tiles per model checked against the ``reference`` oracle.
ORACLE_TILES = 8

#: Isolated runs per VGG-16 layer in the traced run (median reported).
ISOLATED_REPEATS = 3


def _speedup(design):
    return lambda run, sim: sim.reports["eyeriss"].seconds / sim.reports[design].seconds


#: The paper anchors ``paper_gap`` is computed over, all on VGG-16/
#: CIFAR-100: (source, quantity, paper value, our value from the pass's
#: ``Session.run()`` and ``Session.simulate()`` results).
ANCHORS = (
    ("Table IV", "SATO speedup over Eyeriss", 1.14, _speedup("sato")),
    ("Table IV", "PTB speedup over Eyeriss", 1.41, _speedup("ptb")),
    ("Table IV", "MINT speedup over Eyeriss", 2.11, _speedup("mint")),
    ("Table IV", "Stellar speedup over Eyeriss", 6.48, _speedup("stellar")),
    ("Table IV", "Prosperity speedup over Eyeriss", 13.27, _speedup("prosperity")),
    ("Table I", "bit density", 0.3421,
     lambda run, sim: run.report.stats.bit_density),
    ("Table I", "product density", 0.0279,
     lambda run, sim: run.report.stats.product_density),
)


def _configs():
    from repro.api import RunConfig

    return [
        RunConfig().with_overrides({
            "workload.model": model,
            "workload.dataset": dataset,
            "workload.preset": "paper",
            "workload.seed": TRACE_SEED,
            **ENGINE,
        })
        for model, dataset in MODELS
    ]


def _setup():
    from repro.workloads import clear_trace_cache, get_trace

    clear_trace_cache()
    configs = _configs()
    for config in configs:
        w = config.workload
        get_trace(w.model, w.dataset, w.preset, w.seed)
    return configs


def _sim_stats(sim) -> dict:
    return {
        name: (report.cycles, report.energy_pj)
        for name, report in sorted(sim.reports.items())
    }


class _Passes:
    """Runs the timed model operations and checks each against the first."""

    def __init__(self, configs, result: Result):
        self.configs = configs
        self.result = result
        self.digests: dict[str, str] = {}
        self.sim_stats: dict[str, dict] = {}
        self.last: dict[str, tuple] = {}
        #: Traced passes: ``report_counts`` of each run, and VGG-16's
        #: per-layer ``WorkloadRun.seconds`` (ms).
        self.counts: list[tuple] = []
        self.apportioned: dict[str, list[float]] = {}

    def one(self, config, tracer: Tracer | None) -> tuple[float, float, int] | None:
        """Cold run + simulate of one model: (run s, simulate s, tiles)."""
        from repro.api import Session

        key = config.workload.model
        self.result.attempted += 2
        try:
            start = time.perf_counter()
            with Session(config) as session:
                with maybe_span(tracer, "session.run"):
                    run = session.run()
                middle = time.perf_counter()
                with maybe_span(tracer, "session.simulate"):
                    sim = session.simulate()
                end = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.result.failed += 2
            self.result.lines.append(f"offline: {key} failed: {exc!r}")
            return None
        digest, stats = report_digest(run.report), _sim_stats(sim)
        self.result.check(f"{key} records repeat across passes",
                          digest == self.digests.setdefault(key, digest))
        self.result.check(f"{key} simulated statistics repeat across passes",
                          stats == self.sim_stats.setdefault(key, stats))
        self.last[key] = (config, run, sim)
        if tracer is not None:
            self.counts.append(report_counts(run.report))
        if tracer is not None and key == "vgg16":
            for layer in run.report.runs:
                self.apportioned.setdefault(layer.name, []).append(
                    layer.seconds * 1e3)
        return middle - start, end - middle, run.report.total_tiles

    def measure(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Models in turn until ``seconds`` pass (two of each at least);
        returns each model's list of timings."""
        timings: dict[str, list] = {c.workload.model: [] for c in self.configs}
        deadline = time.perf_counter() + seconds
        ops = 0
        while True:
            config = self.configs[ops % len(self.configs)]
            ops += 1
            timing = self.one(config, tracer)
            if timing is not None:
                timings[config.workload.model].append(timing)
            if time.perf_counter() >= deadline and (
                    min(map(len, timings.values())) >= 2 or ops >= 4 * len(self.configs)):
                return timings


def _pass_figures(timings: dict) -> tuple[float, float, float]:
    """(tiles, run s, simulate s) of one pass, each model at its mean.

    Means, not medians: the host's speed drifts by tens of percent over a
    few seconds, and the mean over every operation of the run averages
    that drift where a median of a handful of samples picks one stretch.
    """
    tiles = sum(ops[0][2] for ops in timings.values() if ops)
    run_s = sum(fmean(op[0] for op in ops) for ops in timings.values())
    sim_s = sum(fmean(op[1] for op in ops) for ops in timings.values())
    return tiles, run_s, sim_s


def _oracle_check(passes: _Passes, seed: int, result: Result) -> None:
    """Sampled tiles of each model's run records against ``reference``."""
    from repro.core.spike_matrix import SpikeTile, TileCoord
    from repro.engine.backends import ReferenceBackend
    from repro.workloads import get_trace

    oracle = ReferenceBackend()
    rng = np.random.default_rng(seed)
    for key, (config, run, _sim) in passes.last.items():
        w = config.workload
        trace = get_trace(w.model, w.dataset, w.preset, w.seed)
        tile_m, tile_k = config.engine.tile_m, config.engine.tile_k
        mismatches = 0
        for _ in range(ORACLE_TILES):
            index = int(rng.integers(len(trace.workloads)))
            workload, records = trace.workloads[index], run.report.runs[index].records
            tile = int(rng.integers(len(records)))
            col_tiles = -(-workload.k // tile_k)
            row, col = (tile // col_tiles) * tile_m, (tile % col_tiles) * tile_k
            bits = workload.spikes.bits[row : row + tile_m, col : col + tile_k]
            expected = oracle.tile_record(SpikeTile(bits, TileCoord(row, col)))
            mismatches += not np.array_equal(records[tile], np.asarray(expected))
        result.check(f"{key} sampled tiles match the reference oracle",
                     mismatches == 0, f"{mismatches}/{ORACLE_TILES} differ")


def _paper_gap(passes: _Passes, result: Result) -> None:
    _config, run, sim = passes.last["vgg16"]
    logs = []
    result.lines.append("paper_gap anchors (VGG-16/CIFAR-100):")
    for source, label, paper, ours_of in ANCHORS:
        ours = ours_of(run, sim)
        logs.append(abs(math.log(ours / paper)))
        result.lines.append(
            f"  {source:8s} {label:32s} paper {paper:8.4f}  ours {ours:8.4f}"
            f"  ratio {ours / paper:6.3f}")
    gap = math.exp(sum(logs) / len(logs))
    result.metric("paper_gap", gap, f"over {len(ANCHORS)} anchors")


def _isolated_vgg16(passes: _Passes, result: Result) -> dict:
    """Each VGG-16 GeMM run alone, beside apportioned and modelled time."""
    from repro.engine import ProsperityEngine
    from repro.workloads import get_trace

    config, _run, sim = passes.last["vgg16"]
    w = config.workload
    trace = get_trace(w.model, w.dataset, w.preset, w.seed)
    cycles = {layer.name: layer.cycles for layer in sim.prosperity.layers}
    out = {}
    result.lines.append(
        "vgg16 layers: isolated ms | apportioned ms | modelled cycles")
    for workload in trace.workloads:
        times = []
        for _ in range(ISOLATED_REPEATS):
            with ProsperityEngine(backend=config.engine.backend,
                                  plan=config.engine.plan,
                                  cache_size=config.engine.cache_size) as engine:
                start = time.perf_counter()
                engine.run([workload])
                times.append((time.perf_counter() - start) * 1e3)
        row = (median(times), median(passes.apportioned.get(workload.name, [])),
               cycles.get(workload.name, 0.0))
        for suffix, value in zip(("ms", "apportioned_ms", "cycles"), row):
            out[f"vgg16.{workload.name}.{suffix}"] = value
        result.lines.append(
            f"  {workload.name:8s} {row[0]:9.3f} | {row[1]:9.3f} | {row[2]:14.0f}")
    return out


def _traced_layers(passes: _Passes, tracer: Tracer, count: float,
                   result: Result) -> dict:
    # Engine work of Session.run only, not the sampled transforms the
    # simulators run inside Session.simulate.
    metrics = engine_metrics(passes.counts, count)
    metrics.update(planner_metrics(tracer, count, parent="session.run"))
    metrics["arch.simulate_ms"] = sum(
        span.ms for span in tracer.named("arch.simulate")) / count
    for design in SIM_DESIGNS:
        metrics[f"baselines.{design}_ms"] = sum(
            span.ms for span in tracer.named(f"baselines.{design}")) / count
    for key, (_config, _run, sim) in passes.last.items():
        metrics[f"arch.{key}.cycles"] = sim.prosperity.cycles
        metrics[f"arch.{key}.energy_uj"] = sim.prosperity.energy_pj / 1e6
    metrics.update(_isolated_vgg16(passes, result))
    return metrics


def run(seed: int, seconds: float, traced: bool) -> Result:
    result = Result()
    configs = timed_setups(_setup, result)
    passes = _Passes(configs, result)
    for config in configs:  # warm-up: first-call imports and allocations
        passes.one(config, None)
    result.attempted = result.failed = 0
    reset_peak_rss()

    if not traced:
        timings = passes.measure(seconds)
    else:
        untraced = passes.measure(seconds / 2)
        tracer = Tracer()
        with instrument(tracer):
            timings = passes.measure(seconds / 2, tracer)
    result.book_health()
    _oracle_check(passes, seed, result)
    if not all(timings.values()) or (traced and not all(untraced.values())):
        result.check("every model completed a run", False)
        return result
    if traced:
        base, with_spans = _pass_figures(untraced), _pass_figures(timings)
        count = sum(map(len, timings.values())) / len(configs)
        result.layers = _traced_layers(passes, tracer, count, result)
        result.layers["trace.overhead_pct"] = (
            (with_spans[1] + with_spans[2]) / (base[1] + base[2]) - 1.0) * 100.0
        result.tracer = tracer

    tiles, run_s, sim_s = _pass_figures(timings)
    counts = "/".join(str(len(ops)) for ops in timings.values())
    result.metric("tiles_per_s", tiles / run_s,
                  f"{tiles} tiles over the sum of per-model mean run times"
                  f" ({counts} runs)")
    result.metric("sim_s", sim_s, f"sum of per-model mean simulate times"
                  f" ({counts} runs)")
    pass_ms = sum(median(op[0] + op[1] for op in ops) for ops in timings.values())
    result.metric("p50_ms", pass_ms * 1e3, "a pass: each model's median cold "
                  f"Session.run() + simulate(), summed ({counts} runs)")
    _paper_gap(passes, result)
    return result

