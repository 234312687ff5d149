"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 15 --trace 0

``--workload`` is ``offline``, ``serve`` or ``stream``; ``--seed`` makes
the inputs; ``--seconds`` is how long the run measures. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
measures half the time untraced and half with spans around each layer,
reports the per-layer metrics of ``BENCHMARK.json`` plus the tracing
overhead, and writes the spans to ``perfbench/out/``.

``BENCHMARK.json`` lists only the metrics every workload measures. What
one workload measures beyond them (offline's ``sim_s`` and ``paper_gap``,
serve's wire and scheduler numbers, stream's window numbers, the VGG-16
layer table) is printed above the result line, not put in it.

Human-readable lines come first; the last line is the JSON result. The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline", "serve", "stream")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _split(measured: dict, names: list[str], what: str) -> tuple[dict, dict]:
    """(the manifest's metrics, the rest) of ``measured``; every metric
    the manifest names must have been measured."""
    missing = [name for name in names if name not in measured]
    if missing:
        raise KeyError(f"{what} metrics of BENCHMARK.json not measured: {missing}")
    return ({name: measured[name] for name in names},
            {name: value for name, value in measured.items() if name not in names})


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    # Import the program from this checkout's sources, and the benchmark
    # as a package (not as loose modules from the script directory).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = importlib.import_module(f"perfbench.{args.workload}")
    traced = bool(args.trace)
    result = workload.run(args.seed, args.seconds, traced)

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in result.lines:
        print(line)
    for name, ok, detail in result.checks:
        if not ok:
            print(f"CHECK FAILED: {name} {detail}")
    print(f"checks: {sum(ok for _, ok, _ in result.checks)}/{len(result.checks)}"
          f" passed; operations: {result.attempted} attempted, "
          f"{result.failed} failed")
    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    measured = result.layers if traced else result.metrics
    reported, extra = _split(measured, list(units), section)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in reported.items()}
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']:8s} "
              f"{result.notes.get(name, '')}")
    if extra:
        print(f"also measured by {args.workload} (printed only):")
        for name, value in extra.items():
            print(f"  {name:34s} {value:14.6g} {result.notes.get(name, '')}")
    if result.tracer is not None:
        print("self time per span (ms, whole traced phase):")
        for name, ms in sorted(result.tracer.self_ms().items(),
                               key=lambda item: -item[1]):
            print(f"  {name:34s} {ms:12.3f}")
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}-spans.jsonl"
        result.tracer.write(path)
        print(f"spans: {len(result.tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
