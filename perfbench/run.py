"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload point-stream --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose spans are also written to ``perfbench/out/``.  Every
answer is checked against an oracle after the timed phase; a wrong answer
makes the exit status non-zero.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from measure import Windows

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares, in its order."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: The timed phase is summarised in windows of this many seconds (see
#: ``measure.Windows``).
WINDOW_SECONDS = 1.0


def end_to_end(workload, setup_s: float, attempted: int, failed: int):
    """The end-to-end metrics, plus the windows they were summarised from."""
    count = max(1, round(workload.seconds / WINDOW_SECONDS))
    windows = Windows.of(workload.done, workload.latencies, workload.units,
                         workload.start, workload.seconds / count, count, workload.summary)
    values = {
        "throughput_qps": windows.throughput,
        "latency_p50_ms": windows.p50 * 1e3,
        "latency_p90_ms": windows.p90 * 1e3,
        "build_s": workload.build_s(),
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": workload.rss,
        "setup_s": setup_s,
    }
    return values, windows


def layer_metrics(workload) -> dict:
    """Every per-layer metric; layers the workload never reached read 0."""
    tracer = workload.tracer
    engine = [d for name in {s[1] for s in tracer.spans if s[1].startswith("engine.")}
              for d in tracer.durations(name)]
    rounds = workload.build_rounds
    values = {name: 0.0 for name in metric_units("per_layer")}
    values.update({
        "algebra.sturm_chains": len(tracer.named("algebra.sturm_chain")) / rounds,
        "algebra.sturm_chain_s": float(tracer.durations("algebra.sturm_chain").sum()) / rounds,
        "algebra.restrictions": tracer.counts["algebra.restrictions"] / rounds,
        "algebra.polynomials": tracer.counts["algebra.polynomials"] / rounds,
        "model.is_received_calls": tracer.counts["model.is_received_calls"] / rounds,
        "pointlocation.bounds_s": float(tracer.durations("pointlocation.bounds").sum()) / rounds,
        "pointlocation.zone_index_s": float(tracer.durations("pointlocation.zone_index").sum()) / rounds,
        "pointlocation.segment_test_s": float(tracer.durations("pointlocation.segment_test").sum()) / rounds,
        "engine.calls": len(engine),
        "engine.points": tracer.counts["engine.points"],
        "engine.busy_s": float(sum(engine)),
    })
    values.update(workload.layers())
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no library sources at {SOURCE}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SOURCE))

    from tracing import Tracer, instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    with instrument(tracer) if tracer is not None else nullcontext():
        setup_s = workload.run()
        layers = layer_metrics(workload) if tracer is not None else None
    attempted, failed = workload.check()
    values, windows = end_to_end(workload, setup_s, attempted, failed)

    label = "traced end-to-end" if tracer is not None else "end-to-end"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} {label}: "
          f"{workload.summary} figures of {windows.count} windows of {windows.samples} latency "
          f"samples, one per {workload.op} (fewest in a window: {windows.fewest})")
    units = metric_units("end_to_end")
    for name, value in values.items():
        print(f"  {name:<16} {value:14.6g} {units[name]}")
    if tracer is not None:
        print("per-layer:")
        for name, value in layers.items():
            print(f"  {name:<34} {value:14.6g}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(HERE.parent)}")
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in units.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
