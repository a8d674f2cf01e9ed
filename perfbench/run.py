"""Benchmark entry point: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; linkform is imported from ``src/``.
The program's own notes go to stderr. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list, measured
untraced and given at reference speed (calibration.py); with ``--trace 1``
they are its ``per_layer`` list, from a run that alternates untraced and
traced passes over the workload's units.

A failed operation is one that raises, exits with an unexpected code or
fails an invariant check, so ``failed / attempted`` is the workload's error
rate. Scratch files go to ``.perfbench-out/`` in the checkout; a traced run
leaves its spans there as ``spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import goldens
import workloads
from calibration import Speedometer
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 11


def _median_sum(times: list[list[tuple[float, float]]], column: int) -> float:
    """Time of one pass over the units: the sum of each unit's median (0: raw, 1: at reference speed)."""
    return sum(statistics.median(sample[column] for sample in unit_times) for unit_times in times)


def measure(workload, args, work: Path, tracer) -> dict:
    """Set up, measure and check one workload; the result line's fields with every metric.

    Times are kept raw and at reference speed (calibration.py); the
    end-to-end metrics use the latter, the per-layer ones the former.
    """
    speed = Speedometer()
    setup_times = []
    setup_layers: dict[str, list[float]] = {metric: [] for metric in workloads.SETUP_SPANS}
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.new_request()
            tracer.reset_totals()

        def set_up():
            lf = workloads.fresh_import()
            return lf, workload.setup(lf, work, args.seed, tracer)

        (lf, env), raw, at_reference = speed.timed(set_up)
        setup_times.append((raw, at_reference))
        if tracer:
            for metric, span in workloads.SETUP_SPANS.items():
                setup_layers[metric].append(tracer.inclusive(span))
    if SRC not in Path(lf.cli.__file__).resolve().parents:
        raise RuntimeError(f"linkform was imported from {lf.cli.__file__}, not from {SRC}")

    workload.warm(env)
    units = workload.units(env)
    times: list[list[tuple[float, float]]] = [[] for _ in range(units)]  # (raw, at reference)
    traced_times: list[list[tuple[float, float]]] = [[] for _ in range(units)]
    layer_passes: list[dict[str, float]] = []
    missing: set[str] = set()
    attempted = failed = 0

    def run_unit(unit: int, traced: bool, stats) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            if traced:
                tracer.new_request()
            result, raw, at_reference = speed.timed(lambda: workload.iterate(env, unit, tracer if traced else None))
            if traced:
                workload.after_traced_unit(env, stats)
            failures = workload.check(env, result, unit)
        except Exception:
            traceback.print_exc()
            failed += 1
            return
        (traced_times if traced else times)[unit].append((raw, at_reference))
        if failures:
            failed += 1
            for failure in failures:
                print(f"invariant failed: {workload.name} unit {unit}: {failure}", file=sys.stderr)

    start = time.perf_counter()
    if tracer is None:
        done = 0
        while done < units or time.perf_counter() - start < args.seconds:
            run_unit(done % units, False, None)
            done += 1
    else:
        passes = 0
        while passes < 2 or time.perf_counter() - start < args.seconds:
            traced = passes % 2 == 1
            stats = None
            if traced:
                stats = workload.pass_stats(env)
                tracer.reset_totals()
                workloads.install_spans(env.lf, tracer, stats)
            try:
                for unit in range(units):
                    run_unit(unit, traced, stats)
            finally:
                tracer.restore()
            if traced:
                values, absent = workloads.layer_metrics(tracer, stats, workload.expected)
                layer_passes.append(values)
                missing.update(absent)
            passes += 1

    for label, samples in (("untraced", times), ("traced", traced_times)):
        if any(samples):
            text = " | ".join(" ".join(f"{raw:.3f}/{ref:.3f}" for raw, ref in unit) for unit in samples)
            print(f"{label} samples (raw/reference s): {text}", file=sys.stderr)
    golden_mismatch = workload.goldens(env)
    if any(not unit_times for unit_times in times + (traced_times if tracer else [])):
        raise RuntimeError("a unit has no completed timed run")
    raw_wall = _median_sum(times, 0)
    print(f"raw: wall {raw_wall:.6g} s, setup {statistics.median(t[0] for t in setup_times):.6g} s; "
          f"calibration kernel median {statistics.median(speed.samples):.6g} s", file=sys.stderr)
    if tracer is None:
        metrics = {"wall_s": _median_sum(times, 1), "setup_s": statistics.median(t[1] for t in setup_times)}
    else:
        metrics = {metric: statistics.median(p[metric] for p in layer_passes) for metric in layer_passes[0]}
        for metric, span in workloads.SETUP_SPANS.items():
            metrics[metric] = statistics.median(setup_layers[metric]) if span in workload.setup_spans else 0.0
        traced_wall = _median_sum(traced_times, 0)
        metrics["cli.golden_mismatch"] = golden_mismatch
        metrics["bench.raw_wall_s"] = raw_wall
        metrics["bench.traced_wall_s"] = traced_wall
        metrics["bench.trace_overhead_s"] = traced_wall - raw_wall
        metrics["bench.calibration_s"] = statistics.median(speed.samples)
        metrics["bench.missing_spans"] = len(missing)
        for span in sorted(missing):
            print(f"missing: span {span} recorded no call; its metrics read -1", file=sys.stderr)
        tracer.write(OUT / f"spans-{workload.name}-{args.seed}.jsonl")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linkform" / "__init__.py").is_file():
        print(f"error: no linkform sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    for variable in ("LINKFORM_SEED", "LINKFORM_OUT", "LINKFORM_MAX_MOVES"):
        os.environ.pop(variable, None)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(workload, args, work, Tracer() if args.trace else None)
    except goldens.InputDrift as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result["metrics"]
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in result["metrics"].items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
