"""Run every workload untraced and traced, print every metric, optionally save a baseline.

    python3 perfbench/record.py [--seed N] [--seconds S] [--out perfbench/baseline.json]

Each workload runs twice through run.py, each in its own process: with
``--trace 0`` for the end-to-end metrics and with ``--trace 1`` for the
per-layer ones. Both runs check the invariants. The tracing overhead comes
from the traced run, which alternates untraced and traced passes. The exit
code is 1 if any run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="write the baseline JSON here")
    args = parser.parse_args(argv)

    baseline = {
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "end_to_end_times_at_reference_kernel_s": REFERENCE_S,
        "workloads": {},
    }
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        untraced = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        ok &= untraced["correct"] and traced["correct"]
        end_to_end = {metric: entry["value"] for metric, entry in untraced["metrics"].items()}
        end_to_end["error_rate"] = untraced["failed"] / untraced["attempted"]
        per_layer = {metric: entry["value"] for metric, entry in traced["metrics"].items()}
        overhead = per_layer["bench.trace_overhead_s"]
        baseline["workloads"][name] = {
            "why": workload["why"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "trace_overhead_share": overhead / per_layer["bench.raw_wall_s"],
            "dynamics_share": per_layer["game.dynamics_s"] / per_layer["bench.traced_wall_s"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        units["error_rate"] = "ratio"
        for metric, value in list(end_to_end.items()) + list(per_layer.items()):
            print(f"{name:14} {metric:28} {value:>14.6g} {units[metric]}")
        for share in ("trace_overhead_share", "dynamics_share"):
            print(f"{name:14} {share:28} {baseline['workloads'][name][share]:>14.6g} ratio")
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
