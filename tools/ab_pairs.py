"""Alternating A/B pairs of the benchmark: a parent revision against the working tree.

    python3 tools/ab_pairs.py --parent REV --workload NAME [--workload NAME ...] [--seed 0] [--work DIR]

The parent's files come from ``git archive REV`` and the change's from a copy
of the working tree (tracked and untracked files that git does not ignore),
each in its own temporary directory. Per pair and workload it runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
on each side, where T is BENCHMARK.json's ``run_seconds``, the run length the
benchmark itself uses, for 10 pairs, the fewest that a claimed gain is judged
on. It runs with PYTHONDONTWRITEBYTECODE=1 and every ``__pycache__``
removed first, so both sides compile their sources afresh. The side that runs
first alternates by pair, starting with the parent. Progress goes to stderr;
stdout gets one JSON object with each workload's per-pair end-to-end metrics,
their medians, quartiles (``statistics.quantiles(n=4, method='inclusive')``),
the change's wins and its median change in percent. ``parent_iqr`` is the
parent's q3 - q1, and ``gain_claimable`` says whether the change wins at least
nine tenths of the pairs, ties counting for neither, with its median below the
parent's by more than ``parent_iqr``: the rule a claimed gain is judged by. It
also gives, per side, the median time of 20 ``compile()`` calls on each
``src/linkform/*.py``, the sides alternating: the part of setup_s that grows
with the source, since each set-up compiles it afresh. Beside it,
``source_lines`` gives each side's line count of each of those files and their
total, as ``wc -l`` counts them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s")  # BENCHMARK.json's end-to-end metrics, lower is better
PAIRS = 10
COMPILES = 20
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def export_parent(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def copy_working_tree(into: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT, check=True, capture_output=True
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``checkout``: its result line."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout.name} {workload}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def compile_ms(sides: dict[str, Path]) -> dict[str, dict[str, float]]:
    """Per side, per ``src/linkform/*.py`` and in total, the median milliseconds of ``COMPILES`` compiles.

    Each round compiles every file of each side, the side that goes first alternating by round.
    """
    files = {side: sorted((checkout / "src" / "linkform").glob("*.py")) for side, checkout in sides.items()}
    samples = {side: {path.name: [] for path in paths} for side, paths in files.items()}
    for round_ in range(COMPILES):
        for side in list(files)[:: 1 if round_ % 2 == 0 else -1]:
            for path in files[side]:
                source = path.read_bytes()
                start = time.perf_counter()
                compile(source, path.name, "exec", dont_inherit=True)
                samples[side][path.name].append(time.perf_counter() - start)
    result = {}
    for side, times in samples.items():
        medians = {name: statistics.median(values) * 1e3 for name, values in times.items()}
        result[side] = {name: round(value, 3) for name, value in {**medians, "total": sum(medians.values())}.items()}
    return result


def source_lines(sides: dict[str, Path]) -> dict[str, dict[str, int]]:
    """Per side, the newline count of each ``src/linkform/*.py`` and their total."""
    result = {}
    for side, checkout in sides.items():
        lines = {path.name: path.read_bytes().count(b"\n") for path in sorted((checkout / "src" / "linkform").glob("*.py"))}
        result[side] = {**lines, "total": sum(lines.values())}
    return result


def summary(parent: list[float], change: list[float]) -> dict:
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    (p1, _, p3), (c1, _, c3) = (statistics.quantiles(values, n=4, method="inclusive") for values in (parent, change))
    wins = sum(after < before for before, after in zip(parent, change))
    return {
        "parent": [round(value, 5) for value in parent],
        "change": [round(value, 5) for value in change],
        "parent_median": round(parent_median, 5),
        "change_median": round(change_median, 5),
        "parent_quartiles": [round(p1, 5), round(p3, 5)],
        "change_quartiles": [round(c1, 5), round(c3, 5)],
        "change_wins": wins,
        "median_change_pct": round((change_median / parent_median - 1.0) * 100.0, 2),
        "parent_iqr": round(p3 - p1, 5),
        "gain_claimable": 10 * wins >= 9 * len(parent) and parent_median - change_median > p3 - p1,
    }


def pairs(sides: dict[str, Path], workload: str, seed: int) -> dict:
    results: dict[str, list[dict]] = {side: [] for side in sides}
    parent_first = [pair % 2 == 0 for pair in range(PAIRS)]
    for pair, first in enumerate(parent_first):
        for side in ("parent", "change") if first else ("change", "parent"):
            result = run_once(sides[side], workload, seed)
            results[side].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {pair + 1}/{PAIRS} {side}: wall_s {wall:.5f}", file=sys.stderr)
    record = {
        "pairs": PAIRS,
        "workload_seed": seed,
        "parent_first": parent_first,
        "failed": {side: sum(result["failed"] for result in runs) for side, runs in results.items()},
        "attempted": {side: sum(result["attempted"] for result in runs) for side, runs in results.items()},
        "correct": all(result["correct"] for runs in results.values() for result in runs),
    }
    for metric in METRICS:
        values = {side: [result["metrics"][metric]["value"] for result in runs] for side, runs in results.items()}
        record[metric] = summary(values["parent"], values["change"])
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against, e.g. HEAD")
    parser.add_argument("--workload", required=True, action="append", help="a perfbench workload; repeatable")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", default=None, help="where the two temporary checkouts go (default: the system's)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="ab-pairs-", dir=args.work) as work:
        sides = {"parent": Path(work) / "parent", "change": Path(work) / "change"}
        for checkout in sides.values():
            checkout.mkdir()
        export_parent(args.parent, sides["parent"])
        copy_working_tree(sides["change"])
        compiled, lines = compile_ms(sides), source_lines(sides)
        workloads = {workload: pairs(sides, workload, args.seed) for workload in args.workload}
    method = (
        f"`python3 tools/ab_pairs.py --parent {args.parent} "
        + "".join(f"--workload {workload} " for workload in args.workload)
        + f"--seed {args.seed}`: parent from `git archive {args.parent}`, change from a copy of the working tree; per pair, "
        f"`python3 perfbench/run.py --workload W --seed {args.seed} --seconds {SECONDS:g} --trace 0` on each side "
        "with PYTHONDONTWRITEBYTECODE=1 and __pycache__ removed before each run, the side that runs first alternating "
        "by pair (parent_first lists it); quartiles by statistics.quantiles(n=4, method='inclusive'); gain_claimable: "
        "at least 9/10 of the pairs won, ties counting for neither, and parent_median - change_median > parent_iqr; "
        "compile_ms: per side, "
        f"the median of {COMPILES} compile() calls on each src/linkform/*.py, the sides alternating by round, before the pairs; "
        "source_lines: per side, each src/linkform/*.py's newline count and their total"
    )
    result = {"method": method, "compile_ms": compiled, "source_lines": lines,
              "untraced_pairs": {f"seed{args.seed}": workloads}}
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
