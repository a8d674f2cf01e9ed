"""Golden SHA-256 digests of linkform's outputs, kept in goldens.json.

Pinned: the tiled n = 20 / n = 40 scenario files; report.json and trace.jsonl
of ``linkform run`` on both shipped fixtures (seeds 0-4), on tiled n = 20
(seeds 0-2) and on tiled n = 40 (seed 0, the run_tiled40 workload); the
sweep_fixture CSV; and each analyze_small stable set for seeds 0-9. The
workloads count differences as ``cli.golden_mismatch`` rather than as failed
operations, because a change may alter these bytes on purpose; such a change
re-baselines them with

    python3 perfbench/goldens.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import tiling

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
FIXTURES = ("smart_home_gamma570.json", "smart_home_gamma600.json")
TILED_FIXTURE = FIXTURES[0]
TILED_COPIES = {"tiled20": 2, "tiled40": 4}
ANALYZE_SEEDS = range(10)
RUN_FILES = ("report.json", "trace.jsonl")


class InputDrift(RuntimeError):
    """A generated workload input no longer matches its pinned digest."""


def load() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def stable_set_digest(stable) -> str:
    """Digest of a set of topologies, from their sorted link tuples."""
    canonical = sorted(sorted(link.as_tuple() for link in topology.links) for topology in stable)
    return hashlib.sha256(json.dumps(canonical).encode("ascii")).hexdigest()


def run_cases() -> list[tuple[str, str, int]]:
    """(case key, input name, scan seed) for every pinned ``linkform run``."""
    cases = [(f"{name}@{seed}", name, seed) for name in FIXTURES for seed in range(5)]
    cases += [(f"tiled20@{seed}", "tiled20", seed) for seed in range(3)]
    cases.append(("tiled40@0", "tiled40", 0))
    return cases


def write_tiled(cli, name: str, work: Path, pins: dict | None) -> Path:
    """Write the tiled input ``name`` into ``work``; check it against ``pins`` when given."""
    data = tiling.tiled_bytes(cli.fixture_path(TILED_FIXTURE), TILED_COPIES[name])
    digest = tiling.sha256(data)
    if pins is not None and pins.get(name) != digest:
        raise InputDrift(f"{name} input digest {digest} != pinned {pins.get(name)}")
    path = work / f"{name}.json"
    path.write_bytes(data)
    return path


def input_path(cli, name: str, work: Path, pins: dict | None) -> Path:
    if name in TILED_COPIES:
        return write_tiled(cli, name, work, pins)
    return cli.fixture_path(name)


def run_digests(cli, scenario_path: Path, seed: int, out: Path) -> dict[str, str]:
    """Artifact digests of one in-process ``linkform run``."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", "--scenario", str(scenario_path), "--seed", str(seed), "--out", str(out)])
    return {name: sha256_file(out / name) for name in RUN_FILES}


def compare(expected: dict[str, str], actual: dict[str, str], label: str) -> int:
    """Number of differing digests; each difference is noted on stderr."""
    mismatches = 0
    for name, digest in expected.items():
        if actual.get(name) != digest:
            mismatches += 1
            print(f"golden mismatch: {label} {name}", file=sys.stderr)
    return mismatches


def write_all() -> None:
    import workloads

    lf = workloads.fresh_import()
    cli = lf.cli
    goldens: dict = {"tiled_inputs": {}, "run": {}, "sweep_fixture": None, "analyze_small": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, copies in TILED_COPIES.items():
            goldens["tiled_inputs"][name] = tiling.sha256(
                tiling.tiled_bytes(cli.fixture_path(TILED_FIXTURE), copies)
            )
        for key, name, seed in run_cases():
            goldens["run"][key] = run_digests(cli, input_path(cli, name, work, None), seed, work / key)
        sweep = workloads.SweepFixture()
        env = sweep.setup(lf, work, 0, None)
        sweep.iterate(env, 0)
        goldens["sweep_fixture"] = {"sweep.csv": sha256_file(env.out)}
        analyze = workloads.AnalyzeSmall()
        for seed in ANALYZE_SEEDS:
            env = analyze.setup(lf, work, seed, None)
            goldens["analyze_small"][str(seed)] = [
                stable_set_digest(analyze.iterate(env, unit).stable) for unit in range(analyze.units(env))
            ]
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print("usage: python3 perfbench/goldens.py --write", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write_all()
