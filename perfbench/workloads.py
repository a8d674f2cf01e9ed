"""The benchmark's workloads, each driven through linkform's public API.

A workload has a set-up (``setup``), a list of timed units (``iterate``), an
invariant check per unit that runs outside the timed region (``check``) and a
golden-digest comparison after the measurement (``goldens``). For a traced
pass it names the spans it must record (``expected``) and supplies the
counters that ``layer_metrics`` turns into per-layer metrics (``pass_stats``,
``after_traced_unit``).

Why these three:

* run_tiled40 - one ``linkform run`` on the 570 fixture tiled 4x (n = 40,
  scan seed 0). About 96% of its time is best-response dynamics, where the
  per-candidate BFS of the game layer dominates; incremental hop distances
  should move it most and cycle detection not at all (the run converges
  after 178 moves without repeating a topology). Scan seeds other than 0
  often cycle at n = 40 (seed 1 runs all 10,000 moves, about 45 s on a
  2-core x86-64 host with Python 3.11), so another scan seed is another
  workload, not a held-out copy of this one. The input is pinned by digest
  and does not depend on ``--seed``.
* sweep_fixture - one ``linkform sweep`` over gamma 500:700:10 x 5 seeds on
  the fixture (n = 10, 105 runs). Four runs (gamma 610-640, seed 2) cycle
  through six moves until ``max_moves``; lowered from 10,000 to 1,000 so a
  sweep takes about 3 s on that host, they still take most of its time.
  Many moves at small n expose per-move overhead (cost vector,
  ``links_digest``), the target of cycle detection, and any fixed overhead
  of a vectorised engine.
  The input is pinned by digest and does not depend on ``--seed``.
* analyze_small - for each of 24 seeded 6-node scenarios (scenarios.py):
  brute-force enumeration of all 13,824 link sets, ``is_pairwise_stable`` on
  every stable topology, ``propose_add`` / ``delta_cost_remove`` on every
  absent pairing and incidence of each, then ``criteria_report``. Thousands
  of cold link-set loads, the short-circuiting stability path and one fresh
  evaluator per query: a change that speeds incremental dynamics but slows
  cold evaluation shows here.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import goldens
import scenarios

MODULES = ("model", "propagation", "cost", "game", "criteria", "cli")


def fresh_import() -> SimpleNamespace:
    """Import linkform from scratch, so that every set-up pays the import."""
    for name in [name for name in sys.modules if name == "linkform" or name.startswith("linkform.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"linkform.{name}") for name in MODULES})


def cycle_moves(hashes: list[str], initial: str) -> int:
    """Moves at or after the first step whose topology hash repeats an earlier state.

    ``initial`` is the hash of the empty topology the dynamics start from.
    """
    seen = {initial}
    for index, digest in enumerate(hashes):
        if digest in seen:
            return len(hashes) - index
        seen.add(digest)
    return 0


@dataclass
class DynamicsStats:
    """Counts taken from the results of best_response_dynamics calls."""

    max_moves: int
    initial: str
    moves: int = 0
    adds: int = 0
    removes: int = 0
    cycle_moves: int = 0
    capped_runs: int = 0

    def observe(self, result, add_type) -> None:
        _, trace = result
        steps = trace.steps
        adds = sum(1 for step in steps if isinstance(step.move, add_type))
        self.moves += len(steps)
        self.adds += adds
        self.removes += len(steps) - adds
        self.cycle_moves += cycle_moves([step.topology_hash for step in steps], self.initial)
        self.capped_runs += int(not trace.converged and len(steps) == self.max_moves)


@dataclass
class PassStats:
    """Counts observed during one traced pass."""

    dynamics: DynamicsStats
    stability_violations: int = 0
    stable_found: int = 0
    enumerated_sets: int = 0
    report_bytes: int = 0
    trace_bytes: int = 0


# metric -> span whose calls it measures; a span the workload expects that
# records no call makes the metric "missing" (-1), not zero.
LAYER_SPANS = {
    "game.dynamics_s": "game.best_response_dynamics",
    "game.us_per_move": "game.best_response_dynamics",
    "game.moves": "game.best_response_dynamics",
    "game.adds": "game.best_response_dynamics",
    "game.removes": "game.best_response_dynamics",
    "game.cycle_moves": "game.best_response_dynamics",
    "game.capped_runs": "game.best_response_dynamics",
    "model.links_digest_calls": "model.links_digest",
    "model.links_digest_s": "model.links_digest",
    "game.stability_s": "game.is_pairwise_stable",
    "game.stability_violations": "game.is_pairwise_stable",
    "game.enumerate_s": "game.brute_force_stable_set",
    "game.enumerated_sets": "game.brute_force_stable_set",
    "game.stable_found": "game.brute_force_stable_set",
    "game.stable_ratio": "game.brute_force_stable_set",
    "game.query_s": "game.propose_add",
    "game.queries": "game.propose_add",
    "propagation.calls": "propagation.required_tx_power",
    "propagation.s": "propagation.required_tx_power",
    "cost.total_cost_calls": "cost.total_cost",
    "cost.total_cost_s": "cost.total_cost",
    "criteria.report_s": "criteria.criteria_report",
    "criteria.structure_s": "criteria.check_structure",
    "cli.report_s": "cli.build_run_report",
    "cli.serialize_s": "cli.main",
    "cli.report_bytes": "cli.build_run_report",
    "cli.trace_bytes": "cli.build_run_report",
}
SETUP_SPANS = {"cli.ingest_s": "cli.load_scenario", "model.validate_s": "model.validate_scenario"}
PROPAGATION_SPANS = ("propagation.required_tx_power", "propagation.link_feasible")
QUERY_SPANS = ("game.propose_add", "game.delta_cost_remove")


def install_spans(lf: SimpleNamespace, tracer, stats: PassStats) -> None:
    """Rebind the public functions that one linkform module calls in another."""
    game, criteria, cli, cost = lf.game, lf.criteria, lf.cli, lf.cost

    def dynamics(result):
        stats.dynamics.observe(result, game.Add)

    def stability(report):
        stats.stability_violations += len(report.severance_violations) + len(report.addition_violations)

    def enumerate_(stable):
        stats.stable_found += len(stable)

    for module in (cli, game):
        tracer.wrap(module, "is_pairwise_stable", "game.is_pairwise_stable", observe=stability)
        tracer.wrap(module, "validate_scenario", "model.validate_scenario")
    tracer.wrap(cli, "best_response_dynamics", "game.best_response_dynamics", observe=dynamics)
    tracer.wrap(cli, "total_cost", "cost.total_cost")
    tracer.wrap(cli, "load_scenario", "cli.load_scenario")
    tracer.wrap(cli, "build_run_report", "cli.build_run_report")
    tracer.wrap(criteria, "criteria_report", "criteria.criteria_report")
    tracer.wrap(criteria, "check_structure", "criteria.check_structure")
    tracer.wrap(game, "brute_force_stable_set", "game.brute_force_stable_set", observe=enumerate_)
    tracer.wrap(game, "propose_add", "game.propose_add")
    tracer.wrap(game, "delta_cost_remove", "game.delta_cost_remove")
    tracer.wrap(game, "links_digest", "model.links_digest", keep=False)
    tracer.wrap(game, "required_tx_power", "propagation.required_tx_power", keep=False)
    tracer.wrap(game, "link_feasible", "propagation.link_feasible", keep=False)
    tracer.wrap(cost, "required_tx_power", "propagation.required_tx_power", keep=False)


def layer_metrics(tracer, stats: PassStats, expected: set[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the expected spans that recorded no call."""
    dyn = stats.dynamics
    dynamics_s = tracer.inclusive("game.best_response_dynamics")
    enumerate_calls = tracer.calls("game.brute_force_stable_set")
    values = {
        "game.dynamics_s": dynamics_s,
        "game.us_per_move": dynamics_s / dyn.moves * 1e6 if dyn.moves else 0.0,
        "game.moves": dyn.moves,
        "game.adds": dyn.adds,
        "game.removes": dyn.removes,
        "game.cycle_moves": dyn.cycle_moves,
        "game.capped_runs": dyn.capped_runs,
        "model.links_digest_calls": tracer.calls("model.links_digest"),
        "model.links_digest_s": tracer.inclusive("model.links_digest"),
        "game.stability_s": tracer.inclusive("game.is_pairwise_stable"),
        "game.stability_violations": stats.stability_violations,
        "game.enumerate_s": tracer.inclusive("game.brute_force_stable_set"),
        "game.enumerated_sets": stats.enumerated_sets if enumerate_calls else 0,
        "game.stable_found": stats.stable_found,
        "game.stable_ratio": stats.stable_found / stats.enumerated_sets if enumerate_calls else 0.0,
        "game.query_s": sum(tracer.inclusive(name) for name in QUERY_SPANS),
        "game.queries": sum(tracer.calls(name) for name in QUERY_SPANS),
        "propagation.calls": sum(tracer.calls(name) for name in PROPAGATION_SPANS),
        "propagation.s": sum(tracer.inclusive(name) for name in PROPAGATION_SPANS),
        "cost.total_cost_calls": tracer.calls("cost.total_cost"),
        "cost.total_cost_s": tracer.inclusive("cost.total_cost"),
        "criteria.report_s": tracer.inclusive("criteria.criteria_report"),
        "criteria.structure_s": tracer.inclusive("criteria.check_structure"),
        "cli.report_s": tracer.self_time("cli.build_run_report"),
        "cli.serialize_s": tracer.self_time("cli.main"),
        "cli.report_bytes": stats.report_bytes,
        "cli.trace_bytes": stats.trace_bytes,
    }
    missing = sorted({span for span in LAYER_SPANS.values() if span in expected and not tracer.calls(span)})
    for metric, span in LAYER_SPANS.items():
        if span in missing:
            values[metric] = -1.0
    return values, missing


def spanned(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _quiet_main(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _load_validated(lf: SimpleNamespace, path: Path, tracer):
    """The set-up's ingest and validation, spanned when traced."""
    with spanned(tracer, "cli.load_scenario"):
        scenario = lf.cli.load_scenario(path)
    with spanned(tracer, "model.validate_scenario"):
        issues = lf.model.validate_scenario(scenario.nodes, scenario.config)
    if issues:
        raise ValueError("; ".join(str(issue) for issue in issues))
    return scenario


def check_dynamics(lf: SimpleNamespace, scenario, topology, trace) -> list[str]:
    """The run invariants: replay, final cost vector, stability when converged."""
    failures = []
    if lf.game.replay_trace(scenario, trace).links != topology.links:
        failures.append("replay_trace does not reproduce the final topology")
    if trace.steps:
        last = dict(trace.steps[-1].costs)
        for node in scenario.nodes:
            if lf.cost.total_cost(node, topology, scenario.config).total.value != last[node.id]:
                failures.append(f"trace cost of node {node.id} differs from cost.total_cost")
    if trace.converged and not lf.game.is_pairwise_stable(topology, scenario.config).stable:
        failures.append("converged topology is not pairwise stable")
    return failures


def trace_from_jsonl(lf: SimpleNamespace, text: str, converged: bool):
    """Rebuild a DynamicsTrace from a trace.jsonl artifact."""
    game, model = lf.game, lf.model
    steps = []
    for line in text.splitlines():
        row = json.loads(line)
        move, link_raw = row["move"], row["move"]["link"]
        link = model.Link(link_raw["node_a"], link_raw["iface_a"], link_raw["node_b"], link_raw["iface_b"])
        if move["kind"] == "add":
            parsed = game.Add(link, float(move["delta_a"]), float(move["delta_b"]))
        else:
            parsed = game.Remove(link, move["initiator"], float(move["delta"]))
        costs = tuple((int(node_id), float(value)) for node_id, value in row["costs"].items())
        steps.append(game.TraceStep(parsed, row["topology_hash"], costs))
    return game.DynamicsTrace(seed=0, steps=tuple(steps), converged=converged)


@dataclass
class CliEnv:
    lf: SimpleNamespace
    scenario: object
    argv: list[str]
    out: Path
    work: Path
    verified: dict = field(default_factory=dict)  # artifact digest -> invariant failures


class CliWorkload:
    """A workload whose unit is one in-process ``cli.main`` call."""

    max_moves: int
    setup_spans = {"cli.load_scenario", "model.validate_scenario"}

    def units(self, env: CliEnv) -> int:
        return 1

    def iterate(self, env: CliEnv, unit: int, tracer=None) -> int:
        with spanned(tracer, "cli.main"):
            return _quiet_main(env.lf.cli, env.argv)

    def pass_stats(self, env: CliEnv) -> PassStats:
        return PassStats(DynamicsStats(self.max_moves, env.lf.model.links_digest(())))

    def after_traced_unit(self, env: CliEnv, stats: PassStats) -> None:
        pass


class RunTiled40(CliWorkload):
    name = "run_tiled40"
    max_moves = 10_000
    expected = {
        "game.best_response_dynamics", "model.links_digest", "propagation.required_tx_power",
        "game.is_pairwise_stable", "criteria.criteria_report", "criteria.check_structure",
        "cost.total_cost", "cli.build_run_report", "cli.main",
    }

    def setup(self, lf, work: Path, seed: int, tracer) -> CliEnv:
        path = goldens.write_tiled(lf.cli, "tiled40", work, goldens.load()["tiled_inputs"])
        scenario = _load_validated(lf, path, tracer)
        out = work / "run"
        argv = ["run", "--scenario", str(path), "--seed", "0", "--out", str(out), "--max-moves", str(self.max_moves)]
        return CliEnv(lf, scenario, argv, out, work)

    def warm(self, env: CliEnv) -> None:
        _quiet_main(env.lf.cli, ["run", "--scenario", str(env.lf.cli.fixture_path(goldens.FIXTURES[0])),
                                 "--out", str(env.work / "warm")])

    def check(self, env: CliEnv, code: int, unit: int) -> list[str]:
        failures = [] if code == 0 else [f"exit code {code}, expected 0"]
        digests = tuple(goldens.sha256_file(env.out / name) for name in goldens.RUN_FILES)
        if digests not in env.verified:
            lf = env.lf
            report = json.loads((env.out / "report.json").read_text(encoding="utf-8"))
            trace = trace_from_jsonl(lf, (env.out / "trace.jsonl").read_text(encoding="utf-8"), report["converged"])
            topology = lf.cli.load_topology(env.out / "topology.json", env.scenario)
            env.verified[digests] = check_dynamics(lf, env.scenario, topology, trace)
        return failures + env.verified[digests]

    def goldens(self, env: CliEnv) -> int:
        pinned = goldens.load()
        mismatches = 0
        for digests in env.verified:
            mismatches += goldens.compare(pinned["run"]["tiled40@0"], dict(zip(goldens.RUN_FILES, digests)), "tiled40@0")
        for key, name, seed in goldens.run_cases():
            if key == "tiled40@0":
                continue
            path = goldens.input_path(env.lf.cli, name, env.work, pinned["tiled_inputs"])
            digests = goldens.run_digests(env.lf.cli, path, seed, env.work / "goldens" / key)
            mismatches += goldens.compare(pinned["run"][key], digests, key)
        return mismatches

    def after_traced_unit(self, env: CliEnv, stats: PassStats) -> None:
        stats.report_bytes += (env.out / "report.json").stat().st_size
        stats.trace_bytes += (env.out / "trace.jsonl").stat().st_size


class SweepFixture(CliWorkload):
    name = "sweep_fixture"
    max_moves = 1_000
    expected = {
        "game.best_response_dynamics", "model.links_digest", "propagation.required_tx_power",
        "criteria.criteria_report", "criteria.check_structure", "cli.main",
    }
    gammas = [round(500.0 + 10.0 * step, 9) for step in range(21)]
    seeds = 5

    def setup(self, lf, work: Path, seed: int, tracer) -> CliEnv:
        path = lf.cli.fixture_path(goldens.FIXTURES[0])
        scenario = _load_validated(lf, path, tracer)
        env = CliEnv(lf, scenario, [], work / "sweep.csv", work)
        env.argv = ["sweep", "--scenario", str(path), "--gamma", "500:700:10", "--seeds", str(self.seeds),
                    "--max-moves", str(self.max_moves), "--out", str(env.out)]
        return env

    def warm(self, env: CliEnv) -> None:
        _quiet_main(env.lf.cli, ["sweep", "--scenario", str(env.lf.cli.fixture_path(goldens.FIXTURES[0])),
                                 "--gamma", "570", "--out", str(env.work / "warm.csv")])

    def check(self, env: CliEnv, code: int, unit: int) -> list[str]:
        failures = [] if code == 0 else [f"exit code {code}, expected 0"]
        digest = goldens.sha256_file(env.out)
        if digest not in env.verified:
            env.verified[digest] = self._check_rows(env)
        return failures + env.verified[digest]

    def _check_rows(self, env: CliEnv) -> list[str]:
        """Rerun every converged row's dynamics and check the run invariants on it."""
        lf = env.lf
        with open(env.out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        grid = [(gamma, seed) for gamma in self.gammas for seed in range(self.seeds)]
        if [(float(row["gamma"]), int(row["seed"])) for row in rows] != grid:
            return ["sweep rows do not cover the gamma x seed grid in order"]
        failures = []
        for row in rows:
            if row["converged"] != "True":
                if int(row["moves"]) != self.max_moves:
                    failures.append(f"row {row['gamma']}/{row['seed']} stopped early without converging")
                continue
            config = dataclasses.replace(env.scenario.config, gamma=float(row["gamma"]))
            scenario = lf.model.Scenario(env.scenario.nodes, config)
            topology, trace = lf.game.best_response_dynamics(scenario, int(row["seed"]), self.max_moves)
            if len(trace.steps) != int(row["moves"]) or not trace.converged:
                failures.append(f"row {row['gamma']}/{row['seed']} does not rerun to the same result")
            failures += check_dynamics(lf, scenario, topology, trace)
        return failures

    def goldens(self, env: CliEnv) -> int:
        pinned = goldens.load()["sweep_fixture"]
        return goldens.compare(pinned, {"sweep.csv": goldens.sha256_file(env.out)}, "sweep_fixture")


@dataclass
class AnalyzeEnv:
    lf: SimpleNamespace
    seed: int
    cases: list
    results: dict = field(default_factory=dict)  # unit -> stable-set digest


@dataclass
class Analysis:
    stable: list
    reports: list
    additions: list
    removals: list


class AnalyzeSmall:
    name = "analyze_small"
    scenarios = 24
    setup_spans = {"model.validate_scenario"}
    expected = {
        "game.brute_force_stable_set", "game.is_pairwise_stable", "game.propose_add",
        "criteria.criteria_report", "propagation.required_tx_power",
    }

    def setup(self, lf, work: Path, seed: int, tracer) -> AnalyzeEnv:
        cases = scenarios.generate(lf.model, lf.propagation, seed, self.scenarios)
        for case in cases:
            with spanned(tracer, "model.validate_scenario"):
                issues = lf.model.validate_scenario(case.scenario.nodes, case.scenario.config)
            if issues:
                raise ValueError("; ".join(str(issue) for issue in issues))
        return AnalyzeEnv(lf, seed, cases)

    def warm(self, env: AnalyzeEnv) -> None:
        pass

    def units(self, env: AnalyzeEnv) -> int:
        return len(env.cases)

    def iterate(self, env: AnalyzeEnv, unit: int, tracer=None) -> Analysis:
        game = env.lf.game
        case = env.cases[unit]
        scenario, config = case.scenario, case.scenario.config
        stable = sorted(game.brute_force_stable_set(scenario), key=lambda topology: sorted(topology.links))
        reports = [game.is_pairwise_stable(topology, config) for topology in stable]
        additions, removals = [], []
        for topology in stable:
            for a, r_a, b, r_b in case.pairings:
                if not topology.has_pair(a, b):
                    additions.append(game.propose_add(topology, a, r_a, b, r_b, config))
            for link in sorted(topology.links):
                for endpoint in link.pair:
                    removals.append(game.delta_cost_remove(scenario.node(endpoint), topology, link, config))
        env.lf.criteria.criteria_report(scenario)
        return Analysis(stable, reports, additions, removals)

    def check(self, env: AnalyzeEnv, result: Analysis, unit: int) -> list[str]:
        failures = []
        if not all(report.stable for report in result.reports):
            failures.append("an enumerated stable topology fails is_pairwise_stable")
        if any(not isinstance(outcome, env.lf.game.Rejection) for outcome in result.additions):
            failures.append("a stable topology accepts a proposed addition")
        if any(delta < 0 for delta in result.removals):
            failures.append("a stable topology has an improving severance")
        env.results[unit] = goldens.stable_set_digest(result.stable)
        return failures

    def goldens(self, env: AnalyzeEnv) -> int:
        pinned = goldens.load()["analyze_small"].get(str(env.seed))
        if pinned is None:
            print(f"note: no analyze_small goldens for seed {env.seed}", file=sys.stderr)
            return 0
        return sum(
            goldens.compare({"stable_set": pinned[unit]}, {"stable_set": digest}, f"analyze_small seed {env.seed} #{unit}")
            for unit, digest in sorted(env.results.items())
        )

    def pass_stats(self, env: AnalyzeEnv) -> PassStats:
        return PassStats(DynamicsStats(0, ""), enumerated_sets=sum(case.link_sets for case in env.cases))

    def after_traced_unit(self, env: AnalyzeEnv, stats: PassStats) -> None:
        pass


WORKLOADS = {workload.name: workload for workload in (RunTiled40(), SweepFixture(), AnalyzeSmall())}
