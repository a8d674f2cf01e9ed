"""Strategy rules: deviation deltas, mutual-consent proposals, pairwise stability,
best-response dynamics, and a brute-force enumeration of stable topologies.

Improvement is always strict (ties never move). Deltas between two states that
are both infinite carry no sign under extended-cost subtraction; the engine and
the stability predicate resolve them by comparing how many peers remain
unreachable within the hop cap: a move is an improvement only if it strictly
lowers that count. This lets an empty network bootstrap itself (the first links
reduce unreachability even though both states are infinite) while staying
conservative between equally-disconnected states.

One deviation engine serves dynamics, stability and enumeration: ``_severances``
scans each node's links by node, then peer id, and ``_additions`` scans absent
pairs in pair order. Among one pair's mutually improving pairings the one with
the lowest delta for the lower-id endpoint wins, then the lowest interfaces.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .model import (
    GameConfig,
    IncomparableCostError,
    Link,
    Node,
    Scenario,
    Topology,
    distance_between,
    links_digest,
    validate_scenario,
)
from .propagation import link_feasible, required_tx_power

DEFAULT_MAX_MOVES = 10_000

State = tuple[float, int]  # (total cost, peers unreachable within h_max)
Addition = tuple[float, int, int, tuple[int, int], float]  # (delta_a, r_a, r_b, pair, delta_b)


@dataclass(frozen=True)
class Add:
    """A consented link addition; both deltas are strictly negative."""

    link: Link
    delta_a: float
    delta_b: float


@dataclass(frozen=True)
class Remove:
    """A unilateral link severance; the initiator's delta is strictly negative."""

    link: Link
    initiator: int
    delta: float


Move = Add | Remove


@dataclass(frozen=True)
class Rejection:
    """Why a proposed link was not formed."""

    kind: str  # "infeasible" or "declined"
    declined_by: tuple[int, ...] = ()


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the pairwise-stability check.

    ``severance_violations`` lists (node id, link) incidences where unilateral
    removal strictly improves the node; ``addition_violations`` lists absent
    links whose addition strictly improves both endpoints.
    """

    stable: bool
    severance_violations: tuple[tuple[int, Link], ...]
    addition_violations: tuple[Link, ...]


@dataclass(frozen=True)
class TraceStep:
    move: Move
    topology_hash: str
    costs: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class DynamicsTrace:
    """Replayable record of one dynamics run."""

    seed: int
    steps: tuple[TraceStep, ...]
    converged: bool


class PairingOption(NamedTuple):
    """One interface pairing of a node pair, priced for both endpoints."""

    r_a: int
    r_b: int
    unit_a: float  # rho * sigma / beta for the lower-id endpoint
    unit_b: float
    sigma_a: float  # transmit power the lower-id endpoint emits
    sigma_b: float


PairingTable = dict[tuple[int, int], tuple[PairingOption, ...]]


def _unit(config: GameConfig, owner: Node, r_own: int, peer: Node, r_peer: int) -> tuple[float, float]:
    """(sigma, rho * sigma / beta) for one endpoint; both inf for unusable assignments."""
    iface = owner.interfaces[r_own]
    other = peer.interfaces[r_peer]
    if iface.kind != other.kind or iface.frequency_hz != other.frequency_hz:
        return math.inf, math.inf
    distance = distance_between(owner, peer)
    sigma = 0.0 if distance == 0.0 else required_tx_power(iface, other, distance, config)
    if sigma > iface.max_tx_power_w:
        return math.inf, math.inf
    beta = iface.max_bitrate_bps / owner.min_required_bitrate_bps
    return sigma, owner.energy_weight * sigma / beta


def _pairing(config: GameConfig, a: Node, r_a: int, b: Node, r_b: int) -> PairingOption:
    sigma_a, unit_a = _unit(config, a, r_a, b, r_b)
    sigma_b, unit_b = _unit(config, b, r_b, a, r_a)
    return PairingOption(r_a, r_b, unit_a, unit_b, sigma_a, sigma_b)


def pairing_table(scenario: Scenario) -> PairingTable:
    """Feasible interface pairings of every node pair, keyed by (lower id, higher id).

    Options are ordered by (r_a, r_b); pairs with no feasible pairing are absent.
    """
    table: PairingTable = {}
    for a, b in itertools.combinations(scenario.nodes, 2):
        options = []
        for r_a, r_b in itertools.product(range(len(a.interfaces)), range(len(b.interfaces))):
            option = _pairing(scenario.config, a, r_a, b, r_b)
            if math.isfinite(option.unit_a) and math.isfinite(option.unit_b):
                options.append(option)
        if options:
            table[(a.id, b.id)] = tuple(options)
    return table


class _LinkRecord(NamedTuple):
    pair: tuple[int, int]
    ifaces: tuple[int, int]
    units: tuple[float, float]


class _Evaluator:
    """Incremental cost evaluation for one scenario across candidate link sets.

    Answers state queries as (total cost, peers unreachable within the hop
    cap) against a small mutable link set.
    """

    def __init__(self, scenario: Scenario):
        self.cfg = scenario.config
        self.ids: tuple[int, ...] = scenario.ids
        self.n = len(self.ids)
        self.by_id = scenario.node_map
        self.is_ic = {node.id: node.internet_connected for node in scenario.nodes}
        self.adj: dict[int, set[int]] = {i: set() for i in self.ids}
        self.iface_of: dict[tuple[int, int], tuple[int, int]] = {}
        self.units: dict[tuple[int, int], tuple[float, float]] = {}

    # -- mutable link set -----------------------------------------------------

    def reset(self) -> None:
        for members in self.adj.values():
            members.clear()
        self.iface_of.clear()
        self.units.clear()

    def load(self, links: Iterable[Link]) -> None:
        """Install an arbitrary link set, pricing infeasible links as infinite."""
        self.reset()
        for link in links:
            self.place_link(link)

    def _place(self, pair: tuple[int, int], ifaces: tuple[int, int], units: tuple[float, float]) -> None:
        a, b = pair
        self.adj[a].add(b)
        self.adj[b].add(a)
        self.iface_of[pair] = ifaces
        self.units[pair] = units

    def place_option(self, pair: tuple[int, int], option: PairingOption) -> None:
        self._place(pair, (option.r_a, option.r_b), (option.unit_a, option.unit_b))

    def place_link(self, link: Link) -> None:
        node_a, node_b = self.by_id[link.node_a], self.by_id[link.node_b]
        self.place_option(link.pair, _pairing(self.cfg, node_a, link.iface_a, node_b, link.iface_b))

    def remove_pair(self, a: int, b: int) -> _LinkRecord:
        pair = (a, b) if a < b else (b, a)
        record = _LinkRecord(pair, self.iface_of.pop(pair), self.units.pop(pair))
        self.adj[pair[0]].discard(pair[1])
        self.adj[pair[1]].discard(pair[0])
        return record

    def restore(self, record: _LinkRecord) -> None:
        self._place(record.pair, record.ifaces, record.units)

    def links_snapshot(self) -> frozenset[Link]:
        return frozenset(
            Link(pair[0], ifaces[0], pair[1], ifaces[1]) for pair, ifaces in self.iface_of.items()
        )

    # -- evaluation -----------------------------------------------------------

    def state(self, i: int) -> State:
        """(total cost, number of peers unreachable within h_max) for node ``i``."""
        cfg = self.cfg
        adj_i = self.adj[i]
        link_cost = 0.0
        bridging = 0.0
        if adj_i:
            per_r_sum: dict[int, float] = {}
            per_r_cnt: dict[int, int] = {}
            inverse_degrees = 0.0
            for peer in adj_i:
                pair = (i, peer) if i < peer else (peer, i)
                low_side = i == pair[0]
                r_own = self.iface_of[pair][0 if low_side else 1]
                unit = self.units[pair][0 if low_side else 1]
                per_r_sum[r_own] = per_r_sum.get(r_own, 0.0) + unit
                per_r_cnt[r_own] = per_r_cnt.get(r_own, 0) + 1
                inverse_degrees += 1.0 / len(self.adj[peer])
            for r_own, unit_sum in per_r_sum.items():
                link_cost += cfg.alpha * per_r_cnt[r_own] * unit_sum
            bridging = (1.0 / len(adj_i)) / inverse_degrees

        seen = {i}
        frontier = [i]
        depth = 0
        ic_sum = 0.0
        non_ic_sum = 0.0
        while frontier and depth < cfg.h_max:
            depth += 1
            next_frontier = []
            for current in frontier:
                for peer in self.adj[current]:
                    if peer not in seen:
                        seen.add(peer)
                        next_frontier.append(peer)
                        if self.is_ic[peer]:
                            ic_sum += depth
                        else:
                            non_ic_sum += depth
            frontier = next_frontier
        unreachable = self.n - len(seen)
        if unreachable or math.isinf(link_cost):
            return (math.inf, unreachable)
        return (link_cost + cfg.gamma * ic_sum + non_ic_sum + bridging, 0)


class _BaseStates(dict):
    """States of the evaluator's current link set, each evaluated on first use.

    Only read while the link set is the base one: the deviation scans restore
    it before they yield, and read each endpoint before placing a trial link.
    """

    def __init__(self, evaluator: _Evaluator):
        self.evaluator = evaluator

    def __missing__(self, i: int) -> State:
        state = self[i] = self.evaluator.state(i)
        return state


def _improves(before: State, after: State) -> bool:
    """Strict improvement under the documented unreachability-count rule."""
    if math.isinf(before[0]) and math.isinf(after[0]):
        return after[1] < before[1]
    return after[0] < before[0]


def _resolved_delta(before: State, after: State) -> float:
    """Signed delta for records; count-based improvements resolve to -inf."""
    if math.isinf(before[0]) and math.isinf(after[0]):
        if after[1] < before[1]:
            return -math.inf
        if after[1] > before[1]:
            return math.inf
        return 0.0
    return after[0] - before[0]


def _severances(evaluator: _Evaluator, base: dict[int, State], node_order: Iterable[int]) -> Iterator[Remove]:
    """Every improving unilateral severance, one per endpoint incidence.

    Scans the nodes in ``node_order``, each against its peers in ascending id
    order. The link set is restored before each yield.
    """
    state = evaluator.state
    for i in node_order:
        for peer in sorted(evaluator.adj[i]):
            record = evaluator.remove_pair(i, peer)
            after = state(i)
            evaluator.restore(record)
            if _improves(base[i], after):
                (a, b), (r_a, r_b) = record.pair, record.ifaces
                yield Remove(link=Link(a, r_a, b, r_b), initiator=i, delta=_resolved_delta(base[i], after))


def _additions(
    evaluator: _Evaluator,
    base: dict[int, State],
    pairings: PairingTable,
    pair_order: Iterable[tuple[int, int]],
) -> Iterator[Addition]:
    """Every mutually improving pairing of each absent pair, in pair order, then option order.

    Items are (delta_a, r_a, r_b, pair, delta_b) with ``a`` the lower id, so
    ``min`` over one pair's items applies the tie rule. Endpoint ``b`` is
    evaluated only when ``a`` improves. The link set is restored before each
    yield.
    """
    state = evaluator.state
    for pair in pair_order:
        a, b = pair
        if b in evaluator.adj[a]:
            continue
        before_a = base[a]
        before_b = base[b]
        for option in pairings[pair]:
            evaluator.place_option(pair, option)
            after_a = state(a)
            after_b = state(b) if _improves(before_a, after_a) else None
            evaluator.remove_pair(a, b)
            if after_b is not None and _improves(before_b, after_b):
                delta_a = _resolved_delta(before_a, after_a)
                yield (delta_a, option.r_a, option.r_b, pair, _resolved_delta(before_b, after_b))


def _evaluator_for(topology: Topology, config: GameConfig) -> _Evaluator:
    evaluator = _Evaluator(Scenario(topology.nodes, config))
    evaluator.load(topology.links)
    return evaluator


def _toggle_states(
    topology: Topology, config: GameConfig, link: Link, ids: tuple[int, ...]
) -> list[tuple[State, State]]:
    """(before, after) state of each of ``ids`` when ``link`` is severed if present, else added."""
    evaluator = _evaluator_for(topology, config)
    before = [evaluator.state(i) for i in ids]
    if link in topology.links:
        evaluator.remove_pair(link.node_a, link.node_b)
    else:
        evaluator.place_link(link)
    return list(zip(before, [evaluator.state(i) for i in ids]))


def _defined_delta(before: State, after: State) -> float:
    if math.isinf(before[0]) and math.isinf(after[0]):
        raise IncomparableCostError("both states are disconnected; no defined sign")
    return after[0] - before[0]


def delta_cost_add(node: Node, topology: Topology, link: Link, config: GameConfig) -> float:
    """Cost change for ``node`` if ``link`` were added; raises when undefined.

    Raises IncomparableCostError when both states are infinite, and ValueError
    when the link is already present or physically infeasible.
    """
    if link in topology.links or topology.has_pair(link.node_a, link.node_b):
        raise ValueError(f"{link} already present")
    if not link_feasible(
        topology.node(link.node_a), link.iface_a, topology.node(link.node_b), link.iface_b, config
    ):
        raise ValueError(f"{link} is not physically feasible")
    [(before, after)] = _toggle_states(topology, config, link, (node.id,))
    return _defined_delta(before, after)


def delta_cost_remove(node: Node, topology: Topology, link: Link, config: GameConfig) -> float:
    """Cost change for ``node`` if it severed ``link``; raises when undefined."""
    if link not in topology.links:
        raise ValueError(f"{link} not present")
    if not link.touches(node.id):
        raise ValueError(f"node {node.id} is not an endpoint of {link}")
    [(before, after)] = _toggle_states(topology, config, link, (node.id,))
    return _defined_delta(before, after)


def propose_add(
    topology: Topology, i: int, r_i: int, j: int, r_j: int, config: GameConfig
) -> Add | Rejection:
    """Mutual-consent evaluation of one candidate link.

    Returns an Add move iff the pairing is feasible and both endpoints strictly
    improve; otherwise a Rejection naming who withheld consent. Symmetric in
    (i, j).
    """
    node_i = topology.node(i)
    node_j = topology.node(j)
    if i == j or topology.has_pair(i, j):
        return Rejection(kind="infeasible")
    if not link_feasible(node_i, r_i, node_j, r_j, config):
        return Rejection(kind="infeasible")
    link = Link(i, r_i, j, r_j)
    states = _toggle_states(topology, config, link, link.pair)
    decliners = tuple(
        node_id for node_id, (before, after) in zip(link.pair, states) if not _improves(before, after)
    )
    if decliners:
        return Rejection(kind="declined", declined_by=decliners)
    (before_a, after_a), (before_b, after_b) = states
    return Add(
        link=link,
        delta_a=_resolved_delta(before_a, after_a),
        delta_b=_resolved_delta(before_b, after_b),
    )


def is_pairwise_stable(topology: Topology, config: GameConfig) -> StabilityReport:
    """Full deviation scan: every severance incidence, every absent feasible pairing.

    Severances are reported by link, then endpoint; additions by pair, each
    with its best pairing.
    """
    evaluator = _evaluator_for(topology, config)
    pairings = pairing_table(Scenario(topology.nodes, config))
    base = {i: evaluator.state(i) for i in evaluator.ids}
    severance = sorted(
        ((move.initiator, move.link) for move in _severances(evaluator, base, evaluator.ids)),
        key=lambda incidence: (incidence[1], incidence[0]),
    )
    additions = []
    for pair, items in itertools.groupby(
        _additions(evaluator, base, pairings, sorted(pairings)), key=itemgetter(3)
    ):
        _, r_a, r_b, _, _ = min(items)
        additions.append(Link(pair[0], r_a, pair[1], r_b))
    return StabilityReport(
        stable=not severance and not additions,
        severance_violations=tuple(severance),
        addition_violations=tuple(additions),
    )


def best_response_dynamics(
    scenario: Scenario, seed: int = 0, max_moves: int = DEFAULT_MAX_MOVES
) -> tuple[Topology, DynamicsTrace]:
    """Run seeded best-response dynamics from the empty topology.

    Each step applies the first deviation of the scan: all severances before
    all additions. Seed 0 scans nodes and node pairs in ascending id order;
    any other seed applies a fixed pseudo-random permutation to the scan
    order, making order sensitivity measurable. Identical scenario and seed
    reproduce the identical trace. A run that stops at ``max_moves`` is
    reported as non-converged, never raised.
    """
    issues = validate_scenario(scenario.nodes, scenario.config)
    if issues:
        raise ValueError("; ".join(str(issue) for issue in issues))
    evaluator = _Evaluator(scenario)
    pairings = pairing_table(scenario)
    node_order = list(evaluator.ids)
    pair_order = sorted(pairings)
    if seed != 0:
        rng = random.Random(seed)
        rng.shuffle(node_order)
        rng.shuffle(pair_order)

    steps: list[TraceStep] = []
    converged = False
    while len(steps) < max_moves:
        base = _BaseStates(evaluator)
        deviations = itertools.chain(
            _severances(evaluator, base, node_order),
            _additions(evaluator, base, pairings, pair_order),
        )
        move = next(deviations, None)
        if move is None:
            converged = True
            break
        if isinstance(move, Remove):
            evaluator.remove_pair(move.link.node_a, move.link.node_b)
        else:
            pair = move[3]
            delta_a, r_a, r_b, _, delta_b = min(_additions(evaluator, base, pairings, [pair]))
            evaluator.place_option(pair, next(o for o in pairings[pair] if (o.r_a, o.r_b) == (r_a, r_b)))
            move = Add(link=Link(pair[0], r_a, pair[1], r_b), delta_a=delta_a, delta_b=delta_b)
        steps.append(
            TraceStep(
                move=move,
                topology_hash=links_digest(evaluator.links_snapshot()),
                costs=tuple((i, evaluator.state(i)[0]) for i in evaluator.ids),
            )
        )
    topology = Topology(scenario.nodes, evaluator.links_snapshot())
    return topology, DynamicsTrace(seed=seed, steps=tuple(steps), converged=converged)


def replay_trace(scenario: Scenario, trace: DynamicsTrace) -> Topology:
    """Re-apply a trace's moves from the empty topology."""
    topology = Topology.empty(scenario.nodes)
    for step in trace.steps:
        if isinstance(step.move, Add):
            topology = topology.with_link(step.move.link)
        else:
            topology = topology.without_link(step.move.link)
    return topology


def brute_force_stable_set(scenario: Scenario, max_nodes: int = 6) -> set[Topology]:
    """Enumerate every feasible topology and keep the pairwise-stable ones.

    Every subset of feasible pairs is enumerated, crossed with every feasible
    interface pairing for each included pair. Refuses scenarios larger than
    ``max_nodes`` (the enumeration is exponential).
    """
    if len(scenario.nodes) > max_nodes:
        raise ValueError(f"scenario has {len(scenario.nodes)} nodes, cap is {max_nodes}")
    evaluator = _Evaluator(scenario)
    pairings = pairing_table(scenario)
    pair_order = sorted(pairings)
    option_lists: list[tuple[PairingOption | None, ...]] = [(None, *pairings[pair]) for pair in pair_order]
    stable: set[Topology] = set()
    for combo in itertools.product(*option_lists):
        evaluator.reset()
        for pair, option in zip(pair_order, combo):
            if option is not None:
                evaluator.place_option(pair, option)
        # additions first: most enumerated link sets fail on an absent pair
        base = _BaseStates(evaluator)
        deviations = itertools.chain(
            _additions(evaluator, base, pairings, pair_order),
            _severances(evaluator, base, evaluator.ids),
        )
        if not any(deviations):
            stable.add(Topology(scenario.nodes, evaluator.links_snapshot()))
    return stable
