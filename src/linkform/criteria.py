"""Cost-threshold criteria that predict stable-topology shape, plus shape checks.

Three nested criteria are evaluated against a scenario:

* clique criterion: every internet-connected (IC) pair can link and even its
  worst-case interface pairing costs less than gamma - 1, so the IC tier
  interlinks completely.
* single-uplink criterion: additionally, every IC node's cheapest pairing cost
  toward any non-IC node exceeds gamma - 1, making second uplinks unprofitable
  so each non-IC node keeps at most one IC link.
* star criterion: additionally, every non-IC node's cheapest pairing cost
  toward any other non-IC node exceeds 1/2, leaving the non-IC tier edgeless.

All threshold comparisons are strict. ``check_structure`` reports whether a
concrete topology actually has these shapes, and identifies relay nodes
(non-IC nodes carrying both an uplink and non-IC links) along with hierarchy
depth.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .cost import bandwidth_ratio
from .game import PairingTable, pairing_table
from .model import Node, Scenario, Topology


@dataclass(frozen=True)
class Witness:
    """One node pair violating (or failing) a criterion, with the offending cost."""

    nodes: tuple[int, int]
    cost: float
    threshold: float
    note: str


@dataclass(frozen=True)
class CriterionResult:
    holds: bool
    witnesses: tuple[Witness, ...]


@dataclass(frozen=True)
class CriteriaReport:
    clique: CriterionResult
    single_ic_link: CriterionResult
    star: CriterionResult
    notes: tuple[str, ...]


@dataclass(frozen=True)
class StructureReport:
    """Shape facts about one topology."""

    ic_clique: bool
    missing_ic_pairs: tuple[tuple[int, int], ...]
    max_ic_links_per_non_ic: int
    max_non_ic_degree: int
    relays: tuple[int, ...]
    hierarchy_tiers: int | None
    unattached_non_ic: tuple[int, ...]


def _side_costs(
    scenario: Scenario, pairings: PairingTable, owner: Node, peer: Node, congestion: int
) -> list[tuple[float, int, int]]:
    """(owner-side cost, r_owner, r_peer) for every feasible pairing, ordered by (r_owner, r_peer).

    The clique criterion reports the first of tied worst pairings in this order.
    """
    cfg = scenario.config
    low = owner.id < peer.id
    costs: list[tuple[float, int, int]] = []
    for option in pairings.get((owner.id, peer.id) if low else (peer.id, owner.id), ()):
        if low:
            r_own, r_peer, sigma_own = option.r_a, option.r_b, option.sigma_a
        else:
            r_own, r_peer, sigma_own = option.r_b, option.r_a, option.sigma_b
        beta = bandwidth_ratio(owner.interfaces[r_own], owner)
        costs.append((cfg.alpha * congestion * owner.energy_weight * sigma_own / beta, r_own, r_peer))
    costs.sort(key=itemgetter(1, 2))
    return costs


def _result(witnesses: list[Witness]) -> CriterionResult:
    return CriterionResult(holds=not witnesses, witnesses=tuple(witnesses))


def _clique_witnesses(scenario: Scenario, pairings: PairingTable) -> list[Witness]:
    threshold = scenario.config.gamma - 1.0
    ic_nodes = [scenario.node(i) for i in scenario.ic_ids]
    congestion = max(1, len(ic_nodes) - 1)
    witnesses: list[Witness] = []
    for a, b in itertools.combinations(ic_nodes, 2):
        worst = -math.inf
        best = math.inf
        detail = ""
        feasible = False
        for owner, peer in ((a, b), (b, a)):
            for unit, r_own, r_peer in _side_costs(scenario, pairings, owner, peer, congestion):
                feasible = True
                best = min(best, unit)
                if unit > worst:
                    worst = unit
                    detail = f"worst pairing ({r_own}, {r_peer}) on node {owner.id}'s side"
        if not feasible:
            witnesses.append(
                Witness(
                    nodes=(a.id, b.id),
                    cost=math.inf,
                    threshold=threshold,
                    note="no feasible interface pairing",
                )
            )
        elif not worst < threshold:
            witnesses.append(
                Witness(
                    nodes=(a.id, b.id),
                    cost=worst,
                    threshold=threshold,
                    note=f"{detail}; best pairing cost {best:.6g}",
                )
            )
    return witnesses


def _uplink_witnesses(scenario: Scenario, pairings: PairingTable) -> list[Witness]:
    threshold = scenario.config.gamma - 1.0
    witnesses: list[Witness] = []
    for ic_id in scenario.ic_ids:
        ic_node = scenario.node(ic_id)
        for non_id in scenario.non_ic_ids:
            costs = _side_costs(scenario, pairings, ic_node, scenario.node(non_id), congestion=1)
            if not costs:
                continue
            cheapest, r_own, r_peer = min(costs)
            if not cheapest > threshold:
                witnesses.append(
                    Witness(
                        nodes=(ic_id, non_id),
                        cost=cheapest,
                        threshold=threshold,
                        note=f"cheapest pairing ({r_own}, {r_peer}) does not exceed gamma - 1",
                    )
                )
    return witnesses


def _star_witnesses(scenario: Scenario, pairings: PairingTable) -> list[Witness]:
    threshold = 0.5
    witnesses: list[Witness] = []
    for a_id, b_id in itertools.permutations(scenario.non_ic_ids, 2):
        costs = _side_costs(scenario, pairings, scenario.node(a_id), scenario.node(b_id), congestion=1)
        if not costs:
            continue
        cheapest, r_own, r_peer = min(costs)
        if not cheapest > threshold:
            witnesses.append(
                Witness(
                    nodes=(a_id, b_id),
                    cost=cheapest,
                    threshold=threshold,
                    note=f"cheapest pairing ({r_own}, {r_peer}) does not exceed 1/2",
                )
            )
    return witnesses


def clique_criterion(scenario: Scenario) -> CriterionResult:
    """Every IC pair feasible with worst-case pairing cost strictly below gamma - 1.

    The congestion factor is taken at its full-clique value (IC count minus
    one). Witnesses carry both the worst and the best pairing so boundary
    scenarios are diagnosable.
    """
    return criteria_report(scenario).clique


def single_ic_link_criterion(scenario: Scenario) -> CriterionResult:
    """Clique criterion plus: IC-side minimum cost to every non-IC node above gamma - 1.

    Pairs with no feasible pairing can never link, so they satisfy the
    condition vacuously.
    """
    return criteria_report(scenario).single_ic_link


def star_criterion(scenario: Scenario) -> CriterionResult:
    """Single-uplink criterion plus: non-IC pairwise minimum costs above 1/2."""
    return criteria_report(scenario).star


CRITERIA_NOTES = (
    "clique: every internet-connected pair must be linkable and its worst-case "
    "pairing cost (congestion at the full-clique value) must fall strictly below gamma - 1.",
    "single_ic_link: additionally, every IC node's cheapest pairing cost toward each "
    "non-IC node must strictly exceed gamma - 1, the condition under which extra uplinks "
    "are unprofitable for the IC side.",
    "star: additionally, every non-IC node's cheapest pairing cost toward each other "
    "non-IC node must strictly exceed 1/2.",
)


def criteria_report(scenario: Scenario) -> CriteriaReport:
    pairings = pairing_table(scenario)
    clique = _clique_witnesses(scenario, pairings)
    single_ic_link = clique + _uplink_witnesses(scenario, pairings)
    star = single_ic_link + _star_witnesses(scenario, pairings)
    return CriteriaReport(
        clique=_result(clique),
        single_ic_link=_result(single_ic_link),
        star=_result(star),
        notes=CRITERIA_NOTES,
    )


def check_structure(topology: Topology) -> StructureReport:
    """Shape facts: IC completeness, uplink counts, relay nodes, hierarchy depth."""
    ic_ids = [node.id for node in topology.nodes if node.internet_connected]
    non_ic_ids = [node.id for node in topology.nodes if not node.internet_connected]
    ic_set = set(ic_ids)

    missing = [
        (a, b) for a, b in itertools.combinations(sorted(ic_ids), 2) if not topology.has_pair(a, b)
    ]

    max_uplinks = 0
    max_degree = 0
    relays = []
    for non_id in non_ic_ids:
        peers = topology.neighbors(non_id)
        uplinks = sum(1 for peer in peers if peer in ic_set)
        lateral = len(peers) - uplinks
        max_uplinks = max(max_uplinks, uplinks)
        max_degree = max(max_degree, len(peers))
        if uplinks == 1 and lateral >= 1:
            relays.append(non_id)

    # multi-source BFS from the IC tier
    hops: dict[int, int] = {ic_id: 0 for ic_id in ic_ids}
    frontier: deque[int] = deque(ic_ids)
    while frontier:
        current = frontier.popleft()
        for peer in topology.neighbors(current):
            if peer not in hops:
                hops[peer] = hops[current] + 1
                frontier.append(peer)
    unattached = tuple(sorted(nid for nid in non_ic_ids if nid not in hops))
    if unattached:
        tiers: int | None = None
    elif non_ic_ids:
        tiers = 1 + max(hops[nid] for nid in non_ic_ids)
    else:
        tiers = 1 if ic_ids else None

    return StructureReport(
        ic_clique=not missing,
        missing_ic_pairs=tuple(missing),
        max_ic_links_per_non_ic=max_uplinks,
        max_non_ic_degree=max_degree,
        relays=tuple(sorted(relays)),
        hierarchy_tiers=tiers,
        unattached_non_ic=unattached,
    )
