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
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .cost import hop_distances
from .game import PairingTable, _pairings
from .model import Node, Scenario, Topology, bandwidth_ratio


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
    A co-located pairing (sigma 0) costs 0, even where ``alpha * congestion * rho``
    overflows to inf.
    """
    cfg = scenario.config
    side = int(owner.id > peer.id)  # the owner's place in the pair: 0 reads r_a and sigma_a, 1 r_b and sigma_b
    costs: list[tuple[float, int, int]] = []
    for option in pairings.get((peer.id, owner.id) if side else (owner.id, peer.id), ()):
        r_own, r_peer, sigma_own = option[side], option[1 - side], option[4 + side]
        beta = bandwidth_ratio(owner.interfaces[r_own], owner)
        cost = cfg.alpha * congestion * owner.energy_weight * sigma_own / beta if sigma_own else 0.0
        costs.append((cost, r_own, r_peer))
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
        sides = [
            (cost, owner.id, r_own, r_peer)
            for owner, peer in ((a, b), (b, a))
            for cost, r_own, r_peer in _side_costs(scenario, pairings, owner, peer, congestion)
        ]
        if not sides:
            witnesses.append(
                Witness(nodes=(a.id, b.id), cost=math.inf, threshold=threshold, note="no feasible interface pairing")
            )
            continue
        worst, owner_id, r_own, r_peer = max(sides, key=itemgetter(0))  # the first of tied worst pairings
        if not worst < threshold:
            note = f"worst pairing ({r_own}, {r_peer}) on node {owner_id}'s side; best pairing cost {min(sides)[0]:.6g}"
            witnesses.append(Witness(nodes=(a.id, b.id), cost=worst, threshold=threshold, note=note))
    return witnesses


def _cheap_witnesses(
    scenario: Scenario, pairings: PairingTable, ordered_pairs: Iterable[tuple[int, int]], threshold: float, bound: str
) -> list[Witness]:
    """Owner-peer pairs whose cheapest owner-side pairing at congestion 1 does not exceed ``threshold``.

    Pairs with no feasible pairing can never link, so they are no witness.
    """
    witnesses: list[Witness] = []
    for owner, peer in ordered_pairs:
        costs = _side_costs(scenario, pairings, scenario.node(owner), scenario.node(peer), congestion=1)
        if not costs:
            continue
        cheapest, r_own, r_peer = min(costs)
        if not cheapest > threshold:
            note = f"cheapest pairing ({r_own}, {r_peer}) does not exceed {bound}"
            witnesses.append(Witness(nodes=(owner, peer), cost=cheapest, threshold=threshold, note=note))
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
    """All three criteria; ValueError for an invalid scenario (``_pairings``)."""
    pairings = _pairings(scenario)
    clique = _clique_witnesses(scenario, pairings)
    uplinks = itertools.product(scenario.ic_ids, scenario.non_ic_ids)
    single_ic_link = clique + _cheap_witnesses(scenario, pairings, uplinks, scenario.config.gamma - 1.0, "gamma - 1")
    lateral = itertools.permutations(scenario.non_ic_ids, 2)
    star = single_ic_link + _cheap_witnesses(scenario, pairings, lateral, 0.5, "1/2")
    return CriteriaReport(
        clique=_result(clique),
        single_ic_link=_result(single_ic_link),
        star=_result(star),
        notes=CRITERIA_NOTES,
    )


def check_structure(topology: Topology) -> StructureReport:
    """Shape facts: IC completeness, uplink counts, relay nodes, hierarchy depth."""
    ic_ids, non_ic_ids = topology.ic_ids, topology.non_ic_ids
    ic_set = set(ic_ids)

    missing = [(a, b) for a, b in itertools.combinations(ic_ids, 2) if not topology.has_pair(a, b)]

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

    from_ic = [hop_distances(topology, topology.node(i)) for i in ic_ids]
    hops = {nid: min((distances[nid] for distances in from_ic), default=math.inf) for nid in non_ic_ids}
    unattached = tuple(sorted(nid for nid, hop in hops.items() if math.isinf(hop)))
    if unattached:
        tiers: int | None = None
    elif non_ic_ids:
        tiers = 1 + max(hops.values())
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
