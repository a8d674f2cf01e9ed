"""The per-node cost function: link costs, bridging burden, hop distances, totals.

A node's total cost is

    C_i = sum of link costs
        + gamma * sum of hop distances to other internet-connected nodes
        + sum of hop distances to other non-internet-connected nodes
        + bridging coefficient

Each link on interface r costs ``alpha * n_r * rho_i * sigma / beta``, where
``n_r`` counts the links sharing that interface (congestion proxy), ``rho_i``
is the node's energy weight, ``sigma`` the minimum transmit power for that
specific link, and ``beta`` the interface's available-to-required bandwidth
ratio. Any peer that is unreachable, or reachable only beyond ``h_max`` hops,
makes the total infinite.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .model import COST_INF, Cost, GameConfig, Node, Topology, bandwidth_ratio, distance_between
from .propagation import required_tx_power


@dataclass(frozen=True)
class CostBreakdown:
    """A node's total cost split into its four additive terms."""

    link_cost_total: Cost
    ic_distance_term: Cost
    non_ic_distance_term: Cost
    bridging: float
    total: Cost


def minimum_link_power(node_i: Node, r_i: int, node_j: Node, r_j: int, config: GameConfig) -> float:
    """Power node_i emits on a link to node_j: the minimum required, 0 if co-located."""
    distance = distance_between(node_i, node_j)
    if distance == 0.0:
        return 0.0
    return required_tx_power(node_i.interface(r_i), node_j.interface(r_j), distance, config)


def link_cost_sum(node_i: Node, topology: Topology, config: GameConfig) -> Cost:
    """Total link-establishment cost of ``node_i``; infinite if any link is over budget."""
    links = topology.links_of(node_i.id)
    if not links:
        return Cost(0.0)
    per_interface: dict[int, list[float]] = {}
    for link in links:
        r_own = link.interface_for(node_i.id)
        peer = topology.node(link.peer_of(node_i.id))
        r_peer = link.interface_for(peer.id)
        iface = node_i.interface(r_own)
        sigma = minimum_link_power(node_i, r_own, peer, r_peer, config)
        if sigma > iface.max_tx_power_w:
            return COST_INF
        beta = bandwidth_ratio(iface, node_i)
        per_interface.setdefault(r_own, []).append(node_i.energy_weight * sigma / beta)
    total = 0.0
    for terms in per_interface.values():
        unit_sum = 0.0
        for term in terms:  # one term at a time, as the engine adds them; builtin sum() compensates from 3.12 on
            unit_sum += term
        total += config.alpha * len(terms) * unit_sum
    return Cost(total)


def bridging_coefficient(node_i: Node, topology: Topology) -> float:
    """Local bridging burden: (1/deg(i)) / sum over neighbors j of 1/deg(j).

    Defined as 0 for an isolated node, where the ratio would be 0/0.

    A node whose only neighbour has degree d has coefficient (1/1) / (1/d) = d.
    So an isolated node that joins a target by one link rises from 0 to the
    target's post-join degree, which is at least 1 (exactly 1 when the target
    was isolated too).
    """
    neighbors = topology.neighbors(node_i.id)
    if not neighbors:
        return 0.0
    inverse_sum = 0.0
    for peer in neighbors:  # sequential, like link_cost_sum
        inverse_sum += 1.0 / topology.degree(peer)
    return (1.0 / len(neighbors)) / inverse_sum


def hop_distances(topology: Topology, node_i: Node) -> dict[int, float]:
    """Shortest hop counts from ``node_i`` to every node; unreachable peers map to inf.

    Distances beyond the configured hop cap are reported as computed; the cap
    is applied by :func:`total_cost`.
    """
    if node_i.id not in topology.node_map:
        raise ValueError(f"node {node_i.id} not in topology")
    distances: dict[int, float] = {node_i.id: 0}
    frontier: deque[int] = deque([node_i.id])
    while frontier:
        current = frontier.popleft()
        for peer in topology.neighbors(current):
            if peer not in distances:
                distances[peer] = distances[current] + 1
                frontier.append(peer)
    for node in topology.nodes:
        distances.setdefault(node.id, math.inf)
    return distances


def total_cost(node_i: Node, topology: Topology, config: GameConfig) -> CostBreakdown:
    """Evaluate the full cost of ``node_i`` under the given topology."""
    distances = hop_distances(topology, node_i)
    ic_sum = 0.0
    non_ic_sum = 0.0
    ic_infinite = False
    non_ic_infinite = False
    for node in topology.nodes:
        if node.id == node_i.id:
            continue
        hops = distances[node.id]
        beyond = hops > config.h_max
        if node.internet_connected:
            ic_infinite = ic_infinite or beyond
            ic_sum += 0.0 if beyond else hops
        else:
            non_ic_infinite = non_ic_infinite or beyond
            non_ic_sum += 0.0 if beyond else hops

    link_total = link_cost_sum(node_i, topology, config)
    ic_term = COST_INF if ic_infinite else Cost(config.gamma * ic_sum)
    non_ic_term = COST_INF if non_ic_infinite else Cost(non_ic_sum)
    bridging = bridging_coefficient(node_i, topology)
    total = link_total + ic_term + non_ic_term + bridging
    return CostBreakdown(
        link_cost_total=link_total,
        ic_distance_term=ic_term,
        non_ic_distance_term=non_ic_term,
        bridging=bridging,
        total=total,
    )
