"""Seeded scenario generators for the acceptance suites.

Each generator builds scenarios that provably satisfy the criterion it feeds:
the clique-suite generator picks gamma to dominate every possible link-cost
swing, and the uplink-suite generator solves each non-IC receiver sensitivity
so the IC-side cost lands above gamma - 1 by a sampled ratio. Generated
scenarios are asserted against the criteria predicates before use.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random

from linkform.cli import fixture_path, load_scenario
from linkform.cost import bandwidth_ratio, minimum_link_power
from linkform.criteria import clique_criterion, single_ic_link_criterion, star_criterion
from linkform.model import GameConfig, InterfaceSpec, Link, Node, Scenario, Topology
from linkform.propagation import link_feasible

from conftest import make_iface, make_node

LR_FREQ = 1.0e9
LR_K = (4.0 * 3.141592653589793 * LR_FREQ / 299_792_458.0) ** 2  # sigma = S * K * d^2


def _max_unit_cost(nodes: list[Node], config: GameConfig) -> float:
    """Max owner-side cost unit over all feasible ordered pairings."""
    worst = 0.0
    for owner, peer in itertools.permutations(nodes, 2):
        for r_own in range(len(owner.interfaces)):
            for r_peer in range(len(peer.interfaces)):
                if not link_feasible(owner, r_own, peer, r_peer, config):
                    continue
                sigma = minimum_link_power(owner, r_own, peer, r_peer, config)
                unit = owner.energy_weight * sigma / bandwidth_ratio(owner.interfaces[r_own], owner)
                worst = max(worst, unit)
    return worst


def clique_suite_scenario(seed: int) -> Scenario:
    """2-6 IC and 0-3 non-IC nodes, all mutually reachable, gamma dominating.

    gamma is set above twice the largest possible per-node link-cost swing, so
    every missing IC-IC link is a strict mutual improvement in any connected
    topology; the clique criterion is asserted to hold.
    """
    rng = random.Random(seed)
    ic_count = rng.randint(2, 6)
    non_ic_count = rng.randint(0, 3)
    total = ic_count + non_ic_count

    nodes: list[Node] = []
    for i in range(total):
        sensitivity = rng.uniform(1e-13, 5e-12)
        bitrate = rng.uniform(1e6, 5e7)
        interfaces = [InterfaceSpec("longrange", LR_FREQ, bitrate, 100.0, sensitivity)]
        if rng.random() < 0.35:
            interfaces.append(
                InterfaceSpec("short", 2.4e9, rng.uniform(1e6, 2e7), 50.0, rng.uniform(1e-12, 1e-11))
            )
        nodes.append(
            Node(
                id=i,
                position=(rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)),
                interfaces=tuple(interfaces),
                min_required_bitrate_bps=bitrate / rng.uniform(1.5, 40.0),
                energy_weight=rng.uniform(0.5, 2.0),
                internet_connected=i < ic_count,
            )
        )

    probe = GameConfig(gamma=1.0, h_max=total)
    gamma = max(1.0, 2.0 * total * _max_unit_cost(nodes, probe) + rng.uniform(2.0, 12.0))
    scenario = Scenario(tuple(nodes), GameConfig(gamma=gamma, h_max=total))
    assert clique_criterion(scenario).holds, f"generator seed {seed} missed the clique criterion"
    return scenario


def uplink_suite_scenario(seed: int, lateral: str = "none") -> Scenario:
    """2-3 IC and 1-3 non-IC nodes where extra uplinks are unprofitable.

    ICs share a cheap backbone interface; non-IC receivers are solved so the
    cheapest IC-side cost toward each non-IC node exceeds gamma - 1 by a
    sampled factor. ``lateral`` controls non-IC-to-non-IC connectivity:
    "none" leaves those pairs radio-infeasible; "one-cheap" equips the first
    two non-IC nodes with a short-range interface pair far below the 1/2
    threshold (and parks them adjacent).
    """
    rng = random.Random(seed)
    ic_count = rng.randint(2, 3)
    non_ic_count = rng.randint(1, 3) if lateral == "none" else rng.randint(2, 3)
    gamma = rng.uniform(200.0, 500.0)

    backbone = InterfaceSpec("backbone", 5.0e9, 1.0e9, 10.0, 1e-12)

    def spread_positions(count: int, min_gap: float) -> list[tuple[float, float]]:
        points: list[tuple[float, float]] = []
        while len(points) < count:
            candidate = (rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
            if all((candidate[0] - p[0]) ** 2 + (candidate[1] - p[1]) ** 2 >= min_gap**2 for p in points):
                points.append(candidate)
        return points

    positions = spread_positions(ic_count + non_ic_count, min_gap=15.0)
    if lateral == "one-cheap":
        # park the second non-IC node 3 m from the first, before solving receivers
        anchor = positions[ic_count]
        positions[ic_count + 1] = (anchor[0] + 3.0, anchor[1])

    nodes: list[Node] = []
    ic_rhos = []
    for i in range(ic_count):
        rho = rng.uniform(0.8, 1.5)
        ic_rhos.append(rho)
        nodes.append(
            Node(
                id=i,
                position=positions[i],
                interfaces=(backbone, InterfaceSpec("longrange", LR_FREQ, 1.0e6, 5000.0, 1e-12)),
                min_required_bitrate_bps=5.0e7,
                energy_weight=rho,
                internet_connected=True,
            )
        )
    beta_ic_lr = 1.0e6 / 5.0e7

    for k in range(non_ic_count):
        node_id = ic_count + k
        pos = positions[node_id]
        target = gamma * rng.uniform(1.3, 3.0)
        cheapest_scale = min(
            ic_rhos[i] * ((pos[0] - positions[i][0]) ** 2 + (pos[1] - positions[i][1]) ** 2)
            for i in range(ic_count)
        )
        sensitivity = target * beta_ic_lr / (LR_K * cheapest_scale)
        bitrate = rng.uniform(1e5, 1e6)
        # 1 mW transmit budget: ample for reaching the ICs' sensitive receivers,
        # but far below what any other non-IC node's coarse receiver demands
        interfaces = [InterfaceSpec("longrange", LR_FREQ, bitrate, 1e-3, sensitivity)]
        nodes.append(
            Node(
                id=node_id,
                position=pos,
                interfaces=tuple(interfaces),
                min_required_bitrate_bps=bitrate / rng.uniform(2.0, 10.0),
                energy_weight=rng.uniform(0.5, 2.0),
                internet_connected=False,
            )
        )

    if lateral == "one-cheap":
        # the parked pair additionally shares a cheap short-range pairing
        for index in (ic_count, ic_count + 1):
            node = nodes[index]
            short = InterfaceSpec("short", 2.4e9, node.min_required_bitrate_bps * 2, 0.1, 1e-11)
            nodes[index] = Node(
                id=node.id,
                position=node.position,
                interfaces=node.interfaces + (short,),
                min_required_bitrate_bps=node.min_required_bitrate_bps,
                energy_weight=node.energy_weight,
                internet_connected=False,
            )

    scenario = Scenario(tuple(nodes), GameConfig(gamma=gamma, h_max=ic_count + non_ic_count))
    assert single_ic_link_criterion(scenario).holds, f"generator seed {seed} missed the uplink criterion"
    if lateral == "none":
        assert star_criterion(scenario).holds, f"generator seed {seed} missed the star criterion"
    else:
        assert not star_criterion(scenario).holds, f"generator seed {seed} should break the star criterion"
    return scenario


def free_scenario(seed: int, max_nodes: int = 5) -> Scenario:
    """Unconstrained small scenario for consistency checking, feasibility gaps included."""
    rng = random.Random(seed)
    total = rng.randint(2, max_nodes)
    kinds = (("alpha", 1.0e9), ("bravo", 2.4e9))
    nodes = []
    for i in range(total):
        interfaces = []
        for kind, freq in rng.sample(kinds, rng.randint(1, 2)):
            interfaces.append(
                InterfaceSpec(
                    kind,
                    freq,
                    10 ** rng.uniform(5.0, 8.0),
                    10 ** rng.uniform(-2.0, 1.0),
                    10 ** rng.uniform(-12.0, -9.0),
                )
            )
        bitrate = interfaces[0].max_bitrate_bps
        nodes.append(
            Node(
                id=i,
                position=(rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)),
                interfaces=tuple(interfaces),
                min_required_bitrate_bps=bitrate / rng.uniform(1.0, 20.0),
                energy_weight=10 ** rng.uniform(-1.0, 1.0),
                internet_connected=rng.random() < 0.5,
            )
        )
    gamma = rng.choice((rng.uniform(1.0, 5.0), rng.uniform(5.0, 50.0), rng.uniform(50.0, 600.0)))
    return Scenario(tuple(nodes), GameConfig(gamma=gamma, h_max=rng.randint(2, 6)))


@functools.cache
def _fixture_570() -> Scenario:
    return load_scenario(fixture_path("smart_home_gamma570.json"))


def fixture_sample_scenario(seed: int) -> tuple[Scenario, int]:
    """(scenario, scan seed): 6-9 nodes of the 570 fixture, renumbered 0..k-1 in id order.

    gamma is drawn uniformly from [500, 700] and the scan seed from 0-3. Unlike
    ``free_scenario``, most of these scenarios sever links under dynamics.
    """
    rng = random.Random(seed)
    fixture = _fixture_570()
    picked = sorted(rng.sample(fixture.nodes, rng.randint(6, 9)), key=lambda node: node.id)
    nodes = tuple(dataclasses.replace(node, id=index) for index, node in enumerate(picked))
    config = dataclasses.replace(fixture.config, gamma=rng.uniform(500.0, 700.0))
    return Scenario(nodes, config), rng.randint(0, 3)


def feasible_pairings(scenario: Scenario) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """All feasible (r_a, r_b) per node pair, computed through the public surface."""
    pairings: dict[tuple[int, int], list[tuple[int, int]]] = {}
    ids = sorted(scenario.ids)
    for a, b in itertools.combinations(ids, 2):
        node_a = scenario.node(a)
        node_b = scenario.node(b)
        options = [
            (r_a, r_b)
            for r_a in range(len(node_a.interfaces))
            for r_b in range(len(node_b.interfaces))
            if link_feasible(node_a, r_a, node_b, r_b, scenario.config)
        ]
        if options:
            pairings[(a, b)] = options
    return pairings


def random_topology(scenario: Scenario, rng: random.Random) -> Topology:
    """A random subset of feasible pairs with random interface pairings."""
    links = []
    density = rng.uniform(0.2, 0.8)
    for (a, b), options in feasible_pairings(scenario).items():
        if rng.random() < density:
            r_a, r_b = rng.choice(options)
            links.append(Link(a, r_a, b, r_b))
    return Topology(scenario.nodes, frozenset(links))


def random_graph_scenario(seed: int) -> tuple[Scenario, Topology, int, int]:
    """(scenario, graph with one isolated node, joiner id, target id) for bridging deltas."""
    rng = random.Random(seed)
    total = rng.randint(3, 10)
    radio = InterfaceSpec("mesh", 1.0e9, 1.0e6, 100.0, 1e-12)
    nodes = tuple(
        Node(
            id=i,
            position=(rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)),
            interfaces=(radio,),
            min_required_bitrate_bps=1.0e5,
            internet_connected=(i == 0),
        )
        for i in range(total)
    )
    scenario = Scenario(nodes, GameConfig(gamma=10.0, h_max=total))
    joiner = total - 1
    edge_probability = rng.uniform(0.15, 0.7)
    links = [
        Link(a, 0, b, 0)
        for a, b in itertools.combinations(range(total - 1), 2)
        if rng.random() < edge_probability
    ]
    topology = Topology(nodes, frozenset(links))
    target = rng.randrange(total - 1)
    return scenario, topology, joiner, target


MESH = make_iface("mesh", 1.0e9, 1.0e6, 1.0, 1e-9)


def pinned_order_nodes() -> tuple[Node, ...]:
    """Five mesh nodes, three with two radios, so several pairs have several pairings."""
    rhos = (1e4, 1e2, 1e3, 1e3, 1e4)
    radios = (2, 2, 1, 1, 2)
    positions = ((0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0), (40.0, 10.0))
    return tuple(make_node(i, positions[i], (MESH,) * radios[i], rho=rhos[i]) for i in range(5))


def multi_radio_scenario() -> Scenario:
    """The first four ``pinned_order_nodes``: pair (0, 1) has four pairings, on different own interfaces."""
    return Scenario(pinned_order_nodes()[:4], GameConfig(gamma=10.0))


def split_scenario() -> Scenario:
    """Two clusters that no radio bridges: every state is infinite and the count rule decides."""
    spots = ((0.0, 0.0), (20.0, 0.0), (10.0, 15.0), (1000.0, 0.0), (1020.0, 0.0))
    return Scenario(
        tuple(make_node(i, spot, (MESH,) * (2 if i < 2 else 1), ic=i in (0, 3)) for i, spot in enumerate(spots)),
        GameConfig(gamma=10.0),
    )


def isolated_scenario() -> Scenario:
    """Four mesh nodes, every pair feasible, and node 4 with no feasible pair: every state is infinite."""
    spots = ((0.0, 0.0), (20.0, 0.0), (10.0, 15.0), (30.0, 10.0), (5000.0, 0.0))
    return Scenario(
        tuple(make_node(i, spot, (MESH,), ic=i in (0, 2)) for i, spot in enumerate(spots)), GameConfig(gamma=10.0)
    )


def overflowing_unit_scenario(count: int = 2) -> Scenario:
    """``count`` (2 or 3) nodes 10 km apart, the first two IC. Each pair has one pairing, which fits both power
    budgets, though node 0's unit cost on it is inf."""
    radio = make_iface("lr", 1.0e9, 1.0e5, 1.0e12, 1.0e-3)
    nodes = (
        make_node(0, (0.0, 0.0), (radio,), b_min=1.0e6, rho=1.0e300, ic=True),
        make_node(1, (1.0e4, 0.0), (radio,), b_min=1.0e6, ic=True),
        make_node(2, (5.0e3, 8.66e3), (radio,), b_min=1.0e6),
    )
    return Scenario(nodes[:count], GameConfig(gamma=10.0))
