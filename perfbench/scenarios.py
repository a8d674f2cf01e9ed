"""Seeded 6-node, two-radio scenarios for the analyze_small workload.

Every scenario has the same radio roles: nodes 0-2 carry a long-range
908 MHz radio ("lr", 1 km reach) and a short-range 2.4 GHz radio ("sr", 35 m
reach), node 3 only "lr", nodes 4-5 only "sr"; nodes 0 and 1 are
internet-connected and gamma is 5. Positions keep nodes 0-2 within 8 m of
the centre, node 4 18-24 m to its left and node 5 18-24 m to its right, so
the feasible pairs are always ``PAIRS``, with both radios usable on each pair
among nodes 0-2: 12 pairs and ``LINK_SETS`` candidate link sets. The seed
draws the exact positions, bitrates and energy weights. Every scenario thus
asks brute-force enumeration for the same amount of work over the same
feasibility graph, and neither the workload's time nor its set-up time
swings with the seed. The graph is connected, which makes every
pairwise-stable topology connected and every cost the workload queries
finite.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from types import ModuleType

PAIRS = frozenset(
    [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(a, b) for a in range(3) for b in (4, 5)]
)
LINK_SETS = 13_824  # 2**9 * 3**3
SPEED_OF_LIGHT_M_S = 299_792_458.0
CENTRE_M = (25.0, 25.0)
ROLES = (("lr", "sr"), ("lr", "sr"), ("lr", "sr"), ("lr",), ("sr",), ("sr",))


@dataclass(frozen=True)
class Case:
    scenario: object
    pairings: tuple[tuple[int, int, int, int], ...]  # every feasible (a, r_a, b, r_b), a < b
    link_sets: int


def _interface(model: ModuleType, kind: str, rng: random.Random):
    frequency, reach_m, bitrate, sensitivity = {
        "lr": (908e6, 1000.0, 4e4, 6.3e-13),
        "sr": (2.4e9, 35.0, 2e6, 1e-10),
    }[kind]
    power = sensitivity * (4.0 * math.pi * reach_m * frequency / SPEED_OF_LIGHT_M_S) ** 2
    return model.InterfaceSpec(kind, frequency, bitrate * rng.uniform(0.9, 1.1), power, sensitivity)


def _position(index: int, rng: random.Random) -> tuple[float, float]:
    cx, cy = CENTRE_M
    if index < 3:
        radius, angle = rng.uniform(0.0, 8.0), rng.uniform(0.0, 2.0 * math.pi)
        return (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    if index == 3:
        return (rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0))
    side = -1.0 if index == 4 else 1.0
    return (cx + side * rng.uniform(18.0, 24.0), cy + rng.uniform(-4.0, 4.0))


def _draw(model: ModuleType, rng: random.Random):
    nodes = tuple(
        model.Node(
            id=index,
            position=_position(index, rng),
            interfaces=tuple(_interface(model, kind, rng) for kind in kinds),
            min_required_bitrate_bps=5e3,
            energy_weight=rng.uniform(0.95, 1.05) * 1e7,
            internet_connected=index < 2,
        )
        for index, kinds in enumerate(ROLES)
    )
    return model.Scenario(nodes, model.GameConfig(gamma=5.0, h_max=5))


def _case(propagation: ModuleType, scenario) -> Case:
    pairings = []
    link_sets = 1
    for a, b in itertools.combinations(scenario.nodes, 2):
        options = [
            (a.id, r_a, b.id, r_b)
            for r_a in range(len(a.interfaces))
            for r_b in range(len(b.interfaces))
            if propagation.link_feasible(a, r_a, b, r_b, scenario.config)
        ]
        pairings.extend(options)
        link_sets *= 1 + len(options)
    if link_sets != LINK_SETS or {(a, b) for a, _, b, _ in pairings} != PAIRS:
        raise ValueError(f"generated scenario has {link_sets} link sets over other pairs than PAIRS")
    return Case(scenario, tuple(pairings), link_sets)


def generate(model: ModuleType, propagation: ModuleType, seed: int, count: int) -> list[Case]:
    """``count`` scenarios drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [_case(propagation, _draw(model, rng)) for _ in range(count)]
