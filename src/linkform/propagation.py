"""Physical-layer feasibility: minimum transmit power and link feasibility.

The propagation model is deterministic generalized free-space path loss:

    P_required = S_rx * (4 * pi * d * f / c) ** eta / (g_tx * g_rx)

with eta the configured path-loss exponent. At eta = 2 this is exactly the
Friis transmission equation solved for transmit power. No fading or
interference is modeled. Transmitters on an established link are assumed to
emit exactly the minimum required power.
"""

from __future__ import annotations

import math

from .model import GameConfig, InterfaceSpec, Node, distance_between

SPEED_OF_LIGHT_M_S = 299_792_458.0


def required_tx_power(
    tx: InterfaceSpec, rx: InterfaceSpec, distance_m: float, config: GameConfig
) -> float:
    """Minimum power (watts) the ``tx`` interface must emit for ``rx`` to decode.

    Non-decreasing in distance, and ``math.inf`` once the path loss overflows a
    float or the antenna gain product underflows to 0; for path distances
    beyond one wavelength fraction (4*pi*d*f/c > 1) also increasing in the
    path-loss exponent.
    """
    if tx.kind != rx.kind:
        raise ValueError(f"interface kinds differ: {tx.kind!r} vs {rx.kind!r}")
    if tx.frequency_hz != rx.frequency_hz:
        raise ValueError(f"frequencies differ: {tx.frequency_hz} Hz vs {rx.frequency_hz} Hz")
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    ratio = 4.0 * math.pi * distance_m * tx.frequency_hz / SPEED_OF_LIGHT_M_S
    try:
        path_loss = ratio**config.path_loss_exponent
    except OverflowError:
        return math.inf  # beyond any float budget, so no finite power suffices
    gains = tx.antenna_gain * rx.antenna_gain
    if gains == 0.0:
        return math.inf
    return rx.rx_sensitivity_w * path_loss / gains


def link_feasible(node_i: Node, r_i: int, node_j: Node, r_j: int, config: GameConfig) -> bool:
    """True iff the interface pair matches and both directions fit their power budgets.

    Co-located nodes need vanishing power, so a matching interface pair at
    zero distance is always feasible.
    """
    iface_i = node_i.interface(r_i)
    iface_j = node_j.interface(r_j)
    if iface_i.kind != iface_j.kind or iface_i.frequency_hz != iface_j.frequency_hz:
        return False
    distance = distance_between(node_i, node_j)
    if distance == 0.0:
        return True
    forward = required_tx_power(iface_i, iface_j, distance, config)
    backward = required_tx_power(iface_j, iface_i, distance, config)
    return forward <= iface_i.max_tx_power_w and backward <= iface_j.max_tx_power_w

