import math

import pytest
from hypothesis import given, strategies as st

from linkform.model import GameConfig
from linkform.propagation import SPEED_OF_LIGHT_M_S, link_feasible, required_tx_power

from conftest import BLUETOOTH, WLAN, ZWAVE, make_iface, make_node

CFG = GameConfig(gamma=10.0)


def friis_required(sensitivity, freq, distance, gain_tx=1.0, gain_rx=1.0, exponent=2.0):
    # independent hand evaluation of the free-space budget
    ratio = 4.0 * math.pi * distance * freq / SPEED_OF_LIGHT_M_S
    return sensitivity * ratio**exponent / (gain_tx * gain_rx)


def test_wlan_spot_value():
    got = required_tx_power(WLAN, WLAN, 10.0, CFG)
    assert got == pytest.approx(friis_required(1e-11, 2.4e9, 10.0), rel=1e-12)
    assert got == pytest.approx(1.011e-5, rel=5e-3)


def test_zwave_spot_value():
    got = required_tx_power(ZWAVE, ZWAVE, 30.0, CFG)
    assert got == pytest.approx(friis_required(6.3e-13, 0.908e9, 30.0), rel=1e-12)
    assert got == pytest.approx(8.2e-7, rel=5e-3)


def test_doubling_antenna_gain_halves_power():
    base = required_tx_power(WLAN, WLAN, 10.0, CFG)
    boosted_tx = make_iface("wlan", 2.4e9, 300e6, 1.0, 1e-11, gain=2.0)
    assert required_tx_power(boosted_tx, WLAN, 10.0, CFG) == pytest.approx(base / 2, rel=1e-12)
    assert required_tx_power(WLAN, boosted_tx, 10.0, CFG) == pytest.approx(base / 2, rel=1e-12)


@given(
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
    st.floats(min_value=1.01, max_value=10.0, allow_nan=False),
)
def test_monotone_in_distance(d, factor):
    assert required_tx_power(WLAN, WLAN, d * factor, CFG) > required_tx_power(WLAN, WLAN, d, CFG)


@given(st.floats(min_value=2.0, max_value=6.0), st.floats(min_value=2.0, max_value=6.0))
def test_monotone_in_exponent_beyond_unit_ratio(e1, e2):
    # 4*pi*d*f/c > 1 for d = 10 m at 2.4 GHz
    lo, hi = sorted((e1, e2))
    cfg_lo = GameConfig(gamma=10.0, path_loss_exponent=lo)
    cfg_hi = GameConfig(gamma=10.0, path_loss_exponent=hi)
    assert required_tx_power(WLAN, WLAN, 10.0, cfg_hi) >= required_tx_power(WLAN, WLAN, 10.0, cfg_lo)


def test_domain_errors():
    with pytest.raises(ValueError):
        required_tx_power(WLAN, ZWAVE, 10.0, CFG)
    off_freq = make_iface("wlan", 5.0e9, 300e6, 1.0, 1e-11)
    with pytest.raises(ValueError):
        required_tx_power(WLAN, off_freq, 10.0, CFG)
    with pytest.raises(ValueError):
        required_tx_power(WLAN, WLAN, 0.0, CFG)


def test_overflowing_path_loss_needs_infinite_power():
    far = 1.3327766554689647e152
    assert required_tx_power(WLAN, WLAN, far, GameConfig(gamma=10.0, path_loss_exponent=3.0)) == math.inf
    a = make_node(0, (0.0, 0.0), (WLAN,), b_min=1e7)
    b = make_node(1, (far, 0.0), (WLAN,), b_min=1e7)
    assert not link_feasible(a, 0, b, 0, CFG)


def test_underflowing_antenna_gains_need_infinite_power():
    faint = make_iface("wlan", 2.4e9, 300e6, 1.0, 1e-11, gain=1e-200)
    assert required_tx_power(faint, faint, 10.0, CFG) == math.inf
    a = make_node(0, (0.0, 0.0), (faint,), b_min=1e7)
    b = make_node(1, (10.0, 0.0), (faint,), b_min=1e7)
    assert not link_feasible(a, 0, b, 0, CFG)


def test_link_feasible_table_values():
    a = make_node(0, (0.0, 0.0), (WLAN,), b_min=1e7)
    b = make_node(1, (10.0, 0.0), (WLAN,), b_min=1e7)
    assert link_feasible(a, 0, b, 0, CFG)

    z = make_node(2, (10.0, 0.0), (ZWAVE,), b_min=5e3)
    assert not link_feasible(a, 0, z, 0, CFG)  # kind mismatch

    # co-located nodes need no transmit power
    assert link_feasible(make_node(3, (5.0, 5.0)), 0, make_node(4, (5.0, 5.0)), 0, CFG)


def test_bluetooth_range_cutoff():
    # invert the free-space budget for the 25 mW Bluetooth limit
    d_max = math.sqrt(0.025 / 1e-10) * SPEED_OF_LIGHT_M_S / (4.0 * math.pi * 2.4e9)
    near = make_node(0, (0.0, 0.0), (BLUETOOTH,), b_min=5e5)
    ok = make_node(1, (0.99 * d_max, 0.0), (BLUETOOTH,), b_min=5e5)
    far = make_node(2, (1.01 * d_max, 0.0), (BLUETOOTH,), b_min=5e5)
    assert link_feasible(near, 0, ok, 0, CFG)
    assert not link_feasible(near, 0, far, 0, CFG)


def test_feasibility_symmetric():
    strong = make_node(0, (0.0, 0.0), (make_iface(tx=10.0, rx=1e-13),))
    weak = make_node(1, (500.0, 0.0), (make_iface(tx=1e-4, rx=1e-9),))
    assert link_feasible(strong, 0, weak, 0, CFG) == link_feasible(weak, 0, strong, 0, CFG)


def test_zwave_range_cutoff():
    # invert the free-space budget for the 1 mW Z-Wave limit
    d_max = math.sqrt(1e-3 / 6.3e-13) * SPEED_OF_LIGHT_M_S / (4.0 * math.pi * 0.908e9)
    a = make_node(0, (0.0, 0.0), (ZWAVE,), b_min=5e3)
    near = make_node(1, (d_max * 0.5, 0.0), (ZWAVE,), b_min=5e3)
    far = make_node(2, (d_max * 1.05, 0.0), (ZWAVE,), b_min=5e3)
    assert link_feasible(a, 0, near, 0, CFG)
    assert link_feasible(near, 0, a, 0, CFG)
    assert not link_feasible(a, 0, far, 0, CFG)
