import math

import pytest

from imids_sim.config import ConfigError, ScenarioConfig
from imids_sim.core import Role, is_alive
from imids_sim.energy import (
    EnergyParams,
    assign_detection_budget,
    charge_detection,
    consume,
    rx_cost,
    tx_cost,
)

from conftest import build_node

P = EnergyParams()

# Frozen expectations, computed by hand from the first-order radio model:
# tx = bits * (e_elec + e_amp * d^2), rx = bits * e_elec.
TX_3000_AT_40 = 6.3e-4       # 3000 * (50e-9 + 100e-12 * 1600)
TX_1000_AT_0 = 5.0e-5        # 1000 * 50e-9
TX_200_AT_10 = 1.2e-5        # 200 * (50e-9 + 100e-12 * 100)
RX_3000 = 1.5e-4             # 3000 * 50e-9
RX_800 = 4.0e-5              # 800 * 50e-9


def test_tx_cost_frozen_values():
    assert math.isclose(tx_cost(P, 3000, 40.0), TX_3000_AT_40, rel_tol=1e-12)
    assert math.isclose(tx_cost(P, 1000, 0.0), TX_1000_AT_0, rel_tol=1e-12)
    assert math.isclose(tx_cost(P, 200, 10.0), TX_200_AT_10, rel_tol=1e-12)


def test_rx_cost_frozen_values():
    assert math.isclose(rx_cost(P, 3000), RX_3000, rel_tol=1e-12)
    assert math.isclose(rx_cost(P, 800), RX_800, rel_tol=1e-12)


def test_tx_cost_grows_quadratically_with_distance():
    base = tx_cost(P, 1000, 10.0) - tx_cost(P, 1000, 0.0)
    far = tx_cost(P, 1000, 20.0) - tx_cost(P, 1000, 0.0)
    assert math.isclose(far, 4 * base, rel_tol=1e-12)


def test_cost_input_validation():
    with pytest.raises(ValueError):
        tx_cost(P, 0, 10.0)
    with pytest.raises(ValueError):
        tx_cost(P, 100, -1.0)
    with pytest.raises(ValueError):
        rx_cost(P, -5)


def test_params_validation():
    def validate(**params):  # a section is checked as part of its scenario
        ScenarioConfig(seed=1, energy=EnergyParams(**params)).validate()

    with pytest.raises(ConfigError, match=r"^energy\.p_sleep must be below energy\.p_listen$"):
        validate(p_listen=1e-7, p_sleep=1e-6)
    with pytest.raises(ConfigError, match=r"^energy\.e_elec must be >= 0, got -1\.0$"):
        validate(e_elec=-1.0)
    with pytest.raises(ConfigError, match=r"^energy\.e_elec must be >= 0, got nan$"):
        validate(e_elec=math.nan)  # NaN lies in no range
    validate()


def test_consume_clamps_and_kills():
    node = build_node(1, energy=1e-4)
    assert consume(node, 2e-4) is None
    assert node.energy.residual_energy == 0.0
    assert not is_alive(node)


def test_consume_rejects_negative():
    node = build_node(1)
    with pytest.raises(ValueError):
        consume(node, -1.0)


def test_budget_assignment_by_role():
    node = build_node(1, energy=2.0)
    assign_detection_budget(node, Role.SC)
    assert node.energy.detection_budget == pytest.approx(1.0)
    assert node.energy.detection_enabled

    leaf = build_node(2, energy=2.0)
    assign_detection_budget(leaf, Role.LN)
    assert leaf.energy.detection_budget == 0.0
    assert not leaf.energy.detection_enabled


def test_budget_capped_by_residual():
    node = build_node(1, energy=2.0)
    consume(node, 1.7)
    assign_detection_budget(node, Role.SM)  # 0.8 * 2.0 = 1.6 > 0.3 left
    assert node.energy.detection_budget == pytest.approx(0.3)


def test_charge_detection_drains_both_pools():
    node = build_node(1, energy=1.0)
    assign_detection_budget(node, Role.SC)
    before_res = node.energy.residual_energy
    before_budget = node.energy.detection_budget
    disabled = charge_detection(node, P)
    assert not disabled
    assert node.energy.residual_energy == pytest.approx(before_res - P.e_detect)
    assert node.energy.detection_budget == pytest.approx(before_budget - P.e_detect)


def test_charge_detection_disables_under_floor():
    node = build_node(1, energy=1.0)
    node.energy.detection_budget = 3e-6
    node.energy.detection_budget_initial = 4e-6
    node.energy.detection_enabled = True
    # floor is 0.05 * 4e-6 = 2e-7; a 2.9e-6 charge leaves 1e-7, under it
    params = EnergyParams(e_detect=2.9e-6)
    assert charge_detection(node, params) is True
    assert not node.energy.detection_enabled
    with pytest.raises(ValueError):
        charge_detection(node, params)
