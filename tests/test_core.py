
from array import array

import pytest

from imids_sim.attack import DeprivationResult
from imids_sim.core import (
    DETECTION_FRACTION,
    TRUST_MAX,
    EnergyAccount,
    Packet,
    Position,
    WakeupToken,
    trust_penalize,
    trust_reward,
)
from imids_sim.engine import Change, Event, _Spend
from imids_sim.ids import Observation, Reason, SuspectedEntry, ValidationResult
from imids_sim.topology import Cluster, Sector

from conftest import build_node


def test_trust_starts_full():
    trust = build_node(1).trust
    assert type(trust) is int and trust == TRUST_MAX == 15


def test_trust_penalty_and_reward_step_by_one():
    t = TRUST_MAX
    t = trust_penalize(t)
    assert t == 14
    t = trust_reward(t)
    assert t == 15


def test_trust_saturates_at_both_ends():
    assert trust_penalize(0) == 0
    assert trust_reward(15) == 15


def test_position_distance():
    assert Position(0.0, 0.0).distance_to(Position(3.0, 4.0)) == 5.0


def test_detection_shares_per_role():
    # leaves and forwarding heads carry no detection reserve at all
    assert DETECTION_FRACTION["LN"] == 0.0
    assert DETECTION_FRACTION["FSH"] == 0.0
    for role in ("SC", "CC", "SN"):
        assert DETECTION_FRACTION[role] == 0.5
    assert DETECTION_FRACTION["SM"] == 0.8


def test_node_distance():
    a = build_node(1, 0, 0)
    b = build_node(2, 6, 8)
    assert a.distance_to(b) == 10.0


@pytest.mark.parametrize(
    "record",
    [
        Position(0.0, 0.0),
        WakeupToken(1, True),
        Packet(1, 2, WakeupToken(1, True), 0, 8),
        EnergyAccount(1.0, 1.0),
        build_node(1),
        Observation(),
        SuspectedEntry(0, 0, [Reason.PACKET_FLOOD]),
        ValidationResult(True),
        DeprivationResult(),
        Sector(1),
        Cluster(1, 1),
        _Spend({1: 0}, array("d", [0.0])),
        Event(Change.ADOPTED, 1, 2),
    ],
    ids=lambda record: type(record).__name__,
)
def test_per_event_records_are_slotted(record):
    # built or read per event in the round loop: no per-instance dict
    assert not hasattr(record, "__dict__")
