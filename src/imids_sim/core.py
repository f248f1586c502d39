"""Core value types shared by every layer of the simulator.

Nodes are heterogeneous: a small population of high-energy leaders takes the
coordination and monitoring duties, the low-energy followers sense and sleep,
and a single sink collects everything. Trust is a saturating 4-bit counter so
a reputation fits in half a byte on the wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

TRUST_MAX = 15

# Share of a node's initial energy reserved for detection work, by role.
# Leaf nodes and forwarding sector heads do no detection at all; sector
# monitors carry the largest reserve.
DETECTION_FRACTION = {
    "LN": 0.0,
    "FSH": 0.0,
    "SC": 0.5,
    "CC": 0.5,
    "SN": 0.5,
    "SM": 0.8,
}


class NodeClass(Enum):
    LEADER = "leader"
    FOLLOWER = "follower"
    SINK = "sink"


class Role(Enum):
    LN = "LN"    # leaf node: senses, sleeps, transmits in its own slot
    SC = "SC"    # sector coordinator: collects sector traffic, runs anomaly checks
    SM = "SM"    # sector monitor: decides suspect fate over an observation window
    FSH = "FSH"  # forwarding sector head: relays sector aggregates to the CC
    CC = "CC"    # cluster coordinator: validates and forwards to the sink
    SN = "SN"    # sink


class PacketKind(Enum):
    SENSOR_DATA = "sensor_data"
    FAKE_CONTROL = "fake_control"


@dataclass(frozen=True, slots=True)
class Position:
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class TrustState:
    """Saturating 4-bit reputation counter. Full trust is 15, none is 0."""

    nibble: int = TRUST_MAX

    def __post_init__(self):
        if not 0 <= self.nibble <= TRUST_MAX:
            raise ValueError(f"trust nibble out of range: {self.nibble}")


def trust_penalize(trust: TrustState) -> TrustState:
    value = max(0, trust.nibble - 1)
    return trust if value == trust.nibble else TrustState(value)


def trust_reward(trust: TrustState) -> TrustState:
    value = min(TRUST_MAX, trust.nibble + 1)
    return trust if value == trust.nibble else TrustState(value)


@dataclass(frozen=True, slots=True)
class WakeupToken:
    owner: int
    valid: bool


@dataclass(frozen=True, slots=True)
class Packet:
    src: int
    dst: int
    kind: PacketKind
    token: WakeupToken
    slot: int
    payload_size: int
    # For aggregates: ids whose readings this payload carries (provenance).
    sources: tuple = ()


@dataclass(slots=True)
class EnergyAccount:
    initial_energy: float
    residual_energy: float
    detection_budget: float = 0.0
    detection_budget_initial: float = 0.0
    detection_enabled: bool = False


@dataclass(slots=True)
class SensorNode:
    id: int
    position: Position
    node_class: NodeClass
    role: Role
    energy: EnergyAccount
    trust: TrustState = field(default_factory=TrustState)
    slot: int | None = None  # owned TDMA transmit slot, handed out by the engine
    malicious: bool = False

    def distance_to(self, other: "SensorNode") -> float:
        return self.position.distance_to(other.position)


def is_alive(node: SensorNode) -> bool:
    return node.energy.residual_energy > 0.0


def make_energy_account(initial: float) -> EnergyAccount:
    return EnergyAccount(initial_energy=initial, residual_energy=initial)
