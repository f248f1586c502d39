"""First-order radio energy model plus duty-cycle and detection accounting.

Transmission pays electronics per bit and a d^2 amplifier term; reception
pays electronics only. Listening in a slot costs orders of magnitude more
than sleeping through it, which is exactly what a sleep-deprivation attack
exploits: every slot a victim is kept awake leaks p_listen - p_sleep.
"""

from __future__ import annotations

from .config import EnergyParams  # declared with every section
from .core import DETECTION_FRACTION, Role, SensorNode


def tx_cost(params: EnergyParams, bits: int, distance: float) -> float:
    if bits <= 0:
        raise ValueError("bits must be positive")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return params.e_elec * bits + params.e_amp * bits * distance * distance


def rx_cost(params: EnergyParams, bits: int) -> float:
    if bits <= 0:
        raise ValueError("bits must be positive")
    return params.e_elec * bits


def consume(node: SensorNode, joules: float) -> None:
    """Drain `joules` from a live node, clamping at zero; a dead node pays
    nothing. The package's only write of residual energy."""
    if joules < 0:
        raise ValueError("cannot consume negative energy")
    account = node.energy
    residual = account.residual_energy
    if residual > 0.0:
        account.residual_energy = residual - joules if joules < residual else 0.0


def assign_detection_budget(node: SensorNode, role: Role) -> None:
    """Reserve the role's detection share out of what the node has left."""
    fraction = DETECTION_FRACTION[role.value]
    budget = min(fraction * node.energy.initial_energy, node.energy.residual_energy)
    node.energy.detection_budget = budget
    node.energy.detection_budget_initial = budget
    node.energy.detection_enabled = budget > 0.0


def charge_detection(node: SensorNode, params: EnergyParams) -> bool:
    """Charge one detection check. Returns True if the IDS just shut off.

    The check drains residual energy and the detection budget together.
    Once the budget falls under dp_min_threshold of its initial value the
    node's IDS disables itself, which the caller must treat as a
    reconfiguration trigger.
    """
    account = node.energy
    if not account.detection_enabled:
        raise ValueError(f"node {node.id} has no active detection capability")
    consume(node, params.e_detect)
    budget = account.detection_budget - params.e_detect
    account.detection_budget = budget = budget if budget > 0.0 else 0.0
    floor = params.dp_min_threshold * account.detection_budget_initial
    if budget < floor or not account.residual_energy > 0.0:  # or the node died
        account.detection_enabled = False
        return True
    return False
