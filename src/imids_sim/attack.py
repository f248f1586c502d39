"""Sleep-deprivation attack traffic and its effect on duty-cycled victims.

An attacker burns its neighbors' batteries two ways: fabricated control
messages wake random neighbors in random slots, and a steady flood of bogus
readings keeps its uplink coordinator busy receiving. Fabricated packets can
never carry a valid wake-up token, which is what gives the defense a hook.
Packets the attacker sends as part of a legitimately held duty (before it
turns active) still bear its authentic token.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .config import MAX_ATTACK_RATE, AttackConfig  # noqa: F401 (declared with every section)
from .core import Packet, PacketKind, SensorNode, WakeupToken, is_alive
from .energy import EnergyParams, consume, rx_cost

def choose_attackers(config: AttackConfig, node_ids, sink_id: int, rng: random.Random) -> set:
    """Resolve the malicious set: explicit ids win, otherwise a random draw.
    The sink is never an attacker."""
    if config.attacker_ids is not None:
        chosen = set(int(i) for i in config.attacker_ids)
        if sink_id in chosen:
            raise ValueError("the sink cannot be an attacker")
        unknown = chosen - set(node_ids)
        if unknown:
            raise ValueError(f"unknown attacker ids: {sorted(unknown)}")
        return chosen
    candidates = sorted(i for i in node_ids if i != sink_id)
    count = min(config.attacker_count, len(candidates))
    return set(rng.sample(candidates, count))


def _fresh_packet(src, dst, slot, bits, valid) -> Packet:
    return Packet(src, dst, PacketKind.SENSOR_DATA, WakeupToken(src, valid), slot, bits)


def emit_attack_traffic(
    attacker: SensorNode,
    neighbors: list,
    uplink: int | None,
    slots_per_round: int,
    config: AttackConfig,
    data_bits: int,
    rng: random.Random,
    packet=_fresh_packet,
) -> list:
    """Produce one round of attack packets for a single attacker.

    Fake control messages pick a random live neighbor and a random slot
    each; flood packets target the attacker's uplink coordinator in every
    slot. A dead attacker, or one whose round predates start_round, emits
    nothing. All emitted tokens are invalid.

    `packet(src, dst, slot, bits, valid)` gives each flood packet, a
    sensing-data packet; by default each is built fresh. Fake control
    packets are always built fresh: their victim and slot are random.
    """
    if not is_alive(attacker):
        return []
    packets = []
    bad_token = WakeupToken(owner=attacker.id, valid=False)
    live_neighbors = sorted(neighbors)
    for _ in range(config.fake_msgs_per_round):
        if not live_neighbors:
            break
        victim = rng.choice(live_neighbors)
        slot = rng.randrange(slots_per_round)
        packets.append(
            Packet(
                src=attacker.id,
                dst=victim,
                kind=PacketKind.FAKE_CONTROL,
                token=bad_token,
                slot=slot,
                payload_size=config.fake_msg_bits,
            )
        )
    if uplink is not None and config.flood_packets_per_slot > 0:
        for slot in range(slots_per_round):
            for _ in range(config.flood_packets_per_slot):
                packets.append(packet(attacker.id, uplink, slot, data_bits, False))
    # by slot and destination; the sort is stable, so fake control stays first
    packets.sort(key=lambda p: (p.slot, p.dst))
    return packets


@dataclass(slots=True)
class DeprivationResult:
    woken: bool = False
    received: bool = False


def apply_deprivation(
    victim: SensorNode,
    packet: Packet,
    awake: bool,
    params: EnergyParams,
    filtered: bool = False,
) -> DeprivationResult:
    """Deliver one unsolicited packet to a victim.

    A sleeping victim is forced awake (paying the listen/sleep difference
    for the slot) and then pays reception. A victim that already listens
    pays reception only. Dead victims, and traffic from sources the victim
    knows to be quarantined (`filtered`), change nothing.
    """
    result = DeprivationResult()
    if not is_alive(victim) or filtered:
        return result
    if not awake:
        consume(victim, params.p_listen - params.p_sleep)
        result.woken = True
    if is_alive(victim):
        consume(victim, rx_cost(params, packet.payload_size))
        result.received = True
    return result
