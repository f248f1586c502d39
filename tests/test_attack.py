import random

import pytest

from imids_sim import engine
from imids_sim.attack import (
    AttackConfig,
    apply_deprivation,
    choose_attackers,
    emit_attack_traffic,
)
from imids_sim.config import parse_config
from imids_sim.core import Packet, WakeupToken
from imids_sim.energy import EnergyParams, rx_cost

from conftest import build_node

P = EnergyParams()
UPLINK, DATA_BITS = 9, 3000


def _is_flood(packet):
    # the flood pattern: the uplink, every slot, `data_bits`; each test's
    # fake control messages go to a neighbour with `fake_msg_bits` (1000)
    return packet.dst == UPLINK and packet.payload_size == DATA_BITS


def _fresh(src, dst, slot, bits, valid):
    # a flood-packet builder that interns nothing
    return Packet(src, dst, WakeupToken(src, valid), slot, bits)


def _packet(src=5, dst=1, bits=1000, valid=False):
    return Packet(
        src=src,
        dst=dst,
        token=WakeupToken(owner=src, valid=valid),
        slot=2,
        payload_size=bits,
    )


def test_choose_attackers_explicit_ids_win():
    cfg = AttackConfig(attacker_ids=[3, 5], attacker_count=9)
    assert choose_attackers(cfg, range(10), 0, random.Random(1)) == {3, 5}


def test_choose_attackers_never_the_sink():
    # explicit ids naming the sink are refused by `ScenarioConfig.validate`
    # (tests/test_config_reference.py, "attacker ids"); the draw skips it
    drawn = choose_attackers(
        AttackConfig(attacker_count=9), range(10), 0, random.Random(1)
    )
    assert 0 not in drawn and len(drawn) == 9


def test_choose_attackers_draw_is_seed_deterministic():
    cfg = AttackConfig(attacker_count=3)
    a = choose_attackers(cfg, range(30), 0, random.Random(7))
    b = choose_attackers(cfg, range(30), 0, random.Random(7))
    assert a == b


def test_emission_all_tokens_invalid_and_sorted():
    cfg = AttackConfig(fake_msgs_per_round=3, flood_packets_per_slot=2)
    packets = emit_attack_traffic(
        5, [1, 2, 3], UPLINK, 4, cfg, data_bits=DATA_BITS, rng=random.Random(0), packet=_fresh
    )
    assert packets
    assert all(not p.token.valid for p in packets)
    keys = [(p.slot, p.dst, _is_flood(p)) for p in packets]
    assert keys == sorted(keys)
    floods = [p for p in packets if _is_flood(p)]
    assert [p.slot for p in floods] == [0, 0, 1, 1, 2, 2, 3, 3]
    fakes = [p for p in packets if not _is_flood(p)]
    assert len(fakes) == 3
    assert all(p.dst in (1, 2, 3) and p.payload_size == cfg.fake_msg_bits for p in fakes)


def test_flood_packets_from_the_engine_table_equal_fresh_ones():
    sim = engine.Simulation(parse_config({"seed": 7, "deployment": {"node_count": 40}}))
    cfg = AttackConfig(fake_msgs_per_round=3, flood_packets_per_slot=2)
    args = (5, [1, 2, 3], UPLINK, 4, cfg, DATA_BITS)
    fresh = emit_attack_traffic(*args, random.Random(0), _fresh)
    interned = emit_attack_traffic(*args, random.Random(0), sim._packet)
    again = emit_attack_traffic(*args, random.Random(1), sim._packet)
    assert interned == fresh
    floods = [p for p in interned if _is_flood(p)]
    assert floods[0].slot == floods[1].slot and floods[0] is floods[1]
    # a later round with other fake draws reuses the same flood instances
    floods_again = [p for p in again if _is_flood(p)]
    assert {id(p) for p in floods_again} == {id(p) for p in floods}


def test_emission_order_equals_the_order_by_kind_value():
    # the only neighbour is the uplink, so fake and flood packets share
    # slots and destination and only the kind, fake control before flood,
    # orders them
    cfg = AttackConfig(fake_msgs_per_round=12, flood_packets_per_slot=2)
    packets = emit_attack_traffic(
        5, [UPLINK], UPLINK, 4, cfg, data_bits=DATA_BITS, rng=random.Random(3), packet=_fresh
    )
    kinds_by_slot = {}
    for p in packets:
        kinds_by_slot.setdefault((p.slot, p.dst), set()).add(_is_flood(p))
    assert any(len(kinds) == 2 for kinds in kinds_by_slot.values())
    # both sorts are stable, so a re-sort by the old key moves nothing
    # unless the two keys order some pair differently
    by_kind = sorted(packets, key=lambda p: (p.slot, p.dst, _is_flood(p)))
    assert [id(p) for p in packets] == [id(p) for p in by_kind]


def test_emission_without_uplink_still_fakes():
    cfg = AttackConfig(fake_msgs_per_round=2, flood_packets_per_slot=2)
    packets = emit_attack_traffic(
        5, [1, 2], None, 4, cfg, data_bits=DATA_BITS, rng=random.Random(0), packet=_fresh
    )
    assert len(packets) == 2
    assert all(p.dst in (1, 2) and p.payload_size == cfg.fake_msg_bits for p in packets)


def test_emission_without_live_neighbours_only_floods():
    # no victim to fake for: the fake loop stops before its first draw
    cfg = AttackConfig(fake_msgs_per_round=3, flood_packets_per_slot=2)
    rng = random.Random(0)
    state = rng.getstate()
    packets = emit_attack_traffic(5, [], UPLINK, 4, cfg, DATA_BITS, rng, _fresh)
    assert rng.getstate() == state
    assert packets and all(_is_flood(p) for p in packets)
    assert [p.slot for p in packets] == [0, 0, 1, 1, 2, 2, 3, 3]


def test_dead_attacker_emits_nothing():
    # the engine skips a dead attacker before deriving its stream, so it
    # sends nothing in the round while the live ones still send
    raw = {
        "seed": 7,
        "deployment": {"node_count": 40},
        "attack": {"attacker_count": 3, "start_round": 0, "fake_msgs_per_round": 3},
    }
    sim = engine.Simulation(parse_config(raw))
    dead, *live = sorted(sim.attackers)
    sim.by_id[dead].energy.residual_energy = 0.0
    sim._emit_attacks(0)
    senders = {p.src for packets in sim._attack_packets.values() for p in packets}
    assert senders == set(live)


def test_deprivation_wakes_sleeper_and_charges_rx():
    victim = build_node(1, energy=0.01)
    before = victim.energy.residual_energy
    result = apply_deprivation(victim, _packet(bits=1000), awake=False, params=P)
    assert result.woken and result.received
    expected = (P.p_listen - P.p_sleep) + rx_cost(P, 1000)
    assert before - victim.energy.residual_energy == pytest.approx(expected)


def test_deprivation_awake_victim_pays_rx_only():
    victim = build_node(1, energy=0.01)
    before = victim.energy.residual_energy
    result = apply_deprivation(victim, _packet(bits=1000), awake=True, params=P)
    assert not result.woken and result.received
    assert before - victim.energy.residual_energy == pytest.approx(rx_cost(P, 1000))


def test_deprivation_filtered_source_costs_nothing():
    victim = build_node(1, energy=0.01)
    before = victim.energy.residual_energy
    result = apply_deprivation(
        victim, _packet(), awake=False, params=P, filtered=True
    )
    assert not result.woken and not result.received
    assert victim.energy.residual_energy == before


def test_deprivation_dead_victim_untouched():
    victim = build_node(1, energy=1.0)
    victim.energy.residual_energy = 0.0
    result = apply_deprivation(victim, _packet(), awake=False, params=P)
    assert not result.woken and not result.received
    assert victim.energy.residual_energy == 0.0
