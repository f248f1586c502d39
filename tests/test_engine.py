import ast
import copy
import functools
import gc
import hashlib
import inspect
import json
import pickle
import sys
from pathlib import Path

import pytest

from imids_sim import engine, ids
from imids_sim.cli import _metrics_row
from imids_sim.config import MODES, parse_config
from imids_sim.core import NodeClass, Packet, PacketKind, Role, WakeupToken, is_alive
from imids_sim.energy import rx_cost, tx_cost
from imids_sim.engine import Change, Event

STOCK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "stock_comparison.json"


def wrap_phases(sim, around):
    """Route every phase of the round through `around(phase, r)`."""
    sim._phases = tuple(functools.partial(around, phase) for phase in sim._phases)


def scenario(**overrides):
    raw = {
        "seed": 7,
        "rounds": 30,
        "mode": "imids",
        "deployment": {"node_count": 40, "leader_fraction": 0.2},
        "attack": {"attacker_count": 0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    return parse_config(raw)


def tiny_arena(**overrides):
    # every pair of nodes is in range, so the run can decay all the way to
    # extinction without stranding anyone
    overrides.setdefault("seed", 3)
    overrides.setdefault("rounds", 300)
    overrides.setdefault(
        "deployment",
        {
            "node_count": 12,
            "area_width": 24.0,
            "area_height": 24.0,
            "leader_fraction": 0.25,
            "leader_initial_energy": 0.01,
            "follower_initial_energy": 0.004,
        },
    )
    return scenario(**overrides)


ATTACK = {
    "attacker_count": 1,
    "fake_msgs_per_round": 4,
    "flood_packets_per_slot": 2,
    "start_round": 0,
}


# --- reproducibility ---------------------------------------------------------


def test_identical_configs_give_identical_traces():
    a = engine.run_simulation(scenario(rounds=25, attack=dict(ATTACK, start_round=5)))
    b = engine.run_simulation(scenario(rounds=25, attack=dict(ATTACK, start_round=5)))
    assert a.alive_series == b.alive_series
    assert [r.energy_spent_total for r in a.reports] == [
        r.energy_spent_total for r in b.reports
    ]
    assert [r.suspects_new for r in a.reports] == [r.suspects_new for r in b.reports]
    assert a.ledgers.quarantined == b.ledgers.quarantined
    assert a.final_energy == b.final_energy


def test_modes_share_deployment_and_attack_draw():
    a = engine.run_simulation(scenario(rounds=5, attack=ATTACK))
    b = engine.run_simulation(scenario(rounds=5, mode="itids", attack=ATTACK))
    assert a.positions == b.positions
    assert a.attacker_ids == b.attacker_ids


# --- energy accounting ---------------------------------------------------------


def test_round_spends_telescope_to_energy_delta():
    trace = engine.run_simulation(scenario(attack=ATTACK))
    for node_id, initial in trace.initial_energy.items():
        booked = trace.init_energy_spent[node_id] + sum(
            r.energy_spent[node_id] for r in trace.reports
        )
        assert booked == pytest.approx(initial - trace.final_energy[node_id], abs=1e-9)



def test_a_round_spend_reads_as_the_dict_of_battery_deltas():
    sim = engine.initialize(parse_config(json.loads(STOCK_CONFIG.read_text())))
    node_ids = [n.id for n in sim.nodes]
    while sim.round < sim.config.rounds and sim.alive_non_sink():
        before = [n.energy.residual_energy for n in sim.nodes]
        spent = sim.run_round().energy_spent
        rebuilt = {n.id: b - n.energy.residual_energy for n, b in zip(sim.nodes, before)}
        assert list(spent) == node_ids
        assert spent == rebuilt and rebuilt == spent
        assert len(spent) == len(rebuilt)
        assert list(spent.items()) == list(rebuilt.items())
    assert any(rebuilt.values())
    with pytest.raises(KeyError):
        spent[max(node_ids) + 1]
    with pytest.raises(TypeError):
        spent[node_ids[0]] = 0.0
    assert dict(spent) == rebuilt
    assert copy.deepcopy(spent) == spent
    assert pickle.loads(pickle.dumps(spent)) == spent


def test_a_round_report_is_slotted():
    # a trace keeps one per round: no per-instance dict
    report = engine.initialize(scenario(rounds=1)).run_round()
    assert not hasattr(report, "__dict__")


def retained_bytes(*roots):
    """Bytes held by `roots` and everything they reach, each object once
    (classes aside)."""
    seen, stack, total = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


@pytest.mark.parametrize("mode", ["imids", "imids-no-sectors"])
def test_the_delivery_logs_keep_validated_sources_compactly(mode):
    # Most of what the sink accepts in a round was validated below it that
    # round, and the three delivery logs hold their entries in flat arrays
    # rather than one tuple per entry (a list of tuples costs 64 bytes each).
    raw = json.loads(STOCK_CONFIG.read_text())
    raw["mode"] = mode
    ledgers = engine.run_simulation(parse_config(raw)).ledgers
    validated = set(ledgers.valid_log)
    shared = sum(entry in validated for entry in ledgers.sn_log)
    assert shared > len(ledgers.sn_log) // 2
    logs = (ledgers.valid_log, ledgers.sn_log, ledgers.forwarding_log)
    assert retained_bytes(*logs) <= 16 * sum(map(len, logs))


def test_census_charges_before_round_zero():
    trace = engine.run_simulation(scenario(rounds=1))
    assert any(spent > 0.0 for spent in trace.init_energy_spent.values())
    assert trace.init_energy_spent[0] > 0.0  # the sink advertises


@pytest.mark.parametrize("mode", ["imids", "imids-no-sectors", "itids"])
def test_cost_memos_equal_the_formulas_bit_for_bit(mode):
    sim = engine.initialize(scenario(mode=mode, rounds=20, attack=ATTACK))
    for _ in range(20):
        sim.run_round()
    params = sim.params
    assert len({bits for _, _, bits in sim._link_cost}) > 1  # control and data at least
    for (src, dst, bits), cost in sim._link_cost.items():
        assert cost == tx_cost(params, bits, sim.by_id[src].distance_to(sim.by_id[dst]))
    check_rx_table(sim)
    assert sim._slot_cost
    for pattern, cost in sim._slot_cost.items():
        folded = 0
        for awake in pattern:
            folded += params.p_listen if awake else params.p_sleep
        assert cost == folded
    assert sim._broadcast_cost == tx_cost(
        params, sim.config.traffic.control_bits, sim.graph.transmission_range
    )
    assert sim._packets
    tokens = {}
    for (src, dst, slot, bits, valid, sources), pkt in sim._packets.items():
        assert pkt == Packet(
            src, dst, PacketKind.SENSOR_DATA, WakeupToken(src, valid), slot, bits, sources
        )
        assert tokens.setdefault((src, valid), pkt.token) is pkt.token


def test_the_duty_price_memo_is_bounded_and_prices_every_mask_bit_for_bit():
    """At 40 slots almost every mask is a new wake pattern, so over 200
    stock rounds the memo reaches its cap and starts over; right after
    each draw it holds no more than the cap, and every priced mask is the
    fold of its own pattern, whether its price was kept or recomputed."""
    raw = json.loads(STOCK_CONFIG.read_text())
    raw.update(mode="itids", rounds=200, slots_per_round=40)
    sim = engine.initialize(parse_config(raw))
    draw, params = sim._draw_masks, sim.params
    sizes = []

    def checked(r):
        draw(r)
        sizes.append(len(sim._slot_cost))
        assert sizes[-1] <= engine.DUTY_PRICES_KEPT
        for node, cost in sim._duty:
            pattern = sim._masks[node.id]
            assert cost == engine._add_up(params.p_listen if a else params.p_sleep for a in pattern)

    sim._phases = (checked, *sim._phases[1:])  # the draw opens every round
    for _ in range(200):
        sim.run_round()
    # the memo shrinks only when a draw finds it full, so it was cleared
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def check_rx_table(sim):
    """The receive prices, fixed at set-up: one per packet size the config
    fixes, each the formula bit for bit."""
    traffic = sim.config.traffic
    sizes = {
        traffic.data_bits, traffic.aggregate_bits, traffic.control_bits,
        sim.config.attack.fake_msg_bits,
    }
    assert sim._rx_table.keys() == sizes
    for bits, cost in sim._rx_table.items():
        assert cost == rx_cost(sim.params, bits)
    return sizes


def test_sizes_that_coincide_share_one_receive_price():
    attack = dict(ATTACK, fake_msg_bits=scenario().traffic.data_bits)
    sim = engine.initialize(scenario(rounds=5, attack=attack))
    assert len(check_rx_table(sim)) == 3
    for _ in range(5):
        sim.run_round()
    check_rx_table(sim)  # the run adds no size


def test_always_on_watchers_pay_to_overhear():
    # promiscuous baseline monitors receive everything they inspect, so the
    # flat architecture costs more than the sectored one on identical traffic
    imids = engine.run_simulation(scenario(rounds=40))
    itids = engine.run_simulation(scenario(rounds=40, mode="itids"))
    assert itids.total_energy_spent() > imids.total_energy_spent()


def test_a_hop_bills_the_sender_its_link_and_a_listening_receiver_its_rx():
    sim = engine.initialize(scenario(rounds=1))
    src, dst = [n for n in sim.nodes if n.id != sim.sink.id][:2]
    bits = sim.config.traffic.data_bits
    link = tx_cost(sim.params, bits, src.distance_to(dst))
    rx = rx_cost(sim.params, bits)

    def hop(src_joules, dst_joules, filtered=False):
        src.energy.residual_energy, dst.energy.residual_energy = src_joules, dst_joules
        got = sim._hop(src, dst, bits, filtered)
        return got, src_joules - src.energy.residual_energy, dst_joules - dst.energy.residual_energy

    assert hop(1.0, 1.0) == (True, 1.0 - (1.0 - link), 1.0 - (1.0 - rx))
    assert sim._link_cost[(src.id, dst.id, bits)] == link  # priced once, then reused
    assert hop(1.0, 1.0, filtered=True) == (False, 1.0 - (1.0 - link), 0.0)
    assert hop(1.0, 0.0) == (False, 1.0 - (1.0 - link), 0.0)
    # A sender killed by its own receive charge just before still bills
    # its receiver: the handshake reply and the forwarding-head relay
    # rely on this, and the pinned traces with them.
    assert hop(0.0, 1.0) == (True, 0.0, 1.0 - (1.0 - rx))


# --- lifecycle -----------------------------------------------------------------


def test_alive_count_never_increases():
    trace = engine.run_simulation(tiny_arena())
    series = trace.alive_series
    assert all(earlier >= later for earlier, later in zip(series, series[1:]))


def test_extinction_truncates_the_run():
    trace = engine.run_simulation(tiny_arena())
    assert trace.extinction_round is not None
    assert len(trace.reports) == trace.extinction_round < 300
    assert trace.alive_series[-1] == 0


def test_after_set_up_a_graph_is_made_only_on_a_death_and_from_the_last(monkeypatch):
    """Set-up builds the range graph from scratch. After that the sweep
    makes a graph only when a node has died, and derives it from the one
    it replaces instead of re-testing every pair."""
    build = engine.topo.build_graph
    calls = []  # (previous passed in, graph made, live nodes then)

    def recording(nodes, transmission_range, previous=None):
        graph = build(nodes, transmission_range, previous)
        calls.append((previous, graph, sum(map(is_alive, nodes))))
        return graph

    monkeypatch.setattr(engine.topo, "build_graph", recording)
    engine.run_simulation(tiny_arena())
    assert calls[0][0] is None and len(calls) > 3
    for (_, last, alive_then), (previous, _, alive) in zip(calls, calls[1:]):
        assert previous is last and alive < alive_then


def test_run_round_refuses_a_dead_network():
    sim = engine.initialize(tiny_arena(rounds=5))
    for node in sim.nodes:
        if node.node_class is not NodeClass.SINK:
            node.energy.residual_energy = 0.0
    with pytest.raises(RuntimeError):
        engine.run_round(sim)


# --- detection behavior ----------------------------------------------------------


def test_quiet_network_raises_no_alarms():
    trace = engine.run_simulation(scenario())
    assert trace.attacker_ids == []
    assert all(r.quarantines_new == [] for r in trace.reports)
    assert trace.ledgers.suspected == {}
    assert trace.final_confusion.fp == 0
    assert trace.final_confusion.accuracy == 1.0


def test_flooding_attacker_is_quarantined_fast():
    trace = engine.run_simulation(scenario(rounds=20, attack=ATTACK))
    (attacker,) = trace.attacker_ids
    assert attacker in trace.ledgers.quarantined
    limit = trace.config["detection"]["strike_limit"]
    window = trace.config["detection"]["window_rounds"]
    assert trace.ledgers.quarantined[attacker] <= limit + window
    assert trace.final_confusion.fp == 0


@pytest.mark.parametrize("mode", ["imids", "imids-no-sectors", "itids"])
def test_a_dead_sink_accepts_nothing(mode):
    # a sink this frail dies during round 10, before the ladder reaches it
    raw = json.loads(STOCK_CONFIG.read_text())
    raw.update(mode=mode, rounds=12)
    raw["deployment"]["sink_initial_energy"] = 0.004
    sim = engine.initialize(parse_config(raw))
    ran_dead = []

    def guarded(phase, r):
        dead = not is_alive(sim.sink)
        logged = len(sim.ledgers.sn_log)
        phase(r)
        if dead:
            ran_dead.append(phase.__name__)
            assert len(sim.ledgers.sn_log) == logged, f"{phase.__name__} in round {r}"

    wrap_phases(sim, guarded)
    for _ in range(12):
        sim.run_round()
    assert {"_sink_stage", "_forward_received"} & set(ran_dead)


# sha256 of the metrics rows, the four delivery and verdict logs and the
# quarantine map of the stock scenario cut to 60 rounds, with a 1 J sink,
# 0.02 J checks and the set-up coordinators 10 and 16 attacking from round 0.
SPENT_SINK = "8324be4d926e09a017376f6a72c59f6290f25dcad4250b44c64a52271042ad7d"


def test_a_sink_with_its_budget_spent_validates_nothing_more():
    raw = json.loads(STOCK_CONFIG.read_text())
    raw["rounds"] = 60
    del raw["attack"]["attacker_count"]
    raw["attack"].update(start_round=0, attacker_ids=[10, 16])
    raw["deployment"]["sink_initial_energy"] = 1.0
    raw["energy"] = {"e_detect": 0.02}
    sim = engine.initialize(parse_config(raw))
    assert {10, 16} <= {c.coordinator for c in sim.clusters}
    sink, hop = sim.sink, sim._hop
    blind_deliveries = []  # rounds in which a coordinator reached a sink whose IDS is off

    def watched_hop(src, dst, bits, filtered=False):
        received = hop(src, dst, bits, filtered)
        if received and dst is sink and not sink.energy.detection_enabled:
            if src.id in {c.coordinator for c in sim.clusters}:
                blind_deliveries.append(sim.round)
        return received

    sim._hop = watched_hop
    reports = [sim.run_round() for _ in range(60)]
    assert blind_deliveries and min(blind_deliveries) < 59
    h = hashlib.sha256()
    for report in reports:
        h.update(_metrics_row(report).encode())
    ledgers = sim.ledgers
    for log in (ledgers.valid_log, ledgers.sn_log, ledgers.forwarding_log, ledgers.decision_log):
        h.update(repr(log).encode())
    h.update(repr(sorted(ledgers.quarantined.items())).encode())
    assert h.hexdigest() == SPENT_SINK


def sweep_events(sim):
    """Run one reconfiguration sweep outside a round; return its events."""
    sim._reconfigurations = []
    sim._reconfiguration_sweep(sim.round)
    return sim._reconfigurations


# seed 7: the failed monitors were the cluster's only spare leaders; seed 24:
# another leader is left to take over
@pytest.mark.parametrize("seed, replaced", [(7, False), (24, True)])
def test_a_sector_whose_monitors_all_fail_elects_usable_ones(seed, replaced):
    sim = engine.initialize(scenario(seed=seed, rounds=1))
    cluster = next(c for c in sim.clusters if c.sectors and c.sectors[0].monitors)
    sector = cluster.sectors[0]
    failed = set(sector.monitors)
    assert not failed & {cluster.coordinator, sector.coordinator}
    for monitor_id in failed:  # spent, as `charge_detection` leaves a monitor
        account = sim.by_id[monitor_id].energy
        account.detection_budget, account.detection_enabled = 0.0, False
    assert not any(map(sim._role_failed, (cluster.coordinator, sector.coordinator)))
    assert sector.fsh is not None and is_alive(sim.by_id[sector.fsh])
    assert sweep_events(sim)[0] == Event(Change.MONITORS_FAILED, cluster.id, sector.coordinator)
    for rebuilt in cluster.sectors:
        assert not any(map(sim._role_failed, rebuilt.monitors))
    assert any(rebuilt.monitors for rebuilt in cluster.sectors) == replaced


def test_a_sector_coordinator_whose_detection_budget_is_spent_fails():
    """The third way a detection role fails, besides death and quarantine:
    a sector coordinator whose costly checks drain its reserve below the
    floor turns its IDS off, and the sweep reports it failed."""
    raw = json.loads(STOCK_CONFIG.with_name("false_alarm.json").read_text())
    raw["energy"] = {"e_detect": 1e-3, "dp_min_threshold": 0.5}
    sim = engine.initialize(parse_config(raw))
    check_cluster = sim._check_cluster
    spent = []

    def checked(cluster):
        event = check_cluster(cluster)
        if event is not None and event.kind is Change.SECTOR_COORDINATOR_FAILED:
            sc = sim.by_id[event.node]
            if is_alive(sc) and event.node not in sim.ledgers.quarantined:
                assert not sc.energy.detection_enabled
                spent.append(event)
        return event

    sim._check_cluster = checked
    reports = [sim.run_round() for _ in range(sim.config.rounds)]
    assert spent
    events = [e for report in reports for e in report.reconfigurations]
    assert all(event in events for event in spent)


@pytest.mark.parametrize("mode", ("imids", "imids-no-sectors"))
def test_a_failed_coordinator_is_reported_then_its_successor(mode):
    sim = engine.initialize(scenario(mode=mode, rounds=1))
    cluster = next(c for c in sim.clusters if c.members)
    failed = cluster.coordinator
    sim.by_id[failed].energy.residual_energy = 0.0
    events = sweep_events(sim)
    assert cluster.coordinator != failed
    mine = [e for e in events if e.cluster == cluster.id]
    assert mine[:2] == [
        Event(Change.COORDINATOR_FAILED, cluster.id, failed),
        Event(Change.COORDINATOR_CHANGED, cluster.id, cluster.coordinator),
    ]
    for event in events:  # whoever was stranded names its new cluster
        if event.kind is Change.ADOPTED:
            assert sim._cluster_index[event.node].id == event.cluster


def test_an_orphan_in_range_of_a_coordinator_is_adopted():
    sim = engine.initialize(scenario(mode="imids-no-sectors", rounds=1))
    cluster = next(c for c in sim.clusters if c.members)
    orphan = min(cluster.members)
    cluster.members.discard(orphan)
    sim.orphans.add(orphan)
    sim._build_structures([], {cluster.id})
    assert orphan not in sim._cluster_index
    events = sweep_events(sim)
    adopter = sim._cluster_index[orphan]
    assert orphan in adopter.members and not sim.orphans
    assert Event(Change.ADOPTED, adopter.id, orphan) in events


def test_a_flooding_leaf_is_screened_by_its_sector_coordinator_but_never_aggregated():
    """A flooding sector leaf's packets carry invalid tokens: they land in
    its sector coordinator's inbox and count toward that watcher's
    screening, but the sector's aggregate takes only valid tokens, so the
    leaf is never one of its `sources` and never validated upstream."""
    sim = engine.initialize(scenario(attack=ATTACK))
    (attacker,) = sim.attackers
    assert sim.by_id[attacker].role is Role.LN
    assert sim.by_id[sim.parent[attacker]].role is Role.SC
    screened, aggregated = [], []
    packet = sim._packet

    def recorded(src, dst, slot, bits, valid, sources=()):
        if slot == engine.AGGREGATE_SLOT:
            aggregated.append(sources)
        return packet(src, dst, slot, bits, valid, sources)

    def probed(phase, r):
        phase(r)
        sc = sim.parent.get(attacker)  # none once quarantine drops it from the roster
        if phase.__name__ == "_sids_stage" and sc is not None and sim._usable_judge(sc):
            flood = [p for p in sim._inbox.get(sc, ()) if p.src == attacker]
            if flood:
                assert not any(p.token.valid for p in flood)
                assert sim._obs[(sc, attacker)].packets_to_watcher == len(flood)
                screened.append(len(flood))

    sim._packet = recorded
    wrap_phases(sim, probed)
    for _ in range(sim.config.rounds):
        sim.run_round()
    assert screened and max(screened) > 1  # the flood reached the watcher's count
    assert aggregated and any(aggregated)  # sectors did aggregate their leaves
    assert not any(attacker in sources for sources in aggregated)
    assert attacker not in {src for _, src in sim.ledgers.valid_log}


def test_a_flooding_attacker_trips_the_energy_rate_rule(monkeypatch):
    """A watcher estimates a subject's spend from what it overhears: the
    link price of each transmission. An honest leaf sends once a round to
    its parent, so it shows exactly that one price, under the allowance;
    the flooder's fake packets add up past `rate_threshold` times the
    allowance, and it is struck for `ENERGY_RATE`."""
    sim = engine.initialize(scenario(attack=ATTACK))
    (attacker,) = sim.attackers
    bits = sim.config.traffic.data_bits
    limit = sim.config.detection.rate_threshold * sim.profile.expected_energy_rate
    flooded, honest = [], 0
    sids_check = ids.sids_check

    def recording(watcher, screen, *args):
        nonlocal honest
        for subject, seen in screen:
            if seen is None or subject.id in sim.ledgers.quarantined:
                continue
            if subject.id == attacker:
                flooded.append(seen.energy_spent)
            else:  # overheard, so it sent
                parent = sim.by_id[sim.parent[subject.id]]
                assert seen.energy_spent == sim._link_price(subject, parent, bits)
                assert seen.energy_spent < limit
                honest += 1
        sids_check(watcher, screen, *args)

    monkeypatch.setattr(ids, "sids_check", recording)
    for _ in range(sim.config.rounds):
        sim.run_round()
    assert honest and flooded and max(flooded) > limit
    assert ids.Reason.ENERGY_RATE in sim.ledgers.suspected[attacker].reasons
    assert attacker in sim.ledgers.quarantined
    assert all(ids.Reason.ENERGY_RATE not in entry.reasons
               for node, entry in sim.ledgers.suspected.items() if node != attacker)


@pytest.mark.parametrize("mode", MODES)
def test_only_attack_packets_raise_the_observation_flags(mode):
    """`_overhear` flags a transmission off-slot or forged as it is heard. A
    leaf's uplink goes out in its own slot under a valid token, so a subject
    that sent only its uplink shows neither flag; an active attacker sends
    no uplink and every attack packet bears an invalid token, so every
    watcher that heard one shows `forged`. Stock scenario, attack from round 0."""
    raw = json.loads(STOCK_CONFIG.read_text())
    raw["mode"] = mode
    raw["attack"]["start_round"] = 0
    sim = engine.initialize(parse_config(raw))
    uplink_only, attacked = [], []

    def probed(phase, r):
        phase(r)
        if phase.__name__ != "_run_slots":
            return
        sent = [pkt for packets in sim._attack_packets.values() for pkt in packets]
        assert not any(pkt.token.valid for pkt in sent)
        attack_sources = {pkt.src for pkt in sent}
        assert attack_sources <= sim._attacking
        for (_watcher, subject), seen in sim._obs.items():
            if subject in attack_sources:
                attacked.append(seen)
            else:
                uplink_only.append(seen)

    wrap_phases(sim, probed)
    while sim.round < sim.config.rounds and sim.alive_non_sink():
        sim.run_round()
    assert uplink_only and attacked
    assert not any(seen.off_slot or seen.forged for seen in uplink_only)
    assert all(seen.forged for seen in attacked)
    assert any(seen.off_slot for seen in attacked)  # fake control lands in random slots


def test_quarantined_nodes_stop_contributing():
    trace = engine.run_simulation(scenario(attack=ATTACK))
    cut = trace.ledgers.quarantined
    assert cut  # the attacker was caught
    for round_no, src in trace.ledgers.valid_log + trace.ledgers.sn_log:
        if src in cut:
            assert round_no < cut[src]


# --- mode differences -------------------------------------------------------------


def test_baseline_keeps_static_rosters():
    sim = engine.initialize(scenario(mode="itids", rounds=15))
    rosters = {cid: tuple(ids) for cid, ids in sim.monitors.items()}
    coordinators = [c.coordinator for c in sim.clusters]
    for _ in range(15):
        engine.run_round(sim)
    assert {cid: tuple(ids) for cid, ids in sim.monitors.items()} == rosters
    assert [c.coordinator for c in sim.clusters] == coordinators
    assert all(c.sectors == [] for c in sim.clusters)
    assert all(n.role is not Role.SC for n in sim.nodes)


def test_sectored_mode_builds_sectors_and_monitors():
    sim = engine.initialize(scenario(rounds=1))
    sectors = [s for c in sim.clusters for s in c.sectors]
    assert sectors
    assert any(s.monitors for s in sectors)
    trace = sim.snapshot_trace()
    assert trace.sector_count == len(sectors)
    assert trace.cluster_count == len(sim.clusters)


OPENING = ["_draw_masks", "_emit_attacks", "_run_slots", "_charge_slot_costs",
           "_inject_false_strikes"]
SECTORED_LADDER = ["_sids_stage", "_forwarding_stage", "_monitor_stage", "_sink_stage",
                   "_reconfiguration_sweep"]
PHASES = {
    "imids": OPENING + SECTORED_LADDER,
    "imids-no-sectors": OPENING + SECTORED_LADDER,
    "itids": OPENING + ["_sids_stage", "_isolate_suspects", "_forward_received"],
}


@pytest.mark.parametrize("mode", sorted(PHASES))
def test_a_round_runs_the_mode_phase_tuple_in_order(mode):
    sim = engine.initialize(scenario(mode=mode, rounds=2, attack=ATTACK))
    assert [phase.__name__ for phase in sim._phases] == PHASES[mode]
    ran = []

    def recorded(phase, r):
        ran.append((r, phase.__name__))
        phase(r)

    wrap_phases(sim, recorded)
    sim.run_round()
    sim.run_round()
    assert ran == [(r, name) for r in (0, 1) for name in PHASES[mode]]


# `__init__` looks the mode's row up in `_MODES` once; everything else reads
# the row, and the round loop runs whatever phase tuple it left behind.
MODE_READERS = {"__init__"}


# Positions never move: the round prices links through the `_link_price` memo
# and every range test asks the graph, so only the memo and adoption's choice
# of the nearest coordinator measure a distance.
GEOMETRY_READERS = {"_link_price", "_try_adopt"}

# Packet sizes are fixed by the config: set-up prices reception once per
# size, and the round only looks prices up.
RX_PRICERS = {"__init__"}


# One clamp: `energy.consume` is the package's only write of residual
# energy. `core.EnergyAccount` declares the field and writes nothing.
ENERGY_WRITERS = {("energy.py", "consume")}
FIELD_DECLARATION = ("core.py", "EnergyAccount")


def _readers(attr, node, scope="<module>", ctx=ast.expr_context):
    """Names of the functions (or, outside one, the class) in which `node`
    reads `attr`, as an attribute or a bare name (with `ctx=ast.Store`, the
    ones that assign it)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = node.name
    named = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    if named == attr and isinstance(getattr(node, "ctx", None), ctx):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _readers(attr, child, scope, ctx)


def test_only_set_up_and_structure_code_reads_the_mode():
    readers = set(_readers("mode", ast.parse(inspect.getsource(engine))))
    assert "__init__" in readers  # the scan does see the phase choice
    assert readers <= MODE_READERS


def test_every_valid_mode_has_exactly_one_row():
    assert set(engine._MODES) == set(MODES)


def _string_constants(node) -> set:
    return {
        c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)
    }


def test_no_mode_name_is_spelled_outside_the_mode_table():
    tree = ast.parse(inspect.getsource(engine))
    (table,) = [
        n for n in tree.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["_MODES"]
    ]
    assert _string_constants(table) == set(MODES)  # the scan does see the table
    tree.body.remove(table)
    assert not _string_constants(tree) & set(MODES)


@pytest.mark.parametrize("mode", sorted(m for m, row in engine._MODES.items() if not row.sectors))
def test_a_sectorless_mode_never_forms_a_sector(mode):
    # set-up forms every cluster; this tiny arena, attacked, makes the
    # reconfiguring modes rebuild clusters again during the run
    sim = engine.initialize(tiny_arena(mode=mode, rounds=20, attack=ATTACK))
    assert all(c.sectors == [] for c in sim.clusters)
    rebuilt = []
    build = sim._build_structures

    def recorded(rebuild, *args, **kwargs):
        rebuilt.extend(rebuild)
        build(rebuild, *args, **kwargs)

    sim._build_structures = recorded
    for _ in range(20):
        engine.run_round(sim)
        assert all(c.sectors == [] for c in sim.clusters)
    assert sim.snapshot_trace().sector_count == 0
    reconfigures = engine.Simulation._reconfiguration_sweep in engine._MODES[mode].ladder
    assert bool(rebuilt) == reconfigures


def test_only_the_link_memo_and_structure_code_measure_distance():
    readers = set(_readers("distance_to", ast.parse(inspect.getsource(engine))))
    assert "_link_price" in readers  # the scan does see the memo
    assert readers <= GEOMETRY_READERS


def test_only_set_up_prices_reception():
    readers = set(_readers("rx_cost", ast.parse(inspect.getsource(engine))))
    assert "__init__" in readers  # the scan does see the pricing call
    assert readers <= RX_PRICERS


def test_only_the_charging_primitive_writes_residual_energy():
    writers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        writers.update((path.name, f) for f in _readers("residual_energy", tree, ctx=ast.Store))
    assert ("energy.py", "consume") in writers  # the scan does see the clamp's write
    augmented = ast.parse("def f(n):\n    n.energy.residual_energy -= 1")
    assert set(_readers("residual_energy", augmented, ctx=ast.Store)) == {"f"}  # and this one
    assert writers - {FIELD_DECLARATION} == ENERGY_WRITERS
    engine_reads = set(_readers("residual_energy", ast.parse(inspect.getsource(engine))))
    assert "_run_slots" in engine_reads  # liveness is read inline


def test_the_engine_never_names_is_alive():
    tree = ast.parse(inspect.getsource(engine))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update((alias.name, alias.asname))
    assert {"consume", "tx_cost", "rx_cost"} <= names  # the scan does see calls and imports
    assert "is_alive" not in names  # liveness is tested inline


# Every draw is keyed by the scenario seed: only `rng.py` builds or reseeds
# a generator or hashes seed material, and no module draws from the global
# `random` generator.
PACKAGE = Path(engine.__file__).resolve().parent
SEED_MODULES = {"random", "_random", "hashlib"}


def _seeding(tree) -> set:
    """What in `tree` builds or reseeds a generator or reaches for hashing."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("Random", "seed"):
                found.add(f"{name}(...)")
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "random":
                found.add(f"random.{name}(...)")  # the global, unkeyed generator
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name in SEED_MODULES - {"random"})
        elif isinstance(node, ast.ImportFrom) and node.module in SEED_MODULES:
            found.add(f"from {node.module} import")
        elif isinstance(node, ast.Name) and node.id == "hashlib":
            found.add("hashlib")
    return found


def test_only_rng_seeds_generators_or_hashes():
    assert {"Random(...)", "hashlib", "from _random import"} <= _seeding(
        ast.parse((PACKAGE / "rng.py").read_text())
    )  # the scan does see rng.py's own seeding
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "rng.py":
            assert not _seeding(ast.parse(path.read_text())), path.name


# An exception in the simulator core is an error, never a normal state: an
# election with no candidate returns its empty value and the sink tests its
# budget. Only the front ends, which turn bad input into exit codes, catch.
TRY_HOLDERS = {"cli.py", "config.py"}


def _has_try(tree) -> bool:
    kinds = (ast.Try, getattr(ast, "TryStar", ast.Try))  # `except*` is 3.11+
    return any(isinstance(node, kinds) for node in ast.walk(tree))


def test_only_the_front_ends_catch_exceptions():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _has_try(ast.parse(path.read_text())) == (path.name in TRY_HOLDERS), path.name


# The range rule lives in `topology.build_graph`: the engine asks the graph
# whether two nodes are in range instead of comparing against the range, and
# only `topology.py` reads a graph's private state.
def _range_comparisons(tree) -> list:
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Attribute) and n.attr == "transmission_range"
            for n in ast.walk(node)
        )
    ]


def _graph_private_reads(tree) -> set:
    """Underscore attributes read off a graph (`graph._x`, `self.graph._x`)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
            if "graph" in name:
                found.add(f"{name}.{node.attr}")
    return found


def test_the_range_rule_stays_in_the_topology_module():
    assert _range_comparisons(ast.parse("d <= self.graph.transmission_range"))  # the scan sees one
    assert not _range_comparisons(ast.parse(inspect.getsource(engine)))
    assert _graph_private_reads(ast.parse("self.graph._memo"))
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "topology.py":
            assert not _graph_private_reads(ast.parse(path.read_text())), path.name


# Delete what nothing reads: every private function of the engine is
# called, or handed on, somewhere in the engine besides its own `def`.
def test_every_private_engine_function_is_referenced():
    tree = ast.parse(inspect.getsource(engine))
    defined = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {"_add_up", "_hop", "_overhear"} <= defined  # the scan does see functions and methods
    assert defined - referenced == set()
