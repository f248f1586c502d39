"""The engine's derived structure against brute-force scans of the structure.

`_build_structures` derives each node's TDMA slot, the uplinks (`parent`),
the always-on set, node->cluster, the watch relation (screening passes and
subject->watchers), and slot->senders (leaves with an uplink) once per
structure change, from one fragment per cluster, re-derives only the
fragments of the clusters a sweep touched (or takes back one it derived
before for the same structure) and patches the maps for those alone.
After every round all of it must equal a scan of
`clusters`/`sectors`/`monitors`/`nodes` made pass by pass, the watch
relation the way each mode defines who watches whom, and a derivation
from scratch, every fragment and every remembered one dropped, must
change nothing: no role, slot, index or detection budget. Each leaf's
uplink route, built on its first send and kept by the fragment that placed
the leaf, must equal one built from the scans, every sender must read the
routes of its own cluster's placed fragment and never those of a dropped
one, and a fragment taken back brings its routes with it. The range
graph, rebuilt only when the alive count moved, must equal a fresh build
over the alive nodes whenever the sweep has refreshed it, and `capacity`
on it must equal the formula. Each attack delivery must find its victim
awake exactly as its drawn mask and the slot's earlier deliveries left it.
"""

import functools
import json
import math
import types
from collections import Counter
from pathlib import Path

import pytest

from imids_sim import attack as attack_mod
from imids_sim import engine
from imids_sim import ids
from imids_sim import topology as topo
from imids_sim.config import parse_config
from imids_sim.core import NodeClass, Packet, Role, WakeupToken, is_alive
from imids_sim.energy import tx_cost

MODES = ("imids", "imids-no-sectors", "itids")
STOCK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "stock_comparison.json"
EARLY_ATTACK = STOCK_CONFIG.with_name("early_attack.json")


def arena(seed, mode, false_strikes=()):
    # frail batteries and early flooders: deaths and quarantines within a
    # few rounds, and a reconfiguration sweep in almost every round
    raw = {
        "seed": seed,
        "rounds": 40,
        "mode": mode,
        "deployment": {
            "node_count": 24,
            "area_width": 50.0,
            "area_height": 50.0,
            "leader_fraction": 0.3,
            "leader_initial_energy": 0.02,
            "follower_initial_energy": 0.004,
        },
        "attack": {
            "attacker_count": 2,
            "fake_msgs_per_round": 3,
            "flood_packets_per_slot": 2,
            "start_round": 0,
        },
        "detection": {"injected_false_strikes": [list(s) for s in false_strikes]},
    }
    return parse_config(raw)


def scan_cluster_of(sim, node_id):
    for cluster in sim.clusters:
        if node_id == cluster.coordinator or node_id in cluster.members:
            return cluster
    return None


def scan_watchers(sim, node_id):
    """Who watches the node, in cluster-id order: its sector coordinator
    (imids), its cluster coordinator (no sectors), or every monitor of its
    cluster with a radio link to it (itids)."""
    found = []
    for cluster in sorted(sim.clusters, key=lambda c: c.id):
        if sim.config.mode == "imids":
            found += [s.coordinator for s in cluster.sectors if node_id in s.leaves]
        elif sim.config.mode == "imids-no-sectors":
            if node_id in cluster.members:
                found.append(cluster.coordinator)
        elif node_id in cluster.node_ids():
            found += [
                m for m in sim.monitors.get(cluster.id, ())
                if m != node_id and sim.graph.has_edge(m, node_id)
            ]
    return tuple(found)


def scan_screens(sim):
    """Every watcher's screening pass, watchers in cluster-id order."""
    watchers = []
    for cluster in sorted(sim.clusters, key=lambda c: c.id):
        if sim.config.mode == "imids":
            watchers += [s.coordinator for s in cluster.sectors]
        elif sim.config.mode == "imids-no-sectors":
            watchers.append(cluster.coordinator)
        else:
            watchers += sim.monitors.get(cluster.id, ())
    watched_by = {n.id: scan_watchers(sim, n.id) for n in sim.nodes}
    return [(w, tuple(n.id for n in sim.nodes if w in watched_by[n.id])) for w in watchers]


def scan_slots(sim):
    """Each cluster, in id order, numbers its sector nodes sector by sector
    (ids ascending within a sector), then its other nodes by id, modulo
    the slot count; a node outside every cluster owns `id % slots`."""
    slots = sim.config.slots_per_round
    found = {}
    for cluster in sorted(sim.clusters, key=lambda c: c.id):
        order = [m for s in cluster.sectors for m in sorted({s.coordinator, *s.leaves})]
        order += [m for m in sorted(cluster.node_ids()) if m not in order and m not in found]
        for index, node_id in enumerate(order):
            found[node_id] = index % slots
    for node in sim.nodes:
        if node.id not in found and node.node_class is not NodeClass.SINK:
            found[node.id] = node.id % slots
    return found


def scan_parent(sim):
    """Coordinators report to the sink, sector coordinators through their
    forwarding head when it is alive and in range, leaves to their sector
    coordinator, and other members to their first cluster's coordinator."""
    parent = {}
    for cluster in sorted(sim.clusters, key=lambda c: c.id):
        cc = cluster.coordinator
        parent[cc] = topo.SINK_ID
        for member in cluster.members:
            parent.setdefault(member, cc)
        for sector in cluster.sectors:
            uplink = cc
            if sector.fsh is not None:
                fsh = sim.by_id[sector.fsh]
                sc = sim.by_id[sector.coordinator]
                if is_alive(fsh) and sc.distance_to(fsh) <= sim.graph.transmission_range:
                    uplink = sector.fsh
            parent[sector.coordinator] = uplink
            for leaf in sector.leaves:
                parent[leaf] = sector.coordinator
    return parent


def scan_always_on(sim):
    """The sink, every coordinator, sector coordinator, sector monitor and
    forwarding head, and every baseline monitor."""
    found = {topo.SINK_ID}
    for cluster in sim.clusters:
        found.add(cluster.coordinator)
        for sector in cluster.sectors:
            found.update((sector.coordinator, *sector.monitors))
            if sector.fsh is not None:
                found.add(sector.fsh)
    for monitor_ids in sim.monitors.values():
        found.update(monitor_ids)
    return found


def scan_senders(sim, slot):
    """The leaves that own the slot and have an uplink, by id."""
    slots = scan_slots(sim)
    parents = scan_parent(sim)
    return [
        n.id for n in sim.nodes
        if n.node_class is NodeClass.FOLLOWER
        and n.role is Role.LN
        and slots.get(n.id) == slot
        and n.id in parents
    ]


def check_indices(sim):
    ids = [c.id for c in sim.clusters]
    assert ids == sorted(set(ids))  # strictly increasing: walks trust the order
    rosters = [m for c in sim.clusters for m in c.node_ids()]
    assert len(rosters) == len(set(rosters))  # no node in two clusters
    # the composed maps are patched fragment by fragment: no two may name a node
    named = [m for c in sim.clusters for m in sim._fragments[c.id].names()]
    assert len(named) == len(set(named))
    # each cluster remembers fragments by structure under its present roster
    # only, its own among them, and all of them share its node->cluster and
    # leaders, so a rotation leaves `_cluster_index` alone
    assert sim._memo.keys() == sim._fragments.keys() == set(ids)
    for cluster in sim.clusters:
        held = sim._fragments[cluster.id]
        assert held.cluster_of.keys() == cluster.node_ids()
        remembered = list(sim._memo[cluster.id].values())
        assert all(isinstance(f, engine._Fragment) for f in remembered)
        assert any(f is held for f in remembered)
        assert all(f.cluster_of is held.cluster_of and f.leaders is held.leaders for f in remembered)
    slots = scan_slots(sim)
    for node in sim.nodes:
        assert node.slot == slots.get(node.id)
    assert sim.parent == scan_parent(sim)
    assert sim.always_on == scan_always_on(sim)
    for node in sim.nodes:
        assert sim._cluster_index.get(node.id) is scan_cluster_of(sim, node.id)
        assert sim._watchers.get(node.id, ()) == scan_watchers(sim, node.id)
    assert composed_screens(sim) == scan_screens(sim)
    if sim.config.mode != "itids":  # one watcher per subject in the layered modes
        assert all(len(w) == 1 for w in sim._watchers.values())
    for slot in range(sim.config.slots_per_round):
        assert [n.id for n, _ in sim._slot_senders[slot]] == scan_senders(sim, slot)
    check_senders_read_placed_routes(sim)
    check_range_tests(sim)
    check_routes(sim)


def composed_screens(sim):
    """The screening passes `_sids_stage` walks: each cluster's, in order."""
    return [screen for c in sim.clusters for screen in sim._fragments[c.id].screens]


def placed_routes(sim):
    """(leaf id, route, fragment) for every route a placed fragment keeps."""
    return [
        (node_id, route, fragment)
        for fragment in map(sim._fragments.__getitem__, (c.id for c in sim.clusters))
        for node_id, route in fragment.routes.items()
    ]


def check_senders_read_placed_routes(sim):
    """Each sender reads the routes of the fragment its cluster has placed,
    the very dict, so a route built on its send stays with that fragment."""
    for senders in sim._slot_senders:
        for node, routes in senders:
            assert routes is sim._fragments[scan_cluster_of(sim, node.id).id].routes


def check_routes(sim):
    """Every route a placed fragment keeps for a live leaf against one
    built from the scans: its parent, a fresh packet, the transmit price
    bit for bit, the range test to a live parent, the live watchers in
    range in watch order (each paying rx unless it is the addressee). A
    dead leaf never sends again, and a watcher that died is skipped
    whatever its kept range test says."""
    parents = scan_parent(sim)
    slots = scan_slots(sim)
    bits = sim.config.traffic.data_bits
    has_edge = sim.graph.has_edge
    for node_id, route, fragment in placed_routes(sim):
        node = sim.by_id[node_id]
        assert node_id in fragment.order  # a fragment keeps routes of its own leaves
        if not is_alive(node):
            continue
        assert node.role is Role.LN
        parent_id = parents[node_id]  # only a leaf with an uplink sends
        parent, pkt, cost, reaches, overhearers = route
        assert parent is sim.by_id[parent_id]
        assert pkt == Packet(
            node_id, parent_id, WakeupToken(node_id, True), slots[node_id], bits
        )
        assert cost == tx_cost(sim.params, bits, node.distance_to(parent))
        if is_alive(parent):
            assert reaches == has_edge(node_id, parent_id)
        watchers = scan_watchers(sim, node_id)
        assert [
            (watcher.id, key, pays) for watcher, key, pays in overhearers if is_alive(watcher)
        ] == [
            (w, (w, node_id), w != parent_id) for w in watchers
            if is_alive(sim.by_id[w]) and has_edge(w, node_id)
        ]


def check_no_stale_routes(sim):
    """Right after a re-derivation no sender reads a dropped fragment's
    routes: every routes dict a sender holds is a placed fragment's."""
    placed = {id(f.routes) for f in sim._fragments.values()}
    assert all(id(routes) in placed for senders in sim._slot_senders for _, routes in senders)


def check_range_tests(sim):
    """A leaf's route keeps the graph's answer to whether the leaf reaches
    its parent and each watcher, and the slot loop asks the graph whether
    an attacker reaches its victim. Nodes only die, so between two
    refreshes, and in itids with no refresh at all, an edge between any two
    live nodes must still be exactly the inclusive distance test."""
    radius = sim.config.deployment.transmission_range
    alive = [n for n in sim.nodes if is_alive(n)]
    for a in alive:
        for b in alive:
            if a is not b:
                assert sim.graph.has_edge(a.id, b.id) == (a.distance_to(b) <= radius)


def check_graph(sim):
    """The graph, which the sweeps derive from the one before, against a
    fresh build (key order and neighbour sets), and `capacity` against the
    formula on this graph, bit for bit."""
    fresh = topo.build_graph(sim.nodes, sim.config.deployment.transmission_range)
    assert list(sim.graph.adjacency.items()) == list(fresh.adjacency.items())
    for node in sim.nodes:
        energy = node.energy
        assert topo.capacity(node, sim.graph) == (
            sim.graph.degree(node.id) / energy.initial_energy * energy.residual_energy
        )


def role_holders(sim):
    """Every cluster's coordinator, sector coordinators and forwarding heads."""
    for cluster in sim.clusters:
        yield cluster.coordinator
        for sector in cluster.sectors:
            yield sector.coordinator
            if sector.fsh is not None:
                yield sector.fsh


def check_sweep_left_no_quarantined_role_holder(sim):
    """After a sweep no cluster keeps a quarantined role holder: the
    forwarding stage relies on it and filters none of them."""
    held = [node_id for node_id in role_holders(sim) if node_id in sim.ledgers.quarantined]
    assert held == []


def derived_state(sim):
    return (
        sorted(sim._fragments),
        {n.id: n.role for n in sim.nodes},
        {n.id: n.slot for n in sim.nodes},
        dict(sim.parent),
        set(sim.always_on),
        composed_screens(sim),
        dict(sim._watchers),
        [[n.id for n, _ in senders] for senders in sim._slot_senders],
        {node_id: cluster.id for node_id, cluster in sim._cluster_index.items()},
        {
            n.id: (n.energy.detection_budget, n.energy.detection_budget_initial,
                   n.energy.detection_enabled)
            for n in sim.nodes
        },
    )


def check_rederivation_is_a_fixed_point(sim):
    """Drop every fragment, every remembered one and the maps composed from
    them, and derive again from scratch, every node unplaced as at set-up:
    what the sweeps derived and patched incrementally must come out
    unchanged, budgets included (a role that moved would refill one)."""
    before = derived_state(sim)
    routes = {cluster_id: dict(f.routes) for cluster_id, f in sim._fragments.items()}
    sim._forget_structures()
    assert not sim._memo and not sim.parent
    sim._build_structures([], unplaced=sim.nodes)
    assert derived_state(sim) == before
    # nothing moved, so the routes still hold: hand them to the new
    # fragments, so that later rounds check routes that outlive many sweeps
    for cluster_id, fragment in sim._fragments.items():
        assert not fragment.routes
        fragment.routes.update(routes[cluster_id])


def run_instrumented_round(sim):
    """One round with two engine steps shadowed on this instance: count
    the re-derivations and check that no sender reads routes one dropped, and
    check the graph each time the sweep refreshes it. Returns the report
    and the re-derivation calls."""
    calls = []
    build_structures = sim._build_structures
    refresh_graph = sim._refresh_graph

    def counted(*args, **kwargs):
        calls.append(kwargs)
        build_structures(*args, **kwargs)
        check_no_stale_routes(sim)

    def checked():
        refresh_graph()
        check_graph(sim)

    sim._build_structures = counted
    sim._refresh_graph = checked
    try:
        report = sim.run_round()
    finally:
        del sim._build_structures, sim._refresh_graph
    return report, calls


@pytest.mark.parametrize("mode", MODES)
def test_indices_match_scans_through_deaths_and_quarantines(mode):
    deaths = quarantines = skipped = 0
    for seed in range(6):
        sim = engine.Simulation(arena(seed, mode))
        check_indices(sim)
        check_graph(sim)
        alive_start = sim.alive_non_sink()
        for _ in range(sim.config.rounds):
            if sim.alive_non_sink() == 0:
                break
            _, calls = run_instrumented_round(sim)
            if mode != "itids":  # the baseline never sweeps
                check_sweep_left_no_quarantined_role_holder(sim)
                skipped += not calls
            check_indices(sim)
            check_rederivation_is_a_fixed_point(sim)
            check_indices(sim)
        deaths += alive_start - sim.alive_non_sink()
        quarantines += len(sim.ledgers.quarantined)
    assert deaths > 0
    if mode != "itids":  # the baseline never sweeps
        assert quarantines > 0
        assert skipped > 0  # the skip path itself was exercised


def test_one_sweep_replaces_any_quarantined_role_holder():
    """Quarantine each set-up role holder alone, then sweep once: the sweep
    replaces it (or dissolves its cluster), whichever role it held."""
    cases = Counter()
    for seed in range(6):
        for holder in set(role_holders(engine.Simulation(arena(seed, "imids")))):
            sim = engine.Simulation(arena(seed, "imids"))
            cluster = scan_cluster_of(sim, holder)
            cases["coordinator" if holder == cluster.coordinator else "sector role"] += 1
            # what `run_round` sets before its phases, then a quarantine
            sim._quarantine_mark, sim._reconfigurations = 0, []
            ids.quarantine(sim.ledgers, holder, 0)
            sim._reconfiguration_sweep(0)
            check_sweep_left_no_quarantined_role_holder(sim)
    assert cases["coordinator"] and cases["sector role"]


@pytest.mark.parametrize("mode", MODES)
def test_each_receipt_is_counted_once_and_screened_as_received(mode, monkeypatch):
    """A receipt is recorded only in `_inbox`, and screening counts a
    watcher's packets from each subject there into the observation its
    overhearing made. That holds only if every receipt by an unquarantined
    watcher of the sender was overheard too: after the slots each such
    receipt must have an overhearing observation, flagged off-slot or
    forged when a received packet was, and every count `sids_check`
    screens, the stand-in for a silent subject included, must equal the
    receipts."""
    sim = None
    screened, watched_receipts = [], []
    sids_check = ids.sids_check

    def recording(watcher, screen, *args):
        for subject, seen in screen:
            count = 0 if seen is None else seen.packets_to_watcher
            assert count == sum(1 for p in sim._inbox.get(watcher.id, ()) if p.src == subject.id)
            screened.append(count)
        sids_check(watcher, screen, *args)

    def probed(phase, r):
        phase(r)
        if phase.__name__ == "_run_slots":
            quarantined = sim.ledgers.quarantined
            for w, packets in sim._inbox.items():
                for s in {p.src for p in packets}:
                    if w in sim._watchers.get(s, ()) and w not in quarantined:
                        assert (w, s) in sim._obs
                        seen = sim._obs[(w, s)]
                        own_slot = sim.by_id[s].slot
                        from_s = [p for p in packets if p.src == s]
                        assert seen.off_slot or all(p.slot == own_slot for p in from_s)
                        assert seen.forged or all(p.token.valid for p in from_s)
                        watched_receipts.append((w, s))

    monkeypatch.setattr(ids, "sids_check", recording)
    for seed in range(6):
        sim = engine.Simulation(arena(seed, mode))
        sim._phases = tuple(functools.partial(probed, phase) for phase in sim._phases)
        for _ in range(sim.config.rounds):
            if sim.alive_non_sink() == 0:
                break
            sim.run_round()
    assert watched_receipts  # the invariant met real receipts
    if mode != "itids":  # a baseline monitor is nobody's uplink: it receives only fake control
        assert max(screened) > 1  # screening saw counts that add up


@pytest.mark.parametrize("mode", MODES)
def test_round_report_equals_fresh_counts(mode):
    """The report takes spend and the alive count in one walk and keeps
    the confusion counts until the quarantine roster grows; after every
    round both must equal a fresh count. The baseline isolates nothing in
    this arena on its own, so injected strikes grow the roster mid-run."""
    deaths = regrown = 0
    for seed in range(6):
        sim = engine.Simulation(arena(seed, mode, ((5, 3), (9, 7), (14, 12), (20, 18))))
        alive_start = sim.alive_non_sink()
        for _ in range(sim.config.rounds):
            if sim.alive_non_sink() == 0:
                break
            quarantined_before = len(sim.ledgers.quarantined)
            report = sim.run_round()
            assert report.alive_count == sim.alive_non_sink()
            fresh = ids.compute_confusion(sim.nodes, set(sim.ledgers.quarantined), sim.sink.id)
            assert (report.tp, report.fp, report.tn, report.fn) == (
                fresh.tp, fresh.fp, fresh.tn, fresh.fn
            )
            if report.round > 0 and len(sim.ledgers.quarantined) > quarantined_before:
                regrown += 1
        deaths += alive_start - sim.alive_non_sink()
    assert deaths > 0
    assert regrown > 0  # the counts had to be refreshed after the first round


@pytest.mark.parametrize("mode", ("imids", "imids-no-sectors"))
def test_dissolved_cluster_strands_a_node_nobody_adopts(mode):
    # two groups 200 m apart with a 40 m radio range: no coordinator of the
    # near group can ever adopt a node of the far one
    near = [[0, 0], [10, 0], [0, 10], [10, 10], [15, 5], [5, 15]]
    far = [[200, 0], [210, 0], [200, 10], [210, 10], [205, 5]]
    config = parse_config({
        "seed": 0,
        "rounds": 8,
        "mode": mode,
        "deployment": {
            "node_count": len(near) + len(far),
            "positions": near + far,
            "transmission_range": 40.0,
            "leader_fraction": 0.3,
        },
        "attack": {"attacker_count": 0},
    })
    sim = engine.Simulation(config)
    (far_cluster,) = [c for c in sim.clusters if c.coordinator >= len(near)]
    leaders = [
        m for m in far_cluster.node_ids()
        if sim.by_id[m].node_class is NodeClass.LEADER
    ]
    followers = sorted(far_cluster.node_ids() - set(leaders))
    assert followers
    sim.run_round()
    check_indices(sim)

    for leader in leaders:
        sim.by_id[leader].energy.residual_energy = 0.0
    report, _ = run_instrumented_round(sim)
    assert engine.Event(engine.Change.DISSOLVED, far_cluster.id, None) in report.reconfigurations
    assert far_cluster not in sim.clusters
    assert sim.orphans == set(followers)
    for node_id in followers:
        assert sim._cluster_index.get(node_id) is None
        assert node_id not in sim._watchers
    check_indices(sim)
    check_rederivation_is_a_fixed_point(sim)

    for _ in range(3):
        report, calls = run_instrumented_round(sim)
        assert all(e.kind is not engine.Change.ADOPTED for e in report.reconfigurations)
        assert sim.orphans == {f for f in followers if is_alive(sim.by_id[f])}
        if not report.reconfigurations:
            assert not calls  # still stranded, nothing changed: no re-derivation
        check_indices(sim)
        check_rederivation_is_a_fixed_point(sim)


def reference_check_cluster(sim, cluster):
    """The rotation check as a walk of the whole roster, every member asked
    `topo.cc_eligible`: the first reason the cluster must rebuild, or None."""
    by_id = sim.by_id
    quarantined = sim.ledgers.quarantined
    hysteresis = sim.config.rotation_hysteresis

    def role_failed(node_id):
        node = by_id[node_id]
        return (
            not is_alive(node) or node_id in quarantined or not node.energy.detection_enabled
        )

    if role_failed(cluster.coordinator):
        return engine.Event(engine.Change.COORDINATOR_FAILED, cluster.id, cluster.coordinator)
    capacities = [
        topo.capacity(by_id[m], sim.graph)
        for m in (cluster.coordinator, *cluster.members)
        if topo.cc_eligible(by_id[m], quarantined, sim.config.detection.reputation_min)
    ]
    best = max(capacities, default=0.0)
    if topo.capacity(by_id[cluster.coordinator], sim.graph) < hysteresis * best:
        return engine.Event(engine.Change.COORDINATOR_ROTATED, cluster.id, cluster.coordinator)
    for sector in cluster.sectors:
        if role_failed(sector.coordinator):
            return engine.Event(
                engine.Change.SECTOR_COORDINATOR_FAILED, cluster.id, sector.coordinator
            )
        fsh = sector.fsh
        if fsh is not None and (not is_alive(by_id[fsh]) or fsh in quarantined):
            return engine.Event(engine.Change.FORWARDING_HEAD_FAILED, cluster.id, fsh)
        if sector.monitors and all(role_failed(m) for m in sector.monitors):
            return engine.Event(engine.Change.MONITORS_FAILED, cluster.id, sector.coordinator)
        best = max(
            (by_id[leaf].energy.residual_energy for leaf in sector.leaves
             if leaf not in quarantined),
            default=0.0,
        )
        if by_id[sector.coordinator].energy.residual_energy < hysteresis * best:
            return engine.Event(engine.Change.SECTOR_ROTATED, cluster.id, sector.coordinator)
    return None


@pytest.mark.parametrize("mode", ("imids", "imids-no-sectors"))
def test_the_rotation_check_matches_a_walk_of_every_member(mode):
    """Before each sweep, and at each call inside it (after the sweep drops
    newly quarantined nodes from the rosters, before any re-derivation),
    the engine's check of every cluster must return what a walk of the
    whole roster returns, through deaths, quarantines and adoptions."""
    seen = Counter()
    for seed in range(6):
        sim = engine.Simulation(arena(seed, mode, ((5, 3), (9, 7), (14, 12))))
        check_cluster = sim._check_cluster

        def checked(cluster):
            event = check_cluster(cluster)
            assert event == reference_check_cluster(sim, cluster)
            seen[None if event is None else event.kind] += 1
            # a roster the sweep edited, whose fragment is not derived yet
            seen["stale"] += sim._fragments[cluster.id].cluster_of.keys() != cluster.node_ids()
            return event

        def swept(phase, r):
            if phase.__name__ == "_reconfiguration_sweep":
                for cluster in sim.clusters:
                    assert check_cluster(cluster) == reference_check_cluster(sim, cluster)
            phase(r)

        sim._check_cluster = checked
        sim._phases = tuple(functools.partial(swept, phase) for phase in sim._phases)
        alive = sim.alive_non_sink()
        for _ in range(sim.config.rounds):
            if sim.alive_non_sink() == 0:
                break
            for event in sim.run_round().reconfigurations:
                seen[event.kind] += event.kind is engine.Change.ADOPTED
        seen["deaths"] += alive - sim.alive_non_sink()
        seen["quarantines"] += len(sim.ledgers.quarantined)
    Change = engine.Change
    expected = ["deaths", "quarantines", "stale", None, Change.COORDINATOR_ROTATED, Change.ADOPTED]
    if mode == "imids":
        expected += [Change.SECTOR_ROTATED, Change.SECTOR_COORDINATOR_FAILED]
    assert all(seen[what] for what in expected), seen


def field_recipe(node_count, seed, rounds, mode="imids"):
    """The benchmark's field workload at `node_count` nodes: the stock
    scenario at the same density, attacked from round 0 by one attacker
    per 25 nodes."""
    raw = json.loads(STOCK_CONFIG.read_text())
    deployment = raw["deployment"]
    scale = math.sqrt(node_count / deployment["node_count"])
    deployment["node_count"] = node_count
    deployment["area_width"] *= scale
    deployment["area_height"] *= scale
    raw["attack"].update(attacker_count=node_count // 25, start_round=0)
    raw.update(seed=seed, rounds=rounds, mode=mode)
    return parse_config(raw)


def test_many_clusters_reuse_untouched_fragments():
    """Many clusters, so most sweeps re-derive a few fragments and keep the
    rest: after every round the indices match the scans and a derivation
    from scratch changes nothing."""
    sim = engine.Simulation(field_recipe(200, seed=42, rounds=30))
    check_indices(sim)
    partial = 0
    for _ in range(sim.config.rounds):
        kept = dict(sim._fragments)
        run_instrumented_round(sim)
        fresh = sum(1 for c in sim.clusters if sim._fragments[c.id] is not kept.get(c.id))
        if 0 < fresh < len(sim.clusters):
            partial += 1
        check_indices(sim)
        check_rederivation_is_a_fixed_point(sim)
    assert len(sim.clusters) > 10
    assert sim.ledgers.quarantined  # roster cleanup ran too
    assert partial > 0


def test_a_cluster_re_formed_as_it_was_keeps_its_fragment_but_pays_and_reports():
    """Stock seed 45, rounds 386-392: in every round clusters 3 and 4
    rotate a sector to coordinators 10 and 40 and re-form the structure
    they already had. Each keeps its fragment object, and with it every
    route, role, slot and budget of the nodes it names, yet still pays its
    formation traffic and reports the rotation. When cluster 3's roster
    changes in round 419, the fragments it remembered are forgotten."""
    raw = json.loads(STOCK_CONFIG.read_text())
    raw.update(seed=45, mode="imids")
    sim = engine.Simulation(parse_config(raw))
    for _ in range(386):
        sim.run_round()
    charge_formation = sim._charge_formation
    charged = []

    def recorded(clusters):
        charged.extend(c.id for c in clusters)
        charge_formation(clusters)

    def held(fragment):
        nodes = [sim.by_id[m] for m in sorted(fragment.names())]
        read = {n.id: routes for senders in sim._slot_senders for n, routes in senders}
        return (
            [(n.role, n.slot, n.energy.detection_budget_initial) for n in nodes],
            [read[n.id].get(n.id) if n.id in read else None for n in nodes],
        )

    sim._charge_formation = recorded
    kept_routes = 0
    for r in range(386, 393):
        kept = {cid: sim._fragments[cid] for cid in (3, 4)}
        before = {cid: held(fragment) for cid, fragment in kept.items()}
        charged.clear()
        report, calls = run_instrumented_round(sim)
        assert calls, r
        for cid, sc in ((3, 10), (4, 40)):
            assert engine.Event(engine.Change.SECTOR_ROTATED, cid, sc) in report.reconfigurations
            assert cid in charged
            assert sim._fragments[cid] is kept[cid]
            roles, routes = held(kept[cid])
            assert roles == before[cid][0]
            # a route built before the round is still the one its sender reads
            kept_routes += sum(1 for old in before[cid][1] if old)
            assert all(old is None or new is old for new, old in zip(routes, before[cid][1]))
        check_indices(sim)
    assert kept_routes
    del sim._charge_formation
    for _ in range(393, 419):
        sim.run_round()
    cluster = next(c for c in sim.clusters if c.id == 3)
    before = set(sim._fragments[3].cluster_of)
    remembered = list(sim._memo[3].values())
    assert before == cluster.node_ids() and len(remembered) > 1
    sim.run_round()
    assert sim._fragments[3].cluster_of.keys() == cluster.node_ids() != before
    assert list(sim._memo[3].values()) == [sim._fragments[3]]
    assert all(f is not sim._fragments[3] for f in remembered)
    check_indices(sim)


def test_a_recalled_fragment_brings_back_its_routes():
    """Stock seed 42 in imids: from round 213 on, sector rotations re-form
    structures that a cluster had placed before, and `_recall_fragment`
    hands those fragments back. In the round after such a recall, no live
    leaf that sent under the fragment before has its route built again:
    `_route` is called only for a leaf's first send under a fragment."""
    raw = json.loads(STOCK_CONFIG.read_text())
    raw.update(seed=42, mode="imids")
    sim = engine.Simulation(parse_config(raw))
    built = []
    route = sim._route
    recall = sim._recall_fragment
    recalled = {}  # cluster id -> the leaves a recalled fragment already routes
    held = {}

    def counted(node, slot, bits):
        built.append(node.id)
        return route(node, slot, bits)

    def watched(cluster, given_up):
        fragment = recall(cluster, given_up)
        if fragment.routes and fragment is not held.get(cluster.id):
            recalled[cluster.id] = (fragment, set(fragment.routes))
        return fragment

    sim._route, sim._recall_fragment = counted, watched
    rounds_after_recalls = reread = 0
    for _ in range(300):
        pending = dict(recalled)
        recalled.clear()
        held = dict(sim._fragments)
        built.clear()
        reading = [(n.id, routes) for senders in sim._slot_senders for n, routes in senders
                   if is_alive(n)]
        sim.run_round()
        for cluster_id, (fragment, leaves) in pending.items():
            assert held[cluster_id] is fragment
            assert not leaves.intersection(built), sim.round
            reread += sum(1 for n, routes in reading if routes is fragment.routes and n in leaves)
        rounds_after_recalls += bool(pending)
    assert rounds_after_recalls > 50 and reread > 500, (rounds_after_recalls, reread)
    check_indices(sim)


def stock_and_arenas(mode):
    """Stock seed 42 in a mode that sweeps, then the six arena seeds."""
    raw = json.loads(STOCK_CONFIG.read_text())
    raw.update(seed=42, mode=mode)
    return [parse_config(raw)] * (mode != "itids") + [arena(seed, mode) for seed in range(6)]


def run_checked(config, check):
    """Run the config to its end or to extinction, checking the simulation
    after set-up and after every round."""
    sim = engine.Simulation(config)
    check(sim)
    for _ in range(config.rounds):
        if sim.alive_non_sink() == 0:
            break
        sim.run_round()
        check(sim)


@pytest.mark.parametrize("mode", MODES)
def test_every_remembered_fragment_is_derived_from_its_key_alone(mode):
    """Each fragment a cluster remembers equals `_derive_fragment` called
    with its memo key, its roster's node->cluster and its leaders on a
    stand-in that holds only the sink, routes aside. The held fragment is
    remembered under the key of the cluster's present structure: its
    coordinator, its screens, and per sector the monitors, the forwarding
    head and whether that head is linked to the sector's coordinator."""
    derived = 0

    def check(sim):
        nonlocal derived
        stand_in = types.SimpleNamespace(sink=sim.sink)
        has_edge = sim.graph.has_edge
        for cluster in sim.clusters:
            held = sim._fragments[cluster.id]
            heads = tuple(
                (s.monitors, s.fsh, s.fsh is not None and has_edge(s.coordinator, s.fsh))
                for s in cluster.sectors
            )
            memo = sim._memo[cluster.id]
            assert memo[(cluster.coordinator, held.screens, heads)] is held
            for key, fragment in memo.items():
                again = engine.Simulation._derive_fragment(
                    stand_in, key, fragment.cluster_of, fragment.leaders
                )
                assert again._replace(routes=None) == fragment._replace(routes=None)
                derived += 1

    for config in stock_and_arenas(mode):
        run_checked(config, check)
    # 26,169, 3,862 and 287 fragments checked
    assert derived > {"imids": 20_000, "imids-no-sectors": 3_000, "itids": 250}[mode], derived


def test_every_forwarding_head_a_derivation_names_is_alive_and_unquarantined(monkeypatch):
    """The sweep re-forms a cluster whose forwarding head died or was
    quarantined before anything derives it, so a fragment's key need not
    ask whether its head is alive, only whether it is linked. Over stock
    seed 42, the six arena seeds and field-400 seed 42 in imids, the one
    mode with forwarding heads; some heads are not linked."""
    derive = engine.Simulation._derive_fragment
    linked = Counter()

    def checked(sim, key, cluster_of, leaders):
        for _, fsh, is_linked in key[2]:
            if fsh is not None:
                assert is_alive(sim.by_id[fsh]), sim.round
                assert fsh not in sim.ledgers.quarantined, sim.round
                linked[is_linked] += 1
        return derive(sim, key, cluster_of, leaders)

    monkeypatch.setattr(engine.Simulation, "_derive_fragment", checked)
    for config in [*stock_and_arenas("imids"), field_recipe(400, seed=42, rounds=150)]:
        run_checked(config, lambda sim: None)
    assert linked[True] > 900 and linked[False] > 50, linked  # 945 and 53 heads


@pytest.mark.parametrize("mode", ("imids", "imids-no-sectors"))
def test_every_live_member_sits_one_hop_from_its_coordinator(monkeypatch, mode):
    """Set-up joins a node only to a coordinator in range, a new coordinator
    keeps only the members it reaches, an adoption needs a link, and nodes
    only die: so after set-up and after every sweep each live member of a
    cluster with a live coordinator is that coordinator's graph neighbour.
    Every candidate `select_fsh` ranks is such a member, so each sits at
    hop 1 and the hop search never decides the forwarding head. Over 300
    rounds of stock seed 42 and the six arena seeds."""
    select_fsh = topo.select_fsh
    ranked = []  # how many candidates each call ranked

    def recorded(cluster, candidates, by_id, graph):
        hops = topo.hop_distances(graph, cluster.coordinator)
        assert all(hops.get(c.id) == 1 for c in candidates)
        ranked.append(len(candidates))
        return select_fsh(cluster, candidates, by_id, graph)

    def check(sim):
        nonlocal members
        for cluster in sim.clusters:
            if not is_alive(sim.by_id[cluster.coordinator]):
                continue
            for member_id in cluster.members:
                if is_alive(sim.by_id[member_id]):
                    assert sim.graph.has_edge(member_id, cluster.coordinator), sim.round
                    members += 1

    monkeypatch.setattr(topo, "select_fsh", recorded)
    raw = json.loads(STOCK_CONFIG.read_text())
    raw.update(seed=42, mode=mode, rounds=300)
    members = 0
    for config in [parse_config(raw), *(arena(seed, mode) for seed in range(6))]:
        run_checked(config, check)
    # about 21,000 live members checked in each mode; in imids 269 of 519
    # calls had candidates
    assert members > 20_000
    if mode == "imids":
        assert sum(1 for n in ranked if n) > 250
    else:
        assert not ranked  # no sectors, so no forwarding head


def test_a_leaf_out_of_range_reaches_neither_its_parent_nor_its_watcher():
    """Structure code only ever places a leaf in range of its parent and
    its watcher, so the cached range tests are exercised by hand: a leaf
    moved into the roster of a coordinator out of its range pays for its
    send, but the coordinator neither overhears nor receives it."""
    sim = engine.Simulation(field_recipe(200, seed=42, rounds=1, mode="imids-no-sectors"))
    radius = sim.config.deployment.transmission_range
    home, far, leaf_id = next(
        (home, far, m)
        for home in sim.clusters
        for m in sorted(home.members)
        if sim.by_id[m].role is Role.LN and not sim.by_id[m].malicious
        for far in sim.clusters
        if sim.by_id[m].distance_to(sim.by_id[far.coordinator]) > radius
    )
    home.members.discard(leaf_id)
    far.members.add(leaf_id)
    sim._build_structures([], {home.id, far.id})
    check_indices(sim)
    leaf = sim.by_id[leaf_id]
    assert leaf.role is Role.LN and sim.parent[leaf_id] == far.coordinator
    assert sim._watchers[leaf_id] == (far.coordinator,)
    seen = {}

    def probed(phase, r):
        charge = leaf.energy.residual_energy
        phase(r)
        if phase.__name__ == "_run_slots":
            seen.update(route=sim._fragments[far.id].routes[leaf_id], obs=set(sim._obs),
                        received={(w, p.src) for w, ps in sim._inbox.items() for p in ps},
                        paid=charge - leaf.energy.residual_energy)
            check_routes(sim)

    sim._phases = tuple(functools.partial(probed, phase) for phase in sim._phases)
    sim.run_round()
    _, _, cost, reaches, overhearers = seen["route"]
    assert not reaches and overhearers == ()
    receipt = (far.coordinator, leaf_id)
    assert receipt not in seen["obs"] and receipt not in seen["received"]
    assert seen["paid"] >= cost * (1 - 1e-12)  # the send itself was paid


def expected_mask(sim, node):
    stream = sim.rng.derive("sleep", sim.round, node.id)
    wake = [
        stream.random() >= sim.config.sleep_probability
        for _ in range(sim.config.slots_per_round)
    ]
    wake[scan_slots(sim)[node.id]] = True
    return tuple(wake)


@pytest.mark.parametrize("mode", MODES)
def test_masks_are_drawn_for_exactly_the_duty_cycled_nodes(mode):
    """Always-on nodes are awake whatever their mask says, so they get
    none; every other alive non-sink node gets its own keyed draw."""
    drawn = skipped = 0
    for seed in range(3):
        sim = engine.Simulation(arena(seed, mode))
        draw_masks = sim._phases[0]
        assert draw_masks.__name__ == "_draw_masks"

        def checked(r):
            duty_cycled = {
                n.id for n in sim.nodes
                if n.node_class is not NodeClass.SINK
                and is_alive(n)
                and n.id not in sim.always_on
            }
            draw_masks(r)
            masks = sim._masks
            assert set(masks) == duty_cycled
            for node_id, mask in masks.items():
                assert tuple(mask) == expected_mask(sim, sim.by_id[node_id])
            nonlocal drawn, skipped
            drawn += len(masks)
            skipped += sum(
                1 for n in sim.nodes
                if n.node_class is not NodeClass.SINK
                and is_alive(n)
                and n.id in sim.always_on
            )

        sim._phases = (checked, *sim._phases[1:])
        for _ in range(sim.config.rounds):
            if sim.alive_non_sink() == 0:
                break
            sim.run_round()
    assert drawn > 0 and skipped > 0


def test_a_forced_wake_keeps_its_victim_awake_for_the_rest_of_the_slot(monkeypatch):
    """Each delivery to a victim in a slot finds the victim as the drawn
    mask left it (always awake for an always-on node) unless an earlier
    delivery of that slot woke it: at most one delivery wakes the victim,
    and every later one finds it awake. Dense fake traffic over few,
    mostly sleeping slots makes a woken victim be hit again in the slot,
    which no bundled run does."""
    deprive = attack_mod.apply_deprivation
    hits = {}  # (mode, round, victim, slot) -> [drawn bit, (awake, woken) of each delivery]
    sim = None

    def recorded(victim, packet, awake, params, filtered=False):
        result = deprive(victim, packet, awake, params, filtered)
        key = (sim.config.mode, sim.round, victim.id, packet.slot)
        if key not in hits:
            drawn = victim.id in sim.always_on or expected_mask(sim, victim)[packet.slot]
            hits[key] = [drawn]
        hits[key].append((awake, result.woken))
        return result

    monkeypatch.setattr(attack_mod, "apply_deprivation", recorded)
    raw = json.loads(EARLY_ATTACK.read_text())
    raw.update(rounds=30, slots_per_round=4, sleep_probability=0.9)
    raw["attack"]["fake_msgs_per_round"] = 40
    for mode in MODES:
        sim = engine.Simulation(parse_config(dict(raw, mode=mode)))
        for _ in range(sim.config.rounds):
            if sim.alive_non_sink() == 0:
                break
            sim.run_round()
    hit_after_waking = Counter()
    for (mode, *_), (drawn, *deliveries) in hits.items():
        assert deliveries[0][0] == drawn
        woken = [i for i, (_, wakes) in enumerate(deliveries) if wakes]
        assert len(woken) <= 1
        if woken:
            later = deliveries[woken[0] + 1:]
            assert all(awake for awake, _ in later)
            hit_after_waking[mode] += bool(later)
    # 2,694 first deliveries; a woken victim is hit again in 5 slots in
    # imids and 4 without sectors (none in itids)
    assert hit_after_waking["imids"] and hit_after_waking["imids-no-sectors"]
