import math
import random
import re
from collections import Counter, deque

import pytest

from imids_sim import topology as topo
from imids_sim.config import DeploymentConfig
from imids_sim.core import NodeClass, Role, is_alive
from imids_sim.rng import SeededRng

from conftest import build_node, build_sink


def _graph(nodes, rng_range=40.0):
    return topo.build_graph(nodes, rng_range)


def _by_id(nodes):
    return {n.id: n for n in nodes}


def _budgets(candidates):
    """Each candidate's budget, priced as the engine prices a cluster's."""
    return list(map(topo.prospective_detection_budget, candidates))


# --- deployment -------------------------------------------------------------


def test_deploy_is_deterministic_and_sink_first():
    dep = DeploymentConfig(node_count=30)
    a = topo.deploy(dep, SeededRng(5))
    b = topo.deploy(dep, SeededRng(5))
    assert [n.id for n in a] == list(range(30))
    assert a[0].node_class is NodeClass.SINK
    assert [(n.position.x, n.position.y) for n in a] == [
        (n.position.x, n.position.y) for n in b
    ]
    assert [n.node_class for n in a] == [n.node_class for n in b]


def test_deploy_leader_count_follows_fraction():
    dep = DeploymentConfig(node_count=41, leader_fraction=0.2)
    nodes = topo.deploy(dep, SeededRng(1))
    leaders = [n for n in nodes if n.node_class is NodeClass.LEADER]
    assert len(leaders) == round(0.2 * 40)
    assert all(n.energy.initial_energy == dep.leader_initial_energy for n in leaders)


def test_deploy_positions_inside_area():
    dep = DeploymentConfig(node_count=50, area_width=30.0, area_height=60.0)
    for node in topo.deploy(dep, SeededRng(3)):
        assert 0.0 <= node.position.x <= 30.0
        assert 0.0 <= node.position.y <= 60.0


# --- range graph -------------------------------------------------------------


def test_graph_edges_symmetric_inclusive_and_alive_only():
    nodes = [
        build_sink(),
        build_node(1, 0, 0),
        build_node(2, 0, 40),   # exactly at range: edge exists
        build_node(3, 0, 40.1),
        build_node(4, 10, 0, energy=0.0),
    ]
    nodes[4].energy.residual_energy = 0.0
    g = _graph(nodes)
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)  # 40.1 m, just past the range
    assert not g.has_edge(1, 4)  # dead node has no edges
    assert g.degree(4) == 0


def test_a_derived_graph_equals_a_full_build_through_deaths():
    """`build_graph(nodes, r, previous)` drops the nodes that died from
    `previous` instead of re-testing every pair. Over seeded death
    sequences it must answer exactly what a full build answers (key order,
    neighbour sets, degrees, capacities), leave `previous` as it was, and
    share every set that no death touched."""
    rng = random.Random(1717)
    cases = Counter()
    for _ in range(60):
        nodes = _grid_instance(rng)
        ids = range(len(nodes) + 1)  # plus one id that was never deployed
        graph = topo.build_graph(nodes, GRID_RANGE)
        while len(alive := [n for n in nodes if is_alive(n)]) > 1:
            for node in alive:  # a memo the derived graph must not inherit
                topo.capacity(node, graph)
            sets = {a: set(neighbors) for a, neighbors in graph.adjacency.items()}
            dying = rng.sample(alive, min(len(alive), rng.choice((1, 1, 2, 3))))
            for node in dying:
                node.energy.residual_energy = 0.0

            derived = topo.build_graph(nodes, GRID_RANGE, graph)
            full = topo.build_graph(nodes, GRID_RANGE)
            assert list(derived.adjacency.items()) == list(full.adjacency.items())
            assert [derived.degree(i) for i in ids] == [full.degree(i) for i in ids]
            for node in nodes:
                if is_alive(node):
                    assert topo.capacity(node, derived) == topo.capacity(node, full)
            assert list(graph.adjacency.items()) == list(sets.items())
            touched = set().union(*(sets[n.id] for n in dying))
            for a in derived.adjacency.keys() - touched:
                assert derived.adjacency[a] is graph.adjacency[a]

            cases["several at once"] += len(dying) > 1
            cases["lost every neighbour"] += any(
                sets[a] and not derived.degree(a) for a in derived.adjacency
            )
            cases["isolated node died"] += any(not sets[n.id] for n in dying)
            graph = derived
    assert set(+cases) == {"several at once", "lost every neighbour", "isolated node died"}, cases


def test_a_graph_is_not_derived_from_another_range_or_a_revived_node():
    """Deriving drops the dead and tests no pair, so it holds only for the
    same range and for nodes that only die; anything else is refused
    rather than answered with a graph a full build would not give."""
    nodes = [build_sink(), build_node(1, 0, 0), build_node(2, 0, 30), build_node(3, 0, 60)]
    nodes[3].energy.residual_energy = 0.0
    graph = _graph(nodes)
    with pytest.raises(ValueError, match="same range"):
        topo.build_graph(nodes, 50.0, graph)
    nodes[3].energy.residual_energy = 1.0
    with pytest.raises(ValueError, match="every live node"):
        topo.build_graph(nodes, 40.0, graph)
    nodes[3].energy.residual_energy = 0.0
    nodes[1].energy.residual_energy = 0.0
    derived = topo.build_graph(nodes, 40.0, graph)
    assert list(derived.adjacency.items()) == list(_graph(nodes).adjacency.items())


# --- coordinator election vs brute-force oracle ------------------------------


def _oracle_election(nodes, graph, reputation_min=8):
    """Independent restatement of the election rule: repeatedly pick the
    eligible leader with the highest connectivity-weighted residual charge
    whose disk still claims an uncovered node; break ties by distance to
    the sink, then id."""
    by_id = {n.id: n for n in nodes}
    sink = by_id[topo.SINK_ID]
    uncovered = {
        n.id for n in nodes if is_alive(n) and n.node_class is not NodeClass.SINK
    }
    chosen = []
    while uncovered:
        ranked = []
        for n in nodes:
            if n.node_class is not NodeClass.LEADER or not is_alive(n):
                continue
            if n.trust < reputation_min or n.id in chosen:
                continue
            disk = {n.id} | set(graph.neighbors(n.id))
            if not disk & uncovered:
                continue
            cap = (
                graph.degree(n.id)
                * n.energy.residual_energy
                / n.energy.initial_energy
            )
            ranked.append((-cap, n.distance_to(sink), n.id, disk))
        if not ranked:
            raise topo.CoverageFailure("oracle: uncoverable")
        ranked.sort(key=lambda item: item[:3])
        _, _, winner, disk = ranked[0]
        chosen.append(winner)
        uncovered -= disk
    return chosen


def _random_instance(rng):
    count = rng.randint(4, 10)
    nodes = [build_sink(rng.uniform(0, 50), rng.uniform(0, 50))]
    for i in range(1, count):
        if rng.random() < 0.5:
            node = build_node(
                i, rng.uniform(0, 50), rng.uniform(0, 50),
                energy=rng.uniform(1.0, 2.0), node_class=NodeClass.LEADER,
                role=Role.SM,
            )
            node.energy.residual_energy = rng.uniform(0.3, 1.0) * node.energy.initial_energy
        else:
            node = build_node(
                i, rng.uniform(0, 50), rng.uniform(0, 50),
                energy=rng.uniform(0.1, 0.3),
            )
        nodes.append(node)
    return nodes


def test_election_matches_oracle_on_random_instances():
    rng = random.Random(2024)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        nodes = _random_instance(rng)
        graph = _graph(nodes, rng_range=35.0)
        try:
            expected = _oracle_election(nodes, graph)
        except topo.CoverageFailure:
            with pytest.raises(topo.CoverageFailure):
                topo.select_cluster_coordinators(nodes, graph)
            continue
        assert topo.select_cluster_coordinators(nodes, graph) == expected
        checked += 1
    assert checked == 50


def test_election_tie_breaks_by_sink_distance_then_id():
    # two identical leaders; 2 is closer to the sink and must win
    nodes = [
        build_sink(0, 0),
        build_node(1, 0, 30, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 0, 20, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(3, 0, 25, energy=0.2),
    ]
    g = _graph(nodes)
    assert topo.select_cluster_coordinators(nodes, g)[0] == 2


def test_election_skips_distrusted_leaders():
    nodes = [
        build_sink(0, 0),
        build_node(1, 0, 10, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 0, 12, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(3, 0, 15, energy=0.2),
    ]
    nodes[1].trust = 5
    g = _graph(nodes)
    assert 1 not in topo.select_cluster_coordinators(nodes, g)


# --- cluster membership -------------------------------------------------------


def test_form_clusters_nearest_coordinator_wins(rng):
    nodes = [
        build_sink(0, 0),
        build_node(1, 10, 10, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 40, 10, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(3, 14, 10, energy=0.2),
        build_node(4, 38, 10, energy=0.2),
    ]
    g = _graph(nodes)
    clusters = topo.form_clusters(nodes, [1, 2], g, rng)
    members = {c.coordinator: c.members for c in clusters}
    assert members[1] == {3}
    assert members[2] == {4}


def test_form_clusters_unreachable_node_raises(rng):
    nodes = [
        build_sink(0, 0),
        build_node(1, 0, 10, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 0, 90, energy=0.2),
    ]
    g = _graph(nodes)
    with pytest.raises(topo.UnreachableNode):
        topo.form_clusters(nodes, [1], g, rng)


def test_form_clusters_exact_tie_uses_rng_deterministically():
    nodes = [
        build_sink(0, 0),
        build_node(1, 10, 0, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 30, 0, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(3, 20, 0, energy=0.2),  # equidistant from both
    ]
    g = _graph(nodes)
    pick = lambda seed: next(
        c.coordinator
        for c in topo.form_clusters(nodes, [1, 2], g, random.Random(seed))
        if 3 in c.members
    )
    assert pick(3) == pick(3)
    assert {pick(s) for s in range(12)} == {1, 2}  # both outcomes reachable


# --- sectors ------------------------------------------------------------------


def _cluster_fixture():
    nodes = [
        build_sink(0, 0),
        build_node(1, 50, 50, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 40, 50, energy=0.20),
        build_node(3, 42, 50, energy=0.19),
        build_node(4, 60, 50, energy=0.18),
        build_node(5, 62, 50, energy=0.17),
        build_node(6, 44, 50, energy=0.16),
    ]
    cluster = topo.Cluster(id=0, coordinator=1, members={2, 3, 4, 5, 6})
    return nodes, cluster


def test_sectors_partition_alive_followers():
    nodes, cluster = _cluster_fixture()
    g = _graph(nodes)
    sectors = topo.form_sectors(cluster, _by_id(nodes), g)
    seen = set()
    for sector in sectors:
        ids = {sector.coordinator, *sector.leaves}
        assert not ids & seen  # disjoint
        seen |= ids
    assert seen == {2, 3, 4, 5, 6}


def test_sector_coordinator_is_highest_residual_seed():
    nodes, cluster = _cluster_fixture()
    g = _graph(nodes)
    sectors = topo.form_sectors(cluster, _by_id(nodes), g)
    assert sectors[0].coordinator == 2  # highest residual follower seeds first


def test_leaves_join_nearest_coordinator():
    nodes, cluster = _cluster_fixture()
    g = _graph(nodes)
    sectors = topo.form_sectors(cluster, _by_id(nodes), g)
    by_sc = {s.coordinator: s.leaves for s in sectors}
    # node 5 at x=62 sits far from seed 2 (x=40); it must end up with a
    # coordinator that is nearer than 2, never pulled into 2's sector
    home = next(sc for sc, leaves in by_sc.items() if 5 in leaves or sc == 5)
    by_id = {n.id: n for n in nodes}
    d_home = by_id[5].distance_to(by_id[home])
    assert d_home <= by_id[5].distance_to(by_id[2])


def test_quarantined_follower_never_coordinates():
    nodes, cluster = _cluster_fixture()
    g = _graph(nodes)
    sectors = topo.form_sectors(cluster, _by_id(nodes), g, quarantined={2})
    assert all(s.coordinator != 2 for s in sectors)
    assert any(2 in s.leaves for s in sectors)  # still joins as a leaf


def test_all_quarantined_yields_no_sectors():
    nodes, cluster = _cluster_fixture()
    g = _graph(nodes)
    assert topo.form_sectors(cluster, _by_id(nodes), g, quarantined={2, 3, 4, 5, 6}) == []


# --- monitors and forwarding heads ---------------------------------------------


def _leader_cluster():
    nodes = [
        build_sink(0, 0),
        build_node(1, 50, 50, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 55, 50, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(3, 45, 50, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(4, 52, 50, energy=0.2),
        build_node(5, 53, 50, energy=0.2),
    ]
    cluster = topo.Cluster(id=0, coordinator=1, members={2, 3, 4, 5})
    g = _graph(nodes)
    sectors = topo.form_sectors(cluster, _by_id(nodes), g)
    cluster.sectors = sectors
    return nodes, cluster, g, sectors


def test_monitor_excludes_coordinator_and_needs_leaders():
    nodes, cluster, g, sectors = _leader_cluster()
    candidates = topo.monitor_candidates(cluster, _by_id(nodes))
    monitors = topo.select_sector_monitor(sectors[0], candidates, g, _budgets(candidates))
    assert monitors
    assert cluster.coordinator not in monitors
    assert all(
        next(n for n in nodes if n.id == m).node_class is NodeClass.LEADER
        for m in monitors
    )


def test_monitor_unavailable_without_spare_leaders():
    nodes = [
        build_sink(0, 0),
        build_node(1, 50, 50, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 52, 50, energy=0.2),
    ]
    cluster = topo.Cluster(id=0, coordinator=1, members={2})
    g = _graph(nodes)
    sectors = topo.form_sectors(cluster, _by_id(nodes), g)
    candidates = topo.monitor_candidates(cluster, _by_id(nodes))
    assert candidates == []
    assert topo.select_sector_monitor(sectors[0], candidates, g, _budgets(candidates)) == ()
    assert topo.select_fsh(cluster, candidates, _by_id(nodes), g) is None


def test_fsh_minimizes_hops_to_coordinator():
    nodes, cluster, g, sectors = _leader_cluster()
    by_id = _by_id(nodes)
    fsh = topo.select_fsh(cluster, topo.monitor_candidates(cluster, by_id), by_id, g)
    assert fsh in {2, 3}  # a spare leader, one hop from the coordinator


def _oracle_hops(g, source):
    """Plain BFS, written separately."""
    expected = {source: 0}
    frontier = deque([source])
    while frontier:
        cur = frontier.popleft()
        for nxt in g.neighbors(cur):
            if nxt not in expected:
                expected[nxt] = expected[cur] + 1
                frontier.append(nxt)
    return expected


def _random_field(rng, leader_share=0.0):
    nodes = [build_sink(rng.uniform(0, 60), rng.uniform(0, 60))]
    for i in range(1, rng.randint(5, 14)):
        leader = rng.random() < leader_share
        nodes.append(
            build_node(
                i, rng.uniform(0, 60), rng.uniform(0, 60),
                energy=rng.choice((1.0, 2.0)) if leader else 0.2,
                node_class=NodeClass.LEADER if leader else NodeClass.FOLLOWER,
            )
        )
    return nodes


def test_hop_distances_match_bfs_oracle():
    rng = random.Random(99)
    cut_short = 0
    for _ in range(60):
        nodes = _random_field(rng)
        g = _graph(nodes, rng_range=25.0)
        full = _oracle_hops(g, 0)
        assert topo.hop_distances(g, 0) == full
        # with targets: the full search cut after the first level holding one
        targets = set(rng.sample(range(1, len(nodes)), rng.randint(1, 3)))
        reached = [full[t] for t in targets if t in full]
        cut = min(reached) if reached else max(full.values())
        expected = {n: d for n, d in full.items() if d <= cut}
        assert topo.hop_distances(g, 0, stop_at=targets) == expected
        cut_short += expected != full
    assert cut_short > 0


def test_fsh_matches_bruteforce_over_full_bfs():
    rng = random.Random(7)
    checked = 0
    for _ in range(80):
        nodes = _random_field(rng, leader_share=0.5)
        by_id = _by_id(nodes)
        leaders = [n.id for n in nodes if n.node_class is NodeClass.LEADER]
        if len(leaders) < 2:
            continue
        cc = rng.choice(leaders)
        cluster = topo.Cluster(
            id=0, coordinator=cc, members={n.id for n in nodes[1:]} - {cc}
        )
        quarantined = set(rng.sample(sorted(cluster.members), 1))
        for node in nodes[1:]:
            if rng.random() < 0.1:
                node.energy.residual_energy = 0.0
        g = _graph(nodes, rng_range=25.0)
        hops = _oracle_hops(g, cc)
        candidates = [
            m for m in cluster.members
            if by_id[m].node_class is NodeClass.LEADER
            and is_alive(by_id[m])
            and m not in quarantined
        ]
        spare = topo.monitor_candidates(cluster, by_id, quarantined)
        assert [n.id for n in spare] == sorted(candidates)
        if not candidates:
            assert topo.select_fsh(cluster, spare, by_id, g) is None
            continue
        want = min(
            candidates,
            key=lambda m: (
                hops.get(m, float("inf")), by_id[m].distance_to(by_id[cc]), m
            ),
        )
        assert topo.select_fsh(cluster, spare, by_id, g) == want
        checked += 1
    assert checked > 20


def test_has_edge_agrees_with_adjacency_lists():
    rng = random.Random(3)
    for _ in range(20):
        nodes = _random_field(rng)
        nodes[-1].energy.residual_energy = 0.0  # dead: in no list
        g = _graph(nodes, rng_range=25.0)
        ids = range(len(nodes) + 1)  # one id that was never deployed
        for a in ids:
            for b in ids:
                assert g.has_edge(a, b) == (b in g.neighbors(a))


# --- one-pass builders vs the re-ranking bodies they replaced -----------------
#
# Verbatim copies of the five builders as they were before each election
# ranked its candidates once and each pair distance was measured once. The
# rewritten functions must return exactly what these return, and leave the
# join stream in the same state. `_oracle_election` above restates capacity
# in another float order, so it could not see a near-tie rank flip; these
# copies call the same `cc_rank`.


def _reference_build_graph(nodes, transmission_range):
    if transmission_range <= 0:
        raise ValueError("transmission range must be positive")
    alive = [n for n in nodes if is_alive(n)]
    adjacency = {n.id: set() for n in alive}
    for i, a in enumerate(alive):
        position = a.position
        for b in alive[i + 1:]:
            if position.distance_to(b.position) <= transmission_range:
                adjacency[a.id].add(b.id)
                adjacency[b.id].add(a.id)
    return topo.TransmissionGraph(transmission_range=transmission_range, adjacency=adjacency)


def _reference_select_cluster_coordinators(
    nodes, graph, reputation_min=8, quarantined=frozenset()
):
    by_id = {n.id: n for n in nodes}
    sink = by_id[topo.SINK_ID]
    uncovered = {n.id for n in nodes if is_alive(n) and n.node_class is not NodeClass.SINK}
    eligible = [n for n in nodes if topo.cc_eligible(n, quarantined, reputation_min)]
    coordinators = []
    while uncovered:
        best = None
        best_key = None
        for node in eligible:
            if node.id in coordinators:
                continue
            claims = {node.id} | set(graph.neighbors(node.id))
            if not claims & uncovered:
                continue
            key = topo.cc_rank(node, graph, sink)
            if best is None or key < best_key:
                best = node
                best_key = key
        if best is None:
            raise topo.CoverageFailure(f"uncoverable nodes remain: {sorted(uncovered)}")
        coordinators.append(best.id)
        uncovered -= {best.id} | set(graph.neighbors(best.id))
    return coordinators


def _reference_form_clusters(nodes, coordinator_ids, graph, rng):
    by_id = {n.id: n for n in nodes}
    clusters = [
        topo.Cluster(id=idx, coordinator=cc) for idx, cc in enumerate(sorted(coordinator_ids))
    ]
    slot_of = {c.coordinator: c for c in clusters}
    for node in nodes:
        if not is_alive(node) or node.node_class is NodeClass.SINK:
            continue
        if node.id in slot_of:
            continue
        in_range = [
            cc for cc in slot_of
            if is_alive(by_id[cc]) and node.distance_to(by_id[cc]) <= graph.transmission_range
        ]
        if not in_range:
            raise topo.UnreachableNode(f"node {node.id} has no coordinator in range")
        best_d = min(node.distance_to(by_id[cc]) for cc in in_range)
        tied = sorted(cc for cc in in_range if node.distance_to(by_id[cc]) == best_d)
        choice = tied[0] if len(tied) == 1 else rng.choice(tied)
        slot_of[choice].members.add(node.id)
    return clusters


def _reference_form_sectors(cluster, by_id, graph, quarantined=frozenset()):
    followers = sorted(
        m for m in cluster.node_ids()
        if by_id[m].node_class is NodeClass.FOLLOWER and is_alive(by_id[m])
    )
    unassigned = set(followers)
    tainted = set(followers) & set(quarantined)
    radius = graph.transmission_range / 2.0
    coordinators = []
    while unassigned - tainted:
        candidates = sorted(unassigned - tainted)
        sc = max(candidates, key=lambda m: (by_id[m].energy.residual_energy, -m))
        coordinators.append(sc)
        claimed = {
            m for m in unassigned
            if m == sc or by_id[sc].distance_to(by_id[m]) <= radius
        }
        unassigned -= claimed
    if not coordinators:
        return []
    sectors = {sc: topo.Sector(coordinator=sc, leaves=set()) for sc in coordinators}
    for member in followers:
        if member in sectors:
            continue
        nearest = min(
            coordinators,
            key=lambda sc: (by_id[member].distance_to(by_id[sc]), sc),
        )
        sectors[nearest].leaves.add(member)
    return [sectors[sc] for sc in coordinators]


def _reference_select_sector_monitor(sector, candidates, graph):
    if not candidates:
        return ()
    sector_ids = {sector.coordinator, *sector.leaves}
    adjacent = [
        c for c in candidates
        if any(graph.has_edge(c.id, s) for s in sector_ids)
    ]
    budgets = {c.id: topo.prospective_detection_budget(c) for c in adjacent or candidates}
    best = max(budgets.values())
    return tuple(sorted(m for m, budget in budgets.items() if budget == best))


GRID_RANGE = 20.0


def _grid_instance(rng):
    """Nodes on a 2 m grid with a 20 m range, so pairs sit exactly at range
    (0-20, 12-16-20) and at half range (0-10, 6-8-10), a node is often
    equidistant from two coordinators, and two energy levels with two
    residual shares make equal residuals and equal capacities common. A
    few nodes are dead."""
    cells = [(x, y) for x in range(0, 50, 2) for y in range(0, 50, 2)]
    spots = rng.sample(cells, rng.randint(8, 40))
    nodes = [build_sink(*spots[0])]
    for i, (x, y) in enumerate(spots[1:], start=1):
        if rng.random() < 0.45:
            node = build_node(
                i, x, y, energy=rng.choice((1.0, 2.0)),
                node_class=NodeClass.LEADER, role=Role.SM,
            )
        else:
            node = build_node(i, x, y, energy=0.2)
        share = 0.0 if rng.random() < 0.08 else rng.choice((0.5, 1.0))
        node.energy.residual_energy = share * node.energy.initial_energy
        nodes.append(node)
    return nodes


def _shape(clusters):
    return [(c.id, c.coordinator, sorted(c.members)) for c in clusters]


def _sector_shape(sectors):
    return [(s.coordinator, sorted(s.leaves)) for s in sectors]


def _cases_seen(nodes, graph, coordinators, clusters, sectors_of, quarantined):
    """The boundary cases one instance exercises, by name."""
    by_id = _by_id(nodes)
    alive = [n for n in nodes if is_alive(n)]
    pair_d = {a.distance_to(b) for i, a in enumerate(alive) for b in alive[i + 1:]}
    capacities = [
        topo.capacity(n, graph) for n in nodes if topo.cc_eligible(n, quarantined, 8)
    ]

    def nearest_two(node):
        d = (node.distance_to(by_id[cc]) for cc in coordinators)
        return sorted(x for x in d if x <= GRID_RANGE)[:2]

    joining = [n for n in alive if n.id not in coordinators and n.id != topo.SINK_ID]
    followers = {
        c.id: [
            by_id[m] for m in c.members
            if by_id[m].node_class is NodeClass.FOLLOWER and is_alive(by_id[m])
        ]
        for c in clusters
    }
    residuals = [
        [f.energy.residual_energy for f in fs if f.id not in quarantined]
        for fs in followers.values()
    ]
    seen = {
        "at range": GRID_RANGE in pair_d,
        "at half range": GRID_RANGE / 2 in pair_d,
        "dead": len(alive) < len(nodes),
        "equal capacities": len(set(capacities)) < len(capacities),
        "distance tie": any(
            len(d) == 2 and d[0] == d[1] for d in map(nearest_two, joining)
        ),
        "equal residuals": any(len(set(r)) < len(r) for r in residuals),
        "quarantined out of every claim": any(
            f.id in quarantined and sectors_of[cid] and all(
                f.distance_to(by_id[s.coordinator]) > GRID_RANGE / 2 for s in sectors_of[cid]
            )
            for cid, fs in followers.items() for f in fs
        ),
    }
    return {case for case, hit in seen.items() if hit}


def test_builders_match_the_reranking_reference_bodies():
    rng = random.Random(1515)
    cases = Counter()
    compared = Counter()
    for trial in range(200):
        nodes = _grid_instance(rng)
        by_id = _by_id(nodes)
        graph = topo.build_graph(nodes, GRID_RANGE)
        reference_graph = _reference_build_graph(nodes, GRID_RANGE)
        assert list(graph.adjacency.items()) == list(reference_graph.adjacency.items())
        quarantined = set(rng.sample(range(1, len(nodes)), rng.randint(0, len(nodes) // 4)))

        try:
            expected = _reference_select_cluster_coordinators(nodes, graph, 8, quarantined)
        except topo.CoverageFailure as failure:
            with pytest.raises(topo.CoverageFailure, match=re.escape(str(failure))):
                topo.select_cluster_coordinators(nodes, graph, 8, quarantined)
            compared["uncoverable"] += 1
            continue
        coordinators = topo.select_cluster_coordinators(nodes, graph, 8, quarantined)
        assert coordinators == expected

        join, reference_join = random.Random(trial), random.Random(trial)
        reference_clusters = _reference_form_clusters(nodes, expected, graph, reference_join)
        clusters = topo.form_clusters(nodes, coordinators, graph, join)
        assert _shape(clusters) == _shape(reference_clusters)
        assert join.getstate() == reference_join.getstate()

        sectors_of = {}
        for cluster in clusters:
            sectors = topo.form_sectors(cluster, by_id, graph, quarantined)
            expected_sectors = _reference_form_sectors(cluster, by_id, graph, quarantined)
            assert _sector_shape(sectors) == _sector_shape(expected_sectors)
            sectors_of[cluster.id] = sectors
            candidates = topo.monitor_candidates(cluster, by_id, quarantined)
            for sector in sectors:
                assert topo.select_sector_monitor(
                    sector, candidates, graph, _budgets(candidates)
                ) == _reference_select_sector_monitor(sector, candidates, graph)
                compared["monitors"] += bool(candidates)
        compared["structures"] += 1
        cases.update(_cases_seen(nodes, graph, coordinators, clusters, sectors_of, quarantined))
    assert compared["structures"] >= 50 and compared["monitors"] >= 50
    assert compared["uncoverable"]
    assert set(cases) == {
        "at range", "at half range", "dead", "equal capacities", "distance tie",
        "equal residuals", "quarantined out of every claim",
    }, cases


# Verbatim copies of the two remaining elections as they were before they
# stopped building a roster set per call and looking enum members up per node.


def _reference_monitor_candidates(cluster, by_id, quarantined=frozenset()):
    return [
        by_id[m] for m in sorted(cluster.node_ids())
        if m != cluster.coordinator
        and by_id[m].node_class is NodeClass.LEADER
        and is_alive(by_id[m])
        and m not in quarantined
    ]


def _reference_assign_roles(nodes, clusters, sink_id=topo.SINK_ID):
    roles = {}
    for node in nodes:
        if node.id == sink_id:
            roles[node.id] = Role.SN
        elif node.node_class is NodeClass.LEADER:
            roles[node.id] = Role.SM
        else:
            roles[node.id] = Role.LN
    for cluster in clusters:
        for sector in cluster.sectors:
            roles[sector.coordinator] = Role.SC
            if sector.fsh is not None:
                roles[sector.fsh] = Role.FSH
    for cluster in clusters:
        for sector in cluster.sectors:
            for sm in sector.monitors:
                roles[sm] = Role.SM
    for cluster in clusters:
        roles[cluster.coordinator] = Role.CC
    for node in nodes:
        node.role = roles[node.id]
    return roles


def _roles_both_ways(nodes, clusters):
    """What the reference and the rewritten `assign_roles` return and leave
    on the nodes, each run from the same starting roles."""
    start = [node.role for node in nodes]
    expected = _reference_assign_roles(nodes, clusters)
    expected_left = [node.role for node in nodes]
    for node, role in zip(nodes, start):
        node.role = role
    roles = topo.assign_roles(nodes, clusters)
    return (list(roles.items()), [node.role for node in nodes]), (
        list(expected.items()), expected_left
    )


def test_candidates_and_roles_match_their_reference_bodies():
    """Random structures, built as the engine builds them, with rosters
    edited the ways a run edits them: members die after joining, the sink
    or the coordinator itself sits in a roster, leaders are quarantined.
    Roles are assigned over every node and over the nodes of a few
    clusters only, as a partial re-derivation does."""
    rng = random.Random(2424)
    cases = Counter()
    for trial in range(200):
        nodes = _grid_instance(rng)
        by_id = _by_id(nodes)
        graph = topo.build_graph(nodes, GRID_RANGE)
        quarantined = set(rng.sample(range(1, len(nodes)), rng.randint(0, len(nodes) // 4)))
        try:
            coordinators = topo.select_cluster_coordinators(nodes, graph, 8, quarantined)
        except topo.CoverageFailure:
            continue
        clusters = topo.form_clusters(nodes, coordinators, graph, random.Random(trial))
        for cluster in clusters:
            members = sorted(cluster.members)
            for m in members:
                if rng.random() < 0.1:
                    by_id[m].energy.residual_energy = 0.0
                    cases["dead member"] += 1
            if rng.random() < 0.1:
                cluster.members.add(topo.SINK_ID)
                cases["sink in roster"] += 1
            if rng.random() < 0.1:
                cluster.members.add(cluster.coordinator)
                cases["coordinator in members"] += 1
            cases["quarantined leader"] += any(
                m in quarantined and by_id[m].node_class is NodeClass.LEADER for m in members
            )
            candidates = topo.monitor_candidates(cluster, by_id, quarantined)
            assert candidates == _reference_monitor_candidates(cluster, by_id, quarantined)
            cluster.sectors = topo.form_sectors(cluster, by_id, graph, quarantined)
            fsh = topo.select_fsh(cluster, candidates, by_id, graph)
            for sector in cluster.sectors:
                sector.monitors = topo.select_sector_monitor(
                    sector, candidates, graph, _budgets(candidates)
                )
                sector.fsh = fsh
                cases["monitor forwards"] += fsh is not None and fsh in sector.monitors
        got, expected = _roles_both_ways(nodes, clusters)
        assert got == expected
        some = rng.sample(clusters, rng.randint(0, len(clusters)))
        named = {m for cluster in some for m in cluster.node_ids()}
        subset = [node for node in nodes if node.id in named and rng.random() < 0.8]
        got, expected = _roles_both_ways(subset, some)
        assert got == expected
        cases["structures"] += 1
        cases["role of a node left out"] += len(expected[0]) > len(subset)
    assert cases["structures"] >= 50
    assert all(cases[case] for case in (
        "dead member", "sink in roster", "coordinator in members", "quarantined leader",
        "monitor forwards", "role of a node left out",
    )), cases


def test_election_ranks_each_eligible_leader_once(monkeypatch):
    """Ranks cannot move during one election, so ranking a leader twice is
    wasted work; this catches re-ranking before every pick coming back."""
    deployment = DeploymentConfig(node_count=150, area_width=120.0, area_height=150.0)
    nodes = topo.deploy(deployment, SeededRng(43))
    graph = topo.build_graph(nodes, 40.0)
    eligible = [n.id for n in nodes if topo.cc_eligible(n, frozenset(), 8)]
    ranked = Counter()
    rank = topo.cc_rank

    def counting_rank(node, graph, sink):
        ranked[node.id] += 1
        return rank(node, graph, sink)

    monkeypatch.setattr(topo, "cc_rank", counting_rank)
    coordinators = topo.select_cluster_coordinators(nodes, graph)
    assert len(coordinators) > 10
    assert ranked == Counter(eligible)


# --- the x-order sweep ---------------------------------------------------------


def _field(node_count, seed):
    """Uniform nodes at the stock scenario's density: 70 nodes on 80 x 100 m
    with a 40 m range, scaled in area with the node count."""
    scale = math.sqrt(node_count / 70)
    deployment = DeploymentConfig(
        node_count=node_count, area_width=80.0 * scale, area_height=100.0 * scale,
        leader_fraction=0.2,
    )
    return topo.deploy(deployment, SeededRng(seed))


def _rounding_pair(transmission_range):
    """x values `ax < bx` exactly `transmission_range` apart for which
    `ax + transmission_range` rounds below `bx`: a window that ends at that
    sum would leave out a pair in range."""
    rng = random.Random(0)
    while True:
        ax = rng.uniform(0.0, 200.0)
        bx = math.nextafter(ax + transmission_range, math.inf)
        if bx - ax == transmission_range:
            return ax, bx


def test_the_sweep_links_pairs_at_range_and_along_a_shared_x():
    """Pairs exactly at range along x, one ulp past it, at a gap the sum
    `ax + range` misplaces, and a run of nodes on one x, with ids out of x
    order: the sweep must give the pair loop's graph item for item."""
    r = 40.0
    past = math.nextafter(r, math.inf)
    ax, bx = _rounding_pair(r)
    assert ax + r < bx
    nodes = [
        build_sink(500, 500),
        build_node(1, r, 0), build_node(2, 0, 0),        # exactly at range
        build_node(3, past, 100), build_node(4, 0, 100),  # one ulp past it
        build_node(5, bx, 200), build_node(6, ax, 200),   # past the rounded sum
        build_node(7, 60, 341), build_node(8, 60, 300), build_node(9, 60, 340),
        build_node(10, 60, 310), build_node(11, 60, 320),
    ]
    graph = topo.build_graph(nodes, r)
    assert graph.has_edge(1, 2) and graph.has_edge(5, 6)
    assert not graph.has_edge(3, 4)
    assert graph.has_edge(8, 9) and not graph.has_edge(8, 7)
    assert graph.neighbors(10) == {7, 8, 9, 11}
    expected = _reference_build_graph(nodes, r)
    assert list(graph.adjacency.items()) == list(expected.adjacency.items())


@pytest.mark.parametrize("node_count", [400, 1600])
def test_the_sweep_matches_the_pair_loop_on_large_fields(node_count):
    nodes = _field(node_count, 44)
    graph = topo.build_graph(nodes, 40.0)
    expected = _reference_build_graph(nodes, 40.0)
    assert list(graph.adjacency.items()) == list(expected.adjacency.items())


def _counting_hypot(monkeypatch):
    calls = Counter()

    def counting_hypot(*legs):
        calls["hypot"] += 1
        return math.hypot(*legs)

    monkeypatch.setattr(topo, "hypot", counting_hypot)
    return calls


def test_a_full_build_measures_under_half_the_pairs(monkeypatch):
    """A build that tests every pair measures N(N-1)/2 distances; this
    catches that loop coming back in place of the x sweep."""
    nodes = _field(400, 44)
    calls = _counting_hypot(monkeypatch)
    graph = topo.build_graph(nodes, 40.0)
    n = len(nodes)
    assert sum(map(len, graph.adjacency.values())) > 10 * n
    assert 0 < calls["hypot"] < n * (n - 1) / 4


def test_a_join_measures_only_the_coordinators_the_graph_links(monkeypatch):
    """Joining measures each joining node against the live coordinators its
    range graph links it to, once each; measuring every coordinator, as a
    join that ignores the graph does, fails here."""
    nodes = _field(400, 44)
    graph = topo.build_graph(nodes, 40.0)
    coordinators = topo.select_cluster_coordinators(nodes, graph)
    heads = set(coordinators)
    joining = [
        n.id for n in nodes
        if is_alive(n) and n.node_class is not NodeClass.SINK and n.id not in heads
    ]
    calls = _counting_hypot(monkeypatch)
    clusters = topo.form_clusters(nodes, coordinators, graph, random.Random(0))
    assert sum(len(c.members) for c in clusters) == len(joining)
    assert calls["hypot"] == sum(len(heads & graph.neighbors(a)) for a in joining)
    assert calls["hypot"] < len(joining) * len(heads) / 4


# --- roles ---------------------------------------------------------------------


def test_assign_roles_precedence():
    nodes, cluster, g, sectors = _leader_cluster()
    by_id = _by_id(nodes)
    candidates = topo.monitor_candidates(cluster, by_id)
    budgets = _budgets(candidates)
    sectors[0].monitors = topo.select_sector_monitor(sectors[0], candidates, g, budgets)
    sectors[0].fsh = topo.select_fsh(cluster, candidates, by_id, g)
    roles = topo.assign_roles(nodes, [cluster])
    assert by_id[0].role is Role.SN
    assert by_id[1].role is Role.CC
    assert by_id[sectors[0].coordinator].role is Role.SC
    for m in sectors[0].monitors:
        assert by_id[m].role is Role.SM
    for leaf in sectors[0].leaves:
        assert by_id[leaf].role is Role.LN
    assert roles == {n.id: n.role for n in nodes}


def test_capacity_scales_with_residual():
    nodes = [
        build_sink(0, 0),
        build_node(1, 0, 10, energy=2.0, node_class=NodeClass.LEADER, role=Role.SM),
        build_node(2, 0, 20, energy=0.2),
    ]
    g = _graph(nodes)
    full = topo.capacity(nodes[1], g)
    nodes[1].energy.residual_energy = 1.0
    assert topo.capacity(nodes[1], g) == pytest.approx(full / 2)
