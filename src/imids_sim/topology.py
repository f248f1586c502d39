"""Deployment, connectivity, and the election machinery for clusters and sectors.

The hierarchy is rebuilt from measurable quantities only: capacity (degree
scaled by remaining energy) elects cluster coordinators, residual energy
elects sector coordinators, detection reserves elect sector monitors, and
hop distance to the coordinator elects the forwarding sector head. Every
tie-break ends in the node id so elections are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from math import dist, hypot
from operator import itemgetter

from .core import (
    DETECTION_FRACTION,
    NodeClass,
    Position,
    Role,
    SensorNode,
    is_alive,
    make_energy_account,
)

SINK_ID = 0


class CoverageFailure(Exception):
    """No eligible coordinator can cover the remaining nodes."""


class UnreachableNode(Exception):
    """A node has no coordinator inside its transmission range."""


@dataclass
class TransmissionGraph:
    """The range graph as one neighbour set per live node. A refresh derives
    a new graph from the previous one, never changing it, and shares the
    sets no death touched."""

    transmission_range: float
    adjacency: dict = field(default_factory=dict)  # node id -> set of neighbour ids

    def neighbors(self, node_id: int) -> set:
        return self.adjacency.get(node_id, frozenset())

    def degree(self, node_id: int) -> int:
        return len(self.adjacency.get(node_id, ()))

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adjacency.get(a, ())


@dataclass(slots=True)
class Sector:
    coordinator: int
    leaves: set = field(default_factory=set)
    monitors: tuple = ()
    fsh: int | None = None

    def node_ids(self) -> set:
        return {self.coordinator} | set(self.leaves)


@dataclass(slots=True)
class Cluster:
    id: int
    coordinator: int
    members: set = field(default_factory=set)
    sectors: list = field(default_factory=list)

    def node_ids(self) -> set:
        return {self.coordinator} | set(self.members)


def deploy(deployment, rng) -> list:
    """Place a validated deployment's nodes and hand out per-class initial energies.

    Node ids run 0..n-1 with the sink at id 0. Explicit coordinates are
    echoed back verbatim when provided; otherwise non-sink nodes land
    uniformly in the area and the sink sits at its configured position.

    `leader_fraction` alone splits leaders from followers; the class drawn
    here is final, and the two `*_initial_energy` values only set the
    battery each class starts with.
    """
    n = deployment.node_count
    place_rng = rng.derive("deploy", "positions")
    if deployment.positions is not None:
        positions = [Position(float(x), float(y)) for x, y in deployment.positions]
    else:
        sink_xy = deployment.sink_position
        if sink_xy is None:
            sink_xy = (deployment.area_width / 2.0, deployment.area_height / 2.0)
        positions = [Position(float(sink_xy[0]), float(sink_xy[1]))]
        for _ in range(n - 1):
            positions.append(
                Position(
                    place_rng.uniform(0.0, deployment.area_width),
                    place_rng.uniform(0.0, deployment.area_height),
                )
            )

    leader_count = max(1, round(deployment.leader_fraction * (n - 1)))
    leader_count = min(leader_count, n - 2)  # keep at least one follower
    class_rng = rng.derive("deploy", "classes")
    leader_ids = set(class_rng.sample(range(1, n), leader_count))

    nodes = []
    for node_id in range(n):
        if node_id == SINK_ID:
            initial = deployment.sink_initial_energy
            node_class = NodeClass.SINK
        elif node_id in leader_ids:
            initial = deployment.leader_initial_energy
            node_class = NodeClass.LEADER
        else:
            initial = deployment.follower_initial_energy
            node_class = NodeClass.FOLLOWER
        nodes.append(
            SensorNode(
                id=node_id,
                position=positions[node_id],
                node_class=node_class,
                role=Role.SN if node_id == SINK_ID else Role.LN,
                energy=make_energy_account(initial),
            )
        )
    return nodes


def build_graph(nodes, transmission_range: float, previous=None) -> TransmissionGraph:
    """Symmetric range graph: an edge exists iff both ends are alive and
    their distance does not exceed the transmission range (inclusive).

    A full build sweeps the live nodes in x order and tests each only
    against the later ones whose x gap is within the range: a wider gap
    puts the pair out of range (`hypot` is at least either leg), and
    `hypot` ignores the legs' signs, so the edges are those of testing
    every pair. Given the `previous` graph of the same nodes and range, the
    nodes that died since drop out of it and no pair is re-tested (nodes
    never move): the result equals a full build and shares every untouched
    set. A `previous` of another range, or missing a live node, is refused."""
    if transmission_range <= 0:
        raise ValueError("transmission range must be positive")
    points = [(n.id, n.position.x, n.position.y) for n in nodes if is_alive(n)]
    if previous is not None:
        if previous.transmission_range != transmission_range:
            raise ValueError("a graph derives only from one of the same range")
        old = previous.adjacency
        dead = old.keys() - {a for a, _, _ in points}
        if len(old) - len(dead) != len(points):
            raise ValueError("a graph derives only from one that holds every live node")
        adjacency = {a: ids for a, ids in old.items() if a not in dead}
        for a in set().union(*(old[d] for d in dead)) - dead:  # lost a neighbour
            adjacency[a] = old[a] - dead
        return TransmissionGraph(transmission_range, adjacency)
    adjacency = {a: set() for a, _, _ in points}
    by_x = sorted(points, key=itemgetter(1))
    xs = [x for _, x, _ in by_x]
    end = 0  # one past the last node within range of `ax` along x
    for i, (a, ax, ay) in enumerate(by_x):
        while end < len(xs) and xs[end] - ax <= transmission_range:
            end += 1
        for b, bx, by in by_x[i + 1:end]:
            if hypot(ax - bx, ay - by) <= transmission_range:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return TransmissionGraph(transmission_range, adjacency)


def capacity(node: SensorNode, graph: TransmissionGraph) -> float:
    """Coordination capacity: connectivity weighted by remaining charge."""
    if node.energy.initial_energy <= 0:
        return 0.0
    return graph.degree(node.id) / node.energy.initial_energy * node.energy.residual_energy


def cc_eligible(node, quarantined, reputation_min) -> bool:
    """May `node` coordinate a cluster: a live, unquarantined, trusted leader."""
    return (
        node.node_class is NodeClass.LEADER
        and node.energy.residual_energy > 0.0
        and node.id not in quarantined
        and node.trust.nibble >= reputation_min
    )


def cc_rank(node, graph, sink) -> tuple:
    """Coordinator preference, smallest first: the highest capacity, then
    the smaller distance to the sink, then the smaller id."""
    return (-capacity(node, graph), node.distance_to(sink), node.id)


def select_cluster_coordinators(
    nodes, graph, reputation_min: int = 8, quarantined=frozenset()
) -> list:
    """Greedy disk cover by capacity.

    Repeatedly elect the eligible leader with the highest capacity among
    those whose range disk still claims at least one uncovered node; ties
    go to the smaller distance to the sink, then the smaller id. Fails if
    some alive non-sink node can never be covered.

    No rank moves during one election and `uncovered` only shrinks, so a
    leader whose disk claims nothing uncovered never claims again: one walk
    over the leaders in rank order, taking each that still claims, makes
    the same picks in the same order as re-ranking before every pick.
    """
    sink = {n.id: n for n in nodes}[SINK_ID]
    uncovered = {n.id for n in nodes if is_alive(n) and n.node_class is not NodeClass.SINK}
    eligible = [n for n in nodes if cc_eligible(n, quarantined, reputation_min)]
    coordinators = []
    for node in sorted(eligible, key=lambda n: cc_rank(n, graph, sink)):
        disk = graph.neighbors(node.id)
        if node.id in uncovered or not uncovered.isdisjoint(disk):
            coordinators.append(node.id)
            uncovered -= {node.id, *disk}
    if uncovered:
        raise CoverageFailure(f"uncoverable nodes remain: {sorted(uncovered)}")
    return coordinators


def form_clusters(nodes, coordinator_ids, graph, rng: random.Random) -> list:
    """Attach every alive non-sink node to its strongest coordinator.

    Signal strength is modeled as 1/d^2, so the nearest coordinator wins;
    exact distance ties are broken uniformly at random. Membership is
    exclusive. `graph` must be the range graph of these nodes, since range
    is read from it: a live coordinator is in range of a node iff the graph
    links the two, so only linked coordinators are measured, each once.
    The coordinators are walked in id order, so a tie hands `rng.choice`
    the sorted list of the tied ids.
    """
    by_id = {n.id: n for n in nodes}
    clusters = [
        Cluster(id=idx, coordinator=cc) for idx, cc in enumerate(sorted(coordinator_ids))
    ]
    slot_of = {c.coordinator: c for c in clusters}
    heads = [
        (cc, by_id[cc].position.x, by_id[cc].position.y) for cc in slot_of if is_alive(by_id[cc])
    ]
    for node in nodes:
        if not is_alive(node) or node.node_class is NodeClass.SINK or node.id in slot_of:
            continue
        x, y, near = node.position.x, node.position.y, graph.neighbors(node.id)
        in_range = [(hypot(x - hx, y - hy), cc) for cc, hx, hy in heads if cc in near]
        if not in_range:
            raise UnreachableNode(f"node {node.id} has no coordinator in range")
        best_d = min(d for d, _ in in_range)
        tied = [cc for d, cc in in_range if d == best_d]
        choice = tied[0] if len(tied) == 1 else rng.choice(tied)
        slot_of[choice].members.add(node.id)
    return clusters


def form_sectors(cluster: Cluster, by_id, graph, quarantined=frozenset()) -> list:
    """Partition the cluster's alive followers into disjoint sectors.

    Coordinators are seeded greedily: the unassigned follower with the
    most residual energy takes the job and tentatively claims unassigned
    followers within half the radio range, so each cluster splits into
    several small sectors rather than one big one. Every leaf then
    settles on its nearest coordinator, which keeps the data hops short.
    Quarantined followers never coordinate; they only ever join.
    `by_id` maps node id to node.

    Residuals do not move during the call and a claimed follower stays
    claimed, so one walk over the untainted followers by (-residual, id),
    seeding each one still unassigned, seeds the same coordinators in the
    same order as taking the richest unassigned follower before every seed.
    """
    follower = NodeClass.FOLLOWER
    xy = {}  # alive follower id -> (x, y), ids ascending
    rank = []  # (-residual, id) of every follower that may coordinate
    for node in map(by_id.__getitem__, sorted({cluster.coordinator, *cluster.members})):
        if node.node_class is follower and node.energy.residual_energy > 0.0:
            xy[node.id] = (node.position.x, node.position.y)
            if node.id not in quarantined:
                rank.append((-node.energy.residual_energy, node.id))
    unassigned = set(xy)
    radius = graph.transmission_range / 2.0
    coordinators = []
    for _, sc in sorted(rank):
        if sc in unassigned:
            coordinators.append(sc)
            seat = xy[sc]
            unassigned -= {m for m in unassigned if m == sc or dist(seat, xy[m]) <= radius}
    if not coordinators:
        return []
    seats = [xy[sc] for sc in coordinators]
    leaves = {sc: set() for sc in coordinators}
    for member, seat in xy.items():
        if member not in leaves:  # the nearest coordinator, then the smaller id
            leaves[min(zip(map(dist, repeat(seat), seats), coordinators))[1]].add(member)
    return [Sector(sc, leaves[sc]) for sc in coordinators]


def monitor_candidates(cluster, by_id, quarantined=frozenset()) -> list:
    """The cluster's spare leaders, in id order: alive, not quarantined and
    not its coordinator. Both the sector monitors and the forwarding head
    are chosen from them."""
    leader, cc = NodeClass.LEADER, cluster.coordinator
    return [
        node for node in map(by_id.__getitem__, sorted(cluster.members))
        if node.node_class is leader
        and node.energy.residual_energy > 0.0
        and node.id != cc
        and node.id not in quarantined
    ]


def prospective_detection_budget(node: SensorNode) -> float:
    """Budget a leader would bring as sector monitor (largest reserve share)."""
    cap = DETECTION_FRACTION["SM"] * node.energy.initial_energy
    return min(cap, node.energy.residual_energy)


def select_sector_monitor(sector, candidates, graph, budgets) -> tuple:
    """Pick the sector's monitors among the cluster's `monitor_candidates`:
    the spare leaders with maximal detection budget; `()` for none.

    Leaders adjacent to the sector are preferred; if none touch it, any
    candidate may monitor (scarce-leader fallback). All leaders tied at the
    maximum are selected. `budgets` lists each candidate's
    `prospective_detection_budget`, priced once by the caller for all the
    cluster's sectors.
    """
    if len(candidates) < 2:  # a lone candidate monitors whether it touches the sector or not
        return (candidates[0].id,) if candidates else ()
    sector_ids = (sector.coordinator, *sector.leaves)
    neighbors = graph.neighbors
    priced = [(budget, c.id) for c, budget in zip(candidates, budgets)]
    pool = [pair for pair in priced if not neighbors(pair[1]).isdisjoint(sector_ids)] or priced
    best = max(pool)[0]
    return tuple(sorted([node_id for budget, node_id in pool if budget == best]))


def hop_distances(graph: TransmissionGraph, source: int, stop_at=None) -> dict:
    """Breadth-first hop counts from `source` over the live graph.

    With a `stop_at` set the search ends after the first complete level
    that holds one of those nodes: every node up to that depth has its
    count and nothing farther out is explored. If no such node is
    reachable the result is the full search.
    """
    dist = {source: 0}
    level = [source]
    depth = 0
    while level:
        if stop_at is not None and not stop_at.isdisjoint(level):
            break
        depth += 1
        next_level = []
        for current in level:
            for nxt in graph.neighbors(current):
                if nxt not in dist:
                    dist[nxt] = depth
                    next_level.append(nxt)
        level = next_level
    return dist


def select_fsh(cluster, candidates, by_id, graph) -> int | None:
    """Pick the cluster's forwarding head among its `monitor_candidates`:
    the one closest to the CC in hops, then in meters, then by id; None for none.

    The choice is per cluster, so every sector of a cluster gets the same
    head and one call serves them all. The search stops at the nearest
    candidate's level; candidates beyond it could not win on hops anyway.
    """
    if not candidates:
        return None
    cc = by_id[cluster.coordinator]
    hops = hop_distances(graph, cc.id, stop_at={c.id for c in candidates})
    inf = float("inf")
    return min([(hops.get(c.id, inf), c.distance_to(cc), c.id) for c in candidates])[2]


def assign_roles(nodes, clusters, sink_id: int = SINK_ID) -> dict:
    """Derive the role map from the cluster/sector structure.

    Precedence CC > SM > FSH: when leaders are scarce one leader may both
    monitor a sector and forward for another, in which case it keeps the
    monitor role (and its detection reserve) while the sector's fsh field
    names it as forwarder. Leaders left without a duty become reserve
    monitors; everything else is a leaf.
    """
    sn, sc, fsh, sm, ln = Role.SN, Role.SC, Role.FSH, Role.SM, Role.LN
    leader = NodeClass.LEADER
    roles = {
        node.id: sn if node.id == sink_id else sm if node.node_class is leader else ln
        for node in nodes
    }
    sectors = [sector for cluster in clusters for sector in cluster.sectors]
    for sector in sectors:
        roles[sector.coordinator] = sc
        if sector.fsh is not None:
            roles[sector.fsh] = fsh
    for sector in sectors:
        for monitor in sector.monitors:
            roles[monitor] = sm
    for cluster in clusters:
        roles[cluster.coordinator] = Role.CC
    for node in nodes:
        node.role = roles[node.id]
    return roles
