"""Round-driven simulation engine tying topology, attack, and detection together.

A round is the tuple `Simulation._phases`: methods called in turn with
the round number, handing results on through round-scoped attributes
(`_masks`, `_attack_packets`, `_obs`, `_inbox`, ...). Every mode opens
with sleep masks, attack packets, the `slots_per_round` TDMA slots (attack
packets land first and can force sleeping victims awake, then every leaf
transmits in its own slot), the slots' duty cost and injected strikes.
The detection ladder then fires bottom-up: sector coordinators screen
their leaves, forwarding heads relay aggregates, sector monitors pass
window verdicts, coordinators and finally the sink re-validate what
reaches them. Reconfiguration (death, quarantine, exhausted detection
budget, or a coordinator falling behind its peers) closes the round.
Each layer judges what reached it: every packet a node receives in the
round (an attack delivery, a leaf's uplink, a sector's aggregate) is
appended to that node's `_inbox`, and each stage derives its counts and
sources from there.

The baseline mode ends the round with static low-energy monitors and
single-strike isolation instead; the no-sector mode keeps cluster
coordinators as the only detection layer. Each mode is one row of
`_MODES` (its watch relation, the phases that close its round, whether it
forms sectors, whether it fixes static monitors), which `__init__` looks
up once: nothing else asks which mode it runs.

Every hop is one first-order radio transmission. Control replies,
aggregates and adoption go through `_hop`, a control broadcast through
`_broadcast`; the slot loop (`_run_slots`) charges attack deliveries, and
each leaf's send along the route its fragment keeps, inline. Overhearing
is not free: a watcher that is not the addressee pays the receive price too
(`_overhear`), which is what makes an always-on promiscuous monitor
expensive to run. Every joule is charged through `energy.consume`.

Everything random is drawn from substreams derived from the scenario
seed and keyed by concern, round, and node id (a round's sleep masks come
from one `SeededRng.flip_rows` call and are priced as they are drawn), so
a (config, seed) pair always produces the identical trace and the sleep
masks and attack traffic line up exactly across modes.

The cluster/sector structure changes only through `_build_structures`,
which also rebuilds the lookup indices the round loop relies on (who
belongs to which cluster, who watches whom, who sends in which slot).
Code that edits the structure must end in a call to it, naming the
clusters it touched: each cluster's share of the indices is kept as a
`_Fragment` and only the touched ones are placed again; the rotation
check walks the leaders a fragment lists. A fragment is derived from its
structure key alone, with its roster's node->cluster and leaders. A cluster
keeps the fragments derived under its present roster by key (`_memo`), so a
re-formed cluster reuses the fragment of a structure it had before, and
one re-formed as it was changes nothing. The round's maps are patched
for the changed fragments only (`_compose_fragments`). A fragment also
holds its leaves' uplink routes, each built on the leaf's first send while
the fragment is placed, so a structure seen again brings its routes back.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import cycle, islice
from typing import NamedTuple

from . import attack as attack_mod
from . import ids as ids_mod
from . import itids as itids_mod
from . import topology as topo
from .config import ScenarioConfig, config_to_dict
from .core import (
    NodeClass,
    Packet,
    Role,
    WakeupToken,
    trust_penalize,
)
from .energy import assign_detection_budget, consume, rx_cost, tx_cost
from .ids import Decision, Ledgers, Observation
from .rng import SeededRng

AGGREGATE_SLOT = -1  # sentinel: aggregates move in the post-data phase
# Wake patterns `_slot_cost` keeps before it starts over: a 10-slot frame has
# 1,024, but from about 12 slots almost every mask drawn is a new pattern.
DUTY_PRICES_KEPT = 4096


def _add_up(values):
    """Left-to-right float sum. From Python 3.12 on `sum()` compensates
    rounding error, which would move every pinned trace."""
    total = 0
    for value in values:
        total += value
    return total


class _Fragment(NamedTuple):
    """What the round reads of one cluster, derived from its structure key
    alone: its nodes in slot order (the i-th sends in TDMA slot i modulo
    `slots_per_round`) and the uplink of each, the always-on ids,
    node->cluster for the roster, the watch relation as (watcher, sorted
    subjects) passes and keyed by subject, the leader nodes of the roster,
    which the rotation check walks (class is fixed), and each leaf's route
    (`Simulation._route`), built on its first send under the fragment. A
    cluster remembers many fragments, so what needs no lookup is a tuple."""

    order: tuple
    parents: tuple
    always_on: tuple
    cluster_of: dict
    screens: tuple
    watchers: dict
    leaders: tuple
    routes: dict

    def names(self) -> set:
        """Every node the fragment gives a slot or keeps awake."""
        return {*self.order, *self.always_on}


_NO_FRAGMENT = _Fragment((), (), (), {}, (), {}, (), {})  # a cluster before set-up or dissolved


class _Spend(Mapping):
    """One round's joules spent per node, read-only: the spends sit in an
    `array('d')` in node order, and `index` (node id -> position, one map
    per run) finds them, so a round keeps 8 bytes per node, not a dict entry."""

    __slots__ = ("_index", "_joules")

    def __init__(self, index, joules):
        self._index = index
        self._joules = joules

    def __getitem__(self, node_id):
        return self._joules[self._index[node_id]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._joules)


class Change(Enum):  # what a sweep did to a cluster
    COORDINATOR_FAILED = "coordinator failed"
    COORDINATOR_ROTATED = "coordinator rotated"
    COORDINATOR_CHANGED = "coordinator changed"
    SECTOR_COORDINATOR_FAILED = "sector coordinator failed"
    SECTOR_ROTATED = "sector rotated"
    FORWARDING_HEAD_FAILED = "forwarding head failed"
    MONITORS_FAILED = "monitors failed"
    DISSOLVED = "dissolved"
    ADOPTED = "adopted"


@dataclass(frozen=True, slots=True)
class Event:
    """One restructuring in a round's sweep. `node` is the holder that failed
    or rotated (a sector's coordinator when its monitors failed), the new
    coordinator, or the adopted node; None for a dissolution."""

    kind: Change
    cluster: int
    node: int | None


@dataclass(slots=True)
class RoundReport:
    round: int
    alive_count: int
    energy_spent_total: float
    energy_spent: Mapping  # node id -> joules, read-only; dict() it for a copy
    suspects_new: list
    quarantines_new: list
    reconfigurations: list  # Events, in sweep order
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class SimulationTrace:
    config: dict
    seed: int
    attacker_ids: list
    positions: dict
    cluster_count: int
    sector_count: int
    monitor_count: int
    initial_energy: dict
    init_energy_spent: dict
    reports: list = field(default_factory=list)
    final_energy: dict = field(default_factory=dict)
    extinction_round: int | None = None
    final_confusion: ids_mod.Confusion | None = None
    ledgers: Ledgers | None = None

    @property
    def alive_series(self) -> list:
        return [r.alive_count for r in self.reports]

    def accuracy_series(self) -> list:
        return [ids_mod.Confusion(r.tp, r.fp, r.tn, r.fn).accuracy for r in self.reports]

    def total_energy_spent(self) -> float:
        total = 0.0
        for node_id, initial in self.initial_energy.items():
            if node_id == topo.SINK_ID:
                continue
            total += initial - self.final_energy.get(node_id, initial)
        return total


class Simulation:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.params = config.energy
        self.rng = SeededRng(config.seed)
        self.ledgers = Ledgers()
        self.round = 0
        self._attacking = frozenset()  # ids that attack this round, fixed by `_emit_attacks`
        # Positions never move: each cost is computed on first use, then reused.
        self._link_cost = {}     # (sender id, receiver id, bits) -> tx joules
        self._slot_cost = {}     # wake mask as a tuple -> duty joules
        self._packets = {}       # (src, dst, slot, bits, valid, sources) -> Packet
        self._broadcast_cost = tx_cost(  # a control packet at full range
            self.params, config.traffic.control_bits, config.deployment.transmission_range
        )
        sizes = (  # the config fixes every packet size, so reception is priced here
            config.traffic.data_bits, config.traffic.aggregate_bits,
            config.traffic.control_bits, config.attack.fake_msg_bits,
        )
        self._rx_table = {bits: rx_cost(self.params, bits) for bits in sizes}  # bits -> rx joules
        self._mode = _MODES[config.mode]
        self._initialize()
        self._quarantine_mark = 0  # the quarantine's size before this round's phases
        self._confusion = ids_mod.compute_confusion(self.nodes, (), self.sink.id)  # none yet
        self._phases = (
            self._draw_masks,
            self._emit_attacks,
            self._run_slots,
            self._charge_slot_costs,
            self._inject_false_strikes,
            *(phase.__get__(self) for phase in self._mode.ladder),
        )

    # ------------------------------------------------------------------
    # setup

    def _initialize(self):
        cfg = self.config
        self.nodes = topo.deploy(cfg.deployment, self.rng)
        self.by_id = {n.id: n for n in self.nodes}
        self.sink = self.by_id[topo.SINK_ID]
        self.attackers = attack_mod.choose_attackers(
            cfg.attack, list(self.by_id), topo.SINK_ID, self.rng.derive("attackers")
        )
        for node_id in self.attackers:
            self.by_id[node_id].malicious = True

        self.graph = None
        self._refresh_graph()
        self._census()

        coordinator_ids = topo.select_cluster_coordinators(
            self.nodes, self.graph, cfg.detection.reputation_min, set(self.ledgers.quarantined)
        )
        self.clusters = topo.form_clusters(
            self.nodes, coordinator_ids, self.graph, self.rng.derive("join", -1)
        )
        self.orphans = set()
        self.monitors = {}  # cluster id -> monitor ids, baseline mode only
        if self._mode.static_monitors:  # chosen once: the baseline never re-elects
            for cluster in self.clusters:
                self.monitors[cluster.id] = itids_mod.select_monitors(
                    cluster, self.by_id, cfg.itids.monitor_fraction
                )
        self._followers = [n for n in self.nodes if n.node_class is NodeClass.FOLLOWER]
        self._spend_index = {n.id: i for i, n in enumerate(self.nodes)}  # shared by every `_Spend`
        self._forget_structures()
        self._build_structures(self.clusters, unplaced=self.nodes)
        # Every role taken above came with its reserve. The sink keeps the
        # role it was deployed with, and a baseline monitor carries the
        # screening-level reserve whatever its role, so both get theirs here.
        assign_detection_budget(self.sink, Role.SN)
        for monitor_ids in self.monitors.values():
            for monitor_id in monitor_ids:
                assign_detection_budget(self.by_id[monitor_id], Role.SC)
        self._charge_formation(self.clusters)

        # One shared allowance, fixed for the run: a transmit at full range
        # plus a fully awake round. A watcher counts what it hears, so an
        # honest leaf's one send a round never exceeds it, while a flood does.
        self.allowance = tx_cost(  # J per round
            self.params, cfg.traffic.data_bits, cfg.deployment.transmission_range
        ) + cfg.slots_per_round * self.params.p_listen

        self.init_energy_spent = {
            n.id: n.energy.initial_energy - n.energy.residual_energy for n in self.nodes
        }

    def _census(self):
        """Sink advertises and every node in range answers with its vitals."""
        in_range = self.graph.neighbors(self.sink.id)
        if in_range:
            self._handshake(self.sink, in_range)

    def _refresh_graph(self):
        """Build the range graph at set-up, then derive the next from the last
        once a node it holds dies (nodes only die, so only those are watched)."""
        if self.graph is not None:
            for account in self._graph_accounts:
                if not account.residual_energy > 0.0:
                    break
            else:
                return
        self.graph = topo.build_graph(
            self.nodes, self.config.deployment.transmission_range, self.graph
        )
        self._graph_accounts = [n.energy for n in self.nodes if n.energy.residual_energy > 0.0]

    def _forget_structures(self):
        """Start over as before set-up: no fragment, none remembered, and
        empty maps for `_compose_fragments` to patch."""
        self._fragments = {}  # cluster id -> _Fragment
        self._memo = {}  # cluster id -> {structure key: _Fragment} under the present roster
        self.parent, self._cluster_index, self._watchers = {}, {}, {}
        self.always_on = {self.sink.id}

    def _build_structures(self, rebuild, dirty=(), unplaced=()):
        """Re-form the sectors and monitors of the `rebuild` clusters, then
        place a fragment for each cluster named in `dirty` (rebuilt, roster
        cleaned, adopting, or dissolved) and for any cluster without one.

        A dirty cluster's old fragment is dropped; a dissolved one gets no
        new fragment, and one that gets back the very fragment it held
        (`_recall_fragment`) is left as it was. Roles and slots are
        re-derived for every node a dropped or a newly placed fragment
        names, plus `unplaced` (every node at set-up), so a node that left a
        roster falls back to its default role and to slot `id % slots`. A
        node whose role moved gets a fresh detection reserve; one that kept
        its role keeps what is left of its running budget. An untouched
        cluster keeps its fragment, its coordinators and their budgets.
        Each sender is listed with the routes of its cluster's fragment.
        """
        cfg = self.config
        if self._mode.sectors:
            quarantined = self.ledgers.quarantined
            for cluster in rebuild:
                cluster.sectors = topo.form_sectors(cluster, self.by_id, self.graph, quarantined)
                if not cluster.sectors:
                    continue
                candidates = topo.monitor_candidates(cluster, self.by_id, quarantined)
                # one forwarding head per cluster, shared by its sectors
                fsh = topo.select_fsh(cluster, candidates, self.by_id, self.graph)
                # a monitor keeps its spent reserve along with its role, so one
                # whose IDS is off is not re-elected (a new role brings a fresh one)
                candidates = [
                    c for c in candidates if c.role is not Role.SM or c.energy.detection_enabled
                ]
                budgets = list(map(topo.prospective_detection_budget, candidates))
                for sector in cluster.sectors:
                    sector.monitors = topo.select_sector_monitor(
                        sector, candidates, self.graph, budgets
                    )
                    sector.fsh = fsh
        fragments = self._fragments
        dropped = {cluster_id: fragments.pop(cluster_id) for cluster_id in dirty}
        derived = []  # the clusters placed with a fragment they did not hold
        changes = []  # (dropped, placed) fragment of each of them
        for cluster in self.clusters:
            if cluster.id not in fragments:
                old = dropped.pop(cluster.id, _NO_FRAGMENT)
                fragments[cluster.id] = new = self._recall_fragment(cluster, old)
                if new is not old:  # else re-formed as it was: nothing moves
                    derived.append(cluster)
                    changes.append((old, new))
        for cluster_id, old in dropped.items():  # dissolved
            del self._memo[cluster_id]
            changes.append((old, _NO_FRAGMENT))
        named = {n.id for n in unplaced}
        for old, new in changes:
            named |= old.names()
            named |= new.names()
        if not named:
            return
        slot_of = self._compose_fragments(changes)

        nodes = list(map(self.by_id.__getitem__, named))
        roles_before = [node.role for node in nodes]
        topo.assign_roles(nodes, derived)
        slots = cfg.slots_per_round
        sink_id = self.sink.id
        for node, role in zip(nodes, roles_before):
            if node.id != sink_id:
                node.slot = slot_of.get(node.id, node.id % slots)
            if node.role is not role and node.energy.residual_energy > 0.0:
                assign_detection_budget(node, node.role)
        # id order: it decides which packet is lost when a parent dies mid-slot
        senders = [[] for _ in range(slots)]
        leaf, parent = Role.LN, self.parent  # a local: enum member lookups are slow
        for node in self._followers:  # leaves with an uplink send; liveness is checked per packet
            if node.role is leaf and node.id in parent:  # so it sits in its roster
                senders[node.slot].append((node, fragments[self._cluster_index[node.id].id].routes))
        self._slot_senders = senders

    def _recall_fragment(self, cluster, held) -> _Fragment:
        """The cluster's fragment, keyed by all its derivation reads besides
        the roster: the coordinator, the mode's screens (in a sector mode the
        sectors in order, each coordinator with its sorted leaves) and one
        head per sector: its monitors, its forwarding head and whether that
        head is linked to the sector's coordinator. A cluster keeps the
        fragments derived under its present roster and forgets them when the
        roster changes, so a structure seen again comes back as the same
        object. Every fragment of one roster shares the node->cluster and
        leaders of `held`, the fragment it gives up (or `_NO_FRAGMENT`)."""
        has_edge = self.graph.has_edge
        heads = tuple([
            (s.monitors, s.fsh, s.fsh is not None and has_edge(s.coordinator, s.fsh))
            for s in cluster.sectors
        ])
        key = (cluster.coordinator, self._mode.screens(self, cluster), heads)
        roster, cluster_of, leaders = cluster.node_ids(), held.cluster_of, held.leaders
        fragments = self._memo.get(cluster.id)
        if fragments is None or cluster_of.keys() != roster:
            cluster_of = dict.fromkeys(sorted(roster), cluster)
            leader, by_id = NodeClass.LEADER, self.by_id
            leaders = tuple([n for n in map(by_id.__getitem__, cluster_of) if n.node_class is leader])
            fragments = self._memo[cluster.id] = {}
        fragment = fragments.get(key)
        if fragment is None:
            fragment = fragments[key] = self._derive_fragment(key, cluster_of, leaders)
        return fragment

    def _derive_fragment(self, key, cluster_of, leaders) -> _Fragment:
        """A fragment from its memo key alone, given the roster's
        node->cluster and leaders; of the simulation it reads only the
        sink's id. The slot order: the sector nodes first, sector by sector
        with ids ascending, then the roster's other nodes by id. The same
        walk gives the uplinks and the always-on ids (coordinators, sector
        coordinators, monitors, forwarding heads and every watcher)."""
        cc, screens, heads = key
        order, parents = [], []
        always_on = {cc}
        for (sc, leaves), (monitors, fsh, linked) in zip(screens, heads):  # a sector mode
            always_on.update(monitors)
            if fsh is not None:
                always_on.add(fsh)
            uplink = fsh if linked else cc  # aggregates ride through a linked forwarding head
            members = sorted((sc, *leaves))  # a coordinator is never its own leaf
            order += members
            parents += [uplink if node_id == sc else sc for node_id in members]
        # node->cluster follows the roster (ids ascending): a quarantined
        # sector coordinator may still sit in its sector after leaving it
        placed = set(order)
        for node_id in cluster_of:
            if node_id not in placed:  # a sector node has its uplink already
                order.append(node_id)
                parents.append(self.sink.id if node_id == cc else cc)
        watchers = {}
        for watcher_id, subject_ids in screens:
            always_on.add(watcher_id)
            alone = (watcher_id,)  # one tuple for every subject it watches alone
            for subject_id in subject_ids:
                held = watchers.get(subject_id)
                watchers[subject_id] = alone if held is None else (*held, watcher_id)
        return _Fragment(
            tuple(order), tuple(parents), tuple(always_on), cluster_of, screens, watchers,
            leaders, {},
        )

    def _sector_screens(self, cluster) -> tuple:
        """imids: each sector coordinator screens its leaves."""
        return tuple([(s.coordinator, tuple(sorted(s.leaves))) for s in cluster.sectors])

    def _member_screens(self, cluster) -> tuple:
        """No sectors: the coordinator screens its members."""
        return ((cluster.coordinator, tuple(sorted(cluster.members))),)

    def _monitor_screens(self, cluster) -> tuple:
        """Baseline: every monitor screens the cluster nodes it can hear
        (its graph is never refreshed)."""
        roster = cluster.node_ids()
        return tuple([
            (m, tuple(sorted(n for n in roster - {m} if self.graph.has_edge(m, n))))
            for m in self.monitors.get(cluster.id, ())
        ])

    def _compose_fragments(self, changes) -> dict:
        """Patch the maps the round reads for each (dropped, placed) pair of
        one cluster's fragments: take out every entry the dropped fragment
        holds and the placed one does not, then put in the placed ones'
        entries. Return the node->slot map of the placed fragments; each
        keeps its routes and screens. Rosters are disjoint, so no two
        fragments name one node and no kept fragment's entry is touched; a
        node that moved between two clusters is taken out before it is put in."""
        parent, cluster_of, watchers = self.parent, self._cluster_index, self._watchers
        always_on = self.always_on
        for old, new in changes:
            for node_id in set(old.order).difference(new.order):
                del parent[node_id]
            if old.cluster_of is not new.cluster_of:  # the roster changed
                for node_id in old.cluster_of.keys() - new.cluster_of.keys():
                    del cluster_of[node_id]
            for node_id in old.watchers.keys() - new.watchers.keys():
                del watchers[node_id]
            always_on.difference_update(old.always_on)
        slot_of = {}
        numbers = range(self.config.slots_per_round)
        for old, new in changes:
            slot_of.update(zip(new.order, cycle(numbers)))
            parent.update(zip(new.order, new.parents))
            if old.cluster_of is not new.cluster_of:
                cluster_of.update(new.cluster_of)
            watchers.update(new.watchers)
            always_on.update(new.always_on)
        return slot_of

    def _charge_formation(self, clusters):
        """Control traffic of (re)building cluster and sector structure."""
        for cluster in clusters:
            cc = self.by_id[cluster.coordinator]
            if cc.energy.residual_energy > 0.0:  # a dead coordinator's sectors stay silent too
                self._handshake(cc, cluster.members)
                for sector in cluster.sectors:
                    self._handshake(self.by_id[sector.coordinator], sector.leaves)

    def _broadcast(self, head, member_ids) -> list:
        """A live head's control packet at full range: the head pays
        `_broadcast_cost`, then each live member in id order pays the
        control receive price. Returns the members it reached."""
        if head.energy.residual_energy <= 0.0:
            return []
        consume(head, self._broadcast_cost)
        members = map(self.by_id.__getitem__, sorted(member_ids))
        reached = [member for member in members if member.energy.residual_energy > 0.0]
        rx = self._rx_table[self.config.traffic.control_bits]
        for member in reached:
            consume(member, rx)
        return reached

    def _handshake(self, head, member_ids):
        """Control exchange: each member the head's broadcast reached replies,
        in id order. A charge reads only its own node's residual, so the
        replies may follow the whole broadcast."""
        bits = self.config.traffic.control_bits
        for member in self._broadcast(head, member_ids):
            self._hop(member, head, bits)

    # ------------------------------------------------------------------
    # low-level charging

    def _hop(self, src, dst, bits, filtered=False) -> bool:
        """One first-order radio transmission of `bits` from `src` to `dst`:
        a live sender pays its link price and a live receiver that does not
        filter the sender (`filtered`) pays the receive price. Returns
        whether the receiver got the packet. The receiving side does not
        ask whether the sender is alive, so a sender that died paying its
        own receive charge just before still bills its receiver."""
        if src.energy.residual_energy > 0.0:  # a memo hit skips the pricing method
            link = self._link_cost.get((src.id, dst.id, bits))
            consume(src, link or self._link_price(src, dst, bits))
        if filtered or dst.energy.residual_energy <= 0.0:
            return False
        consume(dst, self._rx_table[bits])
        return True

    def _link_price(self, node, dst, bits):
        """The joules for `node` to send `bits` to `dst`, priced once per link."""
        key = (node.id, dst.id, bits)
        cost = self._link_cost.get(key)
        if cost is None:
            cost = self._link_cost[key] = tx_cost(self.params, bits, node.distance_to(dst))
        return cost

    def _packet(self, src, dst, slot, bits, valid, sources=()) -> Packet:
        """The sensing-data packet with these fields, built on first use:
        it is frozen, so one instance serves every round that repeats it."""
        key = (src, dst, slot, bits, valid, sources)
        pkt = self._packets.get(key)
        if pkt is None:
            pkt = self._packets[key] = Packet(src, dst, WakeupToken(src, valid), slot, bits, sources)
        return pkt

    # ------------------------------------------------------------------
    # round loop

    def run_round(self) -> RoundReport:
        r = self.round
        nodes = self.nodes
        residual_before = [n.energy.residual_energy for n in nodes]
        suspects_before = set(self.ledgers.suspected)
        # Quarantine only grows, in insertion order, and only in a round's
        # phases: what it held before them marks what the round added.
        self._quarantine_mark = mark = len(self.ledgers.quarantined)
        self._obs = {}
        self._inbox = defaultdict(list)  # receiver id -> packets it received this round, in order
        self._reconfigurations = []

        for phase in self._phases:
            phase(r)

        spent = []  # in node order, which fixes the order of the fold below
        alive_count = 0
        sink = NodeClass.SINK  # a local: enum member lookups are slow
        for node, before in zip(nodes, residual_before):
            residual = node.energy.residual_energy
            spent.append(before - residual)
            if residual > 0.0 and node.node_class is not sink:
                alive_count += 1
        # `malicious` is fixed after set-up, so the confusion counts move
        # only when the quarantine does.
        quarantined = self.ledgers.quarantined
        if len(quarantined) != mark:
            self._confusion = ids_mod.compute_confusion(nodes, quarantined, self.sink.id)
        confusion = self._confusion
        report = RoundReport(
            round=r,
            alive_count=alive_count,
            energy_spent_total=_add_up(spent),
            energy_spent=_Spend(self._spend_index, array("d", spent)),
            suspects_new=sorted(set(self.ledgers.suspected) - suspects_before),
            quarantines_new=sorted(islice(quarantined, mark, None)),
            reconfigurations=self._reconfigurations,
            tp=confusion.tp,
            fp=confusion.fp,
            tn=confusion.tn,
            fn=confusion.fn,
        )
        self.round += 1
        return report

    def _draw_masks(self, r: int):
        """Per-node wake masks for the round, one list of per-slot bits each;
        the own TDMA slot is always awake. Keyed by (round, node) so every
        mode sees the same draw. Each mask is priced here as drawn, once per
        wake pattern through the `_slot_cost` memo, for `_charge_slot_costs`
        to charge; a forced wake sets a bit later (`_run_slots`) and pays
        its own way at delivery.

        Always-on nodes, the sink among them, get no mask: every reader
        checks `always_on` first, and skipping a keyed stream moves no
        other draw."""
        cfg = self.config
        p_listen, p_sleep = self.params.p_listen, self.params.p_sleep
        always_on = self.always_on
        sleepers = [
            node for node in self.nodes
            if node.id not in always_on and node.energy.residual_energy > 0.0
        ]
        rows = self.rng.flip_rows(  # row i: derive("sleep", r, sleepers[i].id)
            ("sleep", r), [node.id for node in sleepers], cfg.slots_per_round,
            cfg.sleep_probability,
        )
        prices = self._slot_cost
        self._masks = masks = {}
        self._duty = duty = []  # (node, its mask's duty joules)
        for node, wake in zip(sleepers, rows):
            wake[node.slot] = True
            masks[node.id] = wake
            mask = tuple(wake)
            cost = prices.get(mask)
            if cost is None:
                if len(prices) >= DUTY_PRICES_KEPT:
                    prices.clear()  # a cleared price is recomputed bit for bit
                cost = prices[mask] = _add_up(p_listen if awake else p_sleep for awake in mask)
            duty.append((node, cost))

    def _emit_attacks(self, r: int):
        """Fix who attacks this round (`_attacking`), then each live one's packets by slot."""
        cfg = self.config
        self._attack_packets = by_slot = {}
        self._attacking = self.attackers if r >= cfg.attack.start_round else frozenset()
        for attacker_id in sorted(self._attacking):
            if self.by_id[attacker_id].energy.residual_energy <= 0.0:
                continue
            stream = self.rng.derive("attack", r, attacker_id)
            neighbors = [
                v for v in self.graph.neighbors(attacker_id)
                if self.by_id[v].energy.residual_energy > 0.0
            ]
            packets = attack_mod.emit_attack_traffic(
                attacker_id, neighbors, self.parent.get(attacker_id), cfg.slots_per_round,
                cfg.attack, cfg.traffic.data_bits, stream, self._packet,
            )
            for pkt in packets:
                by_slot.setdefault(pkt.slot, []).append(pkt)

    def _run_slots(self, r):
        """The round's TDMA slots in order. In each, attack deliveries land
        first: one that finds its victim asleep sets the victim's mask bit,
        so it listens for the rest of the slot. Then every leaf with an
        uplink sends along the route its fragment keeps for it."""
        cfg = self.config
        by_id = self.by_id
        has_edge = self.graph.has_edge
        inbox = self._inbox
        quarantined = self.ledgers.quarantined
        always_on, masks = self.always_on, self._masks
        attack_packets, rx_table = self._attack_packets, self._rx_table
        attacking = self._attacking
        bits = cfg.traffic.data_bits
        rx = rx_table[bits]
        overhear = self._overhear
        for slot, senders in enumerate(self._slot_senders):
            for pkt in attack_packets.get(slot, ()):
                src = by_id[pkt.src]
                if src.energy.residual_energy <= 0.0:
                    continue
                dst, size = by_id[pkt.dst], pkt.payload_size
                price = self._link_price(src, dst, size)
                consume(src, price)
                overhearers = self._overhearers(pkt.src, pkt.dst)
                overhear(overhearers, slot != src.slot, not pkt.token.valid, rx_table[size], price)
                # both ends were alive at the last graph build: nodes only die
                if dst.energy.residual_energy <= 0.0 or not has_edge(pkt.src, pkt.dst):
                    continue
                # alive now, so alive at the draw: a victim not always on has a mask
                wake = None if pkt.dst in always_on else masks[pkt.dst]
                result = attack_mod.apply_deprivation(
                    dst, pkt, wake is None or wake[slot], self.params, pkt.src in quarantined
                )
                if result.woken:
                    wake[slot] = True
                if result.received:
                    inbox[pkt.dst].append(pkt)
            # regular sensing traffic in the owner's slot, along each leaf's route
            for node, routes in senders:
                if node.energy.residual_energy <= 0.0 or node.id in attacking:
                    continue  # active attackers replace sensing with their flood
                route = routes.get(node.id)
                if route is None:
                    route = routes[node.id] = self._route(node, slot, bits)
                parent, pkt, cost, reaches, overhearers = route
                consume(node, cost)
                overhear(overhearers, False, False, rx, cost)  # its own slot, a valid token
                if parent.energy.residual_energy <= 0.0 or not reaches or node.id in quarantined:
                    continue  # the roster is known: a quarantined sender's junk is not picked up
                consume(parent, rx)
                inbox[pkt.dst].append(pkt)

    def _route(self, node, slot, bits) -> tuple:
        """A live leaf's uplink as the slot loop reads it: (parent, packet,
        link price, parent in range, `_overhearers`). The leaf's fragment
        fixes its parent, slot and watchers and keeps the route; nodes only
        die, so a kept range test holds while both ends live."""
        src = node.id
        parent_id = self.parent[src]
        parent = self.by_id[parent_id]
        return (
            parent, self._packet(src, parent_id, slot, bits, True),
            self._link_price(node, parent, bits), self.graph.has_edge(src, parent_id),
            self._overhearers(src, parent_id),
        )

    def _overhearers(self, src, dst) -> tuple:
        """The watchers of `src` in range of it, as (node, observation key,
        pays rx as not the addressee `dst`)."""
        has_edge = self.graph.has_edge
        return tuple(
            (self.by_id[w], (w, src), w != dst)
            for w in self._watchers.get(src, ()) if has_edge(w, src)
        )

    def _overhear(self, overhearers, off_slot, forged, rx, price):
        """Record a transmission with every live, unquarantined overhearer,
        which adds the sender's link `price` to what it saw the sender spend
        and sets the flags the transmission earns (`off_slot`, `forged`).
        Overhearing is not free: a watcher that is not the addressee keeps its
        radio on for the whole packet and pays `rx`, the packet's receive
        price, which makes an always-on promiscuous monitor expensive to run;
        a coordinator watching traffic addressed to itself pays nothing."""
        obs = self._obs
        quarantined = self.ledgers.quarantined
        for watcher, key, pays in overhearers:
            if watcher.energy.residual_energy <= 0.0 or key[0] in quarantined:
                continue
            if (seen := obs.get(key)) is None:
                seen = obs[key] = Observation()
            seen.off_slot |= off_slot
            seen.forged |= forged
            seen.energy_spent += price
            if pays:
                consume(watcher, rx)

    def _senders(self, receiver_id) -> dict:
        """How many packets `receiver_id` received this round from each sender.
        A plain loop: a `Counter` per call cost the field-400 benchmark
        workload about 5% of its rounds per second."""
        counts = {}
        for pkt in self._inbox.get(receiver_id, ()):
            src = pkt.src
            counts[src] = counts.get(src, 0) + 1
        return counts

    def _charge_slot_costs(self, _round):
        """Baseline duty cost by the scheduled state: a forced wake already
        paid the listen/sleep difference at delivery time. Always-on nodes
        listen through every slot; the rest pay the price of their mask."""
        by_id = self.by_id
        always_on_cost = self.params.p_listen * self.config.slots_per_round
        for node_id in self.always_on:
            consume(by_id[node_id], always_on_cost)
        for node, cost in self._duty:
            consume(node, cost)

    def _inject_false_strikes(self, r: int):
        """Scenario hook: a spurious strike charged against a benign node,
        standing in for a misjudgment at the screening layer."""
        quarantined = self.ledgers.quarantined
        for node_id, at_round in self.config.detection.injected_false_strikes:
            if at_round != r:
                continue
            node = self.by_id[node_id]  # validated: a deployed node other than the sink
            if node.energy.residual_energy <= 0.0 or node_id in quarantined:
                continue
            node.trust = trust_penalize(node.trust)
            ids_mod.add_strikes(self.ledgers, node_id, (ids_mod.Reason.ENERGY_RATE,), r)

    # ------------------------------------------------------------------
    # detection ladder

    def _sids_stage(self, r):
        """Every watcher, cluster by cluster as each fragment lists them,
        screens its live subjects, ids ascending, each with its observation
        or None. A watcher that received from a subject also overheard it,
        so each observation counts its packets from `_inbox`."""
        obs = self._obs
        by_id = self.by_id
        screens = [screen for c in self.clusters for screen in self._fragments[c.id].screens]
        for watcher_id, subject_ids in screens:
            if not self._usable_judge(watcher_id):
                continue  # a compromised screen simply stops screening
            received = self._senders(watcher_id)
            screen = []
            for s in subject_ids:
                if (node := by_id[s]).energy.residual_energy > 0.0:
                    if (seen := obs.get((watcher_id, s))) is not None:
                        seen.packets_to_watcher = received.get(s, 0)
                    screen.append((node, seen))
            ids_mod.sids_check(
                by_id[watcher_id], screen, self.allowance, self.config.detection, self.params,
                self.ledgers, r,
            )

    def _forwarding_stage(self, r):
        """Sector coordinators aggregate their valid leaf traffic upward. The
        last sweep re-formed every cluster without its quarantined role
        holders, so none is filtered here."""
        cfg = self.config
        bits = cfg.traffic.aggregate_bits
        relays = []  # (forwarding head, sector coordinator) pairs, flattened
        for cluster in self.clusters:
            cc = self.by_id[cluster.coordinator]
            for sector in cluster.sectors:
                sc = self.by_id[sector.coordinator]
                if sc.energy.residual_energy <= 0.0:
                    continue
                # Only attack packets carry invalid tokens; the rest are its
                # leaves' sends, each once a round and unquarantined when it
                # sent, and nothing quarantines before this stage: the ids
                # need neither a roster filter nor a dedup.
                sources = sorted([p.src for p in self._inbox.get(sc.id, ()) if p.token.valid])
                sources.append(sc.id)  # own reading rides along
                agg = self._packet(
                    sc.id, self.parent[sc.id],
                    AGGREGATE_SLOT, bits, sc.id not in self._attacking, tuple(sources),
                )
                hop = self.by_id[agg.dst]
                if not self._hop(sc, hop, bits):
                    continue
                if hop.id != cluster.coordinator:
                    # forwarding head relays to the coordinator
                    relays += (hop.id, sc.id)
                    if cc.energy.residual_energy <= 0.0 or not self._hop(hop, cc, bits):
                        continue
                self._inbox[cluster.coordinator].append(agg)  # `agg.dst` is the relay
        self.ledgers.forwarding_log.extend(r, relays)

    def _monitor_stage(self, r):
        """Sector monitors pass window verdicts over every open suspect."""
        cfg = self.config
        for suspect_id in sorted(self.ledgers.suspected):
            if suspect_id in self.ledgers.quarantined:
                continue
            judges = self._judges_for(suspect_id)
            if not judges:
                continue
            suspect = self.by_id[suspect_id]
            entry = self.ledgers.suspected[suspect_id]
            for judge_id in judges:  # every judge checks; the last one's verdict stands
                decision = ids_mod.exids_decide(
                    self.by_id[judge_id], suspect, entry, r, cfg.detection, self.params
                )
            self.ledgers.decision_log.append((r, judges[-1], suspect_id, decision))
            if decision is Decision.MALICIOUS:
                ids_mod.quarantine(self.ledgers, suspect_id, r)
                self._broadcast_roster_update(suspect_id)
            elif decision is Decision.REHABILITATED:
                ids_mod.rehabilitate(self.ledgers, suspect)

    def _usable_judge(self, node_id) -> bool:
        """A detection role holder that has not failed and is not an active attacker."""
        return not self._role_failed(node_id) and node_id not in self._attacking

    def _judges_for(self, suspect_id):
        """Monitors of the suspect's own sector judge it; lacking those, any
        monitor of the cluster, then the coordinator. A suspect nobody local
        can judge (typically a coordinator gone bad) escalates to the sink."""
        cluster = self._cluster_index.get(suspect_id)
        if cluster is not None:
            own_sector = []
            cluster_wide = []
            for sector in cluster.sectors:
                usable = [
                    m for m in sector.monitors
                    if m != suspect_id and self._usable_judge(m)
                ]
                cluster_wide.extend(usable)
                if suspect_id in sector.leaves or suspect_id == sector.coordinator:
                    own_sector.extend(usable)
            pool = own_sector or cluster_wide
            if pool:
                return sorted(set(pool))
            cc_id = cluster.coordinator
            if cc_id != suspect_id and self._usable_judge(cc_id):
                return [cc_id]
        if self._usable_judge(self.sink.id):
            return [self.sink.id]
        return []

    def _sink_stage(self, r):
        """Coordinators validate their inbox and the sink re-validates theirs,
        after screening the raw traffic that reached it directly (a coordinator
        gone rogue floods its uplink like everyone else) for the strikes it
        earns. A sink whose detection budget is spent validates nothing more."""
        cfg = self.config
        sink = self.sink
        inbox = self._inbox

        def validate(validator, pkt, expected_slot, packets_from_src):
            return ids_mod.cc_validate(
                validator, pkt, expected_slot, packets_from_src,
                self.ledgers, self.allowance, cfg.detection, self.params, r,
            )

        received = self._senders(sink.id)
        for pkt in sorted(inbox.get(sink.id, ()), key=lambda p: (p.src, p.slot)):
            if not sink.energy.detection_enabled:
                break
            validate(sink, pkt, self.by_id[pkt.src].slot, received[pkt.src])
        sink_inbox = []
        validated = []
        for cluster in self.clusters:
            cc = self.by_id[cluster.coordinator]
            if cc.energy.residual_energy <= 0.0:
                continue
            cc_active_attacker = cc.id in self._attacking
            accepted_sources = []
            received = self._senders(cc.id)
            for pkt in sorted(inbox.get(cc.id, ()), key=lambda p: (p.src, p.slot)):
                if not cc.energy.detection_enabled or cc_active_attacker:
                    # an unguarded coordinator forwards whatever it received
                    accepted_sources.extend(pkt.sources or (pkt.src,))
                    continue
                subject = self.by_id[pkt.src]
                expected_slot = AGGREGATE_SLOT if pkt.slot == AGGREGATE_SLOT else subject.slot
                if validate(cc, pkt, expected_slot, received[pkt.src]).accepted:
                    sources = pkt.sources or (pkt.src,)
                    validated += sources
                    accepted_sources += sources
            if not accepted_sources:
                continue
            agg = self._packet(
                cc.id, sink.id, AGGREGATE_SLOT, cfg.traffic.aggregate_bits,
                not cc_active_attacker, tuple(sorted(set(accepted_sources))),
            )
            if self._hop(cc, sink, agg.payload_size, cc.id in self.ledgers.quarantined):
                sink_inbox.append(agg)
        self.ledgers.valid_log.extend(r, validated)
        delivered = []
        for pkt in sorted(sink_inbox, key=lambda p: p.src):
            if not sink.energy.detection_enabled:
                break
            if validate(sink, pkt, AGGREGATE_SLOT, 1).accepted:
                delivered.append(pkt.src)
                delivered += pkt.sources
        self.ledgers.sn_log.extend(r, delivered)

    def _isolate_suspects(self, r):
        """Baseline verdict: a single strike suffices; no window, no
        rehabilitation, ever."""
        for suspect_id in sorted(self.ledgers.suspected):
            if suspect_id in self.ledgers.quarantined:
                continue
            ids_mod.quarantine(self.ledgers, suspect_id, r)
            self.ledgers.decision_log.append((r, None, suspect_id, Decision.MALICIOUS))
            self._broadcast_roster_update(suspect_id)

    def _forward_received(self, r):
        """Baseline uplink: each coordinator forwards whatever its
        non-isolated members sent it."""
        cfg = self.config
        delivered = []
        for cluster in self.clusters:
            cc = self.by_id[cluster.coordinator]
            if cc.energy.residual_energy <= 0.0:
                continue
            sources = sorted(
                {p.src for p in self._inbox.get(cc.id, ())}.difference(self.ledgers.quarantined)
            )
            if not sources:
                continue
            if self._hop(cc, self.sink, cfg.traffic.aggregate_bits):
                delivered.append(cc.id)
                delivered += sources
        self.ledgers.sn_log.extend(r, delivered)

    def _broadcast_roster_update(self, node_id):
        """Cluster-wide notice that a node was isolated; receivers filter
        its traffic from now on."""
        cluster = self._cluster_index.get(node_id)
        if cluster is not None:
            self._broadcast(self.by_id[cluster.coordinator], cluster.members)

    # ------------------------------------------------------------------
    # reconfiguration

    def _role_failed(self, node_id) -> bool:
        """Detection-role holders fail on death, quarantine, or exhausted
        detection budget."""
        node = self.by_id[node_id]
        return (
            node.energy.residual_energy <= 0.0
            or node_id in self.ledgers.quarantined
            or not node.energy.detection_enabled
        )

    def _check_cluster(self, cluster) -> Event | None:
        """The first reason the cluster must rebuild, or None; the sweep also
        replaces the coordinator on a coordinator kind. Rotation maintains the
        defining invariants within a hysteresis band: the coordinator holds
        the best capacity, a sector coordinator the best residual energy.

        Capacity and charge are never negative, so a best of 0.0 stands in
        for an empty pool: nothing is below it. A dead leaf's charge is 0.0,
        so it never raises the bar either."""
        cfg = self.config
        by_id = self.by_id
        quarantined = self.ledgers.quarantined
        hysteresis = cfg.rotation_hysteresis
        role_failed = self._role_failed
        if role_failed(cluster.coordinator):
            return Event(Change.COORDINATOR_FAILED, cluster.id, cluster.coordinator)
        reputation_min = cfg.detection.reputation_min
        graph = self.graph
        capacity, cc_eligible = topo.capacity, topo.cc_eligible
        best = 0.0
        # leaders a cleanup dropped this sweep are quarantined, so never eligible
        for node in self._fragments[cluster.id].leaders:
            if cc_eligible(node, quarantined, reputation_min):
                held = capacity(node, graph)
                if held > best:
                    best = held
        if capacity(by_id[cluster.coordinator], graph) < hysteresis * best:
            return Event(Change.COORDINATOR_ROTATED, cluster.id, cluster.coordinator)
        for sector in cluster.sectors:
            if role_failed(sector.coordinator):
                return Event(Change.SECTOR_COORDINATOR_FAILED, cluster.id, sector.coordinator)
            fsh = sector.fsh
            if fsh is not None and (by_id[fsh].energy.residual_energy <= 0.0 or fsh in quarantined):
                return Event(Change.FORWARDING_HEAD_FAILED, cluster.id, fsh)
            if sector.monitors and all(map(role_failed, sector.monitors)):
                return Event(Change.MONITORS_FAILED, cluster.id, sector.coordinator)
            best = 0.0
            for leaf_id in sector.leaves:
                charge = by_id[leaf_id].energy.residual_energy
                if charge > best and leaf_id not in quarantined:
                    best = charge
            if by_id[sector.coordinator].energy.residual_energy < hysteresis * best:
                return Event(Change.SECTOR_ROTATED, cluster.id, sector.coordinator)
        return None

    def _reconfiguration_sweep(self, _round):
        cfg = self.config
        events = self._reconfigurations
        self._refresh_graph()
        quarantined = self.ledgers.quarantined
        cleaned = set()  # ids of the clusters whose rosters lost a quarantined node
        if len(quarantined) != self._quarantine_mark:
            # Isolated nodes leave the roster. No roster takes a quarantined
            # node back, so only a round that quarantined someone can find one.
            for cluster in self.clusters:
                for roster in (cluster.members, *(s.leaves for s in cluster.sectors)):
                    if not roster.isdisjoint(quarantined):
                        roster.difference_update(quarantined)
                        cleaned.add(cluster.id)
        surviving, rebuilt, stranded = [], [], []
        for cluster in self.clusters:
            event = self._check_cluster(cluster)
            if event is None:
                surviving.append(cluster)
                continue
            events.append(event)
            pool = {
                m for m in (cluster.coordinator, *cluster.members)
                if self.by_id[m].energy.residual_energy > 0.0 and m not in quarantined
            }
            if event.kind in (Change.COORDINATOR_FAILED, Change.COORDINATOR_ROTATED):
                eligible = [
                    node for node in map(self.by_id.__getitem__, pool)
                    if topo.cc_eligible(node, quarantined, cfg.detection.reputation_min)
                    and node.energy.detection_enabled
                ]
                if not eligible:
                    events.append(Event(Change.DISSOLVED, cluster.id, None))
                    stranded.extend(sorted(pool))
                    continue
                new_cc = min(eligible, key=lambda n: topo.cc_rank(n, self.graph, self.sink))
                if new_cc.id != cluster.coordinator:
                    events.append(Event(Change.COORDINATOR_CHANGED, cluster.id, new_cc.id))
                cluster.coordinator = new_cc.id
                others = pool - {new_cc.id}
                cluster.members = {m for m in others if self.graph.has_edge(m, new_cc.id)}
                stranded.extend(others - cluster.members)
            else:
                cluster.members = pool - {cluster.coordinator}
            surviving.append(cluster)
            rebuilt.append(cluster)
        self.clusters = surviving
        for node_id in sorted(set(stranded) | self.orphans):
            self._try_adopt(node_id)
        # every event names a cluster whose fragment went stale
        dirty = cleaned.union(event.cluster for event in events)
        if dirty:
            self._build_structures(rebuilt, dirty)
        if rebuilt:
            self._charge_formation(rebuilt)

    def _try_adopt(self, node_id):
        """Attach a stranded node to the nearest coordinator in range, or
        keep it an orphan."""
        node = self.by_id[node_id]
        if node.energy.residual_energy <= 0.0 or node_id in self.ledgers.quarantined:
            self.orphans.discard(node_id)
            return
        candidates = [
            c for c in self.clusters
            if self.by_id[c.coordinator].energy.residual_energy > 0.0
            and self.graph.has_edge(node_id, c.coordinator)
        ]
        if not candidates:
            self.orphans.add(node_id)
            return
        best = min(
            candidates,
            key=lambda c: (node.distance_to(self.by_id[c.coordinator]), c.coordinator),
        )
        best.members.add(node_id)
        self.orphans.discard(node_id)
        self._hop(node, self.by_id[best.coordinator], self.config.traffic.control_bits)
        self._reconfigurations.append(Event(Change.ADOPTED, best.id, node_id))

    # ------------------------------------------------------------------

    def alive_non_sink(self) -> int:
        return sum(
            1 for n in self.nodes
            if n.node_class is not NodeClass.SINK and n.energy.residual_energy > 0.0
        )

    def snapshot_trace(self) -> SimulationTrace:
        if self._mode.static_monitors:
            monitor_count = sum(len(m) for m in self.monitors.values())
        else:
            monitor_count = sum(1 for n in self.nodes if n.role is Role.SM)
        return SimulationTrace(
            config=config_to_dict(self.config),
            seed=self.config.seed,
            attacker_ids=sorted(self.attackers),
            positions={n.id: (n.position.x, n.position.y) for n in self.nodes},
            cluster_count=len(self.clusters),
            sector_count=sum(len(c.sectors) for c in self.clusters),
            monitor_count=monitor_count,
            initial_energy={n.id: n.energy.initial_energy for n in self.nodes},
            init_energy_spent=dict(self.init_energy_spent),
        )


class _Mode(NamedTuple):  # a row of `_MODES`, read once by `Simulation.__init__`
    screens: object  # unbound: who screens whom inside one cluster
    ladder: tuple  # the unbound phases that close the round
    sectors: bool  # whether `_build_structures` forms sectors
    static_monitors: bool  # whether `_initialize` fixes monitors and `snapshot_trace` counts them


_LAYERED = (
    Simulation._sids_stage, Simulation._forwarding_stage, Simulation._monitor_stage,
    Simulation._sink_stage, Simulation._reconfiguration_sweep,
)
_BASELINE = (Simulation._sids_stage, Simulation._isolate_suspects, Simulation._forward_received)
_MODES = {
    "imids": _Mode(Simulation._sector_screens, _LAYERED, True, False),
    "imids-no-sectors": _Mode(Simulation._member_screens, _LAYERED, False, False),
    "itids": _Mode(Simulation._monitor_screens, _BASELINE, False, True),  # never reconfigures
}


def run_round(sim: Simulation) -> RoundReport:
    if sim.alive_non_sink() == 0:
        raise RuntimeError("cannot run a round: every non-sink node is dead")
    return sim.run_round()


def run_simulation(config: ScenarioConfig) -> SimulationTrace:
    sim = Simulation(config)
    trace = sim.snapshot_trace()
    alive = sim.alive_non_sink()
    for _ in range(config.rounds):
        if alive == 0:
            trace.extinction_round = sim.round
            break
        report = sim.run_round()
        trace.reports.append(report)
        alive = report.alive_count
    trace.final_energy = {n.id: n.energy.residual_energy for n in sim.nodes}
    trace.final_confusion = sim._confusion
    trace.ledgers = sim.ledgers
    return trace
