"""Two-stage anomaly detection with trust, quarantine, and audit ledgers.

Stage one (run by sector coordinators) screens each watched node against
four rules: energy draw above the allowed rate, transmission outside the
node's own slot, an invalid wake-up token, and packet counts above the
flood threshold. Every firing rule is one strike. A watcher estimates the
draw from what it hears, the link price of each transmission of the node
(`Observation.energy_spent`), so listening and forced wakes do not count.
Stage two (run by sector monitors) watches strikes over a sliding window
and either condemns, rehabilitates, or keeps waiting. Cluster coordinators
and the sink re-validate forwarded packets so a compromised lower layer
cannot launder traffic: each packet becomes an observation of its own and
goes through `evaluate_rules`, the one place the four rules are written. A
drop there feeds a strike back to the origin's suspect entry.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import repeat

from .config import DetectionConfig  # declared with every section
from .core import TRUST_MAX, SensorNode, trust_penalize, trust_reward
from .energy import EnergyParams, charge_detection


class DisabledIds(Exception):
    """Raised when a node is asked to detect with an exhausted budget."""


class Reason(Enum):
    ENERGY_RATE = "energy_rate"
    SCHEDULE_VIOLATION = "schedule_violation"
    INVALID_TOKEN = "invalid_token"
    PACKET_FLOOD = "packet_flood"


class Decision(Enum):
    MALICIOUS = "malicious"
    REHABILITATED = "rehabilitated"
    PENDING = "pending"


@dataclass(frozen=True)
class NormalProfile:
    """Pre-set allowance every screened node is held to, fixed for the run."""

    expected_energy_rate: float  # J per round


@dataclass(slots=True)
class Observation:
    """What a watcher saw of one subject during one round."""

    energy_spent: float = 0.0  # the link price of what it overheard the subject send
    off_slot: bool = False  # some of that went outside the subject's own slot
    forged: bool = False  # some of that bore an invalid token
    packets_to_watcher: int = 0  # what it received from the subject


# What a silent subject shows; shared, so never written.
_NOTHING_SEEN = Observation()


@dataclass(slots=True)
class SuspectedEntry:
    first_round: int
    last_strike_round: int
    reasons: list = field(default_factory=list)  # one per strike


class _RoundLog:
    """A delivery log of `(round, *ids)` entries, `width` fields each, kept as
    int arrays instead of one tuple per entry: every id in entry order, and a
    round index of each run's round number and the offset where its ids end
    (a round logged in consecutive batches is one run). Node ids and rounds are
    4-byte ints. It reads as the list of tuples it stands for: iteration,
    `len`, `==` (with a list or another log), `+` (a list) and `repr` all go
    through the tuples; `list(log)` is a mutable copy."""

    __slots__ = ("_width", "_ids", "_rounds", "_ends")

    def __init__(self, width):
        self._width = width
        self._ids = array("i")
        self._rounds = array("i")
        self._ends = array("q")

    def extend(self, r, ids):
        """Log round `r`'s entries, their ids flattened in entry order."""
        if not ids:
            return
        self._ids.extend(ids)
        if self._rounds and self._rounds[-1] == r:
            self._ends[-1] = len(self._ids)
        else:
            self._rounds.append(r)
            self._ends.append(len(self._ids))

    def __iter__(self):
        ids = self._ids
        per_entry = self._width - 1
        start = 0
        for r, end in zip(self._rounds, self._ends):
            run = iter(ids[start:end])
            yield from zip(repeat(r), *(run,) * per_entry)
            start = end

    def __len__(self):
        return len(self._ids) // (self._width - 1)

    def __eq__(self, other):
        if isinstance(other, (_RoundLog, list)):
            return list(self) == list(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (_RoundLog, list)):
            return list(self) + list(other)
        return NotImplemented

    def __repr__(self):
        return repr(list(self))


@dataclass
class Ledgers:
    """Run-wide audit state: suspects, quarantine, and delivery logs."""

    suspected: dict = field(default_factory=dict)       # node -> SuspectedEntry
    quarantined: dict = field(default_factory=dict)     # node -> round
    # The delivery logs, each fed one batch per round:
    # (round, source id) a coordinator validated, and one the sink accepted
    valid_log: _RoundLog = field(default_factory=partial(_RoundLog, 2))
    sn_log: _RoundLog = field(default_factory=partial(_RoundLog, 2))
    # (round, forwarding head, sector coordinator)
    forwarding_log: _RoundLog = field(default_factory=partial(_RoundLog, 3))
    decision_log: list = field(default_factory=list)    # (round, judge, node, Decision)


def add_strikes(ledgers: Ledgers, node_id: int, reasons, current_round: int) -> SuspectedEntry:
    entry = ledgers.suspected.get(node_id)
    if entry is None:
        entry = ledgers.suspected[node_id] = SuspectedEntry(current_round, current_round)
    entry.last_strike_round = current_round
    entry.reasons.extend(reasons)
    return entry


def evaluate_rules(observation: Observation, profile: NormalProfile, config: DetectionConfig) -> tuple:
    """The four anomaly rules on one observation, in `Reason` order."""
    reasons = []
    if observation.energy_spent > config.rate_threshold * profile.expected_energy_rate:
        reasons.append(Reason.ENERGY_RATE)
    if observation.off_slot:
        reasons.append(Reason.SCHEDULE_VIOLATION)
    if observation.forged:
        reasons.append(Reason.INVALID_TOKEN)
    if observation.packets_to_watcher > config.count_threshold:
        reasons.append(Reason.PACKET_FLOOD)
    return tuple(reasons)


def sids_check(
    watcher: SensorNode,
    screen: list,
    profile: NormalProfile,
    config: DetectionConfig,
    params: EnergyParams,
    ledgers: Ledgers,
    current_round: int,
) -> None:
    """Screen each unquarantined (subject, observation or None if it was
    silent) pair of `screen`, in order; record strikes and adjust trust.

    Charges one detection unit per subject. If the watcher's budget runs
    out mid-pass the remaining subjects go unchecked this round and the
    caller sees the watcher disabled afterwards.
    """
    if not watcher.energy.detection_enabled:
        raise DisabledIds(f"node {watcher.id} cannot run checks")
    quarantined = ledgers.quarantined
    for subject, observation in screen:
        if subject.id in quarantined:
            continue
        disabled = charge_detection(watcher, params)
        reasons = evaluate_rules(observation or _NOTHING_SEEN, profile, config)
        if reasons:
            subject.trust = trust_penalize(subject.trust)
            add_strikes(ledgers, subject.id, reasons, current_round)
        elif subject.trust.nibble < TRUST_MAX:  # full trust has nothing to gain
            subject.trust = trust_reward(subject.trust)
        if disabled:
            break


def exids_decide(
    monitor: SensorNode,
    suspect: SensorNode,
    entry: SuspectedEntry,
    current_round: int,
    config: DetectionConfig,
    params: EnergyParams,
) -> Decision:
    """Window verdict for one suspect.

    Condemn on strike_limit strikes or trust under the floor; clear the
    suspect after a full window without a new strike; otherwise wait.
    """
    if not monitor.energy.detection_enabled:
        raise DisabledIds(f"node {monitor.id} cannot run checks")
    charge_detection(monitor, params)
    if len(entry.reasons) >= config.strike_limit or suspect.trust.nibble < config.trust_floor:
        return Decision.MALICIOUS
    if current_round - entry.last_strike_round >= config.window_rounds:
        return Decision.REHABILITATED
    return Decision.PENDING


def quarantine(ledgers: Ledgers, node_id: int, current_round: int) -> bool:
    """Add a node to the quarantine roster. Idempotent; returns True if new."""
    if node_id in ledgers.quarantined:
        return False
    ledgers.quarantined[node_id] = current_round
    return True


def rehabilitate(ledgers: Ledgers, suspect: SensorNode) -> None:
    """Drop the suspect entry and give the trust counter a step back."""
    ledgers.suspected.pop(suspect.id, None)
    suspect.trust = trust_reward(suspect.trust)


@dataclass(frozen=True, slots=True)
class ValidationResult:
    accepted: bool
    reasons: tuple = ()


# The verdicts that carry no reasons; frozen, so one instance serves all.
_ACCEPTED = ValidationResult(accepted=True)
_DROPPED_QUARANTINED = ValidationResult(accepted=False)


def cc_validate(
    validator: SensorNode,
    packet,
    expected_slot: int,
    packets_from_src: int,
    ledgers: Ledgers,
    profile: NormalProfile,
    config: DetectionConfig,
    params: EnergyParams,
    current_round: int,
) -> ValidationResult:
    """Re-validate one packet at coordinator or sink scope.

    The packet is screened through `evaluate_rules` as all the validator
    saw of its source (nothing overheard, so no energy rate), so traffic a
    compromised lower layer waved through still gets dropped here. A drop
    is a caught false negative: the source collects a fresh strike.
    """
    if not validator.energy.detection_enabled:
        raise DisabledIds(f"node {validator.id} cannot validate")
    charge_detection(validator, params)
    if packet.src in ledgers.quarantined:
        return _DROPPED_QUARANTINED
    seen = Observation(
        off_slot=packet.slot != expected_slot,
        forged=not packet.token.valid,
        packets_to_watcher=packets_from_src,
    )
    reasons = evaluate_rules(seen, profile, config)
    if reasons:
        add_strikes(ledgers, packet.src, reasons, current_round)
        return ValidationResult(accepted=False, reasons=reasons)
    return _ACCEPTED


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else 1.0

    @property
    def detection_rate(self) -> float:
        positives = self.tp + self.fn
        return self.tp / positives if positives else 1.0


def compute_confusion(nodes, quarantined_ids, sink_id: int = 0) -> Confusion:
    """Per-node classification against ground truth, sink excluded."""
    tp = fp = tn = fn = 0
    for node in nodes:
        if node.id == sink_id:
            continue
        isolated = node.id in quarantined_ids
        if node.malicious and isolated:
            tp += 1
        elif node.malicious and not isolated:
            fn += 1
        elif not node.malicious and isolated:
            fp += 1
        else:
            tn += 1
    return Confusion(tp=tp, fp=fp, tn=tn, fn=fn)
