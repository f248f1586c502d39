import copy
import pickle
from collections import Counter
from itertools import groupby
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imids_sim.core import (
    Packet,
    PacketKind,
    Role,
    TrustState,
    WakeupToken,
)
from imids_sim.energy import EnergyParams, assign_detection_budget
from imids_sim.engine import Simulation
from imids_sim.ids import (
    Decision,
    DetectionConfig,
    DisabledIds,
    Ledgers,
    NormalProfile,
    Observation,
    Reason,
    SuspectedEntry,
    _RoundLog,
    add_strikes,
    cc_validate,
    compute_confusion,
    evaluate_rules,
    exids_decide,
    quarantine,
    rehabilitate,
    sids_check,
)

from conftest import build_node

P = EnergyParams()
CFG = DetectionConfig()  # window 5, strikes 3, trust floor 8, 1.5x / 2.0x
PROFILE = NormalProfile(expected_energy_rate=1e-3)


def _subject(node_id=7, slot=2):
    node = build_node(node_id, energy=0.2)
    node.slot = slot
    return node


def _watcher(node_id=3):
    node = build_node(node_id, energy=2.0, role=Role.SC)
    assign_detection_budget(node, Role.SC)
    return node


# --- the four screening rules, one by one ---------------------------------


def test_rule_energy_rate():
    obs = Observation(energy_spent=1.6e-3)  # above 1.5 * 1e-3
    assert evaluate_rules(obs, PROFILE, CFG) == (Reason.ENERGY_RATE,)
    obs_ok = Observation(energy_spent=1.4e-3)
    assert evaluate_rules(obs_ok, PROFILE, CFG) == ()


def test_rule_schedule_violation():
    assert evaluate_rules(Observation(off_slot=True), PROFILE, CFG) == (Reason.SCHEDULE_VIOLATION,)
    assert evaluate_rules(Observation(off_slot=False), PROFILE, CFG) == ()


def test_rule_invalid_token():
    assert evaluate_rules(Observation(forged=True), PROFILE, CFG) == (Reason.INVALID_TOKEN,)


def test_rule_packet_flood():
    obs = Observation(packets_to_watcher=3)  # above 2.0
    assert evaluate_rules(obs, PROFILE, CFG) == (Reason.PACKET_FLOOD,)
    obs_ok = Observation(packets_to_watcher=2)
    assert evaluate_rules(obs_ok, PROFILE, CFG) == ()


def test_all_rules_fire_together():
    obs = Observation(energy_spent=5e-3, off_slot=True, forged=True, packets_to_watcher=9)
    assert set(evaluate_rules(obs, PROFILE, CFG)) == {
        Reason.ENERGY_RATE,
        Reason.SCHEDULE_VIOLATION,
        Reason.INVALID_TOKEN,
        Reason.PACKET_FLOOD,
    }


def two_pass_rules(own_slot, tx_events, energy_spent, packets, profile, config):
    """The four rules read straight off a subject's transmissions, as
    (slot, token valid) pairs, with one `any()` pass per token rule."""
    reasons = []
    if energy_spent > config.rate_threshold * profile.expected_energy_rate:
        reasons.append(Reason.ENERGY_RATE)
    if any(slot != own_slot for slot, _valid in tx_events):
        reasons.append(Reason.SCHEDULE_VIOLATION)
    if any(not valid for _slot, valid in tx_events):
        reasons.append(Reason.INVALID_TOKEN)
    if packets > config.count_threshold:
        reasons.append(Reason.PACKET_FLOOD)
    return tuple(reasons)


@settings(deadline=None, max_examples=300)
@given(
    own_slot=st.integers(0, 2),  # a narrow slot range, so events often match it
    tx_events=st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=6),
    energy_spent=st.floats(0.0, 4e-3),  # straddles the 1.5e-3 rate limit
    packets=st.integers(0, 5),           # straddles the 2-packet flood limit
)
def test_rules_in_one_pass_equal_the_two_pass_reference(
    own_slot, tx_events, energy_spent, packets
):
    """The engine folds each overheard transmission into the observation's
    two flags as it happens (`Simulation._overhear`); the rules on the folded
    observation must equal the two-pass reading of the transmissions."""
    watcher, key = _watcher(), (3, 7)
    sim = SimpleNamespace(_obs={}, ledgers=Ledgers())
    for slot, valid in tx_events:
        Simulation._overhear(sim, ((watcher, key, False),), slot != own_slot, not valid, 0.0, 0.0)
    assert (key in sim._obs) == bool(tx_events)  # a silent subject leaves no observation
    obs = sim._obs.get(key, Observation())
    obs.energy_spent, obs.packets_to_watcher = energy_spent, packets
    assert evaluate_rules(obs, PROFILE, CFG) == two_pass_rules(
        own_slot, tx_events, energy_spent, packets, PROFILE, CFG
    )


# --- screening pass --------------------------------------------------------


def test_sids_strikes_and_trust_penalty():
    watcher = _watcher()
    subject = _subject()
    ledgers = Ledgers()
    screen = [(subject, Observation(packets_to_watcher=5))]
    sids_check(watcher, screen, PROFILE, CFG, P, ledgers, current_round=4)
    assert 7 in ledgers.suspected
    assert subject.trust.nibble == 14
    entry = ledgers.suspected[7]
    assert entry.reasons == [Reason.PACKET_FLOOD] and entry.last_strike_round == 4


def test_sids_rewards_clean_subject():
    watcher = _watcher()
    subject = _subject()
    subject.trust = TrustState(nibble=10)
    ledgers = Ledgers()
    sids_check(watcher, [(subject, None)], PROFILE, CFG, P, ledgers, 0)
    assert subject.trust.nibble == 11
    assert 7 not in ledgers.suspected


def test_sids_skips_quarantined_and_charges_watcher():
    watcher = _watcher()
    subject = _subject()
    ledgers = Ledgers()
    quarantine(ledgers, 7, 0)
    before = watcher.energy.residual_energy
    flood = [(subject, Observation(packets_to_watcher=5))]  # would strike if checked
    sids_check(watcher, flood, PROFILE, CFG, P, ledgers, 1)
    assert 7 not in ledgers.suspected
    assert watcher.energy.residual_energy == before  # nothing checked


def test_sids_raises_for_disabled_watcher():
    watcher = _watcher()
    watcher.energy.detection_enabled = False
    with pytest.raises(DisabledIds):
        sids_check(watcher, [], PROFILE, CFG, P, Ledgers(), 0)


# --- window decisions ------------------------------------------------------


def test_exids_condemns_on_strike_limit():
    entry = SuspectedEntry(first_round=0, last_strike_round=2, reasons=[Reason.PACKET_FLOOD] * 3)
    decision = exids_decide(_watcher(), _subject(), entry, 3, CFG, P)
    assert decision is Decision.MALICIOUS


def test_exids_condemns_on_trust_floor():
    subject = _subject()
    subject.trust = TrustState(nibble=7)
    entry = SuspectedEntry(first_round=0, last_strike_round=2, reasons=[Reason.PACKET_FLOOD])
    assert exids_decide(_watcher(), subject, entry, 3, CFG, P) is Decision.MALICIOUS


def test_exids_rehabilitates_after_quiet_window():
    entry = SuspectedEntry(first_round=0, last_strike_round=2, reasons=[Reason.PACKET_FLOOD])
    assert exids_decide(_watcher(), _subject(), entry, 7, CFG, P) is Decision.REHABILITATED
    assert exids_decide(_watcher(), _subject(), entry, 6, CFG, P) is Decision.PENDING


def test_exids_malice_beats_rehabilitation():
    entry = SuspectedEntry(first_round=0, last_strike_round=0, reasons=[Reason.PACKET_FLOOD] * 3)
    assert exids_decide(_watcher(), _subject(), entry, 99, CFG, P) is Decision.MALICIOUS


def test_quarantine_records_round_once():
    ledgers = Ledgers()
    assert quarantine(ledgers, 7, 4) is True
    assert quarantine(ledgers, 7, 9) is False
    assert ledgers.quarantined[7] == 4


def test_rehabilitate_clears_entry_and_rewards():
    ledgers = Ledgers()
    subject = _subject()
    subject.trust = TrustState(nibble=9)
    add_strikes(ledgers, 7, (Reason.ENERGY_RATE,), 0)
    rehabilitate(ledgers, subject)
    assert 7 not in ledgers.suspected
    assert subject.trust.nibble == 10


# --- coordinator validation ------------------------------------------------


def _data_packet(src, slot, valid=True):
    return Packet(
        src=src,
        dst=1,
        kind=PacketKind.SENSOR_DATA,
        token=WakeupToken(owner=src, valid=valid),
        slot=slot,
        payload_size=3000,
    )


def _validator():
    node = build_node(1, energy=2.0, role=Role.CC)
    assign_detection_budget(node, Role.CC)
    return node


def test_cc_validate_accepts_clean_packet():
    ledgers = Ledgers()
    result = cc_validate(
        _validator(), _data_packet(7, 2), 2, 1, ledgers, PROFILE, CFG, P, 0
    )
    assert result.accepted
    assert 7 not in ledgers.suspected


def test_cc_validate_strikes_invalid_token():
    ledgers = Ledgers()
    result = cc_validate(
        _validator(), _data_packet(7, 2, valid=False), 2, 1, ledgers, PROFILE, CFG, P, 0
    )
    assert not result.accepted
    assert Reason.INVALID_TOKEN in ledgers.suspected[7].reasons


def test_cc_validate_strikes_wrong_slot():
    ledgers = Ledgers()
    result = cc_validate(
        _validator(), _data_packet(7, 5), 2, 1, ledgers, PROFILE, CFG, P, 0
    )
    assert not result.accepted
    assert Reason.SCHEDULE_VIOLATION in ledgers.suspected[7].reasons


def test_cc_validate_strikes_flood():
    ledgers = Ledgers()
    result = cc_validate(
        _validator(), _data_packet(7, 2), 2, 5, ledgers, PROFILE, CFG, P, 0
    )
    assert not result.accepted
    assert Reason.PACKET_FLOOD in ledgers.suspected[7].reasons


def test_cc_validate_drops_quarantined_silently():
    ledgers = Ledgers()
    quarantine(ledgers, 7, 0)
    result = cc_validate(
        _validator(), _data_packet(7, 2), 2, 1, ledgers, PROFILE, CFG, P, 1
    )
    assert not result.accepted
    assert 7 not in ledgers.suspected  # no new strikes, just dropped


@settings(deadline=None, max_examples=300)
@given(
    valid=st.booleans(),
    slot=st.integers(-1, 2),  # -1 is the aggregate slot
    expected_slot=st.integers(-1, 2),
    count=st.integers(0, 5),  # straddles the 2-packet flood limit
)
def test_cc_validate_strikes_as_the_three_rule_reference(valid, slot, expected_slot, count):
    """Re-validation goes through `evaluate_rules`; its strikes must be the
    token, schedule and flood rules written out on the packet itself."""
    ledgers = Ledgers()
    result = cc_validate(
        _validator(), _data_packet(7, slot, valid), expected_slot, count,
        ledgers, PROFILE, CFG, P, 0,
    )
    expected = set()
    if not valid:
        expected.add(Reason.INVALID_TOKEN)
    if slot != expected_slot:
        expected.add(Reason.SCHEDULE_VIOLATION)
    if count > CFG.count_threshold:
        expected.add(Reason.PACKET_FLOOD)
    assert result.accepted == (not expected)
    assert Counter(result.reasons) == Counter(expected)
    if expected:
        assert Counter(ledgers.suspected[7].reasons) == Counter(expected)
        assert len(ledgers.suspected[7].reasons) == len(expected)
    else:
        assert 7 not in ledgers.suspected


# --- confusion bookkeeping --------------------------------------------------


def test_confusion_counts_and_rates():
    nodes = [build_node(i) for i in range(5)]
    nodes[0] = build_node(0)  # sink id excluded from counting
    nodes[1].malicious = True
    nodes[2].malicious = True
    confusion = compute_confusion(nodes, quarantined_ids={1, 3}, sink_id=0)
    assert (confusion.tp, confusion.fp, confusion.tn, confusion.fn) == (1, 1, 1, 1)
    assert confusion.accuracy == 0.5
    assert confusion.detection_rate == 0.5


def test_confusion_empty_positive_class():
    nodes = [build_node(i) for i in range(3)]
    confusion = compute_confusion(nodes, quarantined_ids=set(), sink_id=0)
    assert confusion.detection_rate == 1.0
    assert confusion.accuracy == 1.0


# --- delivery logs ------------------------------------------------------------


def _logged(width, batches):
    """A log fed `batches` of (round, entries) and the list of tuples it stands for."""
    log, model = _RoundLog(width), []
    for r, entries in batches:
        log.extend(r, [node_id for entry in entries for node_id in entry])
        model += [(r, *entry) for entry in entries]
    return log, model


def _reads_as(log, model):
    assert list(log) == model
    assert len(log) == len(model)
    assert log == model and model == log
    assert not (log != model or model != log)
    assert repr(log) == repr(model)
    assert log + log == model + model


def _one_batch_a_round(width, model):
    """The log of `model` fed each run of one round as a single batch."""
    runs = groupby(model, itemgetter(0))
    return _logged(width, [(r, [entry[1:] for entry in run]) for r, run in runs])[0]


# Empty rounds, a round logged in two batches, and a round number that comes back.
BATCHES = {
    2: [
        (0, [(4,), (2,)]), (1, []), (1, [(7,)]), (3, [(3,)]), (3, [(3,), (9,)]), (0, [(1,)]),
        (5, []),
    ],
    3: [(2, [(5, 1)]), (2, []), (2, [(6, 1), (5, 1)]), (4, []), (7, [(0, 8)])],
}


@pytest.mark.parametrize("width", sorted(BATCHES))
def test_a_round_log_reads_as_its_list_of_tuples(width):
    log, model = _logged(width, BATCHES[width])
    _reads_as(log, model)
    assert _one_batch_a_round(width, model) == log
    # one run per round in the index, and none for a round that logged nothing
    assert list(log._rounds) == [r for r, _ in groupby(model, itemgetter(0))]
    shorter, _ = _logged(width, BATCHES[width][:-2])
    assert shorter != log and log != shorter
    assert log != model[:-1] and log != tuple(model)


def test_an_empty_round_log_reads_as_an_empty_list():
    log = _RoundLog(2)
    log.extend(0, [])
    _reads_as(log, [])
    assert not log and log == _RoundLog(3)


@pytest.mark.parametrize("width", sorted(BATCHES))
def test_a_round_log_survives_pickle_and_deepcopy(width):
    log, model = _logged(width, BATCHES[width])
    for twin in (pickle.loads(pickle.dumps(log)), copy.deepcopy(log)):
        assert type(twin) is _RoundLog
        _reads_as(twin, model)
        twin.extend(9, [1] * (width - 1))
        assert len(twin) == len(log) + 1 and list(log) == model


@st.composite
def round_batches(draw):
    width = draw(st.sampled_from([2, 3]))
    node_ids = st.integers(0, 2**31 - 1)
    rounds = st.integers(0, 3) | st.integers(0, 2**31 - 1)  # small ones repeat
    entries = st.lists(st.tuples(*[node_ids] * (width - 1)), max_size=6)
    return width, draw(st.lists(st.tuples(rounds, entries), max_size=12))


@settings(deadline=None, max_examples=200)
@given(instance=round_batches())
def test_a_round_log_matches_a_plain_list(instance):
    width, batches = instance
    log, model = _logged(width, batches)
    _reads_as(log, model)
    _reads_as(pickle.loads(pickle.dumps(log)), model)
    _reads_as(copy.deepcopy(log), model)
    one_entry_a_batch, _ = _logged(width, [(entry[0], [entry[1:]]) for entry in model])
    assert one_entry_a_batch == log == _one_batch_a_round(width, model)
