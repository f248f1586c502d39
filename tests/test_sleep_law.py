"""The law of the sleep draws, not the draws themselves.

The exact-draw checks (`tests/test_rng.py`, the mask oracle in
`tests/test_indices.py`, the golden digests) pin one generator. These
tests hold for any correct one: at sleep probability p a sleeper is awake
off its own slot with probability 1 - p, independently across nodes,
slots and rounds, and it is always awake in its own slot; its duty charge
then has a closed form under the first-order radio model.

Each test runs the stock deployment with the attack off at p = 0.1, 0.5
and 0.9, so a swap of p and 1 - p fails. The structure is fixed at set-up:
each round only the mask draw (and for the duty, the slot-cost charge) is
run, for `ROUNDS` rounds. Every statistic is a z-score under independence,
and |z| <= `Z_BOUND` is required. Seeds, round count and bound were fixed
before the first run.

Independence is checked twice over: per-round totals across nodes and
per-node totals across rounds must not be over-dispersed (a normalised
chi-square), so one row shared by every node, or one row reused across
rounds, fails even where it keeps the mean.
"""

import json
import math
from pathlib import Path

import pytest

from imids_sim import engine
from imids_sim.config import parse_config

STOCK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "stock_comparison.json"
PROBABILITIES = (0.1, 0.5, 0.9)
ROUNDS = 200
Z_BOUND = 4.0


def quiet_stock(p):
    raw = json.loads(STOCK_CONFIG.read_text())
    raw.update(sleep_probability=p, rounds=ROUNDS)
    raw["attack"]["attacker_count"] = 0
    return engine.initialize(parse_config(raw))


def drawn_masks(sim):
    """Each round's masks, drawn on the set-up structure: round -> node -> bits."""
    rounds = []
    for r in range(ROUNDS):
        sim._draw_masks(r)
        rounds.append({node_id: tuple(wake) for node_id, wake in sim._masks.items()})
    return rounds


def z_score(hits, trials, q):
    """How far `hits` of `trials` Bernoulli(q) draws lie from their mean, in sd."""
    return (hits - trials * q) / math.sqrt(trials * q * (1 - q))


def dispersion_z(totals, variance):
    """Normalised chi-square of group totals with known means removed:
    `totals` is (sum, mean, count) per group and `variance` the variance of
    one draw, so independent draws give about N(0, 1)."""
    chi2 = sum((total - mean) ** 2 / (count * variance) for total, mean, count in totals)
    return (chi2 - len(totals)) / math.sqrt(2 * len(totals))


def off_slot_bits(sim, masks):
    """(round, node id, bit) for every slot but the node's own."""
    slots = range(sim.config.slots_per_round)
    for r, by_node in enumerate(masks):
        for node_id, wake in by_node.items():
            own = sim.by_id[node_id].slot
            for slot in slots:
                if slot != own:
                    yield r, node_id, wake[slot]


def check_dispersion(bits, q):
    """Per-round and per-node totals of Bernoulli(q) `bits` are not
    over-dispersed."""
    by_round, by_node = {}, {}
    for r, node_id, value in bits:
        for groups, key in ((by_round, r), (by_node, node_id)):
            held = groups.setdefault(key, [0, 0])
            held[0] += value
            held[1] += 1
    variance = q * (1 - q)
    for groups in (by_round, by_node):
        totals = [(total, count * q, count) for total, count in groups.values()]
        assert abs(dispersion_z(totals, variance)) <= Z_BOUND


@pytest.mark.parametrize("p", PROBABILITIES)
def test_a_sleeper_is_awake_off_its_slot_with_probability_one_minus_p(p):
    sim = quiet_stock(p)
    masks = drawn_masks(sim)
    assert all(wake[sim.by_id[n].slot] for by_node in masks for n, wake in by_node.items())
    bits = [(r, n, int(value)) for r, n, value in off_slot_bits(sim, masks)]
    awake = sum(value for _, _, value in bits)
    assert abs(z_score(awake, len(bits), 1 - p)) <= Z_BOUND
    check_dispersion(bits, 1 - p)


def agreement(pairs, p):
    """Both-awake and both-asleep counts of independent bit pairs against
    (1 - p)^2 and p^2, so their sum, the agreement, matches p^2 + (1 - p)^2."""
    pairs = list(pairs)
    both_awake = sum(1 for a, b in pairs if a and b)
    both_asleep = sum(1 for a, b in pairs if not a and not b)
    assert len(pairs) > 10_000
    assert abs(z_score(both_awake, len(pairs), (1 - p) ** 2)) <= Z_BOUND
    assert abs(z_score(both_asleep, len(pairs), p ** 2)) <= Z_BOUND


@pytest.mark.parametrize("p", PROBABILITIES)
def test_bits_agree_across_nodes_and_rounds_as_independent_draws(p):
    """Disjoint pairs, so every pair is independent of every other: two
    sleepers (in id order, two by two) in one (round, slot), and one
    sleeper in rounds 2k and 2k + 1 in one slot, own slots left out."""
    sim = quiet_stock(p)
    masks = drawn_masks(sim)
    slots = range(sim.config.slots_per_round)
    slot_of = {n.id: n.slot for n in sim.nodes}

    def across_nodes():
        for by_node in masks:
            ids = sorted(by_node)
            for a, b in zip(ids[0::2], ids[1::2]):
                for slot in slots:
                    if slot not in (slot_of[a], slot_of[b]):
                        yield by_node[a][slot], by_node[b][slot]

    def across_rounds():
        for first, second in zip(masks[0::2], masks[1::2]):
            for node_id, wake in first.items():
                for slot in slots:
                    if slot != slot_of[node_id]:
                        yield wake[slot], second[node_id][slot]

    agreement(across_nodes(), p)
    agreement(across_rounds(), p)


@pytest.mark.parametrize("p", PROBABILITIES)
def test_the_mean_duty_charge_has_the_first_order_closed_form(p):
    """A sleeper listens in its own slot and, in each of the other S - 1,
    listens with probability 1 - p and sleeps otherwise, so its mean charge
    per round is p_listen + (S - 1)((1 - p) p_listen + p p_sleep), with
    variance (S - 1) p (1 - p) (p_listen - p_sleep)^2 (central limit)."""
    sim = quiet_stock(p)
    listen, sleep = sim.params.p_listen, sim.params.p_sleep
    others = sim.config.slots_per_round - 1
    mean = listen + others * ((1 - p) * listen + p * sleep)
    variance = others * p * (1 - p) * (listen - sleep) ** 2
    charges = []  # (round, node id, joules)
    for r in range(ROUNDS):
        sim._draw_masks(r)
        sleepers = [sim.by_id[node_id] for node_id in sim._masks]
        before = [node.energy.residual_energy for node in sleepers]
        sim._charge_slot_costs(r)
        charges += [
            (r, node.id, b - node.energy.residual_energy) for node, b in zip(sleepers, before)
        ]
    total = sum(joules for _, _, joules in charges)
    z = (total - len(charges) * mean) / math.sqrt(len(charges) * variance)
    assert abs(z) <= Z_BOUND
    by_round, by_node = {}, {}
    for r, node_id, joules in charges:
        by_round.setdefault(r, []).append(joules)
        by_node.setdefault(node_id, []).append(joules)
    for groups in (by_round, by_node):
        totals = [(sum(group), len(group) * mean, len(group)) for group in groups.values()]
        assert abs(dispersion_z(totals, variance)) <= Z_BOUND
