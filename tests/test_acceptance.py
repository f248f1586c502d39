"""End-to-end acceptance checks.

Every test records one `criterion N: PASS/FAIL` line and then asserts.
The conftest terminal-summary hook replays the recorded lines after the
run, outside pytest's capture, so the verdicts always reach the log.
"""

import json
import random
from pathlib import Path

import pytest

from imids_sim import cli, engine
from imids_sim import topology as topo
from imids_sim.config import parse_config
from imids_sim.ids import Reason

from test_golden import run_recording_strikes
from test_properties import EXAMPLES
from test_topology import _oracle_election, _random_instance

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

STOCK_SEEDS = (42, 43, 44, 45, 46)
QUICK_SEEDS = (7, 8, 9, 13, 15)
SWEEP_SEEDS = (40, 41, 43)
SWEEP_SIZES = (50, 100, 200)


def load_raw(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


def run(raw: dict, **overrides):
    raw = dict(raw)
    raw.update(overrides)
    return engine.run_simulation(parse_config(raw))


VERDICTS = []


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def stock_pairs():
    """imids and itids traces of the stock scenario on five seeds."""
    pairs = {}
    for seed in STOCK_SEEDS:
        pairs[seed] = {
            mode: run(load_raw("stock_comparison.json"), seed=seed, mode=mode)
            for mode in ("imids", "itids")
        }
    return pairs


def test_criterion_1_alive_curve_dominates(stock_pairs):
    dominant = strict = 0
    finals = []
    for seed, pair in stock_pairs.items():
        imids, itids = pair["imids"].alive_series, pair["itids"].alive_series
        assert len(imids) == len(itids)
        if all(a >= b for a, b in zip(imids, itids)):
            dominant += 1
        if imids[-1] > itids[-1]:
            strict += 1
        finals.append((seed, imids[-1], itids[-1]))
    verdict(
        1,
        dominant == len(STOCK_SEEDS) and strict >= 4,
        f"alive dominance on {dominant}/{len(STOCK_SEEDS)} seeds, "
        f"strictly better finals on {strict} (final alive {finals})",
    )


def test_criterion_2_higher_final_accuracy(stock_pairs):
    wins = 0
    floor = 1.0
    detail = []
    for seed, pair in stock_pairs.items():
        acc_imids = pair["imids"].final_confusion.accuracy
        acc_itids = pair["itids"].final_confusion.accuracy
        wins += acc_imids > acc_itids
        floor = min(floor, acc_imids)
        detail.append(f"{seed}: {acc_imids:.3f} vs {acc_itids:.3f}")
    verdict(
        2,
        wins >= 4 and floor >= 0.9,
        f"accuracy wins {wins}/{len(STOCK_SEEDS)}, lowest sectored accuracy "
        f"{floor:.3f} ({'; '.join(detail)})",
    )


def test_criterion_3_sectoring_saves_energy():
    losses = []
    margins = []
    for seed in SWEEP_SEEDS:
        for size in SWEEP_SIZES:
            raw = load_raw("sweep_base.json")
            raw.setdefault("deployment", {})["node_count"] = size
            with_sectors = run(raw, seed=seed, mode="imids").total_energy_spent()
            without = run(raw, seed=seed, mode="imids-no-sectors").total_energy_spent()
            margins.append((without - with_sectors) / without)
            if with_sectors >= without:
                losses.append((seed, size, with_sectors, without))
    verdict(
        3,
        not losses,
        f"sectored total energy lower in {len(SWEEP_SEEDS) * len(SWEEP_SIZES)} / "
        f"{len(SWEEP_SEEDS) * len(SWEEP_SIZES)} cells, savings "
        f"{min(margins):.1%}..{max(margins):.1%}"
        + (f", losses: {losses}" if losses else ""),
    )


def test_criterion_4_byte_identical_artifacts(tmp_path):
    cfg = str(CONFIG_DIR / "stock_comparison.json")
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        code = cli.main(["run", cfg, "--out", str(out), "--override", "rounds=80"])
        assert code == 0
    same_csv = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    same_json = (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    verdict(
        4,
        same_csv and same_json,
        "repeated runs reproduce metrics.csv and summary.json byte for byte",
    )


def test_criterion_5_quarantine_is_final(stock_pairs):
    violations = []
    for seed, pair in stock_pairs.items():
        ledgers = pair["imids"].ledgers
        cut = ledgers.quarantined
        for round_no, src in ledgers.valid_log + ledgers.sn_log:
            if src in cut and round_no >= cut[src]:
                violations.append((seed, src, round_no, cut[src]))
    verdict(
        5,
        not violations,
        "no accepted traffic from any node on or after its quarantine round"
        + (f", violations: {violations[:5]}" if violations else ""),
    )


def test_criterion_6_round_zero_attacker_caught_quickly():
    raw = load_raw("early_attack.json")
    config = parse_config(raw)
    bound = config.detection.strike_limit + config.detection.window_rounds
    caught = {}
    for seed in QUICK_SEEDS:
        trace = run(raw, seed=seed, rounds=20)
        (attacker,) = trace.attacker_ids
        caught[seed] = trace.ledgers.quarantined.get(attacker)
    ok = all(r is not None and r <= bound for r in caught.values())
    verdict(
        6,
        ok,
        f"attacker active from round 0 quarantined within {bound} rounds on "
        f"{len(QUICK_SEEDS)} seeds (rounds {caught})",
    )


def test_criterion_7_false_alarm_recovery():
    raw = load_raw("false_alarm.json")
    (victim, _strike_round) = raw["detection"]["injected_false_strikes"][0]

    sectored = run(raw, mode="imids")
    forgiven = (
        victim not in sectored.ledgers.quarantined
        and victim not in sectored.ledgers.suspected
        and sectored.final_confusion.fp == 0
    )

    baseline = run(raw, mode="itids")
    condemned = baseline.ledgers.quarantined.get(victim) is not None
    verdict(
        7,
        forgiven and condemned,
        f"windowed review clears node {victim} (fp=0) while the single-strike "
        f"baseline isolates it permanently "
        f"(quarantined at {baseline.ledgers.quarantined.get(victim)})",
    )


def test_criterion_8_election_matches_bruteforce():
    rng = random.Random(777)
    checked = matched = attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        nodes = _random_instance(rng)
        graph = topo.build_graph(nodes, 35.0)
        try:
            expected = _oracle_election(nodes, graph)
        except topo.CoverageFailure:
            continue
        checked += 1
        if topo.select_cluster_coordinators(nodes, graph) == expected:
            matched += 1
    verdict(
        8,
        checked == 50 and matched == checked,
        f"coordinator election agrees with brute-force oracle on {matched}/{checked} "
        f"random instances",
    )


def test_criterion_9_energy_audit_balances(stock_pairs):
    worst = 0.0
    for pair in stock_pairs.values():
        for trace in pair.values():
            for node_id, initial in trace.initial_energy.items():
                booked = trace.init_energy_spent[node_id] + sum(
                    r.energy_spent[node_id] for r in trace.reports
                )
                drained = initial - trace.final_energy[node_id]
                worst = max(worst, abs(booked - drained))
    verdict(
        9,
        worst <= 1e-9,
        f"per-node spend ledger matches the battery delta, worst error {worst:.2e} J",
    )


def test_every_screening_rule_catches_an_attacker_and_strikes_no_honest_node():
    """Over the stock seeds in imids, each of the four rules strikes some
    attacker, and no rule ever strikes an honest node."""
    caught, wrong = set(), []
    for seed in STOCK_SEEDS:
        trace, strikes = run_recording_strikes(dict(load_raw("stock_comparison.json"), seed=seed))
        attackers = set(trace.attacker_ids)
        for node_id, reason in strikes:
            if node_id in attackers:
                caught.add(reason)
            else:
                wrong.append((seed, node_id, reason.name))
    assert caught == set(Reason)
    assert not wrong, wrong


def test_criterion_10_randomized_instance_volume():
    total = sum(EXAMPLES.values())
    verdict(
        10,
        total >= 1000,
        f"property suites draw {total} randomized instances "
        f"({', '.join(f'{k}={v}' for k, v in sorted(EXAMPLES.items()))})",
    )
