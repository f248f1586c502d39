"""Every scenario key bites: setting it changes the rounds a run reports.

`LIVE` gives each settable field of `ScenarioConfig` and its six sections a
small bundled scenario, a mode, the companion overrides that let the key
decide something there, and one value. Setting that value on top of the
companions must change `metrics.csv` against the same run with the
companions alone.

Every key sits in the table exactly once, so a new key lands here with its
scenario, and a deleted one leaves.
"""

import dataclasses
import json
from pathlib import Path
from typing import NamedTuple

import pytest

from imids_sim import cli
from imids_sim.config import ScenarioConfig, parse_config
from imids_sim.engine import run_simulation

from conftest import SECTION_TYPES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class Knob(NamedTuple):
    scenario: str      # a bundled config, by file stem
    mode: str
    companions: dict   # dotted key -> value, set on both sides
    value: object      # the key's value on the side that must move


# A 40-node lattice, 5 columns by 8 rows, 15 m by 12 m apart; the sink is
# node 0 in its lower-left corner.
LATTICE = [[10.0 + 15.0 * (i % 5), 8.0 + 12.0 * (i // 5)] for i in range(40)]

# The nine coordinators that `sweep_base` elects at set-up, each given one
# injected strike per round from round 2 to 19. With no trust floor and no
# practical strike limit none is condemned, and each one's trust falls to 0
# by round 19, so `reputation_min` decides whether it may be elected
# coordinator again.
SWEEP_BASE_COORDINATORS = (13, 28, 35, 37, 54, 62, 75, 82, 98)
DISTRUSTED_COORDINATORS = {
    "rounds": 80,
    "detection.trust_floor": 0,
    "detection.strike_limit": 1000,
    "detection.injected_false_strikes": [
        [node, r] for node in SWEEP_BASE_COORDINATORS for r in range(2, 20)
    ],
}

LIVE = {
    "seed": Knob("early_attack", "imids", {}, 8),
    "mode": Knob("early_attack", "imids", {}, "itids"),
    "rounds": Knob("early_attack", "imids", {}, 30),
    "slots_per_round": Knob("early_attack", "imids", {}, 8),
    "sleep_probability": Knob("early_attack", "imids", {}, 0.3),
    "rotation_hysteresis": Knob("early_attack", "imids", {}, 0.5),
    "deployment.node_count": Knob("early_attack", "imids", {}, 45),
    "deployment.area_width": Knob("early_attack", "imids", {}, 70.0),
    "deployment.area_height": Knob("early_attack", "imids", {}, 90.0),
    "deployment.transmission_range": Knob("early_attack", "imids", {}, 45.0),
    "deployment.sink_position": Knob("early_attack", "imids", {}, [40.0, 0.0]),
    "deployment.positions": Knob("early_attack", "imids", {}, LATTICE),
    "deployment.leader_fraction": Knob("early_attack", "imids", {}, 0.3),
    "deployment.leader_initial_energy": Knob("early_attack", "imids", {}, 1.0),
    "deployment.follower_initial_energy": Knob("early_attack", "imids", {}, 0.1),
    "deployment.sink_initial_energy": Knob("early_attack", "imids", {}, 0.5),
    "energy.e_elec": Knob("early_attack", "imids", {}, 100e-9),
    "energy.e_amp": Knob("early_attack", "imids", {}, 200e-12),
    "energy.p_listen": Knob("early_attack", "imids", {}, 20e-6),
    "energy.p_sleep": Knob("early_attack", "imids", {}, 1e-6),
    "energy.e_detect": Knob("early_attack", "imids", {}, 1e-5),
    "energy.dp_min_threshold": Knob(
        "early_attack", "itids", {"energy.e_detect": 1e-3}, 0.5
    ),
    "traffic.data_bits": Knob("early_attack", "imids", {}, 4000),
    "traffic.aggregate_bits": Knob("early_attack", "imids", {}, 1600),
    "traffic.control_bits": Knob("early_attack", "imids", {}, 400),
    "attack.attacker_ids": Knob("early_attack", "imids", {}, [5]),
    "attack.attacker_count": Knob("early_attack", "imids", {}, 2),
    "attack.fake_msgs_per_round": Knob("early_attack", "imids", {}, 8),
    "attack.fake_msg_bits": Knob("early_attack", "imids", {}, 2000),
    "attack.flood_packets_per_slot": Knob("early_attack", "imids", {}, 4),
    "attack.start_round": Knob("early_attack", "imids", {}, 10),
    "detection.window_rounds": Knob("false_alarm", "imids", {}, 1),
    "detection.strike_limit": Knob("false_alarm", "imids", {}, 1),
    "detection.trust_floor": Knob(
        "early_attack", "imids", {"detection.strike_limit": 10}, 15
    ),
    # The flood-count and energy-rate rules each catch a flooder: each
    # decides when the other is switched off.
    "detection.count_threshold": Knob(
        "early_attack", "imids", {"detection.rate_threshold": 1000.0}, 50.0
    ),
    "detection.rate_threshold": Knob(
        "early_attack", "imids", {"detection.count_threshold": 50.0}, 1000.0
    ),
    "detection.reputation_min": Knob(
        "sweep_base", "imids-no-sectors", DISTRUSTED_COORDINATORS, 0
    ),
    "detection.injected_false_strikes": Knob("early_attack", "imids", {}, [[17, 10]]),
    "itids.monitor_fraction": Knob("early_attack", "itids", {}, 0.2),
}


def settable_keys() -> set:
    """Every field of `ScenarioConfig`, section fields as `section.key`."""
    keys = set()
    for f in dataclasses.fields(ScenarioConfig):
        section = SECTION_TYPES.get(f.name)
        if section is None:
            keys.add(f.name)
        else:
            keys.update(f"{f.name}.{g.name}" for g in dataclasses.fields(section))
    return keys


def metrics_csv(knob: Knob, overrides: dict) -> str:
    """`metrics.csv` of `knob`'s scenario in its mode, with its companions and
    then `overrides` set on top."""
    raw = json.loads((CONFIG_DIR / f"{knob.scenario}.json").read_text())
    raw["mode"] = knob.mode
    for dotted, value in {**knob.companions, **overrides}.items():
        *sections, key = dotted.split(".")
        target = raw
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = value
    return cli._metrics_csv(run_simulation(parse_config(raw)))


@pytest.mark.parametrize("key", sorted(LIVE))
def test_a_live_key_changes_the_rounds(key):
    knob = LIVE[key]
    assert metrics_csv(knob, {key: knob.value}) != metrics_csv(knob, {})


def test_the_tables_hold_every_key_once():
    assert LIVE.keys() == settable_keys()
