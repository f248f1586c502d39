"""Golden artifacts: `run` output is pinned for every bundled config and mode.

Each pin is a pair: sha256 over the bytes of `metrics.csv`, then sha256 over
the bytes of `summary.json`, as written by `imids-sim run <config> --override
mode=<mode>`. Two hashes are at least as strict as one over both files, fix
where one file ends and the next begins, and say whether the rounds moved or
only the summary did, as when a config key is added or removed. A change that
alters simulated behaviour on purpose re-pins here and says why in CHANGES.md;
every other change must leave these untouched.

The bundled configs hold 70 nodes at most, so one more pin covers the
set-up of a large field, where the range graph and the cluster joins do
most of their work. Three more families pin what a run keeps beyond the
artifacts: the per-node spends with the ledgers, the reconfiguration
events, and the strikes by screening rule.
"""

import hashlib
import json
from collections import Counter
import math
from pathlib import Path

import pytest

from imids_sim import cli, engine, ids
from imids_sim.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("early_attack", "imids"): (
        "7285e255d7eff469eed0296254f35922f786ce3f15f6e37e2e88bb506ba891d5",
        "307968a5699571b232c0abc976ec5f12dbf4957d566a1c9cda5c3c0c790afabd",
    ),
    ("early_attack", "itids"): (
        "eba2942b34b5bc8f1dfdffe836cf4821dfc97d991435ef4b3496f3d575ff5725",
        "7e3d70498cd40ea92a618aacaed98522eebcb35e9a197e42d532a45a39e4fa68",
    ),
    ("early_attack", "imids-no-sectors"): (
        "60f76c77b01dfdd55dd835e8daf191a2772e43f7b6a472b9dc1305cfdd03315b",
        "fdbd0f5017757efcd41ea0106a0b02822e90ef045b468a0cf49c93aa562cea5d",
    ),
    ("false_alarm", "imids"): (
        "a679e13e06eb013755c4569a4ac03eda0bba241dc2c71b56be909c5bc885c682",
        "40a729208f77f0f45bf981ff564db52afe395f0c834ee836027295930f232ab7",
    ),
    ("false_alarm", "itids"): (
        "360c9da5d7a13d5ec1a899ddffe0645ff6377f1ae6cb590d84dc77856fcbd853",
        "406451b246eeb2ae3f9754ba8993c5a9ca09caa0107a552cd2f9dd835492e6be",
    ),
    ("false_alarm", "imids-no-sectors"): (
        "8ed66e77f93ea995ad434660e3dc0d9a95feb9fb674f052915b608e9351d54d3",
        "cc7c61732c23cfedb146b9b555d1a03ed9880e960870c7c992fcc0206d561c4a",
    ),
    ("stock_comparison", "imids"): (
        "2b52ae144a580ffa2cda5cc81c7c229edda26da5329715906d3b1d91c91f741f",
        "6b51135dff0f1fb0a08cc3e99575eda0e5038ae784d0ee63da2a0cf6e0a018c7",
    ),
    ("stock_comparison", "itids"): (
        "81bf90274bc49cfb039f4484c78527ca2c7a1c44ef792f88e87c624face23a2c",
        "03b7da51023c94045fe7e5c4207d2775c16441c974054c5a88b582ffb20d4d2c",
    ),
    ("stock_comparison", "imids-no-sectors"): (
        "ac49d4fae5b1f2ea6daee63b86b773575d9cde85a7039082ff8618554208a6bc",
        "d4ff63e57c660a26205df6869fb4ef15a68c925c7cb8310ee46c487416cb6fb5",
    ),
    ("sweep_base", "imids"): (
        "283c7d6815dce3bd6198addc24454e181028a4c64331f297e2b0b7dca3bc08b7",
        "514dda07c303c2d2bb55dfdfd7e4cd835b58f2afc4d8e3c72adb232e19c60244",
    ),
    ("sweep_base", "itids"): (
        "fc8cc05f325cec77bbc0f347822cbe6d60d2d630842a494222679f10d74b5877",
        "12450ab300b30135a1db5b33f0866d5edb58355cd02d5ec0b659bc3156aa3422",
    ),
    ("sweep_base", "imids-no-sectors"): (
        "7ca3397a9eccbd57b21102137d0757428752ac6d33f7bcfd3de174e5c359df4d",
        "8eea191fe6b60cd6189a87190bd114a737aaa1bebabba2ef78b9abf8f65e724f",
    ),
}


def artifact_digests(config: str, mode: str, out: Path) -> tuple:
    code = cli.main(
        ["run", str(CONFIG_DIR / f"{config}.json"), "--out", str(out),
         "--override", f"mode={mode}"]
    )
    assert code == 0
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "summary.json")
    )


def test_every_bundled_config_is_pinned():
    assert {c for c, _ in GOLDEN} == {p.stem for p in CONFIG_DIR.glob("*.json")}


@pytest.mark.parametrize("config,mode", sorted(GOLDEN))
def test_run_artifacts_match_golden_digest(config, mode, tmp_path, capsys):
    found = artifact_digests(config, mode, tmp_path)
    capsys.readouterr()  # `run` prints the artifact paths
    assert found == GOLDEN[(config, mode)]


# sha256 of `setup_digest` for the stock scenario at 1,600 nodes and the
# same density on seed 44. Seeds 42, 43, 45 and 46 deploy a node that no
# coordinator covers at that size and raise CoverageFailure, which is a
# legitimate outcome of the deployment and not a defect.
SETUP_1600_AT_44 = "02d84c5c87d309bb5c8f11c88417615625953493bdac1038ff731b2c54c5d39d"


def setup_digest(sim) -> str:
    """sha256 over the whole set-up state: the range graph's adjacency, each
    cluster with its sectors, and each node's role, slot, residual energy
    and detection budget (floats as `.hex()`, so every bit counts)."""
    h = hashlib.sha256()
    h.update(repr([(a, sorted(ids)) for a, ids in sim.graph.adjacency.items()]).encode())
    for c in sim.clusters:
        h.update(repr((c.id, c.coordinator, sorted(c.members))).encode())
        for s in c.sectors:
            h.update(repr((s.coordinator, sorted(s.leaves), s.monitors, s.fsh)).encode())
    for n in sim.nodes:
        energy = n.energy
        h.update(repr((
            n.id, n.role.value, n.slot,
            energy.residual_energy.hex(), energy.detection_budget.hex(),
        )).encode())
    return h.hexdigest()


def test_a_1600_node_setup_matches_its_pin():
    raw = json.loads((CONFIG_DIR / "stock_comparison.json").read_text())
    deployment = raw["deployment"]
    scale = math.sqrt(1600 / deployment["node_count"])
    deployment["node_count"] = 1600
    deployment["area_width"] *= scale
    deployment["area_height"] *= scale
    raw.update(seed=44, rounds=1)
    sim = engine.Simulation(parse_config(raw))
    assert len(sim.clusters) > 100
    assert setup_digest(sim) == SETUP_1600_AT_44


def run_bundled(config: str, mode: str):
    raw = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    raw["mode"] = mode
    return engine.run_simulation(parse_config(raw))


# sha256 of `records_digest` for `configs/stock_comparison.json` in each mode.
# The pins above read only each round's spend total; these cover what a trace
# keeps besides it.
RECORDS = {
    "imids": "fe7f8f3e0e8bc9ae382fe17d2b3ff5265ece0d36c5a2ab147bd55620ea845a81",
    "imids-no-sectors": "5a9b69e18334b6f83f0c91bbb4ec3d7a15b4d8f464c4f202addca6d04521d5ef",
    "itids": "bd4e21cc52b75723f15171271e49f800e867c489b255b0540ddf68248e67a0eb",
}


def records_digest(trace) -> str:
    """sha256 over the `repr` of every round's per-node spends as (node id,
    joules) pairs in node order, then of the four delivery and verdict logs."""
    h = hashlib.sha256()
    for report in trace.reports:
        h.update(repr(list(report.energy_spent.items())).encode())
    ledgers = trace.ledgers
    for log in (ledgers.valid_log, ledgers.sn_log, ledgers.forwarding_log, ledgers.decision_log):
        h.update(repr(log).encode())
    return h.hexdigest()


@pytest.mark.parametrize("mode", sorted(RECORDS))
def test_round_records_and_ledgers_match_their_pin(mode):
    assert records_digest(run_bundled("stock_comparison", mode)) == RECORDS[mode]


# sha256 of `events_digest` for two bundled configs in the modes that
# reconfigure. These runs report five kinds: sector rotations with failed
# sector coordinators or a failed forwarding head, and coordinator rotations
# each followed by a change of coordinator.
EVENTS = {
    ("stock_comparison", "imids"):
        "d532705cbbae2f8e72a038dbf878bbbb13aa04edfdac9699f5a3d76362790756",
    ("stock_comparison", "imids-no-sectors"):
        "f908fd21dd72524c5b15fda84f483f001f9fece4877cffdd269aa5b2f4e8f7ed",
    ("sweep_base", "imids"):
        "d8bd79fb9dcff1be11fce3577aab9d754868a0d741dfce126561d22f1015377a",
    ("sweep_base", "imids-no-sectors"):
        "82be3a9a187e32f20498e47c3d7a040ff27fd8b21e713f69bc3efa0b3da9c9ae",
}


def events_digest(trace) -> str:
    """sha256 over the `repr` of (round, kind name, cluster, node) for every
    reconfiguration event, report by report in sweep order."""
    h = hashlib.sha256()
    for report in trace.reports:
        for event in report.reconfigurations:
            h.update(repr((report.round, event.kind.name, event.cluster, event.node)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("config,mode", sorted(EVENTS))
def test_reconfiguration_events_match_their_pin(config, mode):
    assert events_digest(run_bundled(config, mode)) == EVENTS[(config, mode)]


@pytest.mark.parametrize("config", sorted({c for c, _ in EVENTS}))
def test_the_baseline_never_reconfigures(config):
    assert not any(report.reconfigurations for report in run_bundled(config, "itids").reports)


# Strikes by rule on `configs/stock_comparison.json` (seed 42) in each mode,
# counted over every strike, also those of a suspect later rehabilitated.
# No artifact reads a strike's reason, so these pin what the rules decide.
STRIKES = {
    "imids": {"ENERGY_RATE": 2, "INVALID_TOKEN": 9, "PACKET_FLOOD": 2, "SCHEDULE_VIOLATION": 3},
    "imids-no-sectors": {
        "ENERGY_RATE": 3, "INVALID_TOKEN": 3, "PACKET_FLOOD": 3, "SCHEDULE_VIOLATION": 3,
    },
    "itids": {},
}


def run_recording_strikes(raw: dict):
    """The run of `raw` and (subject id, Reason) of each strike, in order."""
    strikes = []
    add_strikes = ids.add_strikes

    def recorded(ledgers, node_id, reasons, current_round):
        strikes.extend((node_id, reason) for reason in reasons)
        return add_strikes(ledgers, node_id, reasons, current_round)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ids, "add_strikes", recorded)
        trace = engine.run_simulation(parse_config(raw))
    return trace, strikes


@pytest.mark.parametrize("mode", sorted(STRIKES))
def test_strikes_by_rule_match_their_pin(mode):
    raw = json.loads((CONFIG_DIR / "stock_comparison.json").read_text())
    _, strikes = run_recording_strikes(dict(raw, mode=mode))
    assert Counter(reason.name for _, reason in strikes) == STRIKES[mode]
