"""Golden artifacts: `run` output is pinned for every bundled config and mode.

Each pin is sha256 over the bytes of `metrics.csv` followed by the bytes of
`summary.json`, as written by `imids-sim run <config> --override mode=<mode>`.
A change that alters simulated behaviour on purpose re-pins here and says
why in CHANGES.md; every other change must leave these untouched.

The bundled configs hold 70 nodes at most, so one more pin covers the
set-up of a large field, where the range graph and the cluster joins do
most of their work. Two more families pin what a trace keeps beyond the
artifacts: the per-node spends with the ledgers, and the reconfiguration
events.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from imids_sim import cli, engine
from imids_sim.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("early_attack", "imids"):
        "d9bee8147e5d2b1e7c2f3b7c75f53af2ca5ed8c5dffa5d684f676f0150087209",
    ("early_attack", "itids"):
        "04d084211a394baa28082b5caf6a1550f65fdc842c36cd7cbe791f10044ebc0e",
    ("early_attack", "imids-no-sectors"):
        "dadfcbbf30c16c6d94cb5ea3750c6ae6c0949f26c3005f7e462b28669822afa9",
    ("false_alarm", "imids"):
        "4b4745146a81bb2ee414be9f3eac3a1fb2b269148c1b008f68733ed71c3d496b",
    ("false_alarm", "itids"):
        "f85f6205224194a0917750a7fda56987363518f38c82acacc69495dfc374b7b7",
    ("false_alarm", "imids-no-sectors"):
        "d0b4898387ba2d7f17e7bea588b0d4d061c2bc7948a5bdddc0c4b927470d2eb4",
    ("stock_comparison", "imids"):
        "42606eb2d99de6cde14d6be858017d4dab48087564b7cac3cd0d747d3d0b91d2",
    ("stock_comparison", "itids"):
        "ef2c786f42e8e4c919e63b6fee3186dd15f5428d31642f6980ec42c21c9993b9",
    ("stock_comparison", "imids-no-sectors"):
        "2a316afa29834752bdb55078db7ffce401da01665c48c8607903f89bd8b2bb8e",
    ("sweep_base", "imids"):
        "041c24d31fea458493c5094718c3d52810b6f7f68fd66a5ce75a8ab06b1d4cd9",
    ("sweep_base", "itids"):
        "b3f380ecdbdb0c9396ef572fc2f0d8e91d1ebe566bf102423518bc148873f977",
    ("sweep_base", "imids-no-sectors"):
        "cc036367e45823769a77b63771fa7c9689a27978e1417f8d6c31284ca9617fd5",
}


def artifact_digest(config: str, mode: str, out: Path) -> str:
    code = cli.main(
        ["run", str(CONFIG_DIR / f"{config}.json"), "--out", str(out),
         "--override", f"mode={mode}"]
    )
    assert code == 0
    h = hashlib.sha256()
    for name in ("metrics.csv", "summary.json"):
        h.update((out / name).read_bytes())
    return h.hexdigest()


def test_every_bundled_config_is_pinned():
    assert {c for c, _ in GOLDEN} == {p.stem for p in CONFIG_DIR.glob("*.json")}


@pytest.mark.parametrize("config,mode", sorted(GOLDEN))
def test_run_artifacts_match_golden_digest(config, mode, tmp_path, capsys):
    found = artifact_digest(config, mode, tmp_path)
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
