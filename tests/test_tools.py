import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "profile_rounds.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("profile_rounds", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_ladder_rung_keeps_the_stock_density_and_attacker_share():
    tool = load_tool()
    stock = tool.ladder_config(70)
    rung = tool.ladder_config(800)
    assert rung["deployment"]["node_count"] == 800
    assert rung["attack"]["attacker_count"] == 34
    for raw in (stock, rung):
        deployment = raw["deployment"]
        density = deployment["node_count"] / (deployment["area_width"] * deployment["area_height"])
        assert density == pytest.approx(70 / (80.0 * 100.0))


def test_the_round_profiler_writes_one_json_object(tmp_path):
    out = tmp_path / "BENCH_tiny.json"
    subprocess.run(
        [sys.executable, str(TOOL), "--configs", "false_alarm", "--rungs", "--repeat", "1",
         "--out", str(out)],
        check=True, capture_output=True, cwd=tmp_path,
    )
    document = json.loads(out.read_text())
    assert set(document) == {"label", "python", "machine", "cpus", "repeat", "cases"}
    assert document["label"] == "tiny" and document["repeat"] == 1
    cases = document["cases"]
    assert set(cases) == {"false_alarm/imids", "false_alarm/imids-no-sectors", "false_alarm/itids"}
    for case in cases.values():
        assert set(case) == {
            "nodes", "seed", "rounds", "node_rounds", "setup_s", "wall_s",
            "us_per_node_round", "phase_share", "phase_share_spread", "sweep_share",
            "mask_rows", "us_per_mask_row", "peak_rss_mb", "retained_mb",
        }
        assert (case["nodes"], case["seed"], case["rounds"]) == (40, 13, 40)
        assert case["setup_s"] > 0 and case["wall_s"] > 0 and case["us_per_node_round"] > 0
        assert case["peak_rss_mb"] > 0 and case["retained_mb"] > 0
        # at most one row per non-sink node and round, and each one costs time
        assert 0 < case["mask_rows"] <= case["rounds"] * (case["nodes"] - 1)
        assert case["us_per_mask_row"] > 0
        shares = case["phase_share"].values()
        assert all(share >= 0 for share in shares) and 0 < sum(shares) <= 1
        assert case["phase_share_spread"] == dict.fromkeys(case["phase_share"], 0.0)  # one run
        assert set(case["sweep_share"]) == {
            "_check_cluster", "_build_structures", "_charge_formation",
            "_derive_fragment", "_compose_fragments",
        }
        assert all(share >= 0 for share in case["sweep_share"].values())
    imids = cases["false_alarm/imids"]
    sweep = imids["sweep_share"]
    outer = sweep["_check_cluster"] + sweep["_build_structures"] + sweep["_charge_formation"]
    assert 0 < outer <= imids["phase_share"]["_reconfiguration_sweep"]
    # the re-derivation's own steps are inside its share
    assert sweep["_derive_fragment"] + sweep["_compose_fragments"] <= sweep["_build_structures"]
    assert not any(cases["false_alarm/itids"]["sweep_share"].values())  # the baseline never sweeps
    assert "_sink_stage" in cases["false_alarm/imids"]["phase_share"]
    assert "_forward_received" in cases["false_alarm/itids"]["phase_share"]


def test_the_artifact_diff_locates_a_change_at_its_first_round(tmp_path):
    # the base is this checkout's src with the injected false strikes switched off
    base = tmp_path / "src"
    shutil.copytree(ROOT / "src", base, ignore=shutil.ignore_patterns("__pycache__"))
    engine = base / "imids_sim" / "engine.py"
    hook = "    def _inject_false_strikes(self, r: int):\n"
    assert engine.read_text().count(hook) == 1
    engine.write_text(engine.read_text().replace(hook, hook + "        return\n"))

    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_diff.py"), "--base", str(base)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode == 1, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["run", "metrics.csv"]
    runs = {line.split()[0]: line for line in rows}
    assert len(runs) == len(rows) == 12
    differing = {name for name, line in runs.items() if line.split()[1] != "identical"}
    assert differing == {f"false_alarm/{mode}" for mode in ("imids", "itids", "imids-no-sectors")}
    strikes = json.loads((ROOT / "configs" / "false_alarm.json").read_text())
    first = min(at_round for _, at_round in strikes["detection"]["injected_false_strikes"])
    for name in differing:
        assert re.search(rf"\bround {first}, \w+ ", runs[name]), runs[name]
    # an identical run moves nothing: every delta is zero or both sides lack a lifetime
    for name in runs.keys() - differing:
        assert set(runs[name].split()[2:9]) <= {"+0", "="}, runs[name]
