import hashlib
import json
import os
import xml.etree.ElementTree as ET

import pytest

from imids_sim import charts, cli, engine
from imids_sim import topology as topo
from imids_sim.config import MODES, load_config
from imids_sim.rng import SeededRng


SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def write_config(tmp_path, name="scenario.json", **overrides):
    raw = {
        "seed": 7,
        "rounds": 12,
        "mode": "imids",
        "deployment": {"node_count": 40, "leader_fraction": 0.2},
        "attack": {
            "attacker_count": 1,
            "fake_msgs_per_round": 4,
            "flood_packets_per_slot": 2,
            "start_round": 3,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def no_tmp_litter(directory):
    return not any(name.startswith(".tmp-") for name in os.listdir(directory))


# --- run -----------------------------------------------------------------------


def test_run_writes_metrics_and_summary(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0

    csv_lines = (out / "metrics.csv").read_text().splitlines()
    assert csv_lines[0] == cli.CSV_HEADER
    assert len(csv_lines) == 1 + 12  # header + one row per round
    assert csv_lines[1].startswith("0,")

    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "imids"
    assert summary["seed"] == 7
    assert summary["rounds_executed"] == 12
    assert summary["attackers"] == [2]
    assert summary["config"]["rounds"] == 12
    assert no_tmp_litter(out)


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg, "--out", str(first)]) == 0
    assert cli.main(["run", cfg, "--out", str(second)]) == 0
    for name in ("metrics.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_overrides_apply(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(
        ["run", cfg, "--out", str(out), "--override", "rounds=5",
         "--override", "mode=itids"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "itids"
    assert summary["rounds_executed"] == 5
    assert len((out / "metrics.csv").read_text().splitlines()) == 6


# --- compare -------------------------------------------------------------------


def test_compare_with_zero_rounds_is_a_config_error(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("compare simulated a run it cannot chart")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    cfg = write_config(tmp_path, rounds=0)
    out = tmp_path / "cmp"
    assert cli.main(["compare", cfg, "--out", str(out)]) == 2
    assert "compare needs at least one round" in capsys.readouterr().err
    assert not out.exists()


def test_compare_emits_csv_charts_and_dominance(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    assert cli.main(["compare", cfg, "--out", str(out)]) == 0

    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "mode," + cli.CSV_HEADER
    modes = {line.split(",")[0] for line in lines[1:]}
    assert modes == {"imids", "itids"}

    for name in ("alive_vs_time.svg", "accuracy_vs_round.svg"):
        root = ET.fromstring((out / name).read_text())
        assert root.tag.endswith("svg")

    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"dominance", "imids", "itids"}
    assert isinstance(summary["dominance"]["alive_imids_ge_itids_every_round"], bool)
    assert summary["imids"]["mode"] == "imids"


def test_compare_charts_alive_nodes_per_round(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    assert cli.main(["compare", cfg, "--out", str(out)]) == 0
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    rounds = [int(row.split(",")[1]) for row in rows]

    texts = list(ET.fromstring((out / "alive_vs_time.svg").read_text()).iter(SVG_TEXT))
    x_label = [t.text for t in texts if t.get("y") == str(charts.HEIGHT - 14)]
    x_ticks = [
        float(t.text) for t in texts
        if t.get("font-size") == "11" and t.get("text-anchor") == "middle"
    ]
    assert x_label == ["round"]
    assert (x_ticks[0], x_ticks[-1]) == (min(rounds), max(rounds)) == (0, 11)


def test_compare_charts_a_network_that_dies_in_set_up(tmp_path):
    # e_elec this high drains every battery in the set-up handshakes, so
    # both arms end before their first round: the charts have no points
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "seed": 0,
        "rounds": 1,
        "deployment": {"node_count": 3, "area_width": 30.0, "area_height": 30.0},
        "energy": {"e_elec": 1.0},
    }))
    out = tmp_path / "cmp"
    assert cli.main(["compare", str(path), "--out", str(out)]) == 0
    assert (out / "compare.csv").read_text() == "mode," + cli.CSV_HEADER + "\n"
    for name in ("alive_vs_time.svg", "accuracy_vs_round.svg"):
        text = (out / name).read_text()
        assert ET.fromstring(text).tag.endswith("svg")
        assert ">IMIDS<" in text and ">ITIDS<" in text  # the legend names the empty arms
    summary = json.loads((out / "summary.json").read_text())
    for mode in ("imids", "itids"):
        assert summary[mode]["rounds_executed"] == 0
        assert summary[mode]["extinction_round"] == 0
    assert no_tmp_litter(out)


def test_a_network_that_dies_in_set_up_ends_with_none_alive(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "seed": 0,
        "rounds": 1,
        "deployment": {"node_count": 3, "area_width": 30.0, "area_height": 30.0},
        "energy": {"e_elec": 1.0},
    }))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "run")]) == 0
    summaries = [json.loads((tmp_path / "run" / "summary.json").read_text())]
    assert cli.main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 0
    compared = json.loads((tmp_path / "cmp" / "summary.json").read_text())
    summaries += [compared["imids"], compared["itids"]]
    for summary in summaries:
        assert summary["rounds_executed"] == 0
        assert summary["alive_initial"] == 2
        assert summary["final_alive"] == 0
        assert summary["lifetime_round"] == 0  # the drop happened before round 0
    out = tmp_path / "sw"
    sweep = ["sweep", str(path), "--axis", "mode", "--values", "imids", "--out", str(out)]
    assert cli.main(sweep) == 0
    header, row = (out / "sweep.csv").read_text().splitlines()
    assert row.split(",")[header.split(",").index("final_alive")] == "0"


# --- sweep ---------------------------------------------------------------------


def test_sweep_node_count_has_two_arms_per_value(tmp_path):
    cfg = write_config(tmp_path, rounds=8)
    out = tmp_path / "sw"
    code = cli.main(
        ["sweep", cfg, "--axis", "node_count", "--values", "40", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == (
        "axis,value,mode,seed,rounds,final_alive,total_energy_j,accuracy,detection_rate"
    )
    arms = [line.split(",")[2] for line in lines[1:]]
    assert arms == ["imids", "imids-no-sectors"]
    ET.fromstring((out / "energy_vs_node_count.svg").read_text())


def test_sweep_mode_axis_skips_the_energy_chart(tmp_path):
    cfg = write_config(tmp_path, rounds=8)
    out = tmp_path / "sw"
    code = cli.main(
        ["sweep", cfg, "--axis", "mode", "--values", "imids,itids", "--out", str(out)]
    )
    assert code == 0
    arms = [
        line.split(",")[2]
        for line in (out / "sweep.csv").read_text().splitlines()[1:]
    ]
    assert arms == ["imids", "itids"]
    assert not list(out.glob("*.svg"))


EARLY = os.path.join(os.path.dirname(__file__), "..", "configs", "early_attack.json")

# sha256 of `sweep.csv` on early_attack.json: each cell is the config under the
# axis's dotted overrides, so these moving means a cell changed what it sets
SWEEP_PINS = {
    ("attackers", "0,2"): "c778012c0779d80ea713e63a883dfd31de172d32ae36e85096d4d36694543a99",
    ("node_count", "40,50"): "7cc191fe1dc1ff6fbe9fa44f52da941a3bf7209408492c2beccbd83b2e611a20",
    ("mode", ",".join(MODES)): "28c86b6a201f0ef52cbc11f19c612a4d779f92b3633974426d3a6b46eaf7f0ab",
}


@pytest.mark.parametrize("axis, values", SWEEP_PINS)
def test_a_sweep_writes_its_pinned_csv(tmp_path, capsys, axis, values):
    out = tmp_path / "sw"
    assert cli.main(["sweep", EARLY, "--axis", axis, "--values", values, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == SWEEP_PINS[axis, values]


def test_an_attackers_sweep_drops_the_listed_attackers(tmp_path):
    # each cell draws `attacker_count` attackers, whatever ids the file lists
    with open(EARLY, encoding="utf-8") as handle:
        raw = json.load(handle)
    raw["attack"]["attacker_ids"] = [5]
    path = tmp_path / "listed.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "sw"
    argv = ["sweep", str(path), "--axis", "attackers", "--values", "0,2", "--out", str(out)]
    assert cli.main(argv) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == SWEEP_PINS["attackers", "0,2"]


# --- failure modes ---------------------------------------------------------------


def test_missing_config_is_a_config_error(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe{\x00}\x00", id="not-utf-8"),
    pytest.param(b"[" * 100_000, id="nested-too-deeply"),
])
@pytest.mark.parametrize("command", [
    ["run"], ["compare"], ["sweep", "--axis", "mode", "--values", "imids"],
], ids=["run", "compare", "sweep"])
def test_an_unreadable_scenario_file_is_a_config_error(tmp_path, capsys, content, command):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    out = tmp_path / "o"
    assert cli.main([command[0], str(path), "--out", str(out), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


OVERSIZED = "1" * 401  # an integer no float can hold
HUGE = str(10**15)  # a count that fits a float but not memory


@pytest.mark.parametrize("text, message", [
    pytest.param('{"seed": 1, "rounds": ' + "[" * 900 + "]" * 900 + "}",
                 "scenario file is nested too deeply to read", id="nested-900-deep"),
    pytest.param('{"seed": 1, "rounds": ' + "[" * 8 + "]" * 8 + "}",  # 9 with the object
                 "nested too deeply to read: over 8 levels", id="nested-9-deep"),
    pytest.param('{"seed": 1, "rounds": ' + "[" * 7 + "]" * 7 + "}",  # read, then refused
                 "rounds must be an integer", id="nested-8-deep"),
    pytest.param('{"seed": 1, "traffic": {"data_bits": ' + OVERSIZED + "}}",
                 "traffic.data_bits must fit a float", id="oversized-data-bits"),
    pytest.param('{"seed": 1, "deployment": {"node_count": ' + OVERSIZED + "}}",
                 "deployment.node_count must fit a float", id="oversized-node-count"),
    pytest.param('{"seed": 1, "rounds": ' + "1" * 5000 + "}",
                 "scenario file is not valid JSON", id="integer-of-too-many-digits"),
    pytest.param('{"seed": 1, "deployment": {"node_count": ' + HUGE + "}}",
                 "deployment.node_count must lie in [3, 100000]", id="node-count-beyond-memory"),
    pytest.param('{"seed": 1, "slots_per_round": ' + HUGE + "}",
                 "slots_per_round must lie in", id="slots-beyond-memory"),
    pytest.param('{"seed": 1, "attack": {"fake_msgs_per_round": ' + HUGE + "}}",
                 "fake_msgs_per_round must lie in", id="fake-messages-beyond-memory"),
    pytest.param('{"seed": 1, "attack": {"flood_packets_per_slot": ' + HUGE + "}}",
                 "flood_packets_per_slot must lie in", id="flood-beyond-memory"),
])
@pytest.mark.parametrize("command", [
    ["run"], ["compare"], ["sweep", "--axis", "mode", "--values", "imids"],
], ids=["run", "compare", "sweep"])
def test_a_parsed_but_unusable_tree_is_a_config_error(tmp_path, capsys, text, message, command):
    """JSON can nest deeper than a copy of the tree may recurse, or hold an
    integer the simulation cannot turn into a float or Python cannot read,
    or a count the simulation could not hold, refused before it is built."""
    path = tmp_path / "scenario.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert cli.main([command[0], str(path), "--out", str(out), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_unknown_key_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path, typo_section={"x": 1})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


def test_override_without_equals_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["run", cfg, "--override", "rounds"]) == 2


STOCK = os.path.join(os.path.dirname(__file__), "..", "configs", "stock_comparison.json")
STRIKES_RANGE = ("detection.injected_false_strikes must be [node, round] pairs, "
                 "node 1 to 69 and round >= 0, got ")


@pytest.mark.parametrize("override, message", [
    pytest.param("attack.attacker_ids=[999]",
                 "attack.attacker_ids must be node ids 1 to 69, got [999]",
                 id="unknown-attacker-id"),
    pytest.param("detection.injected_false_strikes=[[1]]", "injected_false_strikes",
                 id="malformed-injected-strike"),
    pytest.param("detection.injected_false_strikes=[[5000,1]]",
                 f"{STRIKES_RANGE}((5000, 1),)", id="unknown-injected-strike"),
    pytest.param("detection.injected_false_strikes=[[0,1]]",
                 f"{STRIKES_RANGE}((0, 1),)", id="injected-strike-on-sink"),
    pytest.param("detection.injected_false_strikes=[[5,-1]]",
                 f"{STRIKES_RANGE}((5, -1),)", id="injected-strike-negative-round"),
    pytest.param("rounds=1.5", "rounds must be an integer", id="fractional-int"),
    pytest.param('traffic.data_bits="10"', "traffic.data_bits must be an integer",
                 id="string-int"),
    pytest.param("slots_per_round=true", "slots_per_round must be an integer",
                 id="bool-int"),
    pytest.param("energy.e_elec=NaN", "energy.e_elec must be a finite number",
                 id="nan-float"),
    pytest.param("deployment.leader_energy_threshold=1.0",
                 "unknown key(s) under 'deployment': ['leader_energy_threshold']",
                 id="removed-leader-energy-threshold"),
    pytest.param("seed.x=1", "section 'seed' must be an object", id="into-a-number"),
    pytest.param("deployment.node_count.x=1", "section 'deployment.node_count' must be an object",
                 id="into-a-nested-number"),
    pytest.param("rounds=" + "[" * 100_000, "override 'rounds' is nested too deeply",
                 id="nested-too-deeply"),
    pytest.param("traffic.data_bits=" + OVERSIZED, "traffic.data_bits must fit a float",
                 id="oversized-data-bits"),
    pytest.param("deployment.node_count=" + OVERSIZED, "deployment.node_count must fit a float",
                 id="oversized-node-count"),
    pytest.param("rounds=" + "1" * 5000, "override 'rounds' is not valid JSON",
                 id="integer-of-too-many-digits"),
    pytest.param("deployment.node_count=" + HUGE,
                 "deployment.node_count must lie in [3, 100000], got 1000000000000000",
                 id="node-count-beyond-memory"),
])
def test_bad_override_is_a_config_error(tmp_path, capsys, override, message):
    code = cli.main(["run", STOCK, "--out", str(tmp_path / "o"), "--override", override])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override", [
    "deployment.leader_initial_energy=0.8",
    "deployment.follower_initial_energy=1.5",
])
def test_initial_energies_leave_the_deployed_classes_alone(tmp_path, capsys, override):
    # `leader_fraction` alone decides who leads: a weak leader still leads
    # and a strong follower still follows, so set-up forms sectors either way
    out = tmp_path / "o"
    assert cli.main(["run", STOCK, "--out", str(out), "--override", override]) == 0
    capsys.readouterr()  # `run` prints the artifact paths
    assert json.loads((out / "summary.json").read_text())["sector_count"] > 0

    config = load_config(STOCK, [override])
    sim = engine.Simulation(config)
    drawn = topo.deploy(config.deployment, SeededRng(config.seed))
    assert [n.node_class for n in sim.nodes] == [n.node_class for n in drawn]


def test_bad_sweep_axis_and_values_are_config_errors(tmp_path, monkeypatch):
    def no_run(config):
        raise AssertionError("a sweep cell ran before every value was checked")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    cfg = write_config(tmp_path)
    assert cli.main(["sweep", cfg, "--axis", "slots", "--values", "1"]) == 2
    assert cli.main(["sweep", cfg, "--axis", "node_count", "--values", "many"]) == 2
    assert cli.main(["sweep", cfg, "--axis", "mode", "--values", "zigbee"]) == 2
    # a value that would run, then a malformed one: nothing may run first
    assert cli.main(["sweep", cfg, "--axis", "node_count", "--values", "40,many"]) == 2
    assert cli.main(["sweep", cfg, "--axis", "attackers", "--values", "1,2.5"]) == 2
    assert cli.main(["sweep", cfg, "--axis", "mode", "--values", "imids,zigbee"]) == 2


@pytest.mark.parametrize("axis, section", [("node_count", "deployment"), ("attackers", "attack")])
def test_sweep_over_a_section_that_is_not_an_object_is_a_config_error(
    tmp_path, capsys, axis, section
):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"seed": 1, "rounds": 1, section: None}))
    assert cli.main(["sweep", str(path), "--axis", axis, "--values", "5"]) == 2
    assert f"section '{section}' must be an object" in capsys.readouterr().err


def test_a_usage_error_returns_2_instead_of_raising(tmp_path, capsys):
    cfg = write_config(tmp_path)
    # argparse reads "-1,2" as an option, so --values is left without a value
    assert cli.main(["sweep", cfg, "--axis", "node_count", "--values", "-1,2"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0


def test_uncoverable_deployment_is_a_runtime_error(tmp_path, capsys):
    # one node is parked far outside everyone's radio range
    positions = [[0.0, 0.0], [0.0, 10.0], [10.0, 0.0], [500.0, 500.0]]
    cfg = write_config(
        tmp_path,
        deployment={"node_count": 4, "positions": positions},
        attack={"attacker_count": 0, "fake_msgs_per_round": 0,
                "flood_packets_per_slot": 0},
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "runtime error" in capsys.readouterr().err
    assert no_tmp_litter(tmp_path)
