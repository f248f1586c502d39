import dataclasses
import json
import math
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from imids_sim import cli
from imids_sim.attack import MAX_ATTACK_RATE
from imids_sim.config import (
    _SPANS,
    MAX_NODE_COUNT,
    MAX_SLOTS_PER_ROUND,
    MODES,
    ConfigError,
    ScenarioConfig,
    _build,
    apply_overrides,
    config_to_dict,
    load_config,
    parse_config,
)

from conftest import SECTION_TYPES, just_outside


def test_minimal_config_needs_only_seed():
    cfg = parse_config({"seed": 3})
    assert cfg.seed == 3
    assert cfg.mode == "imids"
    assert cfg.rounds == 500
    assert cfg.deployment.node_count == 70


def test_seed_is_mandatory_and_integral():
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_config({"seed": "forty-two"})
    with pytest.raises(ConfigError):
        parse_config({"seed": 1.5})
    with pytest.raises(ConfigError):
        parse_config({"seed": True})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "typo_key": True})
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "deployment": {"node_countz": 10}})


@dataclass
class Leaf:
    count: int = 1
    share: float = 0.5
    pair: tuple | None = None


@dataclass
class Branch:
    leaf: Leaf = field(default_factory=Leaf)


@dataclass
class Tree:
    branch: Branch = field(default_factory=Branch)
    top: int = 0


def plain_fields(cls, path=""):
    """(dotted name, annotation) of every field under `cls` that is not a
    section, read from the annotations."""
    for name, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from plain_fields(hint, f"{path}{name}.")
        else:
            yield f"{path}{name}", hint


def test_the_builder_walks_any_tree_of_config_dataclasses():
    # a tree that no table lists builds the same way, and names each fault by its dotted path
    tree = _build(Tree, {"top": 2, "branch": {"leaf": {"count": 3, "pair": [1, 2]}}})
    assert tree == Tree(Branch(Leaf(count=3, pair=(1, 2))), top=2)
    for raw, message in [
        ({"branch": {"leaf": 5}}, "section 'branch.leaf' must be an object"),
        ({"branch": {"leaf": {"z": 1}}}, "unknown key(s) under 'branch.leaf': ['z']"),
        ({"branch": {"leaf": {"count": True}}}, "branch.leaf.count must be an integer, got True"),
        ({"branch": {"leaf": {"share": "x"}}}, "branch.leaf.share must be a finite number, got 'x'"),
    ]:
        with pytest.raises(ConfigError) as caught:
            _build(Tree, raw)
        assert str(caught.value) == message


def test_every_section_is_built_from_the_annotations(tmp_path, capsys):
    assert set(SECTION_TYPES) == {"deployment", "energy", "traffic", "attack", "detection", "itids"}
    config = parse_config({"seed": 1, **dict.fromkeys(SECTION_TYPES, {})})
    assert {name: type(getattr(config, name)) for name in SECTION_TYPES} == SECTION_TYPES

    # an unknown key, a bad number and a number just outside its key's range
    # at each depth are named by their dotted path
    cases = [("nosuch", 1, "unknown top-level key(s): ['nosuch']")]
    cases += [(f"{name}.nosuch", 1, f"unknown key(s) under '{name}': ['nosuch']")
              for name in SECTION_TYPES]
    spans = {dotted: span for dotted, _, span in _SPANS}
    for dotted, hint in plain_fields(ScenarioConfig):
        if hint is int:
            cases.append((dotted, 1.5, f"{dotted} must be an integer, got 1.5"))
        elif hint is float:
            cases.append((dotted, "x", f"{dotted} must be a finite number, got 'x'"))
        span = spans.get(dotted)
        if span is not None and (math.isfinite(span.low) or math.isfinite(span.high)):
            value = just_outside(span, hint)
            cases.append((dotted, value, f"{dotted} {span}, got {value!r}"))
    assert {dotted.count(".") for dotted, _, _ in cases} == {0, 1}
    path = tmp_path / "scenario.json"
    for dotted, value, message in cases:
        raw = apply_overrides({"seed": 1, "rounds": 1}, [f"{dotted}={json.dumps(value)}"])
        path.write_text(json.dumps(raw))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2, dotted
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_seconds_per_round_is_an_unknown_key(tmp_path, capsys):
    # rounds are the only clock; no key rescales them into seconds
    with pytest.raises(ConfigError, match="seconds_per_round"):
        parse_config({"seed": 1, "seconds_per_round": 1.0})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"seed": 1, "rounds": 1, "seconds_per_round": 1.0}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "seconds_per_round" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mode_validated():
    for mode in MODES:
        assert parse_config({"seed": 1, "mode": mode}).mode == mode
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "mode": "other"})


def test_section_values_validated():
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "deployment": {"node_count": 2}})
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "sleep_probability": 1.5})
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "detection": {"rate_threshold": 0.5}})
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "energy": {"p_sleep": 1.0}})
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "deployment": {"sink_position": [1, "a"]}})
    with pytest.raises(ConfigError):
        parse_config({"seed": 1, "deployment": {"node_count": 3, "positions": [[0, 0]] * 2 + [5]}})


def test_every_numeric_key_declares_its_range():
    # so a new key cannot skip validation: a range is declared or the key is refused here
    spans = {dotted for dotted, _, _ in _SPANS}
    numeric = {dotted for dotted, hint in plain_fields(ScenarioConfig) if hint in (int, float)}
    assert numeric == spans
    assert len(numeric) == 34  # the seed takes any integer; the other 33 are bounded


@pytest.mark.parametrize("override, message", [
    ("energy.dp_min_threshold=1", "energy.dp_min_threshold must lie in [0, 1), got 1"),
    ("traffic.data_bits=0", "traffic.data_bits must be > 0, got 0"),
    ("attack.fake_msg_bits=0", "attack.fake_msg_bits must be > 0, got 0"),
    ("detection.rate_threshold=1.0", "detection.rate_threshold must be > 1, got 1.0"),
    ("detection.trust_floor=16", "detection.trust_floor must lie in [0, 15], got 16"),
    ("itids.monitor_fraction=2", "itids.monitor_fraction must lie in [0, 1], got 2"),
    ("rotation_hysteresis=0", "rotation_hysteresis must lie in (0, 1], got 0"),
    ("rounds=-1", "rounds must be >= 0, got -1"),
    ("energy.e_elec=-1e-9", "energy.e_elec must be >= 0, got -1e-09"),
])
def test_a_refusal_names_the_key_and_its_range(override, message):
    with pytest.raises(ConfigError) as caught:
        parse_config(apply_overrides({"seed": 1}, [override]))
    assert str(caught.value) == message


COUNT_BOUNDS = [  # (section, key, its bound): each sizes what the engine builds
    ("deployment", "node_count", MAX_NODE_COUNT),
    (None, "slots_per_round", MAX_SLOTS_PER_ROUND),
    ("attack", "fake_msgs_per_round", MAX_ATTACK_RATE),
    ("attack", "flood_packets_per_slot", MAX_ATTACK_RATE),
]


def with_count(section, key, value) -> dict:
    raw = {"seed": 1}
    (raw.setdefault(section, {}) if section else raw)[key] = value
    return raw


@pytest.mark.parametrize("section, key, bound", COUNT_BOUNDS)
def test_a_count_is_bounded_by_its_constant(section, key, bound):
    config = parse_config(with_count(section, key, bound))
    assert getattr(getattr(config, section) if section else config, key) == bound
    with pytest.raises(ConfigError, match=rf"{key} must .*{bound}"):
        parse_config(with_count(section, key, bound + 1))


def test_sink_position_and_positions_exclude_each_other(tmp_path, capsys):
    # positions[0] is the sink, so a sink_position beside it could only be ignored
    deployment = {"node_count": 3, "positions": [[0, 0], [5, 0], [0, 5]], "sink_position": [40, 0]}
    with pytest.raises(ConfigError, match="sink_position.*positions"):
        parse_config({"seed": 1, "deployment": deployment})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"seed": 1, "rounds": 1, "deployment": deployment}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "sink_position" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overrides_dotted_paths():
    raw = {"seed": 1}
    out = apply_overrides(raw, ["rounds=25", "attack.start_round=3", "mode=itids"])
    cfg = parse_config(out)
    assert cfg.rounds == 25
    assert cfg.attack.start_round == 3
    assert cfg.mode == "itids"


def test_override_requires_equals_sign():
    with pytest.raises(ConfigError):
        apply_overrides({"seed": 1}, ["rounds"])


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"seed": 9, "rounds": 12}))
    cfg = load_config(str(path), overrides=["rounds=5"])
    assert cfg.seed == 9
    assert cfg.rounds == 5


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    array = tmp_path / "arr.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(array))


def test_config_to_dict_is_json_serializable():
    cfg = parse_config({"seed": 4, "detection": {"window_rounds": 7}})
    echo = config_to_dict(cfg)
    assert json.loads(json.dumps(echo)) == echo
    assert echo["detection"]["window_rounds"] == 7
    assert echo["seed"] == 4


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def test_the_readme_lists_every_key_with_its_default():
    body = README.read_text().split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| `?([^`|]+?)`? \|", body, re.M))
    bullets = dict(re.findall(r"^- `(\w+)`: (.*(?:\n  .*)*)", body, re.M))
    assert set(bullets) == set(SECTION_TYPES)
    assert rows.keys() | bullets.keys() == {f.name for f in dataclasses.fields(ScenarioConfig)}
    for f in dataclasses.fields(ScenarioConfig):
        if f.name in rows:
            expected = "required" if f.default is dataclasses.MISSING else f.default
            assert _readme_value(rows[f.name]) == expected, f.name

    for section, text in bullets.items():
        defaults = {f.name: f.default for f in dataclasses.fields(SECTION_TYPES[section])}
        assert set(re.findall(r"`(\w+)`", text)) == set(defaults), section
        stated = dict(re.findall(r"`(\w+)` (-?\d[\d.]*(?:e-?\d+)?)\b", text))
        numeric = {
            name for name, value in defaults.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        assert set(stated) == numeric, section
        for name, number in stated.items():
            assert float(number) == defaults[name], f"{section}.{name}"
