"""Scenario configuration: JSON loading, strict validation, dotted overrides.

A scenario file is a JSON object; every key is optional except `seed`.
Unknown keys anywhere in the tree are hard errors so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .attack import AttackConfig
from .energy import EnergyParams
from .ids import DetectionConfig
from .itids import ItidsConfig
from .topology import SINK_ID

MODES = ("imids", "itids", "imids-no-sectors")
# The deepest valid scenario nests 4 containers (deployment.positions); a
# deeper tree is refused so that no copy of it recurses near the limit.
MAX_DEPTH = 8
# Counts that size what the engine builds, bounded so that a count which
# fits a float but not memory is refused before anything is allocated.
# 100,000 nodes is 62 times the largest profiled field (1,600 nodes); set-up
# at stock density already peaks near 300 MB there.
MAX_NODE_COUNT = 100_000
# Every live node draws one mask bit per slot each round: 100 times the
# stock frame of 10 slots.
MAX_SLOTS_PER_ROUND = 1_000


class ConfigError(Exception):
    pass


def _finite(value) -> bool:
    """A JSON number within float range: no bool, NaN or infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_point(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_finite, value))


@dataclass
class DeploymentConfig:
    node_count: int = 70
    area_width: float = 80.0
    area_height: float = 100.0
    transmission_range: float = 40.0
    sink_position: tuple | None = None
    positions: list | None = None
    leader_fraction: float = 0.15
    leader_initial_energy: float = 2.0
    follower_initial_energy: float = 0.2
    sink_initial_energy: float = 500.0

    def validate(self) -> None:
        if self.node_count < 3:
            raise ConfigError("node_count must be at least 3")
        if self.node_count > MAX_NODE_COUNT:
            raise ConfigError(f"node_count must be at most {MAX_NODE_COUNT}")
        if self.area_width <= 0 or self.area_height <= 0:
            raise ConfigError("area dimensions must be positive")
        if self.transmission_range <= 0:
            raise ConfigError("transmission_range must be positive")
        if not 0 < self.leader_fraction < 1:
            raise ConfigError("leader_fraction must lie in (0, 1)")
        for name in ("leader_initial_energy", "follower_initial_energy", "sink_initial_energy"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.sink_position is not None and self.positions is not None:
            raise ConfigError(
                "sink_position and positions exclude each other: positions[0] is the sink"
            )
        points = [] if self.sink_position is None else [self.sink_position]
        if self.positions is not None:
            if not isinstance(self.positions, list) or len(self.positions) != self.node_count:
                raise ConfigError("positions list must have node_count entries")
            points += self.positions
        if not all(map(_is_point, points)):
            raise ConfigError("sink_position and positions take [x, y] pairs of finite numbers")


@dataclass
class TrafficConfig:
    data_bits: int = 3000
    aggregate_bits: int = 800
    control_bits: int = 200

    def validate(self) -> None:
        for name in ("data_bits", "aggregate_bits", "control_bits"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass
class ScenarioConfig:
    seed: int
    mode: str = "imids"
    rounds: int = 500
    slots_per_round: int = 10
    sleep_probability: float = 0.5
    rotation_hysteresis: float = 0.9
    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    itids: ItidsConfig = field(default_factory=ItidsConfig)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.rounds < 0:
            raise ConfigError("rounds must be non-negative")
        if not 1 <= self.slots_per_round <= MAX_SLOTS_PER_ROUND:
            raise ConfigError(f"slots_per_round must lie in [1, {MAX_SLOTS_PER_ROUND}]")
        if not 0 <= self.sleep_probability <= 1:
            raise ConfigError("sleep_probability must lie in [0, 1]")
        if not 0 < self.rotation_hysteresis <= 1:
            raise ConfigError("rotation_hysteresis must lie in (0, 1]")
        self.deployment.validate()
        self.traffic.validate()
        try:
            self.energy.validate()
            self.attack.validate()
            self.detection.validate()
            self.itids.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.attack.attacker_ids is not None:
            chosen = set(self.attack.attacker_ids)
            unknown = chosen - set(range(self.deployment.node_count))
            if unknown:
                raise ConfigError(f"unknown attacker ids: {sorted(unknown)}")
            if SINK_ID in chosen:
                raise ConfigError("the sink cannot be an attacker")
        for node_id, at_round in self.detection.injected_false_strikes:
            if not 0 <= node_id < self.deployment.node_count:
                raise ConfigError(f"injected strike names unknown node {node_id}")
            if node_id == SINK_ID:
                raise ConfigError("an injected strike cannot name the sink")
            if at_round < 0:
                raise ConfigError(f"injected strike on node {node_id} at negative round {at_round}")


def _build(cls, raw: dict, path: str = ""):
    """Build the config dataclass `cls` from the JSON object `raw`, each
    field held to its annotation: a config dataclass is built the same way
    under its dotted name, an int takes an integer (not a bool, not 1.5) that
    a float can hold, a float any finite number, and a tuple its JSON list as
    tuples. Plain fields are checked before sections, so their faults are
    named first."""
    hints = typing.get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        where = f"key(s) under '{path}'" if path else "top-level key(s)"
        raise ConfigError(f"unknown {where}: {sorted(unknown)}")
    values = {}
    for key in sorted(raw, key=lambda k: dataclasses.is_dataclass(hints[k])):
        value, hint, name = raw[key], hints[key], f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"section '{name}' must be an object")
            value = _build(hint, value, name)
        elif hint is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        elif hint is int and not _finite(value):
            raise ConfigError(f"{name} must fit a float, got an integer of {value.bit_length()} bits")
        elif hint is float and not _finite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        elif tuple in (hint, *typing.get_args(hint)) and isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        values[key] = value
    return cls(**values)


def parse_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    if "seed" not in raw:
        raise ConfigError("scenario must set an explicit integer seed")
    config = _build(ScenarioConfig, raw)
    config.validate()
    return config


def load_raw(path: str) -> dict:
    """The scenario file's JSON object, at most `MAX_DEPTH` containers deep."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer of too many digits
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("scenario file is nested too deeply to read") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    level = [raw]  # walked level by level, as a recursive walk could overflow
    for _ in range(MAX_DEPTH):
        level = [
            v for c in level if isinstance(c, (dict, list))
            for v in (c.values() if isinstance(c, dict) else c)
        ]
    if any(isinstance(c, (dict, list)) for c in level):
        raise ConfigError(f"scenario file is nested too deeply to read: over {MAX_DEPTH} levels")
    return raw


def load_config(path: str, overrides=()) -> ScenarioConfig:
    raw = load_raw(path)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return parse_config(raw)


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply `section.key=value` pairs onto a raw scenario dict in place:
    the one writer of dotted keys.

    Values parse as JSON when possible and fall back to bare strings, so
    `--override mode=itids` and `--override rounds=10` both work.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        dotted, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        except ValueError as exc:  # an integer of too many digits
            raise ConfigError(f"override '{dotted}' is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"override '{dotted}' is nested too deeply to read") from exc
        target = raw
        *sections, key = dotted.split(".")
        for depth, part in enumerate(sections, 1):
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"section '{'.'.join(sections[:depth])}' must be an object")
        target[key] = value
    return raw


def config_to_dict(config: ScenarioConfig) -> dict:
    # through JSON, so tuples become lists and the echo survives a round trip unchanged
    return json.loads(json.dumps(dataclasses.asdict(config)))
