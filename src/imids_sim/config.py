"""Scenario configuration: JSON loading, strict validation, dotted overrides.

A scenario file is a JSON object; every key is optional except `seed`.
Unknown keys anywhere in the tree are hard errors so typos cannot silently
fall back to defaults. Every section is declared here, each numeric key
with the range it accepts, so this module alone knows which values are valid.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from operator import attrgetter

from .core import TRUST_MAX
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
# Each attacker builds `fake_msgs_per_round` plus `flood_packets_per_slot`
# per slot packets a round; at this bound and the longest frame that is
# about a million, which a run can still hold.
MAX_ATTACK_RATE = 1_000


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


@dataclass(frozen=True, slots=True)
class Span:
    """The values a numeric key accepts: `low` to `high`, each end closed
    unless marked open. NaN lies in no span."""

    low: float
    high: float
    low_open: bool
    high_open: bool

    def __contains__(self, value) -> bool:
        low, high = self.low, self.high
        return (low < value if self.low_open else low <= value) and (
            value < high if self.high_open else value <= high
        )

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"must be {'>' if self.low_open else '>='} {self.low}"
        opening = "(" if self.low_open else "["
        closing = ")" if self.high_open else "]"
        return f"must lie in {opening}{self.low}, {self.high}{closing}"


def _key(default=dataclasses.MISSING, *, ge=-math.inf, gt=None, le=math.inf, lt=None):
    """A numeric field with its accepted range: `ge` or `gt` closes or opens
    the lower end, `le` or `lt` the upper one."""
    span = Span(ge if gt is None else gt, le if lt is None else lt, gt is not None, lt is not None)
    return field(default=default, metadata={"span": span})


@dataclass
class DeploymentConfig:
    node_count: int = _key(70, ge=3, le=MAX_NODE_COUNT)
    area_width: float = _key(80.0, gt=0)
    area_height: float = _key(100.0, gt=0)
    transmission_range: float = _key(40.0, gt=0)
    sink_position: tuple | None = None
    positions: list | None = None
    leader_fraction: float = _key(0.15, gt=0, lt=1)
    leader_initial_energy: float = _key(2.0, gt=0)
    follower_initial_energy: float = _key(0.2, gt=0)
    sink_initial_energy: float = _key(500.0, gt=0)


@dataclass
class TrafficConfig:
    data_bits: int = _key(3000, gt=0)
    aggregate_bits: int = _key(800, gt=0)
    control_bits: int = _key(200, gt=0)


@dataclass(frozen=True)
class EnergyParams:
    e_elec: float = _key(50e-9, ge=0)        # J per bit, TX/RX electronics
    e_amp: float = _key(100e-12, ge=0)       # J per bit per m^2, TX amplifier
    p_listen: float = _key(10e-6, ge=0)      # J per slot spent listening
    p_sleep: float = _key(0.1e-6, ge=0)      # J per slot spent sleeping
    e_detect: float = _key(1e-6, ge=0)       # J per detection check
    dp_min_threshold: float = _key(0.05, ge=0, lt=1)  # fraction of initial detection budget


@dataclass
class AttackConfig:
    attacker_ids: list | None = None
    attacker_count: int = _key(0, ge=0)
    fake_msgs_per_round: int = _key(0, ge=0, le=MAX_ATTACK_RATE)
    fake_msg_bits: int = _key(1000, gt=0)
    flood_packets_per_slot: int = _key(0, ge=0, le=MAX_ATTACK_RATE)
    start_round: int = _key(0, ge=0)


@dataclass(frozen=True)
class DetectionConfig:
    window_rounds: int = _key(5, ge=1)
    strike_limit: int = _key(3, ge=1)
    trust_floor: int = _key(8, ge=0, le=TRUST_MAX)
    rate_threshold: float = _key(1.5, gt=1)
    count_threshold: float = _key(2.0, gt=0)
    reputation_min: int = _key(8, ge=0, le=TRUST_MAX)
    injected_false_strikes: tuple = ()


@dataclass(frozen=True)
class ItidsConfig:
    monitor_fraction: float = _key(0.5, ge=0, le=1)


@dataclass
class ScenarioConfig:
    seed: int = _key()  # required; any integer
    mode: str = "imids"
    rounds: int = _key(500, ge=0)
    slots_per_round: int = _key(10, ge=1, le=MAX_SLOTS_PER_ROUND)
    sleep_probability: float = _key(0.5, ge=0, le=1)
    rotation_hysteresis: float = _key(0.9, gt=0, le=1)
    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    itids: ItidsConfig = field(default_factory=ItidsConfig)

    def validate(self) -> None:
        """Refuse a scenario the engine cannot run, naming the key at fault:
        each numeric key against the span declared on its field, then the
        rules that tie keys to each other."""
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        for dotted, get, span in _SPANS:
            value = get(self)
            if value not in span:
                raise ConfigError(f"{dotted} {span}, got {value!r}")
        if not self.energy.p_sleep < self.energy.p_listen:
            raise ConfigError("energy.p_sleep must be below energy.p_listen")
        count, sink, positions = (
            self.deployment.node_count, self.deployment.sink_position, self.deployment.positions
        )
        if sink is not None and positions is not None:
            raise ConfigError("deployment.sink_position and deployment.positions exclude "
                              "each other: positions[0] is the sink")
        placed = positions is None or (
            isinstance(positions, list) and len(positions) == count
            and all(map(_is_point, positions))
        )
        if not placed or not (sink is None or _is_point(sink)):
            raise ConfigError("deployment.sink_position takes an [x, y] pair of finite numbers, "
                              f"and deployment.positions node_count ({count}) of them")

        def names_node(i) -> bool:  # a deployed node other than the sink
            return type(i) is int and 0 <= i < count and i != SINK_ID

        ids = self.attack.attacker_ids
        if ids is not None and not (isinstance(ids, (list, tuple)) and all(map(names_node, ids))):
            raise ConfigError(f"attack.attacker_ids must be node ids 1 to {count - 1}, got {ids!r}")
        strikes = self.detection.injected_false_strikes
        if not isinstance(strikes, (list, tuple)) or not all(
            isinstance(s, (list, tuple)) and len(s) == 2 and names_node(s[0])
            and type(s[1]) is int and s[1] >= 0
            for s in strikes
        ):
            raise ConfigError("detection.injected_false_strikes must be [node, round] pairs, "
                              f"node 1 to {count - 1} and round >= 0, got {strikes!r}")


def _spans(cls, path=""):
    """(dotted key, its getter, its span) for every field under `cls` that
    declares a span, sections walked in field order."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        dotted = path + f.name
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _spans(hints[f.name], dotted + ".")
        elif "span" in f.metadata:
            yield dotted, attrgetter(dotted), f.metadata["span"]


_SPANS = tuple(_spans(ScenarioConfig))


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
