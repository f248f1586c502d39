"""The declared key ranges and cross-field rules against the hand-written
checks they replaced.

`reference_validate` is the validation the scenario sections used to carry
as seven `validate()` methods, kept verbatim apart from taking each section
as an argument. Each case is a raw scenario put through `parse_config` and
through the reference on the same built tree: both must accept it or both
refuse it.
"""

import json
import math
import typing

import pytest

from imids_sim.config import (
    _SPANS,
    MAX_ATTACK_RATE,
    MAX_NODE_COUNT,
    MAX_SLOTS_PER_ROUND,
    MODES,
    ConfigError,
    ScenarioConfig,
    _build,
    apply_overrides,
    parse_config,
)
from imids_sim.topology import SINK_ID

from conftest import SECTION_TYPES, just_outside


# --- the reference: the seven bodies as they were ----------------------------------


def _finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_point(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_finite, value))


def reference_deployment(self) -> None:
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


def reference_traffic(self) -> None:
    for name in ("data_bits", "aggregate_bits", "control_bits"):
        if getattr(self, name) <= 0:
            raise ConfigError(f"{name} must be positive")


def reference_energy(self) -> None:
    for name in ("e_elec", "e_amp", "p_listen", "p_sleep", "e_detect"):
        if getattr(self, name) < 0:
            raise ValueError(f"{name} must be non-negative")
    if not self.p_sleep < self.p_listen:
        raise ValueError("p_sleep must be strictly below p_listen")
    if not 0 <= self.dp_min_threshold < 1:
        raise ValueError("dp_min_threshold must be in [0, 1)")


def reference_attack(self) -> None:
    if self.attacker_count < 0:
        raise ValueError("attacker_count must be non-negative")
    for name in ("fake_msgs_per_round", "flood_packets_per_slot"):
        if not 0 <= getattr(self, name) <= MAX_ATTACK_RATE:
            raise ValueError(f"{name} must lie in [0, {MAX_ATTACK_RATE}]")
    if self.fake_msg_bits <= 0:
        raise ValueError("fake_msg_bits must be positive")
    if self.start_round < 0:
        raise ValueError("start_round must be non-negative")
    ids = self.attacker_ids
    if ids is not None and (
        not isinstance(ids, (list, tuple))
        or not all(isinstance(i, int) and not isinstance(i, bool) for i in ids)
    ):
        raise ValueError("attacker_ids must be a list of integer node ids")


def reference_detection(self) -> None:
    if self.window_rounds < 1 or self.strike_limit < 1:
        raise ValueError("window_rounds and strike_limit must be >= 1")
    if not 0 <= self.trust_floor <= 15 or not 0 <= self.reputation_min <= 15:
        raise ValueError("trust thresholds live on the 4-bit scale 0..15")
    if self.rate_threshold <= 1.0 or self.count_threshold <= 0:
        raise ValueError("rate_threshold must exceed 1.0, count_threshold 0")
    strikes = self.injected_false_strikes
    if not isinstance(strikes, (list, tuple)) or not all(
        isinstance(item, (list, tuple))
        and len(item) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        for item in strikes
    ):
        raise ValueError("injected_false_strikes must be [node_id, round] integer pairs")


def reference_itids(self) -> None:
    if not 0 <= self.monitor_fraction <= 1:
        raise ValueError("monitor_fraction must lie in [0, 1]")


def reference_validate(self) -> None:
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
    reference_deployment(self.deployment)
    reference_traffic(self.traffic)
    try:
        reference_energy(self.energy)
        reference_attack(self.attack)
        reference_detection(self.detection)
        reference_itids(self.itids)
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


# --- the comparison ----------------------------------------------------------------


def verdicts(raw: dict) -> tuple:
    """(the reference accepts, `parse_config` accepts) for one raw scenario."""
    config = _build(ScenarioConfig, raw)  # the builder both share; every case here builds
    try:
        reference_validate(config)
        reference = True
    except ConfigError:
        reference = False
    try:
        parse_config(raw)
        today = True
    except ConfigError:
        today = False
    return reference, today


def scenario(dotted: str, value, **top) -> dict:
    return apply_overrides({"seed": 1, **top}, [f"{dotted}={json.dumps(value)}"])


HINTS = {
    **typing.get_type_hints(ScenarioConfig),
    **{f"{name}.{key}": hint for name, cls in SECTION_TYPES.items()
       for key, hint in typing.get_type_hints(cls).items()},
}
BOUNDED = [(dotted, span) for dotted, _, span in _SPANS
           if math.isfinite(span.low) or math.isfinite(span.high)]


def edge_values(span, hint) -> set:
    """Each finite end of the span, the nearest values inside and outside it,
    then 0, -1 and a large value."""
    values = {0, -1, 10**9}
    for end in (span.low, span.high):
        if math.isfinite(end):
            if hint is int:
                values |= {end - 1, end, end + 1}
            else:
                values |= {math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)}
    return {hint(v) for v in values}


def test_thirty_three_keys_are_bounded():
    assert len(BOUNDED) == 33


@pytest.mark.parametrize("dotted, span", BOUNDED, ids=[dotted for dotted, _ in BOUNDED])
def test_a_bounded_key_accepts_what_the_reference_accepts(dotted, span):
    outcomes = set()
    for value in sorted(edge_values(span, HINTS[dotted])):
        reference, today = verdicts(scenario(dotted, value))
        assert reference == today, (dotted, value)
        outcomes.add(today)
    assert outcomes == {True, False}, dotted  # the cases reach both sides of the range
    assert not verdicts(scenario(dotted, just_outside(span, HINTS[dotted])))[1]


def nudged(value, *steps):
    return [value, *(math.nextafter(value, step) for step in steps)]


CROSS_FIELD = {
    "mode": [scenario("mode", mode) for mode in [*MODES, "other", "", "IMIDS"]],
    "p_sleep < p_listen": [
        scenario("energy.p_sleep", p_sleep, energy={"p_listen": 1e-5})
        for p_sleep in nudged(1e-5, -math.inf, math.inf)
    ] + [scenario("energy.p_listen", 0.0, energy={"p_sleep": 0.0})],
    "positions": [
        scenario("deployment.node_count", 3, deployment={"sink_position": position})
        for position in ([0, 0], [1.5, -2], [1, "a"], [1], [1, 2, 3], 5, "x", [math.nan, 0])
    ] + [
        scenario("deployment.node_count", count, deployment={"positions": positions})
        for count in (3, 4)
        for positions in (
            [[0, 0], [5, 0], [0, 5]], [[0, 0], [5, 0]], [[0, 0], [5, 0], 5],
            [[0, 0], [5, 0], [0, math.inf]], [[0, 0], [5, 0], [True, 1]], "xyz", {"a": 1},
        )
    ] + [
        scenario("deployment.sink_position", [40, 0],
                 deployment={"node_count": 3, "positions": [[0, 0], [5, 0], [0, 5]]}),
    ],
    "attacker ids": [
        scenario("attack.attacker_ids", ids, deployment={"node_count": 10})
        for ids in (None, [], [1], [9], [1, 9, 1], [10], [0], [-1], [True], [1.0], "x", 5, [[1]])
    ],
    "injected strikes": [
        scenario("detection.injected_false_strikes", strikes, deployment={"node_count": 10})
        for strikes in (
            [], [[1, 0]], [[9, 500]], [[1, 0], [1, 0]], [[10, 0]], [[0, 0]], [[-1, 0]],
            [[1, -1]], [[1]], [[1, 2, 3]], [[True, 0]], [[1, False]], [[1, 0.5]], [5], "x", 5,
        )
    ],
}


@pytest.mark.parametrize("rule", sorted(CROSS_FIELD))
def test_a_cross_field_rule_accepts_what_the_reference_accepts(rule):
    outcomes = set()
    for raw in CROSS_FIELD[rule]:
        reference, today = verdicts(raw)
        assert reference == today, raw
        outcomes.add(today)
    assert outcomes == {True, False}, rule
