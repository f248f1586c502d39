import dataclasses
import math
import random
import typing

import pytest

from imids_sim.config import ScenarioConfig
from imids_sim.core import (
    NodeClass,
    Position,
    Role,
    SensorNode,
    make_energy_account,
)

# each section of a scenario by name: a field of `ScenarioConfig` whose
# annotation is a config dataclass
SECTION_TYPES = {
    name: hint for name, hint in typing.get_type_hints(ScenarioConfig).items()
    if dataclasses.is_dataclass(hint)
}


def just_outside(span, hint):
    """The refused value nearest the span's lower end, or its upper end if
    it has no lower one: an open end itself, else one step beyond it (1 for
    an integer key, one float for a real one)."""
    if math.isfinite(span.low):
        end, outward, is_open = span.low, -math.inf, span.low_open
    else:
        end, outward, is_open = span.high, math.inf, span.high_open
    if is_open:
        return hint(end)
    return end + (1 if outward > 0 else -1) if hint is int else math.nextafter(end, outward)


def build_node(
    node_id,
    x=0.0,
    y=0.0,
    energy=1.0,
    node_class=NodeClass.FOLLOWER,
    role=Role.LN,
    malicious=False,
):
    return SensorNode(
        id=node_id,
        position=Position(float(x), float(y)),
        node_class=node_class,
        role=role,
        energy=make_energy_account(energy),
        malicious=malicious,
    )


def build_sink(x=0.0, y=0.0, energy=500.0):
    return build_node(0, x, y, energy, node_class=NodeClass.SINK, role=Role.SN)


@pytest.fixture
def rng():
    return random.Random(12345)


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdicts where capture cannot swallow them."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
