"""Randomized invariant checks over small instances.

Each suite declares its example budget in EXAMPLES so the total volume
is visible (and checkable) in one place.
"""

import json
import os
import random
import tempfile
import typing
from unittest import mock

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from imids_sim import cli, engine
from imids_sim import topology as topo
from imids_sim.config import (
    MODES,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    parse_config,
)
from imids_sim.core import (
    NodeClass,
    Role,
    TrustState,
    is_alive,
    trust_penalize,
    trust_reward,
)
from imids_sim.energy import EnergyParams, charge_detection, consume

from conftest import SECTION_TYPES, build_node, build_sink

EXAMPLES = {
    "trust_bounds": 300,
    "sector_partition": 300,
    "cluster_coverage": 250,
    "structure_roles": 150,
    "alive_monotone": 100,
    "config_contract": 200,
    "clamp_reference": 400,
    "cli_contract": 150,
}

RELAXED = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# --- trust nibble ----------------------------------------------------------------


@settings(RELAXED, max_examples=EXAMPLES["trust_bounds"])
@given(
    start=st.integers(min_value=0, max_value=15),
    steps=st.lists(st.booleans(), max_size=60),
)
def test_trust_stays_a_nibble(start, steps):
    trust = TrustState(nibble=start)
    for reward in steps:
        trust = trust_reward(trust) if reward else trust_penalize(trust)
        assert 0 <= trust.nibble <= 15


# --- sector formation --------------------------------------------------------------


@st.composite
def cluster_instances(draw):
    count = draw(st.integers(min_value=3, max_value=12))
    nodes = [build_sink(), build_node(1, 30, 30, energy=2.0,
                                      node_class=NodeClass.LEADER, role=Role.SM)]
    for i in range(2, count + 2):
        node = build_node(
            i,
            draw(st.floats(0, 60, allow_nan=False)),
            draw(st.floats(0, 60, allow_nan=False)),
            energy=0.2,
        )
        node.energy.residual_energy = draw(
            st.floats(0.0, 0.2, allow_nan=False, exclude_min=False)
        )
        nodes.append(node)
    follower_ids = [n.id for n in nodes[2:]]
    quarantined = set(draw(st.lists(st.sampled_from(follower_ids), unique=True)))
    return nodes, quarantined


@settings(RELAXED, max_examples=EXAMPLES["sector_partition"])
@given(instance=cluster_instances())
def test_sectors_are_a_partition_with_clean_coordinators(instance):
    nodes, quarantined = instance
    cluster = topo.Cluster(id=0, coordinator=1, members={n.id for n in nodes[2:]})
    graph = topo.build_graph(nodes, 40.0)
    sectors = topo.form_sectors(cluster, {n.id: n for n in nodes}, graph, quarantined)

    alive_followers = {n.id for n in nodes[2:] if is_alive(n)}
    seen = set()
    for sector in sectors:
        ids = sector.node_ids()
        assert sector.coordinator not in sector.leaves
        assert sector.coordinator not in quarantined
        assert not ids & seen
        seen |= ids
    if alive_followers - quarantined:
        assert sectors
        assert seen == alive_followers
    else:
        # nobody may coordinate, so nobody gets a sector at all
        assert sectors == []


# --- clustering ----------------------------------------------------------------------


@st.composite
def field_instances(draw):
    count = draw(st.integers(min_value=4, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    nodes = [build_sink(25, 25)]
    for i in range(1, count):
        if draw(st.booleans()):
            node = build_node(i, draw(st.floats(0, 50, allow_nan=False)),
                              draw(st.floats(0, 50, allow_nan=False)),
                              energy=2.0, node_class=NodeClass.LEADER, role=Role.SM)
        else:
            node = build_node(i, draw(st.floats(0, 50, allow_nan=False)),
                              draw(st.floats(0, 50, allow_nan=False)), energy=0.2)
        nodes.append(node)
    return nodes, seed


@settings(RELAXED, max_examples=EXAMPLES["cluster_coverage"])
@given(instance=field_instances())
def test_every_alive_node_lands_in_exactly_one_cluster(instance):
    nodes, seed = instance
    graph = topo.build_graph(nodes, 45.0)
    try:
        coordinators = topo.select_cluster_coordinators(nodes, graph)
        clusters = topo.form_clusters(nodes, coordinators, graph, random.Random(seed))
    except (topo.CoverageFailure, topo.UnreachableNode):
        assume(False)
        return

    by_id = {n.id: n for n in nodes}
    placed = {}
    for cluster in clusters:
        for member in cluster.node_ids():
            assert member not in placed
            placed[member] = cluster
        cc = by_id[cluster.coordinator]
        assert cc.node_class is NodeClass.LEADER
        for member in cluster.members:
            assert by_id[member].distance_to(cc) <= graph.transmission_range

    alive_ids = {n.id for n in nodes if is_alive(n) and n.node_class is not NodeClass.SINK}
    assert set(placed) == alive_ids


# --- whole-network structure ----------------------------------------------------------


def arena_config(node_count, seed, mode="imids", rounds=6, attackers=0, start=0):
    # complete radio graph keeps every random draw feasible
    return parse_config({
        "seed": seed,
        "rounds": rounds,
        "mode": mode,
        "deployment": {
            "node_count": node_count,
            "area_width": 24.0,
            "area_height": 24.0,
            "leader_fraction": 0.3,
        },
        "attack": {
            "attacker_count": attackers,
            "fake_msgs_per_round": 3,
            "flood_packets_per_slot": 2,
            "start_round": start,
        },
    })


def check_role_class_consistency(sim):
    for node in sim.nodes:
        if node.node_class is NodeClass.SINK:
            assert node.role is Role.SN
        elif node.role in (Role.CC, Role.SM, Role.FSH):
            assert node.node_class is NodeClass.LEADER
        elif node.role is Role.SC:
            assert node.node_class is NodeClass.FOLLOWER
    for cluster in sim.clusters:
        assert sim.by_id[cluster.coordinator].role is Role.CC
        for sector in cluster.sectors:
            assert sector.coordinator in cluster.members


@settings(RELAXED, max_examples=EXAMPLES["structure_roles"])
@given(
    node_count=st.integers(min_value=8, max_value=16),
    seed=st.integers(min_value=0, max_value=10**6),
    mode=st.sampled_from(["imids", "itids", "imids-no-sectors"]),
)
def test_roles_match_classes_before_and_after_rounds(node_count, seed, mode):
    sim = engine.initialize(arena_config(node_count, seed, mode=mode))
    check_role_class_consistency(sim)
    for _ in range(3):
        if sim.alive_non_sink() == 0:
            break
        sim.run_round()
    check_role_class_consistency(sim)


@settings(RELAXED, max_examples=EXAMPLES["alive_monotone"])
@given(
    node_count=st.integers(min_value=8, max_value=14),
    seed=st.integers(min_value=0, max_value=10**6),
    attackers=st.integers(min_value=0, max_value=2),
)
def test_alive_count_is_monotone_and_energy_only_drains(node_count, seed, attackers):
    trace = engine.run_simulation(
        arena_config(node_count, seed, attackers=attackers, rounds=6)
    )
    series = trace.alive_series
    assert all(a >= b for a, b in zip(series, series[1:]))
    for node_id, initial in trace.initial_energy.items():
        assert trace.final_energy[node_id] <= initial + 1e-12
        assert trace.final_energy[node_id] >= 0.0


# --- configuration contract ---------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3)
    | st.sampled_from(MODES),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)


def field_values(hint):
    """Mostly a value of the annotated kind, sometimes any JSON value."""
    if hint is int:
        typed = st.integers(-1, 12)  # small enough that a valid run stays cheap
    elif hint is float:
        typed = st.floats(0.001, 100) | st.floats()
    else:
        typed = JSON_VALUES
    return st.one_of(typed, typed, JSON_VALUES)


def fields_of(cls):
    return {key: field_values(hint) for key, hint in typing.get_type_hints(cls).items()}


def scenario_objects():
    optional = fields_of(ScenarioConfig)
    del optional["rounds"]  # always present, or the default 500 rounds would run
    for name, cls in SECTION_TYPES.items():
        optional[name] = st.fixed_dictionaries({}, optional=fields_of(cls)) | JSON_VALUES
    return st.fixed_dictionaries({"rounds": field_values(int)}, optional=optional)


@settings(RELAXED, max_examples=EXAMPLES["config_contract"])
@given(raw=scenario_objects())
def test_any_json_object_parses_or_is_a_config_error(raw):
    try:
        parse_config(json.loads(json.dumps(raw)))
        allowed = (cli.EXIT_OK, cli.EXIT_RUNTIME)
    except ConfigError:
        allowed = (cli.EXIT_CONFIG,)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        assert cli.main(["run", path, "--out", os.path.join(tmp, "out")]) in allowed


# --- command-line contract ---------------------------------------------------------

SCHEMA_HINTS = {  # dotted override key -> annotation; a section takes any JSON value
    **typing.get_type_hints(ScenarioConfig),
    **{f"{name}.{key}": hint for name, cls in SECTION_TYPES.items()
       for key, hint in typing.get_type_hints(cls).items()},
}
BAD_KEYS = ["nosuch", "deployment.nosuch", "seed.x", "deployment.node_count.x"]


@st.composite
def cli_invocations(draw):
    """A command, its argv and the scenario file it reads: a small valid
    base under drawn schema overrides, bad values and bad keys included."""
    raw = {"seed": draw(st.integers(0, 50)), "rounds": draw(st.integers(0, 3)),
           "deployment": {"node_count": draw(st.integers(3, 12)),
                          "area_width": 30.0, "area_height": 30.0}}
    keys = draw(st.lists(st.sampled_from([*SCHEMA_HINTS, *BAD_KEYS]), max_size=3))
    items = [f"{key}={json.dumps(draw(field_values(SCHEMA_HINTS.get(key))))}" for key in keys]
    if draw(st.booleans()):
        items.append(draw(st.sampled_from(["rounds", "=1", "mode=bogus", "rounds=x"])))
    command = draw(st.sampled_from(["run", "compare", "sweep"]))
    argv = [command, "<config>", "--out", "<out>"]
    if command == "run":
        for item in items:
            argv += ["--override", item]
    else:  # compare and sweep read their overrides from the file
        try:
            apply_overrides(raw, items)
        except ConfigError:
            pass  # the file keeps what applied before the bad item
    if command == "sweep":
        axis = draw(st.sampled_from(["node_count", "attackers", "mode", "bogus"]))
        good = {
            "node_count": st.integers(3, 12).map(str),
            "attackers": st.integers(0, 3).map(str),
        }.get(axis, st.sampled_from(MODES))
        bad = st.sampled_from([*MODES, "x", "1.5", " ", "-1", "2"])
        cells = draw(st.lists(st.one_of(good, good, good, bad), max_size=3))
        argv += ["--axis", axis, "--values", ",".join(cells)]
    text = draw(st.sampled_from([None, None, None, "[]", "{", "null"]))
    return argv, json.dumps(raw) if text is None else text


# the set-up handshakes kill every node, so both compare arms end with no round
SETUP_EXTINCTION = {"seed": 0, "rounds": 1, "energy": {"e_elec": 1.0},
                    "deployment": {"node_count": 3, "area_width": 30.0, "area_height": 30.0}}


@settings(RELAXED, max_examples=EXAMPLES["cli_contract"])
@given(invocation=cli_invocations())
@example(invocation=(["compare", "<config>", "--out", "<out>"], json.dumps(SETUP_EXTINCTION)))
def test_every_cli_exit_is_0_2_or_3_and_names_its_cause(invocation):
    argv, text = invocation
    ran, raised = [], []

    def recording(config):
        ran.append(config)
        try:
            return engine.run_simulation(config)
        except Exception as exc:
            raised.append(exc)
            raise

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = [{"<config>": path, "<out>": os.path.join(tmp, "out")}.get(a, a) for a in argv]
        with mock.patch.object(cli, "run_simulation", recording):
            code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
    if code == cli.EXIT_CONFIG:
        assert not ran  # every check comes before the first simulation
    if code == cli.EXIT_RUNTIME:
        assert len(raised) == 1
        assert isinstance(raised[0], (topo.CoverageFailure, topo.UnreachableNode))
    else:
        assert not raised


# --- energy clamp -------------------------------------------------------------------

LEAST_NORMAL = 2.2250738585072014e-308  # below it, doubles are subnormal
JOULES = (
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    | st.floats(min_value=0.0, max_value=LEAST_NORMAL)
    | st.sampled_from([0.0, 5e-324, LEAST_NORMAL])
)


def consume_reference(node, joules):
    """`energy.consume` as it was written with `min()`."""
    if joules < 0:
        raise ValueError("cannot consume negative energy")
    if joules == 0.0:
        return 0.0
    account = node.energy
    spent = min(joules, account.residual_energy)
    account.residual_energy -= spent
    if account.residual_energy <= 0.0:
        account.residual_energy = 0.0
    return spent


def charge_detection_reference(node, params):
    """`energy.charge_detection` as it was written with `max()` and `is_alive`."""
    account = node.energy
    consume_reference(node, params.e_detect)
    account.detection_budget = max(0.0, account.detection_budget - params.e_detect)
    floor = params.dp_min_threshold * account.detection_budget_initial
    if account.detection_budget < floor or not is_alive(node):
        account.detection_enabled = False
        return True
    return False


@settings(RELAXED, max_examples=EXAMPLES["clamp_reference"] // 2)
@given(residual=JOULES, joules=JOULES, equal=st.booleans())
@example(residual=0.0, joules=0.0, equal=False)
@example(residual=1e-6, joules=1e-6, equal=False)
def test_consume_matches_its_min_reference(residual, joules, equal):
    if equal:
        joules = residual
    node, reference = build_node(1), build_node(2)
    node.energy.residual_energy = reference.energy.residual_energy = residual
    assert consume(node, joules) is None
    consume_reference(reference, joules)
    assert node.energy.residual_energy.hex() == reference.energy.residual_energy.hex()


@settings(RELAXED, max_examples=EXAMPLES["clamp_reference"] // 2)
@given(
    residual=JOULES,
    budget=JOULES,
    initial=JOULES,
    e_detect=JOULES,
    threshold=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    tie=st.sampled_from(["none", "residual", "budget", "both"]),
    checks=st.integers(min_value=1, max_value=4),
)
@example(residual=0.0, budget=0.0, initial=0.0, e_detect=0.0, threshold=0.0, tie="none", checks=1)
@example(residual=1e-6, budget=1e-6, initial=1e-6, e_detect=1e-6, threshold=0.05, tie="both",
         checks=2)
def test_charge_detection_matches_its_max_reference(
    residual, budget, initial, e_detect, threshold, tie, checks
):
    if tie in ("residual", "both"):
        e_detect = residual
    if tie in ("budget", "both"):
        budget = e_detect
    params = EnergyParams(e_detect=e_detect, dp_min_threshold=threshold)
    node, reference = build_node(1), build_node(2)
    for account in (node.energy, reference.energy):
        account.residual_energy = residual
        account.detection_budget = budget
        account.detection_budget_initial = initial
        account.detection_enabled = True
    for _ in range(checks):
        if not reference.energy.detection_enabled:
            break
        assert charge_detection(node, params) is charge_detection_reference(reference, params)
        ours, theirs = node.energy, reference.energy
        assert ours.residual_energy.hex() == theirs.residual_energy.hex()
        assert ours.detection_budget.hex() == theirs.detection_budget.hex()
        assert ours.detection_enabled is theirs.detection_enabled


def test_declared_example_volume():
    assert sum(EXAMPLES.values()) >= 1000
