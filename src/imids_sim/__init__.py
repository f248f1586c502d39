"""Deterministic simulator for a clustered sensor network that defends
itself against sleep-deprivation attackers.

The network is organized into clusters split into sectors. Sector
coordinators screen their leaves with cheap rule checks, sector monitors
confirm or clear the flagged nodes over a sliding window, and cluster
coordinators plus the sink re-validate aggregated traffic. A flat
always-on monitoring baseline is included for comparison.

Typical use::

    from imids_sim import parse_config, run_simulation

    trace = run_simulation(parse_config({"seed": 7, "rounds": 50}))
    print(trace.alive_series[-1], trace.final_confusion.accuracy)
"""

from .attack import AttackConfig, apply_deprivation, choose_attackers, emit_attack_traffic
from .charts import Series, line_chart
from .config import (
    MODES,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    config_to_dict,
    load_config,
    parse_config,
)
from .core import (
    DETECTION_FRACTION,
    TRUST_MAX,
    NodeClass,
    Packet,
    PacketKind,
    Position,
    Role,
    SensorNode,
    TrustState,
    is_alive,
)
from .energy import EnergyParams, rx_cost, tx_cost
from .engine import (
    Change, Event, RoundReport, Simulation, SimulationTrace, initialize, run_round, run_simulation,
)
from .ids import (
    Confusion,
    Decision,
    DetectionConfig,
    Ledgers,
    NormalProfile,
    Reason,
    SuspectedEntry,
    compute_confusion,
)
from .rng import SeededRng
from .topology import (
    SINK_ID,
    Cluster,
    CoverageFailure,
    Sector,
    UnreachableNode,
    deploy,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "Change",
    "Cluster",
    "Confusion",
    "ConfigError",
    "CoverageFailure",
    "Decision",
    "DetectionConfig",
    "DETECTION_FRACTION",
    "EnergyParams",
    "Event",
    "Ledgers",
    "MODES",
    "NodeClass",
    "NormalProfile",
    "Packet",
    "PacketKind",
    "Position",
    "Reason",
    "Role",
    "RoundReport",
    "ScenarioConfig",
    "Sector",
    "SeededRng",
    "SensorNode",
    "Series",
    "Simulation",
    "SimulationTrace",
    "SINK_ID",
    "SuspectedEntry",
    "TrustState",
    "TRUST_MAX",
    "UnreachableNode",
    "apply_deprivation",
    "apply_overrides",
    "choose_attackers",
    "compute_confusion",
    "config_to_dict",
    "deploy",
    "emit_attack_traffic",
    "initialize",
    "is_alive",
    "line_chart",
    "load_config",
    "parse_config",
    "run_round",
    "run_simulation",
    "rx_cost",
    "tx_cost",
]
