"""imids-sim benchmark: host-time cost of simulating the paper's scenarios.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload stock-imids --seed 1 --seconds 30 --trace 0

With `--trace 0` it times the simulator with no tracing and reports the
end-to-end metrics; with `--trace 1` it runs the same scenario untraced and
traced in turn and reports the per-layer metrics. Both print a readable
report of every metric they measured, then, as the last line, one JSON
object carrying the metrics that BENCHMARK.json declares for that mode.
Every simulation is checked against the digest pinned for its scenario in
bench/digests.json (see bench/pin.py).

Everything runs in this one process with no extra threads. See
bench/README.md for why each workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import hostspeed
from tracer import RebindError, SpanStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
STOCK_CONFIG = ROOT / "configs" / "stock_comparison.json"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

# Scenario seeds each workload cycles through. Every run simulates all of
# them, in an order rotated by --seed: stock-imids costs 1.6-2.7 s per seed
# because the first death (which starts the per-round graph rebuilds)
# moves with the deployment, so a run over a single seed would measure the
# seed rather than the code. At 400 nodes seeds 45 and 46 deploy a node no
# coordinator can cover (CoverageFailure), so field-400 keeps 42-44.
STOCK_SEEDS = (42, 43, 44, 45)
FIELD_SEEDS = (42, 43, 44)
FIELD_NODES = 400

# Acceptance criterion 1 of the test suite: alive nodes after 500 rounds
# of the stock comparison on seed 42.
FINAL_ALIVE_AT_42 = {"stock-imids": 61, "stock-itids": 26}

SETUP_SHARE = 0.1        # share of --seconds spent timing set-up alone
MIN_SETUPS_PER_SEED = 5
MIN_PASSES = 2
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

# Spans every workload must call at least once, by tracer scope.
COMMON_SPANS = {
    "run": (
        "engine.Simulation.run_round", "rng.SeededRng.derive",
        "ids.sids_check", "ids.evaluate_rules", "ids.compute_confusion",
        "energy.charge_detection", "energy.consume", "energy.tx_cost",
        "energy.rx_cost", "attack.emit_attack_traffic", "attack.apply_deprivation",
    ),
    "setup": (
        "topology.deploy", "topology.build_graph", "topology.select_cluster_coordinators",
        "topology.form_clusters", "topology.assign_roles", "energy.assign_detection_budget",
    ),
}
RECONFIGURING_SPANS = (
    "topology.hop_distances", "topology.select_fsh", "topology.form_sectors",
    "topology.select_sector_monitor", "topology.assign_roles",
    "ids.cc_validate", "ids.exids_decide",
)
PREDICTED_SPANS = {
    "stock-imids": {"run": RECONFIGURING_SPANS + ("topology.build_graph",)},
    "stock-itids": {"setup": ("itids.select_monitors",)},
    "field-400": {"run": RECONFIGURING_SPANS},
}


def _stock(raw, mode):
    raw["mode"] = mode
    return raw


def _field_400(raw):
    """The stock scenario at 400 nodes and the same density, attacked from
    round 0 by 16 attackers for 150 rounds."""
    deployment = raw["deployment"]
    scale = math.sqrt(FIELD_NODES / deployment["node_count"])
    deployment["node_count"] = FIELD_NODES
    deployment["area_width"] *= scale
    deployment["area_height"] *= scale
    raw["attack"]["attacker_count"] = 16
    raw["attack"]["start_round"] = 0
    raw["mode"] = "imids"
    raw["rounds"] = 150
    return raw


WORKLOADS = {
    "stock-imids": (lambda raw: _stock(raw, "imids"), STOCK_SEEDS),
    "stock-itids": (lambda raw: _stock(raw, "itids"), STOCK_SEEDS),
    "field-400": (_field_400, FIELD_SEEDS),
}


def scenarios(workload: str, seed: int) -> list:
    """(scenario seed, raw config) pairs for one run, rotated by `seed`."""
    derive, seeds = WORKLOADS[workload]
    base = derive(json.loads(STOCK_CONFIG.read_text()))
    start = seed % len(seeds)
    out = []
    for scenario_seed in seeds[start:] + seeds[:start]:
        raw = copy.deepcopy(base)
        raw["seed"] = scenario_seed
        out.append((scenario_seed, raw))
    return out


# ----------------------------------------------------------------------
# driving the simulator


class Simulated(NamedTuple):
    trace: object
    setup_s: float       # raw host seconds to construct the Simulation
    round_s: list        # normalised host seconds of each run_round
    node_rounds: int     # alive non-sink nodes summed over the rounds run
    speed: float         # NOMINAL_S / median reference time over the run


def simulate(sim_mod, config, tracer=None) -> Simulated:
    """One scenario end to end, as `engine.run_simulation` runs it, with
    every `run_round` timed between two timed reference loops."""
    clock = time.perf_counter
    if tracer is not None:
        tracer.scope = "setup"
    start = clock()
    sim = sim_mod.engine.Simulation(config)
    setup_s = clock() - start
    if tracer is not None:
        tracer.scope = "run"
    trace = sim.snapshot_trace()
    round_s = []
    references = [hostspeed.time_reference()]
    node_rounds = 0
    for _ in range(config.rounds):
        alive = sim.alive_non_sink()
        if alive == 0:
            trace.extinction_round = sim.round
            break
        start = clock()
        report = sim.run_round()
        round_s.append(clock() - start)
        references.append(hostspeed.time_reference())
        node_rounds += alive
        trace.reports.append(report)
    trace.final_energy = {n.id: n.energy.residual_energy for n in sim.nodes}
    trace.final_confusion = sim_mod.ids.compute_confusion(
        sim.nodes, set(sim.ledgers.quarantined), sim.sink.id
    )
    trace.ledgers = sim.ledgers
    return Simulated(
        trace,
        setup_s,
        hostspeed.normalise(round_s, references),
        node_rounds,
        hostspeed.NOMINAL_S / statistics.median(references),
    )


def time_setup(sim_mod, config) -> float:
    """Normalised host seconds of one Simulation construction, scaled by
    the reference loop timed just before and just after it."""
    gc.collect()
    references = [hostspeed.time_reference() for _ in range(5)]
    start = time.perf_counter()
    sim_mod.engine.Simulation(config)
    elapsed = time.perf_counter() - start
    references += [hostspeed.time_reference() for _ in range(5)]
    return elapsed * hostspeed.NOMINAL_S / statistics.median(references)


def digest(trace) -> str:
    """sha256 over every per-round field of metrics.csv plus the summary's
    final alive count, confusion, quarantine map and total energy."""
    h = hashlib.sha256()
    for r in trace.reports:
        h.update(
            f"{r.round},{r.alive_count},{r.energy_spent_total!r},"
            f"{len(r.suspects_new)},{len(r.quarantines_new)},"
            f"{r.tp},{r.fp},{r.tn},{r.fn}\n".encode()
        )
    c = trace.final_confusion
    summary = {
        "final_alive": trace.reports[-1].alive_count if trace.reports else None,
        "extinction_round": trace.extinction_round,
        "confusion": [c.tp, c.fp, c.tn, c.fn],
        "quarantined": sorted(trace.ledgers.quarantined.items()),
        "total_energy_spent_j": repr(trace.total_energy_spent()),
    }
    h.update(json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()


class Checker:
    """Counts attempted and failed operations (constructions and whole
    simulations); a failure is an exception, a digest that differs from the
    pinned one, or a failed tracing self-check."""

    def __init__(self, workload: str, pins: dict):
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def check(self, scenario_seed: int, trace) -> bool:
        """Compare one finished simulation with its pin; True if it matches."""
        found = digest(trace)
        expected = self.pins.get(str(scenario_seed))
        if found != expected:
            self.fail(f"seed {scenario_seed}: digest {found[:16]} != pinned {str(expected)[:16]}")
            return False
        alive = FINAL_ALIVE_AT_42.get(self.workload)
        if scenario_seed == 42 and alive is not None and trace.reports[-1].alive_count != alive:
            self.fail(f"seed 42: {trace.reports[-1].alive_count} alive, criterion 1 needs {alive}")
            return False
        return True

    def run(self, label: str, fn):
        """Call fn() as one attempt; an exception counts as a failure and
        gives None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a raising simulation is a measured failure
            self.fail(f"{label}: {traceback.format_exc().rstrip()}")
            return None


def tail(values: list):
    """(percentile, value) for the highest ladder percentile that leaves at
    least ten samples beyond it."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def measure_end_to_end(sim_mod, runs, checker, seconds):
    clock = time.perf_counter
    run_start = clock()
    configs = [(s, sim_mod.parse_config(raw)) for s, raw in runs]

    # Set-up alone: repeated constructions, round-robin over the scenarios.
    setup_samples = []
    deadline = clock() + SETUP_SHARE * seconds
    i = 0
    while i < MIN_SETUPS_PER_SEED * len(configs) or clock() < deadline:
        scenario_seed, config = configs[i % len(configs)]
        i += 1
        sample = checker.run(f"seed {scenario_seed} set-up", lambda: time_setup(sim_mod, config))
        if sample is not None:
            setup_samples.append(sample)

    # Rounds: whole passes over every scenario while another pass fits, and
    # at least two. The tail comes from each round's faster time over the
    # first two passes: which rounds run slow differs from pass to pass
    # (host preemption, collector pauses), and the faster copy keeps the
    # rounds the code itself makes slow.
    round_s = []
    node_rounds = 0
    profile = {}  # scenario seed -> per-round faster time of passes 1 and 2
    passes = 0
    speeds = []
    phase_start = clock()
    budget = seconds - (phase_start - run_start)
    while True:
        pass_start = clock()
        for scenario_seed, config in configs:
            gc.collect()
            run = checker.run(f"seed {scenario_seed}", lambda: simulate(sim_mod, config))
            if run is None or not checker.check(scenario_seed, run.trace):
                continue
            round_s.extend(run.round_s)
            node_rounds += run.node_rounds
            speeds.append(run.speed)
            if passes < MIN_PASSES:
                first = profile.setdefault(scenario_seed, run.round_s)
                profile[scenario_seed] = [min(a, b) for a, b in zip(first, run.round_s)]
        passes += 1
        now = clock()
        if passes >= MIN_PASSES and now - phase_start + (now - pass_start) > budget:
            break
    if not round_s or not setup_samples:
        raise SystemExit("no simulation completed: " + "; ".join(checker.problems[:5]))

    profile_s = [t for times in profile.values() for t in times]
    pct, tail_s = tail(profile_s)
    total = sum(round_s)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "rounds_per_s": (len(round_s) / total, "1/s"),
        "round_ms_p50": (statistics.median(round_s) * 1e3, "ms"),
        "round_ms_tail": (tail_s * 1e3, "ms"),
        "us_per_node_round": (total * 1e6 / node_rounds, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} constructions",
        "round_ms_p50": f"{len(round_s)} rounds",
        "round_ms_tail": f"p{pct:g} of {len(profile_s)} rounds, each the faster of two passes",
        "rounds_per_s": f"{len(round_s)} rounds in {passes} passes, {total:.3f} s of run_round",
        "us_per_node_round": f"{node_rounds} alive-node-rounds",
    }
    print(f"host speed: {min(speeds):.2f}-{max(speeds):.2f} x nominal over {len(speeds)} simulations")
    return metrics, notes


# ----------------------------------------------------------------------
# traced run


def _layer_metrics(tracer, traced: Simulated) -> dict:
    """Per-layer metrics of one traced simulation; times are normalised by
    the simulation's median reference time."""
    speed = traced.speed
    merged = {span: SpanStats() for span in tracer.spans}  # set-up plus rounds
    for scope in ("setup", "run"):
        for span, entry in tracer.stats(scope).items():
            merged[span].add(entry)
    out = {}
    module_self = {}
    for span, entry in merged.items():
        out[f"{span}.calls"] = (entry.calls, "count")
        out[f"{span}.self_s"] = (entry.self_s * speed, "s")
        out[f"{span}.total_s"] = (entry.total_s * speed, "s")
        module = span.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + entry.self_s * speed
    for module, self_s in module_self.items():
        out[f"{module}.self_s"] = (self_s, "s")
    for span, entry in tracer.stats("setup").items():
        out[f"setup.{span}.self_s"] = (entry.self_s * speed, "s")
    for span, key in (("ids.cc_validate", "accept_ratio"), ("attack.apply_deprivation", "woken_ratio")):
        entry = merged[span]
        out[f"{span}.{key}"] = (entry.outcomes / entry.calls if entry.calls else 0.0, "ratio")
    out["ids.disabled_raised"] = (
        sum(e.raised.get("DisabledIds", 0) for s, e in merged.items() if s.startswith("ids.")),
        "count",
    )
    out["trace.setup_s"] = (traced.setup_s * speed, "s")
    out["trace.run_round_s"] = (sum(traced.round_s), "s")
    for log in ("valid_log", "sn_log", "forwarding_log", "decision_log"):
        out[f"ledgers.{log}.len"] = (len(getattr(traced.trace.ledgers, log)), "count")
    return out


def measure_layers(sim_mod, runs, checker, seconds):
    """Untraced and traced simulation of the run's first scenario, in
    pairs while another pair fits; per-layer numbers are per simulation,
    times as the median over the traced repeats."""
    clock = time.perf_counter
    scenario_seed, raw = runs[0]
    config = sim_mod.parse_config(raw)
    untraced_s, traced_s = [], []
    samples = []
    start = clock()
    while True:
        pair_start = clock()
        gc.collect()
        plain = checker.run(f"seed {scenario_seed}", lambda: simulate(sim_mod, config))
        if plain is None or not checker.check(scenario_seed, plain.trace):
            break
        gc.collect()
        tracer = Tracer()
        try:
            tracer.install()
            traced = checker.run(
                f"seed {scenario_seed} traced", lambda: simulate(sim_mod, config, tracer)
            )
        except RebindError as exc:
            checker.fail(str(exc))
            break
        finally:
            tracer.uninstall()
        if traced is None or not checker.check(scenario_seed, traced.trace):
            break
        if digest(traced.trace) != digest(plain.trace):
            checker.fail("traced digest differs from untraced digest")
            break
        untraced_s.append(sum(plain.round_s))
        traced_s.append(sum(traced.round_s))
        samples.append(_layer_metrics(tracer, traced))
        for scope, spans in (
            *COMMON_SPANS.items(), *PREDICTED_SPANS[checker.workload].items()
        ):
            for span in spans:
                entry = tracer.stats(scope).get(span)
                if entry is None or entry.calls == 0:
                    checker.fail(f"predicted span {scope}:{span} recorded no calls")
        now = clock()
        if now - start + (now - pair_start) > seconds:
            break
    if not samples:
        raise SystemExit("no traced simulation completed: " + "; ".join(checker.problems[:5]))

    metrics = {}
    for name, (value, unit) in samples[0].items():
        values = [sample[name][0] for sample in samples]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                checker.fail(f"{name} differs between traced repeats: {values}")
            metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (sum(traced_s) / sum(untraced_s), "ratio")
    return metrics, {"trace.overhead_ratio": f"{len(samples)} untraced/traced pairs, seed {scenario_seed}"}


# ----------------------------------------------------------------------


def report(metrics, notes, declared):
    """Print every metric with its unit; shares for traced times."""
    sim_s = metrics.get("trace.setup_s", (0, ""))[0] + metrics.get("trace.run_round_s", (0, ""))[0]
    setup_s = metrics.get("trace.setup_s", (0, ""))[0]
    for name in sorted(metrics):
        value, unit = metrics[name]
        note = notes.get(name, "")
        if "trace.setup_s" in metrics and unit == "s" and not name.startswith("trace."):
            base, label = (setup_s, "traced set-up") if name.startswith("setup.") else (sim_s, "traced simulation")
            note = f"{100 * value / base:.1f}% of {label} {base:.4f} s" if base else ""
        mark = "*" if name in declared else " "
        print(f"{mark} {name:<56} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (STOCK_CONFIG, SPEC, DIGESTS, ROOT / "src" / "imids_sim"):
        if not needed.exists():
            print(f"run_bench: missing {needed.relative_to(ROOT)}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import imids_sim  # the checkout's own copy, from src/

    if Path(imids_sim.__file__).resolve().parent != (ROOT / "src" / "imids_sim").resolve():
        print(f"run_bench: imported imids_sim from {imids_sim.__file__}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    checker = Checker(args.workload, json.loads(DIGESTS.read_text()).get(args.workload, {}))
    runs = scenarios(args.workload, args.seed)
    print(f"workload {args.workload}: scenario seeds {[s for s, _ in runs]}, trace {args.trace}")
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, notes = measure(imids_sim, runs, checker, args.seconds)

    report(metrics, notes, declared)
    print(
        f"  failed_runs {checker.failed / checker.attempted:.4g} share"
        f" ({checker.failed} of {checker.attempted} constructions and simulations)"
    )
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    missing = [n for n, unit in declared.items() if metrics.get(n, (0, None))[1] != unit]
    if missing:
        print(f"run_bench: declared metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
