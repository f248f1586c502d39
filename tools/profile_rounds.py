"""Round-phase profile of imids-sim: set-up time, round cost, phase shares
and memory for each bundled config in each mode, and along a node-count
ladder.

Run from the root of a checkout:

    python3 tools/profile_rounds.py --out BENCH_<label>.json

Every case runs in a child process of its own, so the peak RSS it reports
is that case's alone. A case builds the `Simulation` and runs its rounds
`--repeat` times and keeps the fastest set-up and the fastest run; the
entries of `Simulation._phases` are wrapped from outside the package, so
the run's time splits by phase (what is left is the round's bookkeeping
outside them). The reconfiguration sweep splits further: its rotation
checks, re-derivations and formation charges are wrapped on the instance
the same way (`sweep_share`; 0 in a mode that never sweeps), and so are
the two steps of a re-derivation that the reuse of fragments cuts:
deriving a fragment and patching the composed maps. Their shares are
part of the re-derivations' share, not added to it. The mask draw also
counts the rows it drew (one per duty-cycled node and round, the length
of `Simulation._masks`), which gives its cost per row (`us_per_mask_row`).
Each phase's share also gets its spread, the max - min over the
`--repeat` runs, which says whether the shares can be read to a few
points on this host. Peak RSS is read after the timed runs. One more
run under `tracemalloc` gives the memory the finished trace retains, after
`gc.collect()`. Times are raw `time.perf_counter` seconds of this host,
not normalised.

A ladder rung is the stock scenario (`configs/stock_comparison.json`) at
its own density with N nodes: the field scaled by sqrt(N / 70), the
attackers at the stock share, on the first seed from 42 up whose
deployment every coordinator can cover.

Standard library only; the package is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
STOCK = "stock_comparison"
RUNGS = (100, 200, 400, 800)
SWEEP_PARTS = (  # the last two run inside `_build_structures` and count in its share too
    "_check_cluster", "_build_structures", "_charge_formation",
    "_derive_fragment", "_compose_fragments",
)
SEED_TRIES = 50  # seeds a rung may try before it gives up


def ladder_config(nodes: int) -> dict:
    """The stock scenario at stock density with `nodes` nodes."""
    raw = json.loads((CONFIGS / f"{STOCK}.json").read_text())
    deployment = raw["deployment"]
    stock_nodes = deployment["node_count"]
    scale = math.sqrt(nodes / stock_nodes)
    deployment["node_count"] = nodes
    deployment["area_width"] *= scale
    deployment["area_height"] *= scale
    attack = raw["attack"]
    attack["attacker_count"] = round(attack["attacker_count"] * nodes / stock_nodes)
    return raw


def cases(configs, rungs) -> list:
    """(name, raw config, whether to search for a covering seed) per case,
    each config and rung in every mode."""
    from imids_sim.config import MODES

    out = []
    for name in configs:
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        out += [(f"{name}/{mode}", dict(raw, mode=mode), False) for mode in MODES]
    for nodes in rungs:
        raw = ladder_config(nodes)
        out += [(f"ladder-{nodes}/{mode}", dict(raw, mode=mode), True) for mode in MODES]
    return out


# ----------------------------------------------------------------------
# one case, in its own process


def timed_run(engine, config) -> dict:
    """Set-up and every round of one run, as `engine.run_simulation` runs
    it, with each phase of the round and each part of the sweep timed from
    outside."""
    clock = time.perf_counter
    start = clock()
    sim = engine.Simulation(config)
    setup_s = clock() - start
    phase_s = {phase.__name__: 0.0 for phase in sim._phases}
    sweep_s = dict.fromkeys(SWEEP_PARTS, 0.0)

    def timed(method, spent):
        name = method.__name__

        def run(*args, **kwargs):
            begin = clock()
            result = method(*args, **kwargs)
            spent[name] += clock() - begin
            return result

        return run

    mask_rows = 0

    def counted(draw_masks):
        def run(r):
            nonlocal mask_rows
            draw_masks(r)
            mask_rows += len(sim._masks)

        return run

    phases = []
    for phase in sim._phases:
        run = timed(phase, phase_s)
        phases.append(counted(run) if phase.__name__ == "_draw_masks" else run)
    sim._phases = tuple(phases)
    for name in SWEEP_PARTS:  # instance attributes shadow the methods the sweep calls
        setattr(sim, name, timed(getattr(sim, name), sweep_s))
    trace = sim.snapshot_trace()
    alive = sim.alive_non_sink()
    node_rounds = 0
    start = clock()
    for _ in range(config.rounds):
        if alive == 0:
            break
        node_rounds += alive
        report = sim.run_round()
        trace.reports.append(report)
        alive = report.alive_count
    wall_s = clock() - start
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rounds": len(trace.reports),
        "node_rounds": node_rounds,
        "phase_s": phase_s,
        "sweep_s": sweep_s,
        "mask_rows": mask_rows,
    }


def retained_mb(engine, config) -> float:
    """MB that `tracemalloc` still counts once a whole run has returned its
    trace, with the trace alive and garbage collected."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    trace = engine.run_simulation(config)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    del trace
    return retained / 2**20


def share_of(seconds: dict, wall_s: float) -> dict:
    return {name: spent / wall_s if wall_s else 0.0 for name, spent in seconds.items()}


def profile_case(raw: dict, search_seed: bool, repeat: int) -> dict:
    from imids_sim import engine
    from imids_sim.config import parse_config
    from imids_sim.topology import CoverageFailure

    if search_seed:  # the first seed from the config's own up that set-up can cover
        first = raw["seed"]
        for seed in range(first, first + SEED_TRIES):
            try:
                engine.Simulation(parse_config(dict(raw, seed=seed)))
            except CoverageFailure:
                continue
            raw = dict(raw, seed=seed)
            break
        else:
            raise SystemExit(f"no seed in {first}..{first + SEED_TRIES - 1} covers this rung")
    config = parse_config(raw)
    runs = []
    for _ in range(repeat):
        gc.collect()
        runs.append(timed_run(engine, config))
    fastest = min(runs, key=lambda run: run["wall_s"])
    wall_s, node_rounds = fastest["wall_s"], fastest["node_rounds"]
    mask_rows = fastest["mask_rows"]
    shares = [share_of(run["phase_s"], run["wall_s"]) for run in runs]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "nodes": config.deployment.node_count,
        "seed": config.seed,
        "rounds": fastest["rounds"],
        "node_rounds": node_rounds,
        "setup_s": min(run["setup_s"] for run in runs),
        "wall_s": wall_s,
        "us_per_node_round": wall_s * 1e6 / node_rounds if node_rounds else None,
        "phase_share": share_of(fastest["phase_s"], wall_s),
        "phase_share_spread": {
            name: max(share[name] for share in shares) - min(share[name] for share in shares)
            for name in shares[0]
        },
        "sweep_share": share_of(fastest["sweep_s"], wall_s),
        "mask_rows": mask_rows,
        "us_per_mask_row": (
            fastest["phase_s"]["_draw_masks"] * 1e6 / mask_rows if mask_rows else None
        ),
        "peak_rss_mb": peak_rss_mb,
        "retained_mb": retained_mb(engine, config),
    }


# ----------------------------------------------------------------------
# driver


def run_child(raw: dict, search_seed: bool, repeat: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--case",
        json.dumps({"raw": raw, "search_seed": search_seed}), "--repeat", str(repeat),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def describe(name: str, result: dict) -> str:
    shares = sorted(result["phase_share"].items(), key=lambda item: -item[1])
    top = ", ".join(f"{phase.lstrip('_')} {100 * share:.1f}%" for phase, share in shares[:4])
    us, per_row = result["us_per_node_round"], result["us_per_mask_row"]
    spread = max(result["phase_share_spread"].values())
    return (
        f"{name:<32} seed {result['seed']:>3}  set-up {result['setup_s'] * 1e3:8.2f} ms"
        f"  run {result['wall_s']:7.3f} s  {'-' if us is None else f'{us:6.2f}'} us/node-round"
        f"  {'-' if per_row is None else f'{per_row:5.2f}'} us/mask row"
        f"  rss {result['peak_rss_mb']:6.1f} MB  retained {result['retained_mb']:6.2f} MB  [{top}]"
        f"  spread {100 * spread:.1f} pts"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bundled = sorted(path.stem for path in CONFIGS.glob("*.json"))
    parser.add_argument("--configs", nargs="*", choices=bundled, default=bundled,
                        help="bundled config names (default: all; none with no names)")
    parser.add_argument("--rungs", nargs="*", type=int, default=list(RUNGS),
                        help="ladder node counts (default: %(default)s; none with no values)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed runs per case; the fastest counts")
    parser.add_argument("--out", type=Path,
                        help="write the results as one JSON object, e.g. BENCH_<label>.json")
    parser.add_argument("--case", help=argparse.SUPPRESS)  # a child's one case
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if any(nodes < 3 for nodes in args.rungs):
        parser.error("a rung needs at least 3 nodes")
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's package

    if args.case is not None:
        case = json.loads(args.case)
        print(json.dumps(profile_case(case["raw"], case["search_seed"], args.repeat)))
        return 0

    results = {}
    for name, raw, search_seed in cases(args.configs, args.rungs):
        results[name] = run_child(raw, search_seed, args.repeat)
        print(describe(name, results[name]), flush=True)
    if args.out is not None:
        document = {
            "label": args.out.stem.removeprefix("BENCH_"),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "repeat": args.repeat,
            "cases": results,
        }
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
