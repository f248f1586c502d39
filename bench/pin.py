"""Re-pin the per-scenario digests the benchmark checks every run against.

    python3 bench/pin.py

simulates every scenario of every workload once and rewrites
bench/digests.json. Re-pin only when a change alters simulated behaviour on
purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run_bench


def main() -> int:
    sys.path.insert(0, str(run_bench.ROOT / "src"))
    import imids_sim

    pins = {}
    for workload in sorted(run_bench.WORKLOADS):
        pins[workload] = {}
        for scenario_seed, raw in run_bench.scenarios(workload, 0):
            trace = run_bench.simulate(imids_sim, imids_sim.parse_config(raw)).trace
            pins[workload][str(scenario_seed)] = run_bench.digest(trace)
            print(workload, scenario_seed, pins[workload][str(scenario_seed)], flush=True)
    run_bench.DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
