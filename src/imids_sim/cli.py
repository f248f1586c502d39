"""Command-line front end: run, compare, and sweep scenarios.

`run` executes one scenario and writes the per-round metrics CSV plus a
summary JSON. `compare` runs the layered defense and the baseline on the
same seed and renders the alive and accuracy charts. `sweep` crosses one
axis against the sectored/unsectored modes and renders the energy chart.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures such as an uncoverable deployment.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import tempfile

from . import topology as topo
from .charts import Series, line_chart
from .config import ConfigError, apply_overrides, load_config, load_raw, parse_config
from .engine import run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

CSV_HEADER = (
    "round,alive,energy_spent_total,suspects_new,quarantines_new,tp,fp,tn,fn"
)

RUNTIME_ERRORS = (
    topo.CoverageFailure,
    topo.UnreachableNode,
    RuntimeError,
    OSError,
)


def _atomic_write(path: str, text: str) -> None:
    """Write via a sibling temp file and rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.chmod(tmp_path, 0o644)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _metrics_row(report) -> str:
    """One round as a `CSV_HEADER` row."""
    return (
        f"{report.round},{report.alive_count},{report.energy_spent_total!r},"
        f"{len(report.suspects_new)},{len(report.quarantines_new)},"
        f"{report.tp},{report.fp},{report.tn},{report.fn}"
    )


def _metrics_csv(trace) -> str:
    return "\n".join([CSV_HEADER, *map(_metrics_row, trace.reports)]) + "\n"


def _final_alive(trace) -> int:
    """Live non-sink nodes at the end of the run, set-up deaths included."""
    return sum(e > 0.0 for i, e in trace.final_energy.items() if i != topo.SINK_ID)


def _lifetime_round(trace, alive_initial: int):
    """The first round that ends with fewer nodes alive than deployed: 0 if
    set-up killed some before any round, None if none died."""
    for report in trace.reports:
        if report.alive_count < alive_initial:
            return report.round
    return 0 if _final_alive(trace) < alive_initial else None


def _summarize(trace) -> dict:
    alive_initial = sum(1 for node_id in trace.initial_energy if node_id != topo.SINK_ID)
    confusion = trace.final_confusion
    return {
        "mode": trace.config["mode"],
        "seed": trace.seed,
        "rounds_executed": len(trace.reports),
        "alive_initial": alive_initial,
        "final_alive": _final_alive(trace),
        "lifetime_round": _lifetime_round(trace, alive_initial),
        "extinction_round": trace.extinction_round,
        "accuracy": confusion.accuracy,
        "detection_rate": confusion.detection_rate,
        "tp": confusion.tp,
        "fp": confusion.fp,
        "tn": confusion.tn,
        "fn": confusion.fn,
        "attackers": trace.attacker_ids,
        "quarantined": {str(k): v for k, v in sorted(trace.ledgers.quarantined.items())},
        "total_energy_spent_j": trace.total_energy_spent(),
        "cluster_count": trace.cluster_count,
        "sector_count": trace.sector_count,
        "monitor_count": trace.monitor_count,
        "config": trace.config,
    }


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_run(args) -> int:
    trace = run_simulation(load_config(args.config, args.override))
    out = args.out
    csv_path = os.path.join(out, "metrics.csv")
    summary_path = os.path.join(out, "summary.json")
    _atomic_write(csv_path, _metrics_csv(trace))
    _atomic_write(summary_path, _dump_json(_summarize(trace)))
    print(csv_path)
    print(summary_path)
    return EXIT_OK


def _compare_csv(traces) -> str:
    lines = ["mode," + CSV_HEADER]
    for mode, trace in traces.items():
        lines.extend(f"{mode},{_metrics_row(report)}" for report in trace.reports)
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    raw = load_raw(args.config)
    configs = {
        mode: parse_config(apply_overrides(copy.deepcopy(raw), [f"mode={mode}"]))
        for mode in ("imids", "itids")
    }
    if configs["imids"].rounds == 0:  # the charts need at least one point
        raise ConfigError("compare needs at least one round")
    traces = {mode: run_simulation(config) for mode, config in configs.items()}

    imids, itids = traces["imids"], traces["itids"]
    alive_series, accuracy_series = zip(*(
        (
            Series(mode.upper(), tuple(r.round for r in t.reports), tuple(t.alive_series)),
            Series(mode.upper(), tuple(r.round for r in t.reports), tuple(t.accuracy_series())),
        )
        for mode, t in traces.items()
    ))

    rounds = max(len(imids.reports), len(itids.reports))

    def alive_at(trace, r):
        return trace.reports[r].alive_count if r < len(trace.reports) else 0

    dominance = {
        "alive_imids_ge_itids_every_round": all(
            alive_at(imids, r) >= alive_at(itids, r) for r in range(rounds)
        ),
        "final_alive_imids": alive_at(imids, rounds - 1) if rounds else None,
        "final_alive_itids": alive_at(itids, rounds - 1) if rounds else None,
        "accuracy_imids": imids.final_confusion.accuracy,
        "accuracy_itids": itids.final_confusion.accuracy,
        "accuracy_margin": imids.final_confusion.accuracy - itids.final_confusion.accuracy,
    }

    out = args.out
    paths = {
        "csv": os.path.join(out, "compare.csv"),
        "alive": os.path.join(out, "alive_vs_time.svg"),
        "accuracy": os.path.join(out, "accuracy_vs_round.svg"),
        "summary": os.path.join(out, "summary.json"),
    }
    _atomic_write(paths["csv"], _compare_csv(traces))
    _atomic_write(
        paths["alive"],
        line_chart(alive_series, "Alive nodes over time", "round", "alive nodes"),
    )
    _atomic_write(
        paths["accuracy"],
        line_chart(accuracy_series, "Detection accuracy over time", "round", "accuracy"),
    )
    summary = {
        "dominance": dominance,
        "imids": _summarize(imids),
        "itids": _summarize(itids),
    }
    _atomic_write(paths["summary"], _dump_json(summary))
    for path in paths.values():
        print(path)
    return EXIT_OK


SWEEP_AXES = {  # axis -> the dotted overrides that set a cell's value, as JSON
    "node_count": ("deployment.node_count={}",),
    "attackers": ("attack.attacker_count={}", "attack.attacker_ids=null"),
    "mode": ("mode={}",),
}


def _sweep_cells(raw: dict, axis: str, values):
    """Yield (value, mode, parsed config) for every cell of the sweep: a copy
    of `raw` under the arm's mode and the axis's overrides for the value."""
    for value in values:
        if axis != "mode":
            try:
                value = int(value)
            except ValueError as exc:
                raise ConfigError(f"axis '{axis}' needs integer values, got '{value}'") from exc
        overrides = [template.format(json.dumps(value)) for template in SWEEP_AXES[axis]]
        for mode in [value] if axis == "mode" else ["imids", "imids-no-sectors"]:
            cell = apply_overrides(copy.deepcopy(raw), [f"mode={json.dumps(mode)}", *overrides])
            yield value, mode, parse_config(cell)


def cmd_sweep(args) -> int:
    raw = load_raw(args.config)
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {tuple(SWEEP_AXES)}")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")

    cells = list(_sweep_cells(raw, args.axis, values))  # all checked before any runs
    rows = []
    energy = {}  # mode -> list of (value, joules)
    for value, mode, config in cells:
        trace = run_simulation(config)
        confusion = trace.final_confusion
        total = trace.total_energy_spent()
        rows.append(
            f"{args.axis},{value},{mode},{trace.seed},{len(trace.reports)},"
            f"{_final_alive(trace)},"
            f"{total!r},{confusion.accuracy!r},{confusion.detection_rate!r}"
        )
        energy.setdefault(mode, []).append((value, total))

    out = args.out
    csv_path = os.path.join(out, "sweep.csv")
    header = "axis,value,mode,seed,rounds,final_alive,total_energy_j,accuracy,detection_rate"
    _atomic_write(csv_path, "\n".join([header] + rows) + "\n")
    print(csv_path)

    if args.axis != "mode":
        series = [
            Series(
                label=mode,
                xs=tuple(v for v, _ in points),
                ys=tuple(e for _, e in points),
            )
            for mode, points in sorted(energy.items())
        ]
        svg_path = os.path.join(out, f"energy_vs_{args.axis}.svg")
        _atomic_write(
            svg_path,
            line_chart(
                series,
                f"Total energy consumed vs {args.axis}",
                args.axis.replace("_", " "),
                "energy (J)",
            ),
        )
        print(svg_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imids-sim",
        description="Simulate a layered sensor-network defense against sleep deprivation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario, emit metrics CSV + summary JSON")
    run_p.add_argument("config", help="scenario JSON file")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, e.g. rounds=10 or attack.start_round=0",
    )
    run_p.set_defaults(handler=cmd_run)

    cmp_p = sub.add_parser("compare", help="run imids vs itids on the same seed")
    cmp_p.add_argument("config", help="scenario JSON file")
    cmp_p.add_argument("--out", default="out", help="output directory (default: out)")
    cmp_p.set_defaults(handler=cmd_compare)

    sweep_p = sub.add_parser("sweep", help="cross one axis against sectored/unsectored modes")
    sweep_p.add_argument("config", help="scenario JSON file")
    sweep_p.add_argument("--axis", required=True, help=f"one of {', '.join(SWEEP_AXES)}")
    sweep_p.add_argument("--values", required=True, help="comma-separated cell values")
    sweep_p.add_argument("--out", default="out", help="output directory (default: out)")
    sweep_p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage (2) or help (0)
        return exc.code
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
