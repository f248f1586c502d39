"""Where two checkouts' artifacts part: every bundled run, side by side.

Run from the root of a checkout, against another checkout's `src`, for
example a worktree of the parent commit:

    git worktree add ../parent HEAD~1
    python3 tools/artifact_diff.py --base ../parent/src

Each bundled config (`configs/*.json`) runs in each mode twice, once with
this checkout's package and once with the one at `--base`, each run in a
child process of its own through the `run` command (`mode=` as its one
override). A row per run says "identical" when `metrics.csv` and
`summary.json` match byte for byte; otherwise it names the first round and
column at which `metrics.csv` differs ("summary.json only" when the rounds
match). The row goes on with the deltas, this checkout minus the base, in
final alive, lifetime round, total energy and tp/fp/tn/fn, and the count
of each `Change` kind that the run's sweeps reported: `kind=n` where both
sides agree, `kind=base->this` where they do not.

Exits 0 when every run is identical and 1 when some run differs.
Standard library only; it changes no artifact.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import io
import json
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
COUNTS = ("tp", "fp", "tn", "fn")


def child_run(src: str, config: str, mode: str) -> dict:
    """One run with the package at `src`: its two artifacts as text and
    its `Change` kind counts. Runs inside the child process."""
    sys.path.insert(0, src)
    from imids_sim import cli

    run, traces = cli.run_simulation, []

    def recording(config):
        traces.append(run(config))
        return traces[-1]

    cli.run_simulation = recording
    with tempfile.TemporaryDirectory() as out:
        argv = ["run", config, "--override", f"mode={mode}", "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):  # `run` prints its artifact paths
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"run {config} in {mode} with {src} exited {code}")
        artifacts = {name: (Path(out) / name).read_text() for name in ("metrics.csv", "summary.json")}
    changes = collections.Counter(
        event.kind.name for report in traces[0].reports for event in report.reconfigurations
    )
    return {**artifacts, "changes": dict(changes)}


def run_side(src: Path, config: Path, mode: str) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--child", str(src), str(config), mode]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def first_difference(base: str, this: str) -> str:
    """Where two `metrics.csv` texts part: the round and the first column."""
    base_rows, this_rows = csv.reader(base.splitlines()), csv.reader(this.splitlines())
    header = next(this_rows)
    if next(base_rows) != header:
        return "header"
    for base_row, this_row in zip_longest(base_rows, this_rows):
        if base_row == this_row:
            continue
        if base_row is None or this_row is None:
            row, side = (base_row, "this") if this_row is None else (this_row, "base")
            return f"round {row[0]}, no row in {side}"
        column = next(i for i, (a, b) in enumerate(zip(base_row, this_row)) if a != b)
        return f"round {this_row[0]}, {header[column]}"
    return "summary.json only"


def delta(base, this, fmt="+d") -> str:
    if base is None or this is None:
        return "=" if base == this else f"{base}->{this}"
    return format(this - base, fmt)


def change_counts(base: dict, this: dict) -> str:
    kinds = sorted(base.keys() | this.keys())
    return " ".join(
        f"{kind}={base.get(kind, 0)}" if base.get(kind, 0) == this.get(kind, 0)
        else f"{kind}={base.get(kind, 0)}->{this.get(kind, 0)}"
        for kind in kinds
    ) or "-"


def row(name: str, base: dict, this: dict) -> tuple:
    """(whether the run is identical, its table row)."""
    same = base["metrics.csv"] == this["metrics.csv"] and base["summary.json"] == this["summary.json"]
    where = "identical" if same else first_difference(base["metrics.csv"], this["metrics.csv"])
    b, t = json.loads(base["summary.json"]), json.loads(this["summary.json"])
    cells = [
        delta(b["final_alive"], t["final_alive"]),
        delta(b["lifetime_round"], t["lifetime_round"]),
        delta(b["total_energy_spent_j"], t["total_energy_spent_j"], "+.3g"),
        *(delta(b[key], t[key]) for key in COUNTS),
    ]
    text = f"{name:<34} {where:<28} " + " ".join(f"{cell:>9}" for cell in cells)
    return same, f"{text}  {change_counts(base['changes'], this['changes'])}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="the other checkout's src directory")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)  # src, config, mode
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child_run(*args.child)))
        return 0
    if args.base is None or not (args.base / "imids_sim").is_dir():
        parser.error("--base must name a src directory that holds imids_sim")

    sys.path.insert(0, str(ROOT / "src"))  # this checkout's modes
    from imids_sim.config import MODES

    header = ["run", "metrics.csv", "d_alive", "d_life", "d_energy_J", *(f"d_{k}" for k in COUNTS)]
    print(f"{header[0]:<34} {header[1]:<28} " + " ".join(f"{h:>9}" for h in header[2:])
          + "  changes (base->this)")
    differing = 0
    for config in sorted(CONFIGS.glob("*.json")):
        for mode in MODES:
            base = run_side(args.base.resolve(), config, mode)
            this = run_side(ROOT / "src", config, mode)
            same, text = row(f"{config.stem}/{mode}", base, this)
            differing += not same
            print(text, flush=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
