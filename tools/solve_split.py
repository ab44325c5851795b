"""Split a day's time into HiGHS ``run()`` and the Python around it.

Runs the ddls and distributed strategies on one draw of a workload (drawn
once, as the bench's set-up draws it), again and again, and stamps every
HiGHS ``run()`` call.  With ``--ref`` it also
imports that git ref's ``src/ddls`` as a second package and alternates
days between the two copies, the working tree's first on even days:

    python tools/solve_split.py --workload crowd --seed 7 --days 20
    python tools/solve_split.py --workload desk --days 12 --ref HEAD~1

Each day prints the ddls + distributed runner time, the HiGHS ``run()``
time of the warm windows, the time of the cold windows (a model's first
window, which loads the whole program), the time outside those, and
outside / warm ``run()``.  That last figure is a ratio of two times taken
on the same core in the same second, so it holds still when the core's
speed changes between days, where the times themselves do not.  The two
warm-up days of each copy print counts instead, which do not drift with
the core: simplex iterations per warm window, warm windows that end after
0 iterations, and ``changeRowBounds`` calls per warm window.  They are
counted there only, so that counting adds no time to a timed day, and
both warm-up days must count alike.  The two copies must report the
same total costs on every day.  This script is not part of tier-1.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = {"desk": "configs/desk_day.json", "crowd": "bench/scenarios/crowd.json"}
STRATEGIES = ("run_ddls", "run_distributed")


class Stamps:
    """Nanoseconds spent in warm ``run()`` calls and in cold windows, and,
    while ``counting``, the warm windows' iterations and row pushes."""

    def __init__(self):
        self.run_ns = self.cold_ns = self.windows = self.cold = 0
        self.in_cold = self.counting = False
        self.iterations, self.row_pushes = [], 0

    def patch_run(self, highs_class) -> None:
        run, stamps, clock = highs_class.run, self, time.perf_counter_ns

        def timed_run(highs):
            if stamps.in_cold:
                return run(highs)
            start = clock()
            try:
                return run(highs)
            finally:
                stamps.run_ns += clock() - start
                stamps.windows += 1
                if stamps.counting:
                    stamps.iterations.append(highs.getInfoValue("simplex_iteration_count")[1])

        highs_class.run = timed_run

    def counted(self, highs_class, day):
        """``day()``, with ``changeRowBounds`` counted for its length only."""
        push, stamps = highs_class.changeRowBounds, self

        def counted_push(highs, *args):
            stamps.row_pushes += 1
            return push(highs, *args)

        self.counting, self.iterations, self.row_pushes = True, [], 0
        highs_class.changeRowBounds = counted_push
        try:
            return day()
        finally:
            highs_class.changeRowBounds, self.counting = push, False

    def patch_model(self, model_class) -> None:
        """Time a model's first window, which loads the whole program, as cold."""
        warm_solve, stamps, clock = model_class.warm_solve, self, time.perf_counter_ns

        def timed_warm_solve(model, program):
            if model._highs is not None:
                return warm_solve(model, program)
            start, stamps.in_cold = clock(), True
            try:
                return warm_solve(model, program)
            finally:
                stamps.in_cold = False
                stamps.cold_ns += clock() - start
                stamps.cold += 1

        model_class.warm_solve = timed_warm_solve


def _package(name: str, ref: str | None, workdir: Path):
    """``ddls`` of the working tree, or of ``ref`` imported as ``name``."""
    if ref is None:
        sys.path.insert(0, str(ROOT / "src"))
        return importlib.import_module("ddls")
    tree = subprocess.run(["git", "archive", ref, "src/ddls"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(workdir)], input=tree, check=True)
    (workdir / "src" / "ddls").rename(workdir / name)
    sys.path.insert(0, str(workdir))
    return importlib.import_module(name)


def _day(package, stamps: Stamps, config, counts) -> dict:
    simkit = importlib.import_module(package.__name__ + ".simkit")
    stamps.run_ns = stamps.cold_ns = stamps.windows = stamps.cold = 0
    start = time.perf_counter_ns()
    costs = [getattr(simkit, runner)(config, arrival_counts=counts).metrics.total_cost
             for runner in STRATEGIES]
    day = time.perf_counter_ns() - start
    outside = day - stamps.run_ns - stamps.cold_ns
    return {"day_ms": day / 1e6, "run_ms": stamps.run_ns / 1e6, "windows": stamps.windows,
            "cold_ms": stamps.cold_ns / 1e6, "cold": stamps.cold, "outside_ms": outside / 1e6,
            "ratio": outside / stamps.run_ns, "costs": costs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SCENARIOS), default="crowd")
    parser.add_argument("--seed", type=int, default=7, help="the draw (the bench's day 0 seed)")
    parser.add_argument("--days", type=int, default=10, help="days per copy")
    parser.add_argument("--ref", help="a git ref to compare against")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    with tempfile.TemporaryDirectory(prefix="solve-split-") as workdir:
        sides = {"tree": _package("ddls", None, Path(workdir))}
        if args.ref:
            sides[args.ref] = _package("ddls_ref", args.ref, Path(workdir))
        stamps = Stamps()
        lp = importlib.import_module("ddls.lp")
        if lp._load_highs() is None:
            sys.exit("this scipy has no HiGHS binding")
        stamps.patch_run(lp._load_highs()._Highs)
        for package in sides.values():
            stamps.patch_model(importlib.import_module(package.__name__ + ".lp").Model)

        simkit = importlib.import_module("ddls.simkit")
        config = simkit.load_scenario(ROOT / SCENARIOS[args.workload])
        config = dataclasses.replace(config, seed=1000 * args.seed)
        counts = simkit.generate_arrival_counts(config.arrival_rates_per_hour,
                                                config.horizon_epochs, config.seed,
                                                config.interval_s)  # drawn once, as set-up
        rows = {name: [] for name in sides}
        names = list(sides)
        highs_class = lp._load_highs()._Highs
        tallies = {name: [] for name in sides}
        for day in range(2):  # warm-up: caches, the binding, the templates; and the counts
            for name in names:
                stamps.counted(highs_class, lambda: _day(sides[name], stamps, config, counts))
                its = stamps.iterations
                tallies[name].append((len(its), sum(its), its.count(0), stamps.row_pushes))
                print(f"count {day} {name:>10}: {sum(its) / len(its):.2f} iterations per warm "
                      f"window ({len(its)} windows), {its.count(0)} end after 0 iterations, "
                      f"{stamps.row_pushes / len(its):.2f} changeRowBounds per warm window",
                      flush=True)
        if any(len(set(days)) != 1 for days in tallies.values()):
            sys.exit(f"the warm-up days count differently: {tallies}")
        for day in range(args.days):
            for name in names if day % 2 == 0 else names[::-1]:
                row = _day(sides[name], stamps, config, counts)
                rows[name].append(row)
                print(f"day {day:2d} {name:>10}: {row['day_ms']:7.1f} ms, warm run() "
                      f"{row['run_ms']:6.1f} ms ({row['windows']} windows), cold "
                      f"{row['cold_ms']:5.1f} ms ({row['cold']}), outside "
                      f"{row['outside_ms']:6.1f} ms, outside/run() {row['ratio']:.3f}",
                      flush=True)
    costs = {name: [row["costs"] for row in sides_rows] for name, sides_rows in rows.items()}
    if len({repr(c) for c in costs.values()}) != 1:
        sys.exit(f"the copies' total costs differ: {costs}")
    medians = {}
    for name, side in rows.items():
        medians[name] = {key: statistics.median(row[key] for row in side)
                         for key in ("day_ms", "run_ms", "cold_ms", "outside_ms", "ratio")}
        print(f"median {name:>10}: " + ", ".join(f"{key} {value:.3f}"
                                                 for key, value in medians[name].items()))
    if args.ref:
        tree, ref = medians["tree"]["ratio"], medians[args.ref]["ratio"]
        wins = sum(a["ratio"] < b["ratio"] for a, b in zip(rows["tree"], rows[args.ref]))
        print(f"outside/run(): {ref:.3f} -> {tree:.3f} ({tree / ref - 1:+.1%}), "
              f"lower in {wins}/{args.days} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
