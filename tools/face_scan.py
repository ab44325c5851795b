"""Check that each window's first-epoch departures are its only optimum.

Replays every window of the given workload, seeds and runners, and for
each window minimizes and maximizes every e_q(0), the relaxed
first-epoch departures of queue q, over the window's optimal face: the
window's rows and bounds plus c'x <= z* + ``SLACK`` * |z*|, where z* is
linprog's optimum.  A queue whose e_q(0) moves by more than ``SPREAD``
is scanned again with ten times the slack.  Where its spread grows less
than twofold, the rows bound it, not the slack, and the window ties: two
solves that stop at different optimal vertices could commit different
starts.  Where it grows about tenfold, the window holds a near-tie: the
tie-break prefers one point by a margin the slack hides:

    python tools/face_scan.py --workload desk --runners ddls --seeds 0-3 11000-11009
    python tools/face_scan.py --workload crowd --runners ddls distributed --seeds 0 1

Prints one line per day, with its window, tie and near-tie counts, and
one line per tied window: its index in the day (windows counted in the
order the bank solves them), its epoch, its scheduler and the spread of
each queue that ties, at the slack and at ten times it.  Exits 1 if any
window ties.  The 2Q face programs of a window share one ``lp.Model``,
each warm from the last: about 0.08 s a desk window.  (At slack 0 the
face program can be infeasible within the solver's tolerances, as on
crowd seed 0.)  This script is not part of tier-1, which imports
``first_epoch_spreads``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np
import scipy.sparse

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from ddls import lp, scheduler, simkit  # noqa: E402
from ddls.errors import SolverError  # noqa: E402

SCENARIOS = {"desk": "configs/desk_day.json", "crowd": "bench/scenarios/crowd.json"}
RUNNERS = ("ddls", "distributed")
SLACK = 1e-14  # relative, on the optimum
SPREAD = 1e-6  # the grid that ``scheduler._rounded_departures`` snaps a relaxed start to


def first_epoch_spreads(program, n_queues: int, slack: float = SLACK) -> np.ndarray:
    """(Q,) max - min of each e_q(0) over ``program``'s optimal face, a
    window program of ``n_queues`` queues (``scheduler.build_program``)."""
    best = lp.solve(program)
    if not best.is_optimal:
        raise SolverError(f"the window has no optimum: {best.status}")
    bound = best.objective + slack * abs(best.objective)
    face = lp.LinearProgram(program.objective, program.eq_matrix, program.eq_rhs,
                            scipy.sparse.vstack((program.ineq_matrix, -program.objective[None])),
                            np.append(program.ineq_rhs, -bound), program.lower, program.upper)
    model, width = lp.Model(face), program.n_vars // (n_queues + 2)  # e, then up and dn'
    spreads = np.empty(n_queues)
    for q in range(n_queues):
        ends = []
        for sign in (1.0, -1.0):
            cost = np.zeros(program.n_vars)
            cost[q * width] = sign
            point = lp.solve(face.fill(cost, face.eq_rhs, face.lower, face.upper), model=model)
            if not point.is_optimal:
                raise SolverError(f"queue {q + 1}'s face program: {point.status}")
            ends.append(point.values[q * width])
        spreads[q] = ends[1] - ends[0]
    return spreads


def day_windows(runner, config) -> list:
    """(epoch, scheduler, program) of every window of one day, in the
    order the bank solves them."""
    windows, banks = [], []
    step, solve = scheduler.RecedingHorizonScheduler.step, scheduler.lp_solve

    def noted_step(bank):
        banks[:] = [bank]
        return step(bank)

    def noted_solve(program, model=None):
        bank = banks[0]
        windows.append((bank.epoch, bank._models.index(model), program))
        return solve(program, model=model)

    scheduler.RecedingHorizonScheduler.step, scheduler.lp_solve = noted_step, noted_solve
    try:
        runner(config)
    finally:
        scheduler.RecedingHorizonScheduler.step, scheduler.lp_solve = step, solve
    return windows


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SCENARIOS), default="desk")
    parser.add_argument("--runners", nargs="+", choices=RUNNERS, default=["ddls"])
    parser.add_argument("--seeds", nargs="+", type=_seeds, default=[[0]],
                        help="scenario seeds, each one seed or a range a-b")
    args = parser.parse_args(argv)
    base = simkit.load_scenario(ROOT / SCENARIOS[args.workload])
    tied = 0
    for seed in (seed for seeds in args.seeds for seed in seeds):
        config = dataclasses.replace(base, seed=seed)
        for name in args.runners:
            windows = day_windows(getattr(simkit, f"run_{name}"), config)
            ties, near = [], 0
            for k, (epoch, i, program) in enumerate(windows):
                spreads = first_epoch_spreads(program, config.n_queues)
                if spreads.max() <= SPREAD:
                    continue
                wider = first_epoch_spreads(program, config.n_queues, 10 * SLACK)
                moved = np.flatnonzero((spreads > SPREAD) & (wider < 2 * spreads))
                near += not moved.size
                if moved.size:
                    ties.append(f"  window {k} (epoch {epoch}, scheduler {i}): " + ", ".join(
                        f"queue {q + 1} spread {spreads[q]:.3g} ({wider[q]:.3g} at 10x)"
                        for q in moved))
            print(f"{args.workload} {name} seed {seed}: {len(windows)} windows, "
                  f"{len(ties)} tied, {near} near-ties", flush=True)
            for line in ties:
                print(line, flush=True)
            tied += len(ties)
    return 1 if tied else 0


if __name__ == "__main__":
    sys.exit(main())
