"""Output checks applied to every strategy-day the benchmark runs.

Each check returns a list of problems; an empty list means the
strategy-day passed.  A strategy-day with any problem, or whose runner
raised, counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

ENERGY_REL_TOL = 1e-9


def check_run(result, counts, config) -> list[str]:
    """Invariants every runner's output must satisfy:

    * ``served`` equals the arrivals (and, where a ledger is returned,
      so does the number of FIFO departures);
    * sum(flex_kw) equals sum over codes of count x code energy;
    * every cost is finite;
    * no FIFO delay exceeds ``deadline_epochs``.
    """
    problems = []
    counts = np.asarray(counts)
    arrivals = int(counts.sum())
    metrics = result.metrics
    if metrics.served != arrivals:
        problems.append(f"served {metrics.served} != arrivals {arrivals}")

    energy = sum(int(counts[q].sum()) * code.energy for q, code in enumerate(config.codebook))
    flex = float(np.sum(result.flex_kw))
    if not math.isclose(flex, energy, rel_tol=ENERGY_REL_TOL, abs_tol=ENERGY_REL_TOL):
        problems.append(f"sum(flex_kw) {flex!r} != arrived energy {energy!r}")

    costs = [metrics.total_cost, metrics.deviation_cost, metrics.delay_cost,
             metrics.mean_delay_epochs, metrics.peak_kw]
    if not (all(math.isfinite(c) for c in costs)
            and np.isfinite(np.asarray(result.trajectory.stage_costs, dtype=float)).all()):
        problems.append("non-finite cost")

    if result.ledger is not None:
        delays = result.ledger.fifo_delays()
        if len(delays) != arrivals:
            problems.append(f"ledger served {len(delays)} of {arrivals} arrivals")
        worst = max((delay for _, _, delay in delays), default=0)
        if worst > config.deadline_epochs:
            problems.append(f"FIFO delay {worst} exceeds deadline {config.deadline_epochs}")
    return problems


def same_metrics(a, b) -> list[str]:
    """Two runs of one strategy on one input must report equal metrics."""
    return [] if a == b else [f"metrics differ between identical runs: {a} vs {b}"]
