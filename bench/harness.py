"""Workloads, timed days, output checks and metrics of the ddls benchmark.

A *day* runs all four strategies on one arrival draw through the public
runners (``simkit.run_uncontrolled`` and friends, each given the draw as
``arrival_counts``, which is what ``simkit.compare`` does with a draw of
its own), writes each strategy's ``ddls run`` outputs, replays the ddls
run's downlink, and checks every strategy's output.  Day i of a run with
seed s uses the scenario seed ``1000 * s + i``.

An untraced run (``--trace 0``) measures end-to-end metrics.  Day 0,
the seed's first draw, runs every strategy and is fully checked.  Draws
1 .. quality_days-1 run uncontrolled and ddls only, also fully checked,
so that the schedule-quality metrics average over ``quality_days``
draws and are a deterministic function of the seed.  Then day 0 repeats
until the time budget is spent, and every repeat must report day 0's
metrics.  SETUP_PROBES fresh-interpreter set-ups are timed between the
days, spread evenly over the run.

On the 2-vCPU machine this benchmark was tuned on, identical work
alternates between speeds up to 2x apart for seconds at a time, and for
how much of a run the slow mode lasts differs from run to run, so a
median of raw day times over a run's few days spread by 10-25% between
runs.  Day 0 and its repeats therefore run under ``spans.SteadyClock``:
bare timestamps at the entry and exit of every traced function (about
1.7 us a call on that machine: ~1.5% of a crowd day, ~0.2% of a desk
day), with a short speed probe at most every 20 ms whose own time is
left out; each piece of the day is scaled by the core's speed
measured just before it.  ``day_s`` is the mean of those speed-corrected
days: seconds a day takes on a core that runs the probe in
``spans.REFERENCE_NS``.  The results file keeps the raw day times and
the probes' medians beside it.  ``setup_s`` is the median of the run's
set-up samples, scaled by the run's median speed probe: set-up is mostly
imports, which a probe in the set-up's own interpreter did not track
sample by sample, but the run's probes follow how the machine's speed
drifts from run to run.

A traced run (``--trace 1``) runs day 0 without and with every layer's
public functions wrapped (see spans.py), in turn, and reports per-layer
metrics plus the tracing overhead against the untraced days.
A wrapped function that no longer exists makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from ddls import cli, feedback, simkit

import checks
import spans
from run import THREAD_VARS
from spans import SteadyClock, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 9        # set-up probes per untraced run, spread over its budget

RUNNERS = {
    "uncontrolled": "run_uncontrolled",
    "ddls": "run_ddls",
    "distributed": "run_distributed",
    "price": "run_price_signal",
}
LAYERS = ("lp", "scheduler", "market", "queues", "core", "codec", "simkit", "feedback", "cli")

# ROADMAP.md baseline at its re-anchor: one desk run per strategy, and one
# desk window (Q=8, T=32) assembled and solved through linprog.
ROADMAP_BASELINE = {
    "uncontrolled_s": 0.08, "ddls_s": 1.3, "distributed_s": 11.1, "price_s": 0.05,
    "build_program_ms": 1.7, "linprog_ms": 11.4,
}


@dataclass(frozen=True)
class Workload:
    scenario: str        # relative to the repository root
    quality_days: int    # draws the schedule-quality metrics average over


# quality_days is set per workload so that the cross-seed spread of
# cost_savings and mean_delay_epochs stays well inside their bounds:
# desk has ~580 appliances a day and the noisiest quality (interquartile
# spread ~0.19 and ~0.27 of the median for one draw; ~0.08 and ~0.09 for
# the mean of four), crowd ~57.5k and the steadiest.  BENCHMARK.json
# lists desk and crowd only: wide's days are the longest (ddls and
# distributed ~4.5 s each), and a third workload would have to shorten
# every run to fit the benchmark's total time; it is kept here to be run
# by hand (--workload wide) for large-window LPs.
WORKLOADS = {
    "desk": Workload("configs/desk_day.json", 8),
    "crowd": Workload("bench/scenarios/crowd.json", 2),
    "wide": Workload("bench/scenarios/wide.json", 3),
}


def day_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


# -- set-up ---------------------------------------------------------------

def load_config(workload: str, seed: int):
    """The workload's scenario, loaded and validated, seeded for one day."""
    config = simkit.load_scenario(ROOT / WORKLOADS[workload].scenario)
    return dataclasses.replace(config, seed=seed)


def draw(config) -> np.ndarray:
    return simkit.generate_arrival_counts(
        config.arrival_rates_per_hour, config.horizon_epochs, config.seed, config.interval_s
    )


def setup(workload: str, seed: int):
    config = load_config(workload, day_seed(seed, 0))
    return config, draw(config)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    ddls, loaded the scenario and drawn day 0 (it then prints "ready")."""
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


# -- one day ----------------------------------------------------------------

@dataclass
class Day:
    seed: int
    strategies: tuple = tuple(RUNNERS)
    runner_s: dict = field(default_factory=dict)   # strategy -> seconds
    export_s: float | None = None
    clock: dict | None = None   # SteadyClock.take() over the timed part
    results: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)   # strategy -> list of problems
    day_s: float = 0.0
    downlink_s: float | None = None
    schedule: tuple | None = None    # (ddls cost savings, ddls mean delay)
    wall_s: float = 0.0

    def fail(self, strategy: str, problem: str) -> None:
        self.problems.setdefault(strategy, []).append(problem)


def export(results: dict, out_dir: Path) -> None:
    """Write what ``ddls run`` writes, for every strategy: metrics.csv,
    trajectory.csv and feedback.csv, through the public writers and the
    cli's own feedback-message builder."""
    for strategy, result in results.items():
        target = out_dir / strategy
        target.mkdir(parents=True, exist_ok=True)
        simkit.metrics_to_csv([result.metrics], target / "metrics.csv")
        result.trajectory.to_csv(target / "trajectory.csv")
        feedback.message_log_to_csv(cli._feedback_messages(result), target / "feedback.csv")


def downlink(result) -> list[str]:
    """Every appliance applies every epoch's broadcast of a ddls run.

    After each broadcast the number admitted so far must equal the
    cumulative departures the scheduler committed."""
    ledger = result.ledger
    admitted: set = set()
    problems = []
    for epoch in range(len(result.trajectory)):
        targets = ledger.cumulative_departures(epoch)
        message = feedback.encode_thresholds(ledger, targets, epoch)
        admitted |= feedback.decode_and_admit(ledger.arrival_log, message, admitted)
        if len(admitted) != int(targets.sum()):
            problems.append(f"epoch {epoch}: {len(admitted)} admitted, "
                            f"{int(targets.sum())} departed")
    return problems


def run_strategy(config, counts, strategy: str):
    """One runner on one draw, resolved at call time so tracing applies."""
    return getattr(simkit, RUNNERS[strategy])(config, arrival_counts=counts)


def run_parts(day: Day, config, counts, out_dir: Path) -> float:
    """The timed part of a day: every runner, then the export; returns
    its seconds and records each part's in ``day``."""
    start = time.perf_counter()
    for strategy in day.strategies:
        began = time.perf_counter()
        try:
            day.results[strategy] = run_strategy(config, counts, strategy)
        except Exception:
            day.fail(strategy, "runner raised:\n" + traceback.format_exc())
            continue
        day.runner_s[strategy] = time.perf_counter() - began
    began = time.perf_counter()
    try:
        export(day.results, out_dir)
    except Exception:
        for strategy in day.strategies:
            day.fail(strategy, "export raised:\n" + traceback.format_exc())
    day.export_s = time.perf_counter() - began
    return time.perf_counter() - start


def run_day(config, counts, out_dir: Path, recording=contextlib.nullcontext,
            strategies=tuple(RUNNERS), full_check=True,
            clock: SteadyClock | None = None) -> Day:
    """Run, time and check one day; ``recording()`` wraps the timed part
    and the downlink replay, ``clock`` the timed part only.

    Without ``full_check`` the downlink replay and the output checks are
    left out; the caller then compares the metrics with a checked run of
    the same input."""
    day = Day(config.seed, tuple(strategies))
    gc.collect()
    wall = time.perf_counter()
    with recording():
        if clock is None:
            day.day_s = run_parts(day, config, counts, out_dir)
        else:
            with clock.recording():
                clock.stamp()
                day.day_s = run_parts(day, config, counts, out_dir)
                clock.stamp()
            day.clock = clock.take()
        if full_check and "ddls" in day.results:
            began = time.perf_counter()
            try:
                for problem in downlink(day.results["ddls"]):
                    day.fail("ddls", "downlink " + problem)
            except Exception:
                day.fail("ddls", "downlink raised:\n" + traceback.format_exc())
            day.downlink_s = time.perf_counter() - began
    if full_check:
        for strategy, result in day.results.items():
            for problem in checks.check_run(result, counts, config):
                day.fail(strategy, problem)
    day.schedule = schedule_quality(day.results)
    day.wall_s = time.perf_counter() - wall
    return day


# -- runs -------------------------------------------------------------------

def tally(days) -> tuple[int, int]:
    """(strategy-days attempted, strategy-days failed)."""
    attempted = sum(len(day.strategies) for day in days)
    failed = sum(1 for day in days for problems in day.problems.values() if problems)
    return attempted, failed


def schedule_quality(results: dict) -> tuple | None:
    """ddls cost savings against uncontrolled and ddls mean delay, or None
    if either runner raised (the day then already counts as failed)."""
    if not {"uncontrolled", "ddls"} <= set(results):
        return None
    rows = {row["strategy"]: row for row in simkit.summary_rows(
        [results["uncontrolled"], results["ddls"]])}
    return rows["ddls"]["cost_savings_vs_uncontrolled"], rows["ddls"]["mean_delay_epochs"]


def quality(days) -> tuple[float, float]:
    """Mean over days of ddls cost savings and ddls mean delay, leaving
    out days without them; with none left both read 0."""
    schedules = [day.schedule for day in days if day.schedule is not None]
    if not schedules:
        return 0.0, 0.0
    savings, delays = zip(*schedules)
    return float(np.mean(savings)), float(np.mean(delays))


def measure(workload: str, seed: int, seconds: float, config, counts, out_dir: Path,
            clock: SteadyClock):
    """Untraced run: day 0, the other quality draws, then repeats of day 0
    until the next one would overrun the budget; before each day, the
    set-up probes that are due so that SETUP_PROBES spread evenly over
    the budget, and the rest at the end.  Day 0 and its repeats are timed
    by ``clock``.  Returns those timed days, the quality days after day 0,
    and the set-up samples."""
    start = time.perf_counter()
    probes: list[float] = []

    def probe() -> None:
        share = (time.perf_counter() - start) / seconds
        while len(probes) < min(SETUP_PROBES, 1 + int(SETUP_PROBES * share)):
            probes.append(probe_setup(workload, seed))

    def settle(day: Day) -> Day:
        # Keep no day's results alive, so every day starts from the same heap.
        day.results.clear()
        return day

    probe()
    first = run_day(config, counts, out_dir, clock=clock)
    reference = {strategy: result.metrics for strategy, result in first.results.items()}
    settle(first)
    others = []
    for index in range(1, WORKLOADS[workload].quality_days):
        probe()
        other = dataclasses.replace(config, seed=day_seed(seed, index))
        others.append(settle(run_day(other, draw(other), out_dir,
                                     strategies=("uncontrolled", "ddls"))))
    repeats: list[Day] = []
    last = first.wall_s
    while True:
        began = time.perf_counter()
        if seconds - (began - start) < last:
            break
        probe()
        day = run_day(config, counts, out_dir, full_check=False, clock=clock)
        for strategy, result in day.results.items():
            if strategy in reference:
                for problem in checks.same_metrics(reference[strategy], result.metrics):
                    day.fail(strategy, f"repeat: {problem}")
        repeats.append(settle(day))
        last = time.perf_counter() - began
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(workload, seed))
    return [first] + repeats, others, probes


def measure_traced(seconds: float, config, counts, out_dir: Path, tracer: Tracer):
    """Day 0 untraced and traced in turn while time allows, so both sides
    of the tracing overhead see the same machine.  Every repeat must
    report the first untraced day's metrics."""
    start = time.perf_counter()
    untraced: list[Day] = []
    traced: list[Day] = []
    while not traced or (time.perf_counter() - start + untraced[-1].wall_s
                         + traced[-1].wall_s <= seconds):
        untraced.append(run_day(config, counts, out_dir))
        traced.append(run_day(config, counts, out_dir,
                              recording=lambda index=len(traced): tracer.recording(index)))
        reference = untraced[0].results
        for day, label in ((untraced[-1], "repeat"), (traced[-1], "under tracing")):
            for strategy, result in day.results.items():
                if strategy in reference:
                    for problem in checks.same_metrics(reference[strategy].metrics,
                                                       result.metrics):
                        day.fail(strategy, f"{label}: {problem}")
    return untraced, traced


# -- metrics ----------------------------------------------------------------

class Metrics:
    """Metric values plus the sample count and statistic behind each."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.detail: dict[str, dict] = {}

    def set(self, name: str, value, samples: int, statistic: str) -> None:
        self.values[name] = float(value)
        self.detail[name] = {"value": float(value), "samples": samples, "statistic": statistic}


def day_parts(days) -> dict[str, list[float]]:
    """Each part of a day (every runner, then the export) -> its times."""
    parts = {strategy: [d.runner_s[strategy] for d in days if strategy in d.runner_s]
             for strategy in RUNNERS}
    parts["export"] = [d.export_s for d in days if d.export_s is not None]
    return {part: times for part, times in parts.items() if times}


def setup_speed(timed) -> float:
    """REFERENCE_NS over the median of the run's speed probes (see
    spans.SteadyClock); set-up samples are scaled by it."""
    return spans.REFERENCE_NS / 1e3 / statistics.median(d.clock["probe_us"] for d in timed)


def end_to_end(timed, others, setup_s) -> Metrics:
    m = Metrics()
    m.set("setup_s", statistics.median(setup_s) * setup_speed(timed), len(setup_s),
          "median set-up time, scaled by the run's median speed probe")
    m.set("day_s", statistics.mean(d.clock["steady_s"] for d in timed), len(timed),
          "mean over day 0 and its repeats of the speed-corrected day (SteadyClock)")
    m.set("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1,
          "ru_maxrss of the run's process")
    drawn = timed[:1] + others
    savings, delay = quality(drawn)
    m.set("cost_savings", savings, len(drawn), "mean over the quality draws")
    m.set("mean_delay_epochs", delay, len(drawn), "mean over the quality draws")
    attempted, failed = tally(timed + others)
    m.set("passed_frac", 1.0 - failed / attempted, attempted, "share of strategy-days")
    return m


def _lp_dims(sizes: dict):
    """Hook on build_program's result: the LP's size, computed once per shape."""

    def record(program):
        shape = (program.n_vars, program.eq_matrix.shape[0], program.ineq_matrix.shape[0])
        if shape in sizes:
            return
        sizes[shape] = {
            "lp.n_vars": program.n_vars,
            "lp.n_rows": shape[1] + shape[2],
            "lp.nnz": int(np.count_nonzero(program.eq_matrix)
                          + np.count_nonzero(program.ineq_matrix)),
            "lp.dense_mb": (program.eq_matrix.nbytes + program.ineq_matrix.nbytes) / 1e6,
        }

    return record


def per_layer(tracer: Tracer, untraced, traced, lp_sizes: dict) -> Metrics:
    m = Metrics()
    n_days = len(traced)
    selfs = tracer.self_times()
    calls = [defaultdict(int) for _ in range(n_days)]
    total = [defaultdict(int) for _ in range(n_days)]
    self_ns = [defaultdict(int) for _ in range(n_days)]
    layer_self = [defaultdict(int) for _ in range(n_days)]
    pooled = defaultdict(list)
    setup_ns = defaultdict(int)
    for name, start, end, day, own in zip(tracer.names, tracer.starts, tracer.ends,
                                          tracer.days, selfs):
        if day < 0:
            setup_ns[name] += end - start
            continue
        calls[day][name] += 1
        total[day][name] += end - start
        self_ns[day][name] += own
        layer_self[day][name.split(".")[0]] += own
        pooled[name].append((end - start) / 1e6)

    def per_day(name, table, scale=1.0, statistic="median per day"):
        m.set(name, statistics.median(t * scale for t in table), n_days, statistic)

    def percentile(name, span, q):
        values = pooled.get(span, [])
        m.set(name, np.percentile(values, q) if values else 0.0, len(values),
              f"p{q} over calls")

    percentile("lp.solve.ms_p50", "lp.solve", 50)
    percentile("lp.solve.ms_p90", "lp.solve", 90)
    per_day("lp.solve.calls", [c["lp.solve"] for c in calls])
    per_day("lp.relaxed_fallbacks", [c["lp.solve"] - c["scheduler.step"] for c in calls])
    for key in ("lp.n_vars", "lp.n_rows", "lp.nnz", "lp.dense_mb"):
        values = [size[key] for size in lp_sizes.values()]
        m.set(key, max(values, default=0), len(values),
              "computed from build_program's LinearProgram, largest shape")
    per_day("scheduler.windows", [c["scheduler.step"] for c in calls])
    percentile("scheduler.build_program.ms_p50", "scheduler.build_program", 50)
    percentile("scheduler.horizon_inputs.ms_p50", "scheduler.horizon_inputs", 50)
    percentile("scheduler.horizon_inputs.ms_p90", "scheduler.horizon_inputs", 90)
    percentile("scheduler.extract_plan.ms_p50", "scheduler.extract_plan", 50)
    percentile("scheduler.round_and_commit.ms_p50", "scheduler.round_and_commit", 50)
    percentile("scheduler.step.ms_p50", "scheduler.step", 50)
    percentile("scheduler.step.ms_p90", "scheduler.step", 90)
    per_day("scheduler.step.self_ms", [s["scheduler.step"] for s in self_ns], 1e-6)
    per_day("market.stage_cost.calls", [c["market.stage_cost"] for c in calls])
    for span in ("market.stage_cost", "queues.record_arrivals", "queues.apply_departures",
                 "queues.fifo_delays", "queues.dci", "core.unscheduled_load",
                 "core.synthesize_load", "codec.quantize", "simkit.events_from_counts",
                 "feedback.encode_thresholds", "feedback.decode_and_admit", "cli.export"):
        per_day(f"{span}.ms", [t[span] for t in total], 1e-6)
    per_day("codec.quantize.calls", [c["codec.quantize"] for c in calls])
    for counter in ("queues.arrival_log.entries", "feedback.admitted"):
        per_day(counter, [tracer.counters.get((counter, d), 0) for d in range(n_days)])
    m.set("simkit.generate_arrival_counts.ms",
          setup_ns["simkit.generate_arrival_counts"] / 1e6, 1, "set-up draw")
    for strategy in RUNNERS:
        per_day(f"simkit.run_{strategy}.self_ms",
                [s[f"simkit.run_{strategy}"] for s in self_ns], 1e-6)
    for layer in LAYERS:
        per_day(f"self_ms.{layer}", [s[layer] for s in layer_self], 1e-6)
    per_day("trace.spans", [sum(c.values()) for c in calls])
    traced_day = statistics.median(d.day_s for d in traced)
    untraced_day = statistics.median(d.day_s for d in untraced)
    m.set("trace.day_s", traced_day, n_days, "median over traced days")
    m.set("trace.untraced_day_s", untraced_day, len(untraced),
          "median over the untraced days run in turn with the traced ones")
    m.set("trace.overhead_frac", traced_day / untraced_day - 1.0, n_days,
          "traced day_s over untraced day_s, minus 1")
    return m


def median_runner(days, strategy: str) -> float | None:
    samples = [d.runner_s[strategy] for d in days if strategy in d.runner_s]
    return statistics.median(samples) if samples else None


def baseline_rows(untraced, traced, layer: Metrics) -> list[dict]:
    """The desk figures beside the ROADMAP baseline row."""
    rows = []
    for strategy in RUNNERS:
        key = f"{strategy}_s"
        rows.append({"what": key, "unit": "s", "baseline": ROADMAP_BASELINE[key],
                     "untraced": median_runner(untraced, strategy),
                     "traced": median_runner(traced, strategy)})
    for key, metric in (("build_program_ms", "scheduler.build_program.ms_p50"),
                        ("linprog_ms", "lp.solve.ms_p50")):
        rows.append({"what": key, "unit": "ms per window (p50)",
                     "baseline": ROADMAP_BASELINE[key], "untraced": None,
                     "traced": layer.values[metric]})
    return rows


def print_baseline(rows) -> None:
    print("desk against the ROADMAP baseline (re-anchor, 2 cores, Python 3.11.7):")
    print(f"  {'what':<18}{'baseline':>10}{'untraced':>11}{'traced':>10}  unit")
    for row in rows:
        untraced, traced = ("-" if row[key] is None else f"{row[key]:.4g}"
                            for key in ("untraced", "traced"))
        print(f"  {row['what']:<18}{row['baseline']:>10.4g}{untraced:>11}"
              f"{traced:>10}  {row['unit']}")


# -- environment and output -------------------------------------------------

def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ddls").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    threads = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_observed": threads,
        "wait_time": "none: every run is single-threaded, so no layer waits on another",
    }


def result_line(spec: dict, metrics: Metrics, attempted: int, failed: int, key: str,
                errors=()) -> dict:
    """The last line of output: every metric BENCHMARK.json declares under
    ``key``.  Measured figures it does not declare stay in the results file.
    Any entry of ``errors`` is printed on stderr and makes the run incorrect."""
    declared = {entry["name"]: entry["unit"] for entry in spec[key]}
    missing = sorted(set(declared) - set(metrics.values))
    if missing:
        raise RuntimeError(f"{key}: not measured: {missing}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.values[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def report_problems(days) -> list[dict]:
    out = []
    for day in days:
        for strategy, problems in day.problems.items():
            for problem in problems:
                print(f"check failed: seed {day.seed} {strategy}: {problem}", file=sys.stderr)
                out.append({"seed": day.seed, "strategy": strategy, "problem": problem})
    return out


def trace_errors(recorder) -> list[str]:
    """A target a Tracer or SteadyClock could not wrap would read as a
    zero-time layer, or leave its calls' pieces without a speed probe."""
    return [f"trace target not found: {label}" for label in recorder.missing]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{workload}-days"
    record = {"workload": workload, "seed": seed, "trace": int(trace), "run_seconds": seconds,
              "environment": environment()}
    errors: list[str] = []
    if trace:
        lp_sizes: dict = {}
        tracer = Tracer(on_return={"scheduler.build_program": _lp_dims(lp_sizes)})
        with tracer.recording(-1):
            config, counts = setup(workload, seed)
        untraced, traced = measure_traced(seconds, config, counts, out_dir, tracer)
        days = untraced + traced
        metrics = per_layer(tracer, untraced, traced, lp_sizes)
        spans_path = OUT / f"{workload}.spans.jsonl"
        tracer.write(spans_path, {"workload": workload, "seed": seed})
        record.update(spans_file=str(spans_path.relative_to(ROOT)), spans=len(tracer),
                      unwrapped_targets=tracer.missing)
        errors = trace_errors(tracer)
        if workload == "desk":
            rows = baseline_rows(untraced, traced, metrics)
            print_baseline(rows)
            record["roadmap_baseline"] = rows
        key = "per_layer"
    else:
        started = time.perf_counter()
        config, counts = setup(workload, seed)
        record["in_process_setup_s"] = time.perf_counter() - started
        clock = SteadyClock()
        timed, others, setup_s = measure(workload, seed, seconds, config, counts, out_dir,
                                         clock)
        days = timed + others
        errors = trace_errors(clock)
        metrics = end_to_end(timed, others, setup_s)
        record["samples"] = {
            "raw_setup_s": setup_s,
            "setup_speed": setup_speed(timed),
            "day_s": [d.clock["steady_s"] for d in timed],
            "raw_day_s": [d.day_s for d in timed],
            "probe_us_median": [d.clock["probe_us"] for d in timed],
            "reference_probe_us": spans.REFERENCE_NS / 1e3,
            "parts_s": day_parts(timed),
            "downlink_s": [d.downlink_s for d in days if d.downlink_s is not None],
        }
        key = "end_to_end"
    attempted, failed = tally(days)
    record.update(
        day_seeds=[d.seed for d in days],
        metrics=metrics.detail,
        attempted=attempted,
        failed=failed,
        failures=report_problems(days),
    )
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return result_line(spec, metrics, attempted, failed, key, errors)


# What each metric measures; for a per-layer metric, which end-to-end
# metric it should move and on which workload.
METRIC_NOTES = {
    "setup_s": "fresh interpreter to ready: import ddls, load and validate the "
               "scenario, draw day 0; median of the run's samples at a fixed core speed "
               "(bench/spans.py SteadyClock, the run's median probe)",
    "day_s": "one day: every strategy's runner plus writing its ddls-run CSVs; "
             "mean over the run's repeats of day 0, each timed at a fixed core speed "
             "(bench/spans.py SteadyClock)",
    "peak_rss_mb": "peak resident memory of the run's process",
    "cost_savings": "ddls cost savings against uncontrolled, mean over quality draws",
    "mean_delay_epochs": "ddls mean FIFO delay, mean over quality draws",
    "passed_frac": "share of strategy-days that ran and passed every output check",
    "lp.solve.ms_p50": "per solve; moves day_s through ddls and distributed (desk, wide)",
    "lp.solve.ms_p90": "per solve; moves day_s through ddls and distributed (desk, wide)",
    "lp.solve.calls": "solves per day (robustness count)",
    "lp.relaxed_fallbacks": "solves minus windows: relaxed-completion retries",
    "lp.n_vars": "computed from the LinearProgram; moves peak_rss_mb (wide)",
    "lp.n_rows": "computed from the LinearProgram; moves peak_rss_mb (wide)",
    "lp.nnz": "computed from the LinearProgram; moves peak_rss_mb (wide)",
    "lp.dense_mb": "computed: bytes of the dense constraint matrices; moves peak_rss_mb (wide)",
    "scheduler.windows": "window LPs per day (scheduler.step calls)",
    "scheduler.build_program.ms_p50": "per window; moves scheduler.step.ms_p50 (wide)",
    "scheduler.horizon_inputs.ms_p50": "per window; moves scheduler.step.ms_p90 "
                                       "(history sums grow)",
    "scheduler.horizon_inputs.ms_p90": "per window; moves scheduler.step.ms_p90 "
                                       "(history sums grow)",
    "scheduler.extract_plan.ms_p50": "per window; moves scheduler.step.ms_p50 (desk)",
    "scheduler.round_and_commit.ms_p50": "per window; moves scheduler.step.ms_p50 (desk)",
    "scheduler.step.ms_p50": "decision latency of one controller epoch (a window's step), "
                             "p50 over calls; the real-time figure against the interval",
    "scheduler.step.ms_p90": "decision latency of one controller epoch (a window's step), "
                             "p90 over calls",
    "scheduler.step.self_ms": "step's own time per day; moves scheduler.step.ms_p50 (desk)",
    "market.stage_cost.calls": "per day; moves day_s through ddls (desk)",
    "market.stage_cost.ms": "per day; moves day_s through ddls (desk)",
    "queues.record_arrivals.ms": "per day; moves day_s, peak_rss_mb (crowd)",
    "queues.apply_departures.ms": "per day; moves day_s (crowd)",
    "queues.fifo_delays.ms": "per day; moves day_s (crowd)",
    "queues.dci.ms": "per day; moves day_s (crowd)",
    "queues.arrival_log.entries": "entries appended per day; moves peak_rss_mb (crowd)",
    "core.unscheduled_load.ms": "per day; moves day_s through uncontrolled (crowd)",
    "core.synthesize_load.ms": "per day; moves day_s through uncontrolled and price (crowd)",
    "codec.quantize.calls": "per day; moves day_s through uncontrolled (crowd)",
    "codec.quantize.ms": "per day; moves day_s through uncontrolled (crowd)",
    "simkit.generate_arrival_counts.ms": "the set-up draw; moves setup_s",
    "simkit.events_from_counts.ms": "per day; moves day_s through uncontrolled (crowd)",
    "simkit.run_uncontrolled.self_ms": "runner's own time per day; moves day_s",
    "simkit.run_ddls.self_ms": "runner's own time per day; moves day_s",
    "simkit.run_distributed.self_ms": "per-appliance assignment loop and merging; "
                                      "moves day_s (crowd)",
    "simkit.run_price.self_ms": "runner's own time per day; moves day_s",
    "feedback.encode_thresholds.ms": "per day, all callers (export and the downlink replay); "
                                     "moves day_s (crowd)",
    "feedback.decode_and_admit.ms": "per day; moves the downlink replay (crowd)",
    "feedback.admitted": "appliances admitted per day by the downlink",
    "cli.export.ms": "writing the ddls-run CSVs per day, feedback messages built by "
                     "ddls.cli; moves day_s",
    "self_ms.lp": "self time of the layer's spans per day",
    "self_ms.scheduler": "self time of the layer's spans per day",
    "self_ms.market": "self time of the layer's spans per day",
    "self_ms.queues": "self time of the layer's spans per day",
    "self_ms.core": "self time of the layer's spans per day",
    "self_ms.codec": "self time of the layer's spans per day",
    "self_ms.simkit": "self time of the layer's spans per day",
    "self_ms.feedback": "self time of the layer's spans per day",
    "self_ms.cli": "self time of the layer's spans per day",
    "trace.spans": "spans recorded per traced day",
    "trace.day_s": "day_s with tracing on",
    "trace.untraced_day_s": "day_s of the same day with tracing off, run in turn with the "
                            "traced days",
    "trace.overhead_frac": "trace.day_s / trace.untraced_day_s - 1",
}


def list_metrics() -> str:
    """Every metric with its name, unit, direction and bound, from
    BENCHMARK.json, and what it measures."""
    spec = load_spec()
    lines = []
    for key in ("end_to_end", "per_layer"):
        entries = spec[key]
        lines.append(f"{key}:")
        for entry in entries:
            bound = f", bound {entry['bound']:.0%}" if "bound" in entry else ""
            lines.append(f"  {entry['name']:<34} {entry['unit']:<8} "
                         f"{entry['better']} is better{bound}: {METRIC_NOTES[entry['name']]}")
    lines.append("wait time: none; every run is single-threaded, so no layer waits on another")
    return "\n".join(lines)
