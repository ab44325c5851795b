"""Fast self-tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import harness  # noqa: E402
import make_scenarios  # noqa: E402
import spans  # noqa: E402
from ddls import scheduler, simkit  # noqa: E402


def test_self_time_subtracts_the_union_of_clipped_children():
    # root [0, 100) has children [10, 40) and [30, 50), which overlap and
    # cover [10, 50), and [90, 120), clipped to [90, 100); the first child
    # has a grandchild [12, 20).
    starts = [0, 10, 30, 90, 12]
    ends = [100, 40, 50, 120, 20]
    parents = [-1, 0, 0, 0, 1]
    assert spans.self_times(starts, ends, parents) == [50, 22, 20, 30, 8]


def test_steady_clock_scales_each_piece_by_the_probe_before_it(monkeypatch):
    # pieces of 100, 200 and 300 ns; a probe of 200 ns before the first
    # stamp and one of 400 ns in the second piece, which (as the median of
    # the probes so far, 300 ns) sets the speed of the second piece on.
    monkeypatch.setattr(spans, "REFERENCE_NS", 600)
    out = spans.steady(np.array([0, 100, 300, 600]), np.array([0, 2]), np.array([200, 400]))
    assert out["raw_s"] == pytest.approx(600e-9)
    assert out["steady_s"] == pytest.approx((100 * 3 + 200 * 2 + 300 * 2) * 1e-9)
    assert out["probes"] == 2


def test_steady_clock_leaves_the_probe_time_out(monkeypatch):
    def slow_probe():
        end = time.perf_counter() + 0.005
        while time.perf_counter() < end:
            pass

    monkeypatch.setattr(spans, "probe_loop", slow_probe)
    clock = spans.SteadyClock()
    clock.stamp()
    clock.stamp()
    out = clock.take()
    assert out["probes"] == 1 and out["probe_us"] >= 5000
    assert out["raw_s"] < 0.001
    assert len(clock.stamps) == 0 and clock.due == 0


def test_recording_nests_spans_and_restores_every_attribute():
    config = harness.load_config("desk", 0)
    counts = harness.draw(config)
    original = scheduler.build_program
    tracer = spans.Tracer()
    with tracer.recording(3):
        assert scheduler.build_program is not original
        simkit.run_price_signal(config, arrival_counts=counts)
    assert scheduler.build_program is original
    root = tracer.names.index("simkit.run_price")
    assert tracer.parents[root] == -1
    assert {"core.synthesize_load", "queues.record_arrivals", "queues.dci",
            "market.stage_cost"} <= set(tracer.names)
    assert all(parent == root for index, parent in enumerate(tracer.parents) if index != root)
    assert set(tracer.days) == {3}
    assert tracer.counters[("queues.arrival_log.entries", 3)] == counts.sum()
    assert not tracer.missing


def test_a_trace_target_that_is_gone_makes_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.delattr(simkit, "dci")
    tracer = spans.Tracer()
    with tracer.recording(0):
        pass
    assert tracer.missing == ["ddls.simkit.dci"]
    clock = spans.SteadyClock()
    with clock.recording():
        pass
    assert harness.trace_errors(clock) == ["trace target not found: ddls.simkit.dci"]
    errors = harness.trace_errors(tracer)
    metrics = harness.Metrics()
    for entry in harness.load_spec()["per_layer"]:
        metrics.set(entry["name"], 1.0, 1, "test")
    line = harness.result_line(harness.load_spec(), metrics, 4, 0, "per_layer", errors)
    assert line["correct"] is False
    assert "ddls.simkit.dci" in capsys.readouterr().err


def test_a_result_missing_one_appliance_counts_as_failed(monkeypatch, tmp_path):
    config = harness.load_config("desk", 0)
    counts = harness.draw(config)
    honest = simkit.run_uncontrolled(config, arrival_counts=counts)
    assert checks.check_run(honest, counts, config) == []

    q, epoch = (int(i) for i in np.argwhere(counts > 0)[0])
    pulse = np.asarray(config.codebook[q].pulse)
    flex = honest.flex_kw.copy()
    flex[epoch : epoch + pulse.size] -= pulse
    dropped = dataclasses.replace(
        honest, flex_kw=flex,
        metrics=dataclasses.replace(honest.metrics, served=honest.metrics.served - 1),
    )
    monkeypatch.setattr(simkit, "run_uncontrolled", lambda *args, **kwargs: dropped)
    day = harness.run_day(config, counts, tmp_path)
    assert set(day.problems) == {"uncontrolled"}
    assert harness.tally([day]) == (len(harness.RUNNERS), 1)


def test_schedule_quality_skips_a_day_whose_runner_raised():
    config = harness.load_config("desk", 0)
    counts = harness.draw(config)
    results = {"uncontrolled": simkit.run_uncontrolled(config, arrival_counts=counts),
               "ddls": simkit.run_ddls(config, arrival_counts=counts)}
    whole = harness.Day(0, schedule=harness.schedule_quality(results))
    del results["ddls"]
    broken = harness.Day(1, schedule=harness.schedule_quality(results))
    assert broken.schedule is None and whole.schedule is not None
    assert harness.quality([whole, broken]) == whole.schedule
    assert harness.quality([broken]) == (0.0, 0.0)


def test_one_command_lists_every_metric_with_unit_and_direction():
    listing = subprocess.run([sys.executable, str(BENCH / "run.py"), "--list-metrics"],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = {line.split()[0]: line for line in listing.splitlines() if line.startswith("  ")}
    spec = harness.load_spec()
    entries = spec["end_to_end"] + spec["per_layer"]
    assert set(lines) == {entry["name"] for entry in entries} == set(harness.METRIC_NOTES)
    for entry in entries:
        words = lines[entry["name"]].split()
        assert words[1] == entry["unit"] and words[2] == entry["better"]


@pytest.mark.parametrize("name", sorted(make_scenarios.TRANSFORMS))
def test_committed_scenarios_are_the_desk_transform(name):
    desk = json.loads(make_scenarios.DESK.read_text())
    path = make_scenarios.SCENARIOS / f"{name}.json"
    assert path.read_text() == make_scenarios.render(make_scenarios.TRANSFORMS[name](desk))
    simkit.load_scenario(path)


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
