"""Benchmark harness tests.

Arrival draws are checked against their Poisson statistics, each
strategy runner against hand-computable instances, and the comparison
scoreboard against the invariants that make cross-strategy numbers
meaningful: same seed, same population, energy conserved.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddls import codec, scheduler, simkit
from ddls.cli import main
from ddls.codec import Quantizer
from ddls.core import ChargeCode, unscheduled_load
from ddls.errors import ConfigurationError
from ddls.queues import QueueLedger
from ddls.simkit import (
    METRICS_HEADER,
    RunMetrics,
    ScenarioConfig,
    STRATEGIES,
    compare,
    default_price_curve,
    events_from_counts,
    generate_arrival_counts,
    load_scenario,
    metrics_to_csv,
    run_ddls,
    run_distributed,
    run_price_signal,
    run_scenario,
    run_uncontrolled,
    _split_counts,
    save_scenario,
    summary_rows,
    summary_to_csv,
)


DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_day.json"


def two_code_book():
    return (ChargeCode(1, (2.0,)), ChargeCode(2, (1.0, 1.0)))


def tiny_config(**overrides):
    base = dict(
        seed=7,
        interval_s=900.0,
        horizon_epochs=10,
        codebook=two_code_book(),
        arrival_rates_per_hour=4.0,
        zic_kw=4.0,
        price_up=1.0,
        price_dn=1.0,
        delay_prices=0.05,
        lookahead=4,
        deadline_epochs=4,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def pulse_energy(codebook, counts):
    counts = np.asarray(counts)
    return float(sum(counts[q].sum() * sum(code.pulse) for q, code in enumerate(codebook)))


class TestScenarioConfig:
    def test_json_round_trip(self, tmp_path):
        config = tiny_config(
            arrival_rates_per_hour=[4.0, 2.0],
            zic_kw=np.linspace(1.0, 4.0, 10),
            n_schedulers=3,
            strategy="distributed",
        )
        path = tmp_path / "scenario.json"
        save_scenario(config, path)
        loaded = load_scenario(path)
        assert loaded.to_dict() == config.to_dict()

    def test_scalars_broadcast(self):
        config = tiny_config()
        assert config.zic_kw.shape == (10,)
        assert np.all(config.price_up == 1.0)
        assert config.delay_prices.shape == (2,)

    def test_deadline_shorter_than_longest_pulse_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(deadline_epochs=1)

    def test_zero_schedulers_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(n_schedulers=0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(strategy="oracle")

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(arrival_rates_per_hour=-1.0)

    def test_rate_vector_must_match_queue_count(self):
        with pytest.raises(ConfigurationError):
            tiny_config(arrival_rates_per_hour=[1.0, 2.0, 3.0])

    def test_unknown_json_key_rejected(self):
        raw = tiny_config().to_dict()
        raw["frequency_hz"] = 60
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict(raw)

    def test_missing_json_key_rejected(self):
        raw = tiny_config().to_dict()
        del raw["seed"]
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict(raw)

    def test_codebook_ids_must_be_consecutive(self):
        raw = tiny_config().to_dict()
        raw["codebook"][0]["id"] = 2
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("entry", [
        {"id": 1, "rate_kw": 2.0, "duration_epochs": 1.7},
        {"id": 1, "rate_kw": 2.0, "duration_epochs": True},
        {"id": 1, "rate_kw": 2.0, "duration_epochs": "four"},
        {"id": 1, "rate_kw": 2.0, "duration_epochs": 0},
        {"id": 1, "rate_kw": float("nan"), "duration_epochs": 1},
        {"id": 1, "rate_kw": -2.0, "duration_epochs": 1},
        {"id": 1, "rate_kw": "2", "duration_epochs": 1},
        {"id": 1, "duration_epochs": 1},
        {"id": "1", "rate_kw": 2.0, "duration_epochs": 1},
        {"id": 1, "rate_kw": 2.0, "duration_epochs": 1, "pulse": [5.0, 5.0]},
        [2.0, 1],
    ], ids=["fractional-duration", "bool-duration", "text-duration", "zero-duration",
            "nan-rate", "negative-rate", "text-rate", "missing-rate", "text-id", "unknown-key",
            "not-object"])
    def test_bad_codebook_entry_rejected_at_load(self, entry, tmp_path, capsys):
        raw = tiny_config().to_dict()
        raw["codebook"][0] = entry
        with pytest.raises(ConfigurationError, match="codebook"):
            ScenarioConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "codebook" in capsys.readouterr().err

    def test_padding_extends_supply_with_zeros_and_prices_with_edge(self):
        config = tiny_config(price_up=np.linspace(1.0, 2.0, 10))
        zic, up, dn = config.padded_profiles()
        assert zic.size == config.padded_length() == up.size == dn.size
        assert np.all(zic[10:] == 0.0)
        assert np.all(up[10:] == 2.0)
        rates = config.padded_rates()
        assert rates.shape == (2, config.padded_length())
        assert np.all(rates[:, 10:] == 0.0)
        assert np.allclose(rates[:, :10], 1.0)


class TestGenerateArrivals:
    def test_zero_rate_draws_nothing(self):
        counts = generate_arrival_counts(np.zeros(3), 40, seed=1)
        assert counts.shape == (3, 40)
        assert counts.sum() == 0
        assert events_from_counts(counts, [ChargeCode(q + 1, (1.0,)) for q in range(3)]) == []

    def test_seed_reproducibility(self):
        a = generate_arrival_counts([12.0, 6.0], 200, seed=42)
        b = generate_arrival_counts([12.0, 6.0], 200, seed=42)
        c = generate_arrival_counts([12.0, 6.0], 200, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_mean_tracks_rate(self):
        # lambda = 12/h at 15-minute epochs -> mean 3 per epoch
        n = 10_000
        counts = generate_arrival_counts([12.0], n, seed=5, interval_s=900.0)
        sigma = np.sqrt(3.0 / n)
        assert abs(counts.mean() - 3.0) < 3 * sigma

    def test_queue_streams_do_not_shift_when_queues_are_added(self):
        lone = generate_arrival_counts([12.0], 60, seed=9)
        pair = generate_arrival_counts([12.0, 5.0], 60, seed=9)
        assert np.array_equal(lone[0], pair[0])

    def test_time_varying_rates(self):
        rates = np.zeros((1, 30))
        rates[0, :10] = 240.0
        counts = generate_arrival_counts(rates, 30, seed=2)
        assert counts[0, 10:].sum() == 0
        assert counts[0, :10].sum() > 0
        with pytest.raises(ConfigurationError):
            generate_arrival_counts(rates, 31, seed=2)

    def test_events_round_trip_through_quantizer(self):
        codebook = two_code_book()
        counts = np.array([[2, 0, 1], [0, 3, 0]])
        events = events_from_counts(counts, codebook)
        assert len(events) == 6
        quantizer = Quantizer(codebook)
        rebuilt = np.zeros_like(counts)
        for event in events:
            rebuilt[quantizer.quantize(event.request) - 1, event.arrival_epoch] += 1
        assert np.array_equal(rebuilt, counts)

    def test_event_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            events_from_counts(np.zeros((3, 2)), two_code_book())


class TestUncontrolled:
    def test_serves_on_arrival(self):
        config = tiny_config(horizon_epochs=3, zic_kw=0.0)
        counts = np.array([[1, 0, 0], [0, 1, 0]])
        result = run_uncontrolled(config, counts)
        assert np.allclose(result.flex_kw[:4], [2.0, 1.0, 1.0, 0.0])
        assert result.metrics.mean_delay_epochs == 0.0
        assert result.metrics.delay_cost == 0.0
        assert result.metrics.served == 2
        assert result.metrics.peak_kw == 2.0
        assert np.isclose(result.metrics.deviation_cost, 4.0)

    def test_zero_arrivals_pay_for_unused_supply(self):
        config = tiny_config()
        counts = np.zeros((2, 10), dtype=int)
        result = run_uncontrolled(config, counts)
        assert np.isclose(result.metrics.deviation_cost, 40.0)
        assert result.metrics.peak_kw == 0.0
        assert result.metrics.served == 0

    def test_energy_conserved(self):
        config = tiny_config(seed=11)
        result = run_uncontrolled(config)
        counts = generate_arrival_counts([4.0, 4.0], 10, seed=11)
        assert np.isclose(result.flex_kw.sum(), pulse_energy(config.codebook, counts))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_load_matches_per_appliance_quantization(self, data):
        # square codes, so quantizing a code's own (rate, duration) request
        # recovers that code
        shapes = data.draw(st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.3]), st.integers(1, 3)),
            min_size=1, max_size=3, unique=True))
        codebook = tuple(ChargeCode(i + 1, (rate,) * duration)
                         for i, (rate, duration) in enumerate(shapes))
        horizon = data.draw(st.integers(1, 6))
        counts = np.array([data.draw(st.lists(st.integers(0, 3), min_size=horizon,
                                              max_size=horizon)) for _ in codebook])
        start_lag = data.draw(st.sampled_from([0, 1]))
        config = tiny_config(codebook=codebook, horizon_epochs=horizon, zic_kw=1.0,
                             start_lag=start_lag)
        oracle = unscheduled_load(events_from_counts(counts, codebook), list(codebook),
                                  Quantizer(codebook), horizon=config.padded_length(),
                                  start_lag=start_lag)
        assert np.array_equal(run_uncontrolled(config, counts).flex_kw, oracle)


class TestEveryRunner:
    def test_energy_conserved_with_non_square_pulses(self):
        # the second pulse is not square: the square request (max(pulse),
        # duration) quantizes to the first code, not to the second
        codebook = (ChargeCode(1, (2.0, 2.0)), ChargeCode(2, (2.0, 0.5)))
        config = tiny_config(codebook=codebook, horizon_epochs=4, zic_kw=2.0)
        counts = np.array([[0, 0, 0, 0], [2, 0, 1, 0]])
        for runner in (run_uncontrolled, run_ddls, run_distributed, run_price_signal):
            result = runner(config, counts)
            assert result.flex_kw.sum() == pytest.approx(7.5, abs=1e-9), runner.__name__
            assert result.metrics.served == 3

    def test_no_runner_handles_appliances_one_by_one(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-appliance path called")

        monkeypatch.setattr(codec, "quantize", forbidden)
        monkeypatch.setattr(simkit, "events_from_counts", forbidden)
        monkeypatch.setattr(simkit, "unscheduled_load", forbidden)
        monkeypatch.setattr(QueueLedger, "fifo_delays", forbidden)
        config = tiny_config(seed=5, n_schedulers=2)
        for runner in (run_uncontrolled, run_ddls, run_distributed, run_price_signal):
            assert runner(config).metrics.served > 0


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestTrajectoryCost:
    """A run's trajectory ends once its last pulse stops drawing power,
    so its stage costs sum to the run's total cost."""

    RUNNERS = (run_uncontrolled, run_ddls, run_distributed, run_price_signal)

    def _check(self, monkeypatch, config, counts=None):
        """Each runner's (runner, result, scheduler steps), once its
        trajectory cost and its solve count are checked."""
        runs = []
        for runner in self.RUNNERS:
            calls = {}
            with monkeypatch.context() as patch:
                _counting(patch, scheduler, "lp_solve", calls)
                _counting(patch, scheduler.RecedingHorizonScheduler, "step", calls)
                result = runner(config, counts)
            assert result.trajectory.total_cost == pytest.approx(
                result.metrics.total_cost, rel=1e-9, abs=0.0), runner.__name__
            drawn = counts if counts is not None else generate_arrival_counts(
                config.arrival_rates_per_hour, config.horizon_epochs, config.seed,
                config.interval_s)
            assert np.array_equal(np.sum(result.trajectory.committed, axis=0),
                                  drawn.sum(axis=1)), runner.__name__
            assert calls.get("lp_solve", 0) == calls.get("step", 0), runner.__name__
            runs.append((runner, result, calls.get("step", 0)))
        return runs

    def test_desk_day(self, monkeypatch):
        config = load_scenario(DESK_CONFIG)
        for runner, result, steps in self._check(monkeypatch, config):
            if runner in (run_ddls, run_distributed):
                assert steps > 0

    @pytest.mark.parametrize("start_lag", [0, 1])
    def test_three_epoch_pulse_committed_at_the_last_step(self, monkeypatch, start_lag):
        config = tiny_config(codebook=(ChargeCode(1, (1.0, 2.0, 0.5)),), horizon_epochs=4,
                             zic_kw=0.0, start_lag=start_lag)
        counts = np.array([[0, 0, 0, 2]])
        for runner, result, steps in self._check(monkeypatch, config, counts):
            assert result.flex_kw.sum() == pytest.approx(7.0)
            if runner is run_ddls:
                # the last step commits the pulses; they draw for 2 + start_lag more epochs
                assert len(result.trajectory) == steps + 2 + start_lag


class TestDdlsRunner:
    def test_energy_conserved_and_all_served(self):
        config = tiny_config(seed=3)
        counts = generate_arrival_counts([4.0, 4.0], 10, seed=3)
        result = run_ddls(config)
        assert result.metrics.served == counts.sum()
        assert np.isclose(result.flex_kw.sum(), pulse_energy(config.codebook, counts))
        assert result.ledger.backlog(len(result.trajectory)).sum() == 0

    def test_deadline_limits_every_fifo_delay(self):
        for seed in (0, 1, 2):
            result = run_ddls(tiny_config(seed=seed))
            delays = [delay for _, _, delay in result.ledger.fifo_delays()]
            assert delays and max(delays) <= 4

    def test_reproducible(self):
        first = run_ddls(tiny_config(seed=21))
        second = run_ddls(tiny_config(seed=21))
        assert first.metrics == second.metrics
        assert np.array_equal(first.flex_kw, second.flex_kw)

    def test_beats_uncontrolled_when_supply_is_late(self):
        # Arrivals in the first two epochs, all supply in a later bump:
        # deferral serves inside the bump, immediate service pays twice.
        config = tiny_config(
            codebook=(ChargeCode(1, (2.0,)),),
            horizon_epochs=8,
            arrival_rates_per_hour=0.0,
            zic_kw=[0, 0, 0, 2, 2, 2, 2, 0],
            delay_prices=0.01,
            lookahead=7,
            deadline_epochs=8,
        )
        counts = np.array([[2, 2, 0, 0, 0, 0, 0, 0]])
        controlled = run_ddls(config, counts)
        uncontrolled = run_uncontrolled(config, counts)
        assert np.isclose(uncontrolled.metrics.total_cost, 16.0)
        assert controlled.metrics.total_cost < 0.2 * uncontrolled.metrics.total_cost
        assert controlled.metrics.peak_kw <= uncontrolled.metrics.peak_kw

    def test_run_scenario_dispatches_on_strategy(self):
        assert run_scenario(tiny_config(strategy="uncontrolled")).metrics.strategy == "uncontrolled"
        assert run_scenario(tiny_config(strategy="ddls")).metrics.strategy == "ddls"


class TestDistributed:
    def test_single_scheduler_degenerates_to_ddls(self):
        config = tiny_config(seed=13, n_schedulers=1)
        split = run_distributed(config)
        single = run_ddls(config)
        assert split.metrics == dataclasses.replace(single.metrics, strategy="distributed")
        assert np.array_equal(split.flex_kw, single.flex_kw)
        assert split.trajectory.stage_costs == single.trajectory.stage_costs

    def test_population_preserved_across_split(self):
        config = tiny_config(seed=17, n_schedulers=3)
        counts = generate_arrival_counts([4.0, 4.0], 10, seed=17)
        result = run_distributed(config)
        assert result.metrics.served == counts.sum()
        assert np.isclose(result.flex_kw.sum(), pulse_energy(config.codebook, counts))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_split_matches_per_appliance_assignment(self, data):
        m = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**32 - 1))
        n_queues, n_epochs = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
        counts = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 6), min_size=n_epochs, max_size=n_epochs),
            min_size=n_queues, max_size=n_queues)))
        oracle = np.zeros((m, n_queues, n_epochs), dtype=np.int64)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        for q in range(n_queues):
            for epoch in range(n_epochs):
                for owner in rng.integers(0, m, size=int(counts[q, epoch])):
                    oracle[owner, q, epoch] += 1
        assert np.array_equal(_split_counts(counts, m, seed), oracle)

    def test_assignment_reproducible(self):
        a = run_distributed(tiny_config(seed=23, n_schedulers=3))
        b = run_distributed(tiny_config(seed=23, n_schedulers=3))
        assert a.metrics == b.metrics

    def test_fragmenting_the_fleet_costs_more_on_average(self):
        singles = []
        splits = []
        for seed in range(8):
            singles.append(run_distributed(
                tiny_config(seed=seed, n_schedulers=1)).metrics.total_cost)
            splits.append(run_distributed(
                tiny_config(seed=seed, n_schedulers=4)).metrics.total_cost)
        assert np.mean(singles) <= np.mean(splits)


def _per_arrival_price_starts(config, counts, price):
    """The price runner's former search, one arrival epoch at a time: the
    cheapest start in reach, earliest on ties."""
    starts = np.zeros((config.n_queues, config.padded_length()), dtype=np.int64)
    for q, code in enumerate(config.codebook):
        pulse = np.asarray(code.pulse)
        window = np.arange(config.deadline_epochs + 1)
        for epoch in np.nonzero(counts[q])[0]:
            first = epoch + window + config.start_lag
            costs = [float(price[f : f + len(pulse)] @ pulse) for f in first]
            best = int(epoch + window[int(np.argmin(costs))])
            starts[q, best] += counts[q, epoch]
    return starts


class TestPriceSignal:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_starts_match_the_per_arrival_search(self, data):
        levels = st.sampled_from([0.5, 1.0, 2.0])
        pulses = data.draw(st.lists(st.lists(levels, min_size=1, max_size=3),
                                    min_size=1, max_size=3))
        codebook = tuple(ChargeCode(i + 1, tuple(p)) for i, p in enumerate(pulses))
        horizon = data.draw(st.integers(1, 6))
        deadline = data.draw(st.integers(max(map(len, pulses)), 5))
        config = tiny_config(codebook=codebook, horizon_epochs=horizon,
                             deadline_epochs=deadline, lookahead=deadline,
                             start_lag=data.draw(st.sampled_from([0, 1])))
        length = config.padded_length()
        counts = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon),
            min_size=len(codebook), max_size=len(codebook))))
        if data.draw(st.booleans()):
            price = np.full(length, 3.0)  # every start ties
        else:
            price = np.array(data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                                                min_size=length, max_size=length)))
        result = run_price_signal(config, counts, price=price)
        assert np.array_equal(result.ledger.departure_increments(0, length),
                              _per_arrival_price_starts(config, counts, price))

    def test_flat_price_means_start_on_arrival(self):
        config = tiny_config(horizon_epochs=6)
        counts = np.array([[1, 0, 2, 0, 0, 0], [0, 1, 0, 0, 1, 0]])
        flat = np.full(config.padded_length(), 5.0)
        result = run_price_signal(config, counts, price=flat)
        uncontrolled = run_uncontrolled(config, counts)
        assert np.allclose(result.flex_kw, uncontrolled.flex_kw)
        assert result.metrics.mean_delay_epochs == 0.0

    def test_broad_price_dip_synchronizes_starts(self):
        # Four appliances, four cheap epochs: every one of them picks the
        # first cheap epoch, stacking 8 kW on a 2 kW supply.  The direct
        # scheduler spreads them across the bump instead.
        config = tiny_config(
            codebook=(ChargeCode(1, (2.0,)),),
            horizon_epochs=8,
            arrival_rates_per_hour=0.0,
            zic_kw=[0, 0, 0, 2, 2, 2, 2, 0],
            delay_prices=0.01,
            lookahead=7,
            deadline_epochs=8,
        )
        counts = np.array([[2, 2, 0, 0, 0, 0, 0, 0]])
        priced = run_price_signal(config, counts)
        assert priced.flex_kw[3] == 8.0
        assert priced.metrics.peak_kw == 8.0
        controlled = run_ddls(config, counts)
        assert controlled.metrics.peak_kw < priced.metrics.peak_kw
        assert priced.metrics.total_cost > controlled.metrics.total_cost

    def test_default_curve_is_positive_and_dips_with_supply(self):
        config = tiny_config(zic_kw=[0, 1, 2, 5, 2, 1, 0, 0, 0, 0])
        price = default_price_curve(config)
        assert price.min() > 0.0
        assert np.argmin(price) == 3

    def test_dip_beyond_deadline_is_out_of_reach(self):
        config = tiny_config(
            codebook=(ChargeCode(1, (2.0,)),),
            horizon_epochs=8,
            arrival_rates_per_hour=0.0,
            zic_kw=[0, 0, 0, 0, 0, 0, 0, 8],
            deadline_epochs=4,
            lookahead=4,
        )
        counts = np.array([[1, 0, 0, 0, 0, 0, 0, 0]])
        result = run_price_signal(config, counts)
        assert result.flex_kw[0] == 2.0
        assert result.metrics.mean_delay_epochs == 0.0

    def test_wrong_length_price_rejected(self):
        config = tiny_config()
        with pytest.raises(ConfigurationError):
            run_price_signal(config, price=np.ones(3))


class TestCompareAndExport:
    def test_same_seed_same_population(self):
        results = compare(tiny_config(seed=29, n_schedulers=2))
        assert [r.metrics.strategy for r in results] == list(STRATEGIES)
        served = {r.metrics.served for r in results}
        assert len(served) == 1
        energies = [r.flex_kw.sum() for r in results]
        assert np.allclose(energies, energies[0])

    def test_summary_rows_are_relative_to_uncontrolled(self):
        results = compare(tiny_config(seed=29), strategies=("uncontrolled", "ddls"))
        rows = summary_rows(results)
        assert rows[0]["cost_savings_vs_uncontrolled"] == 0.0
        assert rows[0]["peak_ratio_vs_uncontrolled"] == 1.0
        expected = 1.0 - results[1].metrics.total_cost / results[0].metrics.total_cost
        assert rows[1]["cost_savings_vs_uncontrolled"] == pytest.approx(expected)

    def test_csv_exports_are_deterministic(self, tmp_path):
        results = compare(tiny_config(seed=31), strategies=("uncontrolled", "ddls"))
        metrics_path = tmp_path / "metrics.csv"
        summary_path = tmp_path / "summary.csv"
        metrics_to_csv([r.metrics for r in results], metrics_path)
        summary_to_csv(summary_rows(results), summary_path)
        first = metrics_path.read_text()
        assert first.splitlines()[0] == ",".join(METRICS_HEADER)
        assert len(first.splitlines()) == 3
        metrics_to_csv([r.metrics for r in results], metrics_path)
        assert metrics_path.read_text() == first
        header = summary_path.read_text().splitlines()[0]
        assert header.startswith("strategy,total_cost,cost_savings_vs_uncontrolled")

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            RunMetrics("ddls", 0, -1.0, 0.0, 0.0, 0.0, 0.0, 0)
