"""Benchmark harness tests.

Arrival draws are checked against their Poisson statistics, each
strategy runner against hand-computable instances, and the comparison
scoreboard against the invariants that make cross-strategy numbers
meaningful: same seed, same population, energy conserved.
"""

import numpy as np
import pytest

from ddls.codec import Quantizer
from ddls.core import ChargeCode
from ddls.errors import ConfigurationError
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
    save_scenario,
    summary_rows,
    summary_to_csv,
)


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
        for field in ("total_cost", "deviation_cost", "delay_cost",
                      "mean_delay_epochs", "peak_kw", "served"):
            assert getattr(split.metrics, field) == pytest.approx(
                getattr(single.metrics, field))
        assert np.allclose(split.flex_kw, single.flex_kw)
        assert np.allclose(split.trajectory.stage_costs, single.trajectory.stage_costs)

    def test_population_preserved_across_split(self):
        config = tiny_config(seed=17, n_schedulers=3)
        counts = generate_arrival_counts([4.0, 4.0], 10, seed=17)
        result = run_distributed(config)
        assert result.metrics.served == counts.sum()
        assert np.isclose(result.flex_kw.sum(), pulse_energy(config.codebook, counts))

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


class TestPriceSignal:
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
