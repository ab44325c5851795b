import json
import math

import numpy as np
import pytest

from ddls.codec import (
    ArrivalTimeCode,
    FeedbackRateParams,
    Quantizer,
    cell_masses,
    codebook_from_json,
    codebook_to_json,
    decode_arrival_time,
    design_codebook_min_distortion,
    design_codebook_min_q,
    encode_arrival_time,
    feedback_rate_bound,
    fit_codebook,
    mean_distortion,
    quantize,
    queue_arrival_rates,
    uplink_rate_cems,
    uplink_rate_hems,
)
from ddls.core import ChargeCode, RawRequest, square_pulse
from ddls.errors import ConfigurationError

SEED = 31415


def grid_quantizer():
    codes = []
    for duration in (1, 2, 3, 4):
        for rate in (1.0, 2.0, 3.0):
            codes.append(ChargeCode(len(codes) + 1, square_pulse(rate, duration)))
    return Quantizer(tuple(codes))


def oracle_pulse(rate, duration):
    n = int(math.ceil(duration))
    pulse = [rate] * n
    pulse[-1] = rate * (duration - (n - 1))
    return pulse


def oracle_nearest(request, codebook):
    """Exhaustive nearest-neighbor search, written independently of the
    package's distortion helpers."""
    rp = oracle_pulse(request.rate_kw, request.duration_epochs)
    best_id, best = None, float("inf")
    for code in codebook:
        n = max(len(rp), len(code.pulse))
        err = 0.0
        for k in range(n):
            a = rp[k] if k < len(rp) else 0.0
            b = code.pulse[k] if k < len(code.pulse) else 0.0
            err += (a - b) ** 2
        if err < best:
            best_id, best = code.id, err
    return best_id


class TestQuantize:
    def test_codes_are_fixed_points(self):
        quant = grid_quantizer()
        for code in quant.codebook:
            req = RawRequest((code.pulse[0], float(code.duration_epochs)))
            assert quantize(req, quant) == code.id

    def test_tie_breaks_to_lower_id(self):
        quant = Quantizer((ChargeCode(1, (1.0,)), ChargeCode(2, (3.0,))))
        assert quantize(RawRequest((2.0, 1.0)), quant) == 1

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(SEED)
        quant = grid_quantizer()
        for _ in range(1000):
            req = RawRequest((rng.uniform(0.5, 3.5), rng.uniform(0.5, 4.5)))
            assert quantize(req, quant) == oracle_nearest(req, quant.codebook)

    def test_quantizer_validates_ids(self):
        with pytest.raises(ConfigurationError):
            Quantizer((ChargeCode(2, (1.0,)),))
        with pytest.raises(ConfigurationError):
            Quantizer(())


class TestQueueArrivalRates:
    def test_uniform_mass_over_four_cells(self):
        codes = tuple(ChargeCode(q + 1, square_pulse(1.0, q + 1)) for q in range(4))
        quant = Quantizer(codes)
        samples = [RawRequest((1.0, float(d + 1))) for d in range(4)]
        rates = queue_arrival_rates(12.0, quant, request_samples=samples)
        np.testing.assert_allclose(rates, [3.0, 3.0, 3.0, 3.0])

    def test_single_code_gets_everything(self):
        quant = Quantizer((ChargeCode(1, (1.0,)),))
        rates = queue_arrival_rates(7.5, quant, request_samples=[RawRequest((1.0, 1.0))])
        np.testing.assert_allclose(rates, [7.5])

    def test_thirty_two_equal_queues_sum_to_total(self):
        codes = tuple(ChargeCode(q + 1, square_pulse(1.0 + q, 1)) for q in range(32))
        quant = Quantizer(codes)
        rates = queue_arrival_rates(384.0, quant, masses=np.full(32, 1.0))
        np.testing.assert_allclose(rates, np.full(32, 12.0))
        assert rates.sum() == pytest.approx(384.0, abs=1e-6)

    def test_random_masses_sum_to_total(self):
        rng = np.random.default_rng(SEED + 1)
        codes = tuple(ChargeCode(q + 1, square_pulse(1.0, q + 1)) for q in range(5))
        quant = Quantizer(codes)
        for _ in range(20):
            masses = rng.uniform(0.1, 1.0, size=5)
            lam = rng.uniform(1.0, 30.0)
            rates = queue_arrival_rates(lam, quant, masses=masses)
            assert rates.sum() == pytest.approx(lam, abs=1e-6)

    def test_per_epoch_rate_vector(self):
        quant = Quantizer((ChargeCode(1, (1.0,)), ChargeCode(2, (2.0,))))
        rates = queue_arrival_rates(np.array([4.0, 8.0]), quant, masses=[0.25, 0.75])
        np.testing.assert_allclose(rates, [[1.0, 2.0], [3.0, 6.0]])


class TestArrivalTimeCode:
    def test_hand_case(self):
        code = encode_arrival_time(37, 16)
        assert code.residue == 5
        assert decode_arrival_time(code, 40) == 37

    def test_epoch_zero(self):
        code = encode_arrival_time(0, 16)
        assert code.residue == 0
        assert decode_arrival_time(code, 0) == 0

    def test_round_trip_exact_for_all_delays_below_window(self):
        for window in (2, 4, 8, 16, 64):
            for arrival in range(256):
                code = encode_arrival_time(arrival, window)
                for delay in range(window):
                    assert decode_arrival_time(code, arrival + delay) == arrival

    def test_residue_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            ArrivalTimeCode(residue=4, window_size=4)


class TestRateFormulas:
    def test_hems_headline_value(self):
        assert uplink_rate_hems(12.0, 900.0, 16, 32) == pytest.approx(0.12, abs=1e-12)

    def test_hems_single_symbol_needs_no_bits(self):
        assert uplink_rate_hems(5.0, 900.0, 1, 1) == 0.0

    def test_hems_monotone_in_arguments(self):
        base = uplink_rate_hems(12.0, 900.0, 16, 32)
        assert uplink_rate_hems(13.0, 900.0, 16, 32) > base
        assert uplink_rate_hems(12.0, 900.0, 32, 32) > base
        assert uplink_rate_hems(12.0, 900.0, 16, 64) > base
        assert uplink_rate_hems(12.0, 600.0, 16, 32) > base

    def test_cems_headline_value(self):
        expected = 16.0 * math.log2(2.0 * math.pi * math.e * 12.0)
        got = uplink_rate_cems(12.0, 32)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(122.866458737319, abs=1e-9)

    def test_cems_zero_codes(self):
        assert uplink_rate_cems(12.0, 0) == 0.0

    def test_cems_monotone(self):
        assert uplink_rate_cems(12.0, 33) > uplink_rate_cems(12.0, 32)
        assert uplink_rate_cems(13.0, 32) > uplink_rate_cems(12.0, 32)


class TestFeedbackRateBound:
    def test_plug_in_value(self):
        params = FeedbackRateParams(np.array([0.0]), np.array([1.0]))
        assert feedback_rate_bound(params, 1.0) == pytest.approx(
            0.5 * math.log2(math.e), abs=1e-9
        )
        assert feedback_rate_bound(params, 1.0) == pytest.approx(0.7213, abs=5e-5)

    def test_two_identical_queues_double_the_rate(self):
        one = FeedbackRateParams(np.array([0.3]), np.array([2.0]))
        two = FeedbackRateParams(np.array([0.3, 0.3]), np.array([2.0, 2.0]))
        assert feedback_rate_bound(two, 900.0) == pytest.approx(
            2.0 * feedback_rate_bound(one, 900.0), abs=1e-12
        )

    def test_negative_terms_clamp_to_zero(self):
        params = FeedbackRateParams(np.array([0.999]), np.array([0.01]))
        assert feedback_rate_bound(params, 1.0) == 0.0

    def test_interval_scales_inversely(self):
        params = FeedbackRateParams(np.array([0.0]), np.array([4.0]))
        assert feedback_rate_bound(params, 900.0) == pytest.approx(
            feedback_rate_bound(params, 1.0) / 900.0, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FeedbackRateParams(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            FeedbackRateParams(np.array([0.5]), np.array([0.0]))


class TestCodebookDesign:
    def test_identical_requests_need_one_code(self):
        samples = [RawRequest((2.0, 3.0))] * 50
        quant = design_codebook_min_q(samples, max_distortion=0.5, peak_rate=10.0)
        assert quant.n_codes == 1
        assert mean_distortion(quant, samples) == pytest.approx(0.0, abs=1e-12)

    def test_two_clusters_need_two_codes(self):
        rng = np.random.default_rng(SEED + 2)
        samples = [RawRequest((1.0 + rng.normal(0, 0.01), 2.0)) for _ in range(40)]
        samples += [RawRequest((5.0 + rng.normal(0, 0.01), 2.0)) for _ in range(40)]
        single = fit_codebook(samples, 1)
        target = 10.0 * mean_distortion(single, samples) / 2.0
        quant = design_codebook_min_q(samples, max_distortion=target, peak_rate=10.0)
        assert quant.n_codes == 2
        assert 10.0 * mean_distortion(quant, samples) <= target

    def test_distortion_nonincreasing_in_q(self):
        rng = np.random.default_rng(SEED + 3)
        samples = [
            RawRequest((rng.uniform(0.5, 4.0), rng.uniform(0.5, 6.0))) for _ in range(120)
        ]
        prev = math.inf
        for n_codes in range(1, 9):
            quant = fit_codebook(samples, n_codes)
            d = mean_distortion(quant, samples)
            assert d <= prev + 1e-12
            prev = d

    def test_unattainable_target_raises(self):
        samples = [RawRequest((1.0, 2.0)), RawRequest((5.0, 2.0))]
        with pytest.raises(ConfigurationError):
            design_codebook_min_q(samples, max_distortion=1e-12, peak_rate=10.0, q_max=1)

    def test_min_distortion_hits_ceiling_with_loose_caps(self):
        rng = np.random.default_rng(SEED + 4)
        samples = [
            RawRequest((rng.uniform(0.5, 4.0), rng.uniform(0.5, 6.0))) for _ in range(100)
        ]
        quant = design_codebook_min_distortion(
            samples, hems_cap=1e9, cems_cap=1e9, peak_rate=12.0,
            interval_s=900.0, window=16, q_max=6,
        )
        assert quant.n_codes == 6

    def test_min_distortion_caps_force_single_mean_code(self):
        samples = [RawRequest((r, 2.0)) for r in (1.0, 2.0, 3.0, 6.0)]
        cap = uplink_rate_hems(12.0, 900.0, 16, 1)
        quant = design_codebook_min_distortion(
            samples, hems_cap=cap, cems_cap=1e9, peak_rate=12.0,
            interval_s=900.0, window=16,
        )
        assert quant.n_codes == 1
        code = quant.codebook[0]
        assert code.duration_epochs == 2
        assert code.pulse[0] == pytest.approx(3.0, abs=1e-12)

    def test_min_distortion_boundary(self):
        rng = np.random.default_rng(SEED + 5)
        samples = [
            RawRequest((rng.uniform(0.5, 4.0), rng.uniform(0.5, 6.0))) for _ in range(60)
        ]
        hems_cap = uplink_rate_hems(12.0, 900.0, 16, 5) + 1e-9
        quant = design_codebook_min_distortion(
            samples, hems_cap=hems_cap, cems_cap=1e9, peak_rate=12.0,
            interval_s=900.0, window=16,
        )
        assert uplink_rate_hems(12.0, 900.0, 16, quant.n_codes) <= hems_cap
        assert uplink_rate_hems(12.0, 900.0, 16, quant.n_codes + 1) > hems_cap

    def test_caps_below_any_codebook_raise(self):
        samples = [RawRequest((1.0, 2.0))]
        with pytest.raises(ConfigurationError):
            design_codebook_min_distortion(
                samples, hems_cap=1e-6, cems_cap=1e9, peak_rate=12.0,
                interval_s=900.0, window=16,
            )


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(SEED + 6)
        samples = [
            RawRequest((rng.uniform(0.5, 4.0), rng.uniform(0.5, 6.0))) for _ in range(50)
        ]
        quant = fit_codebook(samples, 4)
        path = tmp_path / "codebook.json"
        codebook_to_json(quant, path)
        loaded = codebook_from_json(path)
        assert loaded.n_codes == quant.n_codes
        for a, b in zip(loaded.codebook, quant.codebook):
            assert a.id == b.id
            np.testing.assert_allclose(a.pulse, b.pulse, atol=1e-12)

    def test_file_shape(self, tmp_path):
        quant = Quantizer((ChargeCode(1, square_pulse(2.0, 3)),))
        path = tmp_path / "codebook.json"
        codebook_to_json(quant, path)
        entries = json.loads(path.read_text())
        assert entries == [{"duration_epochs": 3, "id": 1, "rate_kw": 2.0}]

    def test_non_square_pulse_rejected(self, tmp_path):
        quant = Quantizer((ChargeCode(1, (2.0, 1.0)),))
        with pytest.raises(ConfigurationError):
            codebook_to_json(quant, tmp_path / "bad.json")

    @pytest.mark.parametrize("entries, match", [
        ([{"id": 1, "rate_kw": 2.0, "duration_epochs": 1.7}], "duration_epochs"),
        ([{"id": 1, "rate_kw": 2.0, "duration_epochs": 3, "pulse": [5.0]}], "unknown keys"),
        ([{"id": 1, "rate_kw": "2", "duration_epochs": 3}], "rate_kw"),
        ([{"id": 1, "rate_kw": 2.0}], "lacks"),
        ([[1, 2.0, 3]], "must be an object"),
        ([{"id": 2, "rate_kw": 1.0, "duration_epochs": 1},
          {"id": 1, "rate_kw": 2.0, "duration_epochs": 2}], "ids must run 1..Q"),
    ], ids=["fractional-duration", "unknown-key", "string-rate", "missing-key", "not-an-object",
            "ids-out-of-order"])
    def test_bad_entries_rejected(self, entries, match, tmp_path):
        path = tmp_path / "codebook.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(ConfigurationError, match=match):
            codebook_from_json(path)
