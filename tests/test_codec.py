import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddls import codec
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
from ddls.core import ArrivalEvent, ChargeCode, RawRequest, square_pulse
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


def oracle_distortion(request, code):
    """Squared error of a request's pulse to a code's, zero-padded, written
    independently of the package's distortion matrix."""
    rp = oracle_pulse(request.rate_kw, request.duration_epochs)
    err = 0.0
    for k in range(max(len(rp), len(code.pulse))):
        a = rp[k] if k < len(rp) else 0.0
        b = code.pulse[k] if k < len(code.pulse) else 0.0
        err += (a - b) ** 2
    return err


def oracle_nearest(request, codebook):
    """Exhaustive nearest-neighbor search; ties go to the lowest id."""
    best_id, best = None, float("inf")
    for code in codebook:
        err = oracle_distortion(request, code)
        if err < best:
            best_id, best = code.id, err
    return best_id


_RATE = st.floats(0.0, 4.0)
_REQUEST = st.builds(lambda rate, duration: RawRequest((rate, duration)),
                     _RATE, st.floats(0.0, 6.0, exclude_min=True))
_PULSE = st.one_of(st.lists(_RATE, min_size=1, max_size=7),
                   st.builds(square_pulse, _RATE, st.integers(1, 7)))


@st.composite
def _codebooks(draw):
    """1..6 pulses, square or not, plus up to 3 repeats of them, in any order."""
    pulses = draw(st.lists(_PULSE, min_size=1, max_size=6))
    pulses += draw(st.lists(st.sampled_from(pulses), max_size=3))
    pulses = draw(st.permutations(pulses))
    return Quantizer(tuple(ChargeCode(i + 1, tuple(p)) for i, p in enumerate(pulses)))


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

    @settings(max_examples=150, deadline=None)
    @given(requests=st.lists(_REQUEST, min_size=1, max_size=12), quant=_codebooks())
    def test_matrix_readers_agree_with_the_oracle(self, requests, quant):
        oracle = np.array([[oracle_distortion(req, code) for code in quant.codebook]
                           for req in requests])
        ids = [quantize(req, quant) for req in requests]
        for row, code_id in zip(oracle, ids):
            assert row[code_id - 1] <= row.min() + 1e-9
            chosen = quant.codebook[code_id - 1].pulse
            assert code_id == min(c.id for c in quant.codebook if c.pulse == chosen)
        assert mean_distortion(quant, requests) == pytest.approx(oracle.min(axis=1).mean(),
                                                                 abs=1e-12)
        # the oracle's cell is unambiguous when every other distinct pulse is
        # more than 1e-9 farther; on such requests the masses must agree exactly
        pulses = [code.pulse for code in quant.codebook]
        decided = [req for req, row in zip(requests, oracle)
                   if all(d > row.min() + 1e-9 for d, p in zip(row, pulses)
                          if p != pulses[int(row.argmin())])]
        if decided:
            counts = np.bincount([oracle_nearest(req, quant.codebook) - 1 for req in decided],
                                 minlength=quant.n_codes)
            np.testing.assert_allclose(cell_masses(quant, decided), counts / len(decided),
                                       rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rate=st.integers(0, 16), gap=st.integers(1, 16), duration=st.integers(1, 6),
           lower_first=st.booleans())
    def test_exact_ties_go_to_the_lowest_id(self, rate, gap, duration, lower_first):
        # quarter-kW rates keep every term exact, so the two codes tie exactly
        rate, gap = (rate + gap) / 4, gap / 4
        codes = [square_pulse(rate - gap, duration), square_pulse(rate + gap, duration)]
        if not lower_first:
            codes.reverse()
        quant = Quantizer(tuple(ChargeCode(i + 1, p) for i, p in enumerate(codes)))
        assert quantize(RawRequest((rate, float(duration))), quant) == 1

    def test_fractional_duration_scales_the_last_sample(self):
        quant = Quantizer((ChargeCode(1, (2.0, 2.0, 1.0)), ChargeCode(2, (2.0, 2.0, 2.0))))
        assert mean_distortion(quant, [RawRequest((2.0, 2.5))]) == 0.0
        assert quantize(RawRequest((2.0, 2.5)), quant) == 1
        assert quantize(RawRequest((2.0, 3.0)), quant) == 2

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


_ONE_CODE = Quantizer((ChargeCode(1, square_pulse(2.0, 3)),))


@pytest.mark.parametrize("call, name", [
    (lambda: uplink_rate_hems(math.nan, 900.0, 16, 8), "arrivals_per_interval"),
    (lambda: uplink_rate_hems(1.0, math.nan, 16, 8), "interval_s"),
    (lambda: uplink_rate_cems(math.nan, 8), "arrivals_per_interval"),
    (lambda: uplink_rate_cems(math.inf, 8), "arrivals_per_interval"),
    (lambda: feedback_rate_bound(FeedbackRateParams([0.5], [1.0]), math.nan), "interval_s"),
    (lambda: FeedbackRateParams([math.nan], [1.0]), "min_correlation"),
    (lambda: FeedbackRateParams([0.5], [math.inf]), "delay_variance"),
    (lambda: queue_arrival_rates(math.nan, _ONE_CODE, masses=[1.0]), "total_rate"),
    (lambda: queue_arrival_rates([1.0, math.inf], _ONE_CODE, masses=[1.0]), "total_rate"),
    (lambda: queue_arrival_rates(1.0, _ONE_CODE, masses=[math.inf]), "masses"),
], ids=["hems-rate", "hems-interval", "cems-nan", "cems-inf", "feedback-interval",
        "nan-correlation", "inf-variance", "nan-total", "inf-total-vector", "inf-mass"])
def test_non_finite_rate_inputs_are_refused_by_name(call, name):
    with pytest.raises(ConfigurationError, match=name):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: quantize(RawRequest((2.0, 0.0)), _ONE_CODE), "duration_epochs"),
    (lambda: fit_codebook([RawRequest((2.0, 3.0)), RawRequest((2.0, 0.0))], 2),
     "duration_epochs"),
    (lambda: cell_masses(_ONE_CODE, [RawRequest((2.0, 0.0))]), "duration_epochs"),
    (lambda: mean_distortion(_ONE_CODE, [RawRequest((2.0, 0.0))]), "duration_epochs"),
    (lambda: quantize(RawRequest((2.0, 3.0, 1.0)), _ONE_CODE), "rate_kw, duration_epochs"),
    (lambda: cell_masses(_ONE_CODE, []), "request sample"),
    (lambda: ChargeCode(0, (1.0,)), "code id"),
    (lambda: square_pulse(1.0, 1.5), "duration_epochs"),
    (lambda: square_pulse(1.0, 0), "duration_epochs"),
    (lambda: ArrivalEvent(-1, RawRequest((2.0, 3.0))), "arrival_epoch"),
], ids=["quantize-zero-duration", "fit-zero-duration", "masses-zero-duration",
        "distortion-zero-duration", "three-params", "no-samples", "code-id-zero",
        "fractional-square-pulse", "zero-square-pulse", "negative-arrival-epoch"])
def test_bad_requests_and_codes_are_refused_by_name(call, name):
    with pytest.raises(ConfigurationError, match=name):
        call()


def design_by_refitting(samples, max_distortion, peak_rate, q_max):
    """``design_codebook_min_q`` as first written: a fresh fit for every Q,
    stopping at the target or when growth stops early; None if unattained."""
    for n_codes in range(1, q_max + 1):
        quant = fit_codebook(samples, n_codes)
        if peak_rate * mean_distortion(quant, samples) <= max_distortion:
            return quant
        if quant.n_codes < n_codes:
            break
    return None


class TestCodebookDesign:
    @pytest.mark.parametrize("seed", range(6))
    def test_min_q_matches_a_fresh_fit_per_q(self, seed, monkeypatch):
        rng = np.random.default_rng(SEED + 10 + seed)
        if seed % 2:  # few distinct requests: growth stops early
            samples = [RawRequest((float(rng.integers(1, 4)), float(rng.integers(1, 3))))
                       for _ in range(30)]
        else:
            samples = [RawRequest((rng.uniform(0.5, 4.0), rng.uniform(0.5, 6.0)))
                       for _ in range(80)]
        scale = mean_distortion(fit_codebook(samples, 1), samples)
        growths = []
        grown = codec._grown_codebooks
        monkeypatch.setattr(codec, "_grown_codebooks",
                            lambda *args: growths.append(args) or grown(*args))
        for q_max in (1, 3, 10):
            for target in (scale * 1.01, scale / 3, scale / 20, scale * 1e-9, 1e-15):
                expected = design_by_refitting(samples, target, 1.0, q_max)
                growths.clear()
                if expected is None:
                    with pytest.raises(ConfigurationError, match="unattainable"):
                        design_codebook_min_q(samples, target, 1.0, q_max=q_max)
                else:
                    got = design_codebook_min_q(samples, target, 1.0, q_max=q_max)
                    assert got.codebook == expected.codebook
                assert len(growths) == 1


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
