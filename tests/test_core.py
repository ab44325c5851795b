import numpy as np
import pytest

from ddls.core import (
    ArrivalEvent,
    ChargeCode,
    RawRequest,
    fractional_pulse,
    square_pulse,
    synthesize_load,
    unscheduled_load,
)
from ddls.errors import ConfigurationError

N_RANDOM = 40
SEED = 20260816


def per_appliance_load(starts, codebook, horizon, start_lag=0):
    """Reference synthesis: one explicit pulse per appliance start."""
    out = np.zeros(horizon)
    for epoch, code_idx in starts:
        for j, g in enumerate(codebook[code_idx].pulse):
            l = epoch + start_lag + j
            if l < horizon:
                out[l] += g
    return out


def random_instance(rng):
    n_queues = rng.integers(1, 5)
    codebook = [
        ChargeCode(q + 1, tuple(rng.uniform(0.5, 3.0, size=rng.integers(1, 5))))
        for q in range(n_queues)
    ]
    n_epochs = int(rng.integers(3, 20))
    inc = rng.integers(0, 3, size=(n_queues, n_epochs))
    return codebook, inc


class TestTypes:
    def test_request_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            RawRequest((-1.0, 2.0))

    def test_code_duration_and_rate(self):
        code = ChargeCode(1, (2.0, 2.0, 1.0))
        assert code.duration_epochs == 3
        assert code.rate_kw == 2.0
        assert code.energy == 5.0

    def test_code_rejects_bad_pulse(self):
        with pytest.raises(ValueError):
            ChargeCode(1, ())
        with pytest.raises(ValueError):
            ChargeCode(0, (1.0,))


class TestPulses:
    def test_square_pulse(self):
        assert square_pulse(3.3, 2) == (3.3, 3.3)

    def test_fractional_pulse_scales_last_sample(self):
        pulse = fractional_pulse(2.0, 2.5)
        assert pulse == (2.0, 2.0, 1.0)
        assert abs(sum(pulse) - 2.0 * 2.5) < 1e-12

    def test_fractional_pulse_integer_duration(self):
        assert fractional_pulse(2.0, 3.0) == (2.0, 2.0, 2.0)


class TestSynthesizeLoad:
    def test_single_queue_hand_case(self):
        codebook = [ChargeCode(1, (2.0, 2.0))]
        load = synthesize_load([[0, 1, 1, 0]], codebook, horizon=4)
        np.testing.assert_allclose(load, [0.0, 2.0, 4.0, 2.0])

    def test_start_lag_shifts_by_one(self):
        codebook = [ChargeCode(1, (2.0, 2.0))]
        load = synthesize_load([[0, 1, 1, 0]], codebook, horizon=5, start_lag=1)
        np.testing.assert_allclose(load, [0.0, 0.0, 2.0, 4.0, 2.0])

    def test_matches_per_appliance_oracle(self):
        rng = np.random.default_rng(SEED)
        for _ in range(N_RANDOM):
            codebook, inc = random_instance(rng)
            horizon = inc.shape[1] + max(c.duration_epochs for c in codebook) + 1
            lag = int(rng.integers(0, 2))
            starts = [
                (l, q)
                for q in range(len(codebook))
                for l in range(inc.shape[1])
                for _ in range(inc[q, l])
            ]
            oracle = per_appliance_load(starts, codebook, horizon, start_lag=lag)
            load = synthesize_load(inc, codebook, horizon, start_lag=lag)
            np.testing.assert_allclose(load, oracle, atol=1e-9)

    def test_energy_conservation(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(N_RANDOM):
            codebook, inc = random_instance(rng)
            horizon = inc.shape[1] + max(c.duration_epochs for c in codebook) + 1
            load = synthesize_load(inc, codebook, horizon)
            expected = sum(
                inc[q].sum() * codebook[q].energy for q in range(len(codebook))
            )
            assert abs(load.sum() - expected) < 1e-9

    def test_truncates_past_horizon(self):
        codebook = [ChargeCode(1, (1.0, 1.0, 1.0))]
        load = synthesize_load([[0, 0, 1]], codebook, horizon=4)
        np.testing.assert_allclose(load, [0.0, 0.0, 1.0, 1.0])

    def test_rejects_queue_mismatch(self):
        codebook = [ChargeCode(1, (1.0,))]
        with pytest.raises(ConfigurationError):
            synthesize_load(np.zeros((2, 4)), codebook, horizon=4)

    def test_rejects_negative_increments(self):
        codebook = [ChargeCode(1, (1.0,))]
        with pytest.raises(ConfigurationError):
            synthesize_load([[0, -1]], codebook, horizon=2)


class _ExactMatchQuantizer:
    def __init__(self, codebook):
        self.codebook = codebook

    def quantize(self, request):
        for code in self.codebook:
            if (
                abs(code.rate_kw - request.rate_kw) < 1e-12
                and code.duration_epochs == request.duration_epochs
            ):
                return code.id
        raise AssertionError("request does not match any code")


class TestUnscheduledLoad:
    def test_everything_starts_on_arrival(self):
        codebook = [ChargeCode(1, (2.0, 2.0)), ChargeCode(2, (1.0,))]
        quant = _ExactMatchQuantizer(codebook)
        arrivals = [
            ArrivalEvent(0, RawRequest((2.0, 2.0))),
            ArrivalEvent(1, RawRequest((1.0, 1.0))),
            ArrivalEvent(1, RawRequest((2.0, 2.0))),
        ]
        load = unscheduled_load(arrivals, codebook, quant)
        np.testing.assert_allclose(load, [2.0, 2.0 + 1.0 + 2.0, 2.0])

    def test_empty_arrivals(self):
        codebook = [ChargeCode(1, (1.0,))]
        load = unscheduled_load([], codebook, _ExactMatchQuantizer(codebook))
        assert len(load) == 0
