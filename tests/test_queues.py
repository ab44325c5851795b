import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddls.errors import ConfigurationError, FeasibilityError
from ddls.queues import DelayPrices, QueueLedger, dci

SEED = 8162026


def random_ledger(rng, n_queues=None, n_epochs=None):
    """Random feasible arrival/departure history, fully drained at the end."""
    n_queues = n_queues or int(rng.integers(1, 5))
    n_epochs = n_epochs or int(rng.integers(4, 25))
    ledger = QueueLedger(n_queues)
    for l in range(n_epochs):
        arr = rng.integers(0, 4, size=n_queues)
        ledger.record_arrivals(l, arr)
        backlog = ledger.backlog(l)
        dep = np.array([rng.integers(0, b + 1) for b in backlog])
        ledger.apply_departures(l, dep)
    drain = ledger.backlog(n_epochs - 1)
    ledger.apply_departures(n_epochs, drain)
    return ledger, n_epochs


def fifo_delay_oracle(ledger):
    """Per-appliance delays via an explicit FIFO simulation over the
    recorded increments, independent of the ledger's own accounting."""
    last = ledger.current_epoch
    arr = ledger.arrival_increments(0, last + 1)
    dep = ledger.departure_increments(0, last + 1)
    delays = {q: [] for q in range(ledger.n_queues)}
    for q in range(ledger.n_queues):
        waiting = []
        for l in range(last + 1):
            waiting.extend([l] * int(arr[q, l]))
            for _ in range(int(dep[q, l])):
                delays[q].append(l - waiting.pop(0))
    return delays


class TestLedger:
    def test_counts_accumulate(self):
        ledger = QueueLedger(2)
        ledger.record_arrivals(0, [2, 0])
        ledger.record_arrivals(1, [1, 3])
        np.testing.assert_array_equal(ledger.cumulative_arrivals(0), [2, 0])
        np.testing.assert_array_equal(ledger.cumulative_arrivals(1), [3, 3])
        np.testing.assert_array_equal(ledger.cumulative_arrivals(9), [3, 3])
        np.testing.assert_array_equal(ledger.cumulative_arrivals(-1), [0, 0])

    def test_backlog_and_departures(self):
        ledger = QueueLedger(1)
        ledger.record_arrivals(0, [3])
        ledger.apply_departures(1, [2])
        assert ledger.backlog(0).tolist() == [3]
        assert ledger.backlog(1).tolist() == [1]

    def test_same_epoch_departure_can_serve_same_epoch_arrival(self):
        ledger = QueueLedger(1)
        ledger.record_arrivals(2, [1])
        ledger.apply_departures(2, [1])
        assert ledger.backlog(2).tolist() == [0]

    def test_departure_beyond_backlog_rejected_and_ledger_unchanged(self):
        ledger = QueueLedger(2)
        ledger.record_arrivals(0, [1, 1])
        with pytest.raises(FeasibilityError):
            ledger.apply_departures(0, [2, 0])
        np.testing.assert_array_equal(ledger.cumulative_departures(5), [0, 0])

    def test_out_of_order_recording_rejected(self):
        ledger = QueueLedger(1)
        ledger.record_arrivals(3, [1])
        with pytest.raises(ConfigurationError):
            ledger.record_arrivals(2, [1])
        ledger.apply_departures(3, [1])
        with pytest.raises(ConfigurationError):
            ledger.apply_departures(1, [0])

    def test_non_integer_counts_rejected(self):
        ledger = QueueLedger(1)
        with pytest.raises(ConfigurationError):
            ledger.record_arrivals(0, [0.5])

    def test_arrival_log_order(self):
        ledger = QueueLedger(2)
        ledger.record_arrivals(0, [1, 2])
        ledger.record_arrivals(2, [1, 0])
        assert ledger.arrival_log == [(0, 0), (0, 1), (0, 1), (2, 0)]

    def test_fifo_delays_match_oracle(self):
        rng = np.random.default_rng(SEED)
        for _ in range(30):
            ledger, _ = random_ledger(rng)
            oracle = fifo_delay_oracle(ledger)
            got = {q: [] for q in range(ledger.n_queues)}
            for q, _arr, delay in ledger.fifo_delays():
                got[q].append(delay)
            assert got == oracle

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fifo_delay_sum_matches_fifo_delays(self, data):
        # partial departures: appliances may still be waiting at the end
        n_queues = data.draw(st.integers(1, 3))
        ledger = QueueLedger(n_queues)
        for l in range(data.draw(st.integers(0, 8))):
            ledger.record_arrivals(l, data.draw(st.lists(
                st.integers(0, 3), min_size=n_queues, max_size=n_queues)))
            ledger.apply_departures(l, [data.draw(st.integers(0, int(b)))
                                        for b in ledger.backlog(l)])
        delays = [delay for _, _, delay in ledger.fifo_delays()]
        assert ledger.fifo_delay_sum() == (sum(delays), len(delays))


class TestDelayPrices:
    def test_stationary(self):
        prices = DelayPrices(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(prices.at(7), [1.0, 2.0])

    def test_time_table_overrides_then_falls_back(self):
        prices = DelayPrices(np.array([1.0]), time_table=np.array([[5.0], [6.0]]))
        assert prices.at(0).tolist() == [5.0]
        assert prices.at(1).tolist() == [6.0]
        assert prices.at(2).tolist() == [1.0]

    def test_negative_prices_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayPrices(np.array([-1.0]))


class TestDci:
    def test_hand_case_counts_waiting_epochs(self):
        # one appliance arrives at 0, departs at 2: waits through epochs 0 and 1
        ledger = QueueLedger(1)
        ledger.record_arrivals(0, [1])
        ledger.apply_departures(2, [1])
        prices = DelayPrices(np.array([1.0]))
        assert dci(ledger, 0, 2, prices) == 2.0

    def test_window_is_inclusive(self):
        ledger = QueueLedger(1)
        ledger.record_arrivals(0, [1])
        prices = DelayPrices(np.array([3.0]))
        # backlog 1 at epochs 0..4, price 3 each
        assert dci(ledger, 0, 4, prices) == 15.0
        assert dci(ledger, 2, 0, prices) == 3.0

    def test_equals_priced_fifo_delay_sum_on_drained_ledgers(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(30):
            ledger, n_epochs = random_ledger(rng)
            prices = DelayPrices(rng.uniform(0.1, 2.0, size=ledger.n_queues))
            oracle = fifo_delay_oracle(ledger)
            total = sum(
                prices.per_queue[q] * delay
                for q, ds in oracle.items()
                for delay in ds
            )
            got = dci(ledger, 0, ledger.current_epoch, prices)
            assert got == pytest.approx(total, abs=1e-9)

    def test_time_varying_prices(self):
        ledger = QueueLedger(1)
        ledger.record_arrivals(0, [1])
        ledger.apply_departures(2, [1])
        prices = DelayPrices(np.array([1.0]), time_table=np.array([[10.0], [1.0]]))
        assert dci(ledger, 0, 2, prices) == 11.0

    def test_queue_count_mismatch_rejected(self):
        ledger = QueueLedger(2)
        with pytest.raises(ConfigurationError):
            dci(ledger, 0, 1, DelayPrices(np.array([1.0])))
