import itertools

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

    @pytest.mark.parametrize("arrivals, departures, error, text", [
        ([[2, -1]], [[0, 0]], ConfigurationError, "counts"),          # arrivals fall
        ([[0, 1]], [[0, 2]], FeasibilityError, "queue 1 length 1 at epoch 1$"),
        ([[0, 1]], [[0, 1, 1]], FeasibilityError,                     # ahead of the arrivals
         "queue 1 length 0 at epoch 2$"),                              # carried past their end
        ([[0, 1]], [[0], [0]], ConfigurationError, "counts shape"),   # other queues
        ([[0, 1]], [[[0, 0]]], ConfigurationError, "counts shape"),   # three axes
        ([[0, 1]], [[0.5, 0]], ConfigurationError, "counts"),         # a fraction
    ], ids=["arrivals-fall", "departures-ahead", "ahead-of-carried-arrivals", "other-queues",
            "three-axes", "fraction"])
    def test_blocks_that_no_ledger_records_are_refused(self, arrivals, departures, error,
                                                       text):
        ledger = QueueLedger(1)
        with pytest.raises(error, match=text):
            ledger.record_arrivals(0, arrivals)
            ledger.apply_departures(0, departures)

    def test_arrival_log_order(self):
        ledger = QueueLedger(2)
        ledger.record_arrivals(0, [1, 2])
        ledger.record_arrivals(2, [1, 0])
        assert ledger.arrival_log.tolist() == [[0, 0], [0, 1], [0, 1], [2, 0]]

    def test_fifo_delays_match_oracle(self):
        rng = np.random.default_rng(SEED)
        for _ in range(30):
            ledger, _ = random_ledger(rng)
            oracle = fifo_delay_oracle(ledger)
            got = {q: [] for q in range(ledger.n_queues)}
            for q, _arr, delay in ledger.fifo_delays():
                got[q].append(delay)
            assert got == oracle

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_running_cumulatives_match_resumming_the_counts(self, data):
        # arrivals and departures on their own clocks: epochs may repeat
        # or skip, and either side may run ahead of the other
        n_queues = data.draw(st.integers(1, 3))
        ledger = QueueLedger(n_queues)
        clocks = {"arrivals": 0, "departures": 0}
        last = {"arrivals": -1, "departures": -1}
        # the reference: the counts fed in, per epoch, re-summed on demand
        fed = {kind: np.zeros((n_queues, 50), dtype=np.int64) for kind in clocks}
        for _ in range(data.draw(st.integers(0, 14))):
            kind = data.draw(st.sampled_from(sorted(clocks)))
            clocks[kind] += data.draw(st.integers(0, 3))
            epoch = last[kind] = clocks[kind]
            if kind == "arrivals":
                counts = data.draw(st.lists(st.integers(0, 3), min_size=n_queues,
                                            max_size=n_queues))
                ledger.record_arrivals(epoch, counts)
            else:
                counts = [data.draw(st.integers(0, int(b))) for b in ledger.backlog(epoch)]
                ledger.apply_departures(epoch, counts)
            fed[kind][:, epoch] += counts
        # the same tables recorded whole, one block call each, make the same ledger
        copy = QueueLedger(n_queues)
        copy.record_arrivals(0, fed["arrivals"][:, : last["arrivals"] + 1])
        copy.apply_departures(0, fed["departures"][:, : last["departures"] + 1])
        assert copy.current_epoch == ledger.current_epoch
        assert copy.arrival_log.tolist() == ledger.arrival_log.tolist()
        for ledger, epoch in itertools.product((ledger, copy), range(-2, max(clocks.values()) + 4)):
            arrived = fed["arrivals"][:, : max(epoch + 1, 0)].sum(axis=1)
            departed = fed["departures"][:, : max(epoch + 1, 0)].sum(axis=1)
            np.testing.assert_array_equal(ledger.cumulative_arrivals(epoch), arrived)
            np.testing.assert_array_equal(ledger.cumulative_departures(epoch), departed)
            np.testing.assert_array_equal(ledger.backlog(epoch), arrived - departed)
            if epoch >= 0:
                np.testing.assert_array_equal(
                    ledger.arrival_history(epoch),
                    np.cumsum(fed["arrivals"][:, : epoch + 1], axis=1))
                for start in range(epoch + 2):
                    np.testing.assert_array_equal(ledger.arrival_increments(start, epoch + 1),
                                                  fed["arrivals"][:, start : epoch + 1])
                    np.testing.assert_array_equal(ledger.departure_increments(start, epoch + 1),
                                                  fed["departures"][:, start : epoch + 1])


def _feasible_departures(data, arrivals):
    """A drawn (Q, L) departure table that never passes ``arrivals``."""
    departures = np.zeros_like(arrivals)
    waiting = np.zeros(len(arrivals), dtype=np.int64)
    for l in range(arrivals.shape[1]):
        waiting += arrivals[:, l]
        departures[:, l] = [data.draw(st.integers(0, int(w))) for w in waiting]
        waiting -= departures[:, l]
    return departures


def _state(ledger):
    return (ledger._cum_arr.copy(), ledger._cum_dep.copy(), ledger._last_arrival_epoch,
            ledger._last_departure_epoch)


class TestBlocks:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_block_records_what_its_epochs_record_one_by_one_or_split(self, data):
        """Feasible (Q, L) tables from epoch ``first``, with ``gap`` empty
        epochs after the first ``split``: one block each, every epoch on its
        own, and the two parts either side of the gap, the gap skipped, make
        the same ledger."""
        n_queues, first = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
        split, gap, rest = (data.draw(st.integers(low, 5)) for low in (1, 0, 1))
        width = split + gap + rest
        arrivals = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=width, max_size=width),
            min_size=n_queues, max_size=n_queues)), dtype=np.int64).reshape(n_queues, width)
        arrivals[:, split : split + gap] = 0
        departures = _feasible_departures(data, arrivals)
        departures[:, split : split + gap] = 0  # fewer departures stay feasible
        block, one_by_one, parts = (QueueLedger(n_queues) for _ in range(3))
        block.record_arrivals(first, arrivals)
        block.apply_departures(first, departures)
        for l in range(width):
            one_by_one.record_arrivals(first + l, arrivals[:, l])
            one_by_one.apply_departures(first + l, departures[:, l])
        for start, stop in ((0, split), (split + gap, width)):
            parts.record_arrivals(first + start, arrivals[:, start:stop])
        for start, stop in ((0, split), (split + gap, width)):
            parts.apply_departures(first + start, departures[:, start:stop])
        last = first + width - 1
        prices = DelayPrices(np.arange(1.0, n_queues + 1))
        for ledger in (one_by_one, parts):
            assert ledger._last_arrival_epoch == block._last_arrival_epoch == last
            assert ledger._last_departure_epoch == block._last_departure_epoch == last
            np.testing.assert_array_equal(ledger.arrival_history(last + 2),
                                          block.arrival_history(last + 2))
            for epoch in range(-1, last + 3):
                np.testing.assert_array_equal(ledger.cumulative_departures(epoch),
                                              block.cumulative_departures(epoch))
                np.testing.assert_array_equal(ledger.backlog(epoch), block.backlog(epoch))
            np.testing.assert_array_equal(ledger.arrival_log, block.arrival_log)
            assert ledger.fifo_delays() == block.fifo_delays()
            assert dci(ledger, 0, last + 1, prices) == dci(block, 0, last + 1, prices)
        np.testing.assert_array_equal(block.arrival_increments(first, last + 1), arrivals)
        np.testing.assert_array_equal(block.departure_increments(first, last + 1), departures)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_departure_block_that_passes_the_arrivals_names_its_first_cell(self, data):
        """Departures raised past the arrivals at one (queue, epoch) of a
        block: the call names that cell and leaves the ledger as it was."""
        n_queues, first = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
        width = data.draw(st.integers(2, 6))
        arrivals = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=width, max_size=width),
            min_size=n_queues, max_size=n_queues)), dtype=np.int64).reshape(n_queues, width)
        departures = _feasible_departures(data, arrivals)
        ledger = QueueLedger(n_queues)
        ledger.record_arrivals(first, arrivals)
        done = data.draw(st.integers(0, width - 2))  # epochs recorded before the bad block
        ledger.apply_departures(first, departures[:, :done])
        q, j = data.draw(st.integers(0, n_queues - 1)), data.draw(st.integers(done, width - 1))
        waiting = arrivals[q, : j + 1].sum() - departures[q, :j].sum()
        departures[q, j] = waiting + data.draw(st.integers(1, 3))
        before = _state(ledger)
        with pytest.raises(FeasibilityError, match=rf"count {departures[q, j]} exceeds queue "
                                                   rf"{q + 1} length {waiting} at epoch "
                                                   rf"{first + j}$"):
            ledger.apply_departures(first + done, departures[:, done:])
        after = _state(ledger)
        for was, now in zip(before[:2], after[:2]):
            assert was.shape == now.shape and np.array_equal(was, now)
        assert before[2:] == after[2:]


class TestDelayPrices:
    def test_stationary(self):
        prices = DelayPrices(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(prices.per_queue, [1.0, 2.0])

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

    def test_is_the_per_epoch_backlog_sum_bit_for_bit(self):
        """The reference: one ``backlog`` an epoch, its priced sum added in
        epoch order; windows start before epoch 0 and run past the last
        recorded epoch of either table, and counts reach the thousands."""
        rng = np.random.default_rng(SEED + 2)
        for _ in range(40):
            ledger, n_epochs = random_ledger(rng)
            ledger.record_arrivals(n_epochs + 2, rng.integers(0, 3000, size=ledger.n_queues))
            prices = DelayPrices(rng.uniform(0.0, 0.3, size=ledger.n_queues)
                                 * 10.0 ** rng.uniform(-3, 3))
            start, horizon = int(rng.integers(-4, n_epochs + 4)), int(rng.integers(0, 40))
            expected = 0.0
            for l in range(start, start + horizon + 1):
                expected += float(prices.per_queue @ ledger.backlog(l))
            assert dci(ledger, start, horizon, prices) == expected

    def test_queue_count_mismatch_rejected(self):
        ledger = QueueLedger(2)
        with pytest.raises(ConfigurationError):
            dci(ledger, 0, 1, DelayPrices(np.array([1.0])))
