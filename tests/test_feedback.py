"""Threshold encoding and loss-free admission reconstruction."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddls import feedback, simkit
from ddls.core import ChargeCode
from ddls.csvio import render_columns
from ddls.errors import ConfigurationError
from ddls.feedback import (
    ThresholdMessage,
    decode_and_admit,
    encode_thresholds,
    message_log_to_csv,
    threshold_messages,
)
from ddls.queues import QueueLedger
from ddls.scheduler import RecedingHorizonScheduler

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_day.json"


def ledger_from_increments(increments) -> QueueLedger:
    increments = np.asarray(increments)
    ledger = QueueLedger(increments.shape[0])
    for l in range(increments.shape[1]):
        ledger.record_arrivals(l, increments[:, l])
    return ledger


def admitted_per_queue(arrival_log, admitted, n_queues):
    counts = np.zeros(n_queues, dtype=np.int64)
    for idx in admitted:
        counts[arrival_log[idx][1]] += 1
    return counts


def decode_and_admit_loop(arrival_log, message, already_admitted=frozenset()):
    """The reference decoder: one pass over the log in Python."""
    new = set()
    batch_rank = [0] * message.n_queues
    for idx, (epoch, q) in enumerate(arrival_log):
        if not 0 <= q < message.n_queues:
            raise ConfigurationError(f"arrival log names unknown queue index {q}")
        cut = message.cutoffs[q]
        batch_epoch = 0 if cut is None else cut + 1
        if cut is not None and epoch <= cut:
            new.add(idx)
        elif epoch == batch_epoch:
            if batch_rank[q] < message.spill[q]:
                new.add(idx)
            batch_rank[q] += 1
    return new - set(already_admitted)


def encode_thresholds_loop(ledger, targets, epoch):
    """The reference encoder: the cutoff and spill of each queue in turn,
    from a copy of its arrival history."""
    cum = np.cumsum(ledger.arrival_increments(0, epoch + 1), axis=1)
    cutoffs, spill = [], []
    for q, d in enumerate(targets):
        admitted_epochs = np.nonzero(cum[q] <= d)[0]
        if admitted_epochs.size == 0:
            cutoffs.append(None)
            spill.append(int(d))
        else:
            cut = int(admitted_epochs[-1])
            cutoffs.append(cut)
            spill.append(int(d) - int(cum[q, cut]))
    return ThresholdMessage(epoch=epoch, cutoffs=cutoffs, spill=spill)


class TestEncode:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_loop_encoder(self, data):
        # the message epoch may lie past the last recorded arrivals
        n_queues = data.draw(st.integers(1, 3))
        recorded = data.draw(st.integers(1, 6))
        increments = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=recorded, max_size=recorded),
            min_size=n_queues, max_size=n_queues)))
        ledger = ledger_from_increments(increments)
        epoch = data.draw(st.integers(0, recorded + 2))
        arrived = ledger.cumulative_arrivals(epoch)
        targets = np.array([data.draw(st.integers(0, int(a))) for a in arrived])
        got = encode_thresholds(ledger, targets, epoch)
        assert got == encode_thresholds_loop(ledger, targets, epoch)
        assert all(c is None or type(c) is int for c in got.cutoffs)

    def test_interior_target_picks_last_covered_epoch(self):
        ledger = ledger_from_increments([[1, 1, 1]])  # a = [1, 2, 3]
        msg = encode_thresholds(ledger, np.array([2]), 2)
        assert msg.cutoffs == (1,)
        assert msg.spill == (0,)

    def test_full_service_cutoff_is_current_epoch(self):
        ledger = ledger_from_increments([[2, 0, 3]])
        msg = encode_thresholds(ledger, np.array([5]), 2)
        assert msg.cutoffs == (2,)
        assert msg.spill == (0,)

    def test_zero_target_with_pending_arrival_admits_nobody(self):
        ledger = ledger_from_increments([[1]])
        msg = encode_thresholds(ledger, np.array([0]), 0)
        assert msg.cutoffs == (None,)
        assert msg.spill == (0,)

    def test_target_inside_a_batch_spills(self):
        ledger = ledger_from_increments([[2, 3]])  # a = [2, 5]
        msg = encode_thresholds(ledger, np.array([3]), 1)
        assert msg.cutoffs == (0,)
        assert msg.spill == (1,)

    def test_target_inside_the_first_batch(self):
        ledger = ledger_from_increments([[2]])
        msg = encode_thresholds(ledger, np.array([1]), 0)
        assert msg.cutoffs == (None,)
        assert msg.spill == (1,)

    def test_spill_is_always_smaller_than_its_batch(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            inc = rng.integers(0, 4, size=(2, 5))
            ledger = ledger_from_increments(inc)
            cum = np.cumsum(inc, axis=1)
            targets = np.array([rng.integers(0, cum[q, -1] + 1) for q in range(2)])
            msg = encode_thresholds(ledger, targets, 4)
            for q in range(2):
                cut = msg.cutoffs[q]
                batch_epoch = 0 if cut is None else cut + 1
                if msg.spill[q]:
                    assert msg.spill[q] < inc[q, batch_epoch]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_all_epochs_at_once_match_one_by_one(self, data):
        # any ledger, its departures as targets; the epochs may run past the
        # last recorded arrivals and departures
        n_queues = data.draw(st.integers(1, 3))
        recorded = data.draw(st.integers(1, 6))
        increments = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=recorded, max_size=recorded),
            min_size=n_queues, max_size=n_queues)))
        ledger = ledger_from_increments(increments)
        for l in range(data.draw(st.integers(0, recorded))):
            room = ledger.backlog(l)
            ledger.apply_departures(l, [data.draw(st.integers(0, int(r))) for r in room])
        epochs = data.draw(st.integers(0, recorded + 2))
        assert threshold_messages(ledger, epochs) == [
            encode_thresholds(ledger, ledger.cumulative_departures(l), l) for l in range(epochs)]

    def test_target_above_arrivals_rejected(self):
        ledger = ledger_from_increments([[1, 1]])
        with pytest.raises(ConfigurationError):
            encode_thresholds(ledger, np.array([3]), 1)

    def test_fractional_target_rejected(self):
        ledger = ledger_from_increments([[2]])
        with pytest.raises(ConfigurationError):
            encode_thresholds(ledger, np.array([0.5]), 0)


def _the_checked_message(message):
    """``message`` built again through the checked constructor, asserted
    equal to it field for field and by type."""
    checked = ThresholdMessage(message.epoch, message.cutoffs, message.spill)
    assert checked == message
    for got, want in ((message.epoch, checked.epoch), *zip(message.cutoffs, checked.cutoffs),
                      *zip(message.spill, checked.spill)):
        assert type(got) is type(want) and type(got) in (int, type(None)) and got == want
    assert type(message.cutoffs) is type(message.spill) is tuple


class TestEncodedTable:
    """``threshold_messages`` checks its cutoff and spill tables once and
    builds each message without the constructor's per-field checks."""

    @pytest.mark.parametrize("runner", ["run_uncontrolled", "run_ddls", "run_price_signal"])
    def test_every_desk_message_is_the_checked_one(self, runner):
        result = getattr(simkit, runner)(simkit.load_scenario(DESK_CONFIG))
        messages = threshold_messages(result.ledger, len(result.trajectory))
        assert len(messages) == len(result.trajectory)
        assert any(any(message.spill) for message in messages) or runner != "run_ddls"
        for message in messages:
            _the_checked_message(message)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_generated_message_is_the_checked_one(self, data):
        n_queues, recorded = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
        ledger = ledger_from_increments(np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=recorded, max_size=recorded),
            min_size=n_queues, max_size=n_queues))))
        for l in range(data.draw(st.integers(0, recorded))):
            ledger.apply_departures(l, [data.draw(st.integers(0, int(r)))
                                        for r in ledger.backlog(l)])
        for message in threshold_messages(ledger, data.draw(st.integers(0, recorded + 2))):
            _the_checked_message(message)

    @pytest.mark.parametrize("targets, text", [
        ([[0], [3]], "queue 1 spill past the message epoch"),  # above epoch 1's arrivals
        ([[0], [-1]], "queue 1 spill must be an integer >= 0, got -1"),
        ([[0, 0], [1, 0], [0, 9]], "queue 2 spill past the message epoch"),
    ], ids=["spill-at-the-epoch", "negative-spill", "second-queue-at-a-later-epoch"])
    def test_a_table_that_breaks_a_rule_raises_the_constructors_error(self, targets, text):
        targets = np.array(targets)
        cum = np.cumsum(np.ones((targets.shape[1], len(targets)), dtype=np.int64), axis=1)
        with pytest.raises(ConfigurationError, match=f"^{text}$"):
            feedback._encode(cum, targets, 0)


class TestMessageType:
    def test_cutoff_beyond_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            ThresholdMessage(epoch=1, cutoffs=(2,), spill=(0,))

    def test_spill_past_the_message_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            ThresholdMessage(epoch=1, cutoffs=(1,), spill=(1,))

    def test_wire_type_carries_no_appliance_identifiers(self):
        msg = ThresholdMessage(epoch=3, cutoffs=(2, None), spill=(0, 1))
        names = {f.name for f in dataclasses.fields(msg)}
        assert names == {"epoch", "cutoffs", "spill"}
        for cut in msg.cutoffs:
            assert cut is None or isinstance(cut, int)
        for s in msg.spill:
            assert isinstance(s, int)


class TestDecode:
    def test_admits_by_epoch_and_spill_rank(self):
        ledger = ledger_from_increments([[2, 3]])
        msg = encode_thresholds(ledger, np.array([3]), 1)
        admitted = decode_and_admit(ledger.arrival_log, msg)
        # both epoch-0 arrivals plus the first of the epoch-1 batch
        assert admitted == {0, 1, 2}

    def test_none_admitted_message_gives_empty_set(self):
        ledger = ledger_from_increments([[2]])
        msg = encode_thresholds(ledger, np.array([0]), 0)
        assert decode_and_admit(ledger.arrival_log, msg) == set()

    def test_repeat_message_is_idempotent(self):
        ledger = ledger_from_increments([[2, 3]])
        msg = encode_thresholds(ledger, np.array([3]), 1)
        first = decode_and_admit(ledger.arrival_log, msg)
        again = decode_and_admit(ledger.arrival_log, msg, already_admitted=first)
        assert again == set()

    def test_unknown_queue_index_rejected(self):
        msg = ThresholdMessage(epoch=0, cutoffs=(0,), spill=(0,))
        with pytest.raises(ConfigurationError):
            decode_and_admit([(0, 1)], msg)

    def test_round_trip_reproduces_targets_exactly(self):
        rng = np.random.default_rng(83)
        for _ in range(1000):
            q = int(rng.integers(1, 4))
            n_epochs = int(rng.integers(1, 6))
            inc = rng.integers(0, 4, size=(q, n_epochs))
            ledger = ledger_from_increments(inc)
            cum = np.cumsum(inc, axis=1)
            targets = np.array(
                [rng.integers(0, cum[qi, -1] + 1) for qi in range(q)]
            )
            msg = encode_thresholds(ledger, targets, n_epochs - 1)
            admitted = decode_and_admit(ledger.arrival_log, msg)
            counts = admitted_per_queue(ledger.arrival_log, admitted, q)
            assert np.array_equal(counts, targets)

    def test_incremental_messages_accumulate_to_each_target(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            q = int(rng.integers(1, 3))
            n_epochs = int(rng.integers(2, 7))
            inc = rng.integers(0, 3, size=(q, n_epochs))
            ledger = ledger_from_increments(inc)
            cum = np.cumsum(inc, axis=1)
            admitted = set()
            prev = np.zeros(q, dtype=np.int64)
            cutoff_history = [[] for _ in range(q)]
            for l in range(n_epochs):
                room = cum[:, l] - prev
                step = np.array([rng.integers(0, r + 1) for r in room])
                targets = prev + step
                msg = encode_thresholds(ledger, targets, l)
                new = decode_and_admit(ledger.arrival_log, msg, already_admitted=admitted)
                admitted |= new
                counts = admitted_per_queue(ledger.arrival_log, admitted, q)
                assert np.array_equal(counts, targets)
                for qi in range(q):
                    cutoff_history[qi].append(
                        -1 if msg.cutoffs[qi] is None else msg.cutoffs[qi]
                    )
                prev = targets
            for qi in range(q):
                assert cutoff_history[qi] == sorted(cutoff_history[qi])

    def test_reconstructs_a_scheduler_run(self):
        rng = np.random.default_rng(139)
        codebook = [ChargeCode(id=1, pulse=(1.0,)), ChargeCode(id=2, pulse=(1.0, 1.0))]
        zic = rng.uniform(0.0, 3.0, size=26)
        arrivals = rng.poisson(0.6, size=(2, 8))
        sched = RecedingHorizonScheduler(
            codebook, zic, 1.0, 1.0, np.full(2, 0.05), 6,
            arrival_rates=np.full(2, 0.6), deadline_epochs=8,
        )
        sched.run(arrivals)
        log = sched.ledger.arrival_log
        admitted = set()
        for l in range(sched.epoch):
            targets = sched.ledger.cumulative_departures(l)
            msg = encode_thresholds(sched.ledger, targets, l)
            new = decode_and_admit(log, msg, already_admitted=admitted)
            admitted |= new
            counts = admitted_per_queue(log, admitted, 2)
            assert np.array_equal(counts, targets)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_loop_decoder(self, data):
        # any log, in any order, with any admitted set; an unknown queue
        # index must be refused by both
        n_queues = data.draw(st.integers(1, 3))
        epoch = data.draw(st.integers(0, 5))
        cutoffs = data.draw(st.lists(st.none() | st.integers(0, epoch),
                                     min_size=n_queues, max_size=n_queues))
        spill = [0 if cut == epoch else data.draw(st.integers(0, 4)) for cut in cutoffs]
        message = ThresholdMessage(epoch=epoch, cutoffs=cutoffs, spill=spill)
        log = data.draw(st.lists(st.tuples(st.integers(0, epoch + 2),
                                           st.integers(0, n_queues - 1)), max_size=40))
        if data.draw(st.integers(0, 4)) == 0:
            log.insert(data.draw(st.integers(0, len(log))),
                       (0, data.draw(st.sampled_from([-1, n_queues, n_queues + 2]))))
        already = data.draw(st.sets(st.integers(-2, len(log) + 2)))
        try:
            expected = decode_and_admit_loop(log, message, already)
        except ConfigurationError as refused:
            with pytest.raises(ConfigurationError) as got:
                decode_and_admit(log, message, already)
            assert str(got.value) == str(refused)
            return
        got = decode_and_admit(log, message, already)
        assert got == expected
        assert all(type(idx) is int for idx in got)


class TestCsv:
    @staticmethod
    def cell(value) -> str:
        """The reference cell: one value at a time."""
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return "%.9g" % value
        return str(value)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_columns_render_as_cells_do(self, data):
        rows = data.draw(st.integers(0, 6))
        floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 1e-300])

        def column(elements, dtype):
            return np.array(data.draw(st.lists(elements, min_size=rows, max_size=rows)), dtype)

        columns = [np.arange(rows), column(floats, float), column(st.booleans(), bool),
                   column(st.integers(-2**62, 2**62), np.int64),
                   column(st.sampled_from(["ddls", "price", "a%sb"]), str)]
        header = ["epoch", "value", "flag", "count", "strategy"]
        expected = "".join(",".join(self.cell(v) for v in row) + "\n"
                           for row in zip(*(c.tolist() for c in columns)))
        assert render_columns(header, columns) == ",".join(header) + "\n" + expected

    def test_message_log_golden(self, tmp_path):
        messages = [
            ThresholdMessage(epoch=0, cutoffs=(None, 0), spill=(0, 0)),
            ThresholdMessage(epoch=1, cutoffs=(0, 1), spill=(1, 0)),
        ]
        path = tmp_path / "feedback.csv"
        message_log_to_csv(messages, path)
        assert path.read_text() == (
            "epoch,queue,cutoff\n"
            "0,1,-1\n"
            "0,2,0\n"
            "1,1,0\n"
            "1,2,1\n"
        )
