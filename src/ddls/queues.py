"""Service-queue bookkeeping: cumulative arrival/departure counts and
the delay-cost accounting built on them.

Each queue is FIFO in arrival order.  The ledger stores step functions
a_q(l) (cumulative arrivals through epoch l) and d_q(l) (cumulative
departures); both are constant past the last recorded epoch.  The
backlog a_q(l) - d_q(l) is the number of appliances waiting at l.
It keeps both as running cumulative tables, updated as counts are
recorded, so a_q(l), d_q(l) and the backlog at one epoch are O(Q)
reads, not sums over the history; per-epoch counts are their first
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import checked_int, checked_numbers
from .errors import ConfigurationError, FeasibilityError


@dataclass(frozen=True)
class DelayPrices:
    """Per-queue waiting cost per epoch, the same at every epoch, as the
    window LP prices delay."""

    per_queue: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_queue", checked_numbers(self.per_queue, "delay_prices"))
        if self.per_queue.ndim != 1:
            raise ConfigurationError("delay_prices must be a vector")

    @property
    def n_queues(self) -> int:
        return self.per_queue.size


class QueueLedger:
    """Cumulative arrival and departure counts for Q FIFO queues.

    Counts are recorded per epoch and must be fed in non-decreasing
    epoch order (ConfigurationError otherwise).  Departures may never
    overtake arrivals at any epoch; a violating call raises
    FeasibilityError and leaves the ledger unchanged.
    """

    def __init__(self, n_queues: int):
        self.n_queues = n_queues = checked_int(n_queues, "n_queues", low=1)
        # the cumulative tables: column l + 1 holds a_q(l) (d_q(l)) and
        # column 0 the zero before epoch 0; valid through the last epoch
        # each has recorded, constant after it
        self._cum_arr = np.zeros((n_queues, 1), dtype=np.int64)
        self._cum_dep = np.zeros((n_queues, 1), dtype=np.int64)
        self._last_arrival_epoch = -1
        self._last_departure_epoch = -1

    @classmethod
    def from_tables(cls, arrivals, departures) -> QueueLedger:
        """The ledger of (Q, ·) cumulative arrival and departure tables,
        column 0 zero and column l + 1 holding a_q(l) (d_q(l)) through
        the last epoch each recorded."""
        arrivals, departures = (np.array(t, dtype=np.int64, ndmin=2) for t in (arrivals, departures))
        width, reach = arrivals.shape[1], departures.shape[1]
        if (arrivals.shape[0] != departures.shape[0] or not width or not reach
                or arrivals[:, 0].any() or departures[:, 0].any() or (np.diff(arrivals) < 0).any()
                or (np.diff(departures) < 0).any()
                or (departures > arrivals[:, np.minimum(np.arange(reach), width - 1)]).any()):
            raise ConfigurationError("tables must be cumulative from a zero column, departures "
                                     "never ahead of arrivals")
        ledger = cls(arrivals.shape[0])
        ledger._cum_arr, ledger._cum_dep = arrivals, departures
        ledger._last_arrival_epoch = arrivals.shape[1] - 2
        ledger._last_departure_epoch = departures.shape[1] - 2
        return ledger

    @property
    def current_epoch(self) -> int:
        return max(self._last_arrival_epoch, self._last_departure_epoch)

    @property
    def arrival_log(self) -> np.ndarray:
        """(N, 2) int64 (epoch, queue_index), one row per appliance,
        epoch-major and in queue order within an epoch; derived from the
        arrival table, read-only.  An appliance's identity is its row."""
        counts = np.diff(self._cum_arr[:, : self._last_arrival_epoch + 2]).T
        cells = np.indices(counts.shape, dtype=np.int64).reshape(2, -1).T
        log = np.repeat(cells, counts.ravel(), axis=0)
        log.flags.writeable = False
        return log

    def _grow(self, epoch: int) -> None:
        width = self._cum_arr.shape[1]
        if epoch + 1 < width:
            return
        pad = np.zeros((self.n_queues, max(epoch + 2, 2 * width, 9) - width), dtype=np.int64)
        self._cum_arr = np.hstack((self._cum_arr, pad))
        self._cum_dep = np.hstack((self._cum_dep, pad))

    @staticmethod
    def _add(cum: np.ndarray, last: int, epoch: int, counts: np.ndarray) -> None:
        """Add ``counts`` at ``epoch`` >= ``last`` to a cumulative table
        valid through ``last``, carrying it over any skipped epochs."""
        if epoch == last:
            cum[:, epoch + 1] += counts
            return
        if epoch > last + 1:
            cum[:, last + 2 : epoch + 1] = cum[:, last + 1 : last + 2]
        cum[:, epoch + 1] = cum[:, epoch] + counts

    @staticmethod
    def _check_counts(counts, shape: tuple) -> np.ndarray:
        """Whole counts >= 0 of the given shape, as int64."""
        arr = checked_numbers(counts, "counts", integer=True)
        if arr.shape != shape:
            raise ConfigurationError(f"counts shape {arr.shape}, expected {shape}")
        return arr

    def record_arrivals(self, epoch: int, counts) -> None:
        counts = self._check_counts(counts, (self.n_queues,))
        epoch = checked_int(epoch, "epoch")
        if epoch < self._last_arrival_epoch:
            raise ConfigurationError(
                f"arrivals recorded out of order: epoch {epoch} after {self._last_arrival_epoch}"
            )
        self._grow(epoch)
        self._add(self._cum_arr, self._last_arrival_epoch, epoch, counts)
        self._last_arrival_epoch = epoch

    def apply_departures(self, epoch: int, counts) -> None:
        counts = self._check_counts(counts, (self.n_queues,))
        epoch = checked_int(epoch, "epoch")
        if epoch < self._last_departure_epoch:
            raise ConfigurationError(
                f"departures recorded out of order: epoch {epoch} after {self._last_departure_epoch}"
            )
        backlog = self.backlog(epoch)
        if (counts > backlog).any():
            q = int(np.argmax(counts - backlog))
            raise FeasibilityError(
                f"departure count {int(counts[q])} exceeds queue {q + 1} length {int(backlog[q])} "
                f"at epoch {epoch}"
            )
        self._grow(epoch)
        self._add(self._cum_dep, self._last_departure_epoch, epoch, counts)
        self._last_departure_epoch = epoch

    @staticmethod
    def _column(cum: np.ndarray, last: int, epoch: int) -> np.ndarray:
        return cum[:, max(min(checked_int(epoch, "epoch", low=None), last), -1) + 1].copy()

    def cumulative_arrivals(self, epoch: int) -> np.ndarray:
        """a_q(epoch) for every queue."""
        return self._column(self._cum_arr, self._last_arrival_epoch, epoch)

    def cumulative_departures(self, epoch: int) -> np.ndarray:
        """d_q(epoch) for every queue."""
        return self._column(self._cum_dep, self._last_departure_epoch, epoch)

    @staticmethod
    def _history(cum: np.ndarray, last: int, epoch: int) -> np.ndarray:
        """Columns 0..epoch+1 of a cumulative table, the leading zero
        included, carried past ``last``; ``epoch`` >= -1."""
        epoch = checked_int(epoch, "epoch", low=-1)
        out = np.empty((cum.shape[0], epoch + 2), dtype=np.int64)
        known = min(epoch, last) + 2
        out[:, :known] = cum[:, :known]
        out[:, known:] = cum[:, known - 1 : known]
        return out

    def arrival_history(self, epoch: int) -> np.ndarray:
        """a_q(0..epoch), shape (Q, epoch+1): the cumulative arrival table,
        read-only, and through the last recorded epoch the ledger's own."""
        epoch = checked_int(epoch, "epoch", low=-1)
        history = (self._cum_arr[:, 1 : epoch + 2] if epoch <= self._last_arrival_epoch
                   else self._history(self._cum_arr, self._last_arrival_epoch, epoch)[:, 1:])
        history.flags.writeable = False
        return history

    def backlog(self, epoch: int) -> np.ndarray:
        return self.cumulative_arrivals(epoch) - self.cumulative_departures(epoch)

    def arrival_increments(self, start: int, stop: int) -> np.ndarray:
        """Per-epoch arrival counts for epochs start..stop-1, shape (Q, stop-start)."""
        return self._increments(self._cum_arr, self._last_arrival_epoch, start, stop)

    def departure_increments(self, start: int, stop: int) -> np.ndarray:
        return self._increments(self._cum_dep, self._last_departure_epoch, start, stop)

    def _increments(self, cum: np.ndarray, last: int, start: int, stop: int) -> np.ndarray:
        start = checked_int(start, "start")
        stop = checked_int(stop, "stop", low=start)
        return np.diff(self._history(cum, last, stop - 1)[:, start:], axis=1)

    def fifo_delays(self) -> list[tuple[int, int, int]]:
        """Per-appliance (queue_index, arrival_epoch, delay_epochs) under
        FIFO service, for appliances that have departed.  The j-th
        departure from a queue serves its j-th arrival; the delay is the
        departure epoch minus the arrival epoch."""
        out = []
        width = self.current_epoch + 1
        arrived = self.arrival_increments(0, width)
        departed = self.departure_increments(0, width)
        for q in range(self.n_queues):
            arr_epochs = np.repeat(np.arange(width), arrived[q])
            dep_epochs = np.repeat(np.arange(width), departed[q])
            for j in range(dep_epochs.size):
                out.append((q, int(arr_epochs[j]), int(dep_epochs[j] - arr_epochs[j])))
        return out


def dci(ledger: QueueLedger, from_epoch: int, horizon: int, prices: DelayPrices) -> float:
    """Delay-cost increment over the window [from_epoch, from_epoch + horizon].

    Sum over the window epochs of price_q(l) * (a_q(l) - d_q(l)).  With
    stationary prices and a window long enough for every appliance to be
    served, this equals the price-weighted sum of individual FIFO
    waiting times.
    """
    from_epoch = checked_int(from_epoch, "from_epoch", low=None)
    horizon = checked_int(horizon, "horizon")
    if prices.n_queues != ledger.n_queues:
        raise ConfigurationError(
            f"price vector has {prices.n_queues} queues, ledger has {ledger.n_queues}"
        )
    stop = max(from_epoch + horizon, -1)
    waiting = (ledger._history(ledger._cum_arr, ledger._last_arrival_epoch, stop)
               - ledger._history(ledger._cum_dep, ledger._last_departure_epoch, stop))
    epochs = np.maximum(np.arange(from_epoch, from_epoch + horizon + 1), -1) + 1
    total = 0.0  # one dot product an epoch, each of a contiguous row, as a ``backlog`` would be
    for wait in np.ascontiguousarray(waiting[:, epochs].T, dtype=float):
        total += float(prices.per_queue @ wait)
    return total
