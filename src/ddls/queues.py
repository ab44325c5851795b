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

    Counts are recorded one epoch at a time or as a block of consecutive
    epochs, in one call either way, and must be fed in non-decreasing
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

    @staticmethod
    def _check_counts(counts, shape: tuple) -> np.ndarray:
        """Whole counts >= 0 of the given shape, as int64."""
        arr = checked_numbers(counts, "counts", integer=True)
        if arr.shape != shape:
            raise ConfigurationError(f"counts shape {arr.shape}, expected {shape}")
        return arr

    def _recorded(self, cum: np.ndarray, last: int, epoch, counts, kind: str,
                  ceiling=None) -> tuple[np.ndarray, int]:
        """The cumulative table valid through ``last`` (grown if need be)
        and its new last epoch once the (Q,) counts at ``epoch``, or the (Q, k)
        block of epochs epoch..epoch + k - 1, are added; skipped epochs carry
        the last column.  Each check runs once over the block, before any
        write: whole counts >= 0, ``epoch`` >= ``last`` and, given the (table,
        last) ``ceiling``, cumulative counts never above it."""
        block = checked_numbers(counts, "counts", integer=True)
        block = block[:, None] if block.ndim == 1 else block
        if block.ndim != 2 or len(block) != self.n_queues:
            raise ConfigurationError(f"counts shape {np.shape(counts)}, expected "
                                     f"({self.n_queues},) or ({self.n_queues}, epochs)")
        epoch = checked_int(epoch, "epoch")
        if epoch < last:
            raise ConfigurationError(f"{kind} recorded out of order: epoch {epoch} after {last}")
        stop = epoch + block.shape[1]  # one past the block's last epoch
        if stop == epoch:
            return cum, last
        totals = cum[:, last + 1 : last + 2] + np.cumsum(block, axis=1)
        if ceiling is not None:
            top, top_last = ceiling
            over = totals > top[:, np.minimum(np.arange(epoch, stop), top_last) + 1]
            if over.any():
                j, q = (int(i[0]) for i in np.nonzero(over.T))
                length = top[q, min(epoch + j, top_last) + 1] - totals[q, j] + block[q, j]
                raise FeasibilityError(f"departure count {int(block[q, j])} exceeds queue "
                                       f"{q + 1} length {int(length)} at epoch {epoch + j}")
        if stop >= cum.shape[1]:
            cum = np.pad(cum, ((0, 0), (0, max(stop + 1, 2 * cum.shape[1], 9) - cum.shape[1])))
        cum[:, last + 2 : epoch + 1] = cum[:, last + 1 : last + 2]
        cum[:, epoch + 1 : stop + 1] = totals
        return cum, stop - 1

    def record_arrivals(self, epoch: int, counts) -> None:
        """Add the (Q,) arrival counts of ``epoch``, or a (Q, k) block of
        epochs epoch..epoch + k - 1 (see ``_recorded``)."""
        self._cum_arr, self._last_arrival_epoch = self._recorded(
            self._cum_arr, self._last_arrival_epoch, epoch, counts, "arrivals")

    def apply_departures(self, epoch: int, counts) -> None:
        """Add departure counts as ``record_arrivals`` adds arrivals.  A
        block whose departures would pass the arrivals raises
        FeasibilityError naming its first queue and epoch."""
        self._cum_dep, self._last_departure_epoch = self._recorded(
            self._cum_dep, self._last_departure_epoch, epoch, counts, "departures",
            ceiling=(self._cum_arr, self._last_arrival_epoch))

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
