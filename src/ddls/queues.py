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

from .errors import ConfigurationError, FeasibilityError


@dataclass(frozen=True)
class DelayPrices:
    """Per-queue waiting cost per epoch, optionally time varying.

    ``per_queue`` is the stationary price vector; if ``time_table`` is
    given (shape (L, Q)) its rows override the stationary prices for
    epochs 0..L-1.
    """

    per_queue: np.ndarray
    time_table: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "per_queue", np.asarray(self.per_queue, dtype=float))
        if self.per_queue.ndim != 1:
            raise ConfigurationError("per_queue must be a vector")
        if not np.all(np.isfinite(self.per_queue)) or (self.per_queue < 0).any():
            raise ConfigurationError("delay prices must be finite and >= 0")
        if self.time_table is not None:
            table = np.asarray(self.time_table, dtype=float)
            if table.ndim != 2 or table.shape[1] != self.per_queue.size:
                raise ConfigurationError(
                    f"time_table shape {table.shape} does not match {self.per_queue.size} queues"
                )
            if not np.all(np.isfinite(table)) or (table < 0).any():
                raise ConfigurationError("delay prices must be finite and >= 0")
            object.__setattr__(self, "time_table", table)

    @property
    def n_queues(self) -> int:
        return self.per_queue.size

    def at(self, epoch: int) -> np.ndarray:
        if self.time_table is not None and 0 <= epoch < self.time_table.shape[0]:
            return self.time_table[epoch]
        return self.per_queue


class QueueLedger:
    """Cumulative arrival and departure counts for Q FIFO queues.

    Counts are recorded per epoch and must be fed in non-decreasing
    epoch order (ConfigurationError otherwise).  Departures may never
    overtake arrivals at any epoch; a violating call raises
    FeasibilityError and leaves the ledger unchanged.
    """

    def __init__(self, n_queues: int):
        if n_queues < 1:
            raise ConfigurationError(f"need at least one queue, got {n_queues}")
        self.n_queues = n_queues
        # the cumulative tables: column l + 1 holds a_q(l) (d_q(l)) and
        # column 0 the zero before epoch 0; valid through the last epoch
        # each has recorded, constant after it
        self._cum_arr = np.zeros((n_queues, 1), dtype=np.int64)
        self._cum_dep = np.zeros((n_queues, 1), dtype=np.int64)
        self._last_arrival_epoch = -1
        self._last_departure_epoch = -1
        # (epoch, queue_index) per appliance, in recording order
        self.arrival_log: list[tuple[int, int]] = []

    @classmethod
    def from_tables(cls, arrivals, departures) -> QueueLedger:
        """The ledger of (Q, ·) cumulative arrival and departure tables,
        column 0 zero and column l + 1 holding a_q(l) (d_q(l)) through
        the last epoch each recorded; its arrival log is derived from them."""
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
        batches = np.diff(arrivals).T  # in recording order: by epoch, then queue
        for (epoch, queue), count in zip(np.argwhere(batches).tolist(),
                                         batches[batches > 0].tolist()):
            ledger.arrival_log.extend([(epoch, queue)] * count)
        return ledger

    @property
    def current_epoch(self) -> int:
        return max(self._last_arrival_epoch, self._last_departure_epoch)

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
        """Integer counts >= 0 of the given shape, as int64."""
        arr = np.asarray(counts)
        if arr.shape != shape:
            raise ConfigurationError(f"counts shape {arr.shape}, expected {shape}")
        if arr.dtype.kind not in "iu":
            rounded = np.rint(np.asarray(arr, dtype=float))
            if not np.allclose(arr, rounded, atol=1e-9):
                raise ConfigurationError("counts must be integers")
            arr = rounded
        if (arr < 0).any():
            raise ConfigurationError("counts must be >= 0")
        return arr.astype(np.int64, copy=False)

    def record_arrivals(self, epoch: int, counts) -> None:
        counts = self._check_counts(counts, (self.n_queues,))
        if epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
        if epoch < self._last_arrival_epoch:
            raise ConfigurationError(
                f"arrivals recorded out of order: epoch {epoch} after {self._last_arrival_epoch}"
            )
        self._grow(epoch)
        self._add(self._cum_arr, self._last_arrival_epoch, epoch, counts)
        self._last_arrival_epoch = epoch
        for q, count in enumerate(counts.tolist()):
            self.arrival_log.extend([(epoch, q)] * count)

    def apply_departures(self, epoch: int, counts) -> None:
        counts = self._check_counts(counts, (self.n_queues,))
        if epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
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
        return cum[:, max(min(epoch, last), -1) + 1].copy()

    def cumulative_arrivals(self, epoch: int) -> np.ndarray:
        """a_q(epoch) for every queue."""
        return self._column(self._cum_arr, self._last_arrival_epoch, epoch)

    def cumulative_departures(self, epoch: int) -> np.ndarray:
        """d_q(epoch) for every queue."""
        return self._column(self._cum_dep, self._last_departure_epoch, epoch)

    @staticmethod
    def _history(cum: np.ndarray, last: int, epoch: int) -> np.ndarray:
        """Columns 0..epoch+1 of a cumulative table, the leading zero
        included, carried past ``last``."""
        out = np.empty((cum.shape[0], epoch + 2), dtype=np.int64)
        known = max(min(epoch, last), -1) + 2
        out[:, :known] = cum[:, :known]
        out[:, known:] = cum[:, known - 1 : known]
        return out

    def arrival_history(self, epoch: int) -> np.ndarray:
        """a_q(0..epoch), shape (Q, epoch+1): the cumulative arrival table,
        read-only, and through the last recorded epoch the ledger's own."""
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
        if start < 0 or stop < start:
            raise ConfigurationError(f"bad epoch range [{start}, {stop})")
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

    def fifo_delay_sum(self) -> tuple[int, int]:
        """(sum of the FIFO delays, number of departures), the sum and
        length of ``fifo_delays``, from the counts alone.

        Departures contribute sum_l l*dep_q(l).  They serve the first
        D_q arrivals of the queue, of which epoch l holds
        clip(D_q - A_q(l-1), 0, arr_q(l)), A_q(l-1) being the arrivals
        before l; their arrival epochs are subtracted.
        """
        last = self.current_epoch
        cum_arrived = self._history(self._cum_arr, self._last_arrival_epoch, last)
        departed = self.departure_increments(0, last + 1)
        served = self.cumulative_departures(last)
        taken = np.clip(served[:, None] - cum_arrived[:, :-1], 0, np.diff(cum_arrived, axis=1))
        epochs = np.arange(last + 1)
        return int(epochs @ (departed - taken).sum(axis=0)), int(served.sum())


def dci(ledger: QueueLedger, from_epoch: int, horizon: int, prices: DelayPrices) -> float:
    """Delay-cost increment over the window [from_epoch, from_epoch + horizon].

    Sum over the window epochs of price_q(l) * (a_q(l) - d_q(l)).  With
    stationary prices and a window long enough for every appliance to be
    served, this equals the price-weighted sum of individual FIFO
    waiting times.
    """
    if horizon < 0:
        raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
    if prices.n_queues != ledger.n_queues:
        raise ConfigurationError(
            f"price vector has {prices.n_queues} queues, ledger has {ledger.n_queues}"
        )
    total = 0.0
    for l in range(from_epoch, from_epoch + horizon + 1):
        wait = ledger.backlog(l)
        total += float(prices.at(l) @ wait)
    return total
