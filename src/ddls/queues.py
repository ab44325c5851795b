"""Service-queue bookkeeping: cumulative arrival/departure counts and
the delay-cost accounting built on them.

Each queue is FIFO in arrival order.  The ledger stores step functions
a_q(l) (cumulative arrivals through epoch l) and d_q(l) (cumulative
departures); both are constant past the last recorded epoch.  The
backlog a_q(l) - d_q(l) is the number of appliances waiting at l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
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
        self._arr = np.zeros((n_queues, 0), dtype=np.int64)
        self._dep = np.zeros((n_queues, 0), dtype=np.int64)
        self._last_arrival_epoch = -1
        self._last_departure_epoch = -1
        # (epoch, queue_index) per appliance, in recording order
        self.arrival_log: list[tuple[int, int]] = []

    @property
    def current_epoch(self) -> int:
        return max(self._last_arrival_epoch, self._last_departure_epoch)

    def _grow(self, epoch: int) -> None:
        width = self._arr.shape[1]
        if epoch < width:
            return
        new = max(epoch + 1, 2 * width, 8)
        pad = np.zeros((self.n_queues, new - width), dtype=np.int64)
        self._arr = np.hstack([self._arr, pad])
        self._dep = np.hstack([self._dep, pad.copy()])

    @staticmethod
    def _check_counts(counts, n_queues: int) -> np.ndarray:
        arr = np.asarray(counts)
        if arr.shape != (n_queues,):
            raise ConfigurationError(f"counts shape {arr.shape}, expected ({n_queues},)")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(np.asarray(arr, dtype=float))
            if not np.allclose(arr, rounded, atol=1e-9):
                raise ConfigurationError("counts must be integers")
            arr = rounded.astype(np.int64)
        if (arr < 0).any():
            raise ConfigurationError("counts must be >= 0")
        return arr.astype(np.int64)

    def record_arrivals(self, epoch: int, counts) -> None:
        counts = self._check_counts(counts, self.n_queues)
        if epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
        if epoch < self._last_arrival_epoch:
            raise ConfigurationError(
                f"arrivals recorded out of order: epoch {epoch} after {self._last_arrival_epoch}"
            )
        self._grow(epoch)
        self._arr[:, epoch] += counts
        self._last_arrival_epoch = max(self._last_arrival_epoch, epoch)
        for q in range(self.n_queues):
            self.arrival_log.extend([(epoch, q)] * int(counts[q]))

    def apply_departures(self, epoch: int, counts) -> None:
        counts = self._check_counts(counts, self.n_queues)
        if epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
        if epoch < self._last_departure_epoch:
            raise ConfigurationError(
                f"departures recorded out of order: epoch {epoch} after {self._last_departure_epoch}"
            )
        self._grow(epoch)
        backlog = self.cumulative_arrivals(epoch) - self.cumulative_departures(epoch)
        if (counts > backlog).any():
            q = int(np.argmax(counts - backlog))
            raise FeasibilityError(
                f"departure count {int(counts[q])} exceeds queue {q + 1} length {int(backlog[q])} "
                f"at epoch {epoch}"
            )
        self._dep[:, epoch] += counts
        self._last_departure_epoch = max(self._last_departure_epoch, epoch)

    def _cumulative(self, table: np.ndarray, epoch: int) -> np.ndarray:
        if epoch < 0:
            return np.zeros(self.n_queues, dtype=np.int64)
        stop = min(epoch + 1, table.shape[1])
        return table[:, :stop].sum(axis=1)

    def cumulative_arrivals(self, epoch: int) -> np.ndarray:
        """a_q(epoch) for every queue."""
        return self._cumulative(self._arr, epoch)

    def cumulative_departures(self, epoch: int) -> np.ndarray:
        """d_q(epoch) for every queue."""
        return self._cumulative(self._dep, epoch)

    def backlog(self, epoch: int) -> np.ndarray:
        return self.cumulative_arrivals(epoch) - self.cumulative_departures(epoch)

    def arrival_increments(self, start: int, stop: int) -> np.ndarray:
        """Per-epoch arrival counts for epochs start..stop-1, shape (Q, stop-start)."""
        return self._slice(self._arr, start, stop)

    def departure_increments(self, start: int, stop: int) -> np.ndarray:
        return self._slice(self._dep, start, stop)

    def _slice(self, table: np.ndarray, start: int, stop: int) -> np.ndarray:
        if start < 0 or stop < start:
            raise ConfigurationError(f"bad epoch range [{start}, {stop})")
        out = np.zeros((self.n_queues, stop - start), dtype=np.int64)
        hi = min(stop, table.shape[1])
        if hi > start:
            out[:, : hi - start] = table[:, start:hi]
        return out

    def fifo_delays(self) -> list[tuple[int, int, int]]:
        """Per-appliance (queue_index, arrival_epoch, delay_epochs) under
        FIFO service, for appliances that have departed.  The j-th
        departure from a queue serves its j-th arrival; the delay is the
        departure epoch minus the arrival epoch."""
        out = []
        width = self._arr.shape[1]
        for q in range(self.n_queues):
            arr_epochs = np.repeat(np.arange(width), self._arr[q, :width])
            dep_epochs = np.repeat(np.arange(width), self._dep[q, :width])
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
        served = self._dep.sum(axis=1)
        before = np.cumsum(self._arr, axis=1) - self._arr
        taken = np.clip(served[:, None] - before, 0, self._arr)
        epochs = np.arange(self._arr.shape[1])
        return int(epochs @ (self._dep - taken).sum(axis=0)), int(served.sum())

    def to_csv(self, path) -> None:
        """Dump cumulative counts, one row per (epoch, queue); queue
        column is the 1-based code id."""
        rows = []
        last = self.current_epoch
        arr = np.cumsum(self._arr[:, : last + 1], axis=1) if last >= 0 else None
        dep = np.cumsum(self._dep[:, : last + 1], axis=1) if last >= 0 else None
        for l in range(last + 1):
            for q in range(self.n_queues):
                rows.append((l, q + 1, int(arr[q, l]), int(dep[q, l])))
        write_csv(path, ["epoch", "queue", "cum_arrivals", "cum_departures"], rows)


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
