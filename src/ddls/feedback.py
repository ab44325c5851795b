"""Anonymized downlink from the scheduler to the appliances.

Instead of addressing appliances by id, the scheduler broadcasts one
admission threshold per queue: every appliance that arrived at or before
the cutoff epoch switches on.  The cutoff for queue q at epoch l is

    T_q(l) = max{tau <= l : a_q(tau) <= d_q(l)}

with d_q(l) the optimal cumulative departure count.  When d_q(l) falls
strictly inside an arrival batch no epoch-granular cutoff reproduces it,
so the message also carries a spill count: how many appliances of the
first batch after the cutoff are admitted, lowest arrival sequence
first.  The spill is always smaller than that batch, and a cutoff of
``None`` (nobody fully admitted) pins the batch to epoch 0.  Messages
stay anonymous: they hold per-queue epochs and counts, never appliance
identifiers.  As a_q is nondecreasing, T_q(l) is the number of epochs
with a_q(tau) <= d_q(l), minus one: one binary search over the history.
``threshold_messages`` encodes every epoch of a run at once, with one
``searchsorted`` per queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import checked_int, checked_numbers
from .csvio import atomic_write_text, render_columns
from .errors import ConfigurationError
from .queues import QueueLedger


@dataclass(frozen=True)
class ThresholdMessage:
    """One broadcast: per-queue admission cutoffs at ``epoch``.

    ``cutoffs[q]`` is the last fully admitted arrival epoch (None when
    even the epoch-0 batch is only partially admitted); ``spill[q]``
    counts the extra admissions from the first batch after the cutoff.
    """

    epoch: int
    cutoffs: tuple
    spill: tuple

    def __post_init__(self):
        epoch = checked_int(self.epoch, "epoch")
        cutoffs, spill = list(self.cutoffs), list(self.spill)
        if len(cutoffs) != len(spill):
            raise ConfigurationError("cutoffs and spill must have one entry per queue")
        for q, cut in enumerate(cutoffs):
            if cut is not None:
                cutoffs[q] = checked_int(cut, f"queue {q + 1} cutoff", high=epoch)
            spill[q] = checked_int(spill[q], f"queue {q + 1} spill")
            if cut == epoch and spill[q]:
                raise ConfigurationError(f"queue {q + 1} spill past the message epoch")
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "cutoffs", tuple(cutoffs))
        object.__setattr__(self, "spill", tuple(spill))

    @property
    def n_queues(self) -> int:
        return len(self.cutoffs)


def encode_thresholds(ledger: QueueLedger, targets, epoch: int) -> ThresholdMessage:
    """Map cumulative departure targets to an admission-threshold message.

    ``targets[q]`` is d_q(epoch), the number of queue-q appliances that
    must have started by ``epoch``; it may not exceed the arrivals
    recorded through ``epoch``.
    """
    epoch = checked_int(epoch, "epoch")
    targets = checked_numbers(targets, "targets", integer=True)
    if targets.shape != (ledger.n_queues,):
        raise ConfigurationError(
            f"targets shape {targets.shape}, expected ({ledger.n_queues},)"
        )
    cum = ledger.arrival_history(epoch)
    wanted, arrived = targets.tolist(), cum[:, -1].tolist()
    excess = [d - a for d, a in zip(wanted, arrived)]
    if max(excess) > 0:
        q = excess.index(max(excess))
        raise ConfigurationError(
            f"target {wanted[q]} exceeds the {arrived[q]} arrivals "
            f"recorded for queue {q + 1} through epoch {epoch}"
        )
    return _encode(cum, targets[None], epoch)[0]


def threshold_messages(ledger: QueueLedger, epochs: int) -> list[ThresholdMessage]:
    """The messages of epochs 0..epochs-1 with the ledger's own cumulative
    departures as targets, as ``encode_thresholds`` gives them one by one."""
    epochs = checked_int(epochs, "epochs")
    targets = np.cumsum(ledger.departure_increments(0, epochs), axis=1).T
    return _encode(ledger.arrival_history(epochs - 1), targets, 0) if epochs > 0 else []


def _encode(cum: np.ndarray, targets: np.ndarray, first: int) -> list[ThresholdMessage]:
    """The messages of epochs first.. for the (E, Q) targets and the (Q,
    first+E) arrival table ``cum``.  As a_q is nondecreasing, the epochs <= l
    with a_q <= d_q(l) are a prefix; the cutoff is its length minus one."""
    epochs = np.arange(first, first + len(targets))
    covered = np.minimum([np.searchsorted(a, d, "right") for a, d in zip(cum, targets.T)],
                         epochs + 1).T
    spill = targets - np.where(covered > 0, cum[np.arange(len(cum)), covered - 1], 0)
    return [ThresholdMessage(epoch, [c if c >= 0 else None for c in cut], row)
            for epoch, cut, row in zip(epochs.tolist(), (covered - 1).tolist(), spill.tolist())]


def decode_and_admit(arrival_log, message: ThresholdMessage,
                     already_admitted=frozenset()) -> set:
    """Appliances switched on by ``message``, as indices into ``arrival_log``.

    ``arrival_log`` holds (epoch, queue_index) pairs, such as the
    ledger's derived (N, 2) log; an appliance's identity is its position in
    that log, and its within-batch sequence number is its rank among
    same-epoch, same-queue entries.  Admits every appliance at or before
    its queue's cutoff plus the first ``spill`` of the following batch,
    minus anything in ``already_admitted``; re-applying the same message
    therefore admits nothing new.  The log is read once, as an array.
    """
    log = np.asarray(arrival_log, np.int64).reshape(-1, 2)
    epochs, queues = log[:, 0], log[:, 1]
    unknown = (queues < 0) | (queues >= message.n_queues)
    if unknown.any():
        raise ConfigurationError(
            f"arrival log names unknown queue index {queues[np.argmax(unknown)]}"
        )
    has_cut = np.array([cut is not None for cut in message.cutoffs], dtype=bool)
    cut = np.array([-1 if c is None else c for c in message.cutoffs], dtype=np.int64)
    admit = has_cut[queues] & (epochs <= cut[queues])
    # the first ``spill`` of the batch after each cutoff (epoch 0 without one)
    batch = epochs == cut[queues] + 1
    for q, spill in enumerate(message.spill):
        admit[np.flatnonzero(batch & (queues == q))[:spill]] = True
    if already_admitted:
        prior = checked_numbers(list(already_admitted), "already_admitted", low=None, integer=True)
        admit[prior[(prior >= 0) & (prior < admit.size)]] = False
    return set(np.flatnonzero(admit).tolist())


def message_log_to_csv(messages, path) -> None:
    """One row per (epoch, queue); absent cutoffs are written as -1."""
    sizes = [msg.n_queues for msg in messages]
    epochs = np.repeat(np.array([msg.epoch for msg in messages], dtype=np.int64), sizes)
    queues = [q for n in sizes for q in range(1, n + 1)]
    cutoffs = [-1 if cut is None else cut for msg in messages for cut in msg.cutoffs]
    atomic_write_text(path, render_columns(["epoch", "queue", "cutoff"],
                                           [epochs, queues, cutoffs]))
