"""Domain types and discrete-time load synthesis for deferrable loads.

Appliances are grouped into service queues; every appliance in queue q
draws the same power pulse g_q once started.  The controllable part of
the aggregate demand is therefore determined entirely by the per-queue
cumulative departure (start) counts d_q(l): each unit increment of
d_q contributes one copy of g_q.  Load series are plain kW arrays on
the epoch grid, starting at epoch 0.

Two start conventions exist in the wild and both are supported through
``start_lag``: with ``start_lag=0`` (the default) a departure at epoch
k draws its first pulse sample at epoch k; with ``start_lag=1`` the
first sample lands at epoch k+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class RawRequest:
    """An appliance's un-quantized service request.

    ``params`` is the request vector; in this library it is
    ``(rate_kw, duration_epochs)`` for a constant-rate draw, where the
    duration may be fractional.
    """

    params: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not self.params:
            raise ValueError("request vector is empty")
        for p in self.params:
            if not np.isfinite(p) or p < 0:
                raise ValueError(f"request parameters must be finite and >= 0, got {self.params}")

    @property
    def rate_kw(self) -> float:
        return self.params[0]

    @property
    def duration_epochs(self) -> float:
        return self.params[1]


@dataclass(frozen=True)
class ChargeCode:
    """One quantization cell: a queue id and the power pulse its members draw.

    Ids are 1-based and unique within a codebook; row/column positions in
    matrices are ``id - 1``.
    """

    id: int
    pulse: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "pulse", tuple(float(g) for g in self.pulse))
        if self.id < 1:
            raise ValueError(f"code id must be >= 1, got {self.id}")
        if not self.pulse:
            raise ValueError("pulse is empty")
        for g in self.pulse:
            if not np.isfinite(g) or g < 0:
                raise ValueError(f"pulse samples must be finite and >= 0, got {self.pulse}")

    @property
    def duration_epochs(self) -> int:
        return len(self.pulse)

    @property
    def rate_kw(self) -> float:
        return max(self.pulse)

    @property
    def energy(self) -> float:
        """Total pulse energy in kW-epochs."""
        return float(sum(self.pulse))


@dataclass(frozen=True)
class ArrivalEvent:
    """A request arriving at the start of ``arrival_epoch``."""

    arrival_epoch: int
    request: RawRequest

    def __post_init__(self):
        if self.arrival_epoch < 0:
            raise ValueError(f"arrival_epoch must be >= 0, got {self.arrival_epoch}")


def square_pulse(rate_kw: float, duration_epochs: int) -> tuple[float, ...]:
    """Constant-rate pulse over an integer number of epochs."""
    if duration_epochs < 1 or duration_epochs != int(duration_epochs):
        raise ValueError(f"duration_epochs must be a positive integer, got {duration_epochs}")
    return (float(rate_kw),) * int(duration_epochs)


def is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def charge_code_from_entry(entry, pos: int) -> ChargeCode:
    """Codebook entry ``pos`` (1-based) of a scenario or codebook file: an
    object of ``duration_epochs``, ``rate_kw`` and optionally ``id`` = ``pos``."""
    if not isinstance(entry, dict):
        raise ConfigurationError(f"codebook entry {pos} must be an object, got {entry!r}")
    missing = sorted({"duration_epochs", "rate_kw"} - set(entry))
    if missing:
        raise ConfigurationError(f"codebook entry {pos} lacks {missing}")
    extra = set(entry) - {"id", "duration_epochs", "rate_kw"}
    if extra:
        raise ConfigurationError(
            f"codebook entry {pos} has unknown keys {sorted(map(str, extra))}"
        )
    code_id, duration, rate = entry.get("id", pos), entry["duration_epochs"], entry["rate_kw"]
    if code_id != pos or not is_int(code_id):
        raise ConfigurationError(f"codebook ids must run 1..Q, got {code_id!r} at slot {pos}")
    if not is_int(duration) or duration < 1:
        raise ConfigurationError(
            f"codebook entry {pos}: duration_epochs must be an integer >= 1, got {duration!r}"
        )
    if not is_real(rate) or not 0 <= rate < np.inf:
        raise ConfigurationError(
            f"codebook entry {pos}: rate_kw must be a finite number >= 0, got {rate!r}"
        )
    return ChargeCode(pos, square_pulse(rate, duration))


def fractional_pulse(rate_kw: float, duration_epochs: float) -> tuple[float, ...]:
    """Constant-rate pulse whose last sample is scaled by the fractional
    remainder of the duration, so the energy is rate * duration exactly."""
    if not duration_epochs > 0:
        raise ValueError(f"duration_epochs must be positive, got {duration_epochs}")
    n = int(np.ceil(duration_epochs))
    pulse = [float(rate_kw)] * n
    frac = duration_epochs - (n - 1)
    pulse[-1] = float(rate_kw) * frac
    return tuple(pulse)


def _increment_matrix(increments, n_queues: int) -> np.ndarray:
    arr = np.asarray(increments, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ConfigurationError(f"increments must be 2-d (queues x epochs), got shape {arr.shape}")
    if arr.shape[0] != n_queues:
        raise ConfigurationError(
            f"increment rows ({arr.shape[0]}) do not match codebook size ({n_queues})"
        )
    if arr.size and (arr < 0).any():
        raise ConfigurationError("departure increments must be nonnegative")
    return arr


def synthesize_load(
    departure_increments,
    codebook: list[ChargeCode],
    horizon: int,
    start_lag: int = 0,
) -> np.ndarray:
    """Aggregate load implied by per-queue departure increments.

    Parameters
    ----------
    departure_increments : array-like, shape (Q, n)
        Row q holds the number of queue-q starts at each epoch, i.e.
        d_q(l) - d_q(l-1).
    codebook : list of ChargeCode
        One code per queue, in row order.
    horizon : int
        Output length; pulse tails past the horizon are truncated.
    start_lag : {0, 1}
        Start convention, see module docstring.

    Returns
    -------
    ndarray of ``horizon`` kW samples starting at epoch 0:
    L(l) = sum_q sum_k [d_q(k) - d_q(k-1)] g_q(l - k - start_lag).
    """
    if start_lag not in (0, 1):
        raise ConfigurationError(f"start_lag must be 0 or 1, got {start_lag}")
    if horizon < 0:
        raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
    inc = _increment_matrix(departure_increments, len(codebook))
    out = np.zeros(horizon)
    for q, code in enumerate(codebook):
        row = inc[q]
        if not row.any():
            continue
        conv = np.convolve(row, np.asarray(code.pulse))
        lo = min(horizon, start_lag + conv.size)
        out[start_lag:lo] += conv[: lo - start_lag]
    return out


def unscheduled_load(
    arrivals: list[ArrivalEvent],
    codebook: list[ChargeCode],
    quantizer,
    horizon: int | None = None,
    start_lag: int = 0,
) -> np.ndarray:
    """Load when every arrival starts immediately (departures = arrivals).

    Each event's request is mapped to its queue with
    ``quantizer.quantize`` and the queue pulse starts at the arrival
    epoch.  ``horizon`` defaults to the smallest length holding every
    pulse tail.
    """
    max_u = max(code.duration_epochs for code in codebook) if codebook else 0
    if horizon is None:
        last = max((ev.arrival_epoch for ev in arrivals), default=-1)
        horizon = last + start_lag + max_u if last >= 0 else 0
    inc = np.zeros((len(codebook), max((ev.arrival_epoch for ev in arrivals), default=-1) + 1))
    for ev in arrivals:
        code_id = quantizer.quantize(ev.request)
        if not 1 <= code_id <= len(codebook):
            raise ConfigurationError(f"quantizer returned unknown code id {code_id}")
        inc[code_id - 1, ev.arrival_epoch] += 1
    return synthesize_load(inc, codebook, horizon, start_lag=start_lag)
