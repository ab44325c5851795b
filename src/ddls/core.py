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
        object.__setattr__(self, "params", _checked_vector(self.params, "params"))

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
        object.__setattr__(self, "id", checked_int(self.id, "code id", low=1))
        object.__setattr__(self, "pulse", _checked_vector(self.pulse, "pulse"))

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
        object.__setattr__(self, "arrival_epoch", checked_int(self.arrival_epoch, "arrival_epoch"))


def square_pulse(rate_kw: float, duration_epochs: int) -> tuple[float, ...]:
    """Constant-rate pulse over an integer number of epochs."""
    return (float(rate_kw),) * checked_int(duration_epochs, "duration_epochs", low=1)


def checked_int(value, name: str, low=0, high=None) -> int:
    """``value`` as a Python int, the one check of an integer field: an
    int or numpy integer, not a boolean, in [``low``, ``high``] (None: no
    bound).  Floats, whole ones too, text, None, booleans and values out
    of range are refused by ``name`` with a ``ConfigurationError``.
    (Count arrays go through ``checked_numbers`` with ``integer``, which
    takes whole floats.)"""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        rule = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigurationError(f"{name} must be an integer {rule}, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def checked_numbers(value, name: str, *, length=None, low=0, strict=False,
                    integer=False) -> np.ndarray:
    """``value``, a number or an array of them, as a new float array (int64
    with ``integer``), the one check of numbers that come from outside.

    A scalar is stretched to ``length`` and a vector must have it.  Text,
    booleans (one among numbers too), None, ragged lists, values that are
    not finite, below ``low`` (at ``low`` too if ``strict``; None: any
    sign) or, with ``integer``, not whole within 1e-9 are refused by
    ``name`` with a ``ConfigurationError``.  Integer input is never
    converted to float on its way to int64."""
    try:
        arr = np.array(value)
    except ValueError:  # a ragged list
        arr = np.array(None)
    if arr.ndim and not isinstance(value, np.ndarray):  # a stray boolean is cast to a number
        flat = value if arr.ndim == 1 else np.array(value, dtype=object).ravel()
        arr = arr if {bool, np.bool_}.isdisjoint(map(type, flat)) else np.array(None)
    if arr.dtype.kind not in "iuf":
        raise ConfigurationError(f"{name} must be numeric, got {value!r}")
    if length is not None and arr.ndim == 0:
        arr = np.full(length, arr)
    elif length is not None and arr.shape != (length,):
        raise ConfigurationError(f"{name} must be a scalar or length {length}, "
                                 f"got shape {arr.shape}")
    whole = np.rint(arr) if integer and arr.dtype.kind == "f" else arr
    if arr.dtype.kind == "f" and (bad := ~np.isfinite(arr)).any():
        rule = "finite"
    elif low is not None and (bad := arr <= low if strict else arr < low).any():
        rule = f"{'>' if strict else '>='} {low}"
    elif whole is not arr and (bad := np.abs(arr - whole) > 1e-9).any():
        rule = "whole"
    else:
        return whole.astype(np.int64 if integer else float, copy=False)
    raise ConfigurationError(f"{name} must be {rule}, got {arr[bad][0].item()!r}")


def _checked_vector(values, name: str) -> tuple[float, ...]:
    """A request's parameters or a pulse: a nonempty vector of finite numbers >= 0."""
    arr = checked_numbers(values, name)
    if arr.ndim != 1 or not arr.size:
        raise ConfigurationError(f"{name} must be a nonempty vector, got {values!r}")
    return tuple(arr.tolist())


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
    code_id = checked_int(entry.get("id", pos), f"codebook entry {pos}: id", low=1)
    if code_id != pos:
        raise ConfigurationError(f"codebook ids must run 1..Q, got {code_id!r} at slot {pos}")
    duration = checked_int(entry["duration_epochs"], f"codebook entry {pos}: duration_epochs",
                           low=1)
    rate = checked_numbers(entry["rate_kw"], f"codebook entry {pos}: rate_kw", length=1).item()
    return ChargeCode(pos, square_pulse(rate, duration))


def codebook_from_entries(entries) -> tuple[ChargeCode, ...]:
    """The codebook of a scenario's or codebook file's entries: the one reader of the format."""
    if isinstance(entries, (list, tuple)):
        entries = [charge_code_from_entry(entry, pos) for pos, entry in enumerate(entries, start=1)]
    return checked_codebook(entries)


def code_entry(code: ChargeCode) -> dict:
    """``code`` as a codebook-file entry {id, rate_kw, duration_epochs}, the
    one writer of the format; only a constant-rate pulse has one."""
    if any(abs(g - code.pulse[0]) > 1e-12 for g in code.pulse):
        raise ConfigurationError(f"code {code.id} is not a constant-rate pulse; cannot serialize")
    return {"id": code.id, "rate_kw": code.pulse[0], "duration_epochs": code.duration_epochs}


def checked_codebook(codes) -> tuple[ChargeCode, ...]:
    """``codes`` as a tuple, the one rule of a codebook: a nonempty list of
    ``ChargeCode``s whose ids run 1..Q in order, so code q is row q - 1."""
    if not isinstance(codes, (list, tuple)):
        raise ConfigurationError(f"a codebook must be a list, got {type(codes).__name__}")
    if not codes:
        raise ConfigurationError("empty codebook")
    for pos, code in enumerate(codes, start=1):
        if not isinstance(code, ChargeCode) or code.id != pos:
            raise ConfigurationError(f"codebook ids must run 1..Q, got {code!r} at slot {pos}")
    return tuple(codes)


def pulse_table(codebook) -> np.ndarray:
    """(Q, U) table of the codebook's pulses, zero-padded to the longest, U."""
    out = np.zeros((len(codebook), max(code.duration_epochs for code in codebook)))
    for row, code in zip(out, codebook):
        row[: code.duration_epochs] = code.pulse
    return out


def _increment_matrix(increments, n_queues: int) -> np.ndarray:
    arr = checked_numbers(increments, "departure increments")
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ConfigurationError(f"increments must be 2-d (queues x epochs), got shape {arr.shape}")
    if arr.shape[0] != n_queues:
        raise ConfigurationError(
            f"increment rows ({arr.shape[0]}) do not match codebook size ({n_queues})"
        )
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
    horizon = checked_int(horizon, "horizon")
    start_lag = checked_int(start_lag, "start_lag", high=1)
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
        code_id = checked_int(quantizer.quantize(ev.request), "quantized code id", low=1,
                              high=len(codebook))
        inc[code_id - 1, ev.arrival_epoch] += 1
    return synthesize_load(inc, codebook, horizon, start_lag=start_lag)
