"""Request encoding: quantization of service requests into queue codes,
codebook design, arrival-time compression, and communication-rate
calculators for both uplink directions and the feedback channel.

A request (rate_kw, duration_epochs) is mapped to the code whose pulse
is closest in time-domain squared error.  Every distortion is read from
one (requests x codes) matrix, ``_distortions``: quantization takes a
row's argmin, cell masses count the argmins, the mean distortion
averages the row minima and Lloyd's assignment step reads the same
matrix.  Codebooks are square pulses with integer durations, fitted by
one deterministic growth: Lloyd refinement, then one more code at the
farthest sample.  Step Q of the growth is the size-Q fit, so results
are reproducible, the achieved distortion never increases with the
codebook size, and the smallest-Q search walks the growth once.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (ChargeCode, RawRequest, checked_codebook, checked_int, checked_numbers,
                   code_entry, codebook_from_entries, pulse_table, square_pulse)
from .csvio import atomic_write_text
from .errors import ConfigurationError


def _request_pulses(requests) -> np.ndarray:
    """(N, L) pulses of the requests, zero-padded to the longest: rate_kw
    over the duration, the last sample scaled by the fractional remainder
    so a row's energy is rate * duration exactly.  The one check of a
    request's shape and duration."""
    params = [req.params for req in requests]
    if not params:
        raise ConfigurationError("need at least one request sample")
    if bad := next((p for p in params if len(p) != 2), None):
        raise ConfigurationError(f"expected (rate_kw, duration_epochs) request, got {bad}")
    rate, duration = np.array(params).T
    checked_numbers(duration, "duration_epochs", strict=True)
    epochs = np.arange(math.ceil(duration.max()))
    return rate[:, None] * np.clip(duration[:, None] - epochs, 0.0, 1.0)


def _distortions(pulses: np.ndarray, code_pulses: np.ndarray) -> np.ndarray:
    """(N, Q) squared error of every pulse (rows) to every code pulse
    (columns), both zero-padded: ||g||^2 - 2 g.c + ||c||^2, clipped at 0."""
    m = min(pulses.shape[1], code_pulses.shape[1])
    cross = pulses[:, :m] @ code_pulses[:, :m].T
    out = (pulses**2).sum(axis=1)[:, None] - 2.0 * cross + (code_pulses**2).sum(axis=1)
    return np.maximum(out, 0.0)


@dataclass(frozen=True)
class Quantizer:
    """A fitted codebook plus the nearest-code map.

    Code ids are the consecutive integers 1..Q in codebook order, so
    ``codebook[i]`` has id ``i + 1`` and matrix row i everywhere else in
    the package.
    """

    codebook: tuple[ChargeCode, ...]

    def __post_init__(self):
        object.__setattr__(self, "codebook", checked_codebook(self.codebook))

    @property
    def n_codes(self) -> int:
        return len(self.codebook)

    def quantize(self, request: RawRequest) -> int:
        return quantize(request, self)


def _quantizer_distortions(quantizer: Quantizer, requests) -> np.ndarray:
    return _distortions(_request_pulses(requests), pulse_table(quantizer.codebook))


def quantize(request: RawRequest, quantizer: Quantizer) -> int:
    """Id of the code minimizing the pulse distortion; ties go to the
    lowest id."""
    return int(np.argmin(_quantizer_distortions(quantizer, [request]))) + 1


def cell_masses(quantizer: Quantizer, request_samples) -> np.ndarray:
    """Fraction of samples mapped to each code (sums to 1)."""
    nearest = _quantizer_distortions(quantizer, request_samples).argmin(axis=1)
    return np.bincount(nearest, minlength=quantizer.n_codes) / nearest.size


def mean_distortion(quantizer: Quantizer, request_samples) -> float:
    """Mean over the samples of the distortion to their nearest code."""
    return float(_quantizer_distortions(quantizer, request_samples).min(axis=1).mean())


def queue_arrival_rates(total_rate, quantizer: Quantizer, request_samples=None, masses=None):
    """Split a total arrival rate across queues by quantization-cell mass.

    ``total_rate`` may be a scalar or a per-epoch vector; ``masses`` may
    be given directly (closed form) or estimated from
    ``request_samples``.  Rows of the result sum to ``total_rate``
    exactly.
    """
    if masses is None:
        if request_samples is None:
            raise ConfigurationError("need request_samples or masses")
        masses = cell_masses(quantizer, request_samples)
    masses = checked_numbers(masses, "masses")
    if masses.shape != (quantizer.n_codes,):
        raise ConfigurationError(
            f"masses shape {masses.shape}, expected ({quantizer.n_codes},)"
        )
    total = masses.sum()
    if not total > 0:
        raise ConfigurationError("masses sum to zero")
    masses = masses / total
    rate = checked_numbers(total_rate, "total_rate")
    if rate.ndim == 0:
        return masses * float(rate)
    return np.outer(masses, rate)


@dataclass(frozen=True)
class ArrivalTimeCode:
    """Arrival epoch modulo the network-delay window D."""

    residue: int
    window_size: int

    def __post_init__(self):
        window = checked_int(self.window_size, "window_size", low=1)
        object.__setattr__(self, "window_size", window)
        object.__setattr__(self, "residue", checked_int(self.residue, "residue", high=window - 1))


def encode_arrival_time(arrival_epoch: int, window: int) -> ArrivalTimeCode:
    window = checked_int(window, "window", low=1)
    return ArrivalTimeCode(checked_int(arrival_epoch, "arrival_epoch") % window, window)


def decode_arrival_time(code: ArrivalTimeCode, notification_epoch: int) -> int:
    """Reconstruct the arrival epoch from its residue.

    Exact whenever the notification arrives less than ``window_size``
    epochs after the arrival; with larger delays the true epoch is
    unrecoverable from the residue alone.
    """
    d = code.window_size
    candidate = d * (checked_int(notification_epoch, "notification_epoch") // d) + code.residue
    if candidate > notification_epoch:
        candidate -= d
    return candidate


@dataclass(frozen=True)
class FeedbackRateParams:
    """Per-queue statistics bounding the feedback-channel rate:
    correlation of consecutive cutoffs and the cutoff variance."""

    min_correlation: np.ndarray
    delay_variance: np.ndarray

    def __post_init__(self):
        rho = np.atleast_1d(checked_numbers(self.min_correlation, "min_correlation"))
        var = np.atleast_1d(checked_numbers(self.delay_variance, "delay_variance", strict=True))
        if rho.shape != var.shape or rho.ndim != 1:
            raise ConfigurationError("correlation/variance vectors must have equal length")
        if (rho >= 1).any():
            raise ConfigurationError("min_correlation must lie in [0, 1)")
        object.__setattr__(self, "min_correlation", rho)
        object.__setattr__(self, "delay_variance", var)

    @property
    def n_queues(self) -> int:
        return self.min_correlation.size


def uplink_rate_hems(arrivals_per_interval, interval_s: float, window: int, n_codes: int):
    """Per-home uplink rate in bits per second: each arrival is notified
    with one of D*Q symbols, so the rate is lambda * log2(D*Q) / Delta
    with lambda in expected arrivals per interval."""
    checked_numbers(interval_s, "interval_s", strict=True)
    window, n_codes = checked_int(window, "window", low=1), checked_int(n_codes, "n_codes", low=1)
    lam = checked_numbers(arrivals_per_interval, "arrivals_per_interval")
    out = lam * math.log2(window * n_codes) / interval_s
    return float(out) if out.ndim == 0 else out


def uplink_rate_cems(arrivals_per_interval, n_codes: int):
    """Aggregator-side rate in bits per interval for the per-queue
    arrival-count vector: Q/2 * log2(2*pi*e*lambda)."""
    if checked_int(n_codes, "n_codes") == 0:
        return 0.0
    lam = checked_numbers(arrivals_per_interval, "arrivals_per_interval", strict=True)
    out = 0.5 * n_codes * np.log2(2.0 * math.pi * math.e * lam)
    return float(out) if out.ndim == 0 else out


def feedback_rate_bound(params: FeedbackRateParams, interval_s: float) -> float:
    """Bits per second needed for the differentially-encoded threshold
    feedback; per-queue terms that come out negative are clamped to
    zero (perfectly predictable cutoffs need no bits)."""
    checked_numbers(interval_s, "interval_s", strict=True)
    terms = 0.5 * np.log2(
        math.e * (1.0 - params.min_correlation**2) * params.delay_variance
    )
    return float(np.maximum(terms, 0.0).sum() / interval_s)


# -- codebook fitting ---------------------------------------------------

def _best_square(prefix_sums: np.ndarray, n_members: int, max_duration: int) -> tuple[float, int]:
    """Square pulse (rate, duration) minimizing total squared error for a
    member set with summed pulse prefix sums ``prefix_sums``."""
    u = np.arange(1, max_duration + 1)
    gain = prefix_sums[1 : max_duration + 1] ** 2 / u
    u_best = int(np.argmax(gain)) + 1
    rate = prefix_sums[u_best] / (n_members * u_best)
    return float(max(rate, 0.0)), u_best


def _grown_codebooks(request_samples, max_duration: int | None = None, n_iter: int = 60):
    """The fitted codebook at each size 1, 2, ...: the single best square
    fit of the whole sample, then, at every size, Lloyd refinement and
    one more code at the sample farthest from its nearest code.  Stops
    once every sample is matched exactly."""
    g = _request_pulses(request_samples)
    n, length = g.shape
    max_duration = length if max_duration is None else min(
        checked_int(max_duration, "max_duration", low=1), length)
    n_iter = checked_int(n_iter, "n_iter")
    s1 = np.hstack([np.zeros((n, 1)), np.cumsum(g, axis=1)])
    codes = [_best_square(s1.sum(axis=0), n, max_duration)]
    epochs = np.arange(max_duration)

    def distortions():
        rate, u = np.array(codes).T
        return _distortions(g, rate[:, None] * (epochs < u[:, None]))

    while True:
        d = distortions()
        for _ in range(n_iter):
            assign = d.argmin(axis=1)
            for c in range(len(codes)):
                members = assign == c
                if members.any():
                    codes[c] = _best_square(s1[members].sum(axis=0), int(members.sum()), max_duration)
            d = distortions()
            if (d.argmin(axis=1) == assign).all():
                break
        ordered = sorted(codes, key=lambda c: (c[1], c[0]))
        yield Quantizer(tuple(ChargeCode(i + 1, square_pulse(rate, u))
                              for i, (rate, u) in enumerate(ordered)))
        mind = d.min(axis=1)
        far = int(np.argmax(mind))
        if mind[far] <= 1e-15:
            return
        codes.append(_best_square(s1[far], 1, max_duration))


def fit_codebook(request_samples, n_codes: int, max_duration: int | None = None,
                 n_iter: int = 60) -> Quantizer:
    """Fit up to ``n_codes`` square-pulse codes to a request sample: step
    ``n_codes`` of the deterministic growth, or its last step if every
    sample is matched exactly sooner, so the returned codebook may be
    smaller than requested.  Because each growth step extends the
    previous fit, the achieved distortion is nonincreasing in
    ``n_codes``.
    """
    n_codes = checked_int(n_codes, "n_codes", low=1)
    *_, quant = itertools.islice(_grown_codebooks(request_samples, max_duration, n_iter), n_codes)
    return quant


def design_codebook_min_q(request_samples, max_distortion: float, peak_rate: float,
                          q_max: int = 64) -> Quantizer:
    """Smallest codebook whose rate-weighted distortion meets the target.

    ``peak_rate`` is the largest total arrival rate per interval; the
    weighted distortion is peak_rate times the mean per-request
    distortion (cell masses times per-cell means collapse to the sample
    mean).  Walks one growth up to ``q_max`` codes and raises
    ConfigurationError when no size attains ``max_distortion``.
    """
    checked_numbers(max_distortion, "max_distortion", strict=True)
    checked_numbers(peak_rate, "peak_rate", strict=True)
    samples = list(request_samples)
    for quant in itertools.islice(_grown_codebooks(samples), checked_int(q_max, "q_max", low=1)):
        if peak_rate * mean_distortion(quant, samples) <= max_distortion:
            return quant
    raise ConfigurationError(
        f"distortion target {max_distortion} unattainable with Q <= {q_max}"
    )


def design_codebook_min_distortion(request_samples, hems_cap: float, cems_cap: float,
                                   peak_rate: float, interval_s: float, window: int,
                                   q_max: int = 64) -> Quantizer:
    """Largest codebook whose uplink rates stay within both caps.

    Both rate formulas are nondecreasing in Q, so the distortion-optimal
    choice saturates the binding cap.  Raises ConfigurationError when
    even Q = 1 violates a cap.
    """
    checked_numbers(peak_rate, "peak_rate", strict=True)
    hems_cap = checked_numbers(hems_cap, "hems_cap", length=1).item()
    cems_cap = checked_numbers(cems_cap, "cems_cap", length=1).item()
    best_q = 0
    for n_codes in range(1, checked_int(q_max, "q_max", low=1) + 1):
        if (
            uplink_rate_hems(peak_rate, interval_s, window, n_codes) <= hems_cap
            and uplink_rate_cems(peak_rate, n_codes) <= cems_cap
        ):
            best_q = n_codes
        else:
            break
    if best_q == 0:
        raise ConfigurationError(
            f"rate caps ({hems_cap}, {cems_cap}) admit no codebook at all"
        )
    return fit_codebook(request_samples, best_q)


# -- serialization ------------------------------------------------------

def codebook_to_json(quantizer: Quantizer, path) -> None:
    """Write the codebook as a JSON list of ``code_entry``s: only
    constant-rate pulses are representable."""
    entries = [code_entry(code) for code in quantizer.codebook]
    atomic_write_text(path, json.dumps(entries, indent=2, sort_keys=True) + "\n")


def codebook_from_json(path) -> Quantizer:
    """Read a ``codebook_to_json`` file, its entries checked as a scenario's are."""
    with open(path) as fh:
        return Quantizer(codebook_from_entries(json.load(fh)))
