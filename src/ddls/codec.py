"""Request encoding: quantization of service requests into queue codes,
codebook design, arrival-time compression, and communication-rate
calculators for both uplink directions and the feedback channel.

A request (rate_kw, duration_epochs) is mapped to the code whose pulse
is closest in time-domain squared error.  Codebooks are square pulses
with integer durations; fitting is a deterministic Lloyd refinement
grown one code at a time by farthest-point selection, so results are
reproducible and the achieved distortion never increases with the
codebook size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (ChargeCode, RawRequest, charge_code_from_entry, checked_numbers,
                   fractional_pulse, square_pulse)
from .csvio import atomic_write_text
from .errors import ConfigurationError


def pulse_sq_error(a, b) -> float:
    """Squared error between two pulses, zero-padded to a common length."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = max(a.size, b.size)
    pa = np.zeros(n)
    pa[: a.size] = a
    pb = np.zeros(n)
    pb[: b.size] = b
    return float(((pa - pb) ** 2).sum())


def request_distortion(request: RawRequest, code: ChargeCode) -> float:
    """Distortion gamma between a raw request and a code."""
    if len(request.params) != 2:
        raise ConfigurationError(
            f"expected (rate_kw, duration_epochs) request, got {request.params}"
        )
    return pulse_sq_error(fractional_pulse(request.rate_kw, request.duration_epochs), code.pulse)


@dataclass(frozen=True)
class Quantizer:
    """A fitted codebook plus the nearest-code map.

    Code ids are the consecutive integers 1..Q in codebook order, so
    ``codebook[i]`` has id ``i + 1`` and matrix row i everywhere else in
    the package.
    """

    codebook: tuple[ChargeCode, ...]

    def __post_init__(self):
        object.__setattr__(self, "codebook", tuple(self.codebook))
        if not self.codebook:
            raise ConfigurationError("empty codebook")
        ids = [code.id for code in self.codebook]
        if ids != list(range(1, len(ids) + 1)):
            raise ConfigurationError(f"code ids must be 1..Q in order, got {ids}")

    @property
    def n_codes(self) -> int:
        return len(self.codebook)

    def quantize(self, request: RawRequest) -> int:
        return quantize(request, self)

    def distortion(self, request: RawRequest) -> float:
        """Distortion achieved on ``request`` by its assigned code."""
        return request_distortion(request, self.codebook[self.quantize(request) - 1])


def quantize(request: RawRequest, quantizer: Quantizer) -> int:
    """Id of the code minimizing the pulse distortion; ties go to the
    lowest id."""
    best_id, best = None, math.inf
    for code in quantizer.codebook:
        d = request_distortion(request, code)
        if d < best:
            best_id, best = code.id, d
    return best_id


def cell_masses(quantizer: Quantizer, request_samples) -> np.ndarray:
    """Fraction of samples mapped to each code (sums to 1)."""
    samples = list(request_samples)
    if not samples:
        raise ConfigurationError("need at least one request sample")
    counts = np.zeros(quantizer.n_codes)
    for req in samples:
        counts[quantize(req, quantizer) - 1] += 1
    return counts / counts.sum()


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
        if self.window_size < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window_size}")
        if not 0 <= self.residue < self.window_size:
            raise ConfigurationError(
                f"residue {self.residue} outside [0, {self.window_size})"
            )


def encode_arrival_time(arrival_epoch: int, window: int) -> ArrivalTimeCode:
    if arrival_epoch < 0:
        raise ConfigurationError(f"arrival epoch must be >= 0, got {arrival_epoch}")
    return ArrivalTimeCode(residue=arrival_epoch % window, window_size=window)


def decode_arrival_time(code: ArrivalTimeCode, notification_epoch: int) -> int:
    """Reconstruct the arrival epoch from its residue.

    Exact whenever the notification arrives less than ``window_size``
    epochs after the arrival; with larger delays the true epoch is
    unrecoverable from the residue alone.
    """
    d = code.window_size
    candidate = d * (notification_epoch // d) + code.residue
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
    if window < 1 or n_codes < 1:
        raise ConfigurationError("window and n_codes must be >= 1")
    lam = checked_numbers(arrivals_per_interval, "arrivals_per_interval")
    out = lam * math.log2(window * n_codes) / interval_s
    return float(out) if out.ndim == 0 else out


def uplink_rate_cems(arrivals_per_interval, n_codes: int):
    """Aggregator-side rate in bits per interval for the per-queue
    arrival-count vector: Q/2 * log2(2*pi*e*lambda)."""
    if n_codes < 0:
        raise ConfigurationError(f"n_codes must be >= 0, got {n_codes}")
    if n_codes == 0:
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

def _sample_pulses(request_samples) -> np.ndarray:
    samples = list(request_samples)
    if not samples:
        raise ConfigurationError("need at least one request sample")
    pulses = []
    for req in samples:
        if len(req.params) != 2:
            raise ConfigurationError(
                f"expected (rate_kw, duration_epochs) request, got {req.params}"
            )
        pulses.append(fractional_pulse(req.rate_kw, req.duration_epochs))
    length = max(len(p) for p in pulses)
    mat = np.zeros((len(pulses), length))
    for i, p in enumerate(pulses):
        mat[i, : len(p)] = p
    return mat


def _best_square(prefix_sums: np.ndarray, n_members: int, max_duration: int) -> tuple[float, int]:
    """Square pulse (rate, duration) minimizing total squared error for a
    member set with summed pulse prefix sums ``prefix_sums``."""
    u = np.arange(1, max_duration + 1)
    gain = prefix_sums[1 : max_duration + 1] ** 2 / u
    u_best = int(np.argmax(gain)) + 1
    rate = prefix_sums[u_best] / (n_members * u_best)
    return float(max(rate, 0.0)), u_best


def _code_distortions(codes, s1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Distortion of every sample (rows) to every square code (cols):
    ||g||^2 - 2*rate*S1(u) + u*rate^2."""
    out = np.empty((t2.size, len(codes)))
    for c, (rate, u) in enumerate(codes):
        out[:, c] = t2 - 2.0 * rate * s1[:, u] + u * rate * rate
    return np.maximum(out, 0.0)


def fit_codebook(request_samples, n_codes: int, max_duration: int | None = None,
                 n_iter: int = 60) -> Quantizer:
    """Fit up to ``n_codes`` square-pulse codes to a request sample.

    Deterministic: starts from the single best square fit of the whole
    sample, then alternates farthest-point growth with Lloyd centroid
    refinement.  Growth stops early if every sample is already matched
    exactly, so the returned codebook may be smaller than requested.
    Because each growth step extends the previous fit, the achieved
    distortion is nonincreasing in ``n_codes``.
    """
    if n_codes < 1:
        raise ConfigurationError(f"n_codes must be >= 1, got {n_codes}")
    g = _sample_pulses(request_samples)
    n, length = g.shape
    max_duration = min(max_duration or length, length)
    if max_duration < 1:
        raise ConfigurationError(f"max_duration must be >= 1, got {max_duration}")
    s1 = np.hstack([np.zeros((n, 1)), np.cumsum(g, axis=1)])
    t2 = (g**2).sum(axis=1)

    codes = [_best_square(s1.sum(axis=0), n, max_duration)]
    while True:
        # Lloyd refinement at the current size
        assign = np.argmin(_code_distortions(codes, s1, t2), axis=1)
        for _ in range(n_iter):
            for c in range(len(codes)):
                members = assign == c
                if members.any():
                    codes[c] = _best_square(s1[members].sum(axis=0), int(members.sum()), max_duration)
            new_assign = np.argmin(_code_distortions(codes, s1, t2), axis=1)
            if (new_assign == assign).all():
                break
            assign = new_assign
        if len(codes) >= n_codes:
            break
        mind = _code_distortions(codes, s1, t2).min(axis=1)
        far = int(np.argmax(mind))
        if mind[far] <= 1e-15:
            break
        codes.append(_best_square(s1[far], 1, max_duration))

    codes.sort(key=lambda c: (c[1], c[0]))
    book = [
        ChargeCode(i + 1, square_pulse(rate, u)) for i, (rate, u) in enumerate(codes)
    ]
    return Quantizer(tuple(book))


def mean_distortion(quantizer: Quantizer, request_samples) -> float:
    samples = list(request_samples)
    return float(np.mean([quantizer.distortion(req) for req in samples]))


def design_codebook_min_q(request_samples, max_distortion: float, peak_rate: float,
                          q_max: int = 64) -> Quantizer:
    """Smallest codebook whose rate-weighted distortion meets the target.

    ``peak_rate`` is the largest total arrival rate per interval; the
    weighted distortion is peak_rate times the mean per-request
    distortion (cell masses times per-cell means collapse to the sample
    mean).  Raises ConfigurationError when no Q <= q_max attains
    ``max_distortion``.
    """
    checked_numbers(max_distortion, "max_distortion", strict=True)
    checked_numbers(peak_rate, "peak_rate", strict=True)
    samples = list(request_samples)
    for n_codes in range(1, q_max + 1):
        quant = fit_codebook(samples, n_codes)
        if peak_rate * mean_distortion(quant, samples) <= max_distortion:
            return quant
        if quant.n_codes < n_codes:
            break
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
    best_q = 0
    for n_codes in range(1, q_max + 1):
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
    """Write the codebook as a JSON list of {id, rate_kw,
    duration_epochs}.  Only constant-rate pulses are representable."""
    entries = []
    for code in quantizer.codebook:
        if any(abs(g - code.pulse[0]) > 1e-12 for g in code.pulse):
            raise ConfigurationError(
                f"code {code.id} is not a constant-rate pulse; cannot serialize"
            )
        entries.append(
            {"id": code.id, "rate_kw": code.pulse[0], "duration_epochs": len(code.pulse)}
        )
    atomic_write_text(path, json.dumps(entries, indent=2, sort_keys=True) + "\n")


def codebook_from_json(path) -> Quantizer:
    """Read a ``codebook_to_json`` file, its entries checked as a scenario's are."""
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ConfigurationError("codebook file must hold a JSON list")
    return Quantizer(tuple(charge_code_from_entry(entry, pos)
                           for pos, entry in enumerate(entries, start=1)))
