"""Receding-horizon start-time dispatch against a supply profile.

Each epoch a scheduler solves a T-step lookahead linear program over
per-queue cumulative departures, with future arrivals replaced by their
expected increments (certainty-equivalent control), rounds the
first-epoch decision to integers, commits it, subtracts the realized
load (the committed pulses, tails included) from the supply profile,
and re-solves one epoch later.  Only the first epoch of every plan is
ever executed, and an epoch at which every queue is empty solves no
window: its only decision is zero starts.  The scheduler only decides;
``simkit`` charges the run from its ledger and realized load.  A start
that the capacity cap holds back past the deadline is refused with
``FeasibilityError``.

``RecedingHorizonScheduler`` is a bank of M >= 1 such schedulers that
advance in lockstep.  It checks its static inputs once, when built, and
keeps every scheduler's cumulative tables and realized load in (M, ·)
arrays, so each epoch builds the right-hand sides and bounds of every
window in one array pass and commits every decision in a second; only
each busy scheduler's program and warm-started ``lp.Model`` (its push,
its simplex and its point read) are per scheduler.  Consecutive windows
differ only in those vectors, so each model starts from the basis its
last window left (a sibling's first, from the bank's first window's):
with one optimum a window (``_window_cost``), a start changes the path,
not the starts.  A solve that ends without an optimum (every window has
one, see ``build_program``) is refused with ``FeasibilityError``.
``HorizonInputs`` and ``build_program`` are the checked reference path
for one window, built from the same array functions.

Decision variables are the shifted cumulative departures
e_q(j) = d_q(l0+j) - d_q(l0-1), stacked queue-major, followed by the
per-epoch upward purchases up(j) and the downward ones net of the net
supply s, dn'(j) = dn(j) - s(j) >= -s(j).  The balance rows implement
(window load)(j) - up(j) + dn'(j) = 0, so s changes only column bounds,
and with positive prices up(j) = max(load - supply, 0) at any optimum.
The objective adds the balancing costs to the per-epoch delay charges
and a tie-break (``_window_cost``); ``extract_plan`` reports actual
window costs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import ChargeCode, checked_codebook, checked_int, checked_numbers, pulse_table
from .errors import ConfigurationError, FeasibilityError
from .lp import Entries, LinearProgram, LpSolution, Model
from .lp import solve as lp_solve
# unused here: bench/spans.py traces ddls.scheduler.stage_cost until ROADMAP item 1 drops it
from .market import stage_cost  # noqa: F401
from .queues import QueueLedger


def build_gamma(codebook, lookahead: int, start_lag: int = 0):
    """Map stacked cumulative departures (queue-major) to window load, as
    a sparse (T+1) x Q(T+1) csc_array that stores only nonzero entries.

    Block q is the lower-triangular Toeplitz matrix of the first
    difference of queue q's pulse, shifted down by ``start_lag`` and cut
    at the window's end: a pulse convolved with a first difference, so
    gamma @ D.flatten() equals synthesize_load of the increments when
    the window starts from an empty past.  The first difference treats
    the column before the window as zero; callers handing in shifted
    cumulatives (d - d_prev) therefore get exactly the in-window starts'
    load.
    """
    from scipy.sparse import csc_array
    data, rows, cols, shape = _gamma_entries(codebook, lookahead, start_lag)
    return csc_array((data, (rows, cols)), shape=shape)


def _gamma_entries(codebook, lookahead: int, start_lag: int) -> Entries:
    """``build_gamma``'s nonzero entries, each position once."""
    codebook, lookahead, _, max_u = _window_horizons(codebook, lookahead, None)
    start_lag = checked_int(start_lag, "start_lag", high=1)
    size = lookahead + 1
    pulses = np.pad(pulse_table(codebook), ((0, 0), (start_lag, size - start_lag - max_u)))
    steps = np.diff(pulses, prepend=0.0)
    queue, lag = steps.nonzero()
    # entry (c + lag, q * size + c) of every column c that the lag keeps in the window
    cols = np.arange(size)[:, None]
    rows = cols + lag
    kept = rows < size
    return Entries(np.broadcast_to(steps[queue, lag], rows.shape)[kept], rows[kept],
                   (cols + queue * size)[kept], (size, len(codebook) * size))


def certainty_equivalent_arrivals(observed, rates, start_epoch: int, lookahead: int,
                                  t1: int = 0, t2: int | None = None,
                                  known_future=None) -> np.ndarray:
    """Cumulative arrival matrix over the window epochs l0..l0+T.

    ``observed`` is a cumulative arrival count matrix, column l being
    a_q(l), covering at least epochs 0..l0.  Column 0 of the result
    holds the counts at l0; beyond that the window is split into a
    full-knowledge interval (offsets 1..t1, realized increments read
    from ``known_future``, per-epoch counts indexed by absolute epoch),
    a statistical interval (t1+1..t2, expected per-epoch increments from
    ``rates``, fractional values allowed), and a no-knowledge tail with
    zero increments.  ``observed`` may stack several schedulers' (Q, ·)
    matrices on leading axes, all sharing ``rates`` and ``known_future``.
    """
    start_epoch = checked_int(start_epoch, "start_epoch")
    lookahead, t1 = checked_int(lookahead, "lookahead"), checked_int(t1, "t1")
    t2 = lookahead if t2 is None else checked_int(t2, "t2")
    observed = np.asarray(observed)
    if observed.shape[-1] < start_epoch + 1:
        raise ConfigurationError(
            f"observed history covers {observed.shape[-1]} epochs, need {start_epoch + 1}"
        )
    if not t1 <= t2 <= lookahead:
        raise ConfigurationError(
            f"knowledge horizons must satisfy 0 <= t1 <= t2 <= T, got ({t1}, {t2}, {lookahead})"
        )
    if t1 > 0 and known_future is None:
        raise ConfigurationError("t1 > 0 requires known future arrivals")
    if known_future is not None:
        known_future = np.asarray(known_future)
    r = None if rates is None else np.asarray(rates, dtype=float)
    return _arrival_ramp(observed, r, start_epoch, lookahead, t1, t2, known_future)


def _arrival_ramp(observed, rates, l0: int, lookahead: int, t1: int, t2: int, known) -> np.ndarray:
    """``certainty_equivalent_arrivals`` of checked inputs, in one fresh array."""
    # increments by window offset j; column 0 holds the counts at l0
    ramp = np.zeros(observed.shape[:-1] + (lookahead + 1,))
    ramp[..., 0] = observed[..., l0]
    if t1:
        known = known[..., l0 + 1 : l0 + 1 + t1]
        ramp[..., 1 : 1 + known.shape[-1]] = known
    if rates is not None and rates.ndim == 1:
        ramp[..., t1 + 1 : t2 + 1] = rates[:, None]
    elif rates is not None:
        forecast = rates[:, l0 + t1 + 1 : l0 + t2 + 1]
        ramp[..., t1 + 1 : t1 + 1 + forecast.shape[1]] = forecast
    return np.add.accumulate(ramp, axis=-1, out=ramp)


def _window_vectors(observed, arrivals, prior, net_supply, start_epoch: int, deadline, completion):
    """A window's equality right-hand side and lower and upper bounds, from
    its history and cumulative arrivals (Q, ·), the departures before it
    (Q,) and its net supply (T+1,); windows may be stacked on leading axes.
    The bounds are fresh arrays, written in place.

    e lies between the deadline floor (everything that arrived
    ``deadline`` epochs before a window epoch has departed by then) and
    the arrivals, both net of the prior departures; up lies in [0, inf)
    and dn' in [-net supply, inf), so each balance row's right-hand side
    is 0 and each completion row's is its e column's upper bound."""
    l0, width = start_epoch, arrivals.shape[-1]
    n_e = arrivals.shape[-2] * width
    lower = np.zeros(arrivals.shape[:-2] + (n_e + 2 * width,))
    np.negative(net_supply, out=lower[..., n_e + width :])
    upper = np.empty(lower.shape)
    upper[..., n_e:] = np.inf  # the e part is the shifted arrivals, written below
    floor = lower[..., :n_e].reshape(arrivals.shape)
    shifted = upper[..., :n_e].reshape(arrivals.shape)
    prior = prior[..., None]
    np.maximum(np.subtract(arrivals, prior, out=shifted), 0.0, out=shifted)
    if deadline is not None:
        # offset j is due from l0 + j - deadline: observed up to j = deadline, then forecast,
        # whose floor is the shifted arrivals' own; before that, nothing is due
        first, mid = max(deadline - l0, 0), min(deadline + 1, width)
        if first < mid:
            due = floor[..., first:mid]
            np.subtract(observed[..., l0 - deadline + first : l0 - deadline + mid], prior, out=due)
            np.maximum(due, 0.0, out=due)
        if mid < width:
            floor[..., mid:] = shifted[..., 1 : width - deadline]
        np.minimum(floor, shifted, out=floor)
    rhs = np.concatenate((np.zeros_like(net_supply), upper.take(completion, axis=-1)), axis=-1)
    return rhs, lower, upper


def _window_cost(delay_prices, price_up, price_dn) -> np.ndarray:
    """A window's costs: each e_q(j) earns its queue's delay price plus a
    tie-break eps*w(q, j), w(q, j) = (T+1-j)(2T+2-j)/(2T+2) * (1 + q/(Q+1));
    then the up and dn prices.  The tie-break (Charnes, "Optimality and
    degeneracy in linear programming", 1952) keeps, of a window's optimal
    points, the one that starts earliest, then the higher queues, so the
    rounded starts do not depend on the vertex a solve reaches.  w is
    convex in j, from T+1 down to about 1/2: were it affine, a trade of one
    pulse shape's starts for another's that keeps the load and each queue's
    count, sum and sum of squares of start epochs would tie (crowd seed 0
    has one).  eps is a thousandth of the smallest positive price (0 with
    none): it scales with the prices, and on the shipped ones eps*w is well
    above HiGHS's 1e-7 dual tolerance."""
    q, width = delay_prices.size, price_up.size
    prices = np.concatenate((delay_prices, price_up, price_dn))
    positive = prices[prices > 0]
    eps = 1e-3 * positive.min() if positive.size else 0.0
    later = width - np.arange(width)  # T+1-j
    w = later * (later + width) / (2 * width) * (1 + np.arange(q)[:, None] / (q + 1))
    return np.concatenate(((-delay_prices[:, None] - eps * w).ravel(), price_up, price_dn))


def _rounded_departures(e0, prior, arrived) -> np.ndarray:
    """Cumulative departures from relaxed first-epoch ones: the cumulative
    value rounded half-to-even and clamped between the prior departures
    and the arrivals so far.  It is first snapped to a multiple of 1e-6, so
    that where the optimum sits at a half, rounding error from the path the
    solver took (as from a sibling's basis) cannot decide the side."""
    d0 = np.rint(np.round(e0 + prior, 6))
    return np.minimum(np.maximum(d0, prior, out=d0), arrived, out=d0)


def _window_horizons(codebook, lookahead: int, deadline) -> tuple:
    """The codebook (``checked_codebook``), the lookahead and the deadline
    (None: no deadline) as checked integers, both covering the longest
    pulse, and that pulse's length."""
    codebook = checked_codebook(codebook)
    max_u = max(code.duration_epochs for code in codebook)
    lookahead = checked_int(lookahead, "lookahead", low=1)
    if lookahead < max_u:
        raise ConfigurationError(f"lookahead {lookahead} shorter than the longest pulse ({max_u})")
    deadline = None if deadline is None else checked_int(deadline, "deadline_epochs", low=1)
    if deadline is not None and deadline < max_u:
        raise ConfigurationError(f"deadline of {deadline} epochs is shorter than the longest pulse")
    return codebook, lookahead, deadline, max_u


@dataclass(frozen=True)
class SchedulePlan:
    """One solved window: cumulative departures and balancing purchases."""

    departures: np.ndarray  # (Q, T+1)
    up_kw: np.ndarray       # (T+1,)
    dn_kw: np.ndarray       # (T+1,)
    objective: float


@dataclass
class HorizonInputs:
    """Everything one lookahead solve needs.

    ``observed`` holds the cumulative arrival counts through the
    decision epoch (column l is a_q(l)); ``zic_kw`` is the net supply
    over the window: the supply profile minus the load of the starts
    already committed.
    """

    start_epoch: int
    observed: np.ndarray            # (Q, start_epoch+1) cumulative arrivals
    prior_departures: np.ndarray    # (Q,) cumulative departures through l0-1
    zic_kw: np.ndarray              # (T+1,) net supply over the window
    price_up: np.ndarray            # (T+1,)
    price_dn: np.ndarray            # (T+1,)
    delay_prices: np.ndarray        # (Q,)
    codebook: tuple[ChargeCode, ...]
    lookahead: int
    forecast_rates: np.ndarray | None = None
    deadline_epochs: int | None = None
    t1: int = 0
    known_future: np.ndarray | None = None
    start_lag: int = 0
    _arrivals: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.codebook, self.lookahead, self.deadline_epochs, _ = _window_horizons(
            self.codebook, self.lookahead, self.deadline_epochs)
        q, t = len(self.codebook), self.lookahead
        for name, high in (("start_epoch", None), ("t1", t), ("start_lag", 1)):
            setattr(self, name, checked_int(getattr(self, name), name, high=high))
        self.zic_kw = checked_numbers(self.zic_kw, "zic_kw", length=t + 1, low=None)
        self.price_up = checked_numbers(self.price_up, "price_up", length=t + 1)
        self.price_dn = checked_numbers(self.price_dn, "price_dn", length=t + 1)
        self.delay_prices = checked_numbers(self.delay_prices, "delay_prices", length=q)
        for name in ("forecast_rates", "known_future"):
            if getattr(self, name) is not None:
                setattr(self, name, checked_numbers(getattr(self, name), name))
        if self.t1 > 0 and self.known_future is None:
            raise ConfigurationError("t1 > 0 requires known future arrivals")
        self.observed = np.asarray(self.observed)
        self.prior_departures = np.asarray(self.prior_departures)
        if self.observed.shape != (q, self.start_epoch + 1):
            raise ConfigurationError(
                f"observed shape {self.observed.shape}, expected ({q}, {self.start_epoch + 1})"
            )
        if self.observed.shape[1] > 1 and (np.diff(self.observed, axis=1) < 0).any():
            raise ConfigurationError("observed counts must be cumulative (nondecreasing)")
        if self.prior_departures.shape != (q,):
            raise ConfigurationError("prior_departures must have length Q")
        if (self.prior_departures > self.observed[:, -1]).any():
            raise ConfigurationError("prior departures exceed observed arrivals")

    @property
    def n_queues(self) -> int:
        return len(self.codebook)

    def arrival_matrix(self) -> np.ndarray:
        """The window's cumulative arrivals, computed once; read-only."""
        if self._arrivals is None:
            arrivals = certainty_equivalent_arrivals(
                self.observed, self.forecast_rates, self.start_epoch, self.lookahead,
                t1=self.t1, known_future=self.known_future,
            )
            arrivals.flags.writeable = False
            self._arrivals = arrivals
        return self._arrivals


@functools.lru_cache(maxsize=16)
def _window_rows(codebook, lookahead: int, start_lag: int) -> tuple[LinearProgram, np.ndarray]:
    """The window LP's rows, which no epoch changes, as a template
    program to ``fill``, and the column of each queue's completion
    variable (read-only).

    The rows are the T+1 balance rows (gamma, -up, +dn') and one
    completion row per queue, then the Q*T monotonicity rows
    e(j) - e(j-1) >= 0, each built sparse from its (row, column, value)
    entries.  One template per (codebook, T, start lag) is shared by
    every window and every scheduler that asks for it.
    """
    q, width = len(codebook), lookahead + 1
    n_e = q * width
    n = n_e + 2 * width
    epochs = np.arange(width)
    queues = np.arange(q)
    completion = queues * width + np.array([lookahead - code.duration_epochs for code in codebook])
    completion.flags.writeable = False

    gamma = _gamma_entries(codebook, lookahead, start_lag)
    ones = np.ones(width)
    eq = Entries(np.concatenate((gamma.data, -ones, ones, np.ones(q))),
                 np.concatenate((gamma.row, epochs, epochs, width + queues)),
                 np.concatenate((gamma.col, n_e + epochs, n_e + width + epochs, completion)),
                 (width + q, n))

    later = (queues[:, None] * width + epochs[1:]).ravel()
    ineq = Entries(np.repeat([1.0, -1.0], later.size), np.tile(np.arange(later.size), 2),
                   np.concatenate((later, later - 1)), (later.size, n))
    template = LinearProgram(np.zeros(n), eq, np.zeros(width + q), ineq, np.zeros(later.size))
    return template, completion


def build_program(inputs: HorizonInputs) -> LinearProgram:
    """Assemble the window LP.

    Variables: e (queue-major, Q(T+1)), then up (T+1), then dn' (T+1).
    Starting everything as soon as it arrives (e at its upper bound, up
    and dn' - (-s) the two sides of each balance residual) meets every row
    and bound, and the costs are bounded below, so the program always has
    an optimum.  The rows come from the ``_window_rows`` template; only the
    cost, the bounds and the equality right-hand side are filled per
    window, by the array functions a scheduler bank fills its windows
    with, and checked by ``LinearProgram.fill``.
    """
    template, completion = _window_rows(inputs.codebook, inputs.lookahead, inputs.start_lag)
    cost = _window_cost(inputs.delay_prices, inputs.price_up, inputs.price_dn)
    vectors = _window_vectors(inputs.observed, inputs.arrival_matrix(), inputs.prior_departures,
                              inputs.zic_kw, inputs.start_epoch, inputs.deadline_epochs,
                              completion)
    return template.fill(cost, *vectors)


def extract_plan(solution: LpSolution, inputs: HorizonInputs) -> SchedulePlan:
    """Turn an optimal LP point into a SchedulePlan.

    dn = dn' + s, and the balancing pair is cleaned so at most one side
    is nonzero per epoch (overlap can only appear where a price is zero,
    and is always removable).  The objective is the actual window cost:
    the program's, with the delay cost of the backlog in place of the e
    costs (tie-break included) and price_dn * s added back."""
    if not solution.is_optimal:
        raise ConfigurationError(f"cannot extract a plan from status {solution.status!r}")
    q, t = inputs.n_queues, inputs.lookahead
    width = t + 1
    e = solution.values[: q * width].reshape(q, width)
    up = solution.values[q * width : q * width + width].copy()
    dn = solution.values[q * width + width : q * width + 2 * width] + inputs.zic_kw
    overlap = np.minimum(up, dn)
    up -= overlap
    dn -= overlap
    e_cost = _window_cost(inputs.delay_prices, inputs.price_up, inputs.price_dn)[: q * width]
    backlog = inputs.arrival_matrix() - inputs.prior_departures[:, None] - e
    objective = solution.objective - e_cost @ e.ravel() + inputs.delay_prices @ backlog.sum(axis=1)
    objective += inputs.price_dn @ (inputs.zic_kw - overlap) - inputs.price_up @ overlap
    return SchedulePlan(
        departures=e + inputs.prior_departures[:, None],
        up_kw=up,
        dn_kw=dn,
        objective=float(objective),
    )


def round_and_commit(relaxed: LpSolution, inputs: HorizonInputs) -> np.ndarray:
    """Integer departure counts for the window's first epoch: round the
    relaxed cumulative value half-to-even, clamp it between the prior
    cumulative count and the observed arrivals, discard the rest of the
    plan."""
    if not relaxed.is_optimal:
        raise ConfigurationError(f"cannot commit from status {relaxed.status!r}")
    width = inputs.lookahead + 1
    e0 = relaxed.values[: inputs.n_queues * width : width]
    prior = inputs.prior_departures
    return (_rounded_departures(e0, prior, inputs.observed[:, -1]) - prior).astype(np.int64)


def _checked_caps(cap, rows: int) -> np.ndarray:
    """(rows,) caps from one cap or one per row; None and inf are no cap."""
    raw = np.array(np.inf if cap is None else cap, dtype=object)
    free = raw == np.inf
    caps = checked_numbers(np.where(free, 0, raw).tolist(), "capacity_cap", length=rows)
    caps[np.broadcast_to(free, caps.shape)] = np.inf
    return caps


def apply_capacity_cap(committed, cap) -> np.ndarray:
    """Limit the starts of one epoch, (Q,) or (M, Q) with a cap per row,
    as if slots were granted one at a time round-robin from the lowest
    queue id: every queue gets min(count, k) for the largest level k that
    fits the cap, and the slots left over go to the lowest-id queues
    still waiting."""
    counts = np.array(committed, dtype=np.int64)
    rows = counts.reshape(-1, counts.shape[-1])
    total = rows.sum(axis=1)
    limit = np.minimum(np.floor(_checked_caps(cap, len(rows))), total).astype(np.int64)
    over = np.flatnonzero(limit < total)
    if over.size:
        wanted, limit = rows[over], limit[over]
        ascending = np.sort(wanted, axis=1)
        below = np.cumsum(ascending, axis=1) - ascending  # held by the queues below each
        width = wanted.shape[1] - np.arange(wanted.shape[1])  # queues at or above each
        # the levels that fit are the counts c_(j) of a prefix; k lies above the last
        j = (below + ascending * width <= limit[:, None]).sum(axis=1)
        level = ((limit - below[np.arange(over.size), j]) // width[j])[:, None]
        granted = np.minimum(wanted, level)
        waiting = wanted > level
        left = (limit - granted.sum(axis=1))[:, None]
        rows[over] = granted + (waiting & (np.cumsum(waiting, axis=1) <= left))
    return counts


@dataclass(frozen=True)
class StepResult:
    """One epoch of a bank: each scheduler's (M, Q) starts and (M,) whether it solved a window."""

    epoch: int
    committed: np.ndarray
    windows: np.ndarray


class RecedingHorizonScheduler:
    """A bank of M >= 1 receding-horizon schedulers in lockstep.

    They share the codebook, the supply ``zic_kw`` and prices (which must
    cover every epoch the run touches plus the lookahead), the delay
    prices, the forecast, the deadline and the start lag.  Each has its
    own queues, realized load, window model and ``capacity_cap`` (None
    or inf for none, one for all, or one per scheduler).  With
    ``known_arrivals`` (per-epoch counts, absolute epochs) the windows
    see the realized future; otherwise they extrapolate ``arrival_rates``.
    Each scheduler decides exactly what it would alone: only the array
    passes and the first window's basis are shared.  Column l + 1 of the (M, Q, ·) tables holds every
    scheduler's a_q(l) and d_q(l); ``ledgers`` copies them out.
    """

    def __init__(self, codebook, zic_kw, price_up, price_dn, delay_prices,
                 lookahead: int, *, arrival_rates=None, deadline_epochs=None,
                 capacity_cap=None, start_lag=0, known_arrivals=None, n_schedulers: int = 1):
        self.codebook, self.lookahead, self.deadline_epochs, max_u = _window_horizons(
            codebook, lookahead, deadline_epochs)
        self.n_queues = q = len(self.codebook)
        self.zic_kw = checked_numbers(zic_kw, "zic_kw", low=None)
        horizon = self.zic_kw.size
        self.price_up = checked_numbers(price_up, "price_up", length=horizon)
        self.price_dn = checked_numbers(price_dn, "price_dn", length=horizon)
        self.delay_prices = checked_numbers(delay_prices, "delay_prices", length=q)
        self.n_schedulers = m = checked_int(n_schedulers, "n_schedulers", low=1)
        self.arrival_rates = (
            None if arrival_rates is None else checked_numbers(arrival_rates, "arrival_rates")
        )
        self.capacity_cap = _checked_caps(capacity_cap, m)
        self._capped = np.isfinite(self.capacity_cap).any()
        self.start_lag = checked_int(start_lag, "start_lag", high=1)
        self.known_arrivals = (
            None if known_arrivals is None else checked_numbers(known_arrivals, "known_arrivals")
        )

        self.epoch = 0
        self._arr = np.zeros((m, q, 9), dtype=np.int64)
        self._dep = np.zeros_like(self._arr)
        self._last = [-1, -1]  # the bank's last epoch of arrivals, of departures
        self._flex = np.zeros((m, horizon + max_u + 1))
        self._template, self._completion = _window_rows(self.codebook, self.lookahead,
                                                        self.start_lag)
        self._models = [Model(self._template) for _ in range(m)]  # warm-started window LPs
        first_basis = [] if m > 1 else None  # see ``Model.first_basis``; one list a bank
        for model in self._models:
            model.first_basis = first_basis
        self._prices = np.stack((self.price_up, self.price_dn))
        self._cost = self._cost_prices = None  # the last window's costs (read-only) and prices
        self._pulses = pulse_table(self.codebook)[:, None]  # (Q, 1, U)

    def _counts(self, counts, epochs: tuple = ()) -> np.ndarray:
        """Checked (M, Q) + ``epochs`` counts; an M = 1 bank also takes (Q,) + ``epochs``."""
        counts = np.asarray(counts)
        if self.n_schedulers == 1 and counts.ndim == 1 + len(epochs):
            counts = counts[None]
        return QueueLedger._check_counts(counts, (self.n_schedulers, self.n_queues) + epochs)

    def observe_arrivals(self, counts) -> None:
        """Record this epoch's arrivals (see ``_counts``)."""
        self._arr[:, :, self.epoch + 1] += self._counts(counts)
        self._last[0] = self.epoch

    def realized_load(self) -> np.ndarray:
        """(M, ·) synthesized flexible load so far, committed pulse tails included."""
        return self._flex.copy()

    def ledgers(self) -> list[QueueLedger]:
        """Each scheduler's queue ledger, through the last epoch the bank recorded."""
        arr, dep = self._last
        return [QueueLedger.from_tables(self._arr[i, :, : arr + 2], self._dep[i, :, : dep + 2])
                for i in range(self.n_schedulers)]

    @property
    def ledger(self) -> QueueLedger:
        """The ledger of an M = 1 bank."""
        if self.n_schedulers != 1:
            raise ConfigurationError("a bank of several schedulers has one ledger each")
        return self.ledgers()[0]

    def _window(self, rows):
        """History and net supply of the windows of scheduler(s) ``rows``
        (an index, indices or a slice)."""
        l0, t = self.epoch, self.lookahead
        if l0 + t >= self.zic_kw.size:
            raise ConfigurationError(f"supply profile ends at epoch {self.zic_kw.size - 1}, "
                                     f"window needs {l0 + t}")
        return (self._arr[rows, :, 1 : l0 + 2],
                self.zic_kw[l0 : l0 + t + 1] - self._flex[rows, l0 : l0 + t + 1])

    def horizon_inputs(self, i: int = 0) -> HorizonInputs:
        """Scheduler i's window at this epoch, as checked inputs."""
        i = checked_int(i, "i", high=self.n_schedulers - 1)
        observed, net = self._window(i)
        observed.flags.writeable = False
        l0, t = self.epoch, self.lookahead
        return HorizonInputs(
            start_epoch=l0, observed=observed, prior_departures=self._dep[i, :, l0].copy(),
            zic_kw=net, price_up=self.price_up[l0 : l0 + t + 1],
            price_dn=self.price_dn[l0 : l0 + t + 1], delay_prices=self.delay_prices,
            codebook=self.codebook, lookahead=t, forecast_rates=self.arrival_rates,
            deadline_epochs=self.deadline_epochs, start_lag=self.start_lag,
            t1=t if self.known_arrivals is not None else 0, known_future=self.known_arrivals,
        )

    def step(self) -> StepResult:
        """Advance every scheduler one epoch.

        A scheduler whose queues are all empty commits zero starts
        and solves no window (rounding would clip any solution to that,
        the cap has nothing to limit and no appliance can be late).  One
        array pass builds every scheduler's window, each busy one solves it
        through its own model in scheduler order, and one pass rounds,
        caps and checks all first epochs and commits them."""
        l0, m, q, t = self.epoch, self.n_schedulers, self.n_queues, self.lookahead
        prior, arrived = self._dep[:, :, l0], self._arr[:, :, l0 + 1]
        busy = (arrived > prior).any(axis=1)
        solving = busy.nonzero()[0].tolist()
        if not solving:
            committed, departed = np.zeros((m, q), dtype=np.int64), prior
        else:
            observed, net = self._window(slice(None))
            t1 = t if self.known_arrivals is not None else 0
            arrivals = _arrival_ramp(observed, self.arrival_rates, l0, t, t1, t,
                                     self.known_arrivals)
            prices = self._prices[:, l0 : l0 + t + 1]
            if self._cost is None or not np.array_equal(prices, self._cost_prices):
                self._cost, self._cost_prices = _window_cost(self.delay_prices, *prices), prices
                self._cost.flags.writeable = False  # so that the models skip comparing it
            programs = self._template.fill_rows(self._cost, *_window_vectors(
                observed, arrivals, prior, net, l0, self.deadline_epochs, self._completion),
                solving)
            first = np.zeros((m, q))  # an idle scheduler's zero rounds to zero starts
            for i, program in zip(solving, programs):
                solution = lp_solve(program, model=self._models[i])
                if not solution.is_optimal:
                    raise FeasibilityError(
                        f"window LP unsolvable at epoch {l0}: {solution.status}", i)
                first[i] = solution.values[: q * (t + 1) : t + 1]
            departed = _rounded_departures(first, prior, arrived).astype(np.int64)
            committed = departed - prior
            if self._capped:
                committed = apply_capacity_cap(committed, self.capacity_cap)
                departed = prior + committed
            if self.deadline_epochs is not None:
                late = departed < self._arr[:, :, max(l0 - self.deadline_epochs, -1) + 1]
                if late.any():
                    i, queue = np.argwhere(late)[0].tolist()
                    raise FeasibilityError(
                        f"epoch {l0}: queue {queue + 1} has appliances waiting past the "
                        f"{self.deadline_epochs}-epoch deadline "
                        f"(capacity cap {self.capacity_cap[i]:g})", i)
            # a window ends before the realized load does, so no pulse is cut; each
            # queue's pulses are added to the load in queue order, as each scheduler
            # alone would: a running sum down the queue axis is always sequential,
            # where add.reduce may sum pairwise (no starts add +0.0)
            load = self._flex[:, l0 + self.start_lag : l0 + self.start_lag + self._pulses.shape[2]]
            terms = committed.T[:, :, None] * self._pulses
            terms[0] += load
            load[...] = np.add.accumulate(terms, axis=0)[-1]
        self._dep[:, :, l0 + 1] = departed
        self._last[1] = l0
        self.epoch += 1
        if self.epoch + 2 > self._arr.shape[2]:
            self._arr, self._dep = (np.concatenate((table, np.zeros_like(table)), axis=2)
                                    for table in (self._arr, self._dep))
        self._arr[:, :, self.epoch + 1] = self._arr[:, :, self.epoch]
        return StepResult(epoch=l0, committed=committed, windows=busy)

    def run(self, arrival_increments, drain: bool = True) -> None:
        """Feed per-epoch arrival counts, (M, Q, L) or in an M = 1 bank
        (Q, L), stepping every scheduler once per epoch; then, with
        ``drain``, step the bank on zero arrivals until every queue is empty."""
        arrivals = self._counts(arrival_increments, np.shape(arrival_increments)[-1:])
        for l in range(arrivals.shape[2]):
            self._arr[:, :, self.epoch + 1] += arrivals[:, :, l]
            self._last[0] = self.epoch
            self.step()
        if drain:
            budget = (self.deadline_epochs or 2 * self.lookahead) + self._pulses.shape[2] + 2
            for spent in itertools.count():
                waiting = (self._arr[:, :, self.epoch] > self._dep[:, :, self.epoch]).any(axis=1)
                if not waiting.any():
                    break
                if spent >= budget:
                    raise FeasibilityError(f"queues not drained after {budget} extra epochs; "
                                           "set a deadline or positive delay prices",
                                           int(np.argmax(waiting)))
                self.step()
