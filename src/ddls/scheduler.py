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
arrays, so each epoch builds the costs, right-hand sides and bounds of
every busy window in one array pass and commits every decision in a
second; only each scheduler's warm-started ``lp.Model`` (its push, its
simplex and its point read) is per scheduler.  Consecutive windows
differ only in those vectors, so each model starts from the basis its
last window left; as every window has an optimum (see ``build_program``),
one that comes back without one is refused with ``FeasibilityError``.
``HorizonInputs`` and ``build_program`` are the checked reference path
for one window, built from the same array functions.

Decision variables are the shifted cumulative departures
e_q(j) = d_q(l0+j) - d_q(l0-1), stacked queue-major, followed by the
per-epoch upward and downward balancing purchases.  The balance rows
implement  (window load)(j) - up(j) + dn(j) = (net supply)(j), so with
positive prices up(j) = max(load - supply, 0) at any optimum; the
objective adds the balancing costs to the per-epoch delay charges, with
the decision-free part of the delay term restored on extraction so
reported objectives are actual window costs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import ChargeCode
from .errors import ConfigurationError, FeasibilityError
from .lp import LinearProgram, LpSolution, Model
from .lp import solve as lp_solve
# unused here: bench/spans.py traces ddls.scheduler.stage_cost until ROADMAP item 1 drops it
from .market import stage_cost  # noqa: F401
from .queues import QueueLedger


def pulse_toeplitz(code: ChargeCode, lookahead: int, start_lag: int = 0) -> np.ndarray:
    """(T+1)x(T+1) lower-triangular Toeplitz block mapping one queue's
    per-epoch departure increments to its load over the window."""
    if start_lag not in (0, 1):
        raise ConfigurationError(f"start_lag must be 0 or 1, got {start_lag}")
    size = lookahead + 1
    if code.duration_epochs > lookahead:
        raise ConfigurationError(
            f"pulse of {code.duration_epochs} epochs does not fit a lookahead of {lookahead}"
        )
    column = np.zeros(size)
    hi = min(size, start_lag + code.duration_epochs)
    column[start_lag:hi] = code.pulse[: hi - start_lag]
    out = np.zeros((size, size))
    for j in range(size):
        out[j:, j] = column[: size - j]
    return out


def _difference_matrix(size: int) -> np.ndarray:
    d = np.eye(size)
    d[np.arange(1, size), np.arange(size - 1)] = -1.0
    return d


def build_gamma(codebook, lookahead: int, start_lag: int = 0) -> np.ndarray:
    """Map stacked cumulative departures (queue-major) to window load.

    One Toeplitz block per queue composed with a first difference, so
    gamma @ D.flatten() equals synthesize_load of the increments when
    the window starts from an empty past.  The first difference treats
    the column before the window as zero; callers handing in shifted
    cumulatives (d - d_prev) therefore get exactly the in-window starts'
    load.
    """
    size = lookahead + 1
    diff = _difference_matrix(size)
    blocks = [pulse_toeplitz(code, lookahead, start_lag) @ diff for code in codebook]
    if not blocks:
        raise ConfigurationError("empty codebook")
    return np.hstack(blocks)


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
    observed = np.asarray(observed)
    if observed.shape[-1] < start_epoch + 1:
        raise ConfigurationError(
            f"observed history covers {observed.shape[-1]} epochs, need {start_epoch + 1}"
        )
    if t2 is None:
        t2 = lookahead
    if not 0 <= t1 <= t2 <= lookahead:
        raise ConfigurationError(
            f"knowledge horizons must satisfy 0 <= t1 <= t2 <= T, got ({t1}, {t2}, {lookahead})"
        )
    if t1 > 0 and known_future is None:
        raise ConfigurationError("t1 > 0 requires known future arrivals")
    if known_future is not None:
        known_future = np.asarray(known_future)
    r = None if rates is None else np.asarray(rates, dtype=float)

    # increments by window offset j; column 0 holds the counts at l0
    inc = np.zeros(observed.shape[:-1] + (lookahead + 1,))
    inc[..., 0] = observed[..., start_epoch]
    if t1:
        known = known_future[..., start_epoch + 1 : start_epoch + 1 + t1]
        inc[..., 1 : 1 + known.shape[-1]] = known
    if r is not None and r.ndim == 1:
        inc[..., t1 + 1 : t2 + 1] = r[:, None]
    elif r is not None:
        forecast = r[:, start_epoch + t1 + 1 : start_epoch + t2 + 1]
        inc[..., t1 + 1 : t1 + 1 + forecast.shape[1]] = forecast
    return np.cumsum(inc, axis=-1)


def _window_vectors(observed, arrivals, prior, net_supply, start_epoch: int, deadline, completion):
    """A window's equality right-hand side and lower and upper bounds, from
    its history and cumulative arrivals (Q, ·), the departures before it
    (Q,) and its net supply (T+1,); windows may be stacked on leading axes.

    e lies between the deadline floor (everything that arrived
    ``deadline`` epochs before a window epoch has departed by then) and
    the arrivals, both net of the prior departures; the 2(T+1) up and dn
    columns after it lie in [0, inf)."""
    l0, t = start_epoch, arrivals.shape[-1] - 1
    floor = np.zeros(arrivals.shape)
    if deadline is not None:
        # offset j is due from l0 + j - deadline: observed up to j = deadline, then forecast
        first, mid = max(deadline - l0, 0), min(deadline, t) + 1
        if first < mid:
            floor[..., first:mid] = observed[..., l0 - deadline + first : l0 - deadline + mid]
        if mid <= t:
            floor[..., mid:] = arrivals[..., 1 : t + 1 - deadline]
    prior = prior[..., None]
    shifted = arrivals - prior
    np.maximum(shifted, 0.0, out=shifted)
    floor -= prior
    np.maximum(floor, 0.0, out=floor)
    lead, n_e = shifted.shape[:-2], shifted.shape[-2] * shifted.shape[-1]
    n = n_e + 2 * (t + 1)
    lower = np.zeros(lead + (n,))
    upper = np.full(lead + (n,), np.inf)
    lower[..., :n_e] = np.minimum(floor, shifted).reshape(lead + (n_e,))
    upper[..., :n_e] = shifted.reshape(lead + (n_e,))
    return np.concatenate((net_supply, upper[..., completion]), axis=-1), lower, upper


def _round_starts(e0, prior, arrived) -> np.ndarray:
    """Starts from relaxed first-epoch departures: the cumulative value
    rounded half-to-even, clamped between the prior departures and the
    arrivals so far, less the prior departures."""
    d0 = np.minimum(np.maximum((e0 + prior).round(), prior), arrived)
    return (d0 - prior).astype(np.int64)


def _checked(values, name: str, negative: bool = False, length=None) -> np.ndarray:
    """Float ``values``, a scalar stretched to ``length``; finite, and >= 0 unless ``negative``."""
    arr = np.asarray(values, dtype=float)
    if length is not None and arr.ndim == 0:
        arr = np.full(length, float(arr))
    elif length is not None and arr.shape != (length,):
        raise ConfigurationError(f"{name} must be scalar or length {length}")
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} must be finite")
    if not negative and (arr < 0).any():
        raise ConfigurationError(f"{name} must be >= 0")
    return arr


def _longest_pulse(codebook, lookahead: int, deadline) -> int:
    """The longest pulse of a nonempty codebook, which the lookahead and
    the deadline (None: no deadline) must cover."""
    if not codebook:
        raise ConfigurationError("empty codebook")
    max_u = max(code.duration_epochs for code in codebook)
    if lookahead < max_u:
        raise ConfigurationError(f"lookahead {lookahead} shorter than the longest pulse ({max_u})")
    if deadline is not None and deadline < max_u:
        raise ConfigurationError(f"deadline of {deadline} epochs is shorter than the longest pulse")
    return max_u


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
        self.codebook = tuple(self.codebook)
        q, t = len(self.codebook), self.lookahead
        _longest_pulse(self.codebook, t, self.deadline_epochs)
        self.zic_kw = _checked(self.zic_kw, "zic_kw", negative=True, length=t + 1)
        self.price_up = _checked(self.price_up, "price_up", length=t + 1)
        self.price_dn = _checked(self.price_dn, "price_dn", length=t + 1)
        self.delay_prices = _checked(self.delay_prices, "delay_prices", length=q)
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

    def delay_constant(self, arrivals: np.ndarray) -> float:
        """Decision-independent part of the window delay cost."""
        shifted = arrivals - self.prior_departures[:, None]
        return float((self.delay_prices[:, None] * shifted).sum())


@functools.lru_cache(maxsize=16)
def _window_rows(codebook, lookahead: int, start_lag: int) -> tuple[LinearProgram, np.ndarray]:
    """The window LP's rows, which no epoch changes, as a template
    program to ``fill``, and the column of each queue's completion
    variable (read-only).

    The rows are the T+1 balance rows (gamma, -up, +dn) and one
    completion row per queue, then the Q*T monotonicity rows
    e(j) - e(j-1) >= 0.  One template per (codebook, T, start lag) is
    shared by every window and every scheduler that asks for it.
    """
    q, width = len(codebook), lookahead + 1
    n_e = q * width
    n = n_e + 2 * width
    epochs = np.arange(width)
    queues = np.arange(q)
    completion = queues * width + np.array(
        [lookahead - code.duration_epochs for code in codebook]
    )
    completion.flags.writeable = False

    eq = np.zeros((width + q, n))
    eq[:width, :n_e] = build_gamma(codebook, lookahead, start_lag)
    eq[epochs, n_e + epochs] = -1.0
    eq[epochs, n_e + width + epochs] = 1.0
    eq[width + queues, completion] = 1.0

    later = (queues[:, None] * width + epochs[None, 1:]).ravel()
    ineq = np.zeros((later.size, n))
    ineq[np.arange(later.size), later] = 1.0
    ineq[np.arange(later.size), later - 1] = -1.0
    template = LinearProgram(np.zeros(n), eq, np.zeros(width + q), ineq, np.zeros(later.size))
    return template, completion


def build_program(inputs: HorizonInputs) -> LinearProgram:
    """Assemble the window LP.

    Variables: e (queue-major, Q(T+1)), then up (T+1), then dn (T+1).
    Starting everything as soon as it arrives (e at its upper bound, up
    and dn the two sides of each balance residual) meets every row and
    bound, and the costs are bounded below, so the program always has an
    optimum.  The rows come from the ``_window_rows`` template; only the
    cost, the bounds and the equality right-hand side are filled per
    window, by the array functions a scheduler bank fills its windows
    with, and checked by ``LinearProgram.fill``.
    """
    width = inputs.lookahead + 1
    template, completion = _window_rows(inputs.codebook, inputs.lookahead, inputs.start_lag)
    cost = np.concatenate(((-inputs.delay_prices).repeat(width), inputs.price_up,
                           inputs.price_dn))
    vectors = _window_vectors(inputs.observed, inputs.arrival_matrix(), inputs.prior_departures,
                              inputs.zic_kw, inputs.start_epoch, inputs.deadline_epochs,
                              completion)
    return template.fill(cost, *vectors)


def extract_plan(solution: LpSolution, inputs: HorizonInputs) -> SchedulePlan:
    """Turn an optimal LP point into a SchedulePlan.

    The balancing pair is cleaned so at most one side is nonzero per
    epoch (overlap can only appear where a price is zero, and is always
    removable), and the decision-free delay cost is restored so the
    objective is the actual window cost."""
    if not solution.is_optimal:
        raise ConfigurationError(f"cannot extract a plan from status {solution.status!r}")
    q, t = inputs.n_queues, inputs.lookahead
    width = t + 1
    e = solution.values[: q * width].reshape(q, width)
    up = solution.values[q * width : q * width + width].copy()
    dn = solution.values[q * width + width : q * width + 2 * width].copy()
    overlap = np.minimum(up, dn)
    up -= overlap
    dn -= overlap
    arrivals = inputs.arrival_matrix()
    objective = solution.objective + inputs.delay_constant(arrivals)
    objective -= float(inputs.price_up @ overlap + inputs.price_dn @ overlap)
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
    return _round_starts(e0, inputs.prior_departures, inputs.observed[:, -1])


def _checked_caps(cap, rows: int) -> np.ndarray:
    """(rows,) caps from one cap or one per row; None and inf are no cap."""
    try:
        caps = np.broadcast_to(np.asarray(np.inf if cap is None else cap, dtype=float), (rows,))
    except (TypeError, ValueError):
        caps = np.full(rows, np.nan)
    if not (caps >= 0).all():  # refuses NaN too
        raise ConfigurationError(f"capacity_cap must be None or >= 0, one or one per "
                                 f"scheduler, got {cap!r}")
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
    passes are shared.  Column l + 1 of the (M, Q, ·) tables holds every
    scheduler's a_q(l) and d_q(l); ``ledgers`` copies them out.
    """

    def __init__(self, codebook, zic_kw, price_up, price_dn, delay_prices,
                 lookahead: int, *, arrival_rates=None, deadline_epochs=None,
                 capacity_cap=None, start_lag=0, known_arrivals=None, n_schedulers: int = 1):
        self.codebook = tuple(codebook)
        self.lookahead = int(lookahead)
        max_u = _longest_pulse(self.codebook, self.lookahead, deadline_epochs)
        self.n_queues = q = len(self.codebook)
        self.zic_kw = _checked(zic_kw, "zic_kw", negative=True)
        horizon = self.zic_kw.size
        self.price_up = _checked(price_up, "price_up", length=horizon)
        self.price_dn = _checked(price_dn, "price_dn", length=horizon)
        self.delay_prices = _checked(delay_prices, "delay_prices", length=q)
        self.n_schedulers = m = int(n_schedulers)
        if m < 1:
            raise ConfigurationError(f"n_schedulers must be >= 1, got {n_schedulers!r}")
        self.arrival_rates = (
            None if arrival_rates is None else _checked(arrival_rates, "arrival_rates")
        )
        self.deadline_epochs = deadline_epochs
        self.capacity_cap = _checked_caps(capacity_cap, m)
        self._capped = np.isfinite(self.capacity_cap).any()
        self.start_lag = int(start_lag)
        self.known_arrivals = (
            None if known_arrivals is None else _checked(known_arrivals, "known_arrivals")
        )

        self.epoch = 0
        self._arr = np.zeros((m, q, 9), dtype=np.int64)
        self._dep = np.zeros_like(self._arr)
        self._last = np.full((2, m), -1)  # each one's last epoch of arrivals, of departures
        self._flex = np.zeros((m, horizon + max_u + 1))
        self._template, self._completion = _window_rows(self.codebook, self.lookahead,
                                                        self.start_lag)
        self._models = [Model(self._template) for _ in range(m)]  # warm-started window LPs
        self._delay_cost = (-self.delay_prices).repeat(self.lookahead + 1)
        self._pulses = np.array([code.pulse + (0.0,) * (max_u - code.duration_epochs)
                                 for code in self.codebook])  # zero-padded to the longest

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
        """Each scheduler's queue ledger, through the last epoch it recorded."""
        return [QueueLedger.from_tables(self._arr[i, :, : arr + 2], self._dep[i, :, : dep + 2])
                for i, (arr, dep) in enumerate(self._last.T.tolist())]

    @property
    def ledger(self) -> QueueLedger:
        """The ledger of an M = 1 bank."""
        if self.n_schedulers != 1:
            raise ConfigurationError("a bank of several schedulers has one ledger each")
        return self.ledgers()[0]

    def _window(self, rows):
        """History, cumulative arrivals, prior departures and net supply of
        the windows of scheduler(s) ``rows`` (an index, indices or a slice)."""
        l0, t = self.epoch, self.lookahead
        if l0 + t >= self.zic_kw.size:
            raise ConfigurationError(f"supply profile ends at epoch {self.zic_kw.size - 1}, "
                                     f"window needs {l0 + t}")
        observed = self._arr[rows, :, 1 : l0 + 2]
        arrivals = certainty_equivalent_arrivals(
            observed, self.arrival_rates, l0, t, t1=t if self.known_arrivals is not None else 0,
            known_future=self.known_arrivals)
        return (observed, arrivals, self._dep[rows, :, l0],
                self.zic_kw[l0 : l0 + t + 1] - self._flex[rows, l0 : l0 + t + 1])

    def horizon_inputs(self, i: int = 0) -> HorizonInputs:
        """Scheduler i's window at this epoch, as checked inputs."""
        observed, _, prior, net = self._window(i)
        observed.flags.writeable = False
        l0, t = self.epoch, self.lookahead
        return HorizonInputs(
            start_epoch=l0, observed=observed, prior_departures=prior.copy(), zic_kw=net,
            price_up=self.price_up[l0 : l0 + t + 1], price_dn=self.price_dn[l0 : l0 + t + 1],
            delay_prices=self.delay_prices, codebook=self.codebook, lookahead=t,
            forecast_rates=self.arrival_rates, deadline_epochs=self.deadline_epochs,
            t1=t if self.known_arrivals is not None else 0, known_future=self.known_arrivals,
            start_lag=self.start_lag,
        )

    def step(self, running=None) -> StepResult:
        """Advance the ``running`` schedulers, an (M,) mask (all by
        default), one epoch; the others record nothing.

        A running scheduler whose queues are all empty commits zero starts
        and solves no window (rounding would clip any solution to that,
        the cap has nothing to limit and no appliance can be late).  One
        array pass builds every busy scheduler's window, each solves it
        through its own model in scheduler order, and one pass rounds,
        caps and checks all first epochs and commits them."""
        l0, m, q = self.epoch, self.n_schedulers, self.n_queues
        width = self.lookahead + 1
        prior, arrived = self._dep[:, :, l0], self._arr[:, :, l0 + 1]
        busy = (arrived > prior).any(axis=1)
        if running is not None:
            busy &= running
        committed = np.zeros((m, q), dtype=np.int64)
        rows = np.flatnonzero(busy)
        if rows.size:
            at = slice(None) if rows.size == m else rows  # a view where every one is busy
            cost = np.concatenate((self._delay_cost, self.price_up[l0 : l0 + width],
                                   self.price_dn[l0 : l0 + width]))
            programs = self._template.fill_rows(cost, *_window_vectors(
                *self._window(at), l0, self.deadline_epochs, self._completion))
            first = []
            for i, program in zip(rows.tolist(), programs):
                solution = lp_solve(program, model=self._models[i])
                if not solution.is_optimal:
                    raise FeasibilityError(
                        f"window LP unsolvable at epoch {l0}: {solution.status}", i)
                first.append(solution.values[: q * width : width])
            committed[at] = _round_starts(np.array(first), prior[at], arrived[at])
            if self._capped:
                committed = apply_capacity_cap(committed, self.capacity_cap)
            if self.deadline_epochs is not None:
                late = prior + committed < self._arr[:, :, max(l0 - self.deadline_epochs, -1) + 1]
                if late.any():
                    i, queue = np.argwhere(late)[0].tolist()
                    raise FeasibilityError(
                        f"epoch {l0}: queue {queue + 1} has appliances waiting past the "
                        f"{self.deadline_epochs}-epoch deadline "
                        f"(capacity cap {self.capacity_cap[i]:g})", i)
            # a window ends before the realized load does, so no pulse is cut; each
            # queue's pulses are added in queue order, as each scheduler alone would
            load = self._flex[:, l0 + self.start_lag :][:, : self._pulses.shape[1]]
            pulses = committed[:, :, None] * self._pulses
            for qi in committed.any(axis=0).nonzero()[0].tolist():
                load += pulses[:, qi]
        self._dep[:, :, l0 + 1] = prior + committed
        self._last[:, slice(None) if running is None else running] = l0
        self.epoch += 1
        if self.epoch + 2 > self._arr.shape[2]:
            self._arr, self._dep = (np.concatenate((t, np.zeros_like(t)), axis=2)
                                    for t in (self._arr, self._dep))
        self._arr[:, :, self.epoch + 1] = self._arr[:, :, self.epoch]
        return StepResult(epoch=l0, committed=committed, windows=busy)

    def run(self, arrival_increments, drain: bool = True) -> None:
        """Feed per-epoch arrival counts, (M, Q, L) or in an M = 1 bank
        (Q, L), stepping every scheduler once per epoch; then, with
        ``drain``, step each on zero arrivals until its queues are empty."""
        arrivals = self._counts(arrival_increments, np.shape(arrival_increments)[-1:])
        for l in range(arrivals.shape[2]):
            self._arr[:, :, self.epoch + 1] += arrivals[:, :, l]
            self._last[0] = self.epoch
            self.step()
        if drain:
            max_u = max(code.duration_epochs for code in self.codebook)
            budget = (self.deadline_epochs or 2 * self.lookahead) + max_u + 2
            for spent in itertools.count():
                waiting = (self._arr[:, :, self.epoch] > self._dep[:, :, self.epoch]).any(axis=1)
                if not waiting.any():
                    break
                if spent >= budget:
                    raise FeasibilityError(f"queues not drained after {budget} extra epochs; "
                                           "set a deadline or positive delay prices",
                                           int(np.argmax(waiting)))
                self.step(waiting)
