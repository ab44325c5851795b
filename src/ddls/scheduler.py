"""Receding-horizon start-time dispatch against a supply profile.

Each epoch the scheduler solves a T-step lookahead linear program over
per-queue cumulative departures, with future arrivals replaced by their
expected increments (certainty-equivalent control), rounds the
first-epoch decision to integers, commits it, subtracts the realized
load (the committed pulses, tails included) from the supply profile,
and re-solves one epoch later.  Only the first epoch of every plan is
ever executed.  An epoch at which every queue is empty has nothing to
decide: ``run`` records zero starts for it and solves no window.
Consecutive windows differ only in their costs, bounds and right-hand
side, so each scheduler keeps one ``lp.Model`` and starts every window's
simplex from the basis the last one left; the relaxed-completion retry,
which has other rows, solves cold.  The scheduler only decides: it keeps
the queue ledger and the realized load, and ``simkit`` charges the run
from them.  A start that the capacity cap holds back past the deadline
is refused with ``FeasibilityError``.

A scheduler checks its static inputs once, when it is built; its
windows read the ledger's table in place and are not checked again, so
a window costs its simplex plus O(Q*T) array work.  A ``HorizonInputs``
built by a caller keeps its own checks, and so does its program.

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
import logging
from dataclasses import dataclass, field

import numpy as np

from .core import ChargeCode
from .errors import ConfigurationError, FeasibilityError
from .lp import LinearProgram, LpSolution, Model
from .lp import solve as lp_solve
# unused here: bench/spans.py traces ddls.scheduler.stage_cost until ROADMAP item 1 drops it
from .market import stage_cost  # noqa: F401
from .queues import QueueLedger

log = logging.getLogger("ddls.scheduler")


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
    zero increments.
    """
    observed = np.asarray(observed)
    n_queues = observed.shape[0]
    if observed.shape[1] < start_epoch + 1:
        raise ConfigurationError(
            f"observed history covers {observed.shape[1]} epochs, need {start_epoch + 1}"
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
    inc = np.zeros((n_queues, lookahead + 1))
    inc[:, 0] = observed[:, start_epoch]
    if t1:
        known = known_future[:, start_epoch + 1 : start_epoch + 1 + t1]
        inc[:, 1 : 1 + known.shape[1]] = known
    if r is not None and r.ndim == 1:
        inc[:, t1 + 1 : t2 + 1] = r[:, None]
    elif r is not None:
        forecast = r[:, start_epoch + t1 + 1 : start_epoch + t2 + 1]
        inc[:, t1 + 1 : t1 + 1 + forecast.shape[1]] = forecast
    return np.cumsum(inc, axis=1)


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
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.codebook = tuple(self.codebook)
        q = len(self.codebook)
        t = self.lookahead
        if not self.codebook:
            raise ConfigurationError("empty codebook")
        max_u = max(code.duration_epochs for code in self.codebook)
        if t < max_u:
            raise ConfigurationError(
                f"lookahead {t} shorter than the longest pulse ({max_u} epochs)"
            )
        self.observed = np.asarray(self.observed)
        self.prior_departures = np.asarray(self.prior_departures)
        self.zic_kw = np.asarray(self.zic_kw, dtype=float)
        self.price_up = np.asarray(self.price_up, dtype=float)
        self.price_dn = np.asarray(self.price_dn, dtype=float)
        self.delay_prices = np.asarray(self.delay_prices, dtype=float)
        if self.observed.shape != (q, self.start_epoch + 1):
            raise ConfigurationError(
                f"observed shape {self.observed.shape}, expected ({q}, {self.start_epoch + 1})"
            )
        if self.observed.shape[1] > 1 and (np.diff(self.observed, axis=1) < 0).any():
            raise ConfigurationError("observed counts must be cumulative (nondecreasing)")
        for name in ("zic_kw", "price_up", "price_dn"):
            if getattr(self, name).shape != (t + 1,):
                raise ConfigurationError(f"{name} must have length T+1 = {t + 1}")
        if (self.price_up < 0).any() or (self.price_dn < 0).any():
            raise ConfigurationError("balancing prices must be >= 0")
        if self.prior_departures.shape != (q,) or self.delay_prices.shape != (q,):
            raise ConfigurationError("per-queue vectors must have length Q")
        if (self.prior_departures > self.observed[:, -1]).any():
            raise ConfigurationError("prior departures exceed observed arrivals")
        if (self.delay_prices < 0).any():
            raise ConfigurationError("delay prices must be >= 0")
        if self.deadline_epochs is not None and self.deadline_epochs < max_u:
            raise ConfigurationError(
                f"deadline of {self.deadline_epochs} epochs is shorter than the longest pulse"
            )

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

    def deadline_floor(self, arrivals: np.ndarray) -> np.ndarray:
        """(Q, T+1) cumulative lower bounds: everything that arrived
        ``deadline_epochs`` before a window epoch must have departed."""
        q, t = self.n_queues, self.lookahead
        floor = np.zeros((q, t + 1))
        if self.deadline_epochs is None:
            return floor
        l0, deadline = self.start_epoch, self.deadline_epochs
        # offset j is due from l0 + j - deadline: observed up to j = deadline, then forecast
        first, mid = max(deadline - l0, 0), min(deadline, t) + 1
        if first < mid:
            floor[:, first:mid] = self.observed[:, l0 - deadline + first : l0 - deadline + mid]
        if mid <= t:
            floor[:, mid:] = arrivals[:, 1 : t + 1 - deadline]
        return floor

    def delay_constant(self, arrivals: np.ndarray) -> float:
        """Decision-independent part of the window delay cost."""
        shifted = arrivals - self.prior_departures[:, None]
        return float((self.delay_prices[:, None] * shifted).sum())


@functools.lru_cache(maxsize=16)
def _window_rows(codebook: tuple[ChargeCode, ...], lookahead: int, start_lag: int,
                relax_completion: bool) -> tuple[LinearProgram, np.ndarray]:
    """The window LP's rows, which no epoch changes, as a template
    program to ``fill``, and the column of each queue's completion
    variable (read-only).

    The rows are the T+1 balance rows (gamma, -up, +dn) and one
    completion row per queue, then the Q*T monotonicity rows
    e(j) - e(j-1) >= 0.  One template per key is shared by every window
    and every scheduler that asks for it.
    """
    q, width = len(codebook), lookahead + 1
    n_e = q * width
    n = n_e + 2 * width + (q if relax_completion else 0)
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
    if relax_completion:
        eq[width + queues, n_e + 2 * width + queues] = 1.0

    later = (queues[:, None] * width + epochs[None, 1:]).ravel()
    ineq = np.zeros((later.size, n))
    ineq[np.arange(later.size), later] = 1.0
    ineq[np.arange(later.size), later - 1] = -1.0
    template = LinearProgram(np.zeros(n), eq, np.zeros(width + q), ineq, np.zeros(later.size))
    return template, completion


def build_program(inputs: HorizonInputs, relax_completion: bool = False) -> LinearProgram:
    """Assemble the window LP.

    Variables: e (queue-major, Q(T+1)), then up (T+1), then dn (T+1);
    with ``relax_completion`` one slack per queue is appended, letting
    the horizon-end completion fall short at a penalty of 10x the
    largest price (numerical-rescue path; in exact arithmetic the
    completion rows are always satisfiable because d = a meets every
    constraint).  The rows come from the ``_window_rows`` template;
    only the cost, the bounds and the equality right-hand side are
    filled per window, and checked unless a scheduler built the inputs.
    """
    q, t = inputs.n_queues, inputs.lookahead
    width = t + 1
    template, completion = (inputs._rows if inputs._rows and not relax_completion else
                            _window_rows(inputs.codebook, t, inputs.start_lag, relax_completion))
    fill = template.fill if inputs._rows is None else template.fill_unchecked
    arrivals = inputs.arrival_matrix()
    prior = inputs.prior_departures[:, None]
    shifted = np.maximum(arrivals - prior, 0.0)
    n_free = 2 * width + (q if relax_completion else 0)

    cost = [(-inputs.delay_prices).repeat(width), inputs.price_up, inputs.price_dn]
    if relax_completion:
        penalty = 10.0 * max(
            inputs.price_up.max(), inputs.price_dn.max(), inputs.delay_prices.max(), 1.0
        )
        cost.append(np.full(q, penalty))

    floor = np.maximum(inputs.deadline_floor(arrivals) - prior, 0.0)
    return fill(
        np.concatenate(cost),
        np.concatenate((inputs.zic_kw, shifted.ravel()[completion])),
        lower=np.concatenate((np.minimum(floor, shifted).ravel(), np.zeros(n_free))),
        upper=np.concatenate((shifted.ravel(), np.full(n_free, np.inf))),
    )


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
    prior = inputs.prior_departures
    e0 = relaxed.values[: inputs.n_queues * width : width]
    d0 = np.minimum(np.maximum((e0 + prior).round(), prior), inputs.observed[:, -1])
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


def apply_capacity_cap(committed, cap: float | None) -> np.ndarray:
    """Limit total starts in one epoch, granting slots one at a time
    round-robin from the lowest queue id."""
    counts = np.asarray(committed, dtype=np.int64).copy()
    if cap is None or not np.isfinite(cap):
        return counts
    if cap < 0:
        raise ConfigurationError(f"capacity cap must be >= 0, got {cap}")
    cap = int(cap)
    total = int(counts.sum())
    if total <= cap:
        return counts
    granted = np.zeros_like(counts)
    slots = cap
    while slots > 0:
        for qi in range(counts.size):
            if slots == 0:
                break
            if granted[qi] < counts[qi]:
                granted[qi] += 1
                slots -= 1
    return granted


@dataclass(frozen=True)
class StepResult:
    epoch: int
    committed: np.ndarray
    relaxed_completion: bool


class RecedingHorizonScheduler:
    """Owns the queue ledger and the committed-load bookkeeping for one
    scheduler instance and advances it epoch by epoch.

    ``zic_kw``, ``price_up`` and ``price_dn`` must cover every epoch the
    run will touch plus the lookahead.  With ``known_arrivals``
    (per-epoch counts, absolute epochs) the controller sees the realized
    future over the whole window; otherwise it extrapolates with
    ``arrival_rates``.
    """

    def __init__(self, codebook, zic_kw, price_up, price_dn, delay_prices,
                 lookahead: int, *, arrival_rates=None, deadline_epochs=None,
                 capacity_cap=None, start_lag=0, known_arrivals=None):
        self.codebook = tuple(codebook)
        if not self.codebook:
            raise ConfigurationError("empty codebook")
        self.n_queues = len(self.codebook)
        self.zic_kw = _checked(zic_kw, "zic_kw", negative=True)
        horizon = self.zic_kw.size
        self.price_up = _checked(price_up, "price_up", length=horizon)
        self.price_dn = _checked(price_dn, "price_dn", length=horizon)
        self.delay_prices = _checked(delay_prices, "delay_prices")
        if self.delay_prices.shape != (self.n_queues,):
            raise ConfigurationError("delay_prices must have one entry per queue")
        self.lookahead = int(lookahead)
        max_u = max(code.duration_epochs for code in self.codebook)
        if self.lookahead < max_u:
            raise ConfigurationError(
                f"lookahead {self.lookahead} shorter than the longest pulse ({max_u})"
            )
        if deadline_epochs is not None and deadline_epochs < max_u:
            raise ConfigurationError(f"deadline of {deadline_epochs} epochs is shorter than "
                                     "the longest pulse")
        self.arrival_rates = (
            None if arrival_rates is None else _checked(arrival_rates, "arrival_rates")
        )
        self.deadline_epochs = deadline_epochs
        self.capacity_cap = capacity_cap
        self.start_lag = int(start_lag)
        self.known_arrivals = (
            None if known_arrivals is None else _checked(known_arrivals, "known_arrivals")
        )

        self.ledger = QueueLedger(self.n_queues)
        self.epoch = 0
        self._flex = np.zeros(horizon + max_u + 1)
        self._rows = _window_rows(self.codebook, self.lookahead, self.start_lag, False)
        self._model = Model(self._rows[0])  # this scheduler's warm-started window LP
        self._pulses = np.array([code.pulse + (0.0,) * (max_u - code.duration_epochs)
                                 for code in self.codebook])  # zero-padded to the longest

    def observe_arrivals(self, counts) -> None:
        self.ledger.record_arrivals(self.epoch, counts)

    def realized_load(self) -> np.ndarray:
        """Synthesized flexible load so far, committed pulse tails included."""
        return self._flex.copy()

    def horizon_inputs(self) -> HorizonInputs:
        """The current epoch's window; its supply is net of the realized
        load, i.e. of every pulse already committed."""
        l0 = self.epoch
        t = self.lookahead
        if l0 + t >= self.zic_kw.size:
            raise ConfigurationError(
                f"supply profile ends at epoch {self.zic_kw.size - 1}, "
                f"window needs {l0 + t}"
            )
        # checked when the scheduler was built, so not again: built without
        # __init__, and with the template that build_program fills unchecked
        inputs = HorizonInputs.__new__(HorizonInputs)
        inputs.__dict__.update(
            _arrivals=None,
            _rows=self._rows,
            start_epoch=l0,
            observed=self.ledger.arrival_history(l0),
            prior_departures=self.ledger.cumulative_departures(l0 - 1),
            zic_kw=self.zic_kw[l0 : l0 + t + 1] - self._flex[l0 : l0 + t + 1],
            price_up=self.price_up[l0 : l0 + t + 1],
            price_dn=self.price_dn[l0 : l0 + t + 1],
            delay_prices=self.delay_prices,
            codebook=self.codebook,
            lookahead=t,
            forecast_rates=self.arrival_rates,
            deadline_epochs=self.deadline_epochs,
            t1=t if self.known_arrivals is not None else 0,
            known_future=self.known_arrivals,
            start_lag=self.start_lag,
        )
        return inputs

    def step(self) -> StepResult:
        l0 = self.epoch
        inputs = self.horizon_inputs()
        program = build_program(inputs)
        solution = lp_solve(program, model=self._model)
        relaxed = False
        if not solution.is_optimal:
            log.warning(
                "epoch %d: window LP came back %s; retrying with relaxed completion",
                l0, solution.status,
            )
            relaxed = True
            solution = lp_solve(build_program(inputs, relax_completion=True))
            if not solution.is_optimal:
                raise FeasibilityError(
                    f"window LP unsolvable at epoch {l0}: {solution.status}"
                )
        committed = round_and_commit(solution, inputs)
        committed = apply_capacity_cap(committed, self.capacity_cap)
        if self.deadline_epochs is not None:
            due = self.ledger.cumulative_arrivals(l0 - self.deadline_epochs)
            late = np.flatnonzero(inputs.prior_departures + committed < due)
            if late.size:
                raise FeasibilityError(
                    f"epoch {l0}: queue {late[0] + 1} has appliances waiting past the "
                    f"{self.deadline_epochs}-epoch deadline (capacity cap {self.capacity_cap})"
                )
        self.ledger.apply_departures(l0, committed)
        # a window ends before the realized load does, so no pulse is cut
        load = self._flex[l0 + self.start_lag :][: self._pulses.shape[1]]
        for qi in committed.nonzero()[0].tolist():
            load += committed[qi] * self._pulses[qi]

        self.epoch += 1
        return StepResult(epoch=l0, committed=committed, relaxed_completion=relaxed)

    def run(self, arrival_increments, drain: bool = True) -> None:
        """Feed per-epoch arrival counts column by column, stepping once
        per epoch; then, with ``drain``, keep stepping on zero arrivals
        until every queue is empty.

        An epoch at which every queue is empty is not stepped: its only
        decision is zero starts (``round_and_commit`` would clip any
        solution to that, the capacity cap has nothing to limit and no
        appliance can be late), so it is recorded without a window."""
        arrival_increments = np.asarray(arrival_increments)
        if arrival_increments.shape[0] != self.n_queues:
            raise ConfigurationError(
                f"arrival rows {arrival_increments.shape[0]} != {self.n_queues} queues"
            )
        n_epochs = arrival_increments.shape[1]
        none = np.zeros(self.n_queues, dtype=np.int64)
        for l in range(n_epochs):
            self.observe_arrivals(arrival_increments[:, l])
            if self.ledger.backlog(self.epoch).any():
                self.step()
            else:
                self.ledger.apply_departures(self.epoch, none)
                self.epoch += 1
        if drain:
            max_u = max(code.duration_epochs for code in self.codebook)
            budget = (self.deadline_epochs or 2 * self.lookahead) + max_u + 2
            spent = 0
            while self.ledger.backlog(self.epoch - 1).sum() > 0:
                if spent >= budget:
                    raise FeasibilityError(
                        f"queues not drained after {budget} extra epochs; "
                        "set a deadline or positive delay prices"
                    )
                self.observe_arrivals(none)
                self.step()
                spent += 1
