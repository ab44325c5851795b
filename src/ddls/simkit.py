"""Benchmark harness for comparing load-scheduling strategies.

This module turns the library into an experiment kit.  A scenario
config fixes the appliance population statistics, the codebook, the
zero-incremental-cost supply profile, prices, and the controller
settings.  Four runners consume the same arrival draws:

``run_uncontrolled``
    Appliances start the moment they arrive.  No deferral, no delay
    cost, whatever deviation the aggregate produces is paid for.

``run_ddls``
    A single receding-horizon scheduler shapes the aggregate onto the
    supply profile: the M = 1 case of ``run_distributed``.

``run_distributed``
    Arrivals are split uniformly at random across ``n_schedulers``
    independent schedulers, each given an equal share of the supply;
    they run as one bank, stepped in lockstep.

``run_price_signal``
    Each appliance independently picks the cheapest start time under a
    broadcast price curve.  A price dip over the supply bump makes
    everyone herd into it, which is the classic rebound-peak failure
    mode this comparison is meant to expose.

A runner only decides when appliances start.  It hands one (load,
ledger) pair per scheduler to ``_score``, which alone charges the run
and builds the ``RunMetrics``, the column-wise ``Trajectory`` and the
aggregate load: one pair for uncontrolled, price and ddls, M pairs, one
per scheduler of the bank, for distributed.  Each scheduler is charged in whole arrays, one
``stage_cost`` call over the padded range plus delay prices times its
backlog table.  Uncontrolled and price record their (arrivals, starts)
in a ledger through ``_replay``.

All randomness flows from a single scenario seed through named
``SeedSequence`` spawns (one stream per queue for arrival counts, one
extra stream for the distributed assignment, drawn in one call for the
whole population), so runs are reproducible across platforms and the
same seed yields the identical appliance population for every strategy.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, fields as dataclass_fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# unscheduled_load is unused here: bench/spans.py traces it as simkit.unscheduled_load
from .core import (ArrivalEvent, ChargeCode, RawRequest, checked_int, checked_numbers,
                   code_entry, codebook_from_entries, is_real, synthesize_load, unscheduled_load)
from .csvio import atomic_write_text, render_columns, write_csv
from .errors import ConfigurationError, FeasibilityError
from .market import stage_cost
from .queues import DelayPrices, QueueLedger, dci
from .scheduler import RecedingHorizonScheduler, _window_horizons

SECONDS_PER_HOUR = 3600.0

SCENARIO_SCHEMA = 1


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one benchmark day.

    ``arrival_rates_per_hour`` is the appliance arrival intensity per
    queue, either one scalar shared by all queues, a length-Q vector,
    or a (Q, horizon) matrix for time-varying intensity.  Per-epoch
    Poisson means are ``rate * interval_s / 3600``.
    """

    seed: int
    interval_s: float
    horizon_epochs: int
    codebook: tuple[ChargeCode, ...]
    arrival_rates_per_hour: np.ndarray
    zic_kw: np.ndarray
    price_up: np.ndarray
    price_dn: np.ndarray
    delay_prices: np.ndarray
    lookahead: int
    deadline_epochs: int
    n_schedulers: int = 1
    strategy: str = "ddls"
    start_lag: int = 0
    capacity_cap: float | None = None

    def __post_init__(self):
        for name, low, high in (("seed", 0, None), ("horizon_epochs", 1, None),
                                ("deadline_epochs", 1, None), ("n_schedulers", 1, None),
                                ("start_lag", 0, 1)):
            setattr(self, name, checked_int(getattr(self, name), name, low, high))
        self.codebook, self.lookahead, self.deadline_epochs, _ = _window_horizons(
            self.codebook, self.lookahead, self.deadline_epochs)
        self.interval_s = checked_numbers(self.interval_s, "interval_s", length=1,
                                          strict=True).item()
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if is_real(self.capacity_cap) and self.capacity_cap == np.inf:
            self.capacity_cap = None  # the one spelling of "no cap", which JSON can write
        if self.capacity_cap is not None:
            self.capacity_cap = checked_numbers(self.capacity_cap, "capacity_cap",
                                                length=1).item()

        q = len(self.codebook)
        rates = checked_numbers(self.arrival_rates_per_hour, "arrival_rates_per_hour")
        if rates.ndim == 0:
            rates = np.full(q, float(rates))
        if rates.ndim == 1:
            if rates.shape[0] != q:
                raise ConfigurationError(
                    f"arrival_rates_per_hour has {rates.shape[0]} entries for {q} queues"
                )
        elif rates.ndim == 2:
            if rates.shape != (q, self.horizon_epochs):
                raise ConfigurationError(
                    "time-varying arrival rates must have shape "
                    f"({q}, {self.horizon_epochs}), got {rates.shape}"
                )
        else:
            raise ConfigurationError("arrival rates must be scalar, (Q,), or (Q, horizon)")
        self.arrival_rates_per_hour = rates
        horizon = self.horizon_epochs
        self.zic_kw = checked_numbers(self.zic_kw, "zic_kw", length=horizon, low=None)
        self.price_up = checked_numbers(self.price_up, "price_up", length=horizon)
        self.price_dn = checked_numbers(self.price_dn, "price_dn", length=horizon)
        self.delay_prices = checked_numbers(self.delay_prices, "delay_prices", length=q)

    @property
    def n_queues(self) -> int:
        return len(self.codebook)

    @property
    def max_duration(self) -> int:
        return max(code.duration_epochs for code in self.codebook)

    def epoch_rates(self) -> np.ndarray:
        """Expected arrival counts per epoch, shape (Q, horizon)."""
        rates = self.arrival_rates_per_hour
        if rates.ndim == 1:
            rates = np.tile(rates[:, None], (1, self.horizon_epochs))
        return rates * (self.interval_s / SECONDS_PER_HOUR)

    def padded_length(self) -> int:
        """Epochs the supply and price vectors must span so that every
        window fits, including the post-horizon drain."""
        return self.horizon_epochs + self.deadline_epochs + self.max_duration + self.lookahead + 4

    def padded_profiles(self, length: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(zic, price_up, price_dn) extended past the horizon, to
        ``padded_length()`` epochs or to ``length`` if that is longer.

        Supply is padded with zeros: there is no scheduled purchase
        after the day ends, so late service is pure up-deviation.
        Prices persist at their final value.
        """
        pad = max(self.padded_length(), length) - self.horizon_epochs
        zic = np.concatenate([self.zic_kw, np.zeros(pad)])
        up = np.concatenate([self.price_up, np.full(pad, self.price_up[-1])])
        dn = np.concatenate([self.price_dn, np.full(pad, self.price_dn[-1])])
        return zic, up, dn

    def padded_rates(self) -> np.ndarray:
        """Forecast rates over the padded range, zero past the horizon."""
        out = np.zeros((self.n_queues, self.padded_length()))
        out[:, : self.horizon_epochs] = self.epoch_rates()
        return out

    def to_dict(self) -> dict:
        out = {"schema": SCENARIO_SCHEMA}
        for field in dataclass_fields(self):
            value = getattr(self, field.name)
            out[field.name] = value.tolist() if isinstance(value, np.ndarray) else value
        out["codebook"] = [code_entry(code) for code in self.codebook]
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(f"a scenario must be a JSON object, not {type(raw).__name__}")
        raw = dict(raw)
        version = raw.pop("schema", SCENARIO_SCHEMA)
        if version != SCENARIO_SCHEMA:
            raise ConfigurationError(
                f"scenario schema {version} not supported, expected {SCENARIO_SCHEMA}"
            )
        raw["codebook"] = codebook_from_entries(raw.get("codebook"))
        known = {f.name for f in dataclass_fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigurationError(f"unknown scenario keys: {sorted(extra)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigurationError(f"incomplete scenario: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return ScenarioConfig.from_dict(json.load(fh))


def save_scenario(config: ScenarioConfig, path) -> None:
    atomic_write_text(path, json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class RunMetrics:
    """Scoreboard for one strategy on one seed.

    ``total_cost`` is operational: deviation purchases plus the priced
    delay inconvenience.  ``peak_kw`` is the peak of the aggregate
    flexible load alone, which is the quantity the rebound comparison
    cares about.
    """

    strategy: str
    seed: int
    total_cost: float
    deviation_cost: float
    delay_cost: float
    mean_delay_epochs: float
    peak_kw: float
    served: int

    def __post_init__(self):
        for name, low in (("total_cost", -1e-9), ("deviation_cost", -1e-9),
                          ("delay_cost", -1e-9), ("mean_delay_epochs", 0), ("peak_kw", 0)):
            checked_numbers(getattr(self, name), name, low=low)
        checked_int(self.served, "served")


@dataclass
class Trajectory:
    """Per-epoch record of a run, stored as columns; row l is epoch l.
    ``backlog`` counts the appliances still waiting at the end of the
    epoch and ``committed`` those started in it."""

    flex_kw: np.ndarray      # (L,)
    zic_kw: np.ndarray       # (L,)
    backlog: np.ndarray      # (L, Q)
    stage_costs: np.ndarray  # (L,)
    committed: np.ndarray    # (L, Q)

    def __len__(self) -> int:
        return len(self.flex_kw)

    @property
    def up_kw(self) -> np.ndarray:
        return np.maximum(self.flex_kw - self.zic_kw, 0.0)

    @property
    def dn_kw(self) -> np.ndarray:
        return np.maximum(self.zic_kw - self.flex_kw, 0.0)

    @property
    def total_cost(self) -> float:
        return float(np.sum(self.stage_costs))

    def to_csv(self, path) -> None:
        header = (
            ["epoch", "base_kw", "flex_kw", "zic_kw", "up_kw", "dn_kw"]
            + [f"backlog_q{qi + 1}" for qi in range(self.backlog.shape[1])]
            + ["stage_cost", "cum_cost"]
        )
        # base_kw stays in the file format; runs carry no base load
        columns = (np.arange(len(self)), np.zeros(len(self)), self.flex_kw, self.zic_kw,
                   self.up_kw, self.dn_kw, *self.backlog.T, self.stage_costs,
                   np.cumsum(self.stage_costs))
        atomic_write_text(path, render_columns(header, columns))


@dataclass
class RunResult:
    """Full output of one strategy run.

    ``flex_kw`` is the realized flexible load over the padded range,
    pulse tails included; ``ledger`` is None for a run with more than
    one scheduler, which has one ledger per scheduler.
    """

    metrics: RunMetrics
    trajectory: Trajectory
    flex_kw: np.ndarray
    ledger: QueueLedger | None = None


METRICS_HEADER = tuple(f.name for f in dataclass_fields(RunMetrics))


def metrics_to_csv(rows: list[RunMetrics], path) -> None:
    write_csv(path, METRICS_HEADER, [astuple(m) for m in rows])


def generate_arrival_counts(
    rates_per_hour, horizon: int, seed: int, interval_s: float = 900.0
) -> np.ndarray:
    """Draw per-epoch arrival counts, one independent Poisson stream per queue.

    ``rates_per_hour`` is (Q,) or (Q, horizon); the per-epoch mean is
    rate * interval_s / 3600.  Queue q always consumes the q-th spawn of
    ``SeedSequence(seed)``, so adding queues never perturbs the draws of
    existing ones.
    """
    rates = checked_numbers(rates_per_hour, "rates_per_hour")
    horizon, seed = checked_int(horizon, "horizon"), checked_int(seed, "seed")
    if rates.ndim == 1:
        rates = np.tile(rates[:, None], (1, horizon))
    if rates.ndim != 2 or rates.shape[1] != horizon:
        raise ConfigurationError(f"rates must be (Q,) or (Q, {horizon}), got {rates.shape}")
    interval_s = checked_numbers(interval_s, "interval_s", length=1, strict=True).item()
    means = rates * (interval_s / SECONDS_PER_HOUR)
    counts = np.zeros(rates.shape, dtype=np.int64)
    streams = np.random.SeedSequence(seed).spawn(rates.shape[0])
    for q, stream in enumerate(streams):
        counts[q] = np.random.default_rng(stream).poisson(means[q])
    return counts


def events_from_counts(counts, codebook) -> list[ArrivalEvent]:
    """Expand a count matrix into per-appliance arrival events.

    Events are ordered epoch-major, then by queue, matching the order a
    ledger would log them in.  Each request carries its code's exact
    (rate, duration) parameters, so quantizing it recovers the queue.
    """
    counts = np.asarray(counts)
    codebook = list(codebook)
    if counts.shape[0] != len(codebook):
        raise ConfigurationError(
            f"count matrix has {counts.shape[0]} rows for {len(codebook)} codes"
        )
    events = []
    for epoch in range(counts.shape[1]):
        for q, code in enumerate(codebook):
            request = RawRequest((code.rate_kw, float(code.duration_epochs)))
            events.extend(ArrivalEvent(epoch, request) for _ in range(int(counts[q, epoch])))
    return events


def _scenario_counts(config: ScenarioConfig, arrival_counts) -> np.ndarray:
    if arrival_counts is None:
        return generate_arrival_counts(
            config.arrival_rates_per_hour,
            config.horizon_epochs,
            config.seed,
            config.interval_s,
        )
    counts = np.asarray(arrival_counts, dtype=np.int64)
    if counts.shape != (config.n_queues, config.horizon_epochs):
        raise ConfigurationError(
            f"arrival counts must have shape ({config.n_queues}, {config.horizon_epochs})"
        )
    return counts


def _score(config: ScenarioConfig, strategy: str, parts) -> RunResult:
    """Metrics, trajectory and aggregate load of a run, from one
    (load, ledger) pair per scheduler, each charged on its 1/M share of
    the supply.  The trajectory runs until every ledger has stopped and
    every pulse has stopped drawing power; per epoch it holds the
    aggregate load against the full supply, the summed backlogs and
    starts, and the schedulers' summed stage costs, so its costs add up
    to the total cost.  The peak is that of the aggregate load, which is
    what the feeder sees.  The mean delay, over the whole population, is
    the backlog table's sum over the start table's: an appliance that
    arrives at a and starts at d waits in the backlog d - a epochs
    (Little's law per sample), and every runner has started every
    appliance by the last row, as a bank drains or raises and uncontrolled
    and price start everyone inside the padded range.
    """
    zic, up, dn = config.padded_profiles(max(len(load) for load, _ in parts))
    zic_share = zic * (1.0 / len(parts))
    rows = 0
    for load, ledger in parts:
        drawn = np.flatnonzero(load)
        rows = max(rows, ledger.current_epoch + 1, drawn[-1] + 1 if drawn.size else 0)
    prices = DelayPrices(config.delay_prices)
    flex = np.zeros(zic.size)
    stage = np.zeros(rows)
    backlog = np.zeros((config.n_queues, rows), dtype=np.int64)
    starts = np.zeros((config.n_queues, rows), dtype=np.int64)
    deviation = delay_cost = 0.0
    for load, ledger in parts:
        load = np.pad(load, (0, zic.size - len(load)))
        flex += load
        charge = stage_cost(load, zic_share, up, dn)
        deviation += float(np.sum(charge))
        delay_cost += dci(ledger, 0, rows - 1, prices)
        departed = ledger.departure_increments(0, rows)
        waiting = np.cumsum(ledger.arrival_increments(0, rows) - departed, axis=1)
        stage += charge[:rows] + prices.per_queue @ waiting
        backlog += waiting
        starts += departed

    trajectory = Trajectory(flex[:rows], zic[:rows], backlog.T, stage, starts.T)
    delay_sum, served = int(backlog.sum()), int(starts.sum())
    metrics = RunMetrics(
        strategy=strategy,
        seed=config.seed,
        total_cost=deviation + delay_cost,
        deviation_cost=deviation,
        delay_cost=delay_cost,
        mean_delay_epochs=delay_sum / served if served else 0.0,
        peak_kw=float(flex.max()),
        served=served,
    )
    return RunResult(metrics, trajectory, flex, parts[0][1] if len(parts) == 1 else None)


def _replay(config: ScenarioConfig, counts, starts) -> QueueLedger:
    """The ledger of a run without a controller: ``counts`` arrive over
    the horizon and ``starts[:, l]`` appliances start at epoch l, for
    every epoch ``starts`` covers."""
    arrivals = np.zeros_like(starts)
    arrivals[:, : config.horizon_epochs] = counts
    ledger = QueueLedger(config.n_queues)
    for epoch in range(starts.shape[1]):
        ledger.record_arrivals(epoch, arrivals[:, epoch])
        ledger.apply_departures(epoch, starts[:, epoch])
    return ledger


def run_uncontrolled(config: ScenarioConfig, arrival_counts=None) -> RunResult:
    """Serve every appliance the epoch it arrives.

    Departures equal arrivals, so the arrival count matrix is itself the
    per-queue start increments and the load is its ``synthesize_load``;
    no appliance is handled one by one.  The ledger runs one epoch past
    the last that a pulse started in the horizon can draw power.
    """
    counts = _scenario_counts(config, arrival_counts)
    flex = synthesize_load(
        counts, list(config.codebook), config.padded_length(), config.start_lag
    )
    starts = np.zeros(
        (config.n_queues, config.horizon_epochs + config.start_lag + config.max_duration),
        dtype=np.int64,
    )
    starts[:, : config.horizon_epochs] = counts
    return _score(config, "uncontrolled", [(flex, _replay(config, counts, starts))])


def _cap_share(cap, i: int, m: int) -> int:
    """Scheduler i's whole-appliance share of a finite capacity cap; the
    M shares sum to the cap."""
    cap = int(cap)
    return cap // m + (i < cap % m)


def _run_schedulers(config: ScenarioConfig, shares, strategy: str) -> RunResult:
    """Run a bank of one receding-horizon scheduler per row of ``shares``
    (M, Q, L), each on a 1/M share of the supply, of the forecast rates
    and of the capacity cap, until every queue drains, and score
    them together."""
    zic, up, dn = config.padded_profiles()
    m = len(shares)
    caps = None if config.capacity_cap is None else [
        _cap_share(config.capacity_cap, i, m) for i in range(m)]
    bank = RecedingHorizonScheduler(
        list(config.codebook),
        zic * (1.0 / m),
        up,
        dn,
        config.delay_prices,
        config.lookahead,
        arrival_rates=config.padded_rates() * (1.0 / m),
        deadline_epochs=config.deadline_epochs,
        capacity_cap=caps,
        start_lag=config.start_lag,
        n_schedulers=m,
    )
    try:
        bank.run(shares, drain=True)
    except FeasibilityError as exc:
        i = exc.scheduler
        limit = ("no capacity_cap" if caps is None else
                 f"a share of {caps[i]} of capacity_cap {config.capacity_cap:g}")
        raise FeasibilityError(f"scheduler {i + 1} of {m}, {limit}: {exc}", i) from exc
    return _score(config, strategy, list(zip(bank.realized_load(), bank.ledgers())))


def run_ddls(config: ScenarioConfig, arrival_counts=None) -> RunResult:
    """One receding-horizon scheduler controls the whole population:
    the one-share case of ``run_distributed``."""
    counts = _scenario_counts(config, arrival_counts)
    return _run_schedulers(config, counts[None], "ddls")


def _split_counts(counts: np.ndarray, m: int, seed: int) -> np.ndarray:
    """(M, Q, L) shares of the counts: each appliance goes to an owner
    drawn uniformly from the ``SeedSequence([seed, 1])`` stream, the
    owners of ``counts[q, epoch]`` appliances per (queue, epoch) in turn,
    queue-major, all in one draw."""
    assign_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    owners = assign_rng.integers(0, m, size=int(counts.sum()))
    segment = np.repeat(np.arange(counts.size), counts.ravel())
    shares = np.bincount(segment * m + owners, minlength=counts.size * m)
    return np.ascontiguousarray(shares.reshape(counts.shape + (m,)).transpose(2, 0, 1))


def run_distributed(config: ScenarioConfig, arrival_counts=None) -> RunResult:
    """Split the population across independent schedulers.

    Each arrival is assigned uniformly at random (its own seed stream,
    so the population itself matches the other strategies), counted per
    (queue, epoch) by ``_split_counts``, and each scheduler chases an
    equal 1/M share of the supply.
    """
    counts = _scenario_counts(config, arrival_counts)
    shares = _split_counts(counts, config.n_schedulers, config.seed)
    return _run_schedulers(config, shares, "distributed")


def default_price_curve(config: ScenarioConfig, slope: float = 1.0) -> np.ndarray:
    """Broadcast price that dips where supply is plentiful.

    price(l) = c0 - slope * P(l) with c0 chosen to keep every entry
    strictly positive, including the padded tail where P = 0.
    """
    zic, _, _ = config.padded_profiles()
    slope = checked_numbers(slope, "slope", length=1).item()
    c0 = slope * float(zic.max()) + 1.0
    return c0 - slope * zic


def run_price_signal(config: ScenarioConfig, arrival_counts=None, price=None) -> RunResult:
    """Each appliance independently minimizes its own energy bill.

    An appliance arriving at epoch s may start anywhere in
    [s, s + deadline]; it picks the start minimizing the price-weighted
    pulse cost, earliest epoch on ties.  Under a flat price that is the
    arrival epoch itself; under a dipped price whole cohorts pile onto
    the dip.
    """
    counts = _scenario_counts(config, arrival_counts)
    if price is None:
        price = default_price_curve(config)
    price = checked_numbers(price, "price curve", length=config.padded_length(), low=None)
    length = price.size

    horizon = config.horizon_epochs
    starts = np.zeros((config.n_queues, length), dtype=np.int64)
    for q, code in enumerate(config.codebook):
        # cost[f]: the pulse's price when it starts drawing at epoch f
        cost = sliding_window_view(price, code.duration_epochs) @ np.asarray(code.pulse)
        reach = sliding_window_view(cost[config.start_lag :], config.deadline_epochs + 1)
        best = np.arange(horizon) + np.argmin(reach[:horizon], axis=1)
        np.add.at(starts[q], best, counts[q])

    flex = synthesize_load(starts, list(config.codebook), length, config.start_lag)
    return _score(config, "price", [(flex, _replay(config, counts, starts))])


_RUNNERS = {
    "uncontrolled": run_uncontrolled,
    "ddls": run_ddls,
    "distributed": run_distributed,
    "price": run_price_signal,
}
STRATEGIES = tuple(_RUNNERS)


def run_scenario(config: ScenarioConfig, arrival_counts=None) -> RunResult:
    """Dispatch on ``config.strategy``."""
    return _RUNNERS[config.strategy](config, arrival_counts)


def checked_strategies(strategies) -> tuple[str, ...]:
    """``strategies``, a sequence of names from ``STRATEGIES``, as a tuple."""
    names = tuple(strategies)
    if unknown := [name for name in names if name not in STRATEGIES]:
        raise ConfigurationError(f"unknown strategies: {unknown}, expected names from {STRATEGIES}")
    return names


def compare(config: ScenarioConfig, strategies=STRATEGIES) -> list[RunResult]:
    """Run several strategies on the identical arrival draw."""
    strategies = checked_strategies(strategies)
    counts = _scenario_counts(config, None)
    return [_RUNNERS[name](config, counts) for name in strategies]


def summary_rows(results: list[RunResult]) -> list[dict]:
    """Relative scoreboard against the uncontrolled baseline, which
    ``results`` must hold."""
    metrics = [r.metrics for r in results]
    base = next((m for m in metrics if m.strategy == "uncontrolled"), None)
    if base is None:
        raise ConfigurationError("summary rows are measured against an uncontrolled result")
    rows = []
    for m in metrics:
        savings = 0.0
        if base.total_cost > 0:
            savings = (base.total_cost - m.total_cost) / base.total_cost
        peak_ratio = m.peak_kw / base.peak_kw if base.peak_kw > 0 else 0.0
        rows.append(
            {
                "strategy": m.strategy,
                "total_cost": m.total_cost,
                "cost_savings_vs_uncontrolled": savings,
                "peak_kw": m.peak_kw,
                "peak_ratio_vs_uncontrolled": peak_ratio,
                "mean_delay_epochs": m.mean_delay_epochs,
                "served": m.served,
            }
        )
    return rows


def summary_to_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ConfigurationError("no summary rows to write")
    write_csv(path, list(rows[0].keys()), [tuple(row.values()) for row in rows])
