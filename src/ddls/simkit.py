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
    supply profile.

``run_distributed``
    Arrivals are split uniformly at random across ``n_schedulers``
    independent schedulers, each given an equal share of the supply.
    With one scheduler this degenerates to ``run_ddls``.

``run_price_signal``
    Each appliance independently picks the cheapest start time under a
    broadcast price curve.  A price dip over the supply bump makes
    everyone herd into it, which is the classic rebound-peak failure
    mode this comparison is meant to expose.

All randomness flows from a single scenario seed through named
``SeedSequence`` spawns (one stream per queue for arrival counts, one
extra stream for the distributed assignment), so runs are reproducible
across platforms and the same seed yields the identical appliance
population for every strategy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .codec import Quantizer
from .core import ArrivalEvent, ChargeCode, RawRequest, synthesize_load, unscheduled_load
from .csvio import atomic_write_text, write_csv
from .errors import ConfigurationError
from .market import stage_cost
from .queues import DelayPrices, QueueLedger, dci
from .scheduler import RecedingHorizonScheduler, Trajectory

SECONDS_PER_HOUR = 3600.0

STRATEGIES = ("uncontrolled", "ddls", "distributed", "price")

SCENARIO_SCHEMA = 1


def _as_float_array(value, length: int, name: str) -> np.ndarray:
    """Broadcast a scalar to ``length`` samples or validate a vector."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} must be finite")
    if arr.ndim == 0:
        return np.full(length, float(arr))
    if arr.ndim != 1 or arr.shape[0] != length:
        raise ConfigurationError(
            f"{name} must be a scalar or a length-{length} vector, got shape {arr.shape}"
        )
    return arr.copy()


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
        self.codebook = tuple(self.codebook)
        if not self.codebook:
            raise ConfigurationError("scenario needs a nonempty codebook")
        if self.horizon_epochs < 1:
            raise ConfigurationError("horizon_epochs must be positive")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 0 < self.interval_s < np.inf:
            raise ConfigurationError("interval_s must be positive and finite")
        max_u = max(code.duration_epochs for code in self.codebook)
        if self.deadline_epochs < max_u:
            raise ConfigurationError(
                f"deadline_epochs={self.deadline_epochs} cannot be shorter than the "
                f"longest pulse ({max_u} epochs)"
            )
        if self.lookahead < max_u:
            raise ConfigurationError("lookahead must cover the longest pulse")
        if self.n_schedulers < 1:
            raise ConfigurationError("n_schedulers must be at least 1")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if self.start_lag not in (0, 1):
            raise ConfigurationError("start_lag must be 0 or 1")
        if self.capacity_cap is not None and not self.capacity_cap >= 0:
            raise ConfigurationError(f"capacity_cap must be >= 0, got {self.capacity_cap}")

        q = len(self.codebook)
        rates = np.asarray(self.arrival_rates_per_hour, dtype=float)
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
        if not np.isfinite(rates).all() or np.any(rates < 0):
            raise ConfigurationError("arrival rates must be finite and nonnegative")
        self.arrival_rates_per_hour = rates

        self.zic_kw = _as_float_array(self.zic_kw, self.horizon_epochs, "zic_kw")
        self.price_up = _as_float_array(self.price_up, self.horizon_epochs, "price_up")
        self.price_dn = _as_float_array(self.price_dn, self.horizon_epochs, "price_dn")
        if np.any(self.price_up < 0) or np.any(self.price_dn < 0):
            raise ConfigurationError("deviation prices must be nonnegative")
        delay = np.asarray(self.delay_prices, dtype=float)
        if delay.ndim == 0:
            delay = np.full(q, float(delay))
        if delay.shape != (q,):
            raise ConfigurationError(f"delay_prices must have shape ({q},)")
        if not np.isfinite(delay).all() or np.any(delay < 0):
            raise ConfigurationError("delay prices must be finite and nonnegative")
        self.delay_prices = delay

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

    def padded_profiles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(zic, price_up, price_dn) extended past the horizon.

        Supply is padded with zeros: there is no scheduled purchase
        after the day ends, so late service is pure up-deviation.
        Prices persist at their final value.
        """
        length = self.padded_length()
        pad = length - self.horizon_epochs
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
        return {
            "schema": SCENARIO_SCHEMA,
            "seed": int(self.seed),
            "interval_s": float(self.interval_s),
            "horizon_epochs": int(self.horizon_epochs),
            "codebook": [
                {"id": code.id, "rate_kw": code.rate_kw, "duration_epochs": code.duration_epochs}
                for code in self.codebook
            ],
            "arrival_rates_per_hour": self.arrival_rates_per_hour.tolist(),
            "zic_kw": self.zic_kw.tolist(),
            "price_up": self.price_up.tolist(),
            "price_dn": self.price_dn.tolist(),
            "delay_prices": self.delay_prices.tolist(),
            "lookahead": int(self.lookahead),
            "deadline_epochs": int(self.deadline_epochs),
            "n_schedulers": int(self.n_schedulers),
            "strategy": self.strategy,
            "start_lag": int(self.start_lag),
            "capacity_cap": None if self.capacity_cap is None else float(self.capacity_cap),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        raw = dict(raw)
        version = raw.pop("schema", SCENARIO_SCHEMA)
        if version != SCENARIO_SCHEMA:
            raise ConfigurationError(
                f"scenario schema {version} not supported, expected {SCENARIO_SCHEMA}"
            )
        try:
            entries = raw["codebook"]
        except (KeyError, TypeError):
            raise ConfigurationError("scenario dict needs a 'codebook' entry")
        codebook = []
        for pos, entry in enumerate(entries, start=1):
            code_id = int(entry.get("id", pos))
            if code_id != pos:
                raise ConfigurationError(f"codebook ids must run 1..Q, got {code_id} at slot {pos}")
            duration = int(entry["duration_epochs"])
            rate = float(entry["rate_kw"])
            codebook.append(ChargeCode(code_id, (rate,) * duration))
        known = {f.name for f in dataclass_fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigurationError(f"unknown scenario keys: {sorted(extra)}")
        kwargs = {key: raw[key] for key in raw if key != "codebook"}
        try:
            return cls(codebook=tuple(codebook), **kwargs)
        except TypeError as exc:
            raise ConfigurationError(f"incomplete scenario: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
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
        if min(self.total_cost, self.deviation_cost, self.delay_cost) < -1e-9:
            raise ConfigurationError("costs cannot be negative")
        if self.served < 0:
            raise ConfigurationError("served count cannot be negative")


@dataclass
class RunResult:
    """Full output of one strategy run.

    ``flex_kw`` is the realized flexible load over the padded range,
    pulse tails included; ``ledger`` is None for the distributed runner,
    which has one ledger per scheduler.
    """

    metrics: RunMetrics
    trajectory: Trajectory
    flex_kw: np.ndarray
    ledger: QueueLedger | None = None


METRICS_HEADER = (
    "strategy",
    "seed",
    "total_cost",
    "deviation_cost",
    "delay_cost",
    "mean_delay_epochs",
    "peak_kw",
    "served",
)


def metrics_to_csv(rows: list[RunMetrics], path) -> None:
    write_csv(
        path,
        METRICS_HEADER,
        [
            (m.strategy, m.seed, m.total_cost, m.deviation_cost, m.delay_cost,
             m.mean_delay_epochs, m.peak_kw, m.served)
            for m in rows
        ],
    )


def generate_arrival_counts(
    rates_per_hour, horizon: int, seed: int, interval_s: float = 900.0
) -> np.ndarray:
    """Draw per-epoch arrival counts, one independent Poisson stream per queue.

    ``rates_per_hour`` is (Q,) or (Q, horizon); the per-epoch mean is
    rate * interval_s / 3600.  Queue q always consumes the q-th spawn of
    ``SeedSequence(seed)``, so adding queues never perturbs the draws of
    existing ones.
    """
    rates = np.asarray(rates_per_hour, dtype=float)
    if rates.ndim == 1:
        rates = np.tile(rates[:, None], (1, horizon))
    if rates.ndim != 2 or rates.shape[1] != horizon:
        raise ConfigurationError(f"rates must be (Q,) or (Q, {horizon}), got {rates.shape}")
    if np.any(rates < 0):
        raise ConfigurationError("arrival rates must be nonnegative")
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


def _deviation_cost(flex: np.ndarray, zic: np.ndarray, up: np.ndarray, dn: np.ndarray) -> float:
    length = max(len(flex), len(zic))
    f = np.zeros(length)
    f[: len(flex)] = flex
    p = np.zeros(length)
    p[: len(zic)] = zic
    u = np.full(length, up[-1])
    u[: len(up)] = up
    d = np.full(length, dn[-1])
    d[: len(dn)] = dn
    dev = f - p
    return float(np.sum(u * np.maximum(dev, 0.0) + d * np.maximum(-dev, 0.0)))


def _mean_delay(ledger: QueueLedger) -> float:
    delays = [delay for _, _, delay in ledger.fifo_delays()]
    if not delays:
        return 0.0
    return float(np.mean(delays))


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


def _ledger_trajectory(
    config: ScenarioConfig,
    flex: np.ndarray,
    ledger: QueueLedger,
    last_epoch: int,
) -> Trajectory:
    zic, up, dn = config.padded_profiles()
    delay_prices = DelayPrices(config.delay_prices)
    traj = Trajectory()
    for epoch in range(last_epoch + 1):
        backlog = ledger.backlog(epoch)
        cost = stage_cost(
            flex[epoch], zic[epoch], up[epoch], dn[epoch], backlog, delay_prices.at(epoch)
        )
        traj.append(flex[epoch], zic[epoch], backlog, cost)
    return traj


def _metrics_from_ledger(
    config: ScenarioConfig,
    strategy: str,
    flex: np.ndarray,
    ledger: QueueLedger,
    served: int,
    last_epoch: int,
) -> RunMetrics:
    zic, up, dn = config.padded_profiles()
    deviation = _deviation_cost(flex, zic, up, dn)
    delay_cost = dci(ledger, 0, last_epoch, DelayPrices(config.delay_prices))
    peak = float(flex.max()) if len(flex) else 0.0
    return RunMetrics(
        strategy=strategy,
        seed=config.seed,
        total_cost=deviation + delay_cost,
        deviation_cost=deviation,
        delay_cost=delay_cost,
        mean_delay_epochs=_mean_delay(ledger),
        peak_kw=peak,
        served=served,
    )


def run_uncontrolled(config: ScenarioConfig, arrival_counts=None) -> RunResult:
    """Serve every appliance the epoch it arrives."""
    counts = _scenario_counts(config, arrival_counts)
    events = events_from_counts(counts, config.codebook)
    quantizer = Quantizer(config.codebook)
    length = config.padded_length()
    flex = unscheduled_load(
        events, list(config.codebook), quantizer, horizon=length, start_lag=config.start_lag
    )

    ledger = QueueLedger(config.n_queues)
    for epoch in range(config.horizon_epochs):
        ledger.record_arrivals(epoch, counts[:, epoch])
        ledger.apply_departures(epoch, counts[:, epoch])

    last_epoch = config.horizon_epochs - 1 + config.start_lag + config.max_duration
    metrics = _metrics_from_ledger(
        config, "uncontrolled", flex, ledger, int(counts.sum()), last_epoch
    )
    trajectory = _ledger_trajectory(config, flex, ledger, last_epoch)
    return RunResult(metrics, trajectory, flex, ledger)


def _build_scheduler(config: ScenarioConfig, zic_share: float = 1.0) -> RecedingHorizonScheduler:
    zic, up, dn = config.padded_profiles()
    return RecedingHorizonScheduler(
        list(config.codebook),
        zic * zic_share,
        up,
        dn,
        config.delay_prices,
        config.lookahead,
        arrival_rates=config.padded_rates() * zic_share,
        deadline_epochs=config.deadline_epochs,
        capacity_cap=config.capacity_cap,
        start_lag=config.start_lag,
    )


def run_ddls(config: ScenarioConfig, arrival_counts=None) -> RunResult:
    """One receding-horizon scheduler controls the whole population."""
    counts = _scenario_counts(config, arrival_counts)
    sched = _build_scheduler(config)
    sched.run(counts, drain=True)

    flex = sched.realized_load()
    last_epoch = len(sched.trajectory) - 1
    metrics = _metrics_from_ledger(config, "ddls", flex, sched.ledger, int(counts.sum()), last_epoch)
    return RunResult(metrics, sched.trajectory, flex, sched.ledger)


def run_distributed(config: ScenarioConfig, arrival_counts=None) -> RunResult:
    """Split the population across independent schedulers.

    Each arrival is assigned uniformly at random (its own seed stream,
    so the population itself matches the other strategies) and each
    scheduler chases an equal 1/M share of the supply.  Costs, delays,
    and served counts are summed; the peak is taken on the aggregate
    load, since that is what the feeder sees.
    """
    counts = _scenario_counts(config, arrival_counts)
    m = config.n_schedulers
    shares = np.zeros((m,) + counts.shape, dtype=np.int64)
    assign_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    for q in range(counts.shape[0]):
        for epoch in range(counts.shape[1]):
            for owner in assign_rng.integers(0, m, size=int(counts[q, epoch])):
                shares[owner, q, epoch] += 1

    zic, up, dn = config.padded_profiles()
    prices = DelayPrices(config.delay_prices)
    deviation = 0.0
    delay_cost = 0.0
    delays: list[int] = []
    flex_parts = []
    trajectories = []
    for owner in range(m):
        sched = _build_scheduler(config, zic_share=1.0 / m)
        sched.run(shares[owner], drain=True)
        flex_part = sched.realized_load()
        deviation += _deviation_cost(flex_part, zic / m, up, dn)
        delay_cost += dci(sched.ledger, 0, len(sched.trajectory) - 1, prices)
        delays.extend(delay for _, _, delay in sched.ledger.fifo_delays())
        flex_parts.append(flex_part)
        trajectories.append(sched.trajectory)

    length = max(len(part) for part in flex_parts)
    flex = np.zeros(length)
    for part in flex_parts:
        flex[: len(part)] += part
    metrics = RunMetrics(
        strategy="distributed",
        seed=config.seed,
        total_cost=deviation + delay_cost,
        deviation_cost=deviation,
        delay_cost=delay_cost,
        mean_delay_epochs=float(np.mean(delays)) if delays else 0.0,
        peak_kw=float(flex.max()) if length else 0.0,
        served=int(counts.sum()),
    )

    # Up/dn columns below are aggregate-vs-full-supply diagnostics; the
    # stage costs are the per-scheduler share costs actually paid, which
    # do not cancel across schedulers the way aggregate deviations do.
    traj = Trajectory()
    last_epoch = max(len(t) for t in trajectories) - 1
    for epoch in range(last_epoch + 1):
        stage = sum(t.stage_costs[epoch] for t in trajectories if epoch < len(t))
        backlog = np.zeros(config.n_queues, dtype=np.int64)
        for t in trajectories:
            if epoch < len(t):
                backlog += t.backlog[epoch]
        traj.append(flex[epoch], zic[epoch], backlog, stage)
    return RunResult(metrics, traj, flex, None)


def default_price_curve(config: ScenarioConfig, slope: float = 1.0) -> np.ndarray:
    """Broadcast price that dips where supply is plentiful.

    price(l) = c0 - slope * P(l) with c0 chosen to keep every entry
    strictly positive, including the padded tail where P = 0.
    """
    zic, _, _ = config.padded_profiles()
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
    price = np.asarray(price, dtype=float)
    length = config.padded_length()
    if price.shape != (length,):
        raise ConfigurationError(f"price curve must have shape ({length},), got {price.shape}")

    starts = np.zeros((config.n_queues, length), dtype=np.int64)
    for q, code in enumerate(config.codebook):
        pulse = np.asarray(code.pulse)
        window = np.arange(config.deadline_epochs + 1)
        for epoch in np.nonzero(counts[q])[0]:
            first = epoch + window + config.start_lag
            costs = [float(price[f : f + len(pulse)] @ pulse) for f in first]
            best = int(epoch + window[int(np.argmin(costs))])
            starts[q, best] += counts[q, epoch]

    flex = synthesize_load(starts, list(config.codebook), length, config.start_lag)

    ledger = QueueLedger(config.n_queues)
    horizon_arrivals = np.zeros((config.n_queues, starts.shape[1]), dtype=np.int64)
    horizon_arrivals[:, : config.horizon_epochs] = counts
    for epoch in range(starts.shape[1]):
        ledger.record_arrivals(epoch, horizon_arrivals[:, epoch])
        ledger.apply_departures(epoch, starts[:, epoch])

    last_epoch = length - 1
    metrics = _metrics_from_ledger(config, "price", flex, ledger, int(counts.sum()), last_epoch)
    trajectory = _ledger_trajectory(config, flex, ledger, last_epoch)
    return RunResult(metrics, trajectory, flex, ledger)


_RUNNERS = {
    "uncontrolled": run_uncontrolled,
    "ddls": run_ddls,
    "distributed": run_distributed,
    "price": run_price_signal,
}


def run_scenario(config: ScenarioConfig, arrival_counts=None) -> RunResult:
    """Dispatch on ``config.strategy``."""
    return _RUNNERS[config.strategy](config, arrival_counts)


def compare(config: ScenarioConfig, strategies=STRATEGIES) -> list[RunResult]:
    """Run several strategies on the identical arrival draw."""
    counts = _scenario_counts(config, None)
    return [_RUNNERS[name](config, counts) for name in strategies]


def summary_rows(results: list[RunResult]) -> list[dict]:
    """Relative scoreboard against the uncontrolled baseline."""
    metrics = [r.metrics for r in results]
    base = next((m for m in metrics if m.strategy == "uncontrolled"), metrics[0])
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
