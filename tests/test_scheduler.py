"""Window-program construction, rounding, and the receding-horizon loop.

The heavyweight oracle here is exhaustive enumeration: on toy instances
every feasible integer departure schedule is costed directly from the
synthesized load, and the LP relaxation must come in at or below the
best of them.
"""

import itertools

import numpy as np
import pytest

from ddls.core import ChargeCode, synthesize_load
from ddls.errors import ConfigurationError
from ddls import lp
from ddls.lp import LpSolution
from ddls.lp import solve as lp_solve
from ddls.scheduler import (
    HorizonInputs,
    RecedingHorizonScheduler,
    apply_capacity_cap,
    build_gamma,
    build_program,
    certainty_equivalent_arrivals,
    extract_plan,
    pulse_toeplitz,
    round_and_commit,
)


def window_inputs(codebook, zic, counts, *, price_up=1.0, price_dn=1.0,
                  delay=0.01, **kw):
    """A fresh window at epoch 0 with fully known arrivals.

    ``counts`` is the (Q, T+1) per-epoch arrival count matrix over the
    window; everything in column 0 is already observed.
    """
    counts = np.asarray(counts)
    q, width = counts.shape
    t = width - 1
    up = np.full(t + 1, price_up, dtype=float) if np.ndim(price_up) == 0 else np.asarray(price_up, dtype=float)
    dn = np.full(t + 1, price_dn, dtype=float) if np.ndim(price_dn) == 0 else np.asarray(price_dn, dtype=float)
    return HorizonInputs(
        start_epoch=0,
        observed=counts[:, :1],
        prior_departures=np.zeros(q, dtype=np.int64),
        zic_kw=np.asarray(zic, dtype=float),
        price_up=up,
        price_dn=dn,
        delay_prices=np.full(q, float(delay)),
        codebook=codebook,
        lookahead=t,
        t1=t,
        known_future=counts,
        **kw,
    )


def monotone_paths(cum, completion_pos):
    """All nondecreasing integer vectors d with 0 <= d <= cum and
    d[completion_pos] = cum[completion_pos]."""
    width = cum.size

    def rec(j, prev, acc):
        if j == width:
            yield tuple(acc)
            return
        hi = int(cum[j])
        lo = hi if j == completion_pos else prev
        for v in range(max(lo, prev), hi + 1):
            acc.append(v)
            yield from rec(j + 1, v, acc)
            acc.pop()

    yield from rec(0, 0, [])


def true_window_cost(schedule, inputs):
    """Cost the LP is modelling, computed directly from the load."""
    d = np.asarray(schedule, dtype=float)
    width = inputs.lookahead + 1
    inc = np.diff(np.hstack([np.zeros((d.shape[0], 1)), d]), axis=1)
    load = synthesize_load(inc, list(inputs.codebook), width,
                           start_lag=inputs.start_lag)
    dev = load - inputs.zic_kw
    cost = float(inputs.price_up @ np.maximum(dev, 0.0)
                 + inputs.price_dn @ np.maximum(-dev, 0.0))
    cum = inputs.arrival_matrix()
    cost += float((inputs.delay_prices[:, None] * (cum - d)).sum())
    return cost


def best_integer_cost(inputs):
    """Exhaustive minimum over all feasible integer schedules."""
    cum = np.rint(inputs.arrival_matrix()).astype(int)
    per_queue = []
    for qi, code in enumerate(inputs.codebook):
        pos = inputs.lookahead - code.duration_epochs
        per_queue.append(list(monotone_paths(cum[qi], pos)))
    best = np.inf
    for combo in itertools.product(*per_queue):
        best = min(best, true_window_cost(np.array(combo), inputs))
    return best


def random_codebook(rng, n_queues, max_duration):
    return [
        ChargeCode(
            id=qi + 1,
            pulse=tuple(
                rng.uniform(0.5, 3.0, size=int(rng.integers(1, max_duration + 1)))
            ),
        )
        for qi in range(n_queues)
    ]


class TestGamma:
    def test_toeplitz_hand_case(self):
        code = ChargeCode(id=1, pulse=(2.0, 2.0))
        expected = np.array([
            [2.0, 0.0, 0.0, 0.0],
            [2.0, 2.0, 0.0, 0.0],
            [0.0, 2.0, 2.0, 0.0],
            [0.0, 0.0, 2.0, 2.0],
        ])
        assert np.array_equal(pulse_toeplitz(code, 3), expected)

    def test_toeplitz_start_lag_shifts_down(self):
        code = ChargeCode(id=1, pulse=(2.0, 2.0))
        lagged = pulse_toeplitz(code, 3, start_lag=1)
        assert np.array_equal(lagged[1:, 0], [2.0, 2.0, 0.0])
        assert lagged[0, 0] == 0.0

    def test_zero_pulse_gives_zero_matrix(self):
        code = ChargeCode(id=1, pulse=(0.0, 0.0))
        assert not pulse_toeplitz(code, 4).any()
        assert not build_gamma([code], 4).any()

    def test_pulse_longer_than_window_rejected(self):
        code = ChargeCode(id=1, pulse=(1.0, 1.0, 1.0))
        with pytest.raises(ConfigurationError):
            pulse_toeplitz(code, 2)

    def test_matches_convolution_on_random_departures(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = int(rng.integers(1, 4))
            t = int(rng.integers(3, 8))
            codebook = random_codebook(rng, q, min(3, t))
            inc = rng.integers(0, 3, size=(q, t + 1))
            cum = np.cumsum(inc, axis=1)
            for lag in (0, 1):
                gamma = build_gamma(codebook, t, start_lag=lag)
                direct = synthesize_load(inc, codebook, t + 1, start_lag=lag)
                assert np.allclose(gamma @ cum.flatten(), direct, atol=1e-9)


class TestCertaintyEquivalent:
    def test_zero_rates_stay_constant(self):
        observed = np.array([[0, 2, 3]])
        a = certainty_equivalent_arrivals(observed, None, 2, 4)
        assert np.array_equal(a, np.full((1, 5), 3.0))

    def test_expected_growth_then_flat(self):
        a = certainty_equivalent_arrivals(np.array([[1]]), np.array([2.0]), 0, 5, t2=3)
        assert np.array_equal(a[0], [1.0, 3.0, 5.0, 7.0, 7.0, 7.0])

    def test_fractional_rates_allowed(self):
        a = certainty_equivalent_arrivals(np.array([[0]]), np.array([0.25]), 0, 4)
        assert np.allclose(a[0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_known_interval_overrides_rates(self):
        known = np.array([[0, 3, 0, 1, 0]])
        a = certainty_equivalent_arrivals(
            np.array([[0]]), np.array([9.0]), 0, 4, t1=2, t2=3, known_future=known
        )
        # offsets 1..2 realized, offset 3 statistical, offset 4 nothing
        assert np.array_equal(a[0], [0.0, 3.0, 3.0, 12.0, 12.0])

    def test_rows_are_nondecreasing(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = int(rng.integers(1, 4))
            l0 = int(rng.integers(0, 4))
            t = int(rng.integers(2, 7))
            observed = np.cumsum(rng.integers(0, 3, size=(q, l0 + 1)), axis=1)
            rates = rng.uniform(0.0, 2.0, size=q)
            a = certainty_equivalent_arrivals(observed, rates, l0, t,
                                              t2=int(rng.integers(0, t + 1)))
            assert (np.diff(a, axis=1) >= -1e-12).all()
            assert np.array_equal(a[:, 0], observed[:, l0])

    def test_matches_poisson_sample_mean(self):
        rng = np.random.default_rng(31)
        lam = np.array([0.7, 1.3])
        observed = np.array([[2], [0]])
        a = certainty_equivalent_arrivals(observed, lam, 0, 6)
        draws = rng.poisson(lam[None, :, None], size=(10000, 2, 6))
        cum = np.cumsum(draws, axis=2) + observed[None, :, :]
        sampled = cum.mean(axis=0)
        rel = np.abs(sampled - a[:, 1:]) / a[:, 1:]
        assert rel.max() < 0.02

    def test_bad_knowledge_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            certainty_equivalent_arrivals(np.array([[1]]), None, 0, 3, t1=2, t2=1,
                                          known_future=np.zeros((1, 4)))
        with pytest.raises(ConfigurationError):
            certainty_equivalent_arrivals(np.array([[1]]), None, 0, 3, t1=2)


class TestBuildProgram:
    def test_no_arrivals_buys_the_whole_profile(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        zic = np.array([3.0, -1.0, 0.0, 2.0])
        inputs = window_inputs(codebook, zic, np.zeros((1, 4), dtype=int),
                               price_up=2.0, price_dn=1.5, delay=0.0)
        sol = lp_solve(build_program(inputs))
        plan = extract_plan(sol, inputs)
        assert np.allclose(plan.departures, 0.0, atol=1e-9)
        assert np.allclose(plan.up_kw, np.maximum(-zic, 0.0), atol=1e-8)
        assert np.allclose(plan.dn_kw, np.maximum(zic, 0.0), atol=1e-8)
        assert plan.objective == pytest.approx(1.5 * 5.0 + 2.0 * 1.0, abs=1e-8)

    def test_single_start_lands_on_the_bump(self):
        codebook = [ChargeCode(id=1, pulse=(2.0,))]
        counts = np.array([[1, 0, 0]])
        inputs = window_inputs(codebook, [0.0, 2.0, 0.0], counts, delay=0.05)
        sol = lp_solve(build_program(inputs))
        plan = extract_plan(sol, inputs)
        assert np.allclose(plan.departures, [[0.0, 1.0, 1.0]], atol=1e-8)
        assert plan.objective == pytest.approx(0.05, abs=1e-8)
        # enumeration agrees that the bump epoch is the unique argmin
        costs = [
            true_window_cost(np.array([[1, 1, 1]]), inputs),
            true_window_cost(np.array([[0, 1, 1]]), inputs),
            true_window_cost(np.array([[0, 0, 1]]), inputs),
        ]
        assert np.argmin(costs) == 1
        assert plan.objective == pytest.approx(min(costs), abs=1e-8)

    def test_completion_forces_horizon_end_service(self):
        codebook = [ChargeCode(id=1, pulse=(1.0, 1.0))]
        counts = np.array([[2, 0, 0, 0, 0]])
        # supply never wants the load, but completion still drains it
        inputs = window_inputs(codebook, np.zeros(5), counts, delay=0.0)
        sol = lp_solve(build_program(inputs))
        plan = extract_plan(sol, inputs)
        pos = inputs.lookahead - 2
        assert plan.departures[0, pos] == pytest.approx(2.0, abs=1e-8)

    def test_relaxed_completion_slack_stays_zero_when_feasible(self):
        rng = np.random.default_rng(23)
        codebook = random_codebook(rng, 2, 2)
        counts = rng.integers(0, 2, size=(2, 6))
        zic = rng.uniform(0.0, 3.0, size=6)
        inputs = window_inputs(codebook, zic, counts)
        strict = lp_solve(build_program(inputs))
        relaxed = lp_solve(build_program(inputs, relax_completion=True))
        assert np.allclose(relaxed.values[-2:], 0.0, atol=1e-7)
        assert relaxed.objective == pytest.approx(strict.objective, abs=1e-7)

    def test_committed_history_shrinks_usable_supply(self):
        codebook = [ChargeCode(id=1, pulse=(1.0, 1.0, 1.0))]
        sched = flat_scheduler(codebook, np.full(10, 5.0), 3)
        for _ in range(2):
            # the completion row forces each start at once
            sched.observe_arrivals(np.array([1]))
            assert sched.step().committed.tolist() == [1]
        sched.observe_arrivals(np.array([0]))
        # starts at epochs 0 and 1 still draw 1 kW each into epochs 2..3
        assert np.allclose(sched.horizon_inputs().zic_kw, [3.0, 4.0, 5.0, 5.0])

    def test_observed_must_be_cumulative(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        with pytest.raises(ConfigurationError):
            HorizonInputs(
                start_epoch=1,
                observed=np.array([[3, 1]]),
                prior_departures=np.array([0]),
                zic_kw=np.zeros(3),
                price_up=np.ones(3),
                price_dn=np.ones(3),
                delay_prices=np.array([0.1]),
                codebook=codebook,
                lookahead=2,
            )

    def test_lookahead_shorter_than_pulse_rejected(self):
        codebook = [ChargeCode(id=1, pulse=(1.0, 1.0, 1.0))]
        with pytest.raises(ConfigurationError):
            window_inputs(codebook, np.zeros(3), np.zeros((1, 3), dtype=int))


def rowwise_program(inputs, relax_completion):
    """Oracle: the window LP assembled densely, one row at a time."""
    q, t = inputs.n_queues, inputs.lookahead
    width = t + 1
    n_e = q * width
    n = n_e + 2 * width + (q if relax_completion else 0)
    arrivals = inputs.arrival_matrix()
    shifted = np.maximum(arrivals - inputs.prior_departures[:, None], 0.0)
    gamma = build_gamma(inputs.codebook, t, inputs.start_lag)
    net = inputs.zic_kw

    cost = np.zeros(n)
    for qi in range(q):
        cost[qi * width : (qi + 1) * width] = -inputs.delay_prices[qi]
    cost[n_e : n_e + width] = inputs.price_up
    cost[n_e + width : n_e + 2 * width] = inputs.price_dn
    if relax_completion:
        cost[n_e + 2 * width :] = 10.0 * max(
            inputs.price_up.max(), inputs.price_dn.max(), inputs.delay_prices.max(), 1.0
        )

    eq_rows, eq_rhs = [], []
    for j in range(width):
        row = np.zeros(n)
        row[:n_e] = gamma[j]
        row[n_e + j] = -1.0
        row[n_e + width + j] = 1.0
        eq_rows.append(row)
        eq_rhs.append(net[j])
    for qi, code in enumerate(inputs.codebook):
        pos = t - code.duration_epochs
        row = np.zeros(n)
        row[qi * width + pos] = 1.0
        if relax_completion:
            row[n_e + 2 * width + qi] = 1.0
        eq_rows.append(row)
        eq_rhs.append(shifted[qi, pos])

    ineq_rows = []
    for qi in range(q):
        for j in range(1, width):
            row = np.zeros(n)
            row[qi * width + j] = 1.0
            row[qi * width + j - 1] = -1.0
            ineq_rows.append(row)

    floor = np.zeros((q, width))
    for j in range(width):
        cutoff = inputs.start_epoch + j - inputs.deadline_epochs
        if 0 <= cutoff <= inputs.start_epoch:
            floor[:, j] = inputs.observed[:, cutoff]
        elif cutoff > inputs.start_epoch:
            floor[:, j] = arrivals[:, cutoff - inputs.start_epoch]
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for qi in range(q):
        lo = np.maximum(floor[qi] - inputs.prior_departures[qi], 0.0)
        lower[qi * width : (qi + 1) * width] = np.minimum(lo, shifted[qi])
        upper[qi * width : (qi + 1) * width] = shifted[qi]
    return {
        "objective": cost, "eq_matrix": np.array(eq_rows), "eq_rhs": np.array(eq_rhs),
        "ineq_matrix": np.array(ineq_rows), "ineq_rhs": np.zeros(len(ineq_rows)),
        "lower": lower, "upper": upper,
    }


def mid_day_inputs(codebook, start_lag=0, seed=5):
    """A window at epoch 6 with history, forecasts and a deadline."""
    rng = np.random.default_rng(seed)
    q, t, l0 = len(codebook), 7, 6
    increments = rng.integers(0, 3, size=(q, l0 + 1))
    observed = np.cumsum(increments, axis=1)
    return HorizonInputs(
        start_epoch=l0,
        observed=observed,
        prior_departures=observed[:, -3],
        zic_kw=rng.uniform(0.0, 6.0, size=t + 1),
        price_up=rng.uniform(0.5, 2.0, size=t + 1),
        price_dn=rng.uniform(0.1, 1.0, size=t + 1),
        delay_prices=rng.uniform(0.0, 0.2, size=q),
        codebook=codebook,
        lookahead=t,
        forecast_rates=rng.uniform(0.0, 1.5, size=q),
        deadline_epochs=4,
        start_lag=start_lag,
    )


class TestWindowStructure:
    CODEBOOK = (
        ChargeCode(id=1, pulse=(1.5,)),
        ChargeCode(id=2, pulse=(2.0, 1.0)),
        ChargeCode(id=3, pulse=(0.5, 3.0, 2.5)),
    )

    @pytest.mark.parametrize("start_lag", [0, 1])
    @pytest.mark.parametrize("relax", [False, True])
    def test_matches_rowwise_assembly(self, relax, start_lag):
        inputs = mid_day_inputs(self.CODEBOOK, start_lag)
        program = build_program(inputs, relax_completion=relax)
        for name, expected in rowwise_program(inputs, relax).items():
            got = getattr(program, name)
            assert got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name

    def test_windows_share_read_only_rows(self):
        a = build_program(mid_day_inputs(self.CODEBOOK, seed=1))
        b = build_program(mid_day_inputs(list(self.CODEBOOK), seed=2))
        assert a.eq_matrix is b.eq_matrix
        assert a.ineq_matrix is b.ineq_matrix
        assert a.ineq_rhs is b.ineq_rhs
        assert not np.array_equal(a.eq_rhs, b.eq_rhs)
        for arr in (a.eq_matrix, a.ineq_matrix, a.ineq_rhs):
            with pytest.raises(ValueError):
                arr[0] = 7.0
        lagged = build_program(mid_day_inputs(self.CODEBOOK, start_lag=1))
        relaxed = build_program(mid_day_inputs(self.CODEBOOK), relax_completion=True)
        assert lagged.eq_matrix is not a.eq_matrix
        assert relaxed.eq_matrix is not a.eq_matrix

    def test_arrival_matrix_computed_once(self):
        inputs = mid_day_inputs(self.CODEBOOK)
        arrivals = inputs.arrival_matrix()
        assert inputs.arrival_matrix() is arrivals
        expected = certainty_equivalent_arrivals(
            inputs.observed, inputs.forecast_rates, inputs.start_epoch, inputs.lookahead
        )
        assert arrivals.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            arrivals[0, 0] = 1.0


class TestAgainstEnumeration:
    # lp.solve, and the linprog path it falls back to without the HiGHS binding
    @pytest.mark.parametrize("path", ["highs", "linprog"])
    def test_relaxation_lower_bounds_integer_optimum_small(self, path):
        solve = lp_solve if path == "highs" else lp._solve_linprog
        rng = np.random.default_rng(101)
        for _ in range(6):
            q = int(rng.integers(1, 3))
            t = int(rng.integers(3, 5))
            codebook = random_codebook(rng, q, 2)
            counts = np.zeros((q, t + 1), dtype=int)
            for _ in range(int(rng.integers(1, 4))):
                counts[rng.integers(0, q), rng.integers(0, t)] += 1
            zic = rng.uniform(0.0, 2.5, size=t + 1)
            inputs = window_inputs(codebook, zic, counts,
                                   price_up=float(rng.uniform(0.5, 2.0)),
                                   price_dn=float(rng.uniform(0.5, 2.0)),
                                   delay=float(rng.uniform(0.0, 0.2)))
            sol = solve(build_program(inputs))
            plan = extract_plan(sol, inputs)
            assert plan.objective <= best_integer_cost(inputs) + 1e-7

    def test_relaxation_lower_bounds_integer_optimum_larger(self):
        rng = np.random.default_rng(211)
        for _ in range(14):
            q = int(rng.integers(1, 3))
            t = int(rng.integers(4, 7))
            codebook = random_codebook(rng, q, 2)
            counts = np.zeros((q, t + 1), dtype=int)
            for _ in range(int(rng.integers(1, 5))):
                counts[rng.integers(0, q), rng.integers(0, t)] += 1
            zic = rng.uniform(0.0, 3.0, size=t + 1)
            inputs = window_inputs(codebook, zic, counts,
                                   delay=float(rng.uniform(0.0, 0.3)))
            sol = lp_solve(build_program(inputs))
            plan = extract_plan(sol, inputs)
            assert plan.objective <= best_integer_cost(inputs) + 1e-7

    def test_lemma1_no_simultaneous_purchases_at_positive_prices(self):
        rng = np.random.default_rng(307)
        for _ in range(10):
            q = int(rng.integers(1, 3))
            t = int(rng.integers(3, 6))
            codebook = random_codebook(rng, q, 2)
            counts = np.zeros((q, t + 1), dtype=int)
            counts[:, 0] = rng.integers(0, 3, size=q)
            inputs = window_inputs(codebook, rng.uniform(0.0, 3.0, size=t + 1),
                                   counts, price_up=float(rng.uniform(0.1, 2.0)),
                                   price_dn=float(rng.uniform(0.1, 2.0)))
            sol = lp_solve(build_program(inputs))
            width = t + 1
            up = sol.values[q * width : q * width + width]
            dn = sol.values[q * width + width : q * width + 2 * width]
            assert (np.minimum(up, dn) <= 1e-7).all()


class TestRoundAndCommit:
    def _inputs(self, prior, observed_now):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        return HorizonInputs(
            start_epoch=0,
            observed=np.array([[observed_now]]),
            prior_departures=np.array([prior]),
            zic_kw=np.zeros(2),
            price_up=np.ones(2),
            price_dn=np.ones(2),
            delay_prices=np.array([0.0]),
            codebook=codebook,
            lookahead=1,
        )

    def _solution(self, e_values):
        vals = np.zeros(1 * 2 + 2 + 2)
        vals[0] = e_values
        return LpSolution("optimal", vals, 0.0)

    def test_rounds_to_nearest(self):
        inputs = self._inputs(prior=1, observed_now=5)
        committed = round_and_commit(self._solution(1.4), inputs)  # d = 2.4
        assert committed.tolist() == [1]

    def test_clamps_to_arrivals(self):
        inputs = self._inputs(prior=0, observed_now=3)
        committed = round_and_commit(self._solution(3.7), inputs)
        assert committed.tolist() == [3]

    def test_half_goes_to_even(self):
        inputs = self._inputs(prior=0, observed_now=9)
        assert round_and_commit(self._solution(2.5), inputs).tolist() == [2]
        assert round_and_commit(self._solution(3.5), inputs).tolist() == [4]

    def test_never_uncommits_prior_departures(self):
        inputs = self._inputs(prior=4, observed_now=6)
        committed = round_and_commit(self._solution(-2.0), inputs)
        assert committed.tolist() == [0]

    def test_random_solutions_respect_queue_invariants(self):
        rng = np.random.default_rng(401)
        for _ in range(200):
            prior = int(rng.integers(0, 4))
            observed_now = prior + int(rng.integers(0, 5))
            inputs = self._inputs(prior, observed_now)
            committed = round_and_commit(self._solution(float(rng.normal(0, 4))), inputs)
            assert 0 <= committed[0] <= observed_now - prior

    def test_non_optimal_solution_rejected(self):
        inputs = self._inputs(0, 1)
        with pytest.raises(ConfigurationError):
            round_and_commit(LpSolution("infeasible", None, float("nan")), inputs)


class TestCapacityCap:
    def test_unbounded_cap_is_identity(self):
        assert apply_capacity_cap(np.array([3, 2]), None).tolist() == [3, 2]
        assert apply_capacity_cap(np.array([3, 2]), np.inf).tolist() == [3, 2]

    def test_zero_cap_blocks_everything(self):
        assert apply_capacity_cap(np.array([3, 2]), 0).tolist() == [0, 0]

    def test_round_robin_grant_order(self):
        assert apply_capacity_cap(np.array([2, 2]), 3).tolist() == [2, 1]
        assert apply_capacity_cap(np.array([1, 3]), 2).tolist() == [1, 1]
        assert apply_capacity_cap(np.array([0, 4]), 3).tolist() == [0, 3]

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_capacity_cap(np.array([1]), -1)


def flat_scheduler(codebook, zic, lookahead, **kw):
    kw.setdefault("price_up", 1.0)
    kw.setdefault("price_dn", 1.0)
    kw.setdefault("delay_prices", np.full(len(codebook), 0.05))
    return RecedingHorizonScheduler(codebook, zic, kw.pop("price_up"),
                                    kw.pop("price_dn"), kw.pop("delay_prices"),
                                    lookahead, **kw)


class TestRecedingHorizon:
    def test_no_arrivals_gives_zero_trajectory(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        sched = flat_scheduler(codebook, np.zeros(10), 3)
        traj = sched.run(np.zeros((1, 4), dtype=int))
        assert len(traj) == 4
        assert traj.flex_kw == [0.0] * 4
        assert traj.total_cost == 0.0
        assert all(b.sum() == 0 for b in traj.backlog)

    def test_matches_enumeration_on_flat_supply_toy(self):
        # 2 appliances, unit pulses, supply 1 kW for six epochs
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        zic = np.concatenate([np.ones(6), np.zeros(6)])
        arrivals = np.array([[2, 0, 0, 0, 0, 0]])
        sched = flat_scheduler(codebook, zic, 6, known_arrivals=arrivals)
        traj = sched.run(arrivals)
        # realized: serve one per epoch while supply lasts
        assert traj.flex_kw[:2] == [1.0, 1.0]
        inputs = window_inputs(codebook, zic[:7], np.hstack([arrivals, [[0]]]),
                               delay=0.05)
        assert traj.total_cost <= best_integer_cost(inputs) + 1e-7

    def test_one_shot_and_receding_horizon_agree_when_integral(self):
        codebook = [ChargeCode(id=1, pulse=(2.0,))]
        zic = np.concatenate([[0.0, 2.0, 0.0, 2.0], np.zeros(8)])
        arrivals = np.array([[1, 0, 1, 0, 0, 0]])
        one_shot = window_inputs(codebook, zic[:6], np.array([[1, 0, 1, 0, 0, 0]]),
                                 delay=0.05)
        plan = extract_plan(lp_solve(build_program(one_shot)), one_shot)
        inc = np.diff(np.hstack([[[0.0]], plan.departures]), axis=1)
        assert np.allclose(inc, np.rint(inc), atol=1e-8)
        sched = flat_scheduler(codebook, zic, 5, known_arrivals=arrivals)
        traj = sched.run(arrivals, drain=True)
        committed = np.array([c[0] for c in traj.committed], dtype=float)
        assert np.allclose(committed[:6], inc[0], atol=1e-8)

    def test_backlog_never_negative_and_always_drained(self):
        rng = np.random.default_rng(509)
        codebook = [ChargeCode(id=1, pulse=(1.0, 1.0)), ChargeCode(id=2, pulse=(2.0,))]
        zic = np.concatenate([rng.uniform(0.0, 4.0, size=12), np.full(20, 2.0)])
        arrivals = rng.poisson(0.6, size=(2, 10))
        sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.6),
                               deadline_epochs=6)
        traj = sched.run(arrivals)
        assert all((b >= 0).all() for b in traj.backlog)
        assert traj.backlog[-1].sum() == 0
        served = sum(int(c.sum()) for c in traj.committed)
        assert served == int(arrivals.sum())

    def test_deadline_bounds_every_wait(self):
        rng = np.random.default_rng(601)
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        # zero supply: only the deadline forces service
        zic = np.zeros(40)
        arrivals = rng.poisson(0.8, size=(1, 12))
        sched = flat_scheduler(codebook, zic, 8, deadline_epochs=4,
                               delay_prices=np.zeros(1))
        traj = sched.run(arrivals)
        delays = [wait for _, _, wait in sched.ledger.fifo_delays()]
        assert delays and max(delays) <= 4

    def test_capacity_cap_limits_each_epoch(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        zic = np.full(16, 10.0)
        arrivals = np.array([[5, 0, 0, 0]])
        sched = flat_scheduler(codebook, zic, 4, capacity_cap=2, deadline_epochs=4)
        traj = sched.run(arrivals)
        assert all(int(c.sum()) <= 2 for c in traj.committed)
        assert sum(int(c.sum()) for c in traj.committed) == 5

    def test_stage_costs_match_market_recomputation(self):
        rng = np.random.default_rng(707)
        codebook = [ChargeCode(id=1, pulse=(1.0, 1.0))]
        zic = rng.uniform(0.0, 3.0, size=24)
        arrivals = rng.poisson(0.5, size=(1, 8))
        sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.array([0.5]),
                               deadline_epochs=8, price_up=1.3, price_dn=0.7)
        traj = sched.run(arrivals)
        for l in range(len(traj)):
            dev = traj.flex_kw[l] - traj.zic_kw[l]
            expected = 1.3 * max(dev, 0.0) + 0.7 * max(-dev, 0.0)
            expected += 0.05 * traj.backlog[l].sum()
            assert traj.stage_costs[l] == pytest.approx(expected, abs=1e-9)

    def test_runs_are_deterministic(self):
        rng = np.random.default_rng(811)
        codebook = [ChargeCode(id=1, pulse=(1.5,)), ChargeCode(id=2, pulse=(1.0, 1.0))]
        zic = rng.uniform(0.0, 4.0, size=30)
        arrivals = rng.poisson(0.7, size=(2, 10))
        runs = []
        for _ in range(2):
            sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.7),
                                   deadline_epochs=8)
            runs.append(sched.run(arrivals.copy()))
        assert runs[0].flex_kw == runs[1].flex_kw
        assert runs[0].stage_costs == runs[1].stage_costs
        assert all(
            np.array_equal(a, b) for a, b in zip(runs[0].committed, runs[1].committed)
        )

    @pytest.mark.parametrize("start_lag", [0, 1])
    def test_window_supply_is_net_of_committed_load(self, start_lag):
        rng = np.random.default_rng(1013)
        codebook = [ChargeCode(id=1, pulse=(1.0, 2.0, 0.5)), ChargeCode(id=2, pulse=(1.5,))]
        zic = rng.uniform(0.0, 4.0, size=40)
        arrivals = rng.poisson(0.8, size=(2, 10))
        sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.8),
                               deadline_epochs=5, start_lag=start_lag)
        original = sched.horizon_inputs
        checked = []

        def checked_inputs():
            inputs = original()
            l0, width = sched.epoch, sched.lookahead + 1
            inc = np.array(sched.trajectory.committed, dtype=float).reshape(l0, 2).T
            load = synthesize_load(inc, codebook, l0 + width, start_lag=start_lag)
            expected = zic[l0 : l0 + width] - load[l0:]
            np.testing.assert_allclose(inputs.zic_kw, expected, rtol=0, atol=1e-9)
            checked.append(not np.array_equal(expected, zic[l0 : l0 + width]))
            return inputs

        sched.horizon_inputs = checked_inputs
        traj = sched.run(arrivals)
        assert len(checked) == len(traj)
        assert sum(checked) > len(traj) // 2  # most windows carry committed tails

    def test_flex_load_matches_synthesis_of_committed(self):
        rng = np.random.default_rng(919)
        codebook = [ChargeCode(id=1, pulse=(1.0, 2.0)), ChargeCode(id=2, pulse=(1.0,))]
        zic = rng.uniform(0.0, 3.0, size=26)
        arrivals = rng.poisson(0.5, size=(2, 8))
        sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.5),
                               deadline_epochs=8)
        traj = sched.run(arrivals)
        inc = np.array(traj.committed).T
        rebuilt = synthesize_load(inc, codebook, len(traj))
        assert np.allclose(traj.flex_kw, rebuilt, atol=1e-9)

    def test_trajectory_csv_round_trip(self, tmp_path):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        zic = np.concatenate([np.ones(3), np.zeros(8)])
        arrivals = np.array([[1, 1, 0]])
        sched = flat_scheduler(codebook, zic, 3, known_arrivals=arrivals)
        traj = sched.run(arrivals)
        path = tmp_path / "trajectory.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,base_kw,flex_kw,zic_kw,up_kw,dn_kw,backlog_q1,stage_cost,cum_cost"
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == traj.flex_kw[0]

    def test_supply_profile_too_short_rejected(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        sched = flat_scheduler(codebook, np.zeros(4), 4)
        sched.observe_arrivals(np.array([1]))
        with pytest.raises(ConfigurationError):
            sched.step()
