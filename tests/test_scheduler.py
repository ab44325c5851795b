"""Window-program construction, rounding, and the receding-horizon loop.

The heavyweight oracle here is exhaustive enumeration: on toy instances
every feasible integer departure schedule is costed directly from the
synthesized load, and the LP relaxation must come in at or below the
best of them.
"""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ddls.core import ChargeCode, synthesize_load
from ddls.errors import ConfigurationError, FeasibilityError
from ddls import lp, scheduler
from ddls.lp import LpSolution
from ddls.lp import solve as lp_solve
from ddls.queues import DelayPrices, dci
from ddls.scheduler import (
    HorizonInputs,
    RecedingHorizonScheduler,
    apply_capacity_cap,
    build_gamma,
    build_program,
    certainty_equivalent_arrivals,
    extract_plan,
    round_and_commit,
)
from ddls.simkit import load_scenario, run_ddls, run_distributed

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_day.json"


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


def one_start_each_epoch(width):
    """Cumulative departures, one column per epoch c: a single start at c."""
    return (np.arange(width)[:, None] >= np.arange(width)).astype(float)


class TestGamma:
    def test_toeplitz_hand_case(self):
        code = ChargeCode(id=1, pulse=(2.0, 2.0))
        expected = np.array([
            [2.0, 0.0, 0.0, 0.0],
            [2.0, 2.0, 0.0, 0.0],
            [0.0, 2.0, 2.0, 0.0],
            [0.0, 0.0, 2.0, 2.0],
        ])
        assert np.array_equal(build_gamma([code], 3) @ one_start_each_epoch(4), expected)

    def test_toeplitz_start_lag_shifts_down(self):
        code = ChargeCode(id=1, pulse=(2.0, 2.0))
        lagged = build_gamma([code], 3, start_lag=1) @ one_start_each_epoch(4)
        assert np.array_equal(lagged[1:, 0], [2.0, 2.0, 0.0])
        assert lagged[0, 0] == 0.0

    def test_stores_the_nonzero_steps_only(self):
        # a square pulse steps up where it starts and down where it ends
        gamma = build_gamma([ChargeCode(id=1, pulse=(2.0, 2.0))], 3)
        assert gamma.nnz == 4 + 2
        assert np.array_equal(np.diff(gamma.indptr), [2, 2, 1, 1])

    def test_zero_pulse_gives_zero_matrix(self):
        code = ChargeCode(id=1, pulse=(0.0, 0.0))
        gamma = build_gamma([code], 4)
        assert gamma.nnz == 0
        assert not (gamma @ np.arange(5.0)).any()

    def test_pulse_longer_than_window_rejected(self):
        code = ChargeCode(id=1, pulse=(1.0, 1.0, 1.0))
        with pytest.raises(ConfigurationError):
            build_gamma([code], 2)

    @pytest.mark.parametrize("start_lag", [-1, 2])
    def test_start_lag_outside_zero_one_rejected(self, start_lag):
        with pytest.raises(ConfigurationError, match="start_lag"):
            build_gamma([ChargeCode(id=1, pulse=(1.0,))], 2, start_lag)

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

    @staticmethod
    def loop_reference(observed, rates, start_epoch, lookahead, t1, t2, known_future):
        """The epoch-by-epoch accumulation that the one-cumsum form replaced."""
        r = None if rates is None else np.asarray(rates, dtype=float)
        a = np.zeros((observed.shape[0], lookahead + 1))
        a[:, 0] = observed[:, start_epoch]
        for j in range(1, lookahead + 1):
            epoch = start_epoch + j
            inc = np.zeros(observed.shape[0])
            if j <= t1:
                if epoch < known_future.shape[1]:
                    inc = known_future[:, epoch]
            elif j <= t2 and r is not None:
                if r.ndim == 1:
                    inc = r
                elif epoch < r.shape[1]:
                    inc = r[:, epoch]
            a[:, j] = a[:, j - 1] + inc
        return a

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_epoch_loop_bit_for_bit(self, data):
        q = data.draw(st.integers(1, 3))
        t = data.draw(st.integers(0, 8))
        l0 = data.draw(st.integers(0, 5))
        t2 = data.draw(st.integers(0, t))
        t1 = data.draw(st.integers(0, t2))
        observed = np.cumsum(data.draw(st.lists(
            st.lists(st.integers(0, 4), min_size=l0 + 1, max_size=l0 + 1),
            min_size=q, max_size=q)), axis=1)
        # the known future and 2-D rates may stop before, inside or after the window
        def matrix(elements):
            width = data.draw(st.integers(0, l0 + t + 3))
            return np.array(data.draw(st.lists(elements, min_size=q * width,
                                               max_size=q * width))).reshape(q, width)

        known = matrix(st.integers(0, 4))
        floats = st.floats(0.0, 3.0, allow_subnormal=False)
        rates = data.draw(st.sampled_from(["none", "1-D", "2-D"]))
        if rates == "none":
            rates = None
        elif rates == "1-D":
            rates = np.array(data.draw(st.lists(floats, min_size=q, max_size=q)))
        else:
            rates = matrix(floats)
        a = certainty_equivalent_arrivals(observed, rates, l0, t, t1=t1, t2=t2,
                                          known_future=known)
        expected = self.loop_reference(observed, rates, l0, t, t1, t2, known)
        assert a.shape == expected.shape
        assert np.array_equal(a, expected)

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

    def test_committed_history_shrinks_usable_supply(self):
        codebook = [ChargeCode(id=1, pulse=(1.0, 1.0, 1.0))]
        sched = flat_scheduler(codebook, np.full(10, 5.0), 3)
        for _ in range(2):
            # the completion row forces each start at once
            sched.observe_arrivals(np.array([1]))
            assert sched.step().committed.tolist() == [[1]]
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


def dense_gamma(codebook, t, start_lag):
    """Oracle for gamma: cumulative departures rising by one at epoch c of
    queue q start one appliance there, so column (q, c) is the load of a
    start at c less that of a start at c + 1 (none past the window)."""
    q, width = len(codebook), t + 1
    load = np.zeros((q, width + 1, width))  # [queue, start epoch, load epoch]
    for qi, c in itertools.product(range(q), range(width)):
        start = np.zeros((q, width), dtype=np.int64)
        start[qi, c] = 1
        load[qi, c] = synthesize_load(start, codebook, width, start_lag=start_lag)
    return (load[:, :-1] - load[:, 1:]).reshape(q * width, width).T


def rowwise_rows(codebook, t, start_lag):
    """Oracle: the window LP's equality and inequality rows, dense, one row at a time."""
    q, width = len(codebook), t + 1
    n_e = q * width
    n = n_e + 2 * width
    gamma = dense_gamma(codebook, t, start_lag)
    eq_rows = []
    for j in range(width):
        row = np.zeros(n)
        row[:n_e] = gamma[j]
        row[n_e + j] = -1.0
        row[n_e + width + j] = 1.0
        eq_rows.append(row)
    for qi, code in enumerate(codebook):
        row = np.zeros(n)
        row[qi * width + t - code.duration_epochs] = 1.0
        eq_rows.append(row)
    ineq_rows = []
    for qi in range(q):
        for j in range(1, width):
            row = np.zeros(n)
            row[qi * width + j] = 1.0
            row[qi * width + j - 1] = -1.0
            ineq_rows.append(row)
    return np.array(eq_rows), np.array(ineq_rows)


def rowwise_program(inputs):
    """Oracle: the window LP assembled densely, one row at a time."""
    q, t = inputs.n_queues, inputs.lookahead
    width = t + 1
    n_e = q * width
    n = n_e + 2 * width
    arrivals = inputs.arrival_matrix()
    shifted = np.maximum(arrivals - inputs.prior_departures[:, None], 0.0)
    eq_matrix, ineq_matrix = rowwise_rows(inputs.codebook, t, inputs.start_lag)

    # each e_q(j) less the tie-break eps * w(q, j), eps a thousandth of the smallest positive price
    prices = [*inputs.delay_prices, *inputs.price_up, *inputs.price_dn]
    eps = 1e-3 * min(p for p in prices if p > 0)
    cost = np.zeros(n)
    for qi in range(q):
        for j in range(width):
            w = (width - j) * (2 * width - j) / (2 * width) * (1 + (q - 1 - qi) / (q + 1))
            cost[qi * width + j] = -inputs.delay_prices[qi] - eps * w
    cost[n_e : n_e + width] = inputs.price_up
    cost[n_e + width : n_e + 2 * width] = inputs.price_dn

    eq_rhs = [0.0] * width  # the net supply is in dn' = dn - s, as its lower bound -s
    for qi, code in enumerate(inputs.codebook):
        eq_rhs.append(shifted[qi, t - code.duration_epochs])

    floor = np.zeros((q, width))
    for j in range(width):
        cutoff = inputs.start_epoch + j - inputs.deadline_epochs
        if 0 <= cutoff <= inputs.start_epoch:
            floor[:, j] = inputs.observed[:, cutoff]
        elif cutoff > inputs.start_epoch:
            floor[:, j] = arrivals[:, cutoff - inputs.start_epoch]
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for j in range(width):
        lower[n_e + width + j] = -inputs.zic_kw[j]
    for qi in range(q):
        lo = np.maximum(floor[qi] - inputs.prior_departures[qi], 0.0)
        lower[qi * width : (qi + 1) * width] = np.minimum(lo, shifted[qi])
        upper[qi * width : (qi + 1) * width] = shifted[qi]
    return {
        "objective": cost, "eq_matrix": eq_matrix, "eq_rhs": np.array(eq_rhs),
        "ineq_matrix": ineq_matrix, "ineq_rhs": np.zeros(len(ineq_matrix)),
        "lower": lower, "upper": upper,
    }


def assert_same_csc(got, expected, label=""):
    """The same CSC arrays, bit for bit, indices and pointers in int32."""
    got = (got.indptr, got.indices, got.data) if scipy.sparse.issparse(got) else got
    for a, b in zip(got, (expected.indptr, expected.indices, expected.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), label
    assert got[1].dtype == np.int32, label


@pytest.mark.parametrize("start_lag", [0, 1])
@pytest.mark.parametrize("scenario", ["configs/desk_day.json", "bench/scenarios/crowd.json",
                                      "bench/scenarios/wide.json"])
def test_window_template_is_the_rowwise_oracle_in_csc(scenario, start_lag):
    config = load_scenario(DESK_CONFIG.parents[1] / scenario)
    template, _ = scheduler._window_rows(config.codebook, config.lookahead, start_lag)
    eq, ineq = rowwise_rows(config.codebook, config.lookahead, start_lag)
    assert_same_csc(template.eq_matrix, scipy.sparse.csc_array(eq), "eq")
    assert_same_csc(template.ineq_matrix, scipy.sparse.csc_array(ineq), "ineq")
    assert_same_csc(template.csc, scipy.sparse.csc_array(np.vstack((-ineq, eq))), "stacked")


# Builds the desk template at T = 2000 in a grandchild and prints the
# grandchild's peak RSS: a child exec'd from a large process inherits that
# process's peak, so the measuring process in between must stay small.
_PEAK_OF_A_T2000_BUILD = """
import resource, subprocess, sys
build = ("from ddls import scheduler; from ddls.simkit import load_scenario; "
         f"scheduler._window_rows(load_scenario({CONFIG!r}).codebook, 2000, 0)")
subprocess.run([sys.executable, "-c", build], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


class TestLongWindowTemplate:
    """The desk template at T = 2000 (20,010 columns), built but never solved."""

    def test_stores_at_most_four_entries_a_column(self):
        codebook = load_scenario(DESK_CONFIG).codebook
        template, _ = scheduler._window_rows.__wrapped__(codebook, 2000, 0)
        indptr = template.csc[0]
        assert template.n_vars == 20_010
        assert indptr[-1] <= 4 * template.n_vars  # 68,006 entries
        # gamma's two steps, the two monotonicity rows and the completion row
        assert np.diff(indptr).max() <= 5

    def test_builds_in_a_process_that_peaks_under_100_mb(self):
        root = DESK_CONFIG.parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        script = f"CONFIG = {str(DESK_CONFIG)!r}\n" + _PEAK_OF_A_T2000_BUILD
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout) / 1024 < 100  # ru_maxrss is in KiB on Linux


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
    def test_matches_rowwise_assembly(self, start_lag):
        inputs = mid_day_inputs(self.CODEBOOK, start_lag)
        program = build_program(inputs)
        for name, expected in rowwise_program(inputs).items():
            got = getattr(program, name)
            assert got.shape == expected.shape, name
            if name.endswith("matrix"):
                assert_same_csc(got, scipy.sparse.csc_array(expected), name)
            else:
                assert got.tobytes() == expected.tobytes(), name

    def test_windows_share_read_only_rows(self):
        a = build_program(mid_day_inputs(self.CODEBOOK, seed=1))
        b = build_program(mid_day_inputs(list(self.CODEBOOK), seed=2))
        assert a.eq_matrix is b.eq_matrix
        assert a.ineq_matrix is b.ineq_matrix
        assert a.ineq_rhs is b.ineq_rhs
        assert not np.array_equal(a.eq_rhs, b.eq_rhs)
        for arr in (a.eq_matrix.data, a.eq_matrix.indices, a.ineq_matrix.data,
                    a.ineq_matrix.indptr, a.ineq_rhs, *a.csc):
            with pytest.raises(ValueError):
                arr[0] = 7
        lagged = build_program(mid_day_inputs(self.CODEBOOK, start_lag=1))
        assert lagged.eq_matrix is not a.eq_matrix

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
    # lp.solve's two paths: a model solved through the HiGHS binding, and linprog
    @pytest.mark.parametrize("path", ["highs", "linprog"])
    def test_relaxation_lower_bounds_integer_optimum_small(self, path):
        def solve(program):
            if path == "linprog":
                return lp._solve_linprog(program)
            return lp_solve(program, model=lp.Model(program))

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

    def test_a_half_off_by_rounding_error_still_goes_to_even(self):
        # two solves that reach the same vertex by different paths may differ in the last bits
        inputs = self._inputs(prior=1, observed_now=9)
        for e0, even in ((1.5 + 4e-16, 1), (1.5 - 4e-16, 1), (2.5 + 1e-9, 3), (2.5 - 1e-9, 3)):
            assert round_and_commit(self._solution(e0), inputs).tolist() == [even], e0
        assert round_and_commit(self._solution(1.5 + 1e-5), inputs).tolist() == [2]

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

    def test_a_float_prior_still_commits_integer_counts(self):
        inputs = dataclasses.replace(self._inputs(prior=1, observed_now=5),
                                     prior_departures=np.array([1.0]))
        committed = round_and_commit(self._solution(1.4), inputs)
        assert committed.dtype == np.int64 and committed.tolist() == [1]

    def test_non_optimal_solution_rejected(self):
        inputs = self._inputs(0, 1)
        with pytest.raises(ConfigurationError):
            round_and_commit(LpSolution("infeasible", None, float("nan")), inputs)


def capacity_cap_loop(counts, cap):
    """The one-slot loop that ``apply_capacity_cap`` replaced: grant
    slots one at a time, round-robin from the lowest queue id."""
    counts = np.asarray(counts, dtype=np.int64)
    if cap is None or not np.isfinite(cap) or counts.sum() <= int(cap):
        return counts.copy()
    granted = np.zeros_like(counts)
    slots = int(cap)
    while slots > 0:
        for qi in range(counts.size):
            if slots == 0:
                break
            if granted[qi] < counts[qi]:
                granted[qi] += 1
                slots -= 1
    return granted


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

    @pytest.mark.parametrize("cap", [-1, -np.inf, np.nan, [1, 2], "a lot"])
    def test_bad_cap_rejected(self, cap):
        with pytest.raises(ConfigurationError, match="capacity_cap"):
            apply_capacity_cap(np.array([1]), cap)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_water_filling_grants_what_the_slot_loop_grants(self, data):
        m, q = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        counts = np.array(data.draw(st.lists(st.lists(st.integers(0, 12), min_size=q, max_size=q),
                                             min_size=m, max_size=m)))
        caps = data.draw(st.lists(st.one_of(st.integers(0, 50), st.just(np.inf),
                                            st.floats(0.0, 50.0, allow_subnormal=False)),
                                  min_size=m, max_size=m))
        granted = apply_capacity_cap(counts, caps)
        assert granted.dtype == np.int64 and granted.shape == (m, q)
        for row, cap, got in zip(counts, caps, granted):
            assert got.tolist() == capacity_cap_loop(row, cap).tolist()
            assert apply_capacity_cap(row, cap).tolist() == got.tolist()

    def test_a_huge_cap_costs_no_more_than_a_small_one(self):
        # a billion slots, granted without visiting them one by one
        assert apply_capacity_cap(np.array([10**9, 3, 10**9]), 10**9 + 4).tolist() == [
            500000001, 3, 500000000]


def flat_scheduler(codebook, zic, lookahead, **kw):
    kw.setdefault("price_up", 1.0)
    kw.setdefault("price_dn", 1.0)
    kw.setdefault("delay_prices", np.full(len(codebook), 0.05))
    return RecedingHorizonScheduler(codebook, zic, kw.pop("price_up"),
                                    kw.pop("price_dn"), kw.pop("delay_prices"),
                                    lookahead, **kw)


def ledger_columns(sched):
    """Per-epoch (arrivals, starts, backlog) of every epoch stepped, each (Q, L)."""
    arrived = sched.ledger.arrival_increments(0, sched.epoch)
    started = sched.ledger.departure_increments(0, sched.epoch)
    return arrived, started, np.cumsum(arrived - started, axis=1)


def realized_cost(sched):
    """What the run costs, as the acceptance suite's ``_receding_cost``
    takes it: the realized load against the zero-padded supply, plus
    ``dci`` over the epochs stepped."""
    flex = sched.realized_load()[0]
    pad = flex.size - sched.zic_kw.size
    dev = flex - np.pad(sched.zic_kw, (0, pad))
    up = np.pad(sched.price_up, (0, pad), mode="edge")
    dn = np.pad(sched.price_dn, (0, pad), mode="edge")
    return (float(up @ np.maximum(dev, 0.0) + dn @ np.maximum(-dev, 0.0))
            + dci(sched.ledger, 0, sched.epoch - 1, DelayPrices(sched.delay_prices)))


def record_epochs(patch, sched, name, seen):
    """Patch ``scheduler.<name>`` to note ``sched``'s epoch at every call."""
    original = getattr(scheduler, name)

    def recorded(*args, **kwargs):
        seen.append(sched.epoch)
        return original(*args, **kwargs)

    patch.setattr(scheduler, name, recorded)


class TestRecedingHorizon:
    def test_no_arrivals_gives_zero_trajectory(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        sched = flat_scheduler(codebook, np.zeros(10), 3)
        sched.run(np.zeros((1, 4), dtype=int))
        assert sched.epoch == 4
        assert not sched.realized_load().any()
        assert realized_cost(sched) == 0.0
        assert not ledger_columns(sched)[2].any()

    def test_matches_enumeration_on_flat_supply_toy(self):
        # 2 appliances, unit pulses, supply 1 kW for six epochs
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        zic = np.concatenate([np.ones(6), np.zeros(6)])
        arrivals = np.array([[2, 0, 0, 0, 0, 0]])
        sched = flat_scheduler(codebook, zic, 6, known_arrivals=arrivals)
        sched.run(arrivals)
        # realized: serve one per epoch while supply lasts
        assert sched.realized_load()[0, :2].tolist() == [1.0, 1.0]
        inputs = window_inputs(codebook, zic[:7], np.hstack([arrivals, [[0]]]),
                               delay=0.05)
        assert realized_cost(sched) <= best_integer_cost(inputs) + 1e-7

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
        sched.run(arrivals, drain=True)
        committed = ledger_columns(sched)[1][0].astype(float)
        assert np.allclose(committed[:6], inc[0], atol=1e-8)

    def test_backlog_never_negative_and_always_drained(self):
        rng = np.random.default_rng(509)
        codebook = [ChargeCode(id=1, pulse=(1.0, 1.0)), ChargeCode(id=2, pulse=(2.0,))]
        zic = np.concatenate([rng.uniform(0.0, 4.0, size=12), np.full(20, 2.0)])
        arrivals = rng.poisson(0.6, size=(2, 10))
        sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.6),
                               deadline_epochs=6)
        sched.run(arrivals)
        _, started, backlog = ledger_columns(sched)
        assert (backlog >= 0).all()
        assert backlog[:, -1].sum() == 0
        assert started.sum() == arrivals.sum()

    def test_deadline_bounds_every_wait(self):
        rng = np.random.default_rng(601)
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        # zero supply: only the deadline forces service
        zic = np.zeros(40)
        arrivals = rng.poisson(0.8, size=(1, 12))
        sched = flat_scheduler(codebook, zic, 8, deadline_epochs=4,
                               delay_prices=np.zeros(1))
        sched.run(arrivals)
        delays = [wait for _, _, wait in sched.ledger.fifo_delays()]
        assert delays and max(delays) <= 4

    def test_capacity_cap_limits_each_epoch(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        zic = np.full(16, 10.0)
        arrivals = np.array([[5, 0, 0, 0]])
        sched = flat_scheduler(codebook, zic, 4, capacity_cap=2, deadline_epochs=4)
        sched.run(arrivals)
        started = ledger_columns(sched)[1].sum(axis=0)
        assert started.max() <= 2
        assert started.sum() == 5

    def test_capacity_cap_that_breaks_the_deadline_is_refused(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        arrivals = np.array([[5, 0, 0, 0]])
        sched = flat_scheduler(codebook, np.full(16, 10.0), 4, capacity_cap=1,
                               deadline_epochs=2)
        with pytest.raises(FeasibilityError, match="2-epoch deadline"):
            sched.run(arrivals)
        # epoch 2 would leave two of epoch 0's arrivals waiting; nothing of it is kept
        assert sched.epoch == 2
        assert sched.ledger.cumulative_departures(2).tolist() == [2]

    def test_runs_are_deterministic(self):
        rng = np.random.default_rng(811)
        codebook = [ChargeCode(id=1, pulse=(1.5,)), ChargeCode(id=2, pulse=(1.0, 1.0))]
        zic = rng.uniform(0.0, 4.0, size=30)
        arrivals = rng.poisson(0.7, size=(2, 10))
        runs = []
        for _ in range(2):
            sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.7),
                                   deadline_epochs=8)
            sched.run(arrivals.copy())
            runs.append((sched.realized_load(), ledger_columns(sched)[1], realized_cost(sched)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    @pytest.mark.parametrize("start_lag", [0, 1])
    def test_window_supply_is_net_of_committed_load(self, monkeypatch, start_lag):
        rng = np.random.default_rng(1013)
        codebook = [ChargeCode(id=1, pulse=(1.0, 2.0, 0.5)), ChargeCode(id=2, pulse=(1.5,))]
        zic = rng.uniform(0.0, 4.0, size=40)
        arrivals = rng.poisson(0.8, size=(2, 10))
        sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.8),
                               deadline_epochs=5, start_lag=start_lag)
        original = scheduler.lp_solve
        checked = {}

        def checked_solve(program, model=None):
            # dn' = dn - s: the lower bound of dn' is minus the window's net supply s,
            # and the balance rows' right-hand side is 0
            l0, width = sched.epoch, sched.lookahead + 1
            inc = sched.ledger.departure_increments(0, l0).astype(float)
            load = synthesize_load(inc, codebook, l0 + width, start_lag=start_lag)
            expected = zic[l0 : l0 + width] - load[l0:]
            np.testing.assert_allclose(-program.lower[-width:], expected, rtol=0, atol=1e-9)
            assert not program.eq_rhs[:width].any()
            checked[l0] = not np.array_equal(expected, zic[l0 : l0 + width])
            return original(program, model=model)

        monkeypatch.setattr(scheduler, "lp_solve", checked_solve)
        sched.run(arrivals)
        # one window at every epoch with something waiting, none at the others
        ledger = sched.ledger
        waiting = [l for l in range(sched.epoch)
                   if (ledger.cumulative_arrivals(l) > ledger.cumulative_departures(l - 1)).any()]
        assert list(checked) == waiting
        assert len(waiting) < sched.epoch  # the draw has idle epochs
        assert sum(checked.values()) > len(checked) // 2  # most windows carry committed tails

    @pytest.mark.parametrize("start_lag", [0, 1])
    def test_idle_epochs_solve_nothing_and_commit_zero_starts(self, monkeypatch, start_lag):
        codebook = [ChargeCode(id=1, pulse=(1.0, 2.0)), ChargeCode(id=2, pulse=(1.5,))]
        zic = np.random.default_rng(1117).uniform(0.0, 4.0, size=40)
        arrivals = np.array([[0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
                             [0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 0, 0]])

        def fresh():
            return flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.3),
                                  deadline_epochs=5, start_lag=start_lag)

        sched, solved = fresh(), []
        with monkeypatch.context() as patch:
            record_epochs(patch, sched, "lp_solve", solved)
            sched.run(arrivals, drain=False)
        ledger = sched.ledger
        waiting = [l for l in range(arrivals.shape[1])
                   if (ledger.cumulative_arrivals(l) > ledger.cumulative_departures(l - 1)).any()]
        idle = sorted(set(range(arrivals.shape[1])) - set(waiting))
        assert 0 in idle and len(idle) > 2
        assert solved == waiting
        assert not ledger.departure_increments(0, sched.epoch)[:, idle].any()
        assert sched.epoch == arrivals.shape[1]
        # an idle epoch's window, solved all the same, commits zero starts
        every = fresh()
        for l in range(arrivals.shape[1]):
            every.observe_arrivals(arrivals[:, l])
            if l in idle:
                inputs = every.horizon_inputs()
                assert not round_and_commit(lp_solve(build_program(inputs)), inputs).any()
            every.step()
        np.testing.assert_array_equal(ledger.departure_increments(0, sched.epoch),
                                      every.ledger.departure_increments(0, every.epoch))
        np.testing.assert_array_equal(sched.realized_load(), every.realized_load())

    def test_flex_load_matches_synthesis_of_committed(self):
        rng = np.random.default_rng(919)
        codebook = [ChargeCode(id=1, pulse=(1.0, 2.0)), ChargeCode(id=2, pulse=(1.0,))]
        zic = rng.uniform(0.0, 3.0, size=26)
        arrivals = rng.poisson(0.5, size=(2, 8))
        sched = flat_scheduler(codebook, zic, 6, arrival_rates=np.full(2, 0.5),
                               deadline_epochs=8)
        sched.run(arrivals)
        flex = sched.realized_load()[0]
        rebuilt = synthesize_load(ledger_columns(sched)[1], codebook, flex.size)
        assert np.allclose(flex, rebuilt, atol=1e-9)

    def test_one_epoch_pulses_add_to_the_load_in_queue_order(self):
        # with U = 1 and M = 1 the sum down the queues is one contiguous run, which
        # numpy's add.reduce sums pairwise from eight terms on
        pulses = (0.1, 0.2, 0.3, 0.7, 1.1, 0.3, 0.9, 0.6, 0.7, 0.2)
        codebook = [ChargeCode(id=i + 1, pulse=(p,)) for i, p in enumerate(pulses)]
        arrivals = np.random.default_rng(37).integers(1, 3, size=(len(pulses), 6))
        sched = flat_scheduler(codebook, np.full(12, 20.0), 3, known_arrivals=arrivals)
        sched.run(arrivals)
        started = ledger_columns(sched)[1]
        assert (started > 0).all(axis=0).any()
        expected = np.zeros_like(sched.realized_load()[0])
        for l in range(started.shape[1]):
            for count, pulse in zip(started[:, l].tolist(), pulses):
                expected[l] += count * pulse
        np.testing.assert_array_equal(sched.realized_load()[0], expected)

    def test_supply_profile_too_short_rejected(self):
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        sched = flat_scheduler(codebook, np.zeros(4), 4)
        sched.observe_arrivals(np.array([1]))
        with pytest.raises(ConfigurationError):
            sched.step()

    def test_unsolvable_window_is_refused(self, monkeypatch):
        calls = []

        def infeasible(program, model=None):
            calls.append(model)
            return LpSolution("infeasible", None, float("nan"))

        monkeypatch.setattr(scheduler, "lp_solve", infeasible)
        codebook = [ChargeCode(id=1, pulse=(1.0,))]
        sched = flat_scheduler(codebook, np.full(16, 1.0), 4, deadline_epochs=4)
        sched.step()
        sched.step()  # empty queues solve no window
        sched.observe_arrivals(np.array([1]))
        with pytest.raises(FeasibilityError, match="unsolvable at epoch 2: infeasible") as caught:
            sched.step()
        assert caught.value.scheduler == 0
        assert len(calls) == 1 and isinstance(calls[0], lp.Model)


def _bad_at(values, epoch, bad):
    values = np.array(values, dtype=float)
    values[epoch] = bad
    return values


class TestInputsCheckedOnce:
    """A scheduler checks its static inputs when it is built, so a bad
    one is refused before any window is solved; a ``HorizonInputs``
    built by a caller keeps its own checks."""

    CODEBOOK = (ChargeCode(id=1, pulse=(1.0, 2.0)), ChargeCode(id=2, pulse=(1.5,)))
    ZIC = np.random.default_rng(2207).uniform(0.0, 4.0, size=40)
    KNOWN = np.random.default_rng(2208).poisson(0.8, size=(2, 40)).astype(float)

    def scheduler_kwargs(self, known=False):
        kwargs = dict(codebook=self.CODEBOOK, zic_kw=self.ZIC, price_up=np.ones(40),
                      price_dn=np.ones(40), delay_prices=np.full(2, 0.05), lookahead=6,
                      deadline_epochs=5)
        if known:
            kwargs["known_arrivals"] = self.KNOWN
        else:
            kwargs["arrival_rates"] = np.full(2, 0.8)
        return kwargs

    @pytest.mark.parametrize("field, bad", [
        ("zic_kw", _bad_at(ZIC, 30, np.nan)),
        ("zic_kw", _bad_at(ZIC, 30, np.inf)),
        ("price_up", _bad_at(np.ones(40), 30, -1.0)),
        ("price_up", _bad_at(np.ones(40), 30, np.nan)),
        ("price_dn", _bad_at(np.ones(40), 30, np.nan)),
        ("price_dn", _bad_at(np.ones(40), 30, -0.5)),
        ("price_dn", np.inf),
        ("delay_prices", np.array([0.05, -0.01])),
        ("delay_prices", np.array([np.nan, 0.05])),
        ("arrival_rates", np.array([0.8, -0.1])),
        ("arrival_rates", np.array([np.inf, 0.8])),
        ("known_arrivals", np.where(np.arange(40) == 30, -1.0, KNOWN)),
        ("known_arrivals", np.where(np.arange(40) == 30, np.nan, KNOWN)),
        ("capacity_cap", -1.0),
        ("capacity_cap", np.nan),
        ("capacity_cap", -np.inf),
        ("capacity_cap", [2.0, 3.0]),
    ], ids=["zic-nan", "zic-inf", "price_up-negative", "price_up-nan", "price_dn-nan",
            "price_dn-negative", "price_dn-inf", "delay-negative", "delay-nan",
            "rates-negative", "rates-inf", "known-negative", "known-nan", "cap-negative",
            "cap-nan", "cap-minus-inf", "cap-one-per-scheduler-of-two"])
    def test_a_bad_static_input_is_refused_before_any_window(self, monkeypatch, field, bad):
        solves = []
        monkeypatch.setattr(scheduler, "lp_solve", lambda *args, **kw: solves.append(args))
        kwargs = self.scheduler_kwargs(known=field == "known_arrivals")
        kwargs[field] = bad
        with pytest.raises(ConfigurationError, match=field):
            RecedingHorizonScheduler(**kwargs).run(self.KNOWN[:, :30].astype(np.int64))
        assert solves == []

    @pytest.mark.parametrize("cap", [None, np.inf, [np.inf]])
    def test_no_cap_is_none_or_inf(self, cap):
        sched = RecedingHorizonScheduler(**self.scheduler_kwargs(), capacity_cap=cap)
        assert sched.capacity_cap.tolist() == [np.inf]

    def test_a_deadline_shorter_than_a_pulse_is_refused_when_built(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            RecedingHorizonScheduler(**{**self.scheduler_kwargs(), "deadline_epochs": 1})

    @staticmethod
    def fields(inputs):
        return {f.name: getattr(inputs, f.name) for f in dataclasses.fields(inputs) if f.init}

    @pytest.mark.parametrize("change", [
        dict(codebook=()),
        dict(lookahead=2),
        dict(observed=np.zeros((3, 4))),
        dict(observed=np.array([[0, 2, 1, 3, 3, 4, 5]] * 3)),
        dict(zic_kw=np.zeros(5)),
        dict(price_up=-np.ones(8)),
        dict(price_dn=np.full(8, -0.1)),
        dict(prior_departures=np.zeros(2)),
        dict(prior_departures=np.full(3, 10**6)),
        dict(delay_prices=np.full(3, -0.1)),
        dict(deadline_epochs=2),
        dict(zic_kw=np.full(8, np.nan)),
        dict(price_up=np.full(8, np.inf)),
        dict(price_dn=np.full(8, np.nan)),
        dict(delay_prices=np.array([0.1, np.nan, 0.1])),
        dict(forecast_rates=np.array([0.5, np.nan, 0.5])),
        dict(forecast_rates=np.array([0.5, -1.0, 0.5])),
        dict(t1=9),
        dict(t1=2),
        dict(start_lag=2),
    ])
    def test_caller_built_inputs_keep_every_check(self, change):
        inputs = mid_day_inputs(TestWindowStructure.CODEBOOK)
        with pytest.raises(ConfigurationError):
            build_program(HorizonInputs(**{**self.fields(inputs), **change}))


def witness_point(program, n_queues, width):
    """Everything started as soon as it arrives: e at its upper bound,
    and up and dn' less its lower bound the two sides of each balance
    row's residual."""
    n_e = n_queues * width
    x = np.zeros(program.objective.size)
    x[:n_e] = program.upper[:n_e]
    x[n_e + width :] = program.lower[n_e + width :]
    residual = program.eq_rhs[:width] - program.eq_matrix[:width] @ x
    x[n_e : n_e + width] = np.maximum(-residual, 0.0)
    x[n_e + width :] += np.maximum(residual, 0.0)
    return x


def reference_program(bank, i):
    """The window scheduler i of ``bank`` is about to solve, built from
    caller-made, checked ``HorizonInputs`` with a copy of its history."""
    l0, t = bank.epoch, bank.lookahead
    ledger, stop = bank.ledgers()[i], l0 + t + 1
    return build_program(HorizonInputs(
        start_epoch=l0,
        observed=np.cumsum(ledger.arrival_increments(0, l0 + 1), axis=1),
        prior_departures=ledger.cumulative_departures(l0 - 1),
        zic_kw=bank.zic_kw[l0:stop] - bank.realized_load()[i, l0:stop],
        price_up=bank.price_up[l0:stop].copy(),
        price_dn=bank.price_dn[l0:stop].copy(),
        delay_prices=bank.delay_prices.copy(),
        codebook=list(bank.codebook),
        lookahead=t,
        forecast_rates=bank.arrival_rates,
        deadline_epochs=bank.deadline_epochs,
        t1=t if bank.known_arrivals is not None else 0,
        known_future=bank.known_arrivals,
        start_lag=bank.start_lag,
    ))


@pytest.mark.parametrize("runner", [run_ddls, run_distributed], ids=["ddls", "distributed"])
def test_every_desk_window_receives_what_the_reference_path_builds(monkeypatch, runner):
    """A bank builds every busy scheduler's window in one array pass over
    its tables, unchecked but for one check of the stacked vectors; each
    scheduler's model must still receive, bit for bit, what checked
    inputs give that scheduler.  Every window is feasible: starting
    everything as soon as it arrives meets each of its rows and bounds."""
    received = []
    stepping = []
    step = RecedingHorizonScheduler.step
    solve = scheduler.lp_solve

    def noted(self, *args):
        stepping[:] = [self]
        return step(self, *args)

    def compared(program, model=None):
        bank = stepping[0]
        i = next(i for i, own in enumerate(bank._models) if own is model)
        received.append((i, program, reference_program(bank, i), bank.n_queues,
                         bank.lookahead + 1))
        return solve(program, model=model)

    monkeypatch.setattr(RecedingHorizonScheduler, "step", noted)
    monkeypatch.setattr(scheduler, "lp_solve", compared)
    runner(load_scenario(DESK_CONFIG))
    assert len(received) >= 96
    assert len({i for i, *_ in received}) == (8 if runner is run_distributed else 1)
    for k, (i, program, expected, q, width) in enumerate(received):
        assert program.csc is expected.csc, k
        for name in ("objective", "eq_rhs", "lower", "upper"):
            got, want = getattr(program, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (k, i, name)
        x = witness_point(program, q, width)
        assert np.abs(program.eq_matrix @ x - program.eq_rhs).max() <= 1e-9, k
        assert (program.ineq_matrix @ x - program.ineq_rhs).min() >= -1e-9, k
        assert (program.lower <= x).all() and (x <= program.upper).all(), k


class TestLockstep:
    """A bank of M schedulers commits, bit for bit, what M banks of one
    commit on the same shares: starts and realized load through each
    one's last epoch, and nothing after it while the bank drains."""

    @staticmethod
    def compare(shares, caps, **kwargs):
        """Run the bank and each share alone; the epoch each scheduler stopped at."""
        alone = []
        for i, share in enumerate(shares):
            one = RecedingHorizonScheduler(**kwargs, capacity_cap=None if caps is None else caps[i])
            one.run(share)
            alone.append(one)
        bank = RecedingHorizonScheduler(**kwargs, capacity_cap=caps, n_schedulers=len(shares))
        bank.run(shares)
        ends = []
        for i, (ledger, one) in enumerate(zip(bank.ledgers(), alone)):
            end, last = one.ledger.current_epoch + 1, ledger.current_epoch + 1
            for table in ("arrival_increments", "departure_increments"):
                np.testing.assert_array_equal(getattr(ledger, table)(0, end),
                                              getattr(one.ledger, table)(0, end))
                # the bank drains as one: a scheduler done before it only idles
                assert not getattr(ledger, table)(end, last).any(), (i, table)
            assert not ledger.backlog(end - 1).any()
            assert bank.realized_load()[i].tobytes() == one.realized_load()[0].tobytes(), i
            ends.append(end)
        return ends

    @staticmethod
    def kwargs(codebook, horizon, zic, lookahead, deadline, start_lag, rates):
        supply = np.zeros(horizon + deadline + lookahead + 8)
        supply[:horizon] = zic
        return dict(codebook=codebook, zic_kw=supply, price_up=1.0, price_dn=0.5,
                    delay_prices=np.full(len(codebook), 0.05), lookahead=lookahead,
                    arrival_rates=rates, deadline_epochs=deadline, start_lag=start_lag)

    def test_schedulers_that_drain_at_different_epochs(self):
        codebook = (ChargeCode(1, (1.0, 2.0)),)
        shares = np.array([[[2, 0, 0, 0]], [[0, 0, 0, 3]], [[0, 0, 0, 0]]])
        kwargs = self.kwargs(codebook, 4, np.full(4, 1.0), 4, 4, 0, np.array([0.4]))
        ends = self.compare(shares, [1, 2, 0], **kwargs)
        assert ends[2] == 4 and ends[1] > ends[0]
        with pytest.raises(ConfigurationError, match="one ledger each"):
            RecedingHorizonScheduler(**kwargs, n_schedulers=3).ledger

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_bank_commits_what_each_scheduler_commits_alone(self, data):
        levels = st.sampled_from([0.5, 1.0, 2.0])
        pulses = data.draw(st.lists(st.lists(levels, min_size=1, max_size=3),
                                    min_size=1, max_size=2))
        codebook = tuple(ChargeCode(q + 1, tuple(p)) for q, p in enumerate(pulses))
        q, longest = len(pulses), max(len(p) for p in pulses)
        horizon, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        shares = np.array(data.draw(st.lists(st.lists(
            st.lists(st.integers(0, 2), min_size=horizon, max_size=horizon),
            min_size=q, max_size=q), min_size=m, max_size=m)))
        kwargs = self.kwargs(
            codebook, horizon,
            data.draw(st.lists(st.floats(0.0, 4.0), min_size=horizon, max_size=horizon)),
            data.draw(st.integers(longest, longest + 2)),
            data.draw(st.integers(longest, longest + 3)), data.draw(st.integers(0, 1)),
            np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=q, max_size=q))))
        # no cap, or one per scheduler that never holds an appliance past the deadline
        caps = None if data.draw(st.booleans()) else [
            data.draw(st.integers(int(share.sum(axis=0).max()), int(share.sum()) + 2))
            for share in shares]
        self.compare(shares, caps, **kwargs)
