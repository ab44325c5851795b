import itertools

import numpy as np
import pytest

from ddls import lp
from ddls.errors import ConfigurationError
from ddls.lp import FEAS_TOL, LinearProgram, solve

SEED = 97531
# lp.solve, and the linprog path it falls back to without the HiGHS binding
PATHS = ("highs", "linprog")


def solve_on(path, prog):
    return solve(prog) if path == "highs" else lp._solve_linprog(prog)


def random_program(rng):
    """Feasible (interior point by construction) and bounded (finite box)."""
    n = int(rng.integers(2, 9))
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 3.0, n)
    x0 = rng.uniform(lo, hi)
    mi = int(rng.integers(0, 4))
    g = rng.normal(size=(mi, n)) if mi else None
    h = g @ x0 - rng.uniform(0.1, 1.0, mi) if mi else None
    me = int(rng.integers(0, 2))
    a = rng.normal(size=(me, n)) if me else None
    beq = a @ x0 if me else None
    c = rng.normal(size=n)
    return LinearProgram(c, a, beq, g, h, lo, hi)


def vertex_oracle(prog):
    """Enumerate basic feasible points: equalities always active plus
    enough inequality/bound rows to pin all variables."""
    n = prog.n_vars
    me = prog.eq_matrix.shape[0]
    opts = [(prog.ineq_matrix[i], prog.ineq_rhs[i]) for i in range(prog.ineq_matrix.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(prog.lower[j]):
            opts.append((e, prog.lower[j]))
        if np.isfinite(prog.upper[j]):
            opts.append((e.copy(), prog.upper[j]))
    best = np.inf
    for combo in itertools.combinations(range(len(opts)), n - me):
        mats = ([prog.eq_matrix] if me else []) + [opts[i][0][None, :] for i in combo]
        rhs = np.concatenate(
            ([prog.eq_rhs] if me else []) + [np.atleast_1d(opts[i][1]) for i in combo]
        )
        m = np.vstack(mats)
        try:
            x = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if prog.ineq_matrix.shape[0] and (
            prog.ineq_matrix @ x < prog.ineq_rhs - 1e-7
        ).any():
            continue
        if (x < prog.lower - 1e-7).any() or (x > prog.upper + 1e-7).any():
            continue
        best = min(best, float(prog.objective @ x))
    return best


class TestBasics:
    @pytest.mark.parametrize("path", PATHS)
    def test_min_x_above_three(self, path):
        prog = LinearProgram(np.array([1.0]), ineq_matrix=np.array([[1.0]]),
                             ineq_rhs=np.array([3.0]))
        sol = solve_on(path, prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.values[0] == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("path", PATHS)
    def test_simplex_edge(self, path):
        prog = LinearProgram(
            np.array([-1.0, -1.0]),
            ineq_matrix=np.array([[-1.0, -1.0]]),
            ineq_rhs=np.array([-1.0]),
            lower=np.zeros(2),
        )
        sol = solve_on(path, prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("path", PATHS)
    def test_equality_row(self, path):
        prog = LinearProgram(
            np.array([1.0, 0.0]),
            eq_matrix=np.array([[1.0, 1.0]]),
            eq_rhs=np.array([1.0]),
            lower=np.zeros(2),
            upper=np.ones(2),
        )
        sol = solve_on(path, prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("path", PATHS)
    def test_infeasible(self, path):
        prog = LinearProgram(
            np.array([1.0]),
            ineq_matrix=np.array([[1.0]]),
            ineq_rhs=np.array([3.0]),
            upper=np.array([2.0]),
        )
        sol = solve_on(path, prog)
        assert sol.status == "infeasible"
        assert sol.values is None

    @pytest.mark.parametrize("path", PATHS)
    def test_unbounded_with_row(self, path):
        prog = LinearProgram(
            np.array([-1.0]),
            ineq_matrix=np.array([[1.0]]),
            ineq_rhs=np.array([1.0]),
        )
        assert solve_on(path, prog).status == "unbounded"

    def test_unbounded_pure_box(self):
        prog = LinearProgram(np.array([-1.0]), lower=np.array([0.0]))
        assert solve(prog).status == "unbounded"

    def test_pure_box_optimum(self):
        prog = LinearProgram(np.array([2.0, -3.0]), lower=np.array([-1.0, -1.0]),
                             upper=np.array([4.0, 5.0]))
        sol = solve(prog)
        np.testing.assert_allclose(sol.values, [-1.0, 5.0])

    def test_degenerate_duplicated_rows(self):
        prog = LinearProgram(
            np.array([-1.0, -1.0]),
            ineq_matrix=np.array([[-1.0, -1.0]] * 4),
            ineq_rhs=np.array([-1.0] * 4),
            lower=np.zeros(2),
        )
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)


class TestAgainstOracle:
    def test_twenty_random_programs(self):
        rng = np.random.default_rng(SEED)
        checked = 0
        while checked < 20:
            prog = random_program(rng)
            expected = vertex_oracle(prog)
            assert np.isfinite(expected)
            for path in PATHS:
                sol = solve_on(path, prog)
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(
                    expected, rel=1e-6, abs=1e-6
                ), f"{path} missed oracle on instance {checked}"
                # feasibility of the reported point
                if prog.eq_matrix.shape[0]:
                    np.testing.assert_allclose(
                        prog.eq_matrix @ sol.values, prog.eq_rhs, atol=2e-7
                    )
                if prog.ineq_matrix.shape[0]:
                    assert (
                        prog.ineq_matrix @ sol.values >= prog.ineq_rhs - 2e-7
                    ).all()
                assert (sol.values >= prog.lower - FEAS_TOL).all()
                assert (sol.values <= prog.upper + FEAS_TOL).all()
            checked += 1

    def test_weak_duality_bound(self):
        # for min c'x, Ax = b, Gx >= h, l <= x <= u, any y and mu >= 0 give
        # the bound y'b + mu'h + alpha'l - beta'u with s = c - A'y - G'mu,
        # alpha = max(s, 0), beta = max(-s, 0)
        rng = np.random.default_rng(SEED + 1)
        for _ in range(10):
            prog = random_program(rng)
            sol = solve(prog)
            assert sol.status == "optimal"
            for _ in range(5):
                y = rng.normal(size=prog.eq_matrix.shape[0])
                mu = rng.uniform(0.0, 1.0, size=prog.ineq_matrix.shape[0])
                s = prog.objective - prog.eq_matrix.T @ y - prog.ineq_matrix.T @ mu
                alpha = np.maximum(s, 0.0)
                beta = np.maximum(-s, 0.0)
                bound = (
                    y @ prog.eq_rhs
                    + mu @ prog.ineq_rhs
                    + alpha @ prog.lower
                    - beta @ prog.upper
                )
                assert bound <= sol.objective + 1e-7


class TestDeterminism:
    def test_identical_inputs_identical_bits(self):
        rng = np.random.default_rng(SEED + 2)
        prog = random_program(rng)
        for path in PATHS:
            a = solve_on(path, prog)
            b = solve_on(path, prog)
            assert a.values.tobytes() == b.values.tobytes()
            assert a.objective == b.objective


class TestFailureModes:
    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(np.array([np.nan]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(np.array([1.0]), eq_matrix=np.array([[1.0, 2.0]]),
                          eq_rhs=np.array([1.0]))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(np.array([1.0]), lower=np.array([2.0]), upper=np.array([1.0]))
