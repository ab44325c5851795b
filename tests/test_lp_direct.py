"""The direct HiGHS path against scipy.optimize.linprog, its reference.

``lp.solve`` calls scipy's HiGHS binding itself, with
linprog's model, options and acceptance checks.  These tests hold it to
exactly linprog's answers over every window of a desk day, and check
that it falls back to linprog when the binding is missing.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from ddls import lp, scheduler
from ddls.lp import LinearProgram, solve
from ddls.simkit import load_scenario, run_ddls

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_day.json"


@pytest.fixture
def no_binding(monkeypatch):
    """Run as if this scipy had no HiGHS binding."""
    monkeypatch.setattr(lp, "_HIGHS", None)


@pytest.fixture
def linprog_calls(monkeypatch):
    calls = []
    original = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    return calls


@pytest.mark.skipif(lp._HIGHS is None, reason="this scipy has no HiGHS binding")
def test_every_desk_window_agrees_with_linprog(monkeypatch):
    windows = []
    original = scheduler.lp_solve

    def both(program):
        direct = solve(program)
        reference = lp._solve_linprog(program)
        windows.append((direct, reference))
        return original(program)

    monkeypatch.setattr(scheduler, "lp_solve", both)
    run_ddls(load_scenario(DESK_CONFIG))
    assert len(windows) >= 96
    for i, (direct, reference) in enumerate(windows):
        assert direct.status == reference.status == "optimal", i
        assert np.array_equal(direct.values, reference.values), i
        assert direct.objective == reference.objective, i
        assert direct.iterations == reference.iterations, i
    assert sum(d.iterations for d, _ in windows) > 0


def test_read_only_matrices_convert_once():
    eq = np.array([[1.0, 1.0]])
    ineq = np.array([[1.0, -1.0]])
    eq.flags.writeable = False
    ineq.flags.writeable = False
    first = lp._constraint_csc(eq, ineq)
    assert lp._constraint_csc(eq, ineq) is first
    # a writable pair may change between solves, so it is never cached
    assert lp._constraint_csc(eq.copy(), ineq.copy()) is not first
    program = LinearProgram(np.array([1.0, 0.0]), eq_matrix=eq, eq_rhs=np.array([1.0]),
                            ineq_matrix=ineq, ineq_rhs=np.array([0.0]),
                            lower=np.zeros(2), upper=np.ones(2))
    assert solve(program).values.tolist() == [0.5, 0.5]


def test_missing_binding_falls_back_to_linprog(no_binding, linprog_calls):
    program = LinearProgram(np.array([1.0]), ineq_matrix=np.array([[1.0]]),
                            ineq_rhs=np.array([3.0]))
    sol = solve(program)
    assert sol.status == "optimal"
    assert sol.values.tolist() == [3.0]
    assert len(linprog_calls) == 1


def test_fallback_day_matches_the_direct_day(monkeypatch, linprog_calls):
    config = load_scenario(DESK_CONFIG)
    direct = run_ddls(config).metrics
    assert not linprog_calls
    monkeypatch.setattr(lp, "_HIGHS", None)
    fallback = run_ddls(config).metrics
    assert len(linprog_calls) >= 96
    assert fallback == direct


def test_import_without_binding_selects_linprog(monkeypatch):
    import scipy.optimize._highspy as highspy

    monkeypatch.delattr(highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    assert lp._load_highs() is None


@pytest.mark.parametrize("binding", [True, False], ids=["direct", "linprog"])
class TestStatusMapping:
    @pytest.fixture(autouse=True)
    def _path(self, binding, monkeypatch):
        if not binding:
            monkeypatch.setattr(lp, "_HIGHS", None)

    def test_infeasible(self):
        prog = LinearProgram(np.array([1.0]), ineq_matrix=np.array([[1.0]]),
                             ineq_rhs=np.array([3.0]), upper=np.array([2.0]))
        sol = solve(prog)
        assert sol.status == "infeasible"
        assert sol.values is None
        assert np.isnan(sol.objective)

    def test_infeasible_equalities(self):
        prog = LinearProgram(np.array([1.0, 1.0]),
                             eq_matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
                             eq_rhs=np.array([1.0, 2.0]), lower=np.zeros(2))
        assert solve(prog).status == "infeasible"

    def test_unbounded(self):
        prog = LinearProgram(np.array([-1.0]), ineq_matrix=np.array([[1.0]]),
                             ineq_rhs=np.array([1.0]))
        sol = solve(prog)
        assert sol.status == "unbounded"
        assert sol.values is None
        assert sol.objective == float("-inf")

    def test_free_and_boxed_columns(self):
        prog = LinearProgram(np.array([1.0, -1.0]),
                             eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([0.5]),
                             lower=np.array([-np.inf, -1.0]),
                             upper=np.array([np.inf, 2.0]))
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.values.tolist() == [-1.5, 2.0]
        assert sol.objective == -3.5
