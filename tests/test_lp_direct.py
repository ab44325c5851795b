"""The warm HiGHS path against scipy.optimize.linprog, its reference.

``lp.solve`` has two paths: an ``lp.Model`` re-solved from its last
basis through scipy's HiGHS binding, and linprog for everything else.
These tests hold the warm path to linprog's status and objective, and to
a from-scratch solve's, over every window of desk days, check that a
warm run that is not optimal is answered by linprog, and that a day
reaches linprog only where it has no binding.
"""

import importlib.machinery
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from dataclasses import replace

from ddls import lp, scheduler
from ddls.core import ChargeCode
from ddls.errors import ConfigurationError
from ddls.lp import Entries, LinearProgram, Model, solve
from ddls.scheduler import RecedingHorizonScheduler
from ddls.simkit import load_scenario, run_ddls, run_distributed, run_uncontrolled

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk_day.json"
CROWD_CONFIG = ROOT / "bench" / "scenarios" / "crowd.json"


@pytest.fixture
def no_binding(monkeypatch):
    """Run as if this scipy had no HiGHS binding."""
    monkeypatch.setattr(lp, "_load_highs", lambda: None)


@pytest.fixture
def linprog_calls(monkeypatch):
    calls = []
    original = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    return calls


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_every_warm_desk_window_agrees_with_linprog(monkeypatch):
    windows = []
    original = scheduler.lp_solve

    def both(program, model=None):
        warm = original(program, model=model)
        windows.append((model, warm, lp._solve_linprog(program)))
        return warm

    monkeypatch.setattr(scheduler, "lp_solve", both)
    run_ddls(load_scenario(DESK_CONFIG))
    assert len(windows) >= 96
    for i, (model, warm, reference) in enumerate(windows):
        assert isinstance(model, Model), i
        assert warm.status == reference.status == "optimal", i
        assert warm.objective == pytest.approx(reference.objective, rel=1e-9), i
    assert sum(r.iterations for *_, r in windows) > 0


def _from_scratch(program):
    """HiGHS from no basis history: a new model's first solve."""
    return solve(program, model=Model(program))


def _fresh(program):
    """The same LP built afresh, rows included."""
    return LinearProgram(program.objective, program.eq_matrix, program.eq_rhs,
                         program.ineq_matrix, program.ineq_rhs, program.lower, program.upper)


def _template():
    return LinearProgram(np.zeros(2), eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.zeros(1),
                         ineq_matrix=np.array([[1.0, -1.0]]), ineq_rhs=np.zeros(1))


def test_filled_program_shares_the_template_rows():
    template = _template()
    filled = template.fill(np.array([1.0, 0.0]), np.array([1.0]), np.zeros(2), np.ones(2))
    assert filled.eq_matrix is template.eq_matrix
    assert filled.ineq_matrix is template.ineq_matrix
    assert filled.ineq_rhs is template.ineq_rhs
    assert all(a is b for a, b in zip(filled.csc, template.csc))
    rows = [getattr(m, name) for m in (filled.eq_matrix, filled.ineq_matrix)
            for name in ("indptr", "indices", "data")]
    assert not any(a.flags.writeable for a in (*rows, filled.ineq_rhs, *filled.csc))
    assert solve(filled).values.tolist() == [0.5, 0.5]
    # the template itself keeps its own vectors
    assert template.objective.tolist() == [0.0, 0.0]
    assert template.lower.tolist() == [-np.inf, -np.inf]


@pytest.mark.parametrize("form", ["dense", "sparse", "entries"])
def test_rows_are_a_copy_of_the_callers_matrices(form):
    dense = np.array([[1.0, 1.0]])
    eq = {"dense": dense, "sparse": scipy.sparse.csc_array(dense),
          "entries": Entries(np.ones(2), np.zeros(2, int), np.arange(2), (1, 2))}[form]
    program = LinearProgram(np.ones(2), eq_matrix=eq, eq_rhs=np.ones(1))
    (eq if form == "dense" else eq.data)[0] = np.nan
    assert scipy.sparse.issparse(program.eq_matrix)
    assert program.eq_matrix.toarray().tolist() == [[1.0, 1.0]]
    assert (eq if form == "dense" else eq.data).flags.writeable


def test_sparse_rows_are_held_as_dense_rows_would_be():
    # duplicates summed, zeros dropped and indices sorted, in int32
    coo = scipy.sparse.coo_array(([0.5, 2.0, 0.5, 0.0, 1.0, 0.0],
                                  ([1, 0, 1, 0, 0, 1], [0, 1, 0, 0, 0, 1])), shape=(2, 2))
    assert coo.coords[0].dtype == np.int64
    # column 0 holds rows 1, 0, 1 and column 1 a stored zero
    csc = scipy.sparse.csc_array(([0.5, 1.0, 0.5, 2.0, 0.0], [1, 0, 1, 0, 1], [0, 3, 5]),
                                 shape=(2, 2))
    assert not csc.has_canonical_format
    for matrix in (coo, csc):
        given = LinearProgram(np.ones(2), ineq_matrix=matrix, ineq_rhs=np.zeros(2))
        dense = LinearProgram(np.ones(2), ineq_matrix=matrix.toarray(), ineq_rhs=np.zeros(2))
        for got, want in zip(given.csc, dense.csc):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert given.csc[1].dtype == np.int32


# Values whose sums are exact in any order: scipy sums the entries of one
# position in an order it leaves unspecified (std::sort) once a column holds
# more than 16 of them, and ``_rows`` sums them in the order given.
_EXACT = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _entries(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, 40)) if rows else 0
    row = draw(st.lists(st.integers(0, max(rows - 1, 0)), min_size=k, max_size=k))
    col = draw(st.lists(st.integers(0, cols - 1), min_size=k, max_size=k))
    data = draw(st.lists(_EXACT, min_size=k, max_size=k))
    return Entries(np.array(data), np.array(row, int), np.array(col, int), (rows, cols))


@settings(max_examples=300, deadline=None)
@given(_entries(), st.sampled_from(["entries", "coo", "dense"]))
def test_rows_are_scipys_csc_bit_for_bit(entries, form):
    """Duplicates summed, explicit zeros (given or summed) dropped, empty
    columns and zero rows kept in the shape: as scipy's csc_array holds the
    same matrix after sum_duplicates and eliminate_zeros, with its indices
    in int32, for entries, a scipy matrix and a dense one."""
    data, row, col, shape = entries
    want = scipy.sparse.csc_array((data, (row, col)), shape=shape)
    want.sum_duplicates()
    want.eliminate_zeros()
    given_as = {"entries": entries, "coo": scipy.sparse.coo_array((data, (row, col)), shape),
                "dense": want.toarray()}[form]
    rows, held = lp._rows(given_as, shape[1], "rows")
    assert rows == shape[0]
    expected = (want.indptr.astype(np.int32), want.indices.astype(np.int32), want.data)
    for got, want in zip(held, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_sparse_rows_with_nan_or_a_wrong_shape_are_refused():
    nan = scipy.sparse.csc_array(np.array([[1.0, np.nan]]))
    with pytest.raises(ConfigurationError, match="NaN"):
        LinearProgram(np.ones(2), eq_matrix=nan, eq_rhs=np.ones(1))
    with pytest.raises(ConfigurationError, match="columns"):
        LinearProgram(np.ones(3), eq_matrix=scipy.sparse.eye_array(2), eq_rhs=np.ones(2))


@pytest.mark.parametrize("row, col", [(-1, 0), (2, 0), (0, -1), (0, 2)],
                         ids=["row-below", "row-past", "col-below", "col-past"])
def test_entries_outside_the_shape_are_refused(row, col):
    """An entry past a row's end must not land in the next column."""
    entries = Entries(np.ones(2), np.array([0, row]), np.array([1, col]), (2, 2))
    with pytest.raises(ValueError):
        LinearProgram(np.ones(2), ineq_matrix=entries, ineq_rhs=np.zeros(2))


def test_every_filled_desk_window_solves_like_a_fresh_program(monkeypatch):
    windows = []
    original = scheduler.lp_solve

    def both(program, model=None):
        windows.append((_from_scratch(program), _from_scratch(_fresh(program))))
        return original(program, model=model)

    monkeypatch.setattr(scheduler, "lp_solve", both)
    run_ddls(load_scenario(DESK_CONFIG))
    assert len(windows) >= 96
    for i, (filled, fresh) in enumerate(windows):
        assert filled.status == fresh.status == "optimal", i
        assert np.array_equal(filled.values, fresh.values), i
        assert filled.objective == fresh.objective, i
        assert filled.iterations == fresh.iterations, i


@pytest.mark.parametrize("vectors", [
    dict(objective=np.array([np.nan, 0.0])),
    dict(eq_rhs=np.array([np.nan])),
    dict(objective=np.zeros(3)),
    dict(eq_rhs=np.zeros(2)),
    dict(lower=np.zeros(3)),
    dict(lower=np.array([0.0, 2.0]), upper=np.array([1.0, 1.0])),
    dict(lower=np.array([np.nan, 0.0])),
    dict(upper=np.array([1.0, np.nan])),
], ids=["nan-cost", "nan-rhs", "long-cost", "long-rhs", "long-bounds", "crossed-bounds",
        "nan-lower", "nan-upper"])
def test_fill_checks_the_new_vectors(vectors):
    given = dict(objective=np.zeros(2), eq_rhs=np.ones(1), lower=np.zeros(2), upper=np.ones(2))
    with pytest.raises(ConfigurationError):
        _template().fill(**{**given, **vectors})


@pytest.mark.parametrize("vectors", [
    dict(objective=np.array([np.nan, 0.0])),
    dict(eq_rhs=np.array([np.nan])),
    dict(objective=np.zeros(3)),
    dict(eq_rhs=np.zeros(2)),
    dict(lower=np.zeros(3)),
    dict(lower=np.array([0.0, 2.0]), upper=np.array([1.0, 1.0])),
    dict(lower=np.array([np.nan, 0.0])),
    dict(upper=np.array([1.0, np.nan])),
], ids=["nan-cost", "nan-rhs", "long-cost", "long-rhs", "long-bounds", "crossed-bounds",
        "nan-lower", "nan-upper"])
def test_fill_rows_checks_every_row_and_every_new_cost_array(vectors):
    """The bad vector sits in the stack's second row (in both, where its
    length differs); new costs are checked though read-only costs passed."""
    template = _template()
    checked = np.zeros(2)
    checked.flags.writeable = False
    good = dict(eq_rhs=np.ones(1), lower=np.zeros(2), upper=np.ones(2))
    template.fill_rows(checked, *(np.stack((v, v)) for v in good.values()), [0, 1])
    bad = {name: np.stack((v if vectors.get(name, v).shape == v.shape else vectors[name],
                           vectors.get(name, v))) for name, v in good.items()}
    with pytest.raises(ConfigurationError):
        template.fill_rows(vectors.get("objective", checked), *bad.values(), [0, 1])


def test_fill_rows_keeps_the_stacked_arrays_read_only_and_fills_the_given_rows():
    stacked = np.arange(3.0)[:, None], np.zeros((3, 2)), np.ones((3, 2))
    programs = _template().fill_rows(np.zeros(2), *stacked, [2, 0])
    assert [p.eq_rhs.tolist() for p in programs] == [[2.0], [0.0]]
    assert not any(vector.flags.writeable for vector in stacked)
    for program, row in zip(programs, [2, 0]):
        for held, vector in zip((program.eq_rhs, program.lower, program.upper), stacked):
            assert np.shares_memory(held, vector[row])  # a view, not a copy


def test_desk_distributed_builds_rows_once_and_extracts_no_plan(monkeypatch):
    builds = []
    original = LinearProgram.__init__

    def counted(program, *args, **kwargs):
        builds.append(1)
        original(program, *args, **kwargs)

    def no_plan(*args, **kwargs):
        raise AssertionError("the controller extracted a plan")

    monkeypatch.setattr(LinearProgram, "__init__", counted)
    monkeypatch.setattr(scheduler, "extract_plan", no_plan)
    scheduler._window_rows.cache_clear()
    result = run_distributed(load_scenario(DESK_CONFIG))
    assert result.metrics.served > 0
    assert len(builds) == 1  # the one template; every window is filled from it


def test_missing_binding_falls_back_to_linprog(no_binding, linprog_calls):
    program = LinearProgram(np.array([1.0]), ineq_matrix=np.array([[1.0]]),
                            ineq_rhs=np.array([3.0]))
    sol = solve(program)
    assert sol.status == "optimal"
    assert sol.values.tolist() == [3.0]
    assert len(linprog_calls) == 1


def test_a_model_less_solve_is_one_linprog_call(linprog_calls):
    program = _template().fill(np.array([1.0, 0.0]), np.array([1.0]), np.zeros(2), np.ones(2))
    sol = solve(program)
    assert len(linprog_calls) == 1
    reference = lp._solve_linprog(program)
    assert sol.status == reference.status == "optimal"
    assert np.array_equal(sol.values, reference.values)
    assert (sol.objective, sol.iterations) == (reference.objective, reference.iterations)


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_a_desk_day_with_the_binding_never_calls_linprog(monkeypatch, linprog_calls):
    models = []

    class NotedModel(Model):
        def __init__(self, template):
            super().__init__(template)
            models.append(self)

    monkeypatch.setattr(scheduler, "Model", NotedModel)
    config = load_scenario(DESK_CONFIG)
    for runner in (run_ddls, run_distributed):
        assert runner(config).metrics.served > 0
    assert len(models) == 1 + 8
    assert not linprog_calls
    assert all(m.cold_retries == 0 for m in models)


def test_a_desk_day_without_the_binding_serves_every_arrival_through_linprog(
        no_binding, linprog_calls):
    config = load_scenario(DESK_CONFIG)
    served = run_ddls(config).metrics.served
    assert len(linprog_calls) >= 96
    assert served == run_uncontrolled(config).metrics.served > 0


def _bank_windows(runner, config, also=None):
    """(bank, scheduler, program, warm solution, ``also(program)``) of every
    window of one day, the day following the warm solutions."""
    windows, stepping = [], []
    step, solve = RecedingHorizonScheduler.step, scheduler.lp_solve

    def noted(bank, *args):
        stepping[:] = [bank]
        return step(bank, *args)

    def both(program, model=None):
        bank = stepping[0]
        warm = solve(program, model=model)
        windows.append((bank, bank._models.index(model), program, warm,
                        also and also(program)))
        return warm

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RecedingHorizonScheduler, "step", noted)
        patch.setattr(scheduler, "lp_solve", both)
        runner(config)
    return windows


def _desk_windows(runner, seed):
    """(program, warm solution, from-scratch solution, model) of every
    window of one desk day, the day following the warm solutions."""
    config = replace(load_scenario(DESK_CONFIG), seed=seed)
    return [(program, warm, cold, bank._models[i])
            for bank, i, program, warm, cold in _bank_windows(runner, config, _from_scratch)]


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
@pytest.mark.parametrize("runner", [run_ddls, run_distributed], ids=["ddls", "distributed"])
def test_every_warm_desk_window_has_the_cold_objective(runner):
    windows = [w for seed in range(4) for w in _desk_windows(runner, seed)]
    assert len(windows) >= 4 * 96
    for i, (_, warm, cold, model) in enumerate(windows):
        assert isinstance(model, Model), i
        assert warm.status == cold.status == "optimal", i
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9), i
    assert np.mean([warm.iterations for _, warm, _, _ in windows]) < 20
    assert sum(m.cold_retries for m in {id(w[3]): w[3] for w in windows}.values()) == 0


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_a_warm_run_that_is_not_optimal_retries_cold():
    programs = [program for program, *_ in _desk_windows(run_ddls, 0)]
    model = Model(programs[0])
    assert solve(programs[0], model=model).is_optimal
    later = next(p for p in programs[1:] if _from_scratch(p).iterations > 0)
    model._highs.setOptionValue("simplex_iteration_limit", 0)
    retried = solve(later, model=model)
    reference = lp._solve_linprog(later)
    assert model.cold_retries == 1
    assert retried.status == reference.status == "optimal"
    assert np.array_equal(retried.values, reference.values)
    assert retried.objective == reference.objective
    assert retried.iterations == reference.iterations


@pytest.fixture(scope="module")
def desk_programs():
    """Every window program of the desk seed-0 ddls day, in order."""
    programs = []
    original = scheduler.lp_solve

    def noted(program, model=None):
        programs.append(program)
        return original(program, model=model)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "lp_solve", noted)
        run_ddls(load_scenario(DESK_CONFIG))
    return programs


class _AlteredPoint:
    """A model's HiGHS object that reports ``alter(x, objective)`` in place
    of its own optimal point and objective, with the row activity of the
    altered point; everything else is the real object's."""

    def __init__(self, highs, program, alter):
        indptr, indices, data = program.csc
        shape = (program.ineq_rhs.size + program.eq_rhs.size, program.n_vars)
        self._highs, self._alter = highs, alter
        self._rows = scipy.sparse.csc_array((data, indices, indptr), shape=shape)

    def _altered(self):
        x = np.array(self._highs.getSolution().col_value)
        return self._alter(x, self._highs.getObjectiveValue())

    def getSolution(self):
        x, _ = self._altered()
        return SimpleNamespace(col_value=x.tolist(), row_value=(self._rows @ x).tolist())

    def getObjectiveValue(self):
        return self._altered()[1]

    def __getattr__(self, name):
        return getattr(self._highs, name)


def _off_an_equality_row(x, objective, up0):
    x[up0] += 1.0  # balance row 0 now misses by 1; every bound and >= row still holds
    return x, objective


def _outside_a_bound(x, objective, up0):
    dn0 = up0 + (x.size - up0) // 2
    shift = x[up0] + 1.0  # up and dn' cancel in balance row 0
    x[[up0, dn0]] -= shift  # so every row still holds, and up is below 0
    return x, objective


def _nan_objective(x, objective, up0):
    return x, float("nan")


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
@pytest.mark.parametrize("alter", [_off_an_equality_row, _outside_a_bound, _nan_objective],
                         ids=["off-an-equality-row", "outside-a-bound", "nan-objective"])
def test_a_warm_point_that_fails_a_check_is_answered_by_linprog(desk_programs, alter):
    first, later = desk_programs[:2]
    up0 = first.n_vars - 2 * (load_scenario(DESK_CONFIG).lookahead + 1)
    model = Model(first)
    assert solve(first, model=model).is_optimal and model.cold_retries == 0
    model._highs = _AlteredPoint(model._highs, later, lambda x, f: alter(x, f, up0))
    retried = solve(later, model=model)
    reference = lp._solve_linprog(later)
    assert model.cold_retries == 1
    assert retried.status == reference.status == "optimal"
    assert np.array_equal(retried.values, reference.values)
    assert retried.objective == reference.objective
    assert retried.iterations == reference.iterations


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_the_row_activity_is_highs_row_value(monkeypatch):
    """The point check computes each row's activity from the program's
    rows; on every window of a desk and a crowd day it is HiGHS's own."""
    compared = []

    class ComparedModel(Model):
        def warm_solve(self, program):
            solution = super().warm_solve(program)
            assert solution is not None
            highs_rows = np.array(self._highs.getSolution().row_value)
            compared.append((program.row_activity(solution.values), highs_rows))
            return solution

    monkeypatch.setattr(scheduler, "Model", ComparedModel)
    for path in (DESK_CONFIG, CROWD_CONFIG):
        config = load_scenario(path)
        run_ddls(config)
        run_distributed(config)
    assert len(compared) > 2 * 96
    for i, (activity, highs_rows) in enumerate(compared):
        assert activity.dtype == float and activity.shape == highs_rows.shape, i
        assert (np.abs(activity - highs_rows) <= 1e-9 * (1 + np.abs(highs_rows))).all(), i


def _binding_from(monkeypatch, source, core):
    """Make ``lp._load_highs`` find ``core`` (or, for None, no binding) by
    one of its three ways: already imported, loaded from its file, or, the
    file load failing, imported through scipy.optimize's package."""
    import scipy.optimize._highspy as highspy

    def no_file():
        raise OSError("no such file")

    if source == "imported":
        monkeypatch.setitem(sys.modules, lp._CORE, core)
        return
    monkeypatch.delitem(sys.modules, lp._CORE)
    monkeypatch.setattr(lp, "_core_from_file", (lambda: core) if source == "file" else no_file)
    if source == "package":
        monkeypatch.setattr(highspy, "_core", core)


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_a_binding_whose_infinity_is_finite_is_not_used(desk_programs, linprog_calls):
    """Bounds go to HiGHS unmapped, so a binding must take inf as infinity,
    however it was loaded."""
    loaded = lp._load_highs()
    finite = SimpleNamespace(**{**vars(loaded), "kHighsInf": 1e30})
    for source in ("imported", "file", "package"):
        with pytest.MonkeyPatch.context() as patch:
            _binding_from(patch, source, finite)
            lp._load_highs.cache_clear()
            try:
                assert lp._load_highs() is None, source
                program = desk_programs[0]
                model = Model(program)
                answer = solve(program, model=model)
                assert len(linprog_calls) == 1 and model.cold_retries == 0, source
                reference = lp._solve_linprog(program)
                assert np.array_equal(answer.values, reference.values), source
                assert answer.objective == reference.objective, source
            finally:
                patch.undo()
                lp._load_highs.cache_clear()
        linprog_calls.clear()
        assert lp._load_highs() is loaded


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_a_failed_file_load_still_solves_warm_through_the_package(monkeypatch, linprog_calls):
    import scipy.optimize._highspy as highspy

    loaded = lp._load_highs()
    _binding_from(monkeypatch, "package", highspy._core)
    models = []

    class NotedModel(Model):
        def __init__(self, template):
            super().__init__(template)
            models.append(self)

    monkeypatch.setattr(scheduler, "Model", NotedModel)
    lp._load_highs.cache_clear()
    try:
        assert lp._load_highs() is highspy._core
        assert run_ddls(load_scenario(DESK_CONFIG)).metrics.served > 0
        assert models and not linprog_calls
        assert all(m.cold_retries == 0 for m in models)
    finally:
        monkeypatch.undo()
        lp._load_highs.cache_clear()
    assert lp._load_highs() is loaded


# Runs in a fresh interpreter: a desk day loads the binding from its file; a
# later import of scipy.optimize takes that same module, and linprog then
# answers the day's first windows (printed as JSON).
_FILE_LOAD_FIRST = """
import json, sys
from ddls import lp, scheduler
from ddls.simkit import load_scenario, run_ddls

programs, solve = [], scheduler.lp_solve
scheduler.lp_solve = lambda program, model=None: programs.append(program) or solve(program, model)
run_ddls(load_scenario(CONFIG))
core = lp._load_highs()
assert core is not None
assert "scipy.optimize" not in sys.modules and "scipy.optimize._highspy" not in sys.modules
import scipy.optimize._highspy as h
from scipy.optimize._highspy import _core
assert h._core is core and _core is core
answers = [lp._solve_linprog(program) for program in programs[:WINDOWS]]
print(json.dumps([[a.status, a.objective, a.iterations, a.values.tolist()] for a in answers]))
"""


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_scipy_optimize_imported_after_the_file_load_reuses_it(desk_programs):
    root = DESK_CONFIG.parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    script = f"CONFIG, WINDOWS = {str(DESK_CONFIG)!r}, 5\n" + _FILE_LOAD_FIRST
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]
    answers = json.loads(proc.stdout)
    assert len(answers) == 5
    for program, (status, objective, iterations, values) in zip(desk_programs, answers):
        reference = lp._solve_linprog(program)  # in this process, scipy.optimize came first
        assert status == reference.status == "optimal"
        assert (objective, iterations) == (reference.objective, reference.iterations)
        assert values == reference.values.tolist()


class _PushSpy:
    """A model's HiGHS object that notes, in the last entry of ``windows``,
    every cost, column-bound and row push, every solution read and every
    attribute read from a solution."""

    def __init__(self, highs, windows):
        self._highs, self._windows = highs, windows

    def changeColsCost(self, n, cols, costs):
        self._windows[-1][1]["cost"] = np.array(costs)
        return self._highs.changeColsCost(n, cols, costs)

    def changeColsBounds(self, n, cols, lower, upper):
        self._windows[-1][1]["bounds"].append(tuple(map(np.array, (cols, lower, upper))))
        return self._highs.changeColsBounds(n, cols, lower, upper)

    def changeRowBounds(self, row, lower, upper):
        self._windows[-1][1]["rows"].append((row, lower, upper))
        return self._highs.changeRowBounds(row, lower, upper)

    def getSolution(self):
        read = self._windows[-1][1]["read"]
        read.append("getSolution")
        solution = self._highs.getSolution()

        class Noted:
            def __getattr__(self, name):
                read.append(name)
                return getattr(solution, name)

        return Noted()

    def __getattr__(self, name):
        return getattr(self._highs, name)


def _pushed_windows(monkeypatch, day):
    """(program, pushes) of every warm window of ``day``; ``day`` runs
    one scheduler."""
    windows = []

    class SpiedModel(Model):
        def warm_solve(self, program):
            windows.append((program, {"cost": None, "bounds": [], "rows": [], "read": []}))
            if self._highs is not None and not isinstance(self._highs, _PushSpy):
                self._highs = _PushSpy(self._highs, windows)
            return super().warm_solve(program)

    monkeypatch.setattr(scheduler, "Model", SpiedModel)
    day()
    return windows


def _varying_price_day():
    codebook = [ChargeCode(id=1, pulse=(1.0, 2.0)), ChargeCode(id=2, pulse=(1.5,))]
    rng = np.random.default_rng(4409)
    price_up = np.repeat(rng.uniform(0.5, 2.0, size=5), 8)  # changes every 8 epochs
    sched = RecedingHorizonScheduler(codebook, rng.uniform(0.0, 4.0, size=40), price_up, 1.0,
                                     np.full(2, 0.05), 6, arrival_rates=np.full(2, 0.8),
                                     deadline_epochs=5)
    sched.run(rng.poisson(0.8, size=(2, 24)))


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
@pytest.mark.parametrize("day", [lambda: run_ddls(load_scenario(DESK_CONFIG)), _varying_price_day],
                         ids=["flat-price desk", "varying price"])
def test_a_warm_window_pushes_only_the_costs_and_rows_that_changed(monkeypatch, day):
    """Each warm window reads one solution and only its columns, pushes the
    costs only where they changed, the changed columns' bounds in at most
    one call, and each changed equality row once.  The net supply travels
    in the lower bound of dn', in that one call: the balance rows' right-hand
    side stays 0, so every pushed row is a completion row, at most Q a
    window."""
    windows = _pushed_windows(monkeypatch, day)
    assert len(windows) > 20
    # a balance row holds gamma, up and dn' entries, a completion row one e entry
    entries = np.diff(windows[0][0].eq_matrix.tocsr().indptr)
    width, q = int((entries > 1).sum()), int((entries == 1).sum())
    assert (entries[:width] > 1).all() and width + q == entries.size
    cost_pushes, supply_moves = 0, 0
    for i, ((program, pushed), (before, _)) in enumerate(zip(windows[1:], windows), 1):
        assert pushed["read"] == ["getSolution", "col_value"], i
        if np.array_equal(program.objective, before.objective):
            assert pushed["cost"] is None, i
        else:
            cost_pushes += 1
            assert np.array_equal(pushed["cost"], program.objective), i
        cols = np.flatnonzero((program.lower != before.lower) | (program.upper != before.upper))
        if cols.size:
            [(pushed_cols, lower, upper)] = pushed["bounds"]
            assert pushed_cols.tolist() == cols.tolist(), i
            assert np.array_equal(lower, program.lower[cols]), i
            assert np.array_equal(upper, program.upper[cols]), i
        else:
            assert not pushed["bounds"], i
        row0 = program.ineq_matrix.shape[0]
        changed = np.flatnonzero(program.eq_rhs != before.eq_rhs)
        assert pushed["rows"] == [(row + row0, program.eq_rhs[row], program.eq_rhs[row])
                                  for row in changed], i
        assert not program.eq_rhs[:width].any(), i
        assert all(row - row0 >= width for row, *_ in pushed["rows"]) and len(changed) <= q, i
        dn = np.arange(program.n_vars - width, program.n_vars)
        moved = dn[program.lower[dn] != before.lower[dn]]
        if moved.size:
            supply_moves += 1
            [(pushed_cols, lower, _)] = pushed["bounds"]
            assert np.isin(moved, pushed_cols).all(), i
            assert np.array_equal(lower[np.isin(pushed_cols, moved)], program.lower[moved]), i
    assert 0 < np.mean([len(p["rows"]) for _, p in windows[1:]]) <= q
    assert 0 < np.mean([len(p["bounds"]) for _, p in windows[1:]]) <= 1
    assert supply_moves > len(windows) // 2
    if day is _varying_price_day:
        assert 0 < cost_pushes < len(windows) - 1
    else:
        assert cost_pushes == 0  # loaded once with the first window


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_a_model_refuses_other_rows():
    template = _template()
    other = LinearProgram(np.zeros(2), eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.ones(1))
    with pytest.raises(ConfigurationError, match="rows"):
        solve(other, model=Model(template))


def test_without_the_binding_a_model_is_ignored(no_binding, linprog_calls):
    template = _template()
    model = Model(template)
    filled = template.fill(np.array([1.0, 0.0]), np.array([1.0]), np.zeros(2), np.ones(2))
    assert solve(filled, model=model).values.tolist() == [0.5, 0.5]
    assert len(linprog_calls) == 1
    assert model.cold_retries == 0


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_every_window_commits_linprogs_rounded_starts():
    """Each window has one optimum, so a warm solve, which starts from
    whatever basis the day left, and linprog commit the same starts: every
    ddls and distributed window of desk seeds 0-3 and crowd seeds 0-1, for
    a prior of either parity (which decides a half)."""
    checked = 0
    for path, seeds in ((DESK_CONFIG, range(4)), (CROWD_CONFIG, range(2))):
        for seed, runner in itertools.product(seeds, (run_ddls, run_distributed)):
            config = replace(load_scenario(path), seed=seed)
            for k, (bank, i, program, warm, reference) in enumerate(
                    _bank_windows(runner, config, lp._solve_linprog)):
                l0, width = bank.epoch, bank.lookahead + 1
                prior, arrived = bank._dep[i, :, l0], bank._arr[i, :, l0 + 1]
                assert warm.status == reference.status == "optimal", (path.name, seed, k)
                for parity in (0, 1):
                    starts = [scheduler._rounded_departures(x.values[::width][:bank.n_queues],
                                                            prior + parity, arrived + parity)
                              for x in (warm, reference)]
                    assert np.array_equal(*starts), (path.name, seed, runner.__name__, k)
                checked += 1
    assert checked > 3_000


@pytest.fixture(scope="module")
def face_scan():
    """``tools/face_scan.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location("face_scan", ROOT / "tools" / "face_scan.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, window", [(11000, 28), (11002, 18)])
def test_a_once_tied_desk_window_has_one_optimal_first_epoch(face_scan, seed, window):
    """Two desk ddls windows that a tie-break preferring the higher queues
    left (almost) tied, trading one start of queue 2 for two of queue 5:
    on seed 11000 both move by 0.27 and 0.53 over the optimal face, on
    seed 11002 by 2e-6 and 4e-6 within its 1e-14 slack.  Each e_q(0) must
    now move by at most ``face_scan.SPREAD`` over that face."""
    config = replace(load_scenario(DESK_CONFIG), seed=seed)
    _, _, program = face_scan.day_windows(run_ddls, config)[window]
    spreads = face_scan.first_epoch_spreads(program, config.n_queues)
    assert spreads.max() <= face_scan.SPREAD, spreads


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_a_bank_hands_its_first_basis_to_its_own_siblings_only(monkeypatch):
    """A bank of several schedulers reads one basis, of the first window it
    solves, and each sibling's model starts its first window from it, in
    fewer iterations than that cold first window; a bank of one reads
    none, and each day starts cold again, so two equal days solve alike."""
    calls = []
    highs = lp._load_highs()._Highs
    for name in ("getBasis", "setBasis"):
        def noted(self, *args, _name=name, _call=getattr(highs, name)):
            calls.append(_name)
            return _call(self, *args)
        monkeypatch.setattr(highs, name, noted)
    config = load_scenario(DESK_CONFIG)
    days = []
    for runner in (run_distributed, run_ddls, run_distributed):
        calls.clear()
        windows = _bank_windows(runner, config)
        days.append([(i, warm.iterations) for _, i, _, warm, _ in windows])
        m = windows[0][0].n_schedulers
        assert calls == ([] if m == 1 else ["getBasis"] + ["setBasis"] * (m - 1)), runner
        firsts = {}
        for i, iterations in days[-1]:
            firsts.setdefault(i, iterations)
        assert len(firsts) == m
        assert all(firsts[0] > 4 * firsts[i] for i in range(1, m)), firsts
    assert days[0] == days[2]


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_a_first_basis_that_highs_refuses_leaves_a_cold_start(desk_programs):
    first, later = desk_programs[0], desk_programs[5]
    handed = Model(first)
    handed.first_basis = []
    assert solve(first, model=handed).is_optimal and len(handed.first_basis) == 1
    wrong = lp._load_highs().HighsBasis()  # one column short
    wrong.col_status = list(handed.first_basis[0].col_status)[:-1]
    wrong.row_status = list(handed.first_basis[0].row_status)
    wrong.valid = True
    refused, cold = Model(later), Model(later)
    refused.first_basis = [wrong]
    answer, reference = solve(later, model=refused), solve(later, model=cold)
    assert refused.cold_retries == cold.cold_retries == 0
    assert np.array_equal(answer.values, reference.values)
    assert (answer.objective, answer.iterations) == (reference.objective, reference.iterations)
    assert reference.iterations > 100
    taken = Model(later)
    taken.first_basis = handed.first_basis
    assert solve(later, model=taken).iterations < reference.iterations // 4


def _first_desk_epochs(monkeypatch):
    """The models and committed starts of the first epoch of a desk bank of
    one and of a desk bank of eight, every scheduler given one arrival a
    queue.  The bank of one builds its HiGHS object afresh; the bank of
    eight takes its first from a cleared spare, and its siblings load the
    first basis."""
    monkeypatch.setattr(lp, "_SPARE", [])
    config = load_scenario(DESK_CONFIG)
    zic, up, dn = config.padded_profiles()
    models, committed, spare = [], [], lp._load_highs()._Highs()
    for m in (1, 8):
        if m > 1:
            lp._spare(spare)  # as a freed model leaves it
        bank = RecedingHorizonScheduler(
            list(config.codebook), zic / m, up, dn, config.delay_prices, config.lookahead,
            arrival_rates=config.padded_rates() / m, deadline_epochs=config.deadline_epochs,
            n_schedulers=m)
        bank.observe_arrivals(np.ones((m, config.n_queues), dtype=np.int64))
        committed.append(bank.step().committed)
        models.append(bank._models)
    assert not lp._SPARE and models[1][0]._highs is spare
    assert len(models[1][0].first_basis) == 1
    assert all(model._highs is not spare for model in (*models[0], *models[1][1:]))
    return models, committed


_REFACTOR = "no_unnecessary_rebuild_refactor"


@pytest.mark.skipif(lp._load_highs() is None, reason="this scipy has no HiGHS binding")
def test_every_warm_run_refactors_its_starting_basis(monkeypatch):
    """A fresh model, a model on a cleared spare (``clear`` and ``passOptions``
    reset every option) and a sibling loaded from the first basis all run
    with HiGHS's refactor-on-rebuild option off; where HiGHS refuses it, a
    model keeps the default and still commits the same starts."""
    highs = lp._load_highs()
    cleared = highs._Highs()
    cleared.setOptionValue(_REFACTOR, False)
    cleared.clear()
    assert cleared.getOptionValue(_REFACTOR) == (highs.HighsStatus.kOk, True)
    answers = []
    for refused in (False, True):
        with monkeypatch.context() as patch:
            if refused:
                patch.setattr(highs._Highs, "setOptionValue",
                              lambda self, name, value: highs.HighsStatus.kError)
            models, committed = _first_desk_epochs(patch)
        for model in (*models[0], *models[1]):
            assert model._highs.getOptionValue(_REFACTOR) == (highs.HighsStatus.kOk, refused)
            assert model.cold_retries == 0
        answers.append(committed)
    for set_, refused in zip(*answers):
        assert np.array_equal(set_, refused) and set_.any()


def test_two_distributed_days_in_one_process_are_equal():
    config = load_scenario(DESK_CONFIG)
    first, second = run_distributed(config), run_distributed(config)
    assert first.metrics == second.metrics
    assert np.array_equal(first.flex_kw, second.flex_kw)


def test_import_without_binding_selects_linprog(monkeypatch):
    """A scipy with no binding: no extension file to load, and no module to import."""
    import scipy.optimize._highspy as highspy

    loaded = lp._load_highs()
    monkeypatch.delattr(highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    lp._load_highs.cache_clear()
    try:
        assert lp._load_highs() is None
    finally:
        monkeypatch.undo()
        lp._load_highs.cache_clear()
    assert lp._load_highs() is loaded


@pytest.mark.parametrize("binding", [True, False], ids=["model", "linprog"])
class TestStatusMapping:
    """With the binding, a model that does not reach an optimum hands the
    program to linprog; without it, linprog ignores the model."""

    @pytest.fixture(autouse=True)
    def _path(self, binding, monkeypatch):
        if not binding:
            monkeypatch.setattr(lp, "_load_highs", lambda: None)

    def test_infeasible(self):
        prog = LinearProgram(np.array([1.0]), ineq_matrix=np.array([[1.0]]),
                             ineq_rhs=np.array([3.0]), upper=np.array([2.0]))
        sol = _from_scratch(prog)
        assert sol.status == "infeasible"
        assert sol.values is None
        assert np.isnan(sol.objective)

    def test_infeasible_equalities(self):
        prog = LinearProgram(np.array([1.0, 1.0]),
                             eq_matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
                             eq_rhs=np.array([1.0, 2.0]), lower=np.zeros(2))
        assert _from_scratch(prog).status == "infeasible"

    def test_unbounded(self):
        prog = LinearProgram(np.array([-1.0]), ineq_matrix=np.array([[1.0]]),
                             ineq_rhs=np.array([1.0]))
        sol = _from_scratch(prog)
        assert sol.status == "unbounded"
        assert sol.values is None
        assert sol.objective == float("-inf")

    def test_free_and_boxed_columns(self):
        prog = LinearProgram(np.array([1.0, -1.0]),
                             eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([0.5]),
                             lower=np.array([-np.inf, -1.0]),
                             upper=np.array([np.inf, 2.0]))
        sol = _from_scratch(prog)
        assert sol.status == "optimal"
        assert sol.values.tolist() == [-1.5, 2.0]
        assert sol.objective == -3.5


# prices, rates and supply on a coarse grid, so that distinct optimal vertices
# have the same objective to well within the comparison's tolerance
_GRID = st.integers(0, 10)
_SUPPLY = st.integers(-12, 24).map(lambda k: k / 4)


class ModelMachine(RuleBasedStateMachine):
    """Random sequences of windows pushed through one ``lp.Model`` of a
    small window template (2-3 queues, T = 3..6): new costs, new or
    nudged bounds and right-hand sides, the same read-only arrays again,
    and writeable copies.  After every solve the status and objective are
    linprog's, and the HiGHS model holds exactly the program's vectors."""

    @initialize(data=st.data())
    def build(self, data):
        q, t = data.draw(st.integers(2, 3)), data.draw(st.integers(3, 6))
        self.codebook = tuple(ChargeCode(id=i + 1, pulse=(1.0 + i,) * data.draw(st.integers(1, t)))
                              for i in range(q))
        self.template, self.completion = scheduler._window_rows(self.codebook, t, 0)
        self.model, self.q, self.t = Model(self.template), q, t
        self.cost = self._costs(data, read_only=True)
        self.program = self.template.fill_rows(self.cost, *self._window(data), [0])[0]
        self._solve()

    def _costs(self, data, read_only):
        width = self.t + 1
        delay, prices = st.sampled_from([0.0, 0.01, 0.05, 0.2]), _GRID.map(lambda k: k / 5)
        cost = np.concatenate((-np.repeat(data.draw(st.lists(delay, min_size=self.q,
                                                             max_size=self.q)), width),
                               data.draw(st.lists(prices, min_size=2 * width, max_size=2 * width))))
        cost.flags.writeable = not read_only
        return cost

    def _window(self, data):
        """One feasible window's stacked (1, ·) vectors, as a bank builds them."""
        l0, deadline = data.draw(st.integers(0, 4)), data.draw(st.sampled_from([None, 2, self.t]))
        counts = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=l0 + 1,
                                                      max_size=l0 + 1),
                                             min_size=self.q, max_size=self.q)))
        observed = counts.cumsum(axis=1)
        prior = np.array([data.draw(st.integers(0, int(a))) for a in observed[:, -1]])
        rates = np.array(data.draw(st.lists(_GRID.map(lambda k: k / 4), min_size=self.q,
                                            max_size=self.q)))
        arrivals = scheduler.certainty_equivalent_arrivals(observed, rates, l0, self.t)
        net = np.array(data.draw(st.lists(_SUPPLY, min_size=self.t + 1, max_size=self.t + 1)))
        vectors = scheduler._window_vectors(observed[None], arrivals[None], prior[None], net[None],
                                            l0, deadline, self.completion)
        return [vector.copy() for vector in vectors]  # writeable, like a bank's fresh ones

    def _solve(self):
        program = self.program
        solution = solve(program, model=self.model)
        reference = lp._solve_linprog(program)
        assert solution.status == reference.status == "optimal"
        assert solution.objective == pytest.approx(reference.objective, rel=1e-9, abs=1e-9)
        held, mi = self.model._highs.getLp(), program.ineq_rhs.size
        assert np.array_equal(held.col_cost_, program.objective)
        assert np.array_equal(held.col_lower_, program.lower)
        assert np.array_equal(held.col_upper_, program.upper)
        assert np.array_equal(held.row_lower_, np.r_[np.full(mi, -np.inf), program.eq_rhs])
        assert np.array_equal(held.row_upper_, np.r_[-program.ineq_rhs, program.eq_rhs])

    @rule(data=st.data(), read_only=st.booleans())
    def new_costs(self, data, read_only):
        self.cost = self._costs(data, read_only)
        p = self.program
        self.program = self.template.fill_rows(self.cost, p.eq_rhs[None], p.lower[None],
                                               p.upper[None], [0])[0]
        self._solve()

    @rule(data=st.data())
    def new_window(self, data):
        self.program = self.template.fill_rows(self.cost, *self._window(data), [0])[0]
        self._solve()

    @rule(data=st.data())
    def nudged_supply_and_purchase_floors(self, data):
        """Some balance rows' supply and some purchase columns' lower bounds
        change; every other vector entry stays."""
        p, width, n_e = self.program, self.t + 1, self.q * (self.t + 1)
        eq_rhs, lower = p.eq_rhs.copy(), p.lower.copy()
        for row in data.draw(st.lists(st.integers(0, width - 1), max_size=3)):
            eq_rhs[row] = data.draw(_SUPPLY)
        for col in data.draw(st.lists(st.integers(n_e, n_e + 2 * width - 1), max_size=3)):
            lower[col] = data.draw(_GRID.map(lambda k: k / 4))
        self.program = self.template.fill_rows(self.cost, eq_rhs[None], lower[None],
                                               p.upper.copy()[None], [0])[0]
        self._solve()

    @rule()
    def the_same_read_only_arrays_again(self):
        self._solve()

    @rule()
    def writeable_copies(self):
        p = self.program
        self.program = self.template.fill(p.objective.copy(), p.eq_rhs, p.lower, p.upper)
        self._solve()


TestModelMachine = pytest.mark.skipif(lp._load_highs() is None,
                                      reason="this scipy has no HiGHS binding")(
    ModelMachine.TestCase)
TestModelMachine.settings = settings(max_examples=25, stateful_step_count=8, deadline=None)
