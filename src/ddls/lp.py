"""Continuous linear programming through HiGHS.

min c'x  s.t.  A_eq x = b_eq,  A_ge x >= b_ge,  lo <= x <= hi

``solve`` has two paths.  Given a ``Model``, it re-solves one persistent
HiGHS model through scipy's bundled binding
(``scipy.optimize._highspy._core``) from the basis its last solve left
(presolve off), pushing only the data that changed since, and accepts
the point with ``scipy.optimize.linprog``'s checks.  Everything else goes
to ``linprog(method="highs")``, the reference: a call without a model, a
warm run that does not end optimal, and a scipy that lacks the binding
or whose binding's infinity is not inf (bounds go to HiGHS as they are).
The warm path matches linprog's status and objective, not its point: a
window LP often has several optimal vertices.  Both paths are
deterministic.  Bound intervals are accepted as nonempty within FEAS_TOL.

Importing this module loads numpy only.  A run whose windows all solve
warm adds only the binding's extension module, loaded from its file;
scipy.optimize and scipy.sparse load for linprog and ``eq_matrix``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SolverError

FEAS_TOL = 1e-7


# A ``shape`` matrix by its entries, ``data[k]`` at (``row[k]``, ``col[k]``), named as
# scipy's ``coo_array`` names them
Entries = namedtuple("Entries", "data row col shape")


def _rows(m, n: int, label) -> tuple:
    """A dense matrix, ``Entries`` or a scipy-sparse matrix over ``n``
    variables, checked, as its row count and read-only CSC (indptr, indices,
    data): scipy's ``csc_array`` after ``sum_duplicates`` (in the order
    given) and ``eliminate_zeros``, indexed in int32 as HiGHS is."""
    if hasattr(m, "tocoo"):  # scipy-sparse, read without importing scipy.sparse
        m = m.tocoo()
    elif not isinstance(m, Entries):
        m = np.zeros((0, n)) if m is None or not np.size(m) else np.atleast_2d(np.asarray(m, float))
        m = Entries(m[m.nonzero()], *m.nonzero(), m.shape)
    if m.shape[1] != n:
        raise ConfigurationError(f"{label} matrix has shape {m.shape}, expected {n} columns")
    data = np.asarray(m.data, dtype=float)
    if not np.isfinite(data).all():
        raise ConfigurationError(f"{label} contains NaN/Inf")
    # column-major positions; an entry outside the shape raises ValueError
    key, position = np.unique(np.ravel_multi_index((m.col, m.row), m.shape[::-1]),
                              return_inverse=True)
    data = np.bincount(position, data, key.size).astype(float, copy=False)
    kept = data != 0
    col, row = np.unravel_index(key[kept], m.shape[::-1])
    csc = (np.searchsorted(col, np.arange(n + 1)).astype(np.int32), row.astype(np.int32),
           data[kept])
    for a in csc:
        a.flags.writeable = False
    return m.shape[0], csc


def _rhs(rhs, shape: tuple, label, copy: bool = True) -> np.ndarray:
    """A right-hand side of the given shape, rows last, as float: a copy,
    or without ``copy`` the array itself where it is float."""
    rhs = (np.zeros(shape) if rhs is None and not shape[-1]
           else np.array(rhs, float, ndmin=1) if copy else np.asarray(rhs, float))
    if rhs.shape != shape:
        raise ConfigurationError(f"{label} shapes inconsistent: rows {shape}, rhs {rhs.shape}")
    if np.count_nonzero(np.isfinite(rhs)) != rhs.size:
        raise ConfigurationError(f"{label} contains NaN/Inf")
    return rhs


class LinearProgram:
    """LP data; inequality rows are >= constraints.

    The matrices may be dense, ``Entries`` or scipy-sparse.  The rows
    (both matrices and ``ineq_rhs``) are checked and held only as
    read-only numpy CSC arrays (``_rows``), stacked into linprog's
    ``[-ineq; eq]`` once, when the program is built; ``eq_matrix`` and
    ``ineq_matrix`` are scipy ``csc_array``s over them, built on first
    access.  ``fill`` gives programs that share the rows and differ only
    in the costs, the equality right-hand side and the bounds.
    """

    def __init__(self, objective, eq_matrix=None, eq_rhs=None, ineq_matrix=None,
                 ineq_rhs=None, lower=None, upper=None):
        n = np.size(objective)
        held = _rows(eq_matrix, n, "equality"), _rows(ineq_matrix, n, "inequality")
        self._held, self._matrices = dict(zip(("eq", "ineq"), held)), {}  # see ``_matrix``
        (me, eq), (mi, ineq) = held  # row counts and CSCs
        self.ineq_rhs = _rhs(ineq_rhs, (mi,), "inequality")
        cols = [np.repeat(np.arange(n), np.diff(rows[0])) for rows in (ineq, eq)]
        _, self.csc = _rows(Entries(np.concatenate((-ineq[2], eq[2])),  # (indptr, indices, data)
                                    np.concatenate((ineq[1], eq[1] + mi)), np.concatenate(cols),
                                    (mi + me, n)), n, "stacked")
        self._entries = (self.csc[1].astype(np.intp),  # each entry's row and column
                         np.repeat(np.arange(n), np.diff(self.csc[0])))
        self._checked_cost = None  # see ``fill_rows``
        for a in (self.ineq_rhs, *self._entries):
            a.flags.writeable = False
        self.objective, self.eq_rhs, self.lower, self.upper = self._checked(
            objective, eq_rhs, lower, upper)

    eq_matrix = property(lambda self: self._matrix("eq"))
    ineq_matrix = property(lambda self: self._matrix("ineq"))

    def _matrix(self, name):
        """The held rows as a scipy ``csc_array`` over the same read-only
        arrays, built on first access and shared with every filled program."""
        if name not in self._matrices:
            from scipy.sparse import csc_array
            rows, (indptr, indices, data) = self._held[name]
            self._matrices[name] = csc_array((data, indices, indptr), (rows, indptr.size - 1))
        return self._matrices[name]

    def fill(self, objective, eq_rhs, lower, upper) -> LinearProgram:
        """This program's rows with new costs, equality right-hand side
        and bounds; only those are checked."""
        return self._sharing_rows(*self._checked(objective, eq_rhs, lower, upper))

    def fill_rows(self, objective, eq_rhs, lower, upper, rows) -> list[LinearProgram]:
        """``fill`` for each of ``rows`` of stacked (B, m) equality right-hand
        sides and (B, n) bounds, with shared (n,) costs.  The stacked arrays are
        checked in one pass and kept, not copied: they become read-only.  Costs
        that are the read-only array this program checked last are not checked again."""
        cost, eq_rhs, lower, upper = self._checked(objective, eq_rhs, lower, upper,
                                                   len(eq_rhs), self._checked_cost)
        if not cost.flags.writeable:
            self._checked_cost = cost
        for vector in (eq_rhs, lower, upper):
            vector.flags.writeable = False
        return [self._sharing_rows(cost, eq_rhs[i], lower[i], upper[i]) for i in rows]

    def _sharing_rows(self, objective, eq_rhs, lower, upper) -> LinearProgram:
        """This program's rows with the given vectors, taken as they are."""
        program = object.__new__(type(self))
        program.__dict__.update(self.__dict__, objective=objective, eq_rhs=eq_rhs,
                                lower=lower, upper=upper)
        return program

    def _checked(self, objective, eq_rhs, lower, upper, rows: int | None = None,
                 checked_cost=None) -> tuple:
        """The costs, equality right-hand side and bounds, converted and
        checked: one program's, as copies, or given ``rows``, those of a
        stack of that many, each vector (rows, k), as they are where they
        are float.  The costs are (n,), and not checked again where they
        are ``checked_cost``."""
        m, n = self._held["eq"][0], self.csc[0].size - 1
        lead, take = ((), np.array) if rows is None else ((rows,), np.asarray)
        shape = lead + (n,)
        if checked_cost is None or objective is not checked_cost:
            objective = np.atleast_1d(np.asarray(objective, dtype=float))
            if objective.shape != (n,):
                raise ConfigurationError(f"objective has {objective.shape}, rows have {n} columns")
            if not np.isfinite(objective).all():
                raise ConfigurationError("objective contains NaN/Inf")
        eq_rhs = _rhs(eq_rhs, lead + (m,), "equality", copy=rows is None)
        lower = np.full(shape, -np.inf) if lower is None else take(lower, dtype=float)
        upper = np.full(shape, np.inf) if upper is None else take(upper, dtype=float)
        if lower.shape != shape or upper.shape != shape:
            raise ConfigurationError("bound vectors must match the variable count")
        nonempty = lower <= upper + FEAS_TOL  # False at a NaN too
        if np.count_nonzero(nonempty) != nonempty.size:
            at = np.unravel_index(np.argmin(nonempty), nonempty.shape)
            raise ConfigurationError(f"NaN or empty bound interval on variable {at[-1]}: "
                                     f"[{lower[at]}, {upper[at]}]")
        return objective, eq_rhs, lower, upper

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        """The stacked rows [-ineq; eq] times the point ``x``, as a new array."""
        rows, cols = self._entries  # bincount of no entries gives int zeros, hence astype
        size = self._held["ineq"][0] + self._held["eq"][0]
        return np.bincount(rows, self.csc[2] * x[cols], size).astype(float, copy=False)


@dataclass
class LpSolution:
    status: str
    values: np.ndarray | None
    objective: float
    iterations: int = 0  # simplex iterations the solver reports

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


_CORE = "scipy.optimize._highspy._core"


@functools.cache
def _load_highs():
    """scipy's bundled HiGHS binding, or None where this scipy lacks it or
    its infinity is not inf (bounds go to it unmapped); loaded on first use,
    from its file (``_core_from_file``), or else by importing it."""
    try:
        core = sys.modules.get(_CORE) or _core_from_file()
    except (AttributeError, ImportError, OSError):  # no scipy or file, or a file that won't load
        try:
            from scipy.optimize._highspy import _core as core
        except ImportError:
            return None
    needed = ("_Highs", "HighsLp", "HighsOptions", "HighsModelStatus", "HighsStatus",
              "HighsDebugLevel", "MatrixFormat", "simplex_constants", "kHighsInf")
    usable = all(hasattr(core, name) for name in needed) and core.kHighsInf == np.inf
    return core if usable else None


def _core_from_file():
    """The binding's extension module, loaded from its file without running
    ``scipy/optimize/__init__.py`` and left out of ``sys.modules``: a later import
    takes it from the extension cache and sets it on its package, as usual."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    extension = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(os.path.join(scipy_dir, "optimize", "_highspy"),
                                          extension).find_spec(_CORE)
    module = importlib.util.module_from_spec(spec)  # refuses the None of a missing file
    spec.loader.exec_module(module)
    return module


# linprog's acceptance tolerance for HiGHS points: sqrt(tol) * 10, tol = 1e-9
_ACCEPT_TOL = np.sqrt(1e-9) * 10


def solve(program: LinearProgram, model: Model | None = None) -> LpSolution:
    """Solve the program; see the module docstring.  With a ``model``
    built for the program's rows, start from that model's last basis."""
    if model is not None and _load_highs() is not None:
        solution = model.warm_solve(program)
        if solution is not None:
            return solution
    return _solve_linprog(program)


class Model:
    """One persistent HiGHS model of a template's rows.

    The first ``warm_solve`` loads the whole program; each later one
    pushes the costs if they differ from the model's (not compared where
    they are the read-only array it took last), and the column bounds and
    equality right-hand sides that differ, and runs the simplex from the
    basis the previous solve left; its first starts from ``first_basis[0]``
    where a sibling left one there (cold where HiGHS refuses it), else
    cold.  Presolve is off, because presolve discards that basis.  A run that
    does not end optimal, or whose point fails linprog's checks, clears
    the basis and counts in ``cold_retries``; ``solve`` then answers
    from linprog.  A model is not shared: its answers depend on the
    sequence of programs it has solved.
    """

    def __init__(self, template: LinearProgram):
        self._rows = template.csc
        self.cold_retries = 0
        self._highs = None
        self._cols = np.arange(template.n_vars, dtype=np.int32)
        self._eq_row0 = template.ineq_rhs.size
        # the costs, bounds and equality right-hand side HiGHS holds: each the
        # program's read-only array itself, else a copy
        self._cost = self._lower = self._upper = self._eq_rhs = None
        # None, or one list for sibling models of one template: the first of them to
        # solve a window leaves that optimal basis in it, and each later first load uses it
        self.first_basis = None

    def warm_solve(self, program: LinearProgram) -> LpSolution | None:
        """The optimal solution from the retained basis, or None where
        the warm run gives no accepted optimum."""
        if program.csc is not self._rows:
            raise ConfigurationError("the program's rows are not this model's")
        h = _load_highs()
        vectors = cost, lower, upper, eq_rhs = (program.objective, program.lower, program.upper,
                                                program.eq_rhs)
        if self._highs is None:
            highs = _SPARE.pop() if _SPARE else h._Highs()
            highs.passOptions(_highs_options())
            if highs.passModel(_highs_lp(program)) == h.HighsStatus.kError:
                _spare(highs)
                self.cold_retries += 1
                return None
            if self.first_basis:
                highs.setBasis(self.first_basis[0])  # refused (kError): the run starts cold
            self._highs = highs
            weakref.finalize(self, _spare, highs).atexit = False
        else:
            highs = self._highs
            # the read-only array HiGHS took last needs no comparing
            if cost is not self._cost and not np.array_equal(cost, self._cost):
                highs.changeColsCost(self._cols.size, self._cols, cost)
            cols = ((lower != self._lower) | (upper != self._upper)).nonzero()[0]
            if cols.size:
                highs.changeColsBounds(cols.size, self._cols[cols], lower[cols], upper[cols])
            rows = (eq_rhs != self._eq_rhs).nonzero()[0]
            if rows.size:
                values = eq_rhs[rows].tolist()
                for _ in map(highs.changeRowBounds, (rows + self._eq_row0).tolist(), values, values):
                    pass
        self._cost, self._lower, self._upper, self._eq_rhs = [
            v if not v.flags.writeable else v.copy() for v in vectors]
        highs.run()
        if highs.getModelStatus() == h.HighsModelStatus.kOptimal:
            solution = _checked_point(highs, program)
            if solution is not None:
                if self.first_basis == []:
                    self.first_basis.append(highs.getBasis())  # a copy
                return solution
        highs.clearSolver()
        self.cold_retries += 1
        return None


# Cleared HiGHS objects of freed models, for new models to take: a scheduler bank
# holds one model per scheduler at once, and allocating every bank's afresh
# fragments the heap (on desk, peak RSS grows by about 1.5 MB over a few days).
_SPARE: list = []


def _spare(highs) -> None:
    highs.clear()  # options, model, basis and solution: as constructed
    _SPARE.append(highs)


def _highs_lp(program: LinearProgram):
    """linprog's model: the >= rows as -A x <= -b, then the equality rows."""
    h = _load_highs()
    n = program.n_vars
    mi = program.ineq_rhs.size
    rhs = np.concatenate((-program.ineq_rhs, program.eq_rhs))
    lhs = np.concatenate((np.full(mi, -np.inf), program.eq_rhs))
    indptr, indices, data = program.csc
    lp = h.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = rhs.size
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_ = program.objective
    lp.col_lower_ = program.lower
    lp.col_upper_ = program.upper
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data
    return lp


def _checked_point(highs, program: LinearProgram) -> LpSolution | None:
    """An optimal run's solution, or None where its point fails linprog's
    _check_result: a NaN objective, or bound, slack and equality residuals.
    Only the point is read; its row activity comes from the program's rows."""
    x = np.fromiter(highs.getSolution().col_value, float, program.n_vars)
    fun = highs.getObjectiveValue()
    mi = program.ineq_rhs.size
    residual = program.row_activity(x)
    residual[:mi] += program.ineq_rhs  # the slack of each >= row, negated
    eq = residual[mi:]
    np.abs(np.subtract(program.eq_rhs, eq, out=eq), out=eq)
    # each test fails on a NaN, as linprog's does
    inside = (x >= program.lower - _ACCEPT_TOL) & (x <= program.upper + _ACCEPT_TOL)
    if not (
        fun == fun
        and np.count_nonzero(inside) == inside.size
        and np.count_nonzero(residual <= _ACCEPT_TOL) == residual.size
    ):
        return None
    iterations = highs.getInfoValue("simplex_iteration_count")[1]
    return LpSolution("optimal", x, float(fun), int(iterations))


def _highs_options():
    """linprog's HiGHS options with presolve off: dual simplex, no output."""
    h = _load_highs()
    opts = h.HighsOptions()
    opts.presolve = "off"
    opts.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    return opts


def _solve_linprog(program: LinearProgram) -> LpSolution:
    import scipy.optimize
    mi, me = program.ineq_rhs.size, program.eq_rhs.size
    res = scipy.optimize.linprog(
        program.objective,
        A_ub=-program.ineq_matrix if mi else None,
        b_ub=-program.ineq_rhs if mi else None,
        A_eq=program.eq_matrix if me else None,
        b_eq=program.eq_rhs if me else None,
        bounds=np.column_stack((program.lower, program.upper)),
        method="highs",
    )
    iterations = int(res.nit or 0)
    if res.status == 0:
        return LpSolution("optimal", np.asarray(res.x, dtype=float), float(res.fun), iterations)
    if res.status == 2:
        return LpSolution("infeasible", None, float("nan"), iterations)
    if res.status == 3:
        return LpSolution("unbounded", None, float("-inf"), iterations)
    raise SolverError(f"external solver failed: {res.message}")
