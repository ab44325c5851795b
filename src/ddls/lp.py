"""Continuous linear programming through HiGHS.

min c'x  s.t.  A_eq x = b_eq,  A_ge x >= b_ge,  lo <= x <= hi

``solve`` has two paths.  Given a ``Model``, it re-solves one persistent
HiGHS model through scipy's bundled binding
(``scipy.optimize._highspy._core``) from the basis its last solve left
(presolve off), pushing only the data that changed since, and accepts
the point with ``scipy.optimize.linprog``'s checks.  It reads the point
once, its columns only: the row activity the checks need comes from the
program's own rows.  Everything else goes to ``linprog(method="highs")``,
the reference: a call without a model, a warm run that does not end
optimal, and a scipy that lacks the binding or whose binding's infinity
is not inf, since bounds go to HiGHS as they are (loaded and checked on
first use: importing this module loads no scipy).  The warm path matches
linprog's status and objective, not its point: a window LP often has
several optimal vertices, and a warm start may end at another one;
``tests/test_lp_direct.py`` checks that over every window of a desk day.
A ``LinearProgram`` freezes its rows when it is built: it takes dense or
sparse matrices, checks them, keeps them only as read-only CSC copies
(linprog gets these) and stacks them once into the CSC a model loads;
``LinearProgram.fill`` reuses those rows for new costs, right-hand side
and bounds, checking only the new vectors, and ``fill_rows`` does the
same for a stack of windows, checked together in one pass.  Both paths are deterministic.  Bound intervals are accepted
as nonempty within FEAS_TOL (1e-7).
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError

FEAS_TOL = 1e-7


def _rows(m, n: int, label):
    """A read-only CSC copy of a dense or sparse constraint matrix over
    ``n`` variables, held as a dense one would be: sorted, with no
    duplicate or zero entry, and indexed in int32 (HiGHS's index type)."""
    from scipy import sparse
    if not sparse.issparse(m):
        m = np.zeros((0, n)) if m is None or np.size(m) == 0 else np.atleast_2d(
            np.asarray(m, dtype=float))
    m = sparse.csc_array(m, dtype=float, copy=True)
    if m.shape[1] != n:
        raise ConfigurationError(f"{label} matrix has shape {m.shape}, expected {n} columns")
    if not np.isfinite(m.data).all():
        raise ConfigurationError(f"{label} contains NaN/Inf")
    m.sum_duplicates()
    m.eliminate_zeros()
    m.indptr, m.indices = (a.astype(np.int32, copy=False) for a in (m.indptr, m.indices))
    for a in (m.indptr, m.indices, m.data):
        a.flags.writeable = False
    return m


def _rhs(rhs, shape: tuple, label) -> np.ndarray:
    """A float copy of a right-hand side of the given shape, rows last."""
    rhs = np.zeros(shape) if rhs is None and not shape[-1] else np.array(rhs, float, ndmin=1)
    if rhs.shape != shape:
        raise ConfigurationError(f"{label} shapes inconsistent: rows {shape}, rhs {rhs.shape}")
    if not np.isfinite(rhs).all():
        raise ConfigurationError(f"{label} contains NaN/Inf")
    return rhs


@dataclass
class LinearProgram:
    """LP data; inequality rows are >= constraints.

    The matrices may be dense or scipy-sparse.  The rows (both matrices
    and ``ineq_rhs``) are checked and held only sparse, as read-only CSC
    copies (``_rows``), and stacked into linprog's CSC ``[-ineq; eq]``
    once, when the program is built.  ``fill`` gives programs that share
    them and differ only in the costs, the equality right-hand side and
    the bounds.
    """

    objective: np.ndarray
    eq_matrix: object = None  # dense or sparse in; a read-only csc_array once built
    eq_rhs: np.ndarray | None = None
    ineq_matrix: object = None
    ineq_rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    csc: tuple = field(init=False, repr=False)  # (indptr, indices, data), read-only

    def __post_init__(self):
        n = np.size(self.objective)
        self.eq_matrix = _rows(self.eq_matrix, n, "equality")
        self.ineq_matrix = _rows(self.ineq_matrix, n, "inequality")
        self.ineq_rhs = _rhs(self.ineq_rhs, self.ineq_matrix.shape[:1], "inequality")
        from scipy.sparse import vstack
        stacked = vstack((-self.ineq_matrix, self.eq_matrix), format="csc")
        self.csc = (stacked.indptr, stacked.indices, stacked.data)
        # each stored entry's row and column, for ``row_activity``
        self._entries = (stacked.indices.astype(np.intp),
                         np.repeat(np.arange(n), np.diff(stacked.indptr)))
        for a in (self.ineq_rhs, *self.csc, *self._entries):
            a.flags.writeable = False
        self._check_vectors()

    def fill(self, objective, eq_rhs, lower, upper) -> LinearProgram:
        """This program's rows with new costs, equality right-hand side
        and bounds; only those are checked."""
        program = self._sharing_rows(objective, eq_rhs, lower, upper)
        program._check_vectors()
        return program

    def fill_rows(self, objective, eq_rhs, lower, upper) -> list[LinearProgram]:
        """``fill`` for every row of the stacked (B, m) right-hand sides
        and (B, n) bounds, with (n,) costs shared by all or (B, n) costs;
        the vectors are checked together, in one pass, and the new
        right-hand sides and bounds are read-only."""
        stacked = self._sharing_rows(objective, eq_rhs, lower, upper)
        stacked._check_vectors(len(eq_rhs))
        for vector in (stacked.eq_rhs, stacked.lower, stacked.upper):
            vector.flags.writeable = False
        cost = stacked.objective
        return [self._sharing_rows(*vectors) for vectors in zip(
            cost if cost.ndim == 2 else itertools.repeat(cost),
            stacked.eq_rhs, stacked.lower, stacked.upper)]

    def _sharing_rows(self, objective, eq_rhs, lower, upper) -> LinearProgram:
        """This program's rows with the given vectors, taken as they are."""
        program = object.__new__(type(self))
        program.__dict__.update(self.__dict__, objective=objective, eq_rhs=eq_rhs,
                                lower=lower, upper=upper)
        return program

    def _check_vectors(self, rows: int | None = None):
        """Convert and check the costs, equality right-hand side and
        bounds: one program's or, given ``rows``, those of a stack of
        that many, each vector (rows, k) and the costs (n,) or (rows, n)."""
        m, n = self.eq_matrix.shape
        lead = () if rows is None else (rows,)
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        if self.objective.shape not in ((n,), lead + (n,)):
            raise ConfigurationError(f"objective has {self.objective.shape}, rows have {n} columns")
        if not np.isfinite(self.objective).all():
            raise ConfigurationError("objective contains NaN/Inf")
        self.eq_rhs = _rhs(self.eq_rhs, lead + (m,), "equality")
        self.lower = np.full(lead + (n,), -np.inf) if self.lower is None else np.array(
            self.lower, dtype=float)
        self.upper = np.full(lead + (n,), np.inf) if self.upper is None else np.array(
            self.upper, dtype=float)
        if self.lower.shape != lead + (n,) or self.upper.shape != lead + (n,):
            raise ConfigurationError("bound vectors must match the variable count")
        nonempty = self.lower <= self.upper + FEAS_TOL  # False at a NaN too
        if not nonempty.all():
            at = np.unravel_index(np.argmin(nonempty), nonempty.shape)
            raise ConfigurationError(f"NaN or empty bound interval on variable {at[-1]}: "
                                     f"[{self.lower[at]}, {self.upper[at]}]")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        """The stacked rows [-ineq; eq] times the point ``x``, as a new array."""
        rows, cols = self._entries  # bincount of no entries gives int zeros, hence astype
        size = self.ineq_matrix.shape[0] + self.eq_matrix.shape[0]
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


@functools.cache
def _load_highs():
    """scipy's bundled HiGHS binding, or None where this scipy lacks it or
    its infinity is not inf (bounds go to it unmapped); loaded on first use."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    needed = ("_Highs", "HighsLp", "HighsOptions", "HighsModelStatus", "HighsStatus",
              "HighsDebugLevel", "MatrixFormat", "simplex_constants", "kHighsInf")
    usable = all(hasattr(_core, name) for name in needed) and _core.kHighsInf == np.inf
    return _core if usable else None


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
    basis the previous solve left.
    Presolve is off, because presolve discards that basis.  A run that
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

    def warm_solve(self, program: LinearProgram) -> LpSolution | None:
        """The optimal solution from the retained basis, or None where
        the warm run gives no accepted optimum."""
        if program.csc is not self._rows:
            raise ConfigurationError("the program's rows are not this model's")
        h = _load_highs()
        if self._highs is None:
            highs = _SPARE.pop() if _SPARE else h._Highs()
            highs.passOptions(_highs_options())
            if highs.passModel(_highs_lp(program)) == h.HighsStatus.kError:
                _spare(highs)
                self.cold_retries += 1
                return None
            self._highs = highs
            weakref.finalize(self, _spare, highs).atexit = False
        else:
            highs = self._highs
            cost = program.objective  # the read-only array HiGHS took last needs no comparing
            if cost is not self._cost and not np.array_equal(cost, self._cost):
                highs.changeColsCost(self._cols.size, self._cols, cost)
            cols = ((program.lower != self._lower) | (program.upper != self._upper)).nonzero()[0]
            if cols.size:
                highs.changeColsBounds(cols.size, self._cols[cols], program.lower[cols],
                                       program.upper[cols])
            rows = (program.eq_rhs != self._eq_rhs).nonzero()[0]
            if rows.size:
                values = program.eq_rhs[rows].tolist()
                for _ in map(highs.changeRowBounds, (rows + self._eq_row0).tolist(), values, values):
                    pass
        self._cost, self._lower, self._upper, self._eq_rhs = [
            v if not v.flags.writeable else v.copy()
            for v in (program.objective, program.lower, program.upper, program.eq_rhs)]
        highs.run()
        if highs.getModelStatus() == h.HighsModelStatus.kOptimal:
            solution = _checked_point(highs, program)
            if solution is not None:
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
    mi = program.ineq_matrix.shape[0]
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
    if not (
        fun == fun
        and ((x >= program.lower - _ACCEPT_TOL) & (x <= program.upper + _ACCEPT_TOL)).all()
        and (residual <= _ACCEPT_TOL).all()
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
    mi = program.ineq_matrix.shape[0]
    me = program.eq_matrix.shape[0]
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
