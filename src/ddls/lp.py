"""Continuous linear programming through HiGHS.

min c'x  s.t.  A_eq x = b_eq,  A_ge x >= b_ge,  lo <= x <= hi

``solve`` calls scipy's bundled HiGHS binding
(``scipy.optimize._highspy._core``) directly, with exactly the model,
options and acceptance checks of ``scipy.optimize.linprog(method="highs")``,
so the two give the same status, point and objective;
``tests/test_lp_direct.py`` checks that over every window of a desk day.
The call skips linprog's input cleaning and re-conversion, and reuses
one sparse copy of a read-only constraint matrix pair across solves.
Where this scipy lacks the binding (checked once at import), ``solve``
falls back to linprog.  Both paths are deterministic.  Bound intervals
are accepted as nonempty within FEAS_TOL (1e-7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.sparse import csc_array

from .errors import ConfigurationError, SolverError

FEAS_TOL = 1e-7


def _as_matrix(m, rhs, n, label):
    if m is None:
        return np.zeros((0, n)), np.zeros(0)
    m = np.atleast_2d(np.asarray(m, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if m.size == 0:
        return np.zeros((0, n)), np.zeros(0)
    if m.shape[1] != n or m.shape[0] != rhs.size:
        raise ConfigurationError(
            f"{label} shapes inconsistent: matrix {m.shape}, rhs {rhs.shape}, n={n}"
        )
    if not np.all(np.isfinite(m)) or not np.all(np.isfinite(rhs)):
        raise ConfigurationError(f"{label} contains NaN/Inf")
    return m, rhs


@dataclass
class LinearProgram:
    """Dense LP data; inequality rows are >= constraints."""

    objective: np.ndarray
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = self.objective.size
        if not np.all(np.isfinite(self.objective)):
            raise ConfigurationError("objective contains NaN/Inf")
        self.eq_matrix, self.eq_rhs = _as_matrix(self.eq_matrix, self.eq_rhs, n, "equality")
        self.ineq_matrix, self.ineq_rhs = _as_matrix(
            self.ineq_matrix, self.ineq_rhs, n, "inequality"
        )
        self.lower = (
            np.full(n, -np.inf) if self.lower is None
            else np.asarray(self.lower, dtype=float).copy()
        )
        self.upper = (
            np.full(n, np.inf) if self.upper is None
            else np.asarray(self.upper, dtype=float).copy()
        )
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ConfigurationError("bound vectors must match the variable count")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ConfigurationError("bounds contain NaN")
        if (self.lower > self.upper + FEAS_TOL).any():
            j = int(np.argmax(self.lower - self.upper))
            raise ConfigurationError(
                f"empty bound interval on variable {j}: [{self.lower[j]}, {self.upper[j]}]"
            )

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass
class LpSolution:
    status: str
    values: np.ndarray | None
    objective: float
    iterations: int = 0  # simplex iterations the solver reports

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _load_highs():
    """scipy's bundled HiGHS binding, or None where this scipy lacks it."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    needed = ("_Highs", "HighsLp", "HighsOptions", "HighsModelStatus", "HighsStatus",
              "HighsDebugLevel", "MatrixFormat", "simplex_constants", "kHighsInf")
    return _core if all(hasattr(_core, name) for name in needed) else None


_HIGHS = _load_highs()

# linprog's acceptance tolerance for HiGHS points: sqrt(tol) * 10, tol = 1e-9
_ACCEPT_TOL = np.sqrt(1e-9) * 10

# (id(eq), id(ineq)) -> (eq, ineq, (indptr, indices, data)); the entry
# holds both arrays, so their ids stay unique while it lives
_CSC_CACHE: dict = {}
_CSC_CACHE_SIZE = 32


def solve(program: LinearProgram) -> LpSolution:
    """Solve the program; see the module docstring."""
    if _HIGHS is None:
        return _solve_linprog(program)
    h = _HIGHS
    n = program.n_vars
    mi = program.ineq_matrix.shape[0]
    # linprog's layout: the >= rows as -A x <= -b, then the equality rows
    rhs = np.concatenate((-program.ineq_rhs, program.eq_rhs))
    lhs = np.concatenate((np.full(mi, -np.inf), program.eq_rhs))
    indptr, indices, data = _constraint_csc(program.eq_matrix, program.ineq_matrix)

    lp = h.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = rhs.size
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_ = program.objective
    lp.col_lower_ = _highs_inf(program.lower)
    lp.col_upper_ = _highs_inf(program.upper)
    lp.row_lower_ = _highs_inf(lhs)
    lp.row_upper_ = _highs_inf(rhs)
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data

    highs = h._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(lp) == h.HighsStatus.kError:
        model_status = h.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    info = highs.getInfo()
    iterations = int(info.simplex_iteration_count)
    if model_status in (h.HighsModelStatus.kInfeasible, h.HighsModelStatus.kModelError):
        return LpSolution("infeasible", None, float("nan"), iterations)
    if model_status == h.HighsModelStatus.kUnbounded:
        return LpSolution("unbounded", None, float("-inf"), iterations)
    if model_status != h.HighsModelStatus.kOptimal:
        raise SolverError(
            f"external solver failed: HiGHS status {highs.modelStatusToString(model_status)}"
        )
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    # linprog's _check_result: bound, slack and equality residuals
    residual = rhs - np.array(solution.row_value)
    if (
        np.isnan(x).any() or np.isnan(fun) or np.isnan(residual).any()
        or not np.all((x >= program.lower - _ACCEPT_TOL) & (x <= program.upper + _ACCEPT_TOL))
        or (residual[:mi] < -_ACCEPT_TOL).any()
        or (np.abs(residual[mi:]) > _ACCEPT_TOL).any()
    ):
        raise SolverError(
            f"external solver failed: HiGHS point violates the constraints by more "
            f"than {_ACCEPT_TOL:.2e}"
        )
    return LpSolution("optimal", x, float(fun), iterations)


def _highs_inf(values: np.ndarray) -> np.ndarray:
    """Map +-inf to HiGHS's infinity, as linprog does."""
    return np.where(np.isinf(values), np.copysign(_HIGHS.kHighsInf, values), values)


def _highs_options():
    """linprog's HiGHS options: presolve on, dual simplex, no output."""
    h = _HIGHS
    opts = h.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    return opts


_OPTIONS = None if _HIGHS is None else _highs_options()


def _constraint_csc(eq: np.ndarray, ineq: np.ndarray):
    """CSC arrays of linprog's stacked matrix [-ineq; eq].

    Read-only pairs (the scheduler's cached window rows) are taken as
    immutable and converted once; any other pair is converted per call.
    """
    if eq.flags.writeable or ineq.flags.writeable:
        return _to_csc(eq, ineq)
    key = (id(eq), id(ineq))
    entry = _CSC_CACHE.get(key)
    if entry is None:
        if len(_CSC_CACHE) >= _CSC_CACHE_SIZE:
            del _CSC_CACHE[next(iter(_CSC_CACHE))]
        entry = _CSC_CACHE[key] = (eq, ineq, _to_csc(eq, ineq))
    return entry[2]


def _to_csc(eq, ineq):
    matrix = csc_array(np.vstack((-ineq, eq)))
    return matrix.indptr, matrix.indices, matrix.data


def _solve_linprog(program: LinearProgram) -> LpSolution:
    bounds = [
        (None if lo == -np.inf else lo, None if hi == np.inf else hi)
        for lo, hi in zip(program.lower, program.upper)
    ]
    mi = program.ineq_matrix.shape[0]
    me = program.eq_matrix.shape[0]
    res = scipy.optimize.linprog(
        program.objective,
        A_ub=-program.ineq_matrix if mi else None,
        b_ub=-program.ineq_rhs if mi else None,
        A_eq=program.eq_matrix if me else None,
        b_eq=program.eq_rhs if me else None,
        bounds=bounds,
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
