"""Continuous linear programming behind a small, engine-agnostic contract.

min c'x  s.t.  A_eq x = b_eq,  A_ge x >= b_ge,  lo <= x <= hi

Two engines solve the same ``LinearProgram``:

* ``simplex`` -- the reference implementation: a dense bounded-variable
  two-phase primal simplex with Dantzig pricing and a Bland's-rule
  fallback after a run of degenerate pivots, so it terminates on every
  input.  Adequate for a few hundred variables.
* ``highs`` -- HiGHS, used where solve volume matters.  It calls
  scipy's bundled binding (``scipy.optimize._highspy._core``) directly,
  with exactly the model, options and acceptance checks of
  ``scipy.optimize.linprog(method="highs")``, so the two give the same
  status, point and objective; ``tests/test_lp_direct.py`` checks that
  over every window of a desk day.  The call skips linprog's input
  cleaning and re-conversion, and reuses one sparse copy of a read-only
  constraint matrix pair across solves.  Where this scipy lacks the
  binding (checked once at import), ``highs`` falls back to linprog.

Both engines are deterministic.  Feasibility is accepted within
FEAS_TOL (1e-7); reduced costs are optimal within OPT_TOL (1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.sparse import csc_array

from .csvio import fmt_cell
from .errors import ConfigurationError, SolverError

FEAS_TOL = 1e-7
OPT_TOL = 1e-9

_NB_LO, _NB_HI, _NB_FREE, _BASIC = 0, 1, 2, 3


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
    iterations: int = 0  # simplex iterations the engine reports

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def solve(program: LinearProgram, engine: str = "simplex",
          max_iter: int | None = None) -> LpSolution:
    """Solve the program; see module docstring for the engines."""
    if engine == "simplex":
        return _Simplex(program, max_iter).run()
    if engine == "highs":
        return _solve_highs(program)
    raise ConfigurationError(f"unknown engine {engine!r}")


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


def _solve_highs(program: LinearProgram) -> LpSolution:
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


class _Simplex:
    """Bounded-variable two-phase primal simplex on a dense tableau.

    Column order: structural variables, surplus columns for the >=
    rows, then one artificial per row.  Nonbasic variables rest at a
    bound (or at 0 when free); the tableau is kept as B^-1 A by
    Gauss-Jordan pivots.
    """

    def __init__(self, program: LinearProgram, max_iter: int | None):
        self.prog = program
        c0 = program.objective
        n = c0.size
        me = program.eq_matrix.shape[0]
        mi = program.ineq_matrix.shape[0]
        m = me + mi
        self.n, self.mi, self.m = n, mi, m

        a = np.zeros((m, n + mi))
        b = np.zeros(m)
        if me:
            a[:me, :n] = program.eq_matrix
            b[:me] = program.eq_rhs
        if mi:
            a[me:, :n] = program.ineq_matrix
            a[me:, n : n + mi] = -np.eye(mi)
            b[me:] = program.ineq_rhs

        self.lo = np.concatenate([program.lower, np.zeros(mi), np.zeros(m)])
        self.hi = np.concatenate([program.upper, np.full(mi, np.inf), np.full(m, np.inf)])
        self.n_tot = n + mi + m
        self.art = np.zeros(self.n_tot, dtype=bool)
        self.art[n + mi :] = True

        self.status = np.empty(self.n_tot, dtype=np.int8)
        self.value = np.zeros(self.n_tot)
        for j in range(n + mi):
            if np.isfinite(self.lo[j]):
                self.status[j], self.value[j] = _NB_LO, self.lo[j]
            elif np.isfinite(self.hi[j]):
                self.status[j], self.value[j] = _NB_HI, self.hi[j]
            else:
                self.status[j], self.value[j] = _NB_FREE, 0.0
        self.status[n + mi :] = _BASIC

        resid = b - a @ self.value[: n + mi]
        sign = np.where(resid >= 0, 1.0, -1.0)
        self.tab = np.zeros((m, self.n_tot))
        self.tab[:, : n + mi] = a * sign[:, None]
        self.tab[:, n + mi :] = np.eye(m)
        self.basis = np.arange(n + mi, self.n_tot)
        self.xb = np.abs(resid)
        self.max_iter = max_iter if max_iter is not None else 200 * (m + self.n_tot) + 2000
        self.iters = 0

    def run(self) -> LpSolution:
        prog = self.prog
        if self.m == 0:
            return self._solve_box()

        cost1 = np.zeros(self.n_tot)
        cost1[self.art] = 1.0
        self._run_phase(cost1)
        if self.xb[self.art[self.basis]].sum() > FEAS_TOL:
            return LpSolution("infeasible", None, float("nan"))
        self._retire_artificials()

        cost2 = np.zeros(self.n_tot)
        cost2[: self.n] = prog.objective
        flag = self._run_phase(cost2)
        if flag == "unbounded":
            return LpSolution("unbounded", None, float("-inf"))

        full = self.value.copy()
        full[self.basis] = self.xb
        x = full[: self.n]
        self._audit(x)
        return LpSolution("optimal", x, float(prog.objective @ x), self.iters)

    def _solve_box(self) -> LpSolution:
        prog = self.prog
        c = prog.objective
        x = np.zeros(self.n)
        for j in range(self.n):
            if c[j] > 0:
                if not np.isfinite(prog.lower[j]):
                    return LpSolution("unbounded", None, float("-inf"))
                x[j] = prog.lower[j]
            elif c[j] < 0:
                if not np.isfinite(prog.upper[j]):
                    return LpSolution("unbounded", None, float("-inf"))
                x[j] = prog.upper[j]
            else:
                x[j] = np.clip(0.0, prog.lower[j], prog.upper[j])
        return LpSolution("optimal", x, float(c @ x))

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        cb = cost[self.basis]
        if cb.any():
            return cost - cb @ self.tab
        return cost.copy()

    def _run_phase(self, cost: np.ndarray) -> str | None:
        z = self._reduced_costs(cost)
        fixed = np.isclose(self.lo, self.hi)
        degen_run = 0
        bland_mode = False
        while True:
            if self.iters >= self.max_iter:
                raise SolverError(f"simplex iteration limit ({self.max_iter}) exceeded")
            self.iters += 1

            nb = self.status != _BASIC
            can = nb & ~fixed & ~self.art
            viol = np.zeros(self.n_tot)
            down = can & ((self.status == _NB_LO) | (self.status == _NB_FREE))
            up = can & ((self.status == _NB_HI) | (self.status == _NB_FREE))
            viol[down] = np.maximum(viol[down], -z[down])
            viol[up] = np.maximum(viol[up], z[up])
            if bland_mode:
                idx = np.nonzero(viol > OPT_TOL)[0]
                if idx.size == 0:
                    return None
                j = int(idx[0])
            else:
                j = int(np.argmax(viol))
                if viol[j] <= OPT_TOL:
                    return None
            sigma = -1.0 if (self.status[j] == _NB_HI or
                             (self.status[j] == _NB_FREE and z[j] > 0)) else 1.0

            y = self.tab[:, j]
            span = self.hi[j] - self.lo[j]
            t_best = span if np.isfinite(span) else np.inf
            leave, target = -1, _NB_LO
            ys = sigma * y
            for i in range(self.m):
                if ys[i] > 1e-10:
                    t = max(self.xb[i] - self.lo[self.basis[i]], 0.0) / ys[i]
                    tgt = _NB_LO
                elif ys[i] < -1e-10:
                    t = max(self.hi[self.basis[i]] - self.xb[i], 0.0) / (-ys[i])
                    tgt = _NB_HI
                else:
                    continue
                take = False
                if t < t_best - 1e-12:
                    take = True
                elif t < t_best + 1e-12 and leave >= 0:
                    if bland_mode:
                        take = self.basis[i] < self.basis[leave]
                    else:
                        take = abs(ys[i]) > abs(ys[leave])
                if take:
                    t_best, leave, target = t, i, tgt
            if not np.isfinite(t_best):
                return "unbounded"

            if t_best <= 1e-10:
                degen_run += 1
                if degen_run > 2 * (self.m + self.n_tot):
                    bland_mode = True
            else:
                degen_run = 0
                bland_mode = False

            if leave < 0:
                # entering variable runs to its opposite bound; basis unchanged
                self.xb -= sigma * t_best * y
                if self.status[j] == _NB_LO:
                    self.status[j], self.value[j] = _NB_HI, self.hi[j]
                else:
                    self.status[j], self.value[j] = _NB_LO, self.lo[j]
                continue

            enter_val = self.value[j] + sigma * t_best
            self.xb -= sigma * t_best * y
            out = self.basis[leave]
            self.status[out] = target
            self.value[out] = self.lo[out] if target == _NB_LO else self.hi[out]
            self._pivot(leave, j, z)
            self.xb[leave] = enter_val

    def _pivot(self, row: int, col: int, z: np.ndarray) -> None:
        piv = self.tab[row, col]
        self.tab[row] = self.tab[row] / piv
        column = self.tab[:, col].copy()
        column[row] = 0.0
        self.tab -= np.outer(column, self.tab[row])
        z -= z[col] * self.tab[row]
        self.basis[row] = col
        self.status[col] = _BASIC

    def _retire_artificials(self) -> None:
        """Pivot zero-level artificials out of the basis where a structural
        column allows it; pin the rest (redundant rows) at zero."""
        dummy = np.zeros(self.n_tot)
        for i in range(self.m):
            if not self.art[self.basis[i]]:
                continue
            row = self.tab[i, : self.n + self.mi]
            cands = np.nonzero(
                (np.abs(row) > 1e-9) & (self.status[: self.n + self.mi] != _BASIC)
            )[0]
            out = self.basis[i]
            if cands.size:
                j = int(cands[0])
                entering_value = self.value[j]
                self._pivot(i, j, dummy)
                self.xb[i] = entering_value
                self.status[out] = _NB_LO
                self.value[out] = 0.0
        self.lo[self.art] = 0.0
        self.hi[self.art] = 0.0

    def _audit(self, x: np.ndarray) -> None:
        prog = self.prog
        if prog.eq_matrix.shape[0]:
            gap = np.abs(prog.eq_matrix @ x - prog.eq_rhs)
            if gap.max() > FEAS_TOL * (1.0 + np.abs(prog.eq_rhs).max()):
                raise SolverError(f"equality residual {gap.max():.3e} exceeds tolerance")
        if prog.ineq_matrix.shape[0]:
            slack = prog.ineq_matrix @ x - prog.ineq_rhs
            if slack.min() < -FEAS_TOL * (1.0 + np.abs(prog.ineq_rhs).max()):
                raise SolverError(f"inequality violated by {-slack.min():.3e}")
        if (x < prog.lower - FEAS_TOL).any() or (x > prog.upper + FEAS_TOL).any():
            raise SolverError("bounds violated at reported optimum")


def format_program(program: LinearProgram) -> str:
    """Canonical plain-text rendering (fixed ordering, %.9g numbers)."""

    def terms(row):
        parts = []
        for j, coef in enumerate(row):
            if coef != 0.0:
                parts.append(f"{fmt_cell(float(coef))}*x{j}")
        return " + ".join(parts) if parts else "0"

    lines = ["minimize", f"  {terms(program.objective)}", "subject to"]
    for i in range(program.eq_matrix.shape[0]):
        lines.append(
            f"  eq{i}: {terms(program.eq_matrix[i])} = {fmt_cell(float(program.eq_rhs[i]))}"
        )
    for i in range(program.ineq_matrix.shape[0]):
        lines.append(
            f"  ge{i}: {terms(program.ineq_matrix[i])} >= {fmt_cell(float(program.ineq_rhs[i]))}"
        )
    lines.append("bounds")
    for j in range(program.n_vars):
        lines.append(
            f"  {fmt_cell(float(program.lower[j]))} <= x{j} <= {fmt_cell(float(program.upper[j]))}"
        )
    return "\n".join(lines) + "\n"
