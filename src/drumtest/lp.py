"""The one entry point for the package's linear programs.

A ``LinearProgram`` holds the constraint matrix of one LP in compressed
sparse column form, built once: the inequality rows first, then the
equality rows, the order ``scipy.optimize.linprog`` stacks them in. Its row
bounds are templates that a solve fills with the right-hand sides.

``solve`` drives one HiGHS object per ``LinearProgram``, built on the LP's
first solve from its matrix, row-bound templates, variable bounds and
options and kept with it (outside the dataclass fields, so equality,
hashing, copying and pickling see only the constraints). A solve of a
cold LP, the default, clears the solver's state, so it carries no basis
from the last solve. An LP compiled with ``warm=True`` keeps HiGHS' basis
after a solve that returned status 0 or 2, and the next solve starts from
it; after any other status it clears as a cold LP does. Either way a solve
then sets the costs (unless they equal bit for bit those HiGHS holds) and
the row bounds that changed since the last solve, and runs, and reads the
solution once. That skips what scipy's ``linprog`` and ``milp`` redo on
every call (input checks, option checks and a fresh copy of the model),
and a cold solve gives the same status, message, objective and solution
bits as ``linprog(method="highs")`` with the same options. A warm solve
gives the same status as a cold one, but its objective, solution and
``max_violation`` may differ in the last bits: only the feasibility
checks, which read the status alone, are compiled warm. An LP compiled
with ``presolve=False`` is solved with HiGHS' presolve off and matches
``linprog(method="highs", options={"presolve": False})``; every other LP
gets HiGHS' defaults with console output off. Each result carries
``max_violation``, the largest amount by which its ``x`` breaks a variable
or row bound, and HiGHS' dual information: ``row_dual`` and
``dual_objective`` at an optimum, and at status 2 the Farkas ray when
HiGHS has one.

``optimal`` is the package's one rule for reading an LP's outcome: status
0 is an optimum, status 2 is proven infeasible and any other status raises
``SolverError`` with the solver's diagnostics.

The HiGHS object comes from ``scipy.optimize._highspy._core``, the pybind11
bindings that scipy's own ``milp`` and ``linprog`` run on. The module is
private to scipy and may change between releases; the installed sources
prove every method used here in scipy 1.17, the floor in ``pyproject.toml``.
This module is the only one that imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import Bounds, OptimizeResult
from scipy.optimize._highspy._core import HighsLp, HighsModelStatus, HighsStatus, \
    MatrixFormat, _Highs
from scipy.sparse import csc_array

from .errors import SolverError

# linprog's feasibility check of a reported optimum: sqrt(tol) * 10 at its
# default tol of 1e-9
_CHECK_TOL = np.sqrt(1e-9) * 10

# HiGHS' dual feasibility tolerance at its default: a smaller dual leaves
# its variable off its bounds in the dual objective, as HiGHS computes it
_DUAL_TOL = 1e-7

# the options scipy's milp sets on every solve (console output off), and
# HiGHS' value for presolve off
_HIGHS_OPTIONS = {"output_flag": False, "log_to_console": False}
_PRESOLVE_OFF = {"presolve": "off"}

# linprog's status code and message prefix per HiGHS model status
_S = HighsModelStatus
_STATUS = {_S.kNotset: (4, ""), _S.kLoadError: (4, ""), _S.kModelError: (2, ""),
           _S.kPresolveError: (4, ""), _S.kSolveError: (4, ""), _S.kPostsolveError: (4, ""),
           _S.kModelEmpty: (4, ""), _S.kObjectiveBound: (4, ""), _S.kObjectiveTarget: (4, ""),
           _S.kOptimal: (0, "Optimization terminated successfully. "),
           _S.kTimeLimit: (1, "Time limit reached. "),
           _S.kIterationLimit: (1, "Iteration limit reached. "),
           _S.kInfeasible: (2, "The problem is infeasible. "),
           _S.kUnbounded: (3, "The problem is unbounded. "),
           _S.kUnboundedOrInfeasible: (4, "The problem is unbounded or infeasible. ")}
_UNRECOGNIZED = (4, "The HiGHS status code was not recognized. ")


@dataclass(frozen=True)
class LinearProgram:
    """Constraints of one LP: ``A`` is read-only CSC with ``n_ub`` inequality
    rows (``A_ub x <= b_ub``) above the equality rows (``A_eq x = b_eq``);
    ``lower``/``upper`` are the row bounds, ``bounds`` the variable bounds;
    ``presolve`` is whether HiGHS presolves it, ``warm`` whether a solve
    starts from the basis of the last one."""

    A: csc_array
    n_ub: int
    lower: np.ndarray
    upper: np.ndarray
    bounds: Bounds
    presolve: bool = True
    warm: bool = False

    def row_bounds(self, b_ub=None, b_eq=None) -> tuple[np.ndarray, np.ndarray]:
        """The row bounds with right-hand sides filled in (the templates'
        where None), as new arrays."""
        lower, upper = self.lower.copy(), self.upper.copy()
        if b_ub is not None:
            upper[:self.n_ub] = b_ub
        if b_eq is not None:
            lower[self.n_ub:] = b_eq
            upper[self.n_ub:] = b_eq
        return lower, upper

    @cached_property
    def _model(self) -> _Model:
        """This LP's HiGHS object, built on its first solve."""
        return _Model(self)

    def __getstate__(self):
        """The fields alone: a copy or an unpickled LP builds its own HiGHS
        object on its first solve."""
        state = dict(self.__dict__)
        state.pop("_model", None)
        return state


class _Model:
    """The HiGHS object of one ``LinearProgram``, the costs and row bounds it
    holds, and whether its next solve keeps the basis HiGHS holds."""

    def __init__(self, lp: LinearProgram):
        self.highs = _Highs()
        options = _HIGHS_OPTIONS if lp.presolve else {**_HIGHS_OPTIONS, **_PRESOLVE_OFF}
        for name, value in options.items():
            self.highs.setOptionValue(name, value)
        m, n = lp.A.shape
        model = HighsLp()
        model.num_col_, model.num_row_ = n, m
        model.a_matrix_.num_col_, model.a_matrix_.num_row_ = n, m
        model.a_matrix_.format_ = MatrixFormat.kColwise
        model.a_matrix_.start_ = lp.A.indptr
        model.a_matrix_.index_ = lp.A.indices
        model.a_matrix_.value_ = lp.A.data
        model.col_cost_ = np.zeros(n)
        model.col_lower_, model.col_upper_ = lp.bounds.lb, lp.bounds.ub
        model.row_lower_, model.row_upper_ = lp.lower, lp.upper
        self.loaded = self.highs.passModel(model) != HighsStatus.kError
        self.columns = np.arange(n, dtype=np.int32)
        self.cost = np.zeros(n)
        self.lower, self.upper = lp.lower, lp.upper
        self.keep_basis = False

    def run(self, c, lower, upper) -> tuple[HighsModelStatus, bool]:
        """Solve with costs ``c`` and row bounds ``lower``/``upper``, from
        the basis HiGHS holds when ``keep_basis`` is set and from a cold
        start otherwise: HiGHS' model status, and whether HiGHS took the
        model and ran without error (a model or row bound it refuses reads
        ``kModelError``). Costs equal bit for bit to those HiGHS holds are
        not passed again; the rows whose bounds changed are passed as
        Python floats."""
        highs = self.highs
        if not self.keep_basis:
            highs.clearSolver()
        if c.tobytes() != self.cost.tobytes():
            highs.changeColsCost(len(c), self.columns, c)
            self.cost = c.copy()
        changed = np.flatnonzero((lower != self.lower) | (upper != self.upper))
        self.lower, self.upper = lower, upper
        if not self.loaded or any(highs.changeRowBounds(i, lo, up) == HighsStatus.kError
                                  for i, lo, up in zip(changed.tolist(), lower[changed].tolist(),
                                                       upper[changed].tolist())):
            return HighsModelStatus.kModelError, False
        ran = highs.run() != HighsStatus.kError
        return highs.getModelStatus(), ran


def compile_lp(A_ub=None, A_eq=None, bounds: Bounds | None = None,
               presolve: bool = True, warm: bool = False) -> LinearProgram:
    """Build the LP over ``A_ub`` and ``A_eq`` (dense, either may be None)
    with zero right-hand sides; ``bounds`` defaults to x >= 0 as in
    ``linprog``. ``presolve=False`` switches HiGHS' presolve off for every
    solve of it; ``warm=True`` starts each solve from the basis of the last
    one that returned status 0 or 2."""
    blocks = [np.asarray(a, dtype=float) for a in (A_ub, A_eq) if a is not None]
    n = blocks[0].shape[1]
    n_ub = 0 if A_ub is None else blocks[0].shape[0]
    A = csc_array(np.vstack(blocks))
    for a in (A.data, A.indices, A.indptr):
        a.flags.writeable = False
    lower = np.zeros(A.shape[0])
    lower[:n_ub] = -np.inf
    if bounds is None:
        bounds = Bounds(0.0, np.inf)
    lb = np.broadcast_to(np.asarray(bounds.lb, dtype=float), n).copy()
    ub = np.broadcast_to(np.asarray(bounds.ub, dtype=float), n).copy()
    upper = np.zeros(A.shape[0])
    for a in (lower, upper, lb, ub):
        a.flags.writeable = False
    return LinearProgram(A, n_ub, lower, upper, Bounds(lb, ub), presolve, warm)


def solve(lp: LinearProgram, c, b_ub=None, b_eq=None) -> OptimizeResult:
    """Minimise ``c @ x`` over ``lp`` with the given right-hand sides (the
    templates where None). The result carries ``status``, ``message``,
    ``fun`` and ``x`` with ``linprog``'s meanings, including its demotion
    of an optimum that violates the constraints to status 4, and
    ``max_violation`` (None without an ``x``). At an optimum it also
    carries ``row_dual``, HiGHS' row duals (the sensitivity of ``fun`` to
    each row bound), and ``dual_objective``, the dual's value at them; at
    status 2, ``dual_ray`` is HiGHS' Farkas ray y when it has one: over
    rows ``lower <= A x <= upper``, ``y @ A <= 0`` on the columns that
    may be positive and ``y`` times the row bound it points at (``lower``
    where y > 0, ``upper`` where y < 0) sums to a positive margin. Each
    of the three is None otherwise. A warm LP's next solve keeps HiGHS'
    basis when this one returns status 0 or 2, read after the demotion."""
    c = np.asarray(c, dtype=float)
    if c.shape != (lp.A.shape[1],) or not np.isfinite(c).all():
        raise ValueError("`c` must be a one-dimensional array of finite numbers, "
                         "one per column of the LP.")
    lower, upper = lp.row_bounds(b_ub, b_eq)
    model = lp._model
    highs_status, ran = model.run(c, lower, upper)
    highs = model.highs
    res = OptimizeResult(x=None, fun=None, max_violation=None, row_dual=None,
                         dual_objective=None, dual_ray=None)
    if not ran:
        # a failed solve leaves nothing to reuse: the next one starts afresh
        del lp.__dict__["_model"]
        highs_message = highs.modelStatusToString(highs_status)
    elif highs_status == HighsModelStatus.kOptimal:
        # the bindings hand vectors over as lists of floats
        solution = highs.getSolution()
        res.x, res.row_dual, col_dual = (np.array(v, dtype=float) for v in (
            solution.col_value, solution.row_dual, solution.col_dual))
        # HiGHS' info field objective_function_value, without copying the info
        res.fun = highs.getObjectiveValue()
        row = lp.A @ res.x
        lb, ub = lp.bounds.lb, lp.bounds.ub
        res.dual_objective = (_dual_value(col_dual, res.x, lb, ub)
                              + _dual_value(res.row_dual, row, lower, upper))
        res.max_violation = float(np.max(np.concatenate([lb - res.x, res.x - ub, row - upper,
                                                         lower - row, [0.0]])))
        highs_message = highs.modelStatusToString(highs_status)
    else:
        primal = highs.getInfo().primal_solution_status
        highs_message = (f"model_status is {highs.modelStatusToString(highs_status)}; "
                         f"primal_status is {highs.solutionStatusToString(primal)}")
        if highs_status == HighsModelStatus.kInfeasible:
            _, has_ray, ray = highs.getDualRay()
            res.dual_ray = ray if has_ray else None
    status, prefix = _STATUS.get(highs_status, _UNRECOGNIZED)
    res.status, res.success = status, status == 0
    res.message = f"{prefix}(HiGHS Status {int(highs_status)}: {highs_message})"
    # linprog's check of a reported optimum; a NaN violation fails it too
    if res.status == 0 and not res.max_violation <= _CHECK_TOL:
        res.status = 4
        res.message = ("The solution does not satisfy the constraints within the "
                       f"required tolerance of {_CHECK_TOL:.2E}, yet no errors were "
                       "raised and there is no certificate of infeasibility or "
                       "unboundedness.")
        res.success = False
    model.keep_basis = lp.warm and res.status in (0, 2)
    return res


def _dual_value(dual, value, lower, upper) -> float:
    """The dual objective's share of some columns or rows, as HiGHS computes
    it: each counts its dual times the bound that dual makes active (the
    lower for a positive dual, the upper for a negative one, the common
    value of equal bounds), or times its value where the dual is within
    HiGHS' tolerance of zero. The bindings' ``getDualObjectiveValue`` takes
    its output argument by value, so it cannot return the number itself."""
    active = np.where(dual >= _DUAL_TOL, lower, np.where(dual <= -_DUAL_TOL, upper, value))
    return float(np.where(lower == upper, lower, active) @ dual)


def solver_diagnostics(res) -> dict:
    """Status, message and largest bound or row violation of one LP."""
    return {"status": int(res.status), "message": res.message,
            "max_violation": res.get("max_violation")}


def optimal(res, what: str, **extra) -> bool:
    """Whether the LP result ``res`` is an optimum (status 0) rather than
    proven infeasible (status 2). Any other status raises SolverError
    naming the ``what`` LP, with the result's ``solver_diagnostics`` and
    the ``extra`` diagnostics."""
    if res.status in (0, 2):
        return res.status == 0
    raise SolverError(f"{what} LP returned status {res.status}: {res.message}",
                      {"solver": solver_diagnostics(res), **extra})
