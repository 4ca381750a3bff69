"""The one entry point for the package's linear programs.

A ``LinearProgram`` holds the constraint matrix of one LP in compressed
sparse column form, built once: the inequality rows first, then the
equality rows, the order ``scipy.optimize.linprog`` stacks them in. Its row
bounds are templates that a solve fills with the right-hand sides, so a
compiled model hands HiGHS the same fixed matrix on every solve and pays
for the conversion once. ``solve`` runs HiGHS through the public
``scipy.optimize.milp`` with no integrality, which skips ``linprog``'s
per-call input cleaning and option checks; with console output switched
off it gives the same status, message, objective and solution bits as
``linprog(method="highs")`` with the same options. An LP compiled with
``presolve=False`` is solved with HiGHS' presolve off and matches
``linprog(method="highs", options={"presolve": False})``; every other LP
gets HiGHS' defaults. Each result carries ``max_violation``, the largest
amount by which its ``x`` breaks a variable or row bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
from scipy.sparse import csc_array

# linprog's feasibility check of a reported optimum: sqrt(tol) * 10 at its
# default tol of 1e-9
_CHECK_TOL = np.sqrt(1e-9) * 10

# milp forwards options it does not know to HiGHS unchanged and warns;
# HiGHS' output_flag is the one linprog sets that milp leaves at its default
_HIGHS_OPTIONS = {"output_flag": False}


@dataclass(frozen=True)
class LinearProgram:
    """Constraints of one LP: ``A`` is read-only CSC with ``n_ub`` inequality
    rows (``A_ub x <= b_ub``) above the equality rows (``A_eq x = b_eq``);
    ``lower``/``upper`` are the row bounds, ``bounds`` the variable bounds;
    ``presolve`` is whether HiGHS presolves it."""

    A: csc_array
    n_ub: int
    lower: np.ndarray
    upper: np.ndarray
    bounds: Bounds
    presolve: bool = True

    def with_rhs(self, b_ub=None, b_eq=None) -> LinearProgram:
        """The same LP with right-hand sides filled into its row bounds."""
        lower, upper = self.lower.copy(), self.upper.copy()
        if b_ub is not None:
            upper[:self.n_ub] = b_ub
        if b_eq is not None:
            lower[self.n_ub:] = b_eq
            upper[self.n_ub:] = b_eq
        return replace(self, lower=lower, upper=upper)


def compile_lp(A_ub=None, A_eq=None, bounds: Bounds | None = None,
               presolve: bool = True) -> LinearProgram:
    """Build the LP over ``A_ub`` and ``A_eq`` (dense, either may be None)
    with zero right-hand sides; ``bounds`` defaults to x >= 0 as in
    ``linprog``. ``presolve=False`` switches HiGHS' presolve off for every
    solve of it."""
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
    return LinearProgram(A, n_ub, lower, upper, Bounds(lb, ub), presolve)


def solve(lp: LinearProgram, c, b_ub=None, b_eq=None) -> OptimizeResult:
    """Minimise ``c @ x`` over ``lp`` with the given right-hand sides (the
    templates where None). The result carries ``status``, ``message``,
    ``fun`` and ``x`` with ``linprog``'s meanings, including its demotion
    of an optimum that violates the constraints to status 4, and
    ``max_violation`` (None without an ``x``)."""
    if b_ub is not None or b_eq is not None:
        lp = lp.with_rhs(b_ub, b_eq)
    options = dict(_HIGHS_OPTIONS) if lp.presolve else {**_HIGHS_OPTIONS, "presolve": False}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(c, bounds=lp.bounds, constraints=LinearConstraint(lp.A, lp.lower, lp.upper),
                   options=options)
    res.max_violation = None if res.x is None else _max_violation(lp, res.x)
    if res.status == 0 and (res.max_violation is None or not res.max_violation <= _CHECK_TOL):
        res.status = 4
        res.message = ("The solution does not satisfy the constraints within the "
                       f"required tolerance of {_CHECK_TOL:.2E}, yet no errors were "
                       "raised and there is no certificate of infeasibility or "
                       "unboundedness.")
        res.success = False
    return res


def _max_violation(lp: LinearProgram, x) -> float:
    """The largest amount by which ``x`` breaks a variable bound or a row
    bound of ``lp``: 0 when it meets them all, NaN when ``x`` has a NaN."""
    row = lp.A @ x
    return float(np.max(np.concatenate([lp.bounds.lb - x, x - lp.bounds.ub, row - lp.upper,
                                        lp.lower - row, [0.0]])))


def solver_diagnostics(res) -> dict:
    """Status, message and largest bound or row violation of one LP."""
    return {"status": int(res.status), "message": res.message,
            "max_violation": res.get("max_violation")}
