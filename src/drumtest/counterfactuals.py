"""Sharp LP bounds on functionals of next-period demand.

The extended window adds one period with user-supplied budgets at unit
expenditure; feasible extensions must be nonnegative, marginalize back to
the observed distribution, and satisfy stability plus dominance
monotonicity on the extended window. Bounds are the extreme values of the
patch-weighted functional over that polytope, conditionally on an observed
path or marginally. A mixture-side formulation of the same bounds serves
as an independent cross-check.

The constraint matrices of both formulations depend only on the geometry,
so they are compiled once per geometry into a ``CounterfactualModel``; a
solve fills the observed distribution into the right-hand side and the
functional into the objective. Each formulation is compiled as its bound
pair: two copies of its constraints side by side, so that one HiGHS solve
gives the lower bound on the first copy and the upper bound on the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from scipy.linalg import block_diag

from .checks import _compile_dmono, _compile_stability, cone_membership
from .errors import GeometryError, ModelRejectedError, ParameterError, SchemaError
from .geometry import DemandGeometry, demand_geometry
from .lp import LinearProgram, compile_lp, optimal, solve, solver_diagnostics
from .model import (ChoiceUniverse, StochasticChoiceFunction, label_index, path_blocks,
                    path_index, path_vector)
from .representations import TypeMatrix, static_type_matrix, type_matrix

NEW_PERIOD = "next"


@dataclass(frozen=True)
class CounterfactualProblem:
    """Observed distribution and geometry, next-period budgets, per-patch
    functional bounds, and an optional conditioning path.

    ``g_lower`` / ``g_upper`` map next-period patch labels (budget, patch)
    to the infimum/supremum of the target functional on that patch; the
    bound applies to the budget ``target_budget`` (lowest index by default).
    """

    rho: StochasticChoiceFunction
    budgets: dict
    new_budgets: list
    g_lower: dict
    g_upper: dict
    target_budget: int | None = None
    condition: tuple | None = None  # (menu_path, choice_path)

    def __post_init__(self):
        unpaired = sorted(self.g_lower.keys() ^ self.g_upper.keys())
        if unpaired:
            raise SchemaError(f"patches {unpaired} need both a lower and an upper bound")
        for key, lo in self.g_lower.items():
            if not (math.isfinite(lo) and math.isfinite(self.g_upper[key])):
                raise SchemaError(f"g bounds on patch {key} must be finite")
            if lo > self.g_upper[key] + 1e-12:
                raise SchemaError(f"g bounds crossed on patch {key}")


@dataclass(frozen=True)
class BoundsReport:
    lower: float
    upper: float
    witness_lower: np.ndarray
    witness_upper: np.ndarray
    status: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CounterfactualModel:
    """Fixed structure of both bounding LPs for one geometry; arrays are
    read-only.

    ``geometry`` is the extended demand geometry, the observed periods then
    ``NEW_PERIOD``, and ``columns`` maps each path of its universe over the
    observed menu paths to the extension-LP columns of its
    choice paths, in ``universe.choice_paths`` order. The extension LP
    holds the negated monotonicity rows, then the marginal equality rows,
    whose right-hand side is the flattened observed distribution at
    ``marginal_rows``, then the stability rows. ``observed`` and
    ``new_static`` are the observed-window and new-period type matrices,
    ``observed_float`` and ``new_float`` their float copies, and
    ``observed_rows`` maps each observed menu path to its rows of
    ``observed``; the mixture LP has the equality rows of ``observed`` with
    the new-period type index summed out. Both LPs keep x >= 0. ``extension``
    and ``mixture`` store each LP as its bound pair, the block-diagonal
    [A 0; 0 A] (inequality rows still first), solved with HiGHS' presolve
    off: presolve reported some exact mixtures infeasible, and on the T=2
    pairs it costs more than it saves.
    """

    geometry: DemandGeometry
    columns: MappingProxyType
    extension: LinearProgram
    marginal_rows: np.ndarray
    observed: TypeMatrix
    new_static: TypeMatrix
    observed_float: np.ndarray
    new_float: np.ndarray
    observed_rows: MappingProxyType
    mixture: LinearProgram


@lru_cache(maxsize=16)
def _compile(geometry: DemandGeometry, paths: tuple) -> CounterfactualModel:
    """Build the model of one extended geometry on the observed menu ``paths``."""
    ext = geometry.universe
    periods = ext.periods[:-1]
    for t in periods:
        if len(ext.menus[t]) != 2 or any(m.size != 2 for m in ext.menus[t]):
            raise GeometryError("counterfactual bounds cover the two-budget setup")
    new_menus = ext.menus[NEW_PERIOD]
    if len(new_menus) != 2 or any(m.size != 2 for m in new_menus):
        raise GeometryError("next-period budgets must cross: two patches per budget")

    observed_uni = ChoiceUniverse(periods, ext.alternatives, ext.menus, ext.primitive_order)
    observed = type_matrix(observed_uni, paths, geometry)
    # two new menus of two patches each (checked above): four columns per observed row
    ext_paths = tuple(tuple(path) + (menu.index,) for path in paths for menu in new_menus)
    n = 4 * len(observed.row_labels)
    columns = path_index(ext, ext_paths)

    # marginal rows: summing out the new-period choice (two patches per
    # budget, checked above) reproduces rho, at each path's block of it
    marginal = np.repeat(np.eye(n // 2), 2, axis=1)
    blocks = path_index(observed_uni, sorted(paths))
    marginal_rows = np.concatenate([blocks[path] for path in paths for _ in new_menus])
    # stability rows: the check's compared margins, the first less the
    # second; monotonicity rows: the check's iterated differences
    stability = _compile_stability(ext, ext_paths)
    margins = stability.matrix.toarray()
    A_eq = np.vstack([marginal, margins[stability.first] - margins[stability.second]])
    M = _compile_dmono(ext, None, ext_paths).matrix.toarray()

    new_static = static_type_matrix(ext, NEW_PERIOD, geometry.patches)
    observed_float, new_float = (A.dense().astype(float) for A in (observed, new_static))
    mixture_A_eq = np.repeat(observed_float, len(new_static.col_labels), axis=1)
    for a in (marginal_rows, new_static.matrix, observed_float, new_float, *columns.values(),
              *blocks.values()):
        a.flags.writeable = False
    return CounterfactualModel(geometry, MappingProxyType(columns), _pair_lp(-M, A_eq),
                               marginal_rows, observed, new_static, observed_float, new_float,
                               MappingProxyType(blocks), _pair_lp(None, mixture_A_eq))


def _pair_lp(A_ub, A_eq) -> LinearProgram:
    """The bound pair of the LP over ``A_ub`` (or None) and ``A_eq``."""
    return compile_lp(None if A_ub is None else block_diag(A_ub, A_ub),
                      block_diag(A_eq, A_eq), presolve=False)


def _model_for(problem: CounterfactualProblem) -> CounterfactualModel:
    """The compiled model of the problem's extended geometry, which warns and
    is checked against the problem's observed universe on every call. The
    budgets must cover exactly the universe's periods."""
    uni = problem.rho.universe
    for t in problem.budgets:
        if t not in uni.periods:
            raise SchemaError(f"budgets period {t} is not a period of the universe")
    for t in uni.periods:
        if t not in problem.budgets:
            raise SchemaError(f"universe period {t} has no budgets")
    geometry = demand_geometry({**problem.budgets, NEW_PERIOD: problem.new_budgets},
                               uni.periods + (NEW_PERIOD,))
    model = _compile(geometry, tuple(problem.rho.observed_paths))
    geometry.check_universe(uni)
    return model


def _target_menu(problem: CounterfactualProblem, model: CounterfactualModel):
    """The next-period budget the functional applies to, and its menu, every
    patch of which needs bounds."""
    target = problem.target_budget
    if target is None:
        target = min(m.index for m in model.geometry.universe.menus[NEW_PERIOD])
    menu = model.geometry.universe.menu(NEW_PERIOD, target)
    missing = [item for item in menu.items if item not in problem.g_lower]
    if missing:
        raise SchemaError(f"no bounds for next-period patches {missing} of budget {target}")
    return target, menu


def _averaged_paths(problem: CounterfactualProblem, rho: StochasticChoiceFunction,
                    model: CounterfactualModel):
    """The observed menu path, the rows of ``model.observed`` of the choice
    paths the functional averages over and their mass: the conditioning
    path, placed by ``label_index`` and raising its SchemaError, or all
    choice paths of the first observed menu path (mass 1) for the marginal
    bound."""
    if problem.condition is None:
        ref = tuple(rho.observed_paths[0])
        return ref, model.observed_rows[ref], 1.0
    cond_path, cond_cp = map(tuple, problem.condition)
    paths = tuple(rho.observed_paths)
    rows = label_index(rho.universe, paths, [(cond_path, cond_cp)])
    mass = float(path_vector(rho, paths)[rows[0]])
    if mass <= 1e-12:
        raise ParameterError("conditioning path has zero mass; "
                             "the conditional bound is undefined")
    return cond_path, rows, mass


def _bound_pair(pair: LinearProgram, b_eq, c_lo, c_hi, infeasible: str):
    """Minimum of ``c_lo`` and maximum of ``c_hi`` over one LP with equality
    right-hand side ``b_eq``, in one solve of its bound ``pair``: the
    bounds, their witnesses (the pair's two halves) and the solve's
    diagnostics, reported for both sides."""
    n = len(c_lo)
    res = solve(pair, np.concatenate([c_lo, -c_hi]), b_eq=np.tile(b_eq, 2))
    if not optimal(res, "bounding"):
        raise ModelRejectedError(infeasible)
    x_lo, x_hi = res.x[:n], res.x[n:]
    solver = solver_diagnostics(res)
    return (float(c_lo @ x_lo), float(c_hi @ x_hi), x_lo, x_hi,
            {"lower": solver, "upper": dict(solver)})


def bound_functional(problem: CounterfactualProblem,
                     project_onto_cone: bool = False) -> BoundsReport:
    """Extreme values of the expected functional over all feasible
    extensions; conditional when a conditioning path is given."""
    model = _model_for(problem)
    rho = _projected(problem, model) if project_onto_cone else problem.rho
    target, new_menu = _target_menu(problem, model)
    path, rows, mass = _averaged_paths(problem, rho, model)
    # the path's choice paths, in order, from its first row of the observed matrix
    positions = rows - model.observed_rows[path][0]
    pair = model.extension
    n, n_ub = pair.A.shape[1] // 2, pair.n_ub // 2
    b_eq = np.zeros(pair.A.shape[0] // 2 - n_ub)
    b_eq[:len(model.marginal_rows)] = path_vector(rho, rho.observed_paths)[model.marginal_rows]

    def objective(g_map):
        c = np.zeros(n)
        # the new period is last: a choice path's patches are consecutive
        c[model.columns[path + (target,)].reshape(-1, new_menu.size)[positions]] = \
            np.array([g_map[item] for item in new_menu.items]) / mass
        return c

    *bounds, solver = _bound_pair(
        pair, b_eq, objective(problem.g_lower), objective(problem.g_upper),
        "no extension satisfies monotonicity and stability; "
        "the observed distribution is inconsistent")
    return BoundsReport(*bounds, "optimal",
                        {"variables": n, "monotonicity_rows": n_ub,
                         "equality_rows": len(b_eq), "inequality_rows": n_ub,
                         "target_budget": target, "solver": solver,
                         "geometry_warnings": model.geometry.warnings})


def kron_counterfactual_cone(problem: CounterfactualProblem) -> BoundsReport:
    """The same bounds through the mixture side: weights over extended type
    profiles that marginalize to the observed distribution."""
    model = _model_for(problem)
    rho = problem.rho
    target, new_menu = _target_menu(problem, model)
    path, rows, mass = _averaged_paths(problem, rho, model)
    obs_row = model.observed_float[rows].sum(axis=0)
    # the new period's rows run menu by menu, two patches each
    first = 2 * model.geometry.universe.menu_indices(NEW_PERIOD).index(target)

    def objective(g_map):
        g_row = np.zeros(model.new_float.shape[1])
        for i, item in enumerate(new_menu.items):
            g_row += g_map[item] * model.new_float[first + i]
        return np.kron(obs_row, g_row) / mass

    rows, types = (size // 2 for size in model.mixture.A.shape)
    *bounds, solver = _bound_pair(
        model.mixture, path_vector(rho, rho.observed_paths), objective(problem.g_lower),
        objective(problem.g_upper), "observed distribution is outside the type cone")
    return BoundsReport(*bounds, "optimal",
                        {"types": types, "route": "mixture", "variables": types,
                         "equality_rows": rows, "inequality_rows": 0,
                         "target_budget": target, "solver": solver,
                         "geometry_warnings": model.geometry.warnings})


def _projected(problem: CounterfactualProblem,
               model: CounterfactualModel) -> StochasticChoiceFunction:
    """Replace the observed distribution by its cone projection."""
    rho = problem.rho
    _, weights, _ = cone_membership(rho, model.observed)
    fitted = np.clip(model.observed_float @ weights, 0.0, None)
    blocks = path_blocks(rho.universe, rho.observed_paths, fitted)
    probs = {path: block / block.sum() for path, block in blocks.items()}
    return StochasticChoiceFunction(rho.universe, probs, rho.counts, None)
