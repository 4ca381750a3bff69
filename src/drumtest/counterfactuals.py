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
functional into the objective.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .checks import (cone_membership, dominance_from_universe, iterated_differences,
                     stability_groups)
from .errors import GeometryError, ModelRejectedError, ParameterError, SchemaError
from .geometry import demand_universe
from .lp import LinearProgram, compile_lp, solve, solver_diagnostics
from .model import ChoiceUniverse, StochasticChoiceFunction, path_blocks, rho_vector
from .representations import TypeMatrix, kron_dynamic, static_type_matrix

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

    ``universe`` is the extended universe and ``columns`` maps each of its
    paths over the observed menu paths to the extension-LP columns of its
    choice paths, in ``universe.choice_paths`` order. ``extension``
    holds the negated monotonicity rows, then the marginal equality rows,
    whose right-hand side is the flattened observed distribution at
    ``marginal_rows``, then the stability rows. ``observed`` and
    ``new_static`` are the observed-window and new-period type matrices;
    ``mixture`` has the equality rows of ``observed`` with the new-period
    type index summed out. Both LPs keep x >= 0.
    """

    universe: ChoiceUniverse
    columns: MappingProxyType
    extension: LinearProgram
    marginal_rows: np.ndarray
    observed: TypeMatrix
    new_static: TypeMatrix
    mixture: LinearProgram
    geometry_warnings: tuple


@lru_cache(maxsize=16)
def _compile(budgets: tuple, new_budgets: tuple, paths: tuple) -> CounterfactualModel:
    """Build the model of one geometry: ``budgets`` pairs each observed
    period with its budget tuple, ``paths`` are the observed menu paths."""
    periods = tuple(t for t, _ in budgets)
    observed_budgets = {t: list(blist) for t, blist in budgets}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        observed_uni, _, _ = demand_universe(observed_budgets, periods)
        ext, patches, _ = demand_universe({**observed_budgets, NEW_PERIOD: list(new_budgets)},
                                          periods + (NEW_PERIOD,))
    for t in periods:
        if len(ext.menus[t]) != 2 or any(m.size != 2 for m in ext.menus[t]):
            raise GeometryError("counterfactual bounds cover the two-budget setup")
    new_menus = ext.menus[NEW_PERIOD]
    if len(new_menus) != 2 or any(m.size != 2 for m in new_menus):
        raise GeometryError("next-period budgets must cross: two patches per budget")

    observed = kron_dynamic([static_type_matrix(observed_uni, t, patches) for t in periods],
                            paths, observed_uni)
    # two new menus of two patches each (checked above): four columns per observed row
    ext_paths = [tuple(path) + (menu.index,) for path in paths for menu in new_menus]
    n = 4 * len(observed.row_labels)
    columns = path_blocks(ext, ext_paths, np.arange(n))

    # marginal rows: summing out the new-period choice (two patches per
    # budget, checked above) reproduces rho, at each path's block of it
    marginal = np.repeat(np.eye(n // 2), 2, axis=1)
    blocks = path_blocks(observed_uni, sorted(paths), np.arange(len(observed.row_labels)))
    marginal_rows = np.concatenate([blocks[path] for path in paths for _ in new_menus])
    # stability rows: each class sum of a path equals the group's first path's
    stability = []
    for _, _, group, classes in stability_groups(ext, ext_paths):
        for g, other in enumerate(group[1:], 1):
            for oc in sorted(classes):
                row = np.zeros(n)
                row[columns[group[0]][classes[oc][0]]] = 1.0
                row[columns[other][classes[oc][g]]] = -1.0
                stability.append(row)
    A_eq = np.vstack([marginal, *stability])
    mono = [terms for *_, terms in iterated_differences(ext, dominance_from_universe(ext),
                                                         ext_paths) if terms is not None]
    M = np.zeros((len(mono), n))
    for r, terms in enumerate(mono):
        for sign, menu_path, position in terms:
            M[r, columns[menu_path][position]] += sign

    new_static = static_type_matrix(ext, NEW_PERIOD, patches)
    mixture_A_eq = np.repeat(observed.dense().astype(float), len(new_static.col_labels),
                             axis=1)
    for a in (marginal_rows, observed.matrix, new_static.matrix, *columns.values()):
        a.flags.writeable = False
    return CounterfactualModel(ext, MappingProxyType(columns), compile_lp(-M, A_eq),
                               marginal_rows, observed, new_static,
                               compile_lp(None, mixture_A_eq),
                               tuple(dict.fromkeys(str(w.message) for w in caught)))


def _model_for(problem: CounterfactualProblem) -> CounterfactualModel:
    """The compiled model of the problem's geometry, checked against the
    problem's observed universe on every call."""
    uni = problem.rho.universe
    model = _compile(tuple((t, tuple(problem.budgets[t])) for t in uni.periods),
                     tuple(problem.new_budgets), tuple(problem.rho.observed_paths))
    for message in model.geometry_warnings:
        warnings.warn(message, stacklevel=3)
    for t in uni.periods:
        if model.universe.menus[t] != uni.menus[t]:
            raise SchemaError("observed universe does not match the supplied budgets; "
                              "build it with demand_universe on the same budgets")
    return model


def _target_menu(problem: CounterfactualProblem, model: CounterfactualModel):
    """The next-period budget the functional applies to, and its menu, every
    patch of which needs bounds."""
    target = problem.target_budget
    if target is None:
        target = min(m.index for m in model.universe.menus[NEW_PERIOD])
    menu = model.universe.menu(NEW_PERIOD, target)
    missing = [item for item in menu.items if item not in problem.g_lower]
    if missing:
        raise SchemaError(f"no bounds for next-period patches {missing} of budget {target}")
    return target, menu


def _averaged_paths(problem: CounterfactualProblem, rho: StochasticChoiceFunction):
    """The observed menu path, the positions of the choice paths the
    functional averages over and their mass: the conditioning path, or all
    choice paths of the first observed menu path (mass 1) for the marginal
    bound."""
    if problem.condition is None:
        ref = tuple(rho.observed_paths[0])
        return ref, np.arange(len(rho.probs[ref])), 1.0
    cond_path, cond_cp = map(tuple, problem.condition)
    if cond_path not in rho.probs:
        raise SchemaError(f"conditioning path {cond_path} not observed")
    choice_paths = rho.universe.choice_paths(cond_path)
    if cond_cp not in choice_paths:
        raise SchemaError(f"{cond_cp} is not a choice path of menu path {cond_path}")
    mass = rho.prob(cond_path, cond_cp)
    if mass <= 1e-12:
        raise ParameterError("conditioning path has zero mass; "
                             "the conditional bound is undefined")
    return cond_path, [choice_paths.index(cond_cp)], mass


def _bound_pair(lp: LinearProgram, b_eq, c_lo, c_hi, infeasible: str):
    """Minimum of ``c_lo`` and maximum of ``c_hi`` over ``lp`` with equality
    right-hand side ``b_eq``, with per-LP solver diagnostics."""
    lp = lp.with_rhs(b_eq=b_eq)
    res_lo = solve(lp, c_lo)
    if res_lo.status == 2:
        raise ModelRejectedError(infeasible)
    res_hi = solve(lp, -c_hi)
    if res_lo.status != 0 or res_hi.status != 0:
        raise ModelRejectedError(f"bounding LP failed: {res_lo.message} / {res_hi.message}")
    solver = {"lower": solver_diagnostics(res_lo), "upper": solver_diagnostics(res_hi)}
    return res_lo, res_hi, solver


def bound_functional(problem: CounterfactualProblem,
                     project_onto_cone: bool = False) -> BoundsReport:
    """Extreme values of the expected functional over all feasible
    extensions; conditional when a conditioning path is given."""
    model = _model_for(problem)
    rho = _projected(problem, model) if project_onto_cone else problem.rho
    target, new_menu = _target_menu(problem, model)
    path, positions, mass = _averaged_paths(problem, rho)
    lp = model.extension
    n = lp.A.shape[1]
    b_eq = np.zeros(lp.A.shape[0] - lp.n_ub)
    observed = rho_vector(rho, model.observed.row_labels)
    b_eq[:len(model.marginal_rows)] = observed[model.marginal_rows]

    def objective(g_map):
        c = np.zeros(n)
        # the new period is last: a choice path's patches are consecutive
        c[model.columns[path + (target,)].reshape(-1, new_menu.size)[positions]] = \
            np.array([g_map[item] for item in new_menu.items]) / mass
        return c

    res_lo, res_hi, solver = _bound_pair(
        lp, b_eq, objective(problem.g_lower), objective(problem.g_upper),
        "no extension satisfies monotonicity and stability; "
        "the observed distribution is inconsistent")
    return BoundsReport(float(res_lo.fun), float(-res_hi.fun), res_lo.x, res_hi.x,
                        "optimal",
                        {"variables": n, "monotonicity_rows": lp.n_ub,
                         "equality_rows": len(b_eq), "inequality_rows": lp.n_ub,
                         "target_budget": target, "solver": solver,
                         "geometry_warnings": model.geometry_warnings})


def kron_counterfactual_cone(problem: CounterfactualProblem) -> BoundsReport:
    """The same bounds through the mixture side: weights over extended type
    profiles that marginalize to the observed distribution."""
    model = _model_for(problem)
    rho = problem.rho
    target, new_menu = _target_menu(problem, model)
    path, positions, mass = _averaged_paths(problem, rho)
    obs_dense = model.observed.dense().astype(float)
    new_dense = model.new_static.dense().astype(float)
    obs_row = path_blocks(rho.universe, rho.observed_paths, obs_dense)[path][positions].sum(axis=0)
    # the new period's rows run menu by menu, two patches each
    first = 2 * model.universe.menu_indices(NEW_PERIOD).index(target)

    def objective(g_map):
        g_row = np.zeros(new_dense.shape[1])
        for i, item in enumerate(new_menu.items):
            g_row += g_map[item] * new_dense[first + i]
        return np.kron(obs_row, g_row) / mass

    rows, types = model.mixture.A.shape
    res_lo, res_hi, solver = _bound_pair(
        model.mixture, rho_vector(rho, model.observed.row_labels), objective(problem.g_lower),
        objective(problem.g_upper), "observed distribution is outside the type cone")
    return BoundsReport(float(res_lo.fun), float(-res_hi.fun), res_lo.x, res_hi.x,
                        "optimal",
                        {"types": types, "route": "mixture", "variables": types,
                         "equality_rows": rows, "inequality_rows": 0,
                         "target_budget": target, "solver": solver,
                         "geometry_warnings": model.geometry_warnings})


def _projected(problem: CounterfactualProblem,
               model: CounterfactualModel) -> StochasticChoiceFunction:
    """Replace the observed distribution by its cone projection."""
    rho = problem.rho
    _, weights, _ = cone_membership(rho, model.observed)
    fitted = np.clip(model.observed.dense().astype(float) @ weights, 0.0, None)
    blocks = path_blocks(rho.universe, rho.observed_paths, fitted)
    probs = {path: block / block.sum() for path, block in blocks.items()}
    return StochasticChoiceFunction(rho.universe, probs, rho.counts, None)
