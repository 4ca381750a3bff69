import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, nnls

from drumtest import catalog, inference
from drumtest.geometry import compute_patches, demand_geometry, demand_universe, \
    enumerate_demand_types
from drumtest.model import StochasticChoiceFunction, estimate_rho, path_blocks
from drumtest.representations import build_static_A, enumerate_orders, kron_dynamic
from drumtest.simulate import DgpSpec, simulate

SIMPLE_PAIRS = [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.fixture(scope="session")
def binary_uni_T1():
    return catalog.binary_universe(periods=(1,))


@pytest.fixture(scope="session")
def binary_uni_T2():
    return catalog.binary_universe(periods=(1, 2))


@pytest.fixture(scope="session")
def simple_setup():
    """Budgets, universe, patches, per-period static matrix, and the
    T=2 dynamic matrix of the two-budget demand geometry."""
    return simple_geometry()


def simple_geometry():
    """The ``simple_setup`` fixture's value, for code outside a test."""
    budgets = catalog.simple_budgets((1, 2))
    uni, patches, dominance = demand_universe(budgets, (1, 2),
                                              index_maps=catalog.SIMPLE_INDEX_MAPS)
    types, _ = enumerate_demand_types(patches[1], budgets[1])
    statics = [build_static_A(uni, t, types) for t in (1, 2)]
    paths = sorted(itertools.product((1, 2), repeat=2))
    AT = kron_dynamic(statics, paths, uni)
    return {"budgets": budgets, "universe": uni, "patches": patches,
            "dominance": dominance, "types": types, "statics": statics, "AT": AT,
            "geometry": demand_geometry(budgets, (1, 2), index_maps=catalog.SIMPLE_INDEX_MAPS)}


def legacy_cell_constraints(budget, others, signs):
    """Closure constraints of a sign cell as built before the shared
    sign-row builder: the reference the geometry and check LPs are held to."""
    A_eq = [budget.p()]
    b_eq = [budget.w()]
    A_ub, b_ub = [], []
    for other in others:
        s = signs[other.index]
        if s == "on":
            A_eq.append(other.p())
            b_eq.append(other.w())
        elif s == "above":
            A_ub.append(-other.p())
            b_ub.append(-other.w())
        else:
            A_ub.append(other.p())
            b_ub.append(other.w())
    K = budget.num_goods
    for k in range(K):
        row = np.zeros(K)
        row[k] = -1.0
        A_ub.append(row)
        b_ub.append(0.0)
    return np.array(A_eq), np.array(b_eq), np.array(A_ub), np.array(b_ub)


def rho_from_matrix(uni, M):
    """4x4 layout over pairs (1,1),(1,2),(2,1),(2,2) -> stochastic function."""
    probs = {}
    for (j1, j2) in itertools.product((1, 2), repeat=2):
        vec = []
        for i1 in (1, 2):
            for i2 in (1, 2):
                r = SIMPLE_PAIRS.index((j1, i1))
                c = SIMPLE_PAIRS.index((j2, i2))
                vec.append(M[r][c])
        probs[(j1, j2)] = np.array(vec, dtype=float)
    return StochasticChoiceFunction(uni, probs)


def rho_from_weights(uni, AT, nu):
    """Mixture weights (summing to 1) -> stochastic function on all paths."""
    fitted = AT.dense().astype(float) @ np.asarray(nu, dtype=float)
    paths = sorted({p for p, _ in AT.row_labels})
    return StochasticChoiceFunction(uni, path_blocks(uni, paths, fitted))


@pytest.fixture(scope="session")
def table5_rho(simple_setup):
    M = [[3 / 4, 0, 3 / 4, 0],
         [0, 1 / 4, 1 / 4, 0],
         [0, 1 / 4, 1 / 4, 0],
         [3 / 4, 0, 3 / 4, 0]]
    return rho_from_matrix(simple_setup["universe"], M)


@pytest.fixture(scope="session")
def table9_rho(simple_setup):
    M = [[1 / 6, 1 / 3, 2 / 3, 0],
         [1 / 3, 1 / 6, 1 / 6, 1 / 6],
         [1 / 6, 1 / 3, 2 / 3, 0],
         [1 / 3, 1 / 6, 1 / 6, 1 / 6]]
    return rho_from_matrix(simple_setup["universe"], M)


@pytest.fixture(scope="session")
def demand3x3_setup():
    budgets = catalog.demand3x3_budgets((1,))
    uni, patches, dominance = demand_universe(budgets, (1,),
                                              index_maps=catalog.DEMAND3X3_INDEX_MAPS)
    types, _ = enumerate_demand_types(patches[1], budgets[1])
    A = build_static_A(uni, 1, types)
    return {"budgets": budgets, "universe": uni, "patches": patches,
            "dominance": dominance, "types": types, "A": A,
            "geometry": demand_geometry(budgets, (1,), index_maps=catalog.DEMAND3X3_INDEX_MAPS)}


def solve_recorder(log):
    """A stand-in for ``drumtest.lp.solve`` that logs each LP as HiGHS
    receives it (the stored matrix densified, the row bounds filled) and
    then solves it."""
    from drumtest.lp import solve

    def record(lp, c, b_ub=None, b_eq=None):
        lower, upper = lp.row_bounds(b_ub, b_eq)
        dense = lp.A.toarray()
        log.append({"c": np.array(c, dtype=float), "A_ub": dense[:lp.n_ub],
                    "b_ub": upper[:lp.n_ub], "A_eq": dense[lp.n_ub:], "b_eq": lower[lp.n_ub:],
                    "bounds": np.column_stack([lp.bounds.lb, lp.bounds.ub]), "lp": lp})
        return solve(lp, c, b_ub, b_eq)
    return record


def failed_solve(lp, c, b_ub=None, b_eq=None):
    """A stand-in for ``drumtest.lp.solve`` whose every solve fails without
    a certificate: status 4, as ``solve`` reports a numerical failure."""
    return OptimizeResult(status=4, success=False, message="numerical trouble", x=None,
                          fun=None, max_violation=None)


def full_bootstrap(rho, A, config):
    """``run_test`` with ``config`` but every replicate projected on the
    full matrix (``critical_value=True`` with ``reference_chunk`` for the
    bootstrap chunk, so without screens, intervals or a working set): (its
    report, its J* in seed order)."""
    real_bootstrap, real_chunk, seen = inference._bootstrap, inference._bootstrap_chunk, []

    def recording(*args, **kwargs):
        out, plan, B, rounds = real_bootstrap(*args, **kwargs)
        seen.append(out[0])
        return out, plan, B, rounds

    inference._bootstrap, inference._bootstrap_chunk = recording, reference_chunk
    try:
        report = inference.run_test(rho, A, dataclasses.replace(config, critical_value=True))
    finally:
        inference._bootstrap, inference._bootstrap_chunk = real_bootstrap, real_chunk
    return report, seen[0]


def app_dgp():
    """The criterion-8-shaped generator: a mixture of orders on the binary
    universe of three lotteries over three periods, all six menu paths."""
    uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
    orders = list(itertools.permutations(("l1", "l2", "l3")))
    rotation = (("l1", "l2", "l3"), ("l2", "l3", "l1"), ("l3", "l1", "l2"))
    paths = sorted(itertools.permutations((1, 2, 3)))
    return DgpSpec("order-mixture", {"universe": uni,
                                     "profiles": [(r, r, r) for r in orders] + [rotation],
                                     "weights": [0.14] * 6 + [0.16], "menu_paths": paths})


def app_panel(seed):
    """A criterion-8-shaped panel, 356 agents on each of the six menu paths,
    drawn from ``app_dgp``, and the unrestricted type matrix of its
    universe."""
    dgp = app_dgp()
    uni, paths = dgp.params["universe"], dgp.params["menu_paths"]
    rho = estimate_rho(simulate(dgp, 356, seed=seed)[0], uni)
    statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in uni.periods]
    return rho, kron_dynamic(statics, paths, uni)


def curtailed_p_value(stats, statistic, reps, alpha):
    """The verdict-only p-value from a full bootstrap's J* in seed order.
    With h the smallest count c with (1 + c)/(R + 1) > alpha: h/L, L the
    1-based index of the h-th J* >= J, when there are h such J* and h/R >
    alpha; otherwise the fixed-R (1 + hits)/(R + 1)."""
    hits = np.flatnonzero(np.asarray(stats) >= statistic - 1e-12)
    h = min(c for c in range(reps + 1) if (1 + c) / (reps + 1) > alpha)
    if h / reps > alpha and len(hits) >= h:
        return h / (hits[h - 1] + 1)
    return (1 + len(hits)) / (reps + 1)


def reference_chunk(plan, B, need=None):
    """The bootstrap chunk before screening, certification, working sets and
    intervals: every replicate's row of ``B`` projected by scipy's nnls on
    the full matrix, in seed order, statistics only (the KKT row is NaN,
    the route row reads FULL_AGAIN, the upper-bound row repeats J*, and no
    supports are reported). With ``need``, the projections stop at the
    ``need``-th J* >= J, and the rows end there."""
    out, hits = [], 0
    for b in B:
        if hits == need:
            break
        _, rnorm = nnls(plan.WA, b)
        out.append(plan.N * (rnorm * rnorm))
        hits += out[-1] >= plan.statistic - 1e-12
    out = np.array(out)
    route = np.full(len(out), inference.FULL_AGAIN)
    return (np.vstack([out, np.full(len(out), np.nan), route, out]),
            np.zeros((plan.WA.shape[1], len(out)), bool))
