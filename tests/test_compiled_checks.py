"""The compiled check LPs (revealed path dominance, hierarchy, Block-Marschak
extension) against frozen copies of the per-call constructions they
replaced: identical reports and identical LPs handed to the solver."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.optimize import linprog
from scipy.sparse import csc_array

from drumtest import catalog, checks, io
from drumtest.checks import bm_extension_feasible, check_sarpd, hierarchy_feasible
from drumtest.errors import SchemaError, SizeError
from drumtest.geometry import demand_universe, enumerate_demand_types
from drumtest.model import ChoiceUniverse, Menu, StochasticChoiceFunction
from drumtest.representations import (build_static_A, bm_matrix, catalog_H, enumerate_orders,
                                      full_pair_lists, kron_dynamic, pair_vector,
                                      projection_ops, reduce_H, validate_replication,
                                      virtual_universe)

from conftest import legacy_cell_constraints, rho_from_weights, solve_recorder

# --- frozen copies of the per-call constructions ---------------------------------------


def _legacy_check_sarpd(rho, budgets_by_period, patches_by_period, tol=checks.ESTIMATE_TOL):
    uni = rho.universe
    patch_by_label = {t: {p.label: p for p in patches_by_period[t]} for t in patches_by_period}
    budget_by_index = {t: {b.index: b for b in budgets_by_period[t]} for t in budgets_by_period}
    min_cache = {}

    def geom_key(t, patch):
        own = budget_by_index[t][patch.budget]
        own_key = (tuple(own.prices), own.expenditure)
        signs = tuple(sorted(((tuple(budget_by_index[t][j].prices),
                               budget_by_index[t][j].expenditure), s)
                             for j, s in patch.sign_vector.items()))
        return (own_key, signs)

    def min_spend(t_cell, patch, prices_key):
        key = (geom_key(t_cell, patch), prices_key)
        if key in min_cache:
            return min_cache[key]
        own = budget_by_index[t_cell][patch.budget]
        others = [b for b in budgets_by_period[t_cell] if b.index != patch.budget]
        A_eq, b_eq, A_ub, b_ub = legacy_cell_constraints(own, others, patch.sign_vector)
        p = np.array(prices_key[0], dtype=float)
        res = linprog(p, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=[(None, None)] * own.num_goods, method="highs")
        val = res.fun if res.status == 0 else np.inf
        min_cache[key] = val
        return val

    cyclic_mass = 0.0
    cyclic_paths = []
    for path in rho.observed_paths:
        order = uni.choice_paths(path)
        arr = np.asarray(rho.probs[path], dtype=float)
        for cp, mass in zip(order, arr):
            cells = []
            for t, j, i in zip(uni.periods, path, cp):
                cells.append((t, patch_by_label[t][(j, i)]))
            keys = [geom_key(t, p) for t, p in cells]
            uniq = {}
            for (t, p), key in zip(cells, keys):
                uniq[key] = (t, p)
            if len(uniq) < 2:
                continue
            nodes = list(uniq)
            adj = {a: set() for a in nodes}
            for a in nodes:
                t_a, p_a = uniq[a]
                own = budget_by_index[t_a][p_a.budget]
                w_a = own.w()
                prices_key = (tuple(float(v) for v in own.prices), float(own.expenditure))
                for b in nodes:
                    if a == b:
                        continue
                    t_b, p_b = uniq[b]
                    other = budget_by_index[t_b][p_b.budget]
                    same_budget = (tuple(float(v) for v in other.prices),
                                   float(other.expenditure)) == prices_key
                    if same_budget or min_spend(t_b, p_b, prices_key) < w_a - 1e-9:
                        adj[a].add(b)
            if checks._has_cycle(nodes, adj):
                cyclic_mass += float(mass)
                if mass > tol:
                    cyclic_paths.append((path, cp, float(mass)))
    return checks.CheckReport("sarpd", cyclic_mass <= tol, cyclic_mass, tuple(cyclic_paths),
                              {"tolerance": tol, "cyclic_mass": cyclic_mass})


def _legacy_iu_dominated_pairs(universe, t):
    dominated = set()
    for menu in universe.menus[t]:
        items = set(menu.items)
        for dom, sub in universe.primitive_order.get(t, ()):
            if len(sub) == 1 and set(dom) <= items:
                target = next(iter(sub))
                if target in items:
                    dominated.add((menu.index, menu.position(target)))
    return dominated


def _legacy_bm_extension_feasible(rho, entry_guard=2_000_000):
    uni = rho.universe
    vuni = virtual_universe(uni)
    pair_lists = full_pair_lists(vuni)
    dims = [len(p) for p in pair_lists]
    n_vars = int(np.prod(dims))
    H_blocks = [np.asarray(bm_matrix(vuni, t).full(), dtype=float) for t in vuni.periods]
    n_ineq = int(np.prod([h.shape[0] for h in H_blocks]))
    if n_ineq * n_vars > entry_guard:
        raise SizeError("Block-Marschak system exceeds the size guard")
    big = H_blocks[0]
    for h in H_blocks[1:]:
        big = np.kron(big, h)
    var_index = {combo: k for k, combo in enumerate(itertools.product(*pair_lists))}
    A_eq, b_eq = [], []
    menu_lists = [[m.index for m in vuni.menus[t]] for t in vuni.periods]
    for menu_path in itertools.product(*menu_lists):
        row = np.zeros(n_vars)
        for cp in vuni.choice_paths(menu_path):
            row[var_index[tuple(zip(menu_path, cp))]] = 1.0
        A_eq.append(row)
        b_eq.append(1.0)
    for path in rho.observed_paths:
        arr = np.asarray(rho.probs[path], dtype=float)
        for cp, val in zip(uni.choice_paths(path), arr):
            row = np.zeros(n_vars)
            row[var_index[tuple(zip(path, cp))]] = 1.0
            A_eq.append(row)
            b_eq.append(float(val))
    if vuni.num_periods > 1:
        for t_pos, t in enumerate(vuni.periods):
            menus = vuni.menus[t]
            first = menus[0]
            off_lists = [pl for k, pl in enumerate(pair_lists) if k != t_pos]
            for menu in menus[1:]:
                for off in itertools.product(*off_lists):
                    row = np.zeros(n_vars)
                    for i in range(1, menu.size + 1):
                        combo = list(off)
                        combo.insert(t_pos, (menu.index, i))
                        row[var_index[tuple(combo)]] += 1.0
                    for i in range(1, first.size + 1):
                        combo = list(off)
                        combo.insert(t_pos, (first.index, i))
                        row[var_index[tuple(combo)]] -= 1.0
                    A_eq.append(row)
                    b_eq.append(0.0)
    upper = np.ones(n_vars)
    for t_pos, t in enumerate(vuni.periods):
        dominated = _legacy_iu_dominated_pairs(vuni, t)
        for k, combo in enumerate(itertools.product(*pair_lists)):
            if combo[t_pos] in dominated:
                upper[k] = 0.0
    res = linprog(np.zeros(n_vars), A_ub=-big, b_ub=np.zeros(big.shape[0]),
                  A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                  bounds=list(zip(np.zeros(n_vars), upper)), method="highs")
    feasible = res.status == 0
    witness = None
    if feasible:
        probs = {}
        for menu_path in itertools.product(*menu_lists):
            vals = [res.x[var_index[tuple(zip(menu_path, cp))]]
                    for cp in vuni.choice_paths(menu_path)]
            probs[menu_path] = np.clip(np.array(vals), 0.0, None)
        witness = StochasticChoiceFunction(vuni, {p: v / v.sum() for p, v in probs.items()})
    report = checks.CheckReport("bm-extension", feasible, 0.0 if feasible else 1.0,
                                diagnostics={"status": int(res.status), "variables": n_vars,
                                             "inequality_rows": int(big.shape[0])})
    return feasible, witness, report


def _legacy_hierarchy_feasible(rho, H_list, k, entry_guard=5_000_000):
    uni = rho.universe
    reductions = [checks.reduced_static_labels(uni, t) for t in uni.periods]
    H_stars = [reduce_H(H, kept, dropped) for H, (kept, dropped) in zip(H_list, reductions)]
    validate_replication(k, len(H_stars))
    bases = [np.asarray(H_star.full(), dtype=float) for H_star in H_stars]
    rows = math.prod(base.shape[0] ** kt for base, kt in zip(bases, k))
    cols = math.prod(base.shape[1] ** kt for base, kt in zip(bases, k))
    if rows * cols > entry_guard:
        raise SizeError("hierarchy system exceeds the size guard; lower k")
    ops = projection_ops(H_stars, k)
    blocks = []
    for base, kt in zip(bases, k):
        block = base
        for _ in range(kt - 1):
            block = np.kron(block, base)
        blocks.append(block)
    big = blocks[0]
    for b in blocks[1:]:
        big = np.kron(big, b)
    Gamma = ops.Gamma_float()
    rho_star = pair_vector(rho, [list(kept) for kept, _ in reductions])
    res = linprog(np.zeros(Gamma.shape[1]), A_ub=-big, b_ub=np.zeros(big.shape[0]),
                  A_eq=Gamma, b_eq=rho_star, bounds=[(None, None)] * Gamma.shape[1],
                  method="highs")
    feasible = res.status == 0
    report = checks.CheckReport("hierarchy", feasible, 0.0 if feasible else 1.0,
                                diagnostics={"k": tuple(k), "variables": int(Gamma.shape[1]),
                                             "inequality_rows": int(big.shape[0])})
    return feasible, (res.x if feasible else None), report


# --- recording the LPs -------------------------------------------------------------


def _clean_bounds(bounds, n):
    """Bounds as linprog reads them: an n x 2 array, None as -inf/inf."""
    arr = np.atleast_2d(np.array(bounds, dtype=float))
    if arr.shape != (n, 2):
        arr = np.tile(arr.ravel(), (n, 1))
    arr[np.isnan(arr[:, 0]), 0] = -np.inf
    arr[np.isnan(arr[:, 1]), 1] = np.inf
    return arr


def _rows_as_solved(A, n):
    """A dense constraint block as linprog hands it to HiGHS: through CSC,
    which keeps no zero, so -0.0 reads 0.0; None is a block of no rows."""
    if A is None:
        return np.zeros((0, n))
    return csc_array(np.asarray(A, dtype=float)).toarray()


def _linprog_recorder(log):
    """Logs each LP a frozen copy hands scipy's linprog, then solves it."""
    def record(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, method=None):
        c = np.asarray(c, dtype=float)
        n = len(c)
        log.append({"c": c.copy(), "A_ub": _rows_as_solved(A_ub, n),
                    "b_ub": np.array([] if b_ub is None else b_ub, dtype=float),
                    "A_eq": _rows_as_solved(A_eq, n),
                    "b_eq": np.array([] if b_eq is None else b_eq, dtype=float),
                    "bounds": _clean_bounds(bounds, n)})
        assert method == "highs"
        return optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                bounds=bounds, method=method)
    return record


@pytest.fixture
def recorded(monkeypatch):
    """Two logs: the LPs the library solves through ``lp.solve`` and the
    LPs the frozen copies solve through scipy's linprog."""
    new, old = [], []
    monkeypatch.setattr(checks, "solve", solve_recorder(new))
    monkeypatch.setattr(sys.modules[__name__], "linprog", _linprog_recorder(old))
    return new, old


def _assert_same_lps(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        for key in ("c", "A_ub", "b_ub", "A_eq", "b_eq", "bounds"):
            assert a[key].shape == b[key].shape, key
            assert a[key].tobytes() == b[key].tobytes(), key


def _assert_same_report(new, old):
    assert (new.name, new.passed, new.worst_violation, new.violations, new.vacuous) == \
        (old.name, old.passed, old.worst_violation, old.violations, old.vacuous)
    for key, value in old.diagnostics.items():
        assert new.diagnostics[key] == value, key


def _clear_caches():
    for compiled in (checks._compile_sarpd, checks._compile_hierarchy, checks._compile_bm):
        compiled.cache_clear()


# --- inputs ------------------------------------------------------------------------------


def _demand(budgets, periods, maps):
    uni, patches, _ = demand_universe(budgets, periods, index_maps=maps)
    statics = [build_static_A(uni, t, enumerate_demand_types(patches[t], budgets[t])[0])
               for t in periods]
    paths = sorted(itertools.product(*[uni.menu_indices(t) for t in periods]))
    return {"universe": uni, "budgets": budgets, "patches": patches,
            "AT": kron_dynamic(statics, paths, uni)}


@pytest.fixture(scope="module")
def geometries():
    simple1 = _demand(catalog.simple_budgets((1,)), (1,), catalog.SIMPLE_INDEX_MAPS)
    simple2 = _demand(catalog.simple_budgets((1, 2)), (1, 2), catalog.SIMPLE_INDEX_MAPS)
    d3 = _demand(catalog.demand3x3_budgets((1,)), (1,), catalog.DEMAND3X3_INDEX_MAPS)
    out = {"simple1": simple1, "simple2": simple2, "demand3x3": d3}
    for T in (1, 2):
        uni = catalog.binary_universe(periods=tuple(range(1, T + 1)))
        out[f"binary{T}"] = _binary(uni, sorted(itertools.product(uni.menu_indices(1), repeat=T)))
    # x over z declared in both periods gives the extension LP zero upper
    # bounds; both binary T=2 universes also on 6 and on 3 of the 9 menu paths
    plain = out["binary2"]["universe"]
    ordered = ChoiceUniverse(plain.periods, plain.alternatives, plain.menus,
                             {t: [({"x"}, {"z"})] for t in plain.periods})
    paths = sorted(itertools.product(plain.menu_indices(1), repeat=2))
    out["binary2_ordered"] = _binary(ordered, paths)
    for name, uni in (("binary2", plain), ("binary2_ordered", ordered)):
        out[f"{name}_6of9"] = _binary(uni, paths[:6])
        out[f"{name}_3of9"] = _binary(uni, paths[::4])
    return out


def _binary(uni, paths):
    statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in uni.periods]
    return {"universe": uni, "AT": kron_dynamic(statics, paths, uni)}


def _mixture(geom, seed, concentration=1.0):
    rng = np.random.default_rng(seed)
    n = geom["AT"].shape[1]
    return rho_from_weights(geom["universe"], geom["AT"], rng.dirichlet(np.full(n, concentration)))


def _catalog_H_list(uni, kind):
    return [catalog_H(kind, uni, t) for t in uni.periods]


HIERARCHY_CASES = [("simple1", "simple", (1,)), ("simple2", "simple", (1, 2)),
                   ("simple2", "simple", (1, 1)), ("binary2", "binary", (1, 2)),
                   ("demand3x3", "demand3x3", (1,))]


def _compare_sarpd(rho, geom, recorded):
    new_log, old_log = recorded
    _clear_caches()
    new = check_sarpd(rho, geom["budgets"], geom["patches"])
    old = _legacy_check_sarpd(rho, geom["budgets"], geom["patches"])
    _assert_same_report(new, old)
    _assert_same_lps(new_log, old_log)
    # one period has no pair of distinct cells, so no LP
    assert bool(new_log) == (rho.universe.num_periods > 1)
    # a hit solves nothing and gives the same report
    new_log.clear()
    _assert_same_report(check_sarpd(rho, geom["budgets"], geom["patches"]), old)
    assert new_log == []
    old_log.clear()


def _compare_hierarchy(rho, H_list, k, recorded):
    new_log, old_log = recorded
    new = hierarchy_feasible(rho, H_list, k)
    old = _legacy_hierarchy_feasible(rho, H_list, k)
    assert new[0] == old[0]
    assert (new[1] is None) == (old[1] is None)
    if new[1] is not None:
        assert new[1].tobytes() == old[1].tobytes()
    _assert_same_report(new[2], old[2])
    _assert_same_lps(new_log, old_log)
    new_log.clear()
    old_log.clear()


def _compare_bm(rho, recorded):
    new_log, old_log = recorded
    new = bm_extension_feasible(rho)
    old = _legacy_bm_extension_feasible(rho)
    assert new[0] == old[0]
    _assert_same_report(new[2], old[2])
    if new[1] is not None:
        assert new[1].universe == old[1].universe
        assert set(new[1].probs) == set(old[1].probs)
        for path, vec in old[1].probs.items():
            assert new[1].probs[path].tobytes() == vec.tobytes()
    else:
        assert old[1] is None
    _assert_same_lps(new_log, old_log)
    new_log.clear()
    old_log.clear()


# --- equivalence -----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["simple1", "simple2", "demand3x3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sarpd_matches_frozen_copy(geometries, recorded, name, seed):
    geom = geometries[name]
    _compare_sarpd(_mixture(geom, seed), geom, recorded)


@pytest.mark.parametrize("name,kind,k", HIERARCHY_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hierarchy_matches_frozen_copy(geometries, recorded, name, kind, k, seed):
    geom = geometries[name]
    rho = _mixture(geom, seed)
    H_list = _catalog_H_list(geom["universe"], kind)
    _clear_caches()
    _compare_hierarchy(rho, H_list, k, recorded)   # miss
    _compare_hierarchy(rho, H_list, k, recorded)   # hit


@pytest.mark.parametrize("name", ["simple1", "binary1", "binary2", "binary2_ordered",
                                  "binary2_6of9", "binary2_3of9", "binary2_ordered_6of9",
                                  "binary2_ordered_3of9"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bm_extension_matches_frozen_copy(geometries, recorded, name, seed):
    rho = _mixture(geometries[name], seed)
    _clear_caches()
    _compare_bm(rho, recorded)
    _compare_bm(rho, recorded)


@pytest.mark.parametrize("name", ["simple1", "binary1", "binary2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bm_witness_equals_a_validated_build(geometries, name, seed):
    feasible, witness, _ = bm_extension_feasible(_mixture(geometries[name], seed))
    assert feasible
    validated = StochasticChoiceFunction(witness.universe, witness.probs)
    assert validated.universe == witness.universe
    assert validated.counts is witness.counts is None
    assert validated.choice_counts is witness.choice_counts is None
    assert list(validated.probs) == list(witness.probs)
    for path, vec in validated.probs.items():
        assert witness.probs[path].tobytes() == vec.tobytes()


@pytest.mark.parametrize("table", ["table5_rho", "table9_rho"])
def test_published_tables_match_frozen_copies(geometries, recorded, request, table):
    rho = request.getfixturevalue(table)
    geom = geometries["simple2"]
    _compare_sarpd(rho, geom, recorded)
    _clear_caches()
    for k in ((1, 1), (1, 2)):
        _compare_hierarchy(rho, _catalog_H_list(rho.universe, "simple"), k, recorded)
    with pytest.raises(SizeError):
        bm_extension_feasible(rho)
    with pytest.raises(SizeError):
        _legacy_bm_extension_feasible(rho)


def test_table9_sarpd_marks_mass(geometries, table9_rho):
    """Table 9 carries mass on cyclic choice paths; the report lists them
    and counts the marked paths and cells."""
    geom = geometries["simple2"]
    report = check_sarpd(table9_rho, geom["budgets"], geom["patches"])
    assert report.diagnostics["cyclic_choice_paths"] >= len(report.violations) > 0
    assert report.diagnostics["cells"] == 4


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), concentration=st.sampled_from([0.2, 1.0, 5.0]),
       name=st.sampled_from(["simple2", "binary2"]))
def test_dirichlet_mixtures_match_frozen_copies(geometries, seed, concentration, name):
    geom = geometries[name]
    rho = _mixture(geom, seed, concentration)
    if name == "simple2":
        new = check_sarpd(rho, geom["budgets"], geom["patches"])
        _assert_same_report(new, _legacy_check_sarpd(rho, geom["budgets"], geom["patches"]))
        H_list = _catalog_H_list(geom["universe"], "simple")
    else:
        new_bm, old_bm = bm_extension_feasible(rho), _legacy_bm_extension_feasible(rho)
        assert new_bm[0] == old_bm[0] is True
        _assert_same_report(new_bm[2], old_bm[2])
        H_list = _catalog_H_list(geom["universe"], "binary")
    new_h = hierarchy_feasible(rho, H_list, (1, 2))
    old_h = _legacy_hierarchy_feasible(rho, H_list, (1, 2))
    assert new_h[0] == old_h[0] is True
    _assert_same_report(new_h[2], old_h[2])


# --- diagnostics -------------------------------------------------------------------------


OPTIMAL = "Optimization terminated successfully. (HiGHS Status 7: Optimal)"


def test_lp_checks_report_solver_diagnostics(geometries):
    geom = geometries["binary2"]
    rho = _mixture(geom, 0)
    _, _, bm = bm_extension_feasible(rho)
    _, _, hier = hierarchy_feasible(rho, _catalog_H_list(geom["universe"], "binary"), (1, 2))
    for report in (bm, hier):
        solver = report.diagnostics["solver"]
        assert solver == {"status": 0, "message": OPTIMAL}
        assert {"variables", "inequality_rows"} <= set(report.diagnostics)
        assert report.to_dict()["diagnostics"]["solver"] == solver
    assert hier.diagnostics["variables"] == 64


# --- the compiled models as caches ---------------------------------------------------------


class TestCompiledCaches:
    def test_arrays_handed_to_the_solver_are_read_only(self, geometries, monkeypatch):
        log = []
        monkeypatch.setattr(checks, "solve", solve_recorder(log))
        geom = geometries["binary2"]
        rho = _mixture(geom, 3)
        bm_extension_feasible(rho)
        hierarchy_feasible(rho, _catalog_H_list(geom["universe"], "binary"), (1, 2))
        assert len(log) == 2
        for entry in log:
            lp = entry["lp"]
            for array in (lp.A.data, lp.A.indices, lp.A.indptr, lp.lower, lp.upper,
                          lp.bounds.lb, lp.bounds.ub):
                assert isinstance(array, np.ndarray) and not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_two_geometries_alternate_without_crosstalk(self, geometries):
        _clear_caches()
        simple, d3 = geometries["simple2"], geometries["demand3x3"]
        cases = [(_mixture(simple, 5), simple), (_mixture(d3, 5), d3)]
        expected = [_legacy_check_sarpd(rho, g["budgets"], g["patches"]) for rho, g in cases]
        for _ in range(2):
            for (rho, g), old in zip(cases, expected):
                _assert_same_report(check_sarpd(rho, g["budgets"], g["patches"]), old)
        assert checks._compile_sarpd.cache_info().misses == 2

        binary = geometries["binary2"]
        hier = [(_mixture(simple, 6), _catalog_H_list(simple["universe"], "simple")),
                (_mixture(binary, 6), _catalog_H_list(binary["universe"], "binary"))]
        old_hier = [_legacy_hierarchy_feasible(rho, H, (1, 2)) for rho, H in hier]
        bm = [_mixture(geometries["binary1"], 6), _mixture(binary, 6)]
        old_bm = [_legacy_bm_extension_feasible(rho) for rho in bm]
        for _ in range(2):
            for (rho, H), old in zip(hier, old_hier):
                _assert_same_report(hierarchy_feasible(rho, H, (1, 2))[2], old[2])
            for rho, old in zip(bm, old_bm):
                _assert_same_report(bm_extension_feasible(rho)[2], old[2])
        assert checks._compile_hierarchy.cache_info().misses == 2
        assert checks._compile_bm.cache_info().misses == 2

    def test_universes_read_twice_share_one_model(self, geometries, tmp_path):
        """Two reads of one universe file are equal values, so the second
        extension check on them meets the model the first compiled."""
        geom = geometries["binary2"]
        io.write_universe(geom["universe"], tmp_path / "universe.json")
        first, second = (io.read_universe(tmp_path / "universe.json") for _ in range(2))
        assert first is not second and first == second and hash(first) == hash(second)
        probs = _mixture(geom, 4).probs
        _clear_caches()
        reports = [bm_extension_feasible(StochasticChoiceFunction(uni, probs))[2]
                   for uni in (first, second)]
        assert checks._compile_bm.cache_info()[:2] == (1, 1)  # (hits, misses)
        _assert_same_report(*reports)

    def test_mismatched_universe_raises_on_a_hit(self, geometries):
        """Budgets, patches and observed menu paths of a compiled geometry
        with a universe whose menus are not the patches' raise."""
        geom = geometries["simple2"]
        check_sarpd(_mixture(geom, 0), geom["budgets"], geom["patches"])
        uni = geom["universe"]
        # budget 1 has two open patches and one intersection patch (1, 3)
        extra = ((1, 3), (1, 4))
        alternatives = {t: tuple(uni.alternatives[t]) + extra for t in uni.periods}
        menus = {t: (Menu(1, ((1, 1), (1, 2)) + extra), uni.menu(t, 2)) for t in uni.periods}
        wide = ChoiceUniverse(uni.periods, alternatives, menus)
        probs = {path: np.full(len(wide.choice_paths(path)), 1 / len(wide.choice_paths(path)))
                 for path in itertools.product((1, 2), repeat=2)}
        with pytest.raises(SchemaError, match="not a patch"):
            check_sarpd(StochasticChoiceFunction(wide, probs), geom["budgets"],
                        geom["patches"])

    def test_size_guards_fire_before_any_build(self, geometries, monkeypatch):
        geom = geometries["binary2"]
        rho = _mixture(geom, 0)
        H_list = _catalog_H_list(geom["universe"], "binary")
        # compiled once, so a small guard meets a cache hit
        hierarchy_feasible(rho, H_list, (1, 2))
        bm_extension_feasible(rho)

        def refuse(*args, **kwargs):
            raise AssertionError("built past the size guard")

        for name in ("_compile_hierarchy", "_compile_bm", "projection_ops", "bm_matrix"):
            monkeypatch.setattr(checks, name, refuse)
        monkeypatch.setattr(checks.np, "kron", refuse)
        with monkeypatch.context() as small:
            small.setattr(checks, "HIERARCHY_ENTRY_GUARD", 1000)
            small.setattr(checks, "BM_ENTRY_GUARD", 1000)
            with pytest.raises(SizeError, match="size guard"):
                hierarchy_feasible(rho, H_list, (1, 2))
            with pytest.raises(SizeError, match="size guard"):
                bm_extension_feasible(rho)
        with pytest.raises(SizeError, match="size guard"):
            hierarchy_feasible(rho, H_list, (1, 6))
        with pytest.raises(SizeError, match="size guard"):
            bm_extension_feasible(_mixture(geometries["simple2"], 0))
