"""Counterfactual bounds: extension LPs and the mixture-side cross-check."""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from drumtest import catalog, counterfactuals
from drumtest.checks import check_d_monotonicity, check_stability, dominance_from_universe
from drumtest.counterfactuals import (CounterfactualProblem, bound_functional,
                                      kron_counterfactual_cone)
from drumtest.errors import ModelRejectedError, ParameterError, SchemaError
from drumtest.geometry import Budget, compute_patches, demand_universe, enumerate_demand_types
from drumtest.model import ChoiceUniverse, Menu, StochasticChoiceFunction
from drumtest.representations import build_static_A, kron_dynamic

from conftest import rho_from_weights, solve_recorder


def _new_budgets():
    return [Budget("next", 1, (Fraction(2), Fraction(1)), Fraction(1)),
            Budget("next", 2, (Fraction(1), Fraction(2)), Fraction(1))]


def _problem(rho, budgets, g_lower, g_upper, **kw):
    return CounterfactualProblem(rho, budgets, _new_budgets(), g_lower, g_upper, **kw)


def _patch_labels():
    patches, _ = compute_patches(_new_budgets())
    return [p.label for p in patches if not p.is_intersection]


class TestBoundFunctional:
    def test_constant_functional_pins_bounds(self, simple_setup):
        rng = np.random.default_rng(0)
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                               rng.dirichlet(np.ones(9)))
        labels = _patch_labels()
        g = {lbl: 0.37 for lbl in labels}
        report = bound_functional(_problem(rho, simple_setup["budgets"], g, g))
        assert report.lower == pytest.approx(0.37, abs=1e-8)
        assert report.upper == pytest.approx(0.37, abs=1e-8)

    def test_zero_functional(self, simple_setup):
        rng = np.random.default_rng(1)
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                               rng.dirichlet(np.ones(9)))
        labels = _patch_labels()
        zero = {lbl: 0.0 for lbl in labels}
        report = kron_counterfactual_cone(_problem(rho, simple_setup["budgets"], zero, zero))
        assert report.lower == pytest.approx(0.0, abs=1e-9)
        assert report.upper == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_type_matches_enumeration(self, simple_setup):
        """A single observed type extends by exactly three one-period types;
        the bounds coincide with the min/max over those extensions."""
        uni = simple_setup["universe"]
        for col, col_label in enumerate(simple_setup["AT"].col_labels):
            if col != 4:
                continue
            nu = np.eye(9)[col]
            rho = rho_from_weights(uni, simple_setup["AT"], nu)
            labels = _patch_labels()
            rng = np.random.default_rng(2)
            g = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
            problem = _problem(rho, simple_setup["budgets"], g, g, target_budget=1)
            report = bound_functional(problem)
            # brute force: extend the type by each one-period type
            new_budgets = _new_budgets()
            patches, _ = compute_patches(new_budgets)
            types, _ = enumerate_demand_types(patches, new_budgets)
            values = []
            for tp in types:
                i = tp[0]  # patch chosen on the target budget
                values.append(g[(1, i)])
            assert report.lower == pytest.approx(min(values), abs=1e-8)
            assert report.upper == pytest.approx(max(values), abs=1e-8)

    def test_routes_agree(self, simple_setup):
        rng = np.random.default_rng(3)
        labels = _patch_labels()
        for _ in range(10):
            rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                                   rng.dirichlet(np.ones(9)))
            lo = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
            hi = {lbl: lo[lbl] + float(v) for lbl, v in zip(labels, rng.random(4))}
            problem = _problem(rho, simple_setup["budgets"], lo, hi)
            a = bound_functional(problem)
            b = kron_counterfactual_cone(problem)
            assert a.lower == pytest.approx(b.lower, abs=1e-8)
            assert a.upper == pytest.approx(b.upper, abs=1e-8)

    def test_conditional_bounds(self, simple_setup):
        rng = np.random.default_rng(4)
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                               rng.dirichlet(np.ones(9)))
        labels = _patch_labels()
        g = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
        problem = _problem(rho, simple_setup["budgets"], g, g,
                           condition=((1, 1), (1, 1)))
        a = bound_functional(problem)
        b = kron_counterfactual_cone(problem)
        assert a.lower == pytest.approx(b.lower, abs=1e-7)
        assert a.upper == pytest.approx(b.upper, abs=1e-7)
        assert a.lower <= a.upper + 1e-12

    def test_zero_mass_condition_rejected(self, simple_setup):
        nu = np.eye(9)[0]
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        labels = _patch_labels()
        g = {lbl: 1.0 for lbl in labels}
        problem = _problem(rho, simple_setup["budgets"], g, g,
                           condition=((1, 1), (2, 2)))
        with pytest.raises(ParameterError, match="zero mass"):
            bound_functional(problem)

    def test_inconsistent_data_rejected(self, simple_setup, table9_rho):
        labels = _patch_labels()
        g = {lbl: 1.0 for lbl in labels}
        with pytest.raises(ModelRejectedError):
            bound_functional(_problem(table9_rho, simple_setup["budgets"], g, g))

    def test_projection_option_restores_feasibility(self, simple_setup, table9_rho):
        labels = _patch_labels()
        g = {lbl: float(k) for k, lbl in enumerate(labels)}
        problem = _problem(table9_rho, simple_setup["budgets"], g, g)
        report = bound_functional(problem, project_onto_cone=True)
        assert report.lower <= report.upper

    def test_bounds_tighten_with_longer_window(self, simple_setup):
        """Observing a second period never widens the bounds computed from
        the first period's marginal alone."""
        rng = np.random.default_rng(5)
        uni2 = simple_setup["universe"]
        budgets1 = {1: simple_setup["budgets"][1]}
        uni1, _, _ = demand_universe(budgets1, (1,), index_maps=catalog.SIMPLE_INDEX_MAPS)
        labels = _patch_labels()
        for _ in range(5):
            nu = rng.dirichlet(np.ones(9))
            rho2 = rho_from_weights(uni2, simple_setup["AT"], nu)
            marg = {}
            for j1 in (1, 2):
                vec = np.zeros(2)
                # period-1 marginal from any second menu (stability holds)
                order = uni2.choice_paths((j1, 1))
                arr = np.asarray(rho2.probs[(j1, 1)], float)
                for cp, v in zip(order, arr):
                    vec[cp[0] - 1] += v
                marg[(j1,)] = vec
            rho1 = StochasticChoiceFunction(uni1, marg)
            g_lo = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
            g_hi = {lbl: g_lo[lbl] + 0.5 for lbl in labels}
            p2 = _problem(rho2, simple_setup["budgets"], g_lo, g_hi)
            p1 = CounterfactualProblem(rho1, budgets1, _new_budgets(), g_lo, g_hi)
            b2 = bound_functional(p2)
            b1 = bound_functional(p1)
            assert b1.lower <= b2.lower + 1e-8
            assert b2.upper <= b1.upper + 1e-8


# --- the compiled model against a frozen copy of the per-call row builders ----------

def _legacy_layout(problem):
    rho = problem.rho
    combined = dict(problem.budgets)
    combined["next"] = list(problem.new_budgets)
    ext, patches, _ = demand_universe(combined, tuple(rho.universe.periods) + ("next",))
    var_index = {}
    for path in rho.observed_paths:
        for menu in ext.menus["next"]:
            ext_path = tuple(path) + (menu.index,)
            for cp in ext.choice_paths(ext_path):
                var_index[(ext_path, cp)] = len(var_index)
    return ext, patches, var_index


def _legacy_monotonicity_rows(ext, var_index):
    dominance = dominance_from_universe(ext)
    periods = ext.periods
    observed_ext = sorted({path for path, _ in var_index})
    lookup = set(var_index)
    rows = []
    t_positions = [k for k, t in enumerate(periods) if dominance.get(t)]
    for size in range(1, len(t_positions) + 1):
        for subseq in itertools.combinations(t_positions, size):
            for combo in itertools.product(*[dominance[periods[k]] for k in subseq]):
                base_menu = {k: pair[1][0] for k, pair in zip(subseq, combo)}
                base_choice = {k: pair[1][1] for k, pair in zip(subseq, combo)}
                repl_menu = {k: pair[0][0] for k, pair in zip(subseq, combo)}
                repl_choice = {k: pair[0][1] for k, pair in zip(subseq, combo)}
                off = [k for k in range(len(periods)) if k not in subseq]
                seen_off = set()
                for path in observed_ext:
                    if any(path[k] != j for k, j in base_menu.items()):
                        continue
                    off_menu = {k: path[k] for k in off}
                    key = tuple(sorted(off_menu.items()))
                    if key in seen_off:
                        continue
                    seen_off.add(key)
                    ranges = [range(1, ext.menu(periods[k], off_menu[k]).size + 1)
                              for k in off]
                    for off_choice_vals in itertools.product(*ranges):
                        off_choice = dict(zip(off, off_choice_vals))
                        row = {}
                        ok = True
                        for S in itertools.chain.from_iterable(
                                itertools.combinations(subseq, m) for m in range(size + 1)):
                            menu_path = tuple(
                                repl_menu[k] if k in S else base_menu.get(k, off_menu.get(k))
                                for k in range(len(periods)))
                            cp = tuple(
                                repl_choice[k] if k in S
                                else base_choice.get(k, off_choice.get(k))
                                for k in range(len(periods)))
                            if (menu_path, cp) not in lookup:
                                ok = False
                                break
                            idx = var_index[(menu_path, cp)]
                            row[idx] = row.get(idx, 0.0) + (-1) ** (size - len(S))
                        if ok and row:
                            rows.append(row)
    return rows


def _legacy_stability_rows(ext, var_index):
    observed_ext = sorted({path for path, _ in var_index})
    rows = []
    for t_pos in range(len(ext.periods)):
        groups = {}
        for path in observed_ext:
            groups.setdefault(tuple(v for k, v in enumerate(path) if k != t_pos),
                              []).append(path)
        for paths in groups.values():
            if len(paths) < 2:
                continue
            base = paths[0]
            base_order = ext.choice_paths(base)
            off_choices = sorted({tuple(v for k, v in enumerate(cp) if k != t_pos)
                                  for cp in base_order})
            for other in paths[1:]:
                for oc in off_choices:
                    row = {}
                    for sign, path in ((1.0, base), (-1.0, other)):
                        for cp in ext.choice_paths(path):
                            if tuple(v for k, v in enumerate(cp) if k != t_pos) == oc:
                                idx = var_index[(path, cp)]
                                row[idx] = row.get(idx, 0.0) + sign
                    rows.append(row)
    return rows


def _legacy_to_matrix(rows, n):
    M = np.zeros((len(rows), n))
    for r, row in enumerate(rows):
        for c, v in row.items():
            M[r, c] = v
    return M


def _legacy_extension_lp(problem):
    rho = problem.rho
    uni = rho.universe
    ext, _, var_index = _legacy_layout(problem)
    n = len(var_index)
    eq_rows, eq_b = [], []
    for path in rho.observed_paths:
        arr = np.asarray(rho.probs[path], dtype=float)
        for menu in ext.menus["next"]:
            ext_path = tuple(path) + (menu.index,)
            for cp, val in zip(uni.choice_paths(path), arr):
                eq_rows.append({var_index[(ext_path, tuple(cp) + (i,))]: 1.0
                                for i in range(1, menu.size + 1)})
                eq_b.append(float(val))
    for row in _legacy_stability_rows(ext, var_index):
        eq_rows.append(row)
        eq_b.append(0.0)
    mono = _legacy_monotonicity_rows(ext, var_index)
    target = problem.target_budget
    new_menu = ext.menu("next", target)

    def objective(g_map):
        c = np.zeros(n)
        if problem.condition is not None:
            cond_path, cond_cp = map(tuple, problem.condition)
            mass = rho.prob(cond_path, cond_cp)
            for i in range(1, new_menu.size + 1):
                c[var_index[(cond_path + (target,), cond_cp + (i,))]] = \
                    g_map[new_menu.items[i - 1]] / mass
        else:
            ref_path = tuple(rho.observed_paths[0])
            for cp in uni.choice_paths(ref_path):
                for i in range(1, new_menu.size + 1):
                    c[var_index[(ref_path + (target,), tuple(cp) + (i,))]] = \
                        g_map[new_menu.items[i - 1]]
        return c

    return {"c": [objective(problem.g_lower), -objective(problem.g_upper)],
            "A_ub": -_legacy_to_matrix(mono, n), "b_ub": np.zeros(len(mono)),
            "A_eq": _legacy_to_matrix(eq_rows, n), "b_eq": np.array(eq_b)}


def _legacy_mixture_lp(problem):
    rho = problem.rho
    uni = rho.universe
    ext, patches, _ = _legacy_layout(problem)
    statics = [build_static_A(uni, t, enumerate_demand_types(patches[t], problem.budgets[t])[0])
               for t in uni.periods]
    new_static = build_static_A(
        ext, "next", enumerate_demand_types(patches["next"], problem.new_budgets)[0])
    A_obs = kron_dynamic(statics, rho.observed_paths, uni)
    obs_dense = A_obs.dense().astype(float)
    vec = np.concatenate([np.asarray(rho.probs[p], dtype=float)
                          for p in sorted(rho.observed_paths)])
    target = problem.target_budget
    new_menu = ext.menu("next", target)
    new_dense = new_static.dense().astype(float)
    new_rows = {lab: r for r, lab in enumerate(new_static.row_labels)}
    obs_row_index = {lab: r for r, lab in enumerate(A_obs.row_labels)}

    def objective(g_map):
        g_row = np.zeros(len(new_static.col_labels))
        for i in range(1, new_menu.size + 1):
            g_row += g_map[new_menu.items[i - 1]] * new_dense[new_rows[(target, i)]]
        if problem.condition is not None:
            cond_path, cond_cp = map(tuple, problem.condition)
            mass = rho.prob(cond_path, cond_cp)
            return np.kron(obs_dense[obs_row_index[(cond_path, cond_cp)]], g_row) / mass
        ref = tuple(rho.observed_paths[0])
        obs_row = np.sum([obs_dense[obs_row_index[(ref, cp)]]
                          for cp in uni.choice_paths(ref)], axis=0)
        return np.kron(obs_row, g_row)

    return {"c": [objective(problem.g_lower), -objective(problem.g_upper)],
            "A_eq": np.kron(obs_dense, np.ones((1, len(new_static.col_labels)))),
            "b_eq": vec}


def _recorded_solves(monkeypatch):
    """Route counterfactuals.solve through a recorder of the LPs it solves."""
    calls = []
    monkeypatch.setattr(counterfactuals, "solve", solve_recorder(calls))
    return calls


def _solve_legacy(lp):
    n = lp["A_eq"].shape[1]
    kwargs = {k: lp[k] for k in ("A_ub", "b_ub", "A_eq", "b_eq") if k in lp}
    results = [linprog(c, bounds=[(0, None)] * n, method="highs", **kwargs) for c in lp["c"]]
    return float(results[0].fun), float(-results[1].fun)


@pytest.mark.parametrize("target", [1, 2])
@pytest.mark.parametrize("conditional", [False, True])
def test_model_solves_the_frozen_lps(simple_setup, monkeypatch, target, conditional):
    rng = np.random.default_rng(40 + target)
    labels = _patch_labels()
    for _ in range(3):
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                               rng.dirichlet(np.ones(9)))
        lo = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
        hi = {lbl: lo[lbl] + float(v) for lbl, v in zip(labels, rng.random(4))}
        condition = ((1, 2), (2, 1)) if conditional else None
        # all four menu paths, and three of them
        three = StochasticChoiceFunction(rho.universe, {p: v for p, v in rho.probs.items()
                                                        if p != (2, 2)})
        for observed in (rho, three):
            problem = _problem(observed, simple_setup["budgets"], lo, hi, target_budget=target,
                               condition=condition)
            for route, legacy in ((bound_functional, _legacy_extension_lp),
                                  (kron_counterfactual_cone, _legacy_mixture_lp)):
                calls = _recorded_solves(monkeypatch)
                report = route(problem)
                frozen = legacy(problem)
                assert len(calls) == 2
                for lp, c_frozen in zip(calls, frozen["c"]):
                    assert np.array_equal(lp["c"], c_frozen)
                    assert np.array_equal(lp["bounds"],
                                          np.tile([0.0, np.inf], (len(c_frozen), 1)))
                    for key in ("A_ub", "b_ub", "A_eq", "b_eq"):
                        if key not in frozen:  # the mixture route has no inequality rows
                            assert len(lp[key]) == 0, key
                            continue
                        assert lp[key].shape == frozen[key].shape
                        assert np.array_equal(lp[key], frozen[key]), key
                assert (report.lower, report.upper) == _solve_legacy(frozen)


class TestModelCache:
    def _problem(self, simple_setup, seed, **kw):
        rng = np.random.default_rng(seed)
        labels = _patch_labels()
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                               rng.dirichlet(np.ones(9)))
        g = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
        return _problem(rho, simple_setup["budgets"], g, g, target_budget=1, **kw)

    def test_model_arrays_are_read_only(self, simple_setup):
        problem = self._problem(simple_setup, 0)
        model = counterfactuals._model_for(problem)
        arrays = [model.marginal_rows, model.observed.matrix, model.new_static.matrix]
        for lp in (model.extension, model.mixture):
            arrays += [lp.A.data, lp.A.indices, lp.A.indptr, lp.lower, lp.upper,
                       lp.bounds.lb, lp.bounds.ub]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 1
        with pytest.raises(TypeError):
            model.columns[("x", "y")] = 0
        assert counterfactuals._model_for(problem) is model

    def test_hits_give_each_problem_its_own_bounds(self, simple_setup):
        problems = [self._problem(simple_setup, 1),
                    self._problem(simple_setup, 2),
                    self._problem(simple_setup, 3, condition=((2, 1), (1, 2))),
                    self._problem(simple_setup, 3, condition=((1, 1), (2, 2)))]
        counterfactuals._compile.cache_clear()
        warm = [(bound_functional(p), kron_counterfactual_cone(p)) for p in problems]
        # one miss, then every solve is a hit
        assert counterfactuals._compile.cache_info().misses == 1
        for p, (a, b) in zip(problems, warm):
            assert (a.lower, a.upper) == _solve_legacy(_legacy_extension_lp(p))
            assert (b.lower, b.upper) == _solve_legacy(_legacy_mixture_lp(p))
            counterfactuals._compile.cache_clear()
            cold = bound_functional(p)
            assert (cold.lower, cold.upper) == (a.lower, a.upper)

    def test_mismatched_universe_raises_on_a_hit(self, simple_setup):
        problem = self._problem(simple_setup, 4)
        bound_functional(problem)
        uni = simple_setup["universe"]
        # same menu paths and sizes, but the patches are listed in another order
        menus = {t: tuple(Menu(m.index, m.items[::-1]) for m in uni.menus[t])
                 for t in uni.periods}
        swapped = ChoiceUniverse(uni.periods, uni.alternatives, menus)
        rho = StochasticChoiceFunction(swapped, dict(problem.rho.probs))
        mismatched = _problem(rho, simple_setup["budgets"], problem.g_lower, problem.g_upper)
        hits = counterfactuals._compile.cache_info().hits
        for route in (bound_functional, kron_counterfactual_cone):
            with pytest.raises(SchemaError, match="does not match the supplied budgets"):
                route(mismatched)
        assert counterfactuals._compile.cache_info().hits == hits + 2


    def test_geometry_warnings_repeat_on_a_hit(self, simple_setup, monkeypatch):
        real = counterfactuals.demand_universe

        def warning_universe(*args, **kwargs):
            warnings.warn("dominance used the conservative representative check")
            return real(*args, **kwargs)

        monkeypatch.setattr(counterfactuals, "demand_universe", warning_universe)
        counterfactuals._compile.cache_clear()
        try:
            problem = self._problem(simple_setup, 5)
            for _ in range(2):
                with pytest.warns(UserWarning, match="conservative") as caught:
                    kron_counterfactual_cone(problem)
                assert len(caught) == 1
            assert counterfactuals._compile.cache_info().hits == 1
        finally:
            counterfactuals._compile.cache_clear()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), concentration=st.floats(0.1, 5.0),
       target=st.sampled_from([1, 2]), conditional=st.booleans())
def test_mixtures_pass_checks_and_routes_agree(simple_setup, seed, concentration, target,
                                               conditional):
    rng = np.random.default_rng(seed)
    rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                           rng.dirichlet(np.full(9, concentration)))
    assert check_stability(rho).passed
    assert check_d_monotonicity(rho).passed
    labels = _patch_labels()
    lo = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
    hi = {lbl: lo[lbl] + float(v) for lbl, v in zip(labels, rng.random(4))}
    condition = None
    if conditional:
        path = (1, 2)
        cp = simple_setup["universe"].choice_paths(path)[int(np.argmax(rho.probs[path]))]
        condition = (path, cp)
    problem = _problem(rho, simple_setup["budgets"], lo, hi, target_budget=target,
                       condition=condition)
    a = bound_functional(problem)
    b = kron_counterfactual_cone(problem)
    assert a.lower <= a.upper + 1e-9
    assert a.lower == pytest.approx(b.lower, abs=1e-7)
    assert a.upper == pytest.approx(b.upper, abs=1e-7)
