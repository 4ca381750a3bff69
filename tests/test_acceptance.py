"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criterion runs at desk scale (300 simulations, 199
bootstrap replications) and dominates the suite's runtime.
"""

import itertools
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog, nnls
from scipy.special import ndtr

from drumtest import catalog
from drumtest.checks import (bm_extension_feasible, check_H, check_d_monotonicity,
                             check_stability, cone_membership, hierarchy_feasible,
                             reduced_static_labels, unique_recovery)
from drumtest.counterfactuals import CounterfactualProblem, bound_functional, kron_counterfactual_cone
from drumtest.doubledesc import convert_V_to_H
from drumtest.geometry import Budget, compute_patches, demand_universe, enumerate_demand_types
from drumtest.inference import TestConfig, run_test, run_test_eu
from drumtest.model import StochasticChoiceFunction, estimate_rho
from drumtest.representations import (bm_matrix, build_static_A, catalog_H,
                                      drum_bm_values, enumerate_orders, full_pair_lists,
                                      kron_dynamic, kron_inequalities, pair_vector,
                                      projection_ops, reduce_H, virtual_universe)
from drumtest.simulate import (DgpSpec, agents_per_path_for, build_universe,
                               run_experiment, simulate, type_matrix_for)

from conftest import rho_from_weights
from test_representations import (TABLE_A_BINARY, TABLE_A_SIMPLE, TABLE_AT_SIMPLE,
                                  TABLE_H_3X3, TABLE_H_BINARY, TABLE_H_SIMPLE,
                                  table_a_3x3)

N_JOBS = min(2, os.cpu_count() or 1)


def _report(criterion, passed, detail=""):
    flag = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {flag} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestCriterion1MatrixReproduction:
    def test_matrices(self, binary_uni_T1, simple_setup, demand3x3_setup):
        t0 = time.perf_counter()
        A_bin = build_static_A(binary_uni_T1, 1, enumerate_orders(binary_uni_T1, 1))
        ok = np.array_equal(A_bin.dense(), TABLE_A_BINARY)
        ok &= np.array_equal(simple_setup["statics"][0].dense(), TABLE_A_SIMPLE)
        ok &= np.array_equal(demand3x3_setup["A"].dense(), table_a_3x3())
        AT = simple_setup["AT"]
        pair_order = [(1, 1), (1, 2), (2, 1), (2, 2)]
        idx = {}
        for r, (path, cp) in enumerate(AT.row_labels):
            idx[(pair_order.index((path[0], cp[0])),
                 pair_order.index((path[1], cp[1])))] = r
        perm = [idx[(a, b)] for a in range(4) for b in range(4)]
        ok &= np.array_equal(AT.dense()[perm, :], TABLE_AT_SIMPLE)
        elapsed = time.perf_counter() - t0
        _report(1, bool(ok) and elapsed < 1.0,
                f"4 published matrices exact, {elapsed:.2f}s")


class TestCriterion2HCatalogs:
    def test_catalogs_and_duality(self, binary_uni_T1, simple_setup, demand3x3_setup):
        t0 = time.perf_counter()
        ok = np.array_equal(catalog_H("binary", binary_uni_T1, 1).rows, TABLE_H_BINARY)
        ok &= np.array_equal(catalog_H("simple", simple_setup["universe"], 1).rows,
                             TABLE_H_SIMPLE)
        ok &= np.array_equal(catalog_H("demand3x3", demand3x3_setup["universe"], 1).rows,
                             TABLE_H_3X3)

        A = simple_setup["statics"][0]
        dense = A.dense().astype(float)
        conv = np.asarray(convert_V_to_H(A).rows, float)
        cat = np.asarray(catalog_H("simple", simple_setup["universe"], 1).full(), float)
        U, s, _ = np.linalg.svd(dense, full_matrices=False)
        span = U[:, :int(np.sum(s > 1e-9))]
        rng = np.random.default_rng(0)
        inclusion = True
        # rays of the mixture cone satisfy the catalog rows
        for _ in range(100):
            z = dense @ np.abs(rng.standard_normal(3))
            inclusion &= (cat @ z).min() >= -1e-9
        # rays of the catalog cone satisfy the converted facets
        for _ in range(100):
            c = rng.standard_normal(span.shape[1])
            res = linprog(-c, A_ub=-(cat @ span), b_ub=np.zeros(len(cat)),
                          bounds=[(-1, 1)] * span.shape[1], method="highs")
            z = span @ res.x
            if (cat @ z).min() >= -1e-12:
                inclusion &= (conv @ z).min() >= -1e-9
        elapsed = time.perf_counter() - t0
        _report(2, bool(ok and inclusion) and elapsed < 10.0,
                f"tables exact, simple-setup cones mutually included, {elapsed:.2f}s")


class TestCriterion3CounterexampleDetection:
    def test_published_counterexamples(self, simple_setup, table5_rho, table9_rho):
        st5 = check_stability(table5_rho)
        dm5 = check_d_monotonicity(table5_rho)
        ok = st5.passed and not dm5.passed
        ok &= abs(dm5.worst_violation - (-0.25)) <= 1e-12

        st9 = check_stability(table9_rho)
        d9, _, _ = cone_membership(table9_rho, simple_setup["AT"])
        ok &= (not st9.passed) and d9 > 1e-6

        # every period-1 marginal passes the static two-budget system
        from drumtest.model import marginal_conditional_slice
        rep = marginal_conditional_slice(table9_rho, 1)
        H_static = np.asarray(
            catalog_H("simple", simple_setup["universe"], 1).full(), float)
        for j2 in (1, 2):
            vec = np.concatenate([rep.marginal[(1, j2)], rep.marginal[(2, j2)]])
            ok &= (H_static @ vec).min() >= -1e-12
        weights = {p: 0.5 for p in table9_rho.observed_paths}
        rep_u = marginal_conditional_slice(table9_rho, 1, weights)
        slice_sum = rep_u.slice[2][0] + rep_u.slice[1][1]
        ok &= abs(slice_sum - 1.0) <= 1e-12
        _report(3, bool(ok),
                f"stability/monotonicity verdicts and marginals as published "
                f"(worst difference {dm5.worst_violation:+.4f}, slice sum {slice_sum:.12f})")


class TestCriterion4RoundTrip:
    def test_theorem_equivalence(self, simple_setup):
        t0 = time.perf_counter()
        uni, AT = simple_setup["universe"], simple_setup["AT"]
        dense = AT.dense().astype(float)
        H = kron_inequalities([catalog_H("simple", uni, t) for t in (1, 2)])
        rng = np.random.default_rng(42)

        ok = True
        for _ in range(500):
            nu = rng.dirichlet(np.ones(9))
            rho = rho_from_weights(uni, AT, nu)
            ok &= check_stability(rho, tol=1e-9).passed
            ok &= check_d_monotonicity(rho, tol=1e-9).passed
            ok &= check_H(rho, H, tol=1e-9).passed
            nu_hat, _ = unique_recovery(rho)
            ok &= np.abs(nu_hat - nu).max() < 1e-10
            if not ok:
                break

        caught = 0
        trials = 0
        while trials < 500:
            nu = rng.dirichlet(np.ones(9))
            base = dense @ nu
            vec = base.copy()
            for start in range(0, 16, 4):
                noise = rng.standard_normal(4) * 0.25
                noise -= noise.mean()
                block = np.clip(vec[start:start + 4] + noise, 0, None)
                vec[start:start + 4] = block / block.sum()
            _, dist = nnls(dense, vec)
            if dist <= 1e-6:
                continue
            trials += 1
            probs = {p: vec[4 * k:4 * k + 4]
                     for k, p in enumerate(sorted(itertools.product((1, 2), repeat=2)))}
            rho = StochasticChoiceFunction(uni, probs)
            fails = (not check_stability(rho, tol=1e-9).passed
                     or not check_d_monotonicity(rho, tol=1e-9).passed
                     or not check_H(rho, H, tol=1e-9).passed)
            caught += fails
        elapsed = time.perf_counter() - t0
        _report(4, bool(ok) and caught == 500 and elapsed < 30.0,
                f"500 mixtures pass all three checks with 1e-10 recovery, "
                f"{caught}/500 perturbations caught, {elapsed:.1f}s")


class TestCriterion5Hierarchy:
    def test_projection_fidelity(self, binary_uni_T2):
        uni = binary_uni_T2
        H_list = [catalog_H("binary", uni, t) for t in (1, 2)]
        reductions = [reduced_static_labels(uni, t) for t in (1, 2)]
        H_stars = [reduce_H(Hc, k, d) for Hc, (k, d) in zip(H_list, reductions)]
        ops = projection_ops(H_stars, (1, 2))
        ok = ops.phi[1] == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6))
        twelfth = Fraction(1, 12)
        expected_g2 = np.array([
            [4, 2, 1, 1, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
            [0, 2, 0, 0, 2, 4, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0],
            [0, 0, 2, 0, 0, 0, 2, 0, 2, 2, 2, 1, 0, 0, 1, 0],
            [0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 2, 2, 1, 2]],
            dtype=object) * twelfth
        ok &= np.array_equal(ops.gammas[1], expected_g2)

        statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in (1, 2)]
        AT = kron_dynamic(statics, sorted(itertools.product((1, 2, 3), repeat=2)), uni)
        K = kron_inequalities(H_stars)
        rng = np.random.default_rng(1)
        match = 0
        for trial in range(100):
            if trial % 3 == 0:
                rho = rho_from_weights(uni, AT, rng.dirichlet(np.ones(36)))
            else:
                probs = {p: rng.dirichlet(np.ones(4))
                         for p in itertools.product((1, 2, 3), repeat=2)}
                rho = StochasticChoiceFunction(uni, probs)
            feasible, _, _ = hierarchy_feasible(rho, H_list, (1, 1))
            match += feasible == check_H(rho, K, tol=1e-7).passed
        level12 = 0
        for _ in range(100):
            rho = rho_from_weights(uni, AT, rng.dirichlet(np.ones(36)))
            feasible, _, _ = hierarchy_feasible(rho, H_list, (1, 2))
            level12 += feasible
        _report(5, bool(ok) and match == 100 and level12 == 100,
                f"phi and gamma_2 exact; level-(1,1) matched the reduced H-check "
                f"{match}/100; mixtures level-(1,2) feasible {level12}/100")


class TestCriterion6BlockMarschak:
    def test_extension_agreement(self, binary_uni_T1):
        uni = binary_uni_T1
        A1 = build_static_A(uni, 1, enumerate_orders(uni, 1))
        A = kron_dynamic([A1], [(1,), (2,), (3,)], uni)
        rng = np.random.default_rng(2)
        agree = 0
        consistent_nonneg = 0
        n_consistent = 0
        for trial in range(200):
            if trial % 2 == 0:
                nu = rng.dirichlet(np.ones(6))
                vec = A1.dense().astype(float) @ nu
                probs = {(j,): vec[2 * (j - 1):2 * j] for j in (1, 2, 3)}
            else:
                probs = {(j,): rng.dirichlet(np.ones(2)) for j in (1, 2, 3)}
            rho = StochasticChoiceFunction(uni, probs)
            d, _, _ = cone_membership(rho, A)
            feasible, witness, _ = bm_extension_feasible(rho)
            agree += feasible == (d <= 1e-8)
            if feasible and d <= 1e-8:
                n_consistent += 1
                levels, _ = drum_bm_values(witness)
                if min(lv.min() for lv in levels.values()) >= -1e-7:
                    consistent_nonneg += 1
        _report(6, agree == 200 and consistent_nonneg == n_consistent,
                f"labels agreed {agree}/200; recursive values nonnegative on all "
                f"{n_consistent} consistent instances")


@pytest.mark.slow
class TestCriterion7MonteCarlo:
    def test_desk_scale_rejection_rates(self):
        t0 = time.perf_counter()
        sims, reps = 300, 199
        results = {}

        cells = [("cobb-douglas-walk", 50), ("cobb-douglas-walk", 500),
                 ("cobb-douglas-gaussian-copula", 50),
                 ("cobb-douglas-gaussian-copula", 500),
                 ("binary1", 10), ("binary1", 175), ("binary3", 350)]
        for kind, n in cells:
            report = run_experiment([DgpSpec(kind)], [n], sims=sims, reps=reps,
                                    seed=2026, n_jobs=N_JOBS)
            results[(kind, n)] = report.entries[0]["rejection_rate"]

        targets = {("cobb-douglas-walk", 50): 0.034,
                   ("cobb-douglas-walk", 500): 0.043,
                   ("cobb-douglas-gaussian-copula", 50): 0.037,
                   ("cobb-douglas-gaussian-copula", 500): 0.046}
        ok = True
        detail = []
        for cell, target in targets.items():
            rate = results[cell]
            ok &= abs(rate - target) <= 0.04
            detail.append(f"{cell[0]}@{cell[1]}={rate:.3f} (target {target:.3f}+-0.04)")
        for n in (10, 175):
            rate = results[("binary1", n)]
            ok &= rate == 1.0
            detail.append(f"binary1@{n}={rate:.3f} (target 1.0)")
        rate3 = results[("binary3", 350)]
        ok &= 0.02 <= rate3 <= 0.09
        detail.append(f"binary3@350={rate3:.3f} (target [0.02,0.09])")
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 1800
        _report(7, bool(ok), "; ".join(detail) + f"; {elapsed/60:.1f} min")


@pytest.mark.slow
class TestCriterion8ApplicationShape:
    def test_synthetic_application_panels(self):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        paths = sorted(itertools.permutations((1, 2, 3)))
        orders = list(itertools.permutations(("l1", "l2", "l3")))
        constants = [(r, r, r) for r in orders]
        rotation = (("l1", "l2", "l3"), ("l2", "l3", "l1"), ("l3", "l1", "l2"))
        profiles = constants + [rotation]
        weights = [0.14] * 6 + [0.16]
        dgp = DgpSpec("order-mixture", {"universe": uni, "profiles": profiles,
                                        "weights": weights, "menu_paths": paths})

        # realized share of revealed-preference cycles is about 8 percent
        share = _cycle_share(uni, paths, profiles, weights)
        assert 0.05 <= share <= 0.11

        statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in (1, 2, 3)]
        A = kron_dynamic(statics, paths, uni)
        lotteries = catalog.application_lotteries()
        agents = 356  # about 2135 over six menu paths
        plain_no_reject = 0
        eu_reject = 0
        for s in range(50):
            panel, _ = simulate(dgp, agents, seed=900_000 + s)
            rho = estimate_rho(panel, uni)
            plain = run_test(rho, A, TestConfig(reps=199, seed=s))
            plain_no_reject += not plain.reject
            eu = run_test_eu(rho, lotteries, TestConfig(reps=199, seed=s))
            eu_reject += eu.reject
        _report(8, plain_no_reject >= 45 and eu_reject >= 45,
                f"cycle share {share:.3f}; no-reject {plain_no_reject}/50; "
                f"EU-reject {eu_reject}/50")


def _cycle_share(uni, paths, profiles, weights):
    total = 0.0
    for profile, w in zip(profiles, weights):
        n_cyclic = 0
        for path in paths:
            wins = {}
            for t, j, ranking in zip((1, 2, 3), path, profile):
                menu = uni.menu(t, j)
                pos = {a: k for k, a in enumerate(ranking)}
                best = min(menu.items, key=lambda a: pos[a])
                other = next(a for a in menu.items if a != best)
                wins[(best, other)] = True
            items = ("l1", "l2", "l3")
            beats = {(a, b): (a, b) in wins for a in items for b in items if a != b}
            cycle = False
            for a, b, c in itertools.permutations(items, 3):
                if beats[(a, b)] and beats[(b, c)] and beats[(c, a)]:
                    cycle = True
            n_cyclic += cycle
        total += w * n_cyclic / len(paths)
    return total


class TestCriterion9Counterfactuals:
    @staticmethod
    def _new_budgets():
        return [Budget("next", 1, (Fraction(2), Fraction(1)), Fraction(1)),
                Budget("next", 2, (Fraction(1), Fraction(2)), Fraction(1))]

    def _labels(self):
        patches, _ = compute_patches(self._new_budgets())
        return [p.label for p in patches if not p.is_intersection]

    def test_route_agreement_100(self, simple_setup):
        rng = np.random.default_rng(3)
        labels = self._labels()
        worst = 0.0
        for _ in range(100):
            rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                                   rng.dirichlet(np.ones(9)))
            lo = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
            hi = {lbl: lo[lbl] + float(v) for lbl, v in zip(labels, rng.random(4))}
            problem = CounterfactualProblem(rho, simple_setup["budgets"],
                                            self._new_budgets(), lo, hi)
            a = bound_functional(problem)
            b = kron_counterfactual_cone(problem)
            worst = max(worst, abs(a.lower - b.lower), abs(a.upper - b.upper))
        _report("9a", worst <= 1e-8, f"route disagreement max {worst:.2e} over 100 draws")

    def test_population_value_inside_bounds(self, simple_setup):
        from test_checks import dgp1_population_rho
        rho = dgp1_population_rho(simple_setup["universe"])
        labels = self._labels()
        p_next = _dgp1_third_period_cells()
        rng = np.random.default_rng(4)
        inside = 0
        for _ in range(200):
            g = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
            problem = CounterfactualProblem(rho, simple_setup["budgets"],
                                            self._new_budgets(), g, g,
                                            target_budget=1)
            bounds = bound_functional(problem)
            value = p_next[0] * g[(1, 1)] + p_next[1] * g[(1, 2)]
            inside += bounds.lower - 1e-9 <= value <= bounds.upper + 1e-9
        _report("9b", inside == 200, f"population value inside bounds {inside}/200")

    def test_bounds_tighten_with_window(self, simple_setup):
        rng = np.random.default_rng(5)
        uni2 = simple_setup["universe"]
        budgets1 = {1: simple_setup["budgets"][1]}
        uni1, _, _ = demand_universe(budgets1, (1,), index_maps=catalog.SIMPLE_INDEX_MAPS)
        labels = self._labels()
        ok = True
        for _ in range(20):
            nu = rng.dirichlet(np.ones(9))
            rho2 = rho_from_weights(uni2, simple_setup["AT"], nu)
            marg = {}
            for j1 in (1, 2):
                vec = np.zeros(2)
                order = uni2.choice_paths((j1, 1))
                arr = np.asarray(rho2.probs[(j1, 1)], float)
                for cp, v in zip(order, arr):
                    vec[cp[0] - 1] += v
                marg[(j1,)] = vec
            rho1 = StochasticChoiceFunction(uni1, marg)
            lo = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
            hi = {lbl: lo[lbl] + 0.5 for lbl in labels}
            b2 = bound_functional(CounterfactualProblem(
                rho2, simple_setup["budgets"], self._new_budgets(), lo, hi))
            b1 = bound_functional(CounterfactualProblem(
                rho1, budgets1, self._new_budgets(), lo, hi))
            ok &= b1.lower <= b2.lower + 1e-8 and b2.upper <= b1.upper + 1e-8
        _report("9c", bool(ok), "bounds weakly tighten with the observation window")


def _dgp1_third_period_cells(persistence=0.9, sd=5.0, grid=1201):
    """Population cell probabilities of the walk's third period on the steep
    budget: P(alpha_3 < 2/3) via two nested clipped-normal integrations."""
    a1 = np.linspace(0.0, 1.0, grid)
    a2 = np.linspace(0.0, 1.0, grid)

    def below_given(mean, c):
        return ndtr((c - mean) / sd)

    # density of alpha2 given alpha1: point masses at 0 and 1 plus a normal
    p0 = ndtr((0 - persistence * a1) / sd)
    p1 = 1 - ndtr((1 - persistence * a1) / sd)
    inner = np.empty_like(a1)
    from scipy.stats import norm
    for k, a in enumerate(a1):
        dens = norm.pdf(a2, loc=persistence * a, scale=sd)
        cont = np.trapezoid(dens * below_given(persistence * a2, 2 / 3), a2)
        inner[k] = (p0[k] * below_given(0.0, 2 / 3)
                    + p1[k] * below_given(persistence, 2 / 3) + cont)
    p_below = float(np.trapezoid(inner, a1))
    return p_below, 1.0 - p_below
