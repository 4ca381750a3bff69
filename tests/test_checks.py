"""Deterministic consistency checks."""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls
from scipy.special import ndtr

from drumtest import catalog, checks
from drumtest.checks import (adsrp_audit, bm_extension_feasible, check_H,
                             check_d_monotonicity, check_sarpd, check_stability,
                             cone_membership, dominance_from_universe, hierarchy_feasible,
                             reduced_static_labels, unique_recovery)
from drumtest.doubledesc import _rref, convert_V_to_H
from drumtest.errors import GeometryError, ParameterError, SizeError
from drumtest.geometry import compute_patches, demand_universe, enumerate_demand_types
from drumtest.model import ChoiceUniverse, Menu, StochasticChoiceFunction, rho_vector
from drumtest.representations import (build_static_A, catalog_H, enumerate_orders,
                                      kron_dynamic, kron_inequalities, pair_vector,
                                      reduce_H, virtual_universe)

from conftest import rho_from_weights


def _phi(z):
    return ndtr(z)


def dgp1_population_rho(uni, persistence=0.9, sd=5.0, grid=4001):
    """Population path probabilities of the clipped Cobb-Douglas walk.

    Patch events are share-parameter thresholds: on the steep budget the
    above-cell is alpha < 2/3, on the flat budget the below-cell is
    alpha < 1/3. The second-period share is persistence*alpha + N(0, sd^2)
    clipped to [0, 1], so conditional cell probabilities are normal CDFs,
    integrated over alpha on a grid.
    """
    alphas = np.linspace(0.0, 1.0, grid)

    def cell1(j, i, a):  # indicator of the period-1 patch event
        if j == 1:
            return (a < 2 / 3) if i == 1 else (a >= 2 / 3)
        return (a < 1 / 3) if i == 1 else (a >= 1 / 3)

    def cell2(j, i, a):  # conditional probability of the period-2 event
        mean = persistence * a
        below = lambda c: _phi((c - mean) / sd)
        if j == 1:
            p = below(2 / 3)
            return p if i == 1 else 1 - p
        p = below(1 / 3)
        return p if i == 1 else 1 - p

    probs = {}
    for path in itertools.product((1, 2), repeat=2):
        vec = []
        for i1, i2 in itertools.product((1, 2), repeat=2):
            mask = cell1(path[0], i1, alphas)
            cond = cell2(path[1], i2, alphas)
            vec.append(np.trapezoid(mask * cond, alphas))
        vec = np.array(vec)
        probs[path] = vec / vec.sum()
    return StochasticChoiceFunction(uni, probs)


class TestStability:
    def test_table5_stable(self, table5_rho):
        assert check_stability(table5_rho).passed

    def test_table9_unstable_with_published_gap(self, table9_rho):
        rep = check_stability(table9_rho)
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(1 / 6, abs=1e-12)  # 2/3 - 1/2

    def test_single_period_vacuous(self):
        uni = ChoiceUniverse((1,), {1: ("x", "y")}, {1: (Menu(1, ("x", "y")),)})
        rho = StochasticChoiceFunction(uni, {(1,): np.array([0.3, 0.7])})
        rep = check_stability(rho)
        assert rep.passed and rep.vacuous


class TestDMonotonicity:
    def test_table5_worst_violation(self, table5_rho):
        rep = check_d_monotonicity(table5_rho)
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(-0.25, abs=1e-12)

    def test_type_column_passes(self, simple_setup):
        for col in range(9):
            nu = np.zeros(9)
            nu[col] = 1.0
            rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
            assert check_d_monotonicity(rho).passed

    def test_second_order_population_instance(self, simple_setup):
        """The double-difference row evaluated on the population walk
        distribution is nonnegative (consistency of the generator)."""
        rho = dgp1_population_rho(simple_setup["universe"])
        lhs = (rho.prob((1, 1), (1, 1)) - rho.prob((2, 1), (1, 1))) \
            - (rho.prob((1, 2), (1, 1)) - rho.prob((2, 2), (1, 1)))
        assert lhs >= -1e-9
        rep = check_d_monotonicity(rho)
        assert rep.passed

    def test_user_declared_pairs(self, table5_rho):
        pairs = {1: [((1, 1), (2, 1))], 2: [((1, 1), (2, 1))]}
        rep = check_d_monotonicity(table5_rho, dominance=pairs)
        assert rep.worst_violation == pytest.approx(-0.25, abs=1e-12)


class TestCheckH:
    def _kron_H(self, simple_setup):
        uni = simple_setup["universe"]
        return kron_inequalities([catalog_H("simple", uni, t) for t in (1, 2)])

    def test_mixtures_pass(self, simple_setup):
        H = self._kron_H(simple_setup)
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                                   rng.dirichlet(np.ones(9)))
            assert check_H(rho, H).passed

    def test_table9_fails(self, simple_setup, table9_rho):
        rep = check_H(table9_rho, self._kron_H(simple_setup))
        assert not rep.passed

    def test_vector_length_validated(self, simple_setup):
        from drumtest.errors import SchemaError
        with pytest.raises(SchemaError):
            check_H(np.zeros(3), self._kron_H(simple_setup))


@lru_cache(maxsize=None)
def _v_to_h_geometry(name):
    """Universe, dynamic type matrix over all menu paths and its exact facet
    system for one desk-scale geometry."""
    if name == "binary1":
        uni = catalog.binary_universe(periods=(1,))
        statics = [build_static_A(uni, 1, enumerate_orders(uni, 1))]
    else:
        kind, T = name[:-1], int(name[-1])
        periods = tuple(range(1, T + 1))
        if kind == "simple":
            budgets, maps = catalog.simple_budgets(periods), catalog.SIMPLE_INDEX_MAPS
        else:
            budgets, maps = catalog.demand3x3_budgets(periods), catalog.DEMAND3X3_INDEX_MAPS
        uni, patches, _ = demand_universe(budgets, periods, index_maps=maps)
        statics = [build_static_A(uni, t, enumerate_demand_types(patches[t], budgets[t])[0])
                   for t in periods]
    paths = sorted(itertools.product(*[uni.menu_indices(t) for t in uni.periods]))
    A = kron_dynamic(statics, paths, uni)
    return uni, A, convert_V_to_H(A)


class TestFacetSystemAgreement:
    """The exact facet system of a dynamic type matrix, read against rho, the
    same system against the flattened vector, and cone membership agree."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["simple1", "simple2", "binary1", "demand3x31"]),
           seed=st.integers(0, 2**32 - 1),
           concentration=st.sampled_from([0.2, 1.0, 5.0]))
    def test_mixtures_pass_all_three(self, name, seed, concentration):
        uni, A, H = _v_to_h_geometry(name)
        nu = np.random.default_rng(seed).dirichlet(np.full(A.shape[1], concentration))
        rho = rho_from_weights(uni, A, nu)
        assert check_H(rho, H).passed
        assert check_H(rho_vector(rho, A.row_labels), H).passed
        assert cone_membership(rho, A)[2].passed

    @pytest.mark.parametrize("table", ["table5_rho", "table9_rho"])
    def test_published_tables_fail_all_three(self, request, table):
        rho = request.getfixturevalue(table)
        _, A, H = _v_to_h_geometry("simple2")
        assert not check_H(rho, H).passed
        assert not check_H(rho_vector(rho, A.row_labels), H).passed
        assert not cone_membership(rho, A)[2].passed

    def test_seeded_simple_T2_mixture_passes(self):
        """A facet system computed from the dynamic matrix is labelled by its
        (menu path, choice path) rows; reading those labels as per-period
        pairs scrambled rho and rejected every mixture."""
        uni, A, H = _v_to_h_geometry("simple2")
        rho = rho_from_weights(uni, A, np.random.default_rng(0).dirichlet(np.ones(9)))
        assert check_H(rho, H).passed


class TestConeMembership:
    def test_type_column_has_zero_distance(self, simple_setup):
        AT = simple_setup["AT"]
        col = 4
        rho = rho_from_weights(simple_setup["universe"], AT,
                               np.eye(9)[col])
        d, nu, rep = cone_membership(rho, AT)
        assert d < 1e-10 and rep.passed
        assert nu[col] == pytest.approx(1.0, abs=1e-8)
        assert np.abs(np.delete(nu, col)).max() < 1e-8

    def test_table9_outside(self, simple_setup, table9_rho):
        d, _, rep = cone_membership(table9_rho, simple_setup["AT"])
        assert d > 1e-6 and not rep.passed

    def test_a_point_off_its_kkt_conditions_is_solved_again(self, simple_setup, table9_rho,
                                                            monkeypatch):
        """An nnls point that fails the KKT check is replaced by its bvls
        re-solve, and the distance is that residual's norm."""
        AT = simple_setup["AT"]
        d_nnls = cone_membership(table9_rho, AT)[0]
        monkeypatch.setattr(checks, "nnls", lambda A, b: (nnls(A, b)[0] + 0.5, nnls(A, b)[1]))
        d, nu, rep = cone_membership(table9_rho, AT)
        b = rho_vector(table9_rho, AT.row_labels)
        assert d == np.linalg.norm(AT.dense().astype(float) @ nu - b)
        assert d == pytest.approx(d_nnls, abs=1e-10)
        assert rep.diagnostics["kkt_residual"] <= checks.KKT_TOL * 100

    def test_uniform_weights_recovered_uniquely(self, simple_setup):
        nu = np.full(9, 1 / 9)
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        d, nu_hat, _ = cone_membership(rho, simple_setup["AT"])
        assert d < 1e-10
        assert np.allclose(nu_hat, nu, atol=1e-8)

    def test_agrees_with_exact_facet_oracle(self, simple_setup):
        """QP consistency labels match an exact rational oracle built from
        the facet list and span membership, on random rational vectors."""
        A = simple_setup["AT"]
        dense = A.dense()
        facets = convert_V_to_H(A)
        gens = [[Fraction(int(dense[r, c])) for r in range(dense.shape[0])]
                for c in range(dense.shape[1])]
        basis, pivots = _rref(gens)

        def exact_in_cone(vec_frac):
            # span membership: residual of the RREF reconstruction vanishes
            coeffs = [vec_frac[p] for p in pivots]
            recon = [sum(c * b[k] for c, b in zip(coeffs, basis))
                     for k in range(len(vec_frac))]
            if recon != list(vec_frac):
                return False
            rows = facets.rows
            for row in rows:
                if sum(Fraction(int(h)) * v for h, v in zip(row, vec_frac)) < 0:
                    return False
            return True

        rng = np.random.default_rng(3)
        agree = 0
        for trial in range(200):
            if trial % 2 == 0:
                w = rng.integers(0, 5, size=9)
                if w.sum() == 0:
                    w[0] = 1
                nu = [Fraction(int(v), int(w.sum())) for v in w]
                vec = [sum(Fraction(int(dense[r, c])) * nu[c] for c in range(9))
                       for r in range(16)]
            else:
                raw = rng.integers(0, 4, size=(4, 4))
                vec = []
                for j1, j2 in itertools.product((1, 2), repeat=2):
                    block = rng.integers(0, 4, size=4)
                    s = max(1, block.sum())
                    vec.extend(Fraction(int(v), int(s)) for v in block)
            exact = exact_in_cone(vec)
            d, _, _ = cone_membership(np.array([float(v) for v in vec]), A)
            assert (d <= 1e-8) == exact
            agree += 1
        assert agree == 200


class TestUniqueRecovery:
    def test_printed_left_inverse(self):
        from drumtest.checks import simple_recovery_matrix
        H1 = simple_recovery_matrix()
        assert np.array_equal(H1, np.array([[0.25, 0.25, 0.75, -0.25],
                                            [0.5, -0.5, -0.5, 0.5],
                                            [-0.25, 0.75, 0.25, 0.25]]))

    def test_roundtrip(self, simple_setup):
        rng = np.random.default_rng(4)
        for _ in range(25):
            nu = rng.dirichlet(np.ones(9))
            rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
            nu_hat, diag = unique_recovery(rho)
            assert np.abs(nu_hat - nu).max() < 1e-10
            assert diag["reconstruction_residual"] < 1e-10

    def test_degenerate_unit_vector(self, simple_setup):
        nu = np.eye(9)[2]
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        nu_hat, _ = unique_recovery(rho)
        assert np.abs(nu_hat - nu).max() < 1e-12

    def test_geometry_mismatch_rejected(self, binary_uni_T2):
        rho = StochasticChoiceFunction(
            binary_uni_T2, {(1, 1): np.array([0.25, 0.25, 0.25, 0.25])})
        with pytest.raises(GeometryError):
            unique_recovery(rho)


def _static_binary_rho(uni, per_menu):
    probs = {}
    for j, vec in per_menu.items():
        probs[(j,)] = np.array(vec, dtype=float)
    return StochasticChoiceFunction(uni, probs)


class TestBmExtension:
    def test_triangle_consistent_is_feasible(self, binary_uni_T1):
        rho = _static_binary_rho(binary_uni_T1,
                                 {1: [0.6, 0.4], 2: [0.7, 0.3], 3: [0.5, 0.5]})
        H = catalog_H("binary", binary_uni_T1, 1)
        assert check_H(rho, kron_inequalities([H])).passed
        feasible, witness, rep = bm_extension_feasible(rho)
        assert feasible
        # the witness agrees with the data and satisfies all BM rows
        for j in (1, 2, 3):
            assert np.allclose(witness.probs[(j,)], rho.probs[(j,)], atol=1e-7)
        from drumtest.representations import bm_matrix, full_pair_lists
        vuni = witness.universe
        vals = np.asarray(bm_matrix(vuni, 1).rows, float) @ pair_vector(
            witness, full_pair_lists(vuni))
        assert vals.min() > -1e-7

    def test_triangle_violation_is_infeasible(self, binary_uni_T1):
        rho = _static_binary_rho(binary_uni_T1,
                                 {1: [0.9, 0.1], 2: [0.05, 0.95], 3: [0.9, 0.1]})
        assert not check_H(rho, kron_inequalities(
            [catalog_H("binary", binary_uni_T1, 1)])).passed
        feasible, _, _ = bm_extension_feasible(rho)
        assert not feasible

    def test_degenerate_order_extension(self, binary_uni_T1):
        rho = _static_binary_rho(binary_uni_T1, {1: [1, 0], 2: [1, 0], 3: [1, 0]})
        feasible, witness, _ = bm_extension_feasible(rho)
        assert feasible
        vals = np.concatenate([witness.probs[p] for p in witness.observed_paths])
        assert set(np.round(vals, 6)) <= {0.0, 1.0}

    def test_dynamic_two_periods(self, binary_uni_T2):
        statics = [build_static_A(binary_uni_T2, t, enumerate_orders(binary_uni_T2, t))
                   for t in (1, 2)]
        AT = kron_dynamic(statics, sorted(itertools.product((1, 2, 3), repeat=2)),
                          binary_uni_T2)
        rng = np.random.default_rng(6)
        rho = rho_from_weights(binary_uni_T2, AT, rng.dirichlet(np.ones(36)))
        feasible, witness, _ = bm_extension_feasible(rho)
        assert feasible

    def test_iu_zeroing(self):
        uni = ChoiceUniverse((1,), {1: ("x", "y")}, {1: (Menu(1, ("x", "y")),)},
                             {1: ((frozenset({"x"}), frozenset({"y"})),)})
        rho = StochasticChoiceFunction(uni, {(1,): np.array([0.5, 0.5])})
        feasible, _, _ = bm_extension_feasible(rho)
        assert not feasible  # y carries mass but is dominated inside the menu


class TestHierarchy:
    def _H_list(self, uni):
        return [catalog_H("binary", uni, t) for t in uni.periods]

    def test_size_guard_builds_nothing_dense(self, monkeypatch):
        from drumtest import checks
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        rho = StochasticChoiceFunction(uni, {p: np.full(8, 1 / 8)
                                             for p in itertools.permutations((1, 2, 3))})

        def refuse(*args, **kwargs):
            raise AssertionError("dense build before the size guard")

        monkeypatch.setattr(np, "kron", refuse)
        monkeypatch.setattr(checks, "projection_ops", refuse)
        with pytest.raises(SizeError,
                           match=r"^hierarchy system exceeds the size guard; lower k$"):
            hierarchy_feasible(rho, self._H_list(uni), (1, 2, 2))

    @pytest.mark.parametrize("k, message", [
        ((2, 1, 1), "k_1 must be 1"),
        ((1, 0, 5), "must be >= 1"),
        ((1, 5), "one entry per period"),
    ])
    def test_malformed_k_rejected_before_size_guard(self, k, message, monkeypatch):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        rho = StochasticChoiceFunction(uni, {p: np.full(8, 1 / 8)
                                             for p in itertools.permutations((1, 2, 3))})
        monkeypatch.setattr(checks, "HIERARCHY_ENTRY_GUARD", 1)
        with pytest.raises(ParameterError, match=message):
            hierarchy_feasible(rho, self._H_list(uni), k)

    def test_all_ones_matches_reduced_kron_check(self, binary_uni_T2):
        uni = binary_uni_T2
        H_list = self._H_list(uni)
        reductions = [reduced_static_labels(uni, t) for t in (1, 2)]
        H_stars = [reduce_H(H, k, d) for H, (k, d) in zip(H_list, reductions)]
        K = kron_inequalities(H_stars)
        statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in (1, 2)]
        AT = kron_dynamic(statics, sorted(itertools.product((1, 2, 3), repeat=2)), uni)
        rng = np.random.default_rng(7)
        agree = 0
        for trial in range(100):
            if trial % 3 == 0:
                rho = rho_from_weights(uni, AT, rng.dirichlet(np.ones(36)))
            else:
                probs = {p: rng.dirichlet(np.ones(4))
                         for p in itertools.product((1, 2, 3), repeat=2)}
                rho = StochasticChoiceFunction(uni, probs)
            feasible, _, _ = hierarchy_feasible(rho, H_list, (1, 1))
            h_pass = check_H(rho, K, tol=1e-7).passed
            assert feasible == h_pass
            agree += 1
        assert agree == 100

    def test_cone_members_level12_feasible(self, binary_uni_T2):
        uni = binary_uni_T2
        statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in (1, 2)]
        AT = kron_dynamic(statics, sorted(itertools.product((1, 2, 3), repeat=2)), uni)
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = rho_from_weights(uni, AT, rng.dirichlet(np.ones(36)))
            feasible, _, _ = hierarchy_feasible(rho, self._H_list(uni), (1, 2))
            assert feasible

    def test_published_projection_row(self, binary_uni_T2):
        """First reduced entry maps to the published combination of the
        replicated-window entries."""
        uni = binary_uni_T2
        H_list = self._H_list(uni)
        reductions = [reduced_static_labels(uni, t) for t in (1, 2)]
        H_stars = [reduce_H(H, k, d) for H, (k, d) in zip(H_list, reductions)]
        from drumtest.representations import projection_ops
        ops = projection_ops(H_stars, (1, 2))
        row = ops.Gamma_float()[0]
        coeff = {i + 1: row[i] for i in range(len(row)) if row[i] > 0}
        assert coeff == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 6),
                         3: pytest.approx(1 / 12), 4: pytest.approx(1 / 12),
                         5: pytest.approx(1 / 6), 9: pytest.approx(1 / 12),
                         13: pytest.approx(1 / 12)}


class TestSarpd:
    def test_simple_setup_cyclic_paths(self, simple_setup):
        uni = simple_setup["universe"]
        rng = np.random.default_rng(9)
        probs = {p: rng.dirichlet(np.ones(4)) for p in
                 itertools.product((1, 2), repeat=2)}
        rho = StochasticChoiceFunction(uni, probs)
        rep = check_sarpd(rho, simple_setup["budgets"], simple_setup["patches"])
        flagged = {(path, cp) for path, cp, _ in rep.violations}
        # on crossing budget paths exactly the mutually-below pairs cycle;
        # on repeated budgets any two distinct patches of the same budget do
        assert ((2, 1), (1, 2)) in flagged      # (x_{1|2}, x_{2|1})
        assert ((1, 2), (2, 1)) in flagged      # (x_{2|1}, x_{1|2})
        assert ((2, 1), (1, 1)) not in flagged
        assert ((2, 1), (2, 2)) not in flagged

    def test_degenerate_type_zero_mass(self, simple_setup):
        nu = np.eye(9)[0]
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        rep = check_sarpd(rho, simple_setup["budgets"], simple_setup["patches"])
        assert rep.passed and rep.worst_violation == 0

    def test_cycle_mass_bounded_by_straight_mass(self, simple_setup):
        rng = np.random.default_rng(10)
        for _ in range(20):
            nu = rng.dirichlet(np.ones(9))
            rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
            assert rho.prob((2, 1), (1, 2)) <= rho.prob((1, 2), (1, 2)) + 1e-12


class TestAdsrp:
    def test_single_entry_bounded_by_one(self, simple_setup):
        nu = np.full(9, 1 / 9)
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        rep = adsrp_audit(rho, simple_setup["AT"], max_len=1)
        assert rep.gap <= 1e-9

    def test_table9_positive_gap_found(self, simple_setup, table9_rho):
        rep = adsrp_audit(table9_rho, simple_setup["AT"], max_len=6)
        assert rep.disproves and rep.gap > 0.05

    def test_mixtures_never_disproved(self, simple_setup):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                                   rng.dirichlet(np.ones(9)))
            rep = adsrp_audit(rho, simple_setup["AT"], max_len=5)
            assert rep.gap <= 1e-8


class TestMarginalConsistency:
    def test_mixture_marginals_pass_static_cone(self, simple_setup):
        """Whenever the joint distribution is a mixture, every conditional,
        marginal, and slicing distribution passes the one-period cone test."""
        from drumtest.model import marginal_conditional_slice
        uni = simple_setup["universe"]
        H_static = np.asarray(catalog_H("simple", uni, 1).full(), float)
        static_A = simple_setup["statics"][0].dense().astype(float)
        rng = np.random.default_rng(12)
        for _ in range(200):
            nu = rng.dirichlet(np.ones(9))
            rho = rho_from_weights(uni, simple_setup["AT"], nu)
            for t in (1, 2):
                rep = marginal_conditional_slice(rho, t)
                t_pos = 0 if t == 1 else 1
                # static vectors pair the two budgets' distributions
                for j_other in (1, 2):
                    if t == 1:
                        vec = np.concatenate([rep.marginal[(1, j_other)],
                                              rep.marginal[(2, j_other)]])
                    else:
                        vec = np.concatenate([rep.marginal[(j_other, 1)],
                                              rep.marginal[(j_other, 2)]])
                    assert (H_static @ vec).min() >= -1e-9
                    from scipy.optimize import nnls as _nnls
                    _, r = _nnls(static_A, vec)
                    assert r < 1e-8
                vec = np.concatenate([rep.slice[1], rep.slice[2]])
                assert (H_static @ vec).min() >= -1e-9
                # conditionals at a fixed off-path choice pair across the two
                # period-t budgets into a static vector
                for off_key in {off for (p, off) in rep.conditional}:
                    pair = {}
                    for j in (1, 2):
                        p = (j, 1) if t == 1 else (1, j)
                        cond = rep.conditional.get((p, off_key))
                        if cond is not None:
                            pair[j] = cond
                    if len(pair) == 2:
                        vec = np.concatenate([pair[1], pair[2]])
                        assert (H_static @ vec).min() >= -1e-9
