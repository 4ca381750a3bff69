"""Budget-arrangement geometry: patches, dominance, normalization, types."""

import copy
import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

from drumtest import catalog, geometry
from drumtest.errors import SchemaError
from drumtest.geometry import (ABOVE, BELOW, ON, Budget, classify_point, compute_patches,
                               demand_universe, enumerate_demand_types, normalize_dradm)
from drumtest.model import PanelDataset, PanelRecord

from conftest import legacy_cell_constraints, solve_recorder


class TestComputePatches:
    def test_two_budget_figure(self):
        budgets = catalog.simple_budgets((1,))[1]
        patches, dominance = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
        open_p = [p for p in patches if not p.is_intersection]
        inter = [p for p in patches if p.is_intersection]
        assert len(open_p) == 4 and len(inter) == 1
        # the single intersection cell is the crossing point, owned by budget 1
        assert inter[0].budget == 1 and inter[0].index == 3
        assert np.allclose(inter[0].representative, [1 / 3, 1 / 3])
        # published numbering: steep budget's above-cell first, flat budget's
        # below-cell first
        by_label = {p.label: p for p in open_p}
        assert by_label[(1, 1)].sign_vector == {2: ABOVE}
        assert by_label[(1, 2)].sign_vector == {2: BELOW}
        assert by_label[(2, 1)].sign_vector == {1: BELOW}
        assert by_label[(2, 2)].sign_vector == {1: ABOVE}

    def test_single_budget(self):
        patches, dominance = compute_patches([Budget(1, 1, (1, 1), 1)])
        assert len(patches) == 1 and not dominance
        assert patches[0].label == (1, 1)

    def test_simple_dominance(self):
        budgets = catalog.simple_budgets((1,))[1]
        _, dominance = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
        assert sorted(dominance) == [((1, 1), (2, 1)), ((2, 2), (1, 2))]

    def test_representative_margins(self):
        budgets = catalog.demand3x3_budgets((1,))[1]
        patches, _ = compute_patches(budgets, index_maps=catalog.DEMAND3X3_INDEX_MAPS)
        for p in patches:
            own = next(b for b in budgets if b.index == p.budget)
            assert abs(own.p() @ p.representative - own.w()) < 1e-10
            for other in budgets:
                if other.index == p.budget:
                    continue
                gap = other.p() @ p.representative - other.w()
                sign = p.sign_vector[other.index]
                if sign == ABOVE:
                    assert gap >= 1e-8
                elif sign == BELOW:
                    assert gap <= -1e-8
                else:
                    assert abs(gap) < 1e-8

    def test_partition_monte_carlo(self):
        """Uniform points on each budget classify into exactly one enumerated
        open cell (up to the measure-zero boundaries)."""
        budgets = catalog.demand3x3_budgets((1,))[1]
        patches, _ = compute_patches(budgets, index_maps=catalog.DEMAND3X3_INDEX_MAPS)
        rng = np.random.default_rng(0)
        for b in budgets:
            open_signs = {tuple(sorted(p.sign_vector.items())) for p in patches
                          if p.budget == b.index and not p.is_intersection}
            hits = 0
            for _ in range(10_000):
                w = rng.dirichlet(np.ones(3))
                y = w / (b.p() @ w)  # scaled onto the budget plane
                signs = classify_point(y, b, [o for o in budgets if o.index != b.index])
                key = tuple(sorted(signs.items()))
                if any(s == "on" for _, s in key):
                    continue
                assert key in open_signs
                hits += 1
            assert hits > 9_900

    def test_degenerate_duplicate_budgets_rejected(self):
        b = Budget(1, 1, (1, 1), 1)
        with pytest.raises(SchemaError, match="distinct"):
            compute_patches([b, Budget(1, 2, (1, 1), 1)])

    def test_one_good_rejected(self):
        with pytest.raises(SchemaError):
            Budget(1, 1, (1,), 1)


class TestArrangementMemo:
    def test_cache_hits_share_no_mutable_state(self):
        budgets = catalog.simple_budgets((1,))[1]
        patches, dominance = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
        n_patches, pairs = len(patches), list(dominance)
        patches.clear()
        dominance.clear()
        again, dominance = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
        assert len(again) == n_patches and dominance == pairs
        with pytest.raises(TypeError):
            again[0].sign_vector[2] = BELOW
        with pytest.raises(ValueError):
            again[0].representative[0] = 9.0
        assert again[0].sign_vector == {2: ABOVE}

    def test_patches_pickle_and_deepcopy(self):
        budgets = catalog.simple_budgets((1,))[1]
        patches, _ = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
        for copy_of in (lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy):
            for patch, back in zip(patches, copy_of(patches)):
                assert back == patch and hash(back) == hash(patch)
                assert back.label == patch.label
                assert back.sign_vector == patch.sign_vector
                assert np.array_equal(back.representative, patch.representative)
                assert (back.is_intersection, back.on_budgets) == \
                    (patch.is_intersection, patch.on_budgets)
                with pytest.raises(TypeError):
                    back.sign_vector[2] = BELOW

    def test_numbering_is_keyed_on_the_index_maps(self):
        budgets = catalog.simple_budgets((1,))[1]
        mapped, _ = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
        swapped = {1: {(1,): 2, (-1,): 1}, 2: catalog.SIMPLE_INDEX_MAPS[2]}
        other, _ = compute_patches(budgets, index_maps=swapped)
        first = {p.label: dict(p.sign_vector) for p in mapped if not p.is_intersection}
        second = {p.label: dict(p.sign_vector) for p in other if not p.is_intersection}
        assert first[(1, 1)] == second[(1, 2)] == {2: ABOVE}

    def test_equal_index_maps_share_one_entry(self):
        """Equal index maps key one arrangement, whatever the dict objects
        and their insertion order: the second call is a memo hit."""
        budgets = catalog.simple_budgets((1,))[1]
        reordered = {j: dict(reversed(list(m.items())))
                     for j, m in reversed(list(catalog.SIMPLE_INDEX_MAPS.items()))}
        geometry._arrangement.cache_clear()
        try:
            by_dict, _ = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
            by_copy, _ = compute_patches(budgets, index_maps=reordered)
            info = geometry._arrangement.cache_info()
            assert (info.currsize, info.hits) == (1, 1)
            assert by_copy == by_dict
        finally:
            geometry._arrangement.cache_clear()

    def test_conservative_fallback_warns_on_every_call(self, monkeypatch):
        from drumtest import geometry
        monkeypatch.setattr(geometry, "_dominates_exact", lambda *args: None)
        geometry._arrangement.cache_clear()
        budgets = catalog.simple_budgets((1,))[1]
        try:
            for _ in range(2):
                with pytest.warns(UserWarning, match="conservative"):
                    compute_patches(budgets)
            assert geometry._arrangement.cache_info().hits == 1
        finally:
            geometry._arrangement.cache_clear()


class TestPublishedNumbering:
    """``compute_patches`` numbers patches by one rule when no maps are
    passed: the published maps on the demand3x3 budgets of any period, the
    default numbering on every other arrangement."""

    @pytest.mark.parametrize("t", [1, 2, "next"])
    def test_demand3x3_budgets_get_the_published_numbering(self, t):
        budgets = catalog.demand3x3_budgets((t,))[t]
        assert compute_patches(budgets) == \
            compute_patches(budgets, index_maps=catalog.DEMAND3X3_INDEX_MAPS)
        assert compute_patches(budgets[::-1]) == \
            compute_patches(budgets[::-1], index_maps=catalog.DEMAND3X3_INDEX_MAPS)

    def test_other_budgets_get_the_default_numbering(self):
        """At double the expenditure the arrangement is no longer the
        catalog's: budget 1 takes the sign-vector order over budgets 2 and
        3, where the published map swaps the middle two cells."""
        def signs_by_index(budgets):
            patches, _ = compute_patches(budgets)
            return [tuple(p.sign_vector[o] for o in (2, 3)) for p in
                    sorted((p for p in patches if p.budget == 1 and not p.is_intersection),
                           key=lambda p: p.index)]

        published = catalog.demand3x3_budgets((1,))[1]
        doubled = [Budget(1, b.index, b.prices, Fraction(2)) for b in published]
        assert signs_by_index(doubled) == \
            [(ABOVE, ABOVE), (ABOVE, BELOW), (BELOW, ABOVE), (BELOW, BELOW)]
        assert signs_by_index(published) == \
            [(ABOVE, ABOVE), (BELOW, ABOVE), (ABOVE, BELOW), (BELOW, BELOW)]

    @pytest.mark.parametrize("t", [1, 2])
    def test_simple_maps_are_the_default_numbering(self, t):
        """The premise for dropping them from callers: on the catalog
        two-budget setup the published maps reproduce the default."""
        budgets = catalog.simple_budgets((t,))[t]
        assert compute_patches(budgets) == \
            compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)


def _legacy_cell_program_lp(budget, others, signs):
    """The sign-cell LP as it was built before the shared sign-row builder."""
    K = budget.num_goods
    c = np.zeros(K + 1)
    c[-1] = -1.0
    A_eq = [np.append(budget.p(), 0.0)]
    b_eq = [budget.w()]
    A_ub, b_ub = [], []
    for other in others:
        s = signs[other.index]
        row = np.append(other.p(), 0.0)
        if s == ON:
            A_eq.append(row)
            b_eq.append(other.w())
        elif s == ABOVE:
            r = -row.copy()
            r[-1] = np.linalg.norm(other.p())
            A_ub.append(r)
            b_ub.append(-other.w())
        else:
            r = row.copy()
            r[-1] = np.linalg.norm(other.p())
            A_ub.append(r)
            b_ub.append(other.w())
    A_ub.append(np.append(np.zeros(K), 1.0))
    b_ub.append(1.0)
    return {"c": c, "A_ub": np.array(A_ub), "b_ub": np.array(b_ub), "A_eq": np.array(A_eq),
            "b_eq": np.array(b_eq), "bounds": [(0, None)] * K + [(None, None)]}


def _as_highs_receives(lp):
    """A linprog call as HiGHS receives it: constraint blocks through CSC,
    which keeps no zero, so -0.0 reads 0.0; bounds as an n x 2 array with
    None as -inf/inf."""
    bounds = [(-np.inf if lo is None else lo, np.inf if hi is None else hi)
              for lo, hi in lp["bounds"]]
    return dict(lp, A_ub=csc_array(lp["A_ub"]).toarray(), A_eq=csc_array(lp["A_eq"]).toarray(),
                bounds=np.array(bounds, dtype=float))


SIGN_ROW_ARRANGEMENTS = {
    "simple": catalog.simple_budgets((1,))[1],
    "demand3x3": catalog.demand3x3_budgets((1,))[1],
    "three-lines": [Budget(1, 1, (Fraction(1), Fraction(1)), Fraction(1)),
                    Budget(1, 2, (Fraction(2), Fraction(1)), Fraction(3, 2)),
                    Budget(1, 3, (Fraction(1), Fraction(3)), Fraction(2))],
    "single": [Budget(1, 1, (Fraction(1), Fraction(2)), Fraction(1))],
}


@pytest.mark.parametrize("name", sorted(SIGN_ROW_ARRANGEMENTS))
def test_cell_lps_keep_rows_order_and_bounds(name, monkeypatch):
    """The sign-cell LPs and the cell closures built from the shared sign
    rows equal, bit for bit, the ones built before it, for every sign
    vector with and without 'on' entries."""
    budgets = SIGN_ROW_ARRANGEMENTS[name]
    recorded = []
    monkeypatch.setattr(geometry, "solve", solve_recorder(recorded))
    for budget in budgets:
        others = [b for b in budgets if b.index != budget.index]
        for combo in itertools.product((ABOVE, ON, BELOW), repeat=len(others)):
            signs = dict(zip([b.index for b in others], combo))
            recorded.clear()
            geometry._cell_program(budget, others, signs)
            old = _as_highs_receives(_legacy_cell_program_lp(budget, others, signs))
            (new,) = recorded
            for key in ("c", "A_ub", "b_ub", "A_eq", "b_eq", "bounds"):
                assert new[key].shape == old[key].shape, key
                assert new[key].tobytes() == old[key].tobytes(), key
            for a, b in zip(geometry._cell_constraints(budget, others, signs),
                            legacy_cell_constraints(budget, others, signs)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDominance:
    def test_dominance_is_strict_partial_order(self):
        budgets = catalog.demand3x3_budgets((1,))[1]
        _, dominance = compute_patches(budgets, index_maps=catalog.DEMAND3X3_INDEX_MAPS)
        pairs = set(dominance)
        for a, b in pairs:
            assert a != b
            assert (b, a) not in pairs
        for a, b in pairs:
            for c, d in pairs:
                if b == c:
                    assert (a, d) in pairs

    def test_dominated_patch_lies_below_dominant_budget(self):
        budgets = catalog.demand3x3_budgets((1,))[1]
        patches, dominance = compute_patches(budgets, index_maps=catalog.DEMAND3X3_INDEX_MAPS)
        by_label = {p.label: p for p in patches if not p.is_intersection}
        for dom, sub in dominance:
            assert by_label[sub].sign_vector[dom[0]] == BELOW


class TestEnumerateDemandTypes:
    def test_simple_setup_types(self, simple_setup):
        assert simple_setup["types"] == [(1, 1), (1, 2), (2, 2)]

    def test_memoised_on_patch_values_with_fresh_lists(self):
        budgets = catalog.simple_budgets((1,))[1]
        patches, _ = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
        geometry._demand_types.cache_clear()
        types, order = enumerate_demand_types(patches, budgets)
        types.clear()
        order.clear()
        copies = pickle.loads(pickle.dumps(patches))
        assert enumerate_demand_types(copies, budgets) == ([(1, 1), (1, 2), (2, 2)], [1, 2])
        assert geometry._demand_types.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_demand3x3_types(self, demand3x3_setup):
        assert len(demand3x3_setup["types"]) == 25

    def test_single_budget_types(self):
        patches, _ = compute_patches([Budget(1, 1, (1, 2), 1)])
        types, order = enumerate_demand_types(patches, [Budget(1, 1, (1, 2), 1)])
        assert types == [(1,)]

    def test_count_matches_afriat_oracle(self):
        """Enumerate-and-filter equals a strict Afriat feasibility program on
        the representatives, for several 2-good arrangements."""
        rng = np.random.default_rng(7)
        for trial in range(4):
            J = int(rng.integers(2, 5))
            budgets = []
            for j in range(J):
                p = (Fraction(int(rng.integers(1, 6))), Fraction(int(rng.integers(1, 6))))
                budgets.append(Budget(1, j + 1, p, Fraction(int(rng.integers(1, 4)))))
            try:
                patches, _ = compute_patches(budgets)
            except SchemaError:
                continue
            types, order = enumerate_demand_types(patches, budgets)
            by_budget = {}
            for p in patches:
                if not p.is_intersection:
                    by_budget.setdefault(p.budget, []).append(p)
            for v in by_budget.values():
                v.sort(key=lambda p: p.index)
            oracle = []
            for combo in itertools.product(*[by_budget[j] for j in sorted(by_budget)]):
                if _afriat_feasible(combo, budgets):
                    oracle.append(tuple(p.index for p in combo))
            assert types == oracle

    def test_adding_up_in_built_matrix(self, demand3x3_setup):
        dense = demand3x3_setup["A"].dense()
        for start in (0, 4, 8):
            assert np.all(dense[start:start + 4, :].sum(axis=0) == 1)


def _afriat_feasible(chosen, budgets) -> bool:
    """Strict Afriat system on the representatives: U_l <= U_k +
    lam_k p_k (x_l - x_k) - margin, lam_k >= 1."""
    by_index = {b.index: b for b in budgets}
    n = len(chosen)
    xs = [p.representative for p in chosen]
    ps = [by_index[p.budget].p() for p in chosen]
    ws = [by_index[p.budget].w() for p in chosen]
    # variables: U_1..U_n, lam_1..lam_n, margin
    n_var = 2 * n + 1
    A_ub, b_ub = [], []
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            row = np.zeros(n_var)
            row[l] = 1.0
            row[k] = -1.0
            row[n + k] = -float(ps[k] @ (xs[l] - xs[k]))
            row[-1] = 1.0
            A_ub.append(row)
            b_ub.append(0.0)
    c = np.zeros(n_var)
    c[-1] = -1.0
    bounds = [(None, None)] * n + [(1.0, None)] * n + [(None, 1.0)]
    res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub), bounds=bounds,
                  method="highs")
    return res.status == 0 and res.x[-1] > 1e-9


class TestNormalizeDradm:
    def test_unit_expenditure_point_unchanged(self):
        budgets = {1: catalog.simple_budgets((1,))[1]}
        y = (0.25, 0.5)  # on budget (2,1) with w=1
        panel = PanelDataset((PanelRecord(1, 1, 1, None, y),))
        norm, uni, patches, dom = normalize_dradm(panel, budgets)
        assert np.allclose(norm.records[0].quantity, y)

    def test_double_expenditure_halved(self):
        budgets = {1: [Budget(1, 1, (Fraction(1), Fraction(1)), Fraction(1)),
                       Budget(1, 2, (Fraction(1), Fraction(3)), Fraction(1))]}
        y = (1.0, 1.0)  # spends 2 at prices (1,1)
        panel = PanelDataset((PanelRecord(1, 1, 1, None, y),))
        norm, uni, patches, dom = normalize_dradm(panel, budgets)
        assert np.allclose(norm.records[0].quantity, (0.5, 0.5))

    def test_zero_expenditure_rejected(self):
        budgets = {1: catalog.simple_budgets((1,))[1]}
        panel = PanelDataset((PanelRecord(1, 1, 1, None, (0.0, 0.0)),))
        with pytest.raises(SchemaError, match="invalid"):
            normalize_dradm(panel, budgets)

    def test_random_demands_land_on_unit_lines(self):
        rng = np.random.default_rng(11)
        budgets = {1: catalog.simple_budgets((1,))[1]}
        records = []
        for agent in range(50):
            j = int(rng.integers(1, 3))
            y = rng.random(2) + 0.05
            records.append(PanelRecord(agent, 1, j, None, tuple(y)))
        norm, uni, patches, dom = normalize_dradm(PanelDataset(tuple(records)), budgets)
        prices = {1: np.array([2.0, 1.0]), 2: np.array([1.0, 2.0])}
        for rec in norm.records:
            assert abs(prices[rec.menu_id] @ np.array(rec.quantity) - 1.0) < 1e-12
            assert rec.choice_id[0] == rec.menu_id


class TestIntersectionReallocation:
    def test_mass_moves_to_adjacent_open_patches(self):
        """Data mass on an intersection patch is redistributed proportionally
        to the adjacent open patches, with a warning."""
        import warnings
        from drumtest.geometry import reallocate_intersection_mass
        from drumtest.model import ChoiceUniverse, Menu, StochasticChoiceFunction
        budgets = catalog.simple_budgets((1,))[1]
        patches, _ = compute_patches(budgets, index_maps=catalog.SIMPLE_INDEX_MAPS)
        # a universe whose first menu explicitly includes the crossing point
        labels = sorted(p.label for p in patches if not p.is_intersection)
        inter = next(p.label for p in patches if p.is_intersection)
        menus = (Menu(1, ((1, 1), (1, 2), inter)), Menu(2, ((2, 1), (2, 2))))
        uni = ChoiceUniverse((1,), {1: tuple(labels) + (inter,)}, {1: menus})
        rho = StochasticChoiceFunction(uni, {(1,): np.array([0.5, 0.3, 0.2]),
                                             (2,): np.array([0.6, 0.4])})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = reallocate_intersection_mass(rho, {1: patches})
            assert any("reallocated" in str(w.message) for w in caught)
        vec = out.probs[(1,)]
        assert vec[2] == 0.0
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)
        # proportional to the existing open-patch masses 0.5 : 0.3
        assert vec[0] == pytest.approx(0.5 + 0.2 * 0.5 / 0.8, abs=1e-12)
        assert vec[1] == pytest.approx(0.3 + 0.2 * 0.3 / 0.8, abs=1e-12)
