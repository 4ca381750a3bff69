"""Core model: estimation, transforms, pooling, and input validation."""

import numpy as np
import pytest

from drumtest import catalog
from drumtest.errors import AllocationError, RejectedRecordError, SchemaError
from drumtest.geometry import Budget, demand_universe, pool
from drumtest.model import (ChoiceUniverse, Menu, PanelDataset, PanelRecord,
                            StochasticChoiceFunction, estimate_rho,
                            marginal_conditional_slice)

from conftest import rho_from_weights


def _panel(rows):
    return PanelDataset(tuple(PanelRecord(*r) for r in rows))


class TestUniverseValidation:
    def test_cyclic_primitive_order_rejected(self):
        menus = (Menu(1, ("x", "y")),)
        with pytest.raises(SchemaError, match="cycle"):
            ChoiceUniverse((1,), {1: ("x", "y")}, {1: menus},
                           {1: ((frozenset({"x"}), frozenset({"y"})),
                                (frozenset({"y"}), frozenset({"x"})))})

    def test_empty_menu_rejected(self):
        with pytest.raises(SchemaError):
            Menu(1, ())

    def test_duplicate_menu_index_rejected(self):
        menus = (Menu(1, ("x",)), Menu(1, ("y",)))
        with pytest.raises(SchemaError, match="duplicate menu"):
            ChoiceUniverse((1,), {1: ("x", "y")}, {1: menus})

    def test_menu_item_outside_alternatives_rejected(self):
        with pytest.raises(SchemaError, match="unknown items"):
            ChoiceUniverse((1,), {1: ("x",)}, {1: (Menu(1, ("x", "z")),)})


class TestUniverseValues:
    def test_universes_compare_and_hash_by_value(self):
        """Lists and tuples, sets and frozensets build the same universe; a
        changed order tells two apart."""
        menus = [Menu(1, ["x", "y"]), Menu(2, ("y", "z"))]
        built = ChoiceUniverse([1], {1: ["x", "y", "z"]}, {1: menus},
                               {1: [({"x"}, ("y",))]})
        same = ChoiceUniverse((1,), {1: ("x", "y", "z")}, {1: tuple(menus)},
                              {1: ((frozenset({"x"}), frozenset({"y"})),)})
        assert built == same and hash(built) == hash(same)
        assert built.alternatives[1] == ("x", "y", "z") and built.menus[1][0].items == ("x", "y")
        assert built != ChoiceUniverse((1,), {1: ("x", "y", "z")}, {1: tuple(menus)})


class TestEstimateRho:
    def test_degenerate_sample(self):
        uni = ChoiceUniverse((1,), {1: ("x", "y")}, {1: (Menu(1, ("x", "y")),)})
        panel = _panel([(1, 1, 1, "x"), (2, 1, 1, "x")])
        rho = estimate_rho(panel, uni)
        assert np.array_equal(rho.probs[(1,)], [1.0, 0.0])
        assert rho.counts[(1,)] == 2

    def test_even_split(self):
        uni = ChoiceUniverse((1,), {1: ("x", "y")}, {1: (Menu(1, ("x", "y")),)})
        panel = _panel([(1, 1, 1, "x"), (2, 1, 1, "x"), (3, 1, 1, "y"), (4, 1, 1, "y")])
        rho = estimate_rho(panel, uni)
        assert np.array_equal(rho.probs[(1,)], [0.5, 0.5])

    def test_type_column_panel_concentrates_on_its_paths(self, simple_setup):
        # synthetic panel from the type pair (first budget patch 1, second
        # budget patch 2) across all four menu paths
        uni = simple_setup["universe"]
        rows = []
        agent = 0
        choice_of = {1: {1: 1, 2: 2}, 2: {1: 1, 2: 2}}  # per budget: patch for (theta -)
        # type (1,1) on budget 1, (1,2): budget1 -> patch1, budget2 -> patch2
        for path in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            agent += 1
            for t, j in zip((1, 2), path):
                i = 1 if j == 1 else 2
                menu = uni.menu(t, j)
                rows.append((agent, t, j, menu.items[i - 1]))
        rho = estimate_rho(_panel(rows), uni)
        col = simple_setup["AT"].col_labels.index(((1, 2), (1, 2)))
        dense = simple_setup["AT"].dense()
        for r, (path, cp) in enumerate(simple_setup["AT"].row_labels):
            assert rho.prob(path, cp) == dense[r, col]

    def test_missing_period_rejected(self, simple_setup):
        with pytest.raises(RejectedRecordError, match="missing periods"):
            estimate_rho(_panel([(1, 1, 1, (1, 1))]), simple_setup["universe"])

    def test_unknown_menu_rejected(self, simple_setup):
        panel = _panel([(1, 1, 9, (9, 1)), (1, 2, 1, (1, 1))])
        with pytest.raises(SchemaError, match="unknown menu"):
            estimate_rho(panel, simple_setup["universe"])

    def test_row_sums_exact(self, simple_setup):
        rng = np.random.default_rng(0)
        uni = simple_setup["universe"]
        rows = []
        for agent in range(60):
            path = [(1, 1), (1, 2), (2, 1), (2, 2)][agent % 4]
            for t, j in zip((1, 2), path):
                menu = uni.menu(t, j)
                rows.append((agent, t, j, menu.items[rng.integers(0, 2)]))
        rho = estimate_rho(_panel(rows), uni)
        for path in rho.observed_paths:
            assert rho.probs[path].sum() == pytest.approx(1.0, abs=0)
            fracs = rho.fractions(path)
            assert sum(fracs) == 1


class TestColumnPanel:
    """Panels built from columns go through the same checks and tally."""

    def test_column_and_record_panels_agree(self, simple_setup):
        uni = simple_setup["universe"]
        rows = [(1, 1, 1, (1, 1)), (1, 2, 2, (2, 2)), (2, 1, 1, (1, 2)), (2, 2, 2, (2, 2)),
                (3, 2, 1, (1, 1)), (3, 1, 2, (2, 1))]
        by_records = _panel(rows)
        by_columns = PanelDataset.from_columns(*zip(*rows))
        coded = PanelDataset.from_columns([r[0] for r in rows], [r[1] for r in rows],
                                          [r[2] for r in rows], [0, 3, 1, 3, 0, 2],
                                          choice_ids=[(1, 1), (1, 2), (2, 1), (2, 2)])
        assert by_columns.records == by_records.records == coded.records
        want = estimate_rho(by_records, uni).choice_counts
        for panel in (by_columns, coded):
            got = estimate_rho(panel, uni).choice_counts
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[p], want[p]) for p in want)

    def test_sparse_integer_ids(self, simple_setup):
        """Agent ids far apart and out of order tally like any others."""
        uni = simple_setup["universe"]
        rows = [(10**15, 1, 1, (1, 1)), (10**15, 2, 2, (2, 2)), (7, 1, 2, (2, 1)),
                (7, 2, 1, (1, 2))]
        rho = estimate_rho(PanelDataset.from_columns(*zip(*rows)), uni)
        assert rho.counts == {(1, 2): 1, (2, 1): 1}
        assert list(rho.choice_counts[(1, 2)]) == [0, 1, 0, 0]
        assert list(rho.choice_counts[(2, 1)]) == [0, 1, 0, 0]

    def test_equality_follows_records(self):
        rows = [(1, 1, 1, (1, 1)), (1, 2, 2, (2, 2))]
        panel = PanelDataset.from_columns(*zip(*rows))
        same = _panel(rows)
        assert panel == same and hash(panel) == hash(same)
        assert panel != _panel(rows[:1])
        assert repr(panel).startswith("PanelDataset(records=(PanelRecord(")

    def test_columns_are_read_only(self):
        panel = PanelDataset.from_columns([1], [1], [1], ["x"])
        with pytest.raises(ValueError):
            panel.agent[0] = 2

    def test_duplicate_period_rejected(self, simple_setup):
        panel = PanelDataset.from_columns([1, 1, 1], [1, 1, 2], [1, 1, 1],
                                          [(1, 1), (1, 2), (1, 1)])
        with pytest.raises(RejectedRecordError, match="agent 1 has duplicate records for period 1"):
            estimate_rho(panel, simple_setup["universe"])

    def test_missing_period_rejected(self, simple_setup):
        panel = PanelDataset.from_columns([1, 1, 2], [1, 2, 2], [1, 1, 1],
                                          [(1, 1), (1, 1), (1, 1)])
        with pytest.raises(RejectedRecordError, match=r"agent 2 is missing periods \['1'\]"):
            estimate_rho(panel, simple_setup["universe"])

    def test_unknown_period_rejected(self, simple_setup):
        panel = PanelDataset.from_columns(["a"] * 3, [1, 2, 7], [1, 1, 1], [(1, 1)] * 3)
        with pytest.raises(RejectedRecordError, match=r"agent a has unknown periods \['7'\]"):
            estimate_rho(panel, simple_setup["universe"])

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError, match="differ in length"):
            PanelDataset.from_columns([1, 2], [1], [1, 1], ["x", "y"])


class TestMarginalConditionalSlice:
    def test_table9_marginals(self, table9_rho):
        rep = marginal_conditional_slice(table9_rho, 1)
        # period-1 marginal of the first budget-2 patch under each second menu
        assert rep.marginal[(2, 1)][0] == pytest.approx(1 / 2, abs=1e-12)
        assert rep.marginal[(2, 2)][0] == pytest.approx(2 / 3, abs=1e-12)
        assert rep.marginal[(1, 1)][1] == pytest.approx(1 / 2, abs=1e-12)
        assert rep.marginal[(1, 2)][1] == pytest.approx(1 / 3, abs=1e-12)

    def test_table9_uniform_slice_sums_to_one(self, table9_rho):
        weights = {p: 0.5 for p in table9_rho.observed_paths}
        rep = marginal_conditional_slice(table9_rho, 1, weights)
        total = rep.slice[2][0] + rep.slice[1][1]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_marginals(self, simple_setup):
        nu = np.zeros(9)
        nu[simple_setup["AT"].col_labels.index(((1, 1), (1, 1)))] = 1.0
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        for t in (1, 2):
            rep = marginal_conditional_slice(rho, t)
            for path, marg in rep.marginal.items():
                assert marg.max() == pytest.approx(1.0, abs=1e-12)

    def test_conditional_sums_to_one_where_defined(self, simple_setup):
        rng = np.random.default_rng(1)
        nu = rng.dirichlet(np.ones(9))
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        rep = marginal_conditional_slice(rho, 2)
        for key, vec in rep.conditional.items():
            if vec is not None:
                assert vec.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_mass_conditional_flagged(self, simple_setup):
        nu = np.zeros(9)
        nu[0] = 1.0
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        rep = marginal_conditional_slice(rho, 2)
        assert rep.zero_mass_flags  # degenerate rows exist and are flagged, not raised

    def test_slicing_is_affine_in_marginals(self, simple_setup):
        rng = np.random.default_rng(2)
        uni = simple_setup["universe"]
        nu = rng.dirichlet(np.ones(9))
        rho = rho_from_weights(uni, simple_setup["AT"], nu)
        w = {p: rng.random() for p in rho.observed_paths}
        t_pos = 0
        for jt in (1, 2):
            tot = sum(v for p, v in w.items() if p[t_pos] == jt)
            for p in w:
                if p[t_pos] == jt:
                    w[p] /= tot
        rep = marginal_conditional_slice(rho, 1, w)
        for jt in (1, 2):
            manual = sum(w[p] * rep.marginal[p] for p in rho.observed_paths
                         if p[t_pos] == jt)
            assert np.allclose(rep.slice[jt], manual, atol=1e-12)


class TestPool:
    def test_crossing_budgets_construction_flags_inconsistency(self):
        # one budget per period; the allocation pushes each period's mass
        # below the other period's budget, so the pooled masses sum to 2
        budgets = {1: [Budget(1, 1, (2, 1), 1)], 2: [Budget(2, 1, (1, 2), 1)]}
        uni, patches, _ = demand_universe(budgets, (1, 2))
        rho = StochasticChoiceFunction(uni, {(1, 1): np.array([1.0])})
        allocation = {
            (1, (1, 1)): {(1, 2): 1.0},  # period-1 mass to the cell below the other budget
            (2, (1, 1)): {(2, 1): 1.0},
        }
        report = pool(rho, budgets, allocation=allocation)
        assert report.masses[(1, 1)][1] == pytest.approx(1.0)
        assert report.masses[(2, 1)][0] == pytest.approx(1.0)
        assert not report.rum_consistent
        assert report.rum_distance > 1e-6

    def test_missing_allocation_raises(self):
        budgets = {1: [Budget(1, 1, (2, 1), 1)], 2: [Budget(2, 1, (1, 2), 1)]}
        uni, patches, _ = demand_universe(budgets, (1, 2))
        rho = StochasticChoiceFunction(uni, {(1, 1): np.array([1.0])})
        with pytest.raises(AllocationError):
            pool(rho, budgets)

    def test_single_period_identity(self):
        budgets = {1: catalog.simple_budgets((1,))[1]}
        uni, patches, _ = demand_universe(budgets, (1,),
                                          index_maps=catalog.SIMPLE_INDEX_MAPS)
        probs = {(1,): np.array([0.7, 0.3]), (2,): np.array([0.4, 0.6])}
        rho = StochasticChoiceFunction(uni, probs)
        report = pool(rho, budgets)
        assert np.allclose(report.masses[(1, 1)], [0.7, 0.3])
        assert np.allclose(report.masses[(1, 2)], [0.4, 0.6])
        assert report.rum_consistent

    def test_identical_budgets_across_periods_rejected(self):
        budgets = catalog.simple_budgets((1, 2))
        uni, patches, _ = demand_universe(budgets, (1, 2),
                                          index_maps=catalog.SIMPLE_INDEX_MAPS)
        probs = {p: np.array([0.25] * 4) for p in
                 [(1, 1), (1, 2), (2, 1), (2, 2)]}
        rho = StochasticChoiceFunction(uni, probs)
        with pytest.raises(SchemaError, match="distinct"):
            pool(rho, budgets)

    def test_non_crossing_periods_pool_to_original_patches(self):
        # the second period rescales expenditure so no cross-period budgets
        # intersect inside the orthant: pooling is the identity on patches
        budgets = {1: catalog.simple_budgets((1,))[1],
                   2: [Budget(2, 1, (2, 1), 3), Budget(2, 2, (1, 2), 3)]}
        uni, patches, _ = demand_universe(budgets, (1, 2))
        import itertools as it
        from drumtest.geometry import enumerate_demand_types
        from drumtest.representations import build_static_A, kron_dynamic
        statics = []
        for t in (1, 2):
            types, _ = enumerate_demand_types(patches[t], budgets[t])
            statics.append(build_static_A(uni, t, types))
        AT = kron_dynamic(statics, sorted(it.product((1, 2), repeat=2)), uni)
        rng = np.random.default_rng(3)
        nu = rng.dirichlet(np.ones(len(AT.col_labels)))
        rho = rho_from_weights(uni, AT, nu)
        report = pool(rho, budgets)  # no allocation needed: nothing splits
        for (t, j), labels in report.pooled_labels.items():
            assert len(labels) == 2
            assert report.masses[(t, j)].sum() == pytest.approx(1.0, abs=1e-9)
