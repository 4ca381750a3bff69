"""Type matrices, reductions, catalogs, BM machinery, projection operators."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from scipy.optimize import linprog

from drumtest import catalog, representations
from drumtest.errors import GeometryError, ParameterError, SchemaError, SizeError, SolverError
from drumtest.geometry import demand_geometry, demand_universe, enumerate_demand_types
from drumtest.lp import solve
from drumtest.model import ChoiceUniverse, Menu, StochasticChoiceFunction
from drumtest.representations import (InequalityMatrix, LinearOrder, TypeMatrix, bm_matrix,
                                      build_static_A, catalog_H, drum_bm_values,
                                      enumerate_orders, full_pair_lists, kron_dynamic,
                                      kron_inequalities, pair_vector, projection_ops,
                                      reduce_H, reduce_star, static_row_labels,
                                      static_type_matrix, type_matrix, virtual_universe)
from drumtest.checks import reduced_static_labels

TABLE_A_BINARY = np.array([
    [1, 1, 0, 0, 1, 0],
    [0, 0, 1, 1, 0, 1],
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [1, 0, 1, 1, 0, 0],
    [0, 1, 0, 0, 1, 1]])

TABLE_A_SIMPLE = np.array([
    [1, 1, 0],
    [0, 0, 1],
    [1, 0, 0],
    [0, 1, 1]])

TABLE_AT_SIMPLE = np.array([
    [1, 1, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 1, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 1, 1]])

# 12x25 type matrix of the three-budget maximal-intersection geometry
TABLE_A_3X3_ROWS = {
    (1, 1): list(range(1, 13)),
    (1, 2): list(range(13, 18)),
    (1, 3): list(range(18, 23)),
    (1, 4): list(range(23, 26)),
    (2, 1): [1, 2, 3, 4, 13, 14, 15, 16, 18, 19, 23, 24],
    (2, 2): [5, 6, 7, 8, 20],
    (2, 3): [9, 10, 17, 21, 25],
    (2, 4): [11, 12, 22],
    (3, 1): [1, 5, 9, 11, 13, 17, 18, 20, 21, 22, 23, 25],
    (3, 2): [2, 6, 14, 19, 24],
    (3, 3): [3, 7, 10, 12, 15],
    (3, 4): [4, 8, 16],
}


def table_a_3x3() -> np.ndarray:
    A = np.zeros((12, 25), dtype=int)
    rows = [(j, i) for j in (1, 2, 3) for i in (1, 2, 3, 4)]
    for r, (j, i) in enumerate(rows):
        for c in TABLE_A_3X3_ROWS[(j, i)]:
            A[r, c - 1] = 1
    return A


class TestEnumerateOrders:
    def test_empty_order_gives_all_permutations(self, binary_uni_T1):
        orders = enumerate_orders(binary_uni_T1, 1)
        assert len(orders) == 6
        assert orders[0].ranking == ("x", "y", "z")

    def test_declared_pair_halves_the_count(self):
        uni = ChoiceUniverse((1,), {1: ("x", "y", "z")},
                             {1: (Menu(1, ("x", "y")),)},
                             {1: ((frozenset({"x"}), frozenset({"y"})),)})
        assert len(enumerate_orders(uni, 1)) == 3

    def test_subset_pair_respected(self):
        uni = ChoiceUniverse((1,), {1: ("x", "y", "z")},
                             {1: (Menu(1, ("x", "y", "z")),)},
                             {1: ((frozenset({"x", "y"}), frozenset({"z"})),)})
        orders = enumerate_orders(uni, 1)
        # best of {x,y} must precede z: only z-top orders die
        assert len(orders) == 4
        assert all(o.ranking[0] != "z" for o in orders)

    def test_eu_filter_keeps_middle_rankings(self):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1,))
        orders = enumerate_orders(uni, 1, eu_filter=catalog.application_lotteries())
        assert sorted(o.ranking for o in orders) == [("l1", "l3", "l2"), ("l2", "l3", "l1")]

    def test_eu_filter_memo_keeps_verdicts(self, monkeypatch):
        """Each distinct ranking's LP is solved once per process, and the
        memoised verdicts equal a fresh solve of the same LP."""
        def fresh_verdict(order, lotteries, margin_tol=1e-9):
            mats = [np.array([float(v) for v in lotteries[a]]) for a in order.ranking]
            n = len(mats[0])
            A_ub = [np.append(-(b - w), 1.0) for b, w in zip(mats, mats[1:])]
            A_ub.append(np.append(np.zeros(n), 1.0))
            res = linprog(np.append(np.zeros(n), -1.0), A_ub=np.array(A_ub),
                          b_ub=np.append(np.zeros(len(mats) - 1), 1.0),
                          bounds=[(-1, 1)] * n + [(None, None)], method="highs")
            return res.status == 0 and res.x[-1] > margin_tol

        rng = np.random.default_rng(0)
        cases = [catalog.application_lotteries()]
        for _ in range(3):
            cases.append({a: tuple(Fraction(int(v), 8) for v in rng.multinomial(8, [0.25] * 4))
                          for a in ("l1", "l2", "l3")})
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2))
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(representations, "solve", counting)
        representations._eu_rankable.cache_clear()
        for lotteries in cases:
            orders = enumerate_orders(uni, 1)
            expected = [o for o in orders if fresh_verdict(o, lotteries)]
            before = len(calls)
            assert enumerate_orders(uni, 1, eu_filter=lotteries) == expected
            assert len(calls) - before <= len(orders)
            before = len(calls)
            assert enumerate_orders(uni, 2, eu_filter=lotteries) == \
                [LinearOrder(2, o.ranking) for o in expected]
            assert len(calls) == before


    def test_a_failed_filter_solve_raises(self, monkeypatch):
        """Only a proven infeasible EU filter LP means not rankable; a solve
        that fails any other way raises SolverError."""
        from conftest import failed_solve
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1,))
        monkeypatch.setattr(representations, "solve", failed_solve)
        representations._eu_rankable.cache_clear()
        with pytest.raises(SolverError, match="EU filter LP returned status 4"):
            enumerate_orders(uni, 1, eu_filter=catalog.application_lotteries())


class TestBuildStaticA:
    def test_binary_table(self, binary_uni_T1):
        A = build_static_A(binary_uni_T1, 1, enumerate_orders(binary_uni_T1, 1))
        assert np.array_equal(A.dense(), TABLE_A_BINARY)
        assert A.row_labels == static_row_labels(binary_uni_T1, 1)

    def test_simple_table(self, simple_setup):
        assert np.array_equal(simple_setup["statics"][0].dense(), TABLE_A_SIMPLE)

    def test_demand3x3_table(self, demand3x3_setup):
        assert np.array_equal(demand3x3_setup["A"].dense(), table_a_3x3())

    def test_duplicate_columns_merged(self):
        uni = ChoiceUniverse((1,), {1: ("x", "y", "z")}, {1: (Menu(1, ("x", "y")),)})
        A = build_static_A(uni, 1, enumerate_orders(uni, 1))
        assert A.shape == (2, 2)  # six orders collapse to two menu behaviors

    def test_adding_up_validated(self):
        with pytest.raises(SchemaError, match="adding-up"):
            TypeMatrix(np.array([[1], [1]], dtype=np.int8), ((1, 1), (1, 2)), ("c",))


def _type_rule_cases():
    """(name, universe, demand geometry, EU filter, hand-built per-period
    matrices)."""
    for T in (1, 2):
        periods = tuple(range(1, T + 1))
        budgets = catalog.simple_budgets(periods)
        geometry = demand_geometry(budgets, periods, index_maps=catalog.SIMPLE_INDEX_MAPS)
        uni = geometry.universe
        yield f"simple{T}", uni, geometry, None, [
            build_static_A(uni, t, enumerate_demand_types(geometry.patches[t], budgets[t])[0])
            for t in periods]
    budgets = catalog.demand3x3_budgets((1,))
    geometry = demand_geometry(budgets, (1,), index_maps=catalog.DEMAND3X3_INDEX_MAPS)
    uni = geometry.universe
    yield "demand3x3", uni, geometry, None, [
        build_static_A(uni, 1, enumerate_demand_types(geometry.patches[1], budgets[1])[0])]
    for T in (1, 2, 3):
        uni = catalog.binary_universe(periods=tuple(range(1, T + 1)))
        yield f"binary{T}", uni, None, None, [build_static_A(uni, t, enumerate_orders(uni, t))
                                              for t in uni.periods]
    uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2))
    lotteries = catalog.application_lotteries()
    yield "binary-eu", uni, None, lotteries, [
        build_static_A(uni, t, enumerate_orders(uni, t, eu_filter=lotteries))
        for t in uni.periods]


class TestStaticTypeMatrix:
    @pytest.mark.parametrize("case", list(_type_rule_cases()), ids=lambda case: case[0])
    def test_matches_the_hand_built_matrices(self, case):
        _, uni, geometry, eu_filter, expected = case
        patches = None if geometry is None else geometry.patches
        for t, want in zip(uni.periods, expected):
            got = static_type_matrix(uni, t, patches, eu_filter=eu_filter)
            assert got.matrix.dtype == want.matrix.dtype
            assert got.dense().tobytes() == want.dense().tobytes()
            assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)

    def test_a_period_missing_from_the_patches_takes_linear_orders(self, simple_setup):
        uni = simple_setup["universe"]
        A = static_type_matrix(uni, 2, {1: simple_setup["patches"][1]})
        want = build_static_A(uni, 2, enumerate_orders(uni, 2))
        assert A.dense().tobytes() == want.dense().tobytes()
        assert A.col_labels == want.col_labels

    def test_no_admitted_ranking_raises(self):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1,))
        same = {a: (Fraction(1, 2), Fraction(1, 2)) for a in ("l1", "l2", "l3")}
        with pytest.raises(ParameterError, match="no ranking is consistent"):
            static_type_matrix(uni, 1, eu_filter=same)


class TestTypeMatrix:
    """``type_matrix`` is ``kron_dynamic`` of the period rule's static
    matrices, built once per geometry and shared read-only; a build that
    raises is not stored."""

    @pytest.mark.parametrize("case", list(_type_rule_cases()), ids=lambda case: case[0])
    def test_is_the_product_of_the_static_matrices(self, case):
        _, uni, geometry, eu_filter, statics = case
        paths = list(itertools.product(*[uni.menu_indices(t) for t in uni.periods]))
        np.random.default_rng(len(paths)).shuffle(paths)
        want = kron_dynamic(statics, paths, uni)
        A = type_matrix(uni, paths, geometry, eu_filter)
        assert A.matrix.dtype == want.matrix.dtype
        assert A.matrix.tobytes() == want.matrix.tobytes()
        assert (A.row_labels, A.col_labels) == (want.row_labels, want.col_labels)
        assert not A.matrix.flags.writeable and not A.range_basis.flags.writeable
        assert type_matrix(uni, sorted(paths), geometry, eu_filter) is A

    def test_equal_arguments_share_one_build(self, simple_setup):
        uni, geometry = simple_setup["universe"], simple_setup["geometry"]
        paths = [(2, 1), (1, 1), (1, 2), (2, 2)]
        A = type_matrix(uni, paths, geometry)
        # list paths key alike
        assert type_matrix(uni, [list(p) for p in reversed(paths)], geometry) is A
        binary = catalog.binary_universe(("l1", "l2", "l3"), (1, 2))
        lotteries = catalog.application_lotteries()
        paths = list(itertools.product((1, 2, 3), repeat=2))
        E = type_matrix(binary, paths, eu_filter=lotteries)
        assert type_matrix(binary, paths, eu_filter={a: list(v) for a, v in
                                                     lotteries.items()}) is E
        assert type_matrix(binary, paths) is not E

    def test_an_empty_eu_filter_fails_as_the_static_rule_does(self):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1,))
        with pytest.raises(KeyError):
            static_type_matrix(uni, 1, eu_filter={})
        with pytest.raises(KeyError):
            type_matrix(uni, [(1,), (2,), (3,)], eu_filter={})

    def test_errors_raise_on_every_call(self, monkeypatch):
        """No failed build is stored: each call walks the rule again."""
        calls = []
        real = representations.static_type_matrix
        monkeypatch.setattr(representations, "static_type_matrix",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1,))
        same = {a: (Fraction(1, 2), Fraction(1, 2)) for a in ("l1", "l2", "l3")}
        big = catalog.binary_universe(periods=tuple(range(1, 13)))
        wide = catalog.binary_universe(tuple(f"x{k}" for k in range(10)), (1,))
        for universe, paths, eu_filter, error in (
                (uni, [(1,)], same, ParameterError),
                (big, [tuple([1] * 12)], None, SizeError),
                (wide, [(1,)], None, SizeError)):
            for _ in range(2):
                before = len(calls)
                with pytest.raises(error):
                    type_matrix(universe, paths, eu_filter=eu_filter)
                assert len(calls) > before


def _legacy_kron_dynamic(statics, observed_paths, universe):
    """kron_dynamic as a per-row loop of np.kron calls, before the rows were
    gathered and multiplied out per period: (matrix, row labels)."""
    row_maps = [{lab: r for r, lab in enumerate(a.row_labels)} for a in statics]
    mats = [a.dense() for a in statics]
    rows, labels = [], []
    for path in sorted(tuple(p) for p in observed_paths):
        for cp in universe.choice_paths(path):
            vecs = [mats[k][row_maps[k][(path[k], cp[k])]] for k in range(len(statics))]
            row = vecs[0]
            for v in vecs[1:]:
                row = np.kron(row, v)
            rows.append(row.astype(np.int8))
            labels.append((path, cp))
    return np.array(rows, dtype=np.int8), tuple(labels)


def _kron_cases():
    for T in (1, 2, 3):
        periods = tuple(range(1, T + 1))
        budgets = catalog.simple_budgets(periods)
        uni, patches, _ = demand_universe(budgets, periods, index_maps=catalog.SIMPLE_INDEX_MAPS)
        statics = [build_static_A(uni, t, enumerate_demand_types(patches[t], budgets[t])[0])
                   for t in periods]
        yield f"simple{T}", uni, statics
        uni = catalog.binary_universe(periods=periods)
        yield f"binary{T}", uni, [build_static_A(uni, t, enumerate_orders(uni, t))
                                  for t in periods]
    budgets = catalog.demand3x3_budgets((1,))
    uni, patches, _ = demand_universe(budgets, (1,), index_maps=catalog.DEMAND3X3_INDEX_MAPS)
    yield "demand3x3", uni, [build_static_A(uni, 1,
                                            enumerate_demand_types(patches[1], budgets[1])[0])]


class TestKronDynamic:
    def test_reproduces_table3(self, simple_setup):
        AT = simple_setup["AT"]
        pair_order = [(1, 1), (1, 2), (2, 1), (2, 2)]
        idx = {}
        for r, (path, cp) in enumerate(AT.row_labels):
            idx[(pair_order.index((path[0], cp[0])), pair_order.index((path[1], cp[1])))] = r
        perm = [idx[(a, b)] for a in range(4) for b in range(4)]
        assert np.array_equal(AT.dense()[perm, :], TABLE_AT_SIMPLE)

    def test_single_period_is_static(self, binary_uni_T1):
        A = build_static_A(binary_uni_T1, 1, enumerate_orders(binary_uni_T1, 1))
        AT = kron_dynamic([A], [(1,), (2,), (3,)], binary_uni_T1)
        # rows regroup by menu path but entries match the static matrix
        assert AT.shape == (6, 6)
        assert np.array_equal(np.sort(AT.dense(), axis=0), np.sort(A.dense(), axis=0))

    def test_restricted_application_shape(self):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in (1, 2, 3)]
        paths = sorted(itertools.permutations((1, 2, 3)))
        A = kron_dynamic(statics, paths, uni)
        assert A.shape == (48, 216)

    def test_kronecker_index_probes(self, simple_setup):
        AT, (A1, A2) = simple_setup["AT"], simple_setup["statics"]
        rng = np.random.default_rng(0)
        d1 = {lab: r for r, lab in enumerate(A1.row_labels)}
        dense, d1m, d2m = AT.dense(), A1.dense(), A2.dense()
        for _ in range(50):
            r = rng.integers(0, len(AT.row_labels))
            c = rng.integers(0, len(AT.col_labels))
            path, cp = AT.row_labels[r]
            c1, c2 = AT.col_labels[c]
            v1 = d1m[d1[(path[0], cp[0])], A1.col_labels.index(c1)]
            v2 = d2m[d1[(path[1], cp[1])], A2.col_labels.index(c2)]
            assert dense[r, c] == v1 * v2

    @pytest.mark.parametrize("uni,statics", [pytest.param(uni, statics, id=name)
                                             for name, uni, statics in _kron_cases()])
    def test_matches_the_per_row_kron_loop(self, uni, statics):
        all_paths = sorted(itertools.product(*[uni.menu_indices(t) for t in uni.periods]))
        # every path, and a shuffled strict subset
        rng = np.random.default_rng(len(all_paths))
        keep = rng.permutation(len(all_paths))[:max(1, len(all_paths) // 2)]
        subset = [all_paths[i] for i in keep]
        for paths in (all_paths, subset):
            new = kron_dynamic(statics, paths, uni)
            matrix, labels = _legacy_kron_dynamic(statics, paths, uni)
            assert new.matrix.dtype == np.int8 and new.matrix.shape == matrix.shape
            assert new.matrix.tobytes() == matrix.tobytes()
            assert new.row_labels == labels

    def test_size_guard(self, binary_uni_T1):
        A = build_static_A(binary_uni_T1, 1, enumerate_orders(binary_uni_T1, 1))
        big = catalog.binary_universe(periods=tuple(range(1, 13)))
        statics = [build_static_A(big, t, enumerate_orders(big, t)) for t in big.periods]
        with pytest.raises(SizeError, match="H-route"):
            kron_dynamic(statics, [tuple([1] * 12)], big)


class TestReduceStar:
    def test_binary_reduction(self, binary_uni_T1):
        A = build_static_A(binary_uni_T1, 1, enumerate_orders(binary_uni_T1, 1))
        star, minus, G, red = reduce_star(A)
        assert red.kept_labels == ((1, 1), (1, 2), (2, 1), (3, 1))
        assert red.dropped_labels == ((2, 2), (3, 2))
        assert np.array_equal(minus.dense(), G @ star.dense())

    def test_simple_reduction(self, simple_setup):
        star, minus, G, red = reduce_star(simple_setup["statics"][0])
        assert np.array_equal(star.dense(), TABLE_A_SIMPLE[:3])
        assert np.array_equal(minus.dense(), [[0, 1, 1]])
        assert np.array_equal(G, [[1, 1, -1]])

    def test_one_menu_reduction(self):
        uni = ChoiceUniverse((1,), {1: ("x", "y")}, {1: (Menu(1, ("x", "y")),)})
        A = build_static_A(uni, 1, enumerate_orders(uni, 1))
        star, minus, G, red = reduce_star(A)
        assert np.array_equal(star.dense(), A.dense())
        assert minus.dense().shape[0] == 0

    def test_reduced_star_full_row_rank(self, binary_uni_T1, demand3x3_setup):
        for A in (build_static_A(binary_uni_T1, 1, enumerate_orders(binary_uni_T1, 1)),
                  demand3x3_setup["A"]):
            star, _, _, _ = reduce_star(A)
            m = star.dense().astype(float)
            assert np.linalg.matrix_rank(m) == m.shape[0]


TABLE_H_BINARY = np.array([
    [1, 0, -1, 0, 1, 0],
    [-1, 0, 1, 0, 0, 1],
    [0, 1, 1, 0, -1, 0],
    [0, -1, 0, 1, 1, 0],
    [1, 0, 0, 1, 0, -1],
    [0, 1, 0, -1, 0, 1]])

TABLE_H_SIMPLE = np.array([
    [1, 0, -1, 0],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 1, 0]])

TABLE_H_3X3 = np.array([
    [0, 0, 0, -1, 0, 0, 0, -1, 1, 1, 1, 0],
    [0, 0, 0, -1, 1, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0],
    [0, -1, 0, -1, 1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0, 0, -1, 0, -1],
    [0, 0, -1, -1, 0, 0, 0, 0, 1, 1, 0, 0]])


class TestCatalogH:
    def test_binary_triangle_table(self, binary_uni_T1):
        H = catalog_H("binary", binary_uni_T1, 1)
        assert np.array_equal(H.rows, TABLE_H_BINARY)
        assert H.include_nonneg

    def test_simple_table(self, simple_setup):
        H = catalog_H("simple", simple_setup["universe"], 1)
        assert np.array_equal(H.rows, TABLE_H_SIMPLE)
        assert not H.include_nonneg

    def test_demand3x3_table(self, demand3x3_setup):
        H = catalog_H("demand3x3", demand3x3_setup["universe"], 1)
        assert np.array_equal(H.rows, TABLE_H_3X3)

    def test_unknown_geometry_suggests_conversion(self, simple_setup):
        with pytest.raises(GeometryError, match="convert_V_to_H"):
            catalog_H("weird", simple_setup["universe"], 1)

    def test_matrices_compare_and_hash_by_value(self, binary_uni_T1, simple_setup):
        """Two builds of one H, catalog or reduced, are equal and hash-equal;
        a change of rows, labels or kind tells them apart, and the rows are
        read-only."""
        H = catalog_H("binary", binary_uni_T1, 1)
        assert H == catalog_H("binary", binary_uni_T1, 1)
        assert hash(H) == hash(catalog_H("binary", binary_uni_T1, 1))
        kept, dropped = reduced_static_labels(binary_uni_T1, 1)
        first, second = reduce_H(H, kept, dropped), reduce_H(H, kept, dropped)
        assert first is not second and first == second and hash(first) == hash(second)
        assert H != catalog_H("simple", simple_setup["universe"], 1)
        assert InequalityMatrix("x", H.rows, H.col_labels) != \
            InequalityMatrix("x", H.rows[::-1], H.col_labels)
        assert InequalityMatrix("x", H.rows, H.col_labels) != \
            InequalityMatrix("y", H.rows, H.col_labels)
        with pytest.raises(ValueError):
            H.rows[0, 0] = 7

    def test_catalog_rows_valid_on_generators(self, binary_uni_T1, simple_setup,
                                              demand3x3_setup):
        for kind, uni, A in [
                ("binary", binary_uni_T1,
                 build_static_A(binary_uni_T1, 1, enumerate_orders(binary_uni_T1, 1))),
                ("simple", simple_setup["universe"], simple_setup["statics"][0]),
                ("demand3x3", demand3x3_setup["universe"], demand3x3_setup["A"])]:
            H = catalog_H(kind, uni, 1)
            assert (np.asarray(H.full(), float) @ A.dense().astype(float)).min() >= 0


class TestBmMachinery:
    def test_pair_with_single_superset(self, binary_uni_T1):
        vuni = virtual_universe(binary_uni_T1)
        H = bm_matrix(vuni, 1)
        labels = H.col_labels
        pos = {lab: k for k, lab in enumerate(labels)}
        menu_xy = next(m for m in vuni.menus[1] if set(m.items) == {"x", "y"})
        grand = next(m for m in vuni.menus[1] if set(m.items) == {"x", "y", "z"})
        row = np.asarray(H.rows)[pos[(menu_xy.index, menu_xy.position("x"))]]
        expected = np.zeros(len(labels), dtype=int)
        expected[pos[(menu_xy.index, menu_xy.position("x"))]] = 1
        expected[pos[(grand.index, grand.position("x"))]] = -1
        assert np.array_equal(row, expected)

    def test_grand_menu_row_is_nonnegativity(self, binary_uni_T1):
        vuni = virtual_universe(binary_uni_T1)
        H = bm_matrix(vuni, 1)
        pos = {lab: k for k, lab in enumerate(H.col_labels)}
        grand = next(m for m in vuni.menus[1] if m.size == 3)
        row = np.asarray(H.rows)[pos[(grand.index, grand.position("x"))]]
        assert row.sum() == 1 and set(row.tolist()) <= {0, 1}

    def test_degenerate_order_gives_indicator_values(self, binary_uni_T1):
        vuni = virtual_universe(binary_uni_T1)
        order = LinearOrder(1, ("x", "y", "z"))
        A = build_static_A(vuni, 1, [order])
        vec = A.dense()[:, 0].astype(float)
        vals = np.asarray(bm_matrix(vuni, 1).rows) @ vec
        assert set(np.round(vals, 12)) <= {0.0, 1.0}

    def test_bm_matrix_needs_full_variation(self, binary_uni_T1):
        with pytest.raises(SchemaError, match="subsets"):
            bm_matrix(binary_uni_T1, 1)

    def test_size_guard(self):
        uni = ChoiceUniverse((1,), {1: tuple(range(13))}, {1: (Menu(1, tuple(range(13))),)})
        with pytest.raises(SizeError):
            virtual_universe(uni)


def _scf_from_profile_mixture(vuni, weights_by_profile):
    statics = [build_static_A(vuni, t, [LinearOrder(t, r) for r in
                                        sorted({p[k] for p in weights_by_profile
                                                for k in range(len(p))})])
               for t in vuni.periods]
    # build directly: path probabilities as mixture of profile indicators
    probs = {}
    menu_lists = [[m.index for m in vuni.menus[t]] for t in vuni.periods]
    for menu_path in itertools.product(*menu_lists):
        order = vuni.choice_paths(menu_path)
        vec = np.zeros(len(order))
        for profile, w in weights_by_profile.items():
            cp = []
            for t, j, ranking in zip(vuni.periods, menu_path, profile):
                menu = vuni.menu(t, j)
                pos_of = {a: k for k, a in enumerate(ranking)}
                best = min(menu.items, key=lambda a: pos_of[a])
                cp.append(menu.position(best))
            vec[order.index(tuple(cp))] += w
        probs[menu_path] = vec
    return StochasticChoiceFunction(vuni, probs)


class TestDrumBmValues:
    def test_single_period_reduces_to_static(self, binary_uni_T1):
        vuni = virtual_universe(binary_uni_T1)
        rho = _scf_from_profile_mixture(vuni, {(("x", "y", "z"),): 0.4,
                                               (("z", "y", "x"),): 0.6})
        levels, pair_lists = drum_bm_values(rho)
        static = np.asarray(bm_matrix(vuni, 1).rows, float) @ pair_vector(rho, pair_lists)
        assert np.allclose(levels[1], static, atol=1e-12)

    def test_single_profile_indicator_values(self):
        vuni = virtual_universe(catalog.binary_universe(periods=(1, 2)))
        rho = _scf_from_profile_mixture(vuni, {(("x", "y", "z"), ("z", "y", "x")): 1.0})
        levels, _ = drum_bm_values(rho)
        vals = np.round(levels[1].ravel(), 12)
        assert set(vals.tolist()) <= {0.0, 1.0}

    def test_mixture_linearity(self):
        vuni = virtual_universe(catalog.binary_universe(periods=(1, 2)))
        p1 = (("x", "y", "z"), ("y", "x", "z"))
        p2 = (("z", "x", "y"), ("x", "z", "y"))
        rho_a = _scf_from_profile_mixture(vuni, {p1: 1.0})
        rho_b = _scf_from_profile_mixture(vuni, {p2: 1.0})
        rho_mix = _scf_from_profile_mixture(vuni, {p1: 0.3, p2: 0.7})
        la, _ = drum_bm_values(rho_a)
        lb, _ = drum_bm_values(rho_b)
        lm, _ = drum_bm_values(rho_mix)
        for t in lm:
            assert np.allclose(lm[t], 0.3 * la[t] + 0.7 * lb[t], atol=1e-12)


class TestProjectionOps:
    def _binary_H_star(self, binary_uni_T1):
        H = catalog_H("binary", binary_uni_T1, 1)
        kept, dropped = reduced_static_labels(binary_uni_T1, 1)
        return reduce_H(H, kept, dropped)

    def test_phi_matches_published_value(self, binary_uni_T1):
        H_star = self._binary_H_star(binary_uni_T1)
        ops = projection_ops([H_star, H_star], (1, 2))
        assert ops.phi[1] == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 6), Fraction(1, 6))

    def test_gamma2_matches_published_matrix(self, binary_uni_T1):
        H_star = self._binary_H_star(binary_uni_T1)
        ops = projection_ops([H_star, H_star], (1, 2))
        g = ops.gammas[1]
        twelfth = Fraction(1, 12)
        expected = np.array([
            [4, 2, 1, 1, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
            [0, 2, 0, 0, 2, 4, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0],
            [0, 0, 2, 0, 0, 0, 2, 0, 2, 2, 2, 1, 0, 0, 1, 0],
            [0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 2, 2, 1, 2]],
            dtype=object) * twelfth
        assert np.array_equal(g, expected)

    def test_all_ones_gives_identity(self, binary_uni_T1):
        H_star = self._binary_H_star(binary_uni_T1)
        ops = projection_ops([H_star, H_star], (1, 1))
        eye = np.asarray(ops.Gamma_float())
        assert np.array_equal(eye, np.eye(16))

    def test_nonnegative_rows_sum_to_one(self, binary_uni_T1):
        H_star = self._binary_H_star(binary_uni_T1)
        ops = projection_ops([H_star, H_star, H_star], (1, 2, 3))
        for t in (1, 2):
            g = ops.gammas[t]
            for row in g:
                if all(v >= 0 for v in row):
                    assert sum(row) == Fraction(1)

    def test_k1_must_be_one(self, binary_uni_T1):
        H_star = self._binary_H_star(binary_uni_T1)
        with pytest.raises(ParameterError):
            projection_ops([H_star, H_star], (2, 2))


def _legacy_frac_eye(d):
    eye = np.full((d, d), Fraction(0), dtype=object)
    for i in range(d):
        eye[i, i] = Fraction(1)
    return eye


def _legacy_frac_kron(a, b):
    out = np.empty((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=object)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i * b.shape[0]:(i + 1) * b.shape[0],
                j * b.shape[1]:(j + 1) * b.shape[1]] = a[i, j] * b
    return out


def _legacy_gamma(phi, k):
    d = len(phi)
    phi_row = np.array([list(phi)], dtype=object)
    eye = _legacy_frac_eye(d)
    total = None
    for j in range(1, k + 1):
        term = np.array([[Fraction(1)]], dtype=object)
        for _ in range(j - 1):
            term = _legacy_frac_kron(term, phi_row)
        term = _legacy_frac_kron(term, eye)
        for _ in range(k - j):
            term = _legacy_frac_kron(term, phi_row)
        total = term if total is None else total + term
    return total / k


def _legacy_Gamma(H_star_list, k):
    blocks = []
    for pos, (H, kt) in enumerate(zip(H_star_list, k)):
        rows = np.asarray(H.full())
        if pos == 0:
            blocks.append(_legacy_frac_eye(rows.shape[1]))
        else:
            blocks.append(_legacy_gamma(representations._phi_from_rows(rows), kt))
    Gamma = blocks[0]
    for b in blocks[1:]:
        Gamma = _legacy_frac_kron(Gamma, b)
    return Gamma


def _legacy_frac_inv(M):
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class TestExactRational:
    """numpy's Kronecker product and the double-description inverse against
    frozen copies of the Fraction helpers they replaced."""

    def _reduced(self, uni, kind):
        kept, dropped = reduced_static_labels(uni, 1)
        return reduce_H(catalog_H(kind, uni, 1), kept, dropped)

    @pytest.mark.parametrize("kind", ["simple", "binary"])
    @pytest.mark.parametrize("k", [(1, 2), (1, 3), (1, 2, 2)])
    def test_gamma_matches_frozen_fraction_kron(self, kind, k, simple_setup, binary_uni_T1):
        uni = simple_setup["universe"] if kind == "simple" else binary_uni_T1
        H_star = self._reduced(uni, kind)
        ops = projection_ops([H_star] * len(k), k)
        old = _legacy_Gamma([H_star] * len(k), k)
        assert ops.Gamma.shape == old.shape and np.array_equal(ops.Gamma, old)
        assert all(type(v) is Fraction for v in ops.Gamma.ravel())
        for pos, kt in enumerate(k[1:], 1):
            assert np.array_equal(ops.gammas[pos], _legacy_gamma(ops.phi[pos], kt))
            assert all(type(v) is Fraction for v in ops.gammas[pos].ravel())

    def test_recovery_matrix_unchanged(self):
        from drumtest.checks import SIMPLE_A, simple_recovery_matrix
        A = [[Fraction(int(v)) for v in row] for row in SIMPLE_A]
        AtA = [[sum(A[r][i] * A[r][j] for r in range(4)) for j in range(3)] for i in range(3)]
        inv = _legacy_frac_inv(AtA)
        H = [[sum(inv[i][k] * A[r][k] for k in range(3)) for r in range(4)] for i in range(3)]
        old = np.array([[float(v) for v in row] for row in H])
        assert simple_recovery_matrix().tobytes() == old.tobytes()


class TestKronInequalities:
    def test_dynamic_triangle_instance_present(self, binary_uni_T2):
        """The published second-period triangle instance with the first
        period pinned at (z from {x,z}) appears as a row of the Kronecker
        system and is valid on the dynamic cone."""
        H1 = catalog_H("binary", binary_uni_T2, 1)
        H2 = catalog_H("binary", binary_uni_T2, 2)
        K = kron_inequalities([H1, H2])
        labels = list(K.col_labels)
        # columns: ((j1, j2), (i1, i2)) path labels; target row:
        # + (z|{x,z} ; x|{x,z}) + (z|{x,z} ; z|{y,z}) - (z|{x,z} ; x|{x,y})
        want = np.zeros(len(labels))
        want[labels.index(((2, 2), (2, 1)))] = 1
        want[labels.index(((2, 3), (2, 2)))] = 1
        want[labels.index(((2, 1), (2, 1)))] = -1
        rows = np.asarray(K.full(), float)
        assert any(np.array_equal(r, want) for r in rows)
        statics = [build_static_A(binary_uni_T2, t, enumerate_orders(binary_uni_T2, t))
                   for t in (1, 2)]
        AT = kron_dynamic(statics, sorted(itertools.product((1, 2, 3), repeat=2)),
                          binary_uni_T2)
        # the dynamic matrix rows carry the same labels, so reorder them by K's
        row_of = {lab: r for r, lab in enumerate(AT.row_labels)}
        perm = [row_of[lab] for lab in K.col_labels]
        assert (rows @ AT.dense().astype(float)[perm]).min() >= 0
