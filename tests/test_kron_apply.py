"""Kronecker systems applied factor by factor: ``kron_apply`` against the
materialised product, ``check_H`` on per-period factors against
``kron_inequalities``, the unique recovery against its dense operator, and
the memory the factored routes need where the dense ones cannot run."""

import itertools
import json
import math
import tracemalloc
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drumtest import catalog, io
from drumtest.checks import SIMPLE_A, check_H, simple_recovery_matrix, unique_recovery
from drumtest.cli import main
from drumtest.errors import SizeError
from drumtest.geometry import demand_universe
from drumtest.model import StochasticChoiceFunction
from drumtest.representations import (catalog_H, full_pair_lists, kron_apply, kron_dynamic,
                                      kron_inequalities, pair_vector, static_type_matrix)

from conftest import rho_from_weights

MB = 2 ** 20


@settings(max_examples=200, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(shapes=[(2, 3), (0, 2), (3, 1)], seed=0)
def test_kron_apply_equals_the_dense_product(shapes, seed):
    rng = np.random.default_rng(seed)
    factors = [rng.integers(-3, 4, size=shape) for shape in shapes]
    x = rng.integers(-5, 6, size=math.prod(c for _, c in shapes)).astype(float)
    want = reduce(np.kron, factors) @ x
    got = kron_apply(factors, x)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12


@lru_cache(maxsize=None)
def _geometry(name):
    """Universe, per-period catalog H-matrices and the dynamic type matrix
    over all menu paths of a catalog geometry named kind + T."""
    kind, T = name[:-1], int(name[-1])
    periods = tuple(range(1, T + 1))
    if kind == "binary":
        uni, patches = catalog.binary_universe(periods=periods), None
    else:
        budgets, maps = {"simple": (catalog.simple_budgets, catalog.SIMPLE_INDEX_MAPS),
                         "demand3x3": (catalog.demand3x3_budgets,
                                       catalog.DEMAND3X3_INDEX_MAPS)}[kind]
        uni, patches, _ = demand_universe(budgets(periods), periods, index_maps=maps)
    statics = [static_type_matrix(uni, t, patches) for t in periods]
    paths = sorted(itertools.product(*[uni.menu_indices(t) for t in periods]))
    return uni, [catalog_H(kind, uni, t) for t in periods], kron_dynamic(statics, paths, uni)


def _product_rho(uni, static_probs):
    """Independent draws per period: every menu path observed, and a choice
    path's probability the product of its per-period ``(menu, item)``
    probabilities (one dict per period)."""
    probs = {}
    for path in itertools.product(*[uni.menu_indices(t) for t in uni.periods]):
        probs[path] = np.array([math.prod(p[(j, i)] for p, j, i in zip(static_probs, path, cp))
                                for cp in uni.choice_paths(path)])
    return StochasticChoiceFunction(uni, probs)


def _static_mixtures(uni, rng, patches=None):
    """Per period a random mixture of the static types: the weights, and the
    probabilities they give the period's (menu, item) labels."""
    weights, probs = [], []
    for t in uni.periods:
        A = static_type_matrix(uni, t, patches)
        weights.append(rng.dirichlet(np.ones(A.shape[1])))
        probs.append(dict(zip(A.row_labels, A.dense() @ weights[-1])))
    return weights, probs


def _assert_same_report(got, want):
    assert got.passed == want.passed
    assert got.violations == want.violations
    assert abs(got.worst_violation - want.worst_violation) <= 1e-12
    assert abs(got.diagnostics["min_row_value"] - want.diagnostics["min_row_value"]) <= 1e-12
    rest = {k: v for k, v in got.diagnostics.items() if k != "min_row_value"}
    assert rest == {k: v for k, v in want.diagnostics.items() if k != "min_row_value"}


class TestCheckHOnFactors:
    @pytest.mark.parametrize("name", ["simple1", "simple2", "binary1", "binary2", "binary3",
                                      "demand3x31"])
    def test_matches_the_materialised_system(self, name):
        """Mixtures of the dynamic types and per-path random distributions
        (which break some rows) give the same report on both routes."""
        uni, H_list, A = _geometry(name)
        rng = np.random.default_rng(len(name))
        paths = sorted({path for path, _ in A.row_labels})
        inputs = [rho_from_weights(uni, A, rng.dirichlet(np.full(A.shape[1], c)))
                  for c in (0.3, 1.0, 5.0)]
        inputs += [StochasticChoiceFunction(uni, {path: rng.dirichlet(np.ones(
            len(uni.choice_paths(path)))) for path in paths}) for _ in range(3)]
        dense = kron_inequalities(H_list)
        for rho in inputs:
            got = check_H(rho, H_list)
            _assert_same_report(got, check_H(rho, dense))
            assert got.diagnostics["inequality_rows"] == dense.rows.shape[0]
            assert got.diagnostics["columns"] == dense.rows.shape[1] == A.shape[0]

    @pytest.mark.parametrize("table", ["table5_rho", "table9_rho"])
    def test_matches_on_the_published_tables(self, request, table, simple_setup):
        H_list = [catalog_H("simple", simple_setup["universe"], t) for t in (1, 2)]
        rho = request.getfixturevalue(table)
        _assert_same_report(check_H(rho, H_list), check_H(rho, kron_inequalities(H_list)))

    def test_guarded_product_is_checked_on_its_factors(self):
        """Five alternatives at T=3: the materialised system would hold
        4.1e9 entries, so it raises before allocating; the factors check a
        uniform mixture of all orders."""
        uni = catalog.binary_universe(tuple("abcde"), (1, 2, 3))
        H_list = [catalog_H("binary", uni, t) for t in uni.periods]
        with pytest.raises(SizeError, match="size guard"):
            kron_inequalities(H_list)
        rho = StochasticChoiceFunction(uni, {path: np.full(8, 1 / 8) for path in
                                             itertools.product(range(1, 11), repeat=3)})
        report = check_H(rho, H_list)
        assert report.passed
        assert (report.diagnostics["inequality_rows"], report.diagnostics["columns"]) == \
            (80 ** 3, 20 ** 3)

    def test_cli_hrep_on_a_wide_binary_T3_system_stays_small(self, tmp_path, capsys):
        """Four alternatives at T=3: the dense system has 8.1e7 entries
        (about 1.2 GB with its float copy)."""
        uni = catalog.binary_universe(tuple("abcd"), (1, 2, 3))
        io.write_universe(uni, tmp_path / "universe.json")
        rho = _product_rho(uni, _static_mixtures(uni, np.random.default_rng(3))[1])
        io.write_rho(rho, tmp_path / "rho.csv")
        rows = math.prod(catalog_H("binary", uni, t).full().shape[0] for t in uni.periods)
        tracemalloc.start()
        try:
            code = main(["check", "--input", str(tmp_path / "rho.csv"),
                         "--universe", str(tmp_path / "universe.json"), "--checks", "hrep"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(capsys.readouterr().out)["hrep"]
        assert code == 0 and report["passed"]
        assert report["diagnostics"]["kind"] == "kron(trianglextrianglextriangle)"
        assert (report["diagnostics"]["inequality_rows"], report["diagnostics"]["columns"]) \
            == (rows, 12 ** 3)
        assert rows * 12 ** 3 > 8e7
        assert peak < 64 * MB


class TestUniqueRecoveryOnFactors:
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_matches_the_dense_operator(self, T):
        uni, _, A = _geometry(f"simple{T}")
        rho = rho_from_weights(uni, A, np.random.default_rng(T).dirichlet(np.ones(A.shape[1])))
        nu, diagnostics = unique_recovery(rho)
        vec = pair_vector(rho, full_pair_lists(uni))
        want = reduce(np.kron, [simple_recovery_matrix()] * T) @ vec
        residual = np.abs(reduce(np.kron, [SIMPLE_A.astype(float)] * T) @ want - vec).max()
        assert np.abs(nu - want).max() <= 1e-12
        assert abs(diagnostics["reconstruction_residual"] - residual) <= 1e-12

    def test_T7_round_trip_stays_small(self):
        """The dense T=7 operator is 2187x16384 (287 MB); the input is built
        from independent per-period mixtures, not from the dynamic matrix."""
        periods = tuple(range(1, 8))
        uni, patches, _ = demand_universe(catalog.simple_budgets(periods), periods,
                                          index_maps=catalog.SIMPLE_INDEX_MAPS)
        weights, probs = _static_mixtures(uni, np.random.default_rng(7), patches)
        rho = _product_rho(uni, probs)
        tracemalloc.start()
        try:
            nu, diagnostics = unique_recovery(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * MB
        assert np.abs(nu - reduce(np.kron, weights)).max() < 1e-10
        assert diagnostics["reconstruction_residual"] < 1e-10
