"""The path-major layout of a choice-path distribution: every entry of a
flat vector is found by its menu path's block and the choice path's
position. The checks, the cone test and the bounds read their inputs that
way; these tests hold them to the label lookups they replaced and to the
input errors they raise."""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from drumtest import catalog
from drumtest.checks import _off_combinations, check_d_monotonicity, dominance_from_universe
from drumtest.cli import main
from drumtest.counterfactuals import (CounterfactualProblem, bound_functional,
                                      kron_counterfactual_cone)
from drumtest.errors import SchemaError
from drumtest.geometry import Budget, demand_universe
from drumtest.inference import TestConfig, run_test
from drumtest.io import read_rho, write_budgets, write_rho, write_universe
from drumtest.model import StochasticChoiceFunction
from drumtest.representations import kron_dynamic, static_type_matrix

from conftest import rho_from_weights


def _legacy_iterated_differences(universe, dominance, paths):
    """``checks.iterated_differences`` as it yielded ``(sign, menu_path,
    choice_path)`` terms, tested against a set of choice paths per path."""
    periods = universe.periods
    n = len(periods)
    present = {path: set(universe.choice_paths(path)) for path in paths}
    t_positions = [k for k, t in enumerate(periods) if dominance.get(t)]
    for size in range(1, len(t_positions) + 1):
        for subseq in itertools.combinations(t_positions, size):
            subsets = list(itertools.chain.from_iterable(
                itertools.combinations(subseq, m) for m in range(size + 1)))
            for combo in itertools.product(*[dominance[periods[k]] for k in subseq]):
                base_menu = {k: pair[1][0] for k, pair in zip(subseq, combo)}
                base_choice = {k: pair[1][1] for k, pair in zip(subseq, combo)}
                repl_menu = {k: pair[0][0] for k, pair in zip(subseq, combo)}
                repl_choice = {k: pair[0][1] for k, pair in zip(subseq, combo)}
                off = [k for k in range(n) if k not in subseq]
                for off_menu, off_choice in _off_combinations(universe, paths, off, base_menu):
                    terms = []
                    for S in subsets:
                        menu_path = tuple(
                            repl_menu[k] if k in S else base_menu.get(k, off_menu.get(k))
                            for k in range(n))
                        cp = tuple(
                            repl_choice[k] if k in S else base_choice.get(k, off_choice.get(k))
                            for k in range(n))
                        if cp not in present.get(menu_path, ()):
                            terms = None
                            break
                        terms.append(((-1) ** (size - len(S)), menu_path, cp))
                    yield subseq, combo, off_menu, off_choice, terms


def _legacy_check_d_monotonicity(rho, tol=1e-9):
    """``check_d_monotonicity`` as it read each term through a dict of
    choice path to probability per menu path: (passed, worst, violations,
    evaluated, skipped, vacuous)."""
    uni = rho.universe
    lookup = {}
    for path in rho.observed_paths:
        lookup[path] = dict(zip(uni.choice_paths(path), np.asarray(rho.probs[path], dtype=float)))
    worst, violations, skipped, evaluated = 0.0, [], 0, 0
    for subseq, combo, off_menu, off_choice, terms in _legacy_iterated_differences(
            uni, dominance_from_universe(uni), rho.observed_paths):
        if terms is None:
            skipped += 1
            continue
        evaluated += 1
        value = 0.0
        for sign, menu_path, cp in terms:
            value += sign * lookup[menu_path][cp]
        worst = min(worst, value)
        if value < -tol:
            violations.append((tuple(uni.periods[k] for k in subseq), combo,
                               tuple(sorted(off_menu.items())),
                               tuple(sorted(off_choice.items())), value))
    return worst >= -tol, worst, tuple(violations), evaluated, skipped, evaluated == 0


def _demand(kind, T):
    periods = tuple(range(1, T + 1))
    budgets, maps = {"simple": (catalog.simple_budgets, catalog.SIMPLE_INDEX_MAPS),
                     "demand3x3": (catalog.demand3x3_budgets, catalog.DEMAND3X3_INDEX_MAPS)}[kind]
    uni, patches, _ = demand_universe(budgets(periods), periods, index_maps=maps)
    paths = sorted(itertools.product(*[uni.menu_indices(t) for t in periods]))
    A = kron_dynamic([static_type_matrix(uni, t, patches) for t in periods], paths, uni)
    return uni, A


def _mixtures(uni, A, seed, count=4):
    """Dirichlet mixtures of A's columns, dense and sparse, then pure types."""
    rng = np.random.default_rng(seed)
    n = A.shape[1]
    out = [rho_from_weights(uni, A, rng.dirichlet(np.full(n, c)))
           for c in (1.0, 0.05) for _ in range(count)]
    for col in rng.choice(n, size=min(n, count), replace=False):
        out.append(rho_from_weights(uni, A, np.eye(n)[col]))
    return out


def _assert_same_dmono(rho):
    report = check_d_monotonicity(rho)
    got = (report.passed, report.worst_violation, report.violations,
           report.diagnostics["evaluated"], report.diagnostics["skipped"], report.vacuous)
    assert got == _legacy_check_d_monotonicity(rho)
    return report


class TestDMonotonicityByPosition:
    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_simple_mixtures(self, T):
        uni, A = _demand("simple", T)
        for rho in _mixtures(uni, A, 10 + T):
            _assert_same_dmono(rho)

    def test_published_tables(self, table5_rho, table9_rho):
        assert not _assert_same_dmono(table5_rho).passed
        _assert_same_dmono(table9_rho)

    @pytest.mark.parametrize("T", [1, 2])
    def test_demand3x3_with_violations(self, T):
        uni, A = _demand("demand3x3", T)
        reports = [_assert_same_dmono(rho) for rho in _mixtures(uni, A, 20 + T)]
        assert any(r.violations for r in reports)

    @pytest.mark.parametrize("kind", ["simple", "demand3x3"])
    def test_partial_path_set(self, kind):
        uni, A = _demand(kind, 2)
        for rho in _mixtures(uni, A, 30, count=2):
            paths = rho.observed_paths
            for kept in (paths[:-1], paths[1::2]):
                partial = StochasticChoiceFunction(uni, {p: rho.probs[p] for p in kept})
                report = _assert_same_dmono(partial)
                assert report.diagnostics["skipped"] > 0


class TestRunTestLayoutErrors:
    def _counted(self, simple_setup, drop_count=None):
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        counts = {path: 50 for path in rho.observed_paths if path != drop_count}
        return StochasticChoiceFunction(rho.universe, rho.probs, counts)

    def test_rows_permuted_inside_a_block(self, simple_setup):
        A = simple_setup["AT"]
        order = np.arange(len(A.row_labels))
        order[[0, 1]] = order[[1, 0]]
        permuted = replace(A, matrix=A.matrix[order],
                           row_labels=tuple(A.row_labels[k] for k in order))
        with pytest.raises(SchemaError, match="canonical path order"):
            run_test(self._counted(simple_setup), permuted, TestConfig(reps=9))

    def test_path_without_a_count(self, simple_setup):
        rho = self._counted(simple_setup, drop_count=(2, 1))
        with pytest.raises(SchemaError, match=r"menu path \(2, 1\) has no recorded sample size"):
            run_test(rho, simple_setup["AT"], TestConfig(reps=9))

    def test_unobserved_path(self, simple_setup):
        rho = self._counted(simple_setup)
        three = StochasticChoiceFunction(rho.universe,
                                         {p: v for p, v in rho.probs.items() if p != (1, 2)},
                                         rho.counts)
        with pytest.raises(SchemaError, match=r"menu path \(1, 2\) in A is not observed"):
            run_test(three, simple_setup["AT"], TestConfig(reps=9))


def _new_budgets():
    return [Budget("next", 1, (Fraction(2), Fraction(1)), Fraction(1)),
            Budget("next", 2, (Fraction(1), Fraction(2)), Fraction(1))]


class TestBoundsInputErrors:
    def _problem(self, simple_setup, g_lower, g_upper, **kw):
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        return CounterfactualProblem(rho, simple_setup["budgets"], _new_budgets(), g_lower,
                                     g_upper, **kw)

    @pytest.mark.parametrize("route", [bound_functional, kron_counterfactual_cone])
    def test_functional_missing_a_target_patch(self, simple_setup, route):
        g = {(1, 1): 0.1}
        problem = self._problem(simple_setup, g, g, target_budget=1)
        with pytest.raises(SchemaError, match=r"no bounds for next-period patches \[\(1, 2\)\] of budget 1"):
            route(problem)

    def test_upper_bound_without_a_lower_bound(self, simple_setup):
        lower = {(1, 1): 0.1, (1, 2): 0.2}
        with pytest.raises(SchemaError, match=r"patches \[\(2, 1\)\] need both"):
            self._problem(simple_setup, lower, {**lower, (2, 1): 0.5})

    @pytest.mark.parametrize("route", [bound_functional, kron_counterfactual_cone])
    def test_condition_on_a_choice_path_the_menu_path_lacks(self, simple_setup, route):
        g = {(j, i): 0.5 for j in (1, 2) for i in (1, 2)}
        problem = self._problem(simple_setup, g, g, condition=((1, 2), (3, 1)))
        with pytest.raises(SchemaError, match=r"\(3, 1\) is not a choice path of menu path"):
            route(problem)

    def test_cli_exits_1_naming_the_missing_patch(self, simple_setup, tmp_path, capsys):
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        write_universe(rho.universe, tmp_path / "universe.json")
        write_rho(rho, tmp_path / "rho.csv")
        write_budgets(catalog.simple_budgets((1, 2)), tmp_path / "budgets.csv")
        (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n1,1,0.1,0.9\n")
        code = main(["bounds", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--budgets", str(tmp_path / "budgets.csv"),
                     "--new-budget", "2,1;1,2", "--g", str(tmp_path / "g.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: SchemaError:" in err
        assert "(1, 2)" in err


class TestReadRhoRejects:
    def _write(self, tmp_path, rows):
        path = tmp_path / "rho.csv"
        path.write_text("menu_path,choice_path,prob,count\n" + "".join(r + "\n" for r in rows))
        return path

    def test_a_choice_path_the_menu_path_lacks(self, tmp_path):
        uni = catalog.binary_universe(periods=(1,))
        path = self._write(tmp_path, ["1,1,0.3,", "1,2,0.7,", "1,3,0.7,"])
        with pytest.raises(SchemaError, match=r"\(3,\) is not a choice path of menu path \(1,\)"):
            read_rho(path, uni)

    def test_a_repeated_row(self, tmp_path):
        uni = catalog.binary_universe(periods=(1,))
        path = self._write(tmp_path, ["1,1,0.3,", "1,2,0.7,", "1,2,0.7,"])
        with pytest.raises(SchemaError, match="has two rows"):
            read_rho(path, uni)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_a_probability_that_is_not_finite(self, tmp_path, bad):
        uni = catalog.binary_universe(periods=(1,))
        path = self._write(tmp_path, [f"1,1,{bad},", "1,2,0.7,"])
        with pytest.raises(SchemaError, match=r"menu path \(1,\): probabilities are not finite"):
            read_rho(path, uni)

    def test_rows_that_disagree_on_the_count(self, tmp_path):
        uni = catalog.binary_universe(periods=(1,))
        path = self._write(tmp_path, ["1,1,0.3,10", "1,2,0.7,99"])
        with pytest.raises(SchemaError, match=r"menu path \(1,\) has rows with counts 10 and 99"):
            read_rho(path, uni)

    def test_rows_that_agree_on_the_count(self, tmp_path):
        uni = catalog.binary_universe(periods=(1,))
        rho = read_rho(self._write(tmp_path, ["1,1,0.3,10", "1,2,0.7,10"]), uni)
        assert rho.counts == {(1,): 10}
