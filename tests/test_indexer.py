"""The one indexer between rho and the flat vectors (``model.rho_vector``,
``model.path_blocks``) against frozen copies of the flatteners and inverses
it replaced: bit-identical vectors on seeded inputs, and the same
SchemaError on an unobserved menu path from every former caller."""

import itertools
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from drumtest import catalog, counterfactuals, inference
from drumtest.checks import (adsrp_audit, check_H, cone_membership, hierarchy_feasible,
                             unique_recovery)
from drumtest.counterfactuals import CounterfactualProblem
from drumtest.errors import SchemaError
from drumtest.geometry import Budget, demand_universe, enumerate_demand_types
from drumtest.model import StochasticChoiceFunction, path_blocks, rho_vector
from drumtest.doubledesc import convert_V_to_H
from drumtest.representations import (build_static_A, catalog_H, drum_bm_values,
                                      enumerate_orders, full_pair_lists, kron_dynamic,
                                      kron_inequalities, kron_labels, pair_vector,
                                      static_type_matrix, virtual_universe)

# --- frozen copies of the replaced flatteners and inverses -------------------------------


def _legacy_rho_vector_for(A, rho):
    uni = rho.universe
    cache = {}
    out = np.empty(len(A.row_labels))
    for k, (path, cp) in enumerate(A.row_labels):
        if path not in cache:
            if path not in rho.probs:
                raise SchemaError(f"menu path {path} in A is not observed in rho")
            order = {c: i for i, c in enumerate(uni.choice_paths(path))}
            cache[path] = (order, np.asarray(rho.probs[path], dtype=float))
        order, vec = cache[path]
        out[k] = vec[order[cp]]
    return out


def _legacy_pair_vector(rho, pair_lists):
    uni = rho.universe
    cache = {}
    out = np.empty(int(np.prod([len(p) for p in pair_lists])))
    for flat, combo in enumerate(itertools.product(*pair_lists)):
        menu_path = tuple(p[0] for p in combo)
        cp = tuple(p[1] for p in combo)
        if menu_path not in cache:
            if menu_path not in rho.probs:
                raise SchemaError(f"menu path {menu_path} not observed; "
                                  "the H-route needs full menu-path coverage")
            order = {c: k for k, c in enumerate(uni.choice_paths(menu_path))}
            cache[menu_path] = (order, np.asarray(rho.probs[menu_path], dtype=float))
        order, vec = cache[menu_path]
        out[flat] = vec[order[cp]]
    return out


def _legacy_blocks_from_labels(row_labels):
    """Contiguous row ranges per menu path, in label order."""
    blocks, start = [], 0
    current = row_labels[0][0]
    for k, (path, _) in enumerate(row_labels):
        if path != current:
            blocks.append((current, start, k))
            current, start = path, k
    blocks.append((current, start, len(row_labels)))
    return blocks


def _legacy_run_test_vector(rho, A):
    """The flattening loop of ``run_test``, with its checks."""
    blocks = _legacy_blocks_from_labels(A.row_labels)
    vec = np.empty(len(A.row_labels))
    for path, start, stop in blocks:
        if path not in rho.probs:
            raise SchemaError(f"menu path {path} in A is not observed")
        order = rho.universe.choice_paths(path)
        arr = np.asarray(rho.probs[path], dtype=float)
        expect = [lab for lab in A.row_labels[start:stop]]
        got = [(path, cp) for cp in order]
        if expect != got:
            raise SchemaError("A rows are not in the canonical path order")
        vec[start:stop] = arr
    return vec


def _legacy_rho_from_weights(uni, AT, nu):
    fitted = AT.dense().astype(float) @ np.asarray(nu, dtype=float)
    probs = {}
    pos = 0
    paths = sorted({p for p, _ in AT.row_labels})
    for path in paths:
        k = len(uni.choice_paths(path))
        probs[path] = fitted[pos:pos + k]
        pos += k
    return StochasticChoiceFunction(uni, probs)


def _legacy_projected(problem, model):
    rho = problem.rho
    uni = rho.universe
    _, weights, _ = cone_membership(rho, model.observed)
    fitted = model.observed.dense().astype(float) @ weights
    probs = {}
    pos = 0
    for path in sorted(rho.observed_paths):
        k = len(uni.choice_paths(path))
        block = np.clip(fitted[pos:pos + k], 0.0, None)
        probs[path] = block / block.sum()
        pos += k
    return StochasticChoiceFunction(uni, probs, rho.counts, None)


# --- seeded inputs ------------------------------------------------------------------------


def _demand_case(budgets_fn, maps, T):
    periods = tuple(range(1, T + 1))
    budgets = budgets_fn(periods)
    uni, patches, _ = demand_universe(budgets, periods, index_maps=maps)
    statics = [build_static_A(uni, t, enumerate_demand_types(patches[t], budgets[t])[0])
               for t in periods]
    return uni, statics


def _binary_case(T):
    uni = catalog.binary_universe(periods=tuple(range(1, T + 1)))
    return uni, [build_static_A(uni, t, enumerate_orders(uni, t)) for t in uni.periods]


CASES = [("simple", T) for T in (1, 2, 3)] + [("binary", T) for T in (1, 2, 3)] \
    + [("demand3x3", 1)]

@lru_cache(maxsize=None)
def _case(kind, T):
    if kind == "simple":
        return _demand_case(catalog.simple_budgets, catalog.SIMPLE_INDEX_MAPS, T)
    if kind == "demand3x3":
        return _demand_case(catalog.demand3x3_budgets, catalog.DEMAND3X3_INDEX_MAPS, T)
    return _binary_case(T)


def _menu_lists(uni, partial):
    """Menus per period: all of them, or for a partial path set every menu
    but the last (period 1 keeps all of its menus when there are more
    periods)."""
    lists = [list(uni.menu_indices(t)) for t in uni.periods]
    if partial:
        lists = [m if (k == 0 and len(lists) > 1) or len(m) == 1 else m[:-1]
                 for k, m in enumerate(lists)]
    return lists


def _random_rho(uni, paths, seed):
    """Per-path Dirichlet blocks with sample sizes: no mixture, so nothing
    here goes through the indexer under test."""
    rng = np.random.default_rng(seed)
    probs = {p: rng.dirichlet(np.ones(len(uni.choice_paths(p)))) for p in paths}
    return StochasticChoiceFunction(uni, probs, counts={p: 20 for p in paths})


@pytest.mark.parametrize("partial", [False, True], ids=["all-paths", "partial-paths"])
@pytest.mark.parametrize("kind,T", CASES)
def test_gather_matches_frozen_flatteners(kind, T, partial):
    uni, statics = _case(kind, T)
    menus = _menu_lists(uni, partial)
    paths = sorted(itertools.product(*menus))
    A = kron_dynamic(statics, paths, uni)
    pair_lists = [[lab for lab in full if lab[0] in keep]
                  for full, keep in zip(full_pair_lists(uni), menus)]
    for seed in range(3):
        rho = _random_rho(uni, paths, seed=1000 * T + seed)
        old = _legacy_rho_vector_for(A, rho).tobytes()
        assert rho_vector(rho, A.row_labels).tobytes() == old
        assert _legacy_run_test_vector(rho, A).tobytes() == old
        assert pair_vector(rho, pair_lists).tobytes() == \
            _legacy_pair_vector(rho, pair_lists).tobytes()
        assert rho_vector(rho, kron_labels(pair_lists)).tobytes() == \
            _legacy_pair_vector(rho, pair_lists).tobytes()
        # any label order: the frozen flattener on the same shuffled rows
        perm = np.random.default_rng(seed).permutation(len(A.row_labels))
        shuffled = tuple(A.row_labels[i] for i in perm)
        assert rho_vector(rho, shuffled).tobytes() == \
            _legacy_rho_vector_for(SimpleNamespace(row_labels=shuffled), rho).tobytes()


@pytest.mark.parametrize("partial", [False, True], ids=["all-paths", "partial-paths"])
@pytest.mark.parametrize("kind,T", CASES)
def test_inverse_matches_frozen_rho_from_weights(kind, T, partial):
    uni, statics = _case(kind, T)
    paths = sorted(itertools.product(*_menu_lists(uni, partial)))
    A = kron_dynamic(statics, paths, uni)
    rng = np.random.default_rng(T)
    for _ in range(3):
        nu = rng.dirichlet(np.ones(A.shape[1]))
        old = _legacy_rho_from_weights(uni, A, nu)
        fitted = A.dense().astype(float) @ nu
        new = path_blocks(uni, paths, fitted)
        assert list(new) == old.observed_paths
        for path in paths:
            assert new[path].tobytes() == old.probs[path].tobytes()
        # gathering the split vector gives the vector back
        back = rho_vector(StochasticChoiceFunction(uni, new), A.row_labels)
        assert back.tobytes() == fitted.tobytes()


def test_inverse_rejects_a_vector_of_the_wrong_length():
    uni, _ = _case("simple", 1)
    with pytest.raises(SchemaError, match="does not split"):
        path_blocks(uni, [(1,), (2,)], np.zeros(5))


def _counterfactual_problem(rho, budgets):
    new_budgets = [Budget("next", 1, (Fraction(2), Fraction(1)), Fraction(1)),
                   Budget("next", 2, (Fraction(1), Fraction(2)), Fraction(1))]
    g = {(1, 1): 0.2, (1, 2): 0.8, (2, 1): 0.3, (2, 2): 0.7}
    return CounterfactualProblem(rho, budgets, new_budgets, g, g)


@pytest.mark.parametrize("partial", [False, True], ids=["all-paths", "partial-paths"])
@pytest.mark.parametrize("T", [1, 2])
def test_projection_inverse_matches_frozen_copy(T, partial):
    uni, _ = _case("simple", T)
    budgets = catalog.simple_budgets(uni.periods)
    paths = sorted(itertools.product(*_menu_lists(uni, partial)))
    for seed in range(3):
        rho = _random_rho(uni, paths, seed=seed)
        problem = _counterfactual_problem(rho, budgets)
        model = counterfactuals._model_for(problem)
        old = _legacy_projected(problem, model)
        new = counterfactuals._projected(problem, model)
        assert new.observed_paths == old.observed_paths and new.counts == old.counts
        for path in paths:
            assert new.probs[path].tobytes() == old.probs[path].tobytes()


# --- every former caller still rejects an unobserved menu path -----------------------------


@pytest.fixture(scope="module")
def simple_T2():
    uni, statics = _case("simple", 2)
    A = kron_dynamic(statics, sorted(itertools.product((1, 2), repeat=2)), uni)
    partial = _random_rho(uni, [(1, 1), (1, 2), (2, 1)], seed=0)
    return uni, A, partial


def test_former_callers_reject_unobserved_paths(simple_T2):
    uni, A, rho = simple_T2
    H = kron_inequalities([catalog_H("simple", uni, t) for t in uni.periods])
    H_list = [catalog_H("simple", uni, t) for t in uni.periods]
    calls = [lambda: check_H(rho, H),
             lambda: cone_membership(rho, A),
             lambda: adsrp_audit(rho, A, max_len=1),
             lambda: pair_vector(rho, full_pair_lists(uni)),
             lambda: unique_recovery(rho),
             lambda: hierarchy_feasible(rho, H_list, (1, 2)),
             lambda: inference.run_test(rho, A, inference.TestConfig(reps=9))]
    for call in calls:
        with pytest.raises(SchemaError, match=r"menu path \(2, 2\)"):
            call()
    # the legacy flatteners agree on the rejection
    with pytest.raises(SchemaError):
        _legacy_rho_vector_for(A, rho)
    with pytest.raises(SchemaError):
        _legacy_pair_vector(rho, full_pair_lists(uni))


def test_bm_values_reject_unobserved_virtual_paths():
    vuni = virtual_universe(catalog.binary_universe(periods=(1,)))
    paths = [(j,) for j in vuni.menu_indices(1)][:-1]
    with pytest.raises(SchemaError, match="not observed"):
        drum_bm_values(_random_rho(vuni, paths, seed=0))



# --- one-period static labels ----------------------------------------------------------------


def test_one_period_rho_reads_static_labels():
    """On a one-period rho a static ``(menu, item)`` label is the path label
    ``((menu,), (item,))``, so a static catalog H, its one-element list, the
    V-to-H conversion and the static type matrix all check the same vector;
    a longer rho rejects static labels and names the label format."""
    uni = catalog.binary_universe(periods=(1,))
    A = static_type_matrix(uni, 1)
    paths = [(j,) for j in uni.menu_indices(1)]
    nu = np.random.default_rng(3).dirichlet(np.ones(A.shape[1]))
    blocks = path_blocks(uni, paths, A.dense() @ nu)
    rho = StochasticChoiceFunction(uni, {p: b / b.sum() for p, b in blocks.items()})
    static = rho_vector(rho, A.row_labels)
    assert static.tobytes() == pair_vector(rho, [list(A.row_labels)]).tobytes()
    H = catalog_H("binary", uni, 1)
    single, listed = check_H(rho, H), check_H(rho, [H])
    assert single.passed and listed.passed
    assert single.diagnostics["min_row_value"] == listed.diagnostics["min_row_value"]
    assert check_H(rho, convert_V_to_H(A)).passed
    distance, _, report = cone_membership(rho, A)
    assert report.passed and distance == cone_membership(static, A)[0]

    uni2 = catalog.binary_universe(periods=(1, 2))
    rho2 = _random_rho(uni2, list(itertools.product(uni2.menu_indices(1), repeat=2)), seed=0)
    for call in (lambda: check_H(rho2, catalog_H("binary", uni2, 1)),
                 lambda: cone_membership(rho2, static_type_matrix(uni2, 1)),
                 lambda: rho_vector(rho2, [(1, 1)])):
        with pytest.raises(SchemaError, match=r"one-period \(menu, item\) label"):
            call()
