"""The full bootstrap's interval stage: after the working-set pilot every
replicate gets a certified interval [lo, up] on its J*, and only those that
straddle the statistic or could hold the critical value's rank are solved.
Hits, p-values and verdicts stay those of the bootstrap that projects every
replicate, and the critical value is an exactly solved J*."""

import dataclasses
import itertools

import numpy as np
import pytest
from conftest import full_bootstrap
from hypothesis import given, settings
from hypothesis import strategies as st

from drumtest import catalog, inference
from drumtest.checks import nnls_projection
from drumtest.inference import TestConfig, run_test
from drumtest.model import estimate_rho, path_blocks
from drumtest.representations import build_static_A, enumerate_orders, kron_dynamic
from drumtest.simulate import DgpSpec, agents_per_path_for, build_universe, simulate, \
    type_matrix_for


def _binary_matrix(periods):
    """The binary type matrix over every menu path of ``periods`` and its
    row blocks, one per menu path."""
    uni = catalog.binary_universe(periods=periods)
    statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in periods]
    paths = sorted(itertools.product(*[uni.menu_indices(t) for t in periods]))
    A = kron_dynamic(statics, paths, uni)
    rows = path_blocks(uni, paths, np.arange(len(A.row_labels)))
    return A.dense().astype(float), [(path, int(r[0]), int(r[-1]) + 1)
                                     for path, r in rows.items()]


@pytest.fixture(scope="module")
def binary_matrices():
    return {T: _binary_matrix(tuple(range(1, T + 1))) for T in (2, 3)}


def _interval_plan(dense, blocks, rng, faces):
    """A full-route plan at N = 7 on ``dense`` with random row weights,
    whose interval stage is built from the supports of ``faces``
    projections of points near the cone and from their union, a face of
    dependent columns once it outgrows the rank."""
    sqrt_w = rng.uniform(1.0, 10.0, size=len(dense))
    WA = dense * sqrt_w[:, None]
    unread = dict.fromkeys(f.name for f in dataclasses.fields(inference.BootstrapPlan))
    plan = inference.BootstrapPlan(**{**unread, "WA": WA, "sqrt_w": sqrt_w, "blocks": blocks,
                                      "N": 7, "fit": None})
    supports = np.column_stack([nnls_projection(WA, _near_cone(WA, rng, 0.5))[0] > 0
                                for _ in range(faces)])
    supports = np.column_stack([supports, supports.any(axis=1)])
    return dataclasses.replace(plan, interval=inference._interval_stage(plan, supports))


def _near_cone(WA, rng, noise):
    weights = rng.exponential(size=WA.shape[1]) * (rng.random(WA.shape[1]) < 0.1)
    return WA @ weights + noise * rng.standard_normal(len(WA))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), T=st.sampled_from([2, 3]), faces=st.integers(1, 25),
       noise=st.floats(0.0, 5.0))
def test_intervals_bracket_the_projection(binary_matrices, seed, T, faces, noise):
    """lo <= J* <= up within ``_below``'s margins, for points near the cone,
    on it and far off it."""
    rng = np.random.default_rng(seed)
    plan = _interval_plan(*binary_matrices[T], rng, faces)
    WA = plan.WA
    B = np.stack([_near_cone(WA, rng, noise) for _ in range(8)]
                 + [WA @ rng.exponential(size=WA.shape[1]),
                    noise * rng.standard_normal(len(WA))])
    lo, up = inference._intervals(plan, B)
    J = np.array([plan.N * nnls_projection(WA, b)[1] ** 2 for b in B])
    assert np.all(lo >= 0)
    assert not np.any(inference._below(up, J))
    assert not np.any(inference._below(J, lo))


# (DGP kind, reported sample size): the null binary3 cell of the criterion-7
# table, binary3 at a small sample and the binary1 cell that nearly always
# rejects
FULL_ROUTE_CELLS = [("binary3", 350), ("binary3", 40), ("binary1", 175)]


@pytest.mark.parametrize("kind,n", FULL_ROUTE_CELLS, ids=[f"{k}@{n}" for k, n in FULL_ROUTE_CELLS])
def test_full_route_matches_every_replicate_projected(kind, n):
    """Statistic, p-value and verdict equal the bootstrap that projects every
    replicate; the critical value equals its order statistic to rounding, at
    one and two jobs. The replicates bounded by their intervals close the
    count of solves."""
    dgp = DgpSpec(kind)
    universe, _ = build_universe(dgp)
    A = type_matrix_for(dgp, universe)
    bounded = 0
    for seed in range(6):
        panel, _ = simulate(dgp, agents_per_path_for(dgp, n), seed=100 + seed)
        rho = estimate_rho(panel, universe)
        config = TestConfig(reps=199, seed=seed)
        full, _ = full_bootstrap(rho, A, config)
        assert full.diagnostics["nnls_solves"] == 2 + 199
        for jobs in (1, 2):
            report = run_test(rho, A, dataclasses.replace(config, n_jobs=jobs))
            assert report.statistic == full.statistic
            assert report.p_value == full.p_value
            assert report.reject == full.reject
            assert report.critical_value == pytest.approx(full.critical_value, rel=1e-12)
            d = report.diagnostics
            assert d["nnls_solves"] - 2 + d["screened_replicates"] + \
                d["curtailed_replicates"] + d["bounded_replicates"] == 199
            assert d["screened_replicates"] == d["curtailed_replicates"] == 0
            assert d["kkt_residual_max"] < 1e-8
            bounded += d["bounded_replicates"]
    assert bounded > 0


def test_the_critical_value_is_an_exact_solve(monkeypatch):
    """Every replicate whose J* entry is the critical value was solved, and
    every replicate left to its interval lies on one side of it."""
    dgp = DgpSpec("binary3")
    universe, _ = build_universe(dgp)
    panel, _ = simulate(dgp, agents_per_path_for(dgp, 350), seed=3)
    rho = estimate_rho(panel, universe)
    real, seen = inference._exact_order_statistic, []

    def spy(plan, seeds, out, rank):
        real(plan, seeds, out, rank)
        seen.append(out)

    monkeypatch.setattr(inference, "_exact_order_statistic", spy)
    report = run_test(rho, type_matrix_for(dgp, universe), TestConfig(reps=199, seed=3))
    stats, kkt, route, upper = seen[0]
    exact = route != inference.INTERVAL
    assert np.all(stats[exact] == upper[exact]) and not np.any(np.isnan(kkt[exact]))
    assert np.all(np.isnan(kkt[~exact]))
    assert np.all(route[stats == report.critical_value] != inference.INTERVAL)
    c = report.critical_value
    assert np.all((upper[~exact] < c) | (stats[~exact] > c))
    assert report.diagnostics["bounded_replicates"] == np.sum(~exact) > 0
