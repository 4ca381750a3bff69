"""The bootstrap's interval stage: every replicate gets a certified
interval [lo, up] on its J*, from faces that grow with the
projections made, and only those that straddle the statistic or, on the
full route, could hold the critical value's rank are solved. Hits, p-values
and verdicts stay those of the bootstrap that projects every replicate, and
the critical value is an exactly solved J*."""

import dataclasses
import itertools

import numpy as np
import pytest
from conftest import curtailed_p_value, full_bootstrap
from hypothesis import given, settings
from hypothesis import strategies as st

from drumtest import catalog, inference
from drumtest.checks import nnls_projection
from drumtest.inference import TestConfig, run_test
from drumtest.model import estimate_rho, path_blocks
from drumtest.representations import (build_static_A, enumerate_orders, kron_dynamic,
                                      static_type_matrix)
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
    return A, [(path, int(r[0]), int(r[-1]) + 1) for path, r in rows.items()]


@pytest.fixture(scope="module")
def binary_matrices():
    return {T: _binary_matrix(tuple(range(1, T + 1))) for T in (2, 3)}


def _interval_plan(A, blocks, rng, faces):
    """A full-route plan at N = 7 on ``A`` with random row weights, whose
    faces are the supports of ``faces`` projections of points near the cone,
    added in two batches, and their union, a face of dependent columns once
    it outgrows the rank."""
    dense = A.dense().astype(float)
    sqrt_w = rng.uniform(1.0, 10.0, size=len(dense))
    WA = dense * sqrt_w[:, None]
    basis, dual = inference._range_and_dual(sqrt_w, blocks, A.range_basis)
    unread = dict.fromkeys(f.name for f in dataclasses.fields(inference.BootstrapPlan))
    plan = inference.BootstrapPlan(**{**unread, "WA": WA, "sqrt_w": sqrt_w, "blocks": blocks,
                                      "N": 7, "fit": None, "basis": basis, "dual": dual,
                                      "faces": inference._no_faces(WA)})
    supports = np.column_stack([nnls_projection(WA, _near_cone(WA, rng, 0.5))[0] > 0
                                for _ in range(faces)])
    plan = inference._add_faces(plan, supports[:, :faces // 2])
    return inference._add_faces(plan, np.column_stack([supports, supports.any(axis=1)]))


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
    J = np.array([plan.N * nnls_projection(WA, b)[1] ** 2 for b in B])
    # re-solved on every row, and on the rows left open by a statistic
    for statistic in (None, float(np.median(J))):
        lo, up = inference._intervals(plan, B, statistic)
        assert np.all(lo >= 0)
        assert not np.any(inference._below(up, J))
        assert not np.any(inference._below(J, lo))
    faces = plan.faces
    assert len(faces.supports) == len({face.tobytes() for face in faces.supports})
    assert np.array_equal(faces.columns, np.flatnonzero(faces.supports.any(axis=0)))
    assert np.array_equal(faces.working, WA[:, faces.columns])


@pytest.mark.parametrize("T", [2, 3])
def test_faces_hold_their_inverse_gram_matrices(binary_matrices, T):
    """Every face of independent columns keeps WA[:, S] and the inverse of
    its Gram matrix, zero-padded to the widest face, so that inverse times
    WA[:, S]^T is its pseudo-inverse; holding coordinates at 0 through the
    inverse Gram matrix gives the least-squares point on the other
    columns."""
    rng = np.random.default_rng(T)
    plan = _interval_plan(*binary_matrices[T], rng, 12)
    stage, WA = plan.faces, plan.WA
    width = stage.sub.shape[2]
    checked = 0
    for f, face in enumerate(stage.supports):
        columns = np.flatnonzero(face)
        if np.linalg.matrix_rank(WA[:, columns]) < len(columns):
            continue  # the dependent union
        checked += 1
        k = len(columns)
        assert np.array_equal(stage.sub[f, :, :k], WA[:, columns])
        assert not stage.sub[f, :, k:].any()
        assert not stage.inverse[f, :k, k:].any() and not stage.inverse[f, k:, :k].any()
        pinv = stage.inverse[f] @ stage.sub[f].T
        assert not pinv[k:].any()
        assert np.allclose(pinv[:k], np.linalg.pinv(WA[:, columns]), atol=1e-9)
        b = _near_cone(WA, rng, 1.0)
        drop = np.zeros(width, dtype=bool)
        drop[rng.choice(k, size=k // 2, replace=False)] = True
        held = inference._held_at_zero(stage.inverse, np.array([f]), (pinv @ b)[None],
                                       drop[None])[0]
        keep = np.flatnonzero(~drop[:k])
        want = np.linalg.lstsq(WA[:, columns[keep]], b, rcond=None)[0]
        assert np.allclose(held[keep], want, atol=1e-8)
        assert np.allclose(held[:k][drop[:k]], 0.0, atol=1e-9)
    assert checked >= 6


@pytest.mark.parametrize("T", [2, 3])
def test_range_basis_is_built_once_per_type_matrix(binary_matrices, T):
    """``TypeMatrix.range_basis`` is an orthonormal basis of the column
    space, of the matrix's rank, and every test on the matrix reads the one
    array."""
    A, _ = binary_matrices[T]
    U = A.range_basis
    dense = A.dense().astype(float)
    assert U.shape == (len(dense), np.linalg.matrix_rank(dense))
    assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)
    assert np.allclose(U @ (U.T @ dense), dense, atol=1e-10)
    assert A.range_basis is U


def _app_eu_panel(seed):
    """A criterion-8-shaped panel (356 agents on each of the six menu paths
    of the order mixture) and the 48x8 expected-utility type matrix of
    ``run_test_eu`` over it."""
    uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
    orders = list(itertools.permutations(("l1", "l2", "l3")))
    rotation = (("l1", "l2", "l3"), ("l2", "l3", "l1"), ("l3", "l1", "l2"))
    dgp = DgpSpec("order-mixture", {"universe": uni,
                                    "profiles": [(r, r, r) for r in orders] + [rotation],
                                    "weights": [0.14] * 6 + [0.16],
                                    "menu_paths": sorted(itertools.permutations((1, 2, 3)))})
    rho = estimate_rho(simulate(dgp, 356, seed=seed)[0], uni)
    statics = [static_type_matrix(uni, t, eu_filter=catalog.application_lotteries())
               for t in uni.periods]
    return rho, kron_dynamic(statics, rho.observed_paths, uni)


def _panels(kind, n, seeds):
    """(rho, type matrix) of a sim of the cell per panel seed; ``app-eu`` is
    the expected-utility test of ``_app_eu_panel``."""
    if kind == "app-eu":
        return [_app_eu_panel(seed) for seed in seeds]
    dgp = DgpSpec(kind)
    universe, _ = build_universe(dgp)
    A = type_matrix_for(dgp, universe)
    return [(estimate_rho(simulate(dgp, agents_per_path_for(dgp, n), seed=seed)[0], universe), A)
            for seed in seeds]


# (DGP kind, reported sample size): the null binary3 cell of the criterion-7
# table, binary3 at a small sample, the binary1 cell that nearly always
# rejects, and on tall type matrices two demand cells and the app panels'
# expected-utility test
FULL_ROUTE_CELLS = [("binary3", 350), ("binary3", 40), ("binary1", 175),
                    ("cobb-douglas-walk", 50), ("cobb-douglas-gaussian-copula", 500),
                    ("app-eu", 356)]
CELL_IDS = [f"{k}@{n}" for k, n in FULL_ROUTE_CELLS]


@pytest.mark.parametrize("kind,n", FULL_ROUTE_CELLS, ids=CELL_IDS)
def test_full_route_matches_every_replicate_projected(kind, n):
    """Statistic, p-value and verdict equal the bootstrap that projects every
    replicate; the critical value equals its order statistic to rounding.
    The replicates bounded by their intervals close the count of solves."""
    bounded = 0
    for seed, (rho, A) in enumerate(_panels(kind, n, range(100, 106))):
        config = TestConfig(reps=199, seed=seed)
        full, _ = full_bootstrap(rho, A, config)
        assert full.diagnostics["nnls_solves"] == 2 + 199
        report = run_test(rho, A, config)
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

    def spy(plan, B, out, rank):
        real(plan, B, out, rank)
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


@pytest.mark.parametrize("kind,n", FULL_ROUTE_CELLS, ids=CELL_IDS)
def test_verdict_only_route_matches_every_replicate_projected(kind, n):
    """The verdict-only route bounds its replicates by interval too, after
    the recentring-fit screen: statistic and verdict equal the bootstrap
    that projects every replicate, and the p-value its curtailed one read
    off that bootstrap's J*. The solves, the screened, the curtailed and the
    bounded replicates add up to R."""
    bounded = 0
    for seed, (rho, A) in enumerate(_panels(kind, n, range(200, 206))):
        config = TestConfig(reps=199, seed=seed, critical_value=False)
        full, stats = full_bootstrap(rho, A, config)
        report = run_test(rho, A, config)
        assert report.statistic == full.statistic
        assert report.reject == full.reject
        assert report.p_value == curtailed_p_value(stats, full.statistic, 199, config.alpha)
        d = report.diagnostics
        assert d["nnls_solves"] - 2 + d["screened_replicates"] + \
            d["curtailed_replicates"] + d["bounded_replicates"] == 199
        assert d["kkt_residual_max"] < 1e-8
        bounded += d["bounded_replicates"]
    # binary1@175 and the expected-utility test reject far above their
    # replicates, whom the recentring-fit screen all decides
    assert bounded > 0 or kind in ("binary1", "app-eu")
