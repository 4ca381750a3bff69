"""Working-set projections of the bootstrap: each projected replicate is
solved on the working set, the union of the supports found so far, and
certified on the full matrix; when the certificate fails it is solved again
on the working set grown by the columns that broke it, and on the full
matrix when that fails too. J* is the full projection's up to rounding, so
p-values and verdicts do not move."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import app_panel, curtailed_p_value, full_bootstrap
from hypothesis import given, settings
from hypothesis import strategies as st

from drumtest import inference
from drumtest.checks import KKT_TOL, _kkt_residual, certify_nnls, nnls_projection, nnls_solve
from drumtest.errors import SolverError
from drumtest.inference import TestConfig, run_test
from drumtest.model import estimate_rho
from drumtest.simulate import (DgpSpec, agents_per_path_for, build_universe, run_experiment,
                               simulate, type_matrix_for)


def _rho_and_A(dgp, n, seed):
    universe, _ = build_universe(dgp)
    panel, _ = simulate(dgp, agents_per_path_for(dgp, n), seed=seed)
    return estimate_rho(panel, universe), type_matrix_for(dgp, universe)


@pytest.fixture(scope="module")
def binary3_matrix():
    dgp = DgpSpec("binary3")
    universe, _ = build_universe(dgp)
    dense = type_matrix_for(dgp, universe).dense().astype(float)
    assert dense.shape == (48, 216)
    return dense


def _plan(WA, columns, statistic=None):
    """A bootstrap plan with what ``_project`` reads: the matrix, the working
    set ``columns`` and, with ``statistic``, a verdict-only route at N = 1
    whose working-set bounds are held to that statistic."""
    unread = dict.fromkeys(f.name for f in dataclasses.fields(inference.BootstrapPlan))
    fit = None if statistic is None else np.zeros(len(WA))
    faces = dataclasses.replace(inference._no_faces(WA), columns=columns, working=WA[:, columns])
    return inference.BootstrapPlan(**{**unread, "WA": WA, "N": 1, "statistic": statistic,
                                      "fit": fit, "faces": faces})


def _problem(dense, seed, noise):
    """A row-weighted binary3 matrix and a right-hand side near its cone."""
    rng = np.random.default_rng(seed)
    WA = dense * rng.uniform(1.0, 10.0, size=len(dense))[:, None]
    weights = rng.exponential(size=dense.shape[1]) * (rng.random(dense.shape[1]) < 0.1)
    return WA, WA @ weights + noise * rng.standard_normal(len(dense))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.01, 3.0),
       kind=st.sampled_from(["empty", "misses the support", "all", "random"]))
def test_working_set_projection_is_the_full_projection(binary3_matrix, seed, noise, kind):
    WA, b = _problem(binary3_matrix, seed, noise)
    x_full, rnorm_full, _ = nnls_projection(WA, b)
    rng = np.random.default_rng(seed + 1)
    n = WA.shape[1]
    columns = {"empty": np.empty(0, dtype=int),
               "all": np.arange(n),
               "random": np.flatnonzero(rng.random(n) < 0.5)}.get(kind)
    if columns is None:
        support = np.flatnonzero(x_full > 0)
        dropped = rng.choice(support, size=(len(support) + 1) // 2, replace=False)
        columns = np.setdiff1d(np.arange(n), dropped)
    X, rnorm, kkt, route = inference._project(_plan(WA, columns), b[None])
    x = X[:, 0]
    assert rnorm[0] ** 2 == pytest.approx(rnorm_full ** 2, rel=1e-12)
    assert np.all(x >= 0)
    residual, limit = _kkt_residual(WA, x, b, KKT_TOL)
    assert residual <= limit
    assert kkt[0] <= limit
    assert route[0] in (inference.WORKING_SET, inference.GROWN, inference.FULL_AGAIN)
    if route[0] == inference.WORKING_SET:
        outside = np.setdiff1d(np.arange(n), columns)
        assert np.all(x[outside] == 0)


def _half_support(WA, b):
    """The full projection (x, residual norm) and every other column of its
    support: a working set on which the certificate fails."""
    x_full, rnorm_full, _ = nnls_projection(WA, b)
    return x_full, rnorm_full, np.flatnonzero(x_full > 0)[1::2]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.01, 3.0))
def test_a_grown_solve_is_the_full_projection(binary3_matrix, seed, noise):
    """On half of the projection's support the working-set point fails its
    certificate; the solve on the working set grown by the broken columns,
    or the full re-solve after it, has the full projection's J* and passes
    the full-matrix KKT check."""
    WA, b = _problem(binary3_matrix, seed, noise)
    _, rnorm_full, columns = _half_support(WA, b)
    X, rnorm, kkt, route = inference._project(_plan(WA, columns), b[None])
    assert route[0] in (inference.GROWN, inference.FULL_AGAIN)
    assert rnorm[0] ** 2 == pytest.approx(rnorm_full ** 2, rel=1e-12)
    assert np.all(X[:, 0] >= 0)
    residual, limit = _kkt_residual(WA, X[:, 0], b, KKT_TOL)
    assert residual <= limit and kkt[0] <= limit


def test_the_grown_set_adds_the_broken_columns(binary3_matrix, monkeypatch):
    """The grown solve runs on the working set plus the columns whose
    gradient entry broke the certificate, a set larger than the working set
    and smaller than the matrix; its solution lies on that set. Most of
    these problems take the grown route."""
    real_solve, solved = inference.nnls_solve, []

    def recording(M, b):
        solved.append(M)
        return real_solve(M, b)

    monkeypatch.setattr(inference, "nnls_solve", recording)
    grown = 0
    for seed in range(10):
        WA, b = _problem(binary3_matrix, seed, 0.5)
        _, _, columns = _half_support(WA, b)
        solved.clear()
        X, _, _, route = inference._project(_plan(WA, columns), b[None])
        if route[0] != inference.GROWN:
            continue
        grown += 1
        assert len(solved) == 2 and solved[0].shape[1] == len(columns)
        point = np.zeros(WA.shape[1])
        point[columns] = real_solve(WA[:, columns], b)[0]
        gradient = WA.T @ (WA @ point - b)
        limit = KKT_TOL * max(1.0, np.abs(b).max()) * 100
        on = np.union1d(columns, np.flatnonzero(gradient < -limit))
        assert len(columns) < len(on) < WA.shape[1]
        assert solved[1].tobytes() == WA[:, on].tobytes()
        assert np.all(np.delete(X[:, 0], on) == 0)
    assert grown >= 5


def test_a_grown_solve_that_raises_falls_back_to_the_full_matrix(binary3_matrix, monkeypatch):
    WA, b = _problem(binary3_matrix, 0, 0.5)
    _, rnorm_full, columns = _half_support(WA, b)
    real_solve = inference.nnls_solve
    assert inference._project(_plan(WA, columns), b[None])[3][0] == inference.GROWN

    def raising_on_grown_matrices(A, rhs):
        if len(columns) < A.shape[1] < WA.shape[1]:
            raise SolverError("nonnegative least squares failed: test")
        return real_solve(A, rhs)

    monkeypatch.setattr(inference, "nnls_solve", raising_on_grown_matrices)
    _, rnorm, kkt, route = inference._project(_plan(WA, columns), b[None])
    assert route[0] == inference.FULL_AGAIN
    assert rnorm[0] == rnorm_full


def test_a_sub_solve_that_raises_falls_back_to_the_full_matrix(binary3_matrix, monkeypatch):
    WA, _ = _problem(binary3_matrix, 0, 0.5)
    B = np.stack([_problem(binary3_matrix, seed, 0.5)[1] for seed in range(5)])

    def raising_on_sub_matrices(A, b):
        if A.shape[1] < WA.shape[1]:
            raise SolverError("nonnegative least squares failed: test")
        return nnls_solve(A, b)

    monkeypatch.setattr(inference, "nnls_solve", raising_on_sub_matrices)
    X, rnorm, kkt, route = inference._project(_plan(WA, np.arange(100)), B)
    assert np.all(route == inference.FULL_AGAIN)
    for k, b in enumerate(B):
        assert rnorm[k] == nnls_projection(WA, b)[1]


def test_run_test_survives_sub_solves_that_raise(monkeypatch):
    rho, A = _rho_and_A(DgpSpec("binary3"), 40, 1)
    config = TestConfig(reps=49, seed=3)
    reference = run_test(rho, A, config)
    n = A.dense().shape[1]

    def raising_on_sub_matrices(M, b):
        if M.shape[1] < n:
            raise SolverError("nonnegative least squares failed: test")
        return nnls_solve(M, b)

    monkeypatch.setattr(inference, "nnls_solve", raising_on_sub_matrices)
    report = run_test(rho, A, config)
    # every replicate that its interval leaves open is solved again on the
    # full matrix
    assert report.diagnostics["working_set_certified"] == 0
    assert report.diagnostics["working_set_full_solves"] + \
        report.diagnostics["bounded_replicates"] == 49
    assert report.statistic == reference.statistic
    assert report.p_value == reference.p_value
    assert report.critical_value == pytest.approx(reference.critical_value, rel=1e-12)


def test_a_matrix_without_columns_has_the_zero_solution():
    b = np.array([3.0, -4.0])
    x, rnorm = nnls_solve(np.zeros((2, 0)), b)
    assert x.shape == (0,)
    assert rnorm == 5.0


def _frozen_bootstrap_chunk(plan, B, need=None):
    """The bootstrap chunk before working sets, changed only in its
    signature, its return and its stop: the plan's faces and working set
    are ignored, every replicate's row of ``B`` is solved on the full
    matrix, its route row reads FULL_AGAIN, an upper-bound row repeats J*,
    and the supports come one column per replicate. The unscreened rows are
    solved and certified one at a time in seed order; with ``need`` they
    end at the ``need``-th certified J* >= J."""
    WA, N = plan.WA, plan.N
    todo = np.arange(len(B))
    if plan.fit is not None:
        R = B - plan.fit
        bound = N * np.einsum("ij,ij->i", R, R)
        todo = np.flatnonzero(bound * (1 + 1e-9) + 1e-12 >= plan.statistic - 1e-12)
    out = np.full((4, len(B)), np.nan)
    supports = np.zeros((WA.shape[1], len(B)), dtype=bool)
    hits = 0
    for i in todo:
        x, rnorm = nnls_solve(WA, B[i])
        x, rnorm, out[1, i] = certify_nnls(WA, x, B[i], rnorm)
        out[0, i] = out[3, i] = N * (rnorm * rnorm)
        out[2, i] = inference.FULL_AGAIN
        supports[:, i] = x > 0
        hits += out[0, i] >= plan.statistic - 1e-12
        if hits == need:
            return out[:, :i + 1], supports[:, :i + 1]
    return out, supports


@pytest.mark.parametrize("panel", ["binary3@350", "app"])
@pytest.mark.parametrize("critical_value", [True, False])
def test_each_exact_solve_is_certified_once_as_it_is_made(panel, critical_value, monkeypatch):
    """On both routes ``_project`` certifies each exact solve once, as it
    makes it: one ``certify_nnls`` call, on one problem, per full-matrix
    re-solve; one ``_kkt_residual`` check, on one problem, per grown solve;
    a working-set point keeps the residual of its own full-matrix check and
    is not certified again."""
    rho, A = _rho_and_A(DgpSpec("binary3"), 350, 1) if panel == "binary3@350" else app_panel(32)
    n_columns = A.dense().shape[1]
    real_certify, real_check, real_solve = \
        inference.certify_nnls, inference._kkt_residual, inference.nnls_solve
    certified, checked, solved = [], [], []

    def certifying(M, x, b, rnorm):
        certified.append(x.ndim)
        return real_certify(M, x, b, rnorm)

    def checking(M, x, b, kkt_tol):
        checked.append(x.ndim)
        return real_check(M, x, b, kkt_tol)

    def solving(M, b):
        solved.append(M.shape[1])
        return real_solve(M, b)

    monkeypatch.setattr(inference, "certify_nnls", certifying)
    monkeypatch.setattr(inference, "_kkt_residual", checking)
    monkeypatch.setattr(inference, "nnls_solve", solving)
    d = run_test(rho, A, TestConfig(reps=199, seed=1, critical_value=critical_value)).diagnostics
    # working-set points certified, and grown solves tried
    assert d["working_set_certified"] > 0 and checked
    full = solved.count(n_columns)
    assert full == d["working_set_full_solves"]
    assert certified == [1] * full
    # one working-set solve per projected replicate; every other solve on
    # fewer columns than the matrix is a grown one, checked once
    projected = d["working_set_certified"] + d["working_set_grown"] + \
        d["working_set_full_solves"] + d["working_set_bounded"]
    assert checked == [1] * (len(solved) - full - projected)
    assert len(checked) >= d["working_set_grown"]


# every DGP of the Monte Carlo table, at a criterion-7 sample size
TABLE_DGPS = [("cobb-douglas-walk", 500), ("cobb-douglas-gaussian-copula", 500),
              ("binary1", 175), ("binary3", 350)]


@pytest.mark.parametrize("kind,n", TABLE_DGPS, ids=[kind for kind, _ in TABLE_DGPS])
@pytest.mark.parametrize("critical_value", [True, False])
def test_p_values_and_verdicts_match_the_frozen_chunk(kind, n, critical_value, monkeypatch):
    for seed in range(2):
        rho, A = _rho_and_A(DgpSpec(kind), n, 20 + seed)
        config = TestConfig(reps=199, seed=seed, critical_value=critical_value)
        with monkeypatch.context() as patched:
            patched.setattr(inference, "_bootstrap_chunk", _frozen_bootstrap_chunk)
            frozen = run_test(rho, A, config)
        routed = run_test(rho, A, config)
        assert routed.statistic == frozen.statistic
        assert routed.p_value == frozen.p_value
        assert routed.reject == frozen.reject
        if not critical_value:
            full, stats = full_bootstrap(rho, A, config)
            assert routed.reject == full.reject
            assert routed.p_value == curtailed_p_value(stats, full.statistic, 199, config.alpha)
        # the frozen chunk solves every replicate that the interval stage
        # bounds on the full route
        assert frozen.diagnostics["bounded_replicates"] == 0
        assert routed.diagnostics["nnls_solves"] + routed.diagnostics["bounded_replicates"] == \
            frozen.diagnostics["nnls_solves"]
        if critical_value:
            assert routed.critical_value == pytest.approx(frozen.critical_value, rel=1e-12)
        else:
            assert math.isnan(routed.critical_value) and math.isnan(frozen.critical_value)
        diagnostics = routed.diagnostics
        # the two projections' supports seed the working set
        assert diagnostics["working_set_columns"] > 0
        # every drawn replicate is screened, decided by its interval, or
        # projected: certified on the working set or on the grown set,
        # solved again on the full matrix, or bounded by its working-set point
        projected = diagnostics["working_set_certified"] + diagnostics["working_set_grown"] + \
            diagnostics["working_set_full_solves"] + diagnostics["working_set_bounded"]
        assert projected <= diagnostics["nnls_solves"] - 2
        assert projected + diagnostics["bounded_replicates"] + \
            diagnostics["screened_replicates"] + diagnostics["curtailed_replicates"] == 199


# experiment seeds searched, in order, for one whose two small cells each
# certify a replicate on the working set: at 2 sims of 29 replicates only a
# few seeded projections take that route
EXPERIMENT_SEEDS = range(5, 25)


def test_experiment_cells_sum_the_working_set_routes():
    for seed in EXPERIMENT_SEEDS:
        report = run_experiment([DgpSpec("binary3"), DgpSpec("cobb-douglas-walk")], [20],
                                sims=2, reps=29, seed=seed)
        for cell in report.entries:
            assert cell["working_set_certified"] + cell["working_set_grown"] + \
                cell["working_set_full_solves"] <= cell["nnls_solves"] - 2 * 2
        if all(cell["working_set_certified"] > 0 for cell in report.entries):
            break
    else:
        pytest.fail(f"no seed in {EXPERIMENT_SEEDS} certifies a working-set point in each cell")
    for cell in report.entries:
        assert cell["working_set_certified"] > 0
    assert report.to_csv().splitlines()[0] == \
        "dgp,N,sims,reps,rejections,rejection_rate,standard_error,working_set_grown," \
        "working_set_full_solves,seconds"


@pytest.mark.parametrize("seed", range(3))
def test_a_bounded_working_set_point_is_feasible_and_above_the_projection(binary3_matrix, seed):
    """Columns that miss half the support fail the full certificate; on a
    verdict-only route whose statistic every bound falls below, such a
    problem is decided without the grown or full re-solve, and its feasible
    working-set point's residual lies above the full projection's. With a
    statistic of 0, which no bound falls below, the routes and residuals
    are those of the full route."""
    WA, b = _problem(binary3_matrix, seed, 1.0)
    x_full, rnorm_full, _ = nnls_projection(WA, b)
    support = np.flatnonzero(x_full > 0)
    columns = np.setdiff1d(np.arange(WA.shape[1]), support[::2])
    plain = inference._project(_plan(WA, columns), b[None])
    assert plain[3][0] in (inference.GROWN, inference.FULL_AGAIN)
    X, rnorm, kkt, route = inference._project(_plan(WA, columns, np.inf), b[None])
    assert route[0] == inference.BOUNDED
    assert math.isnan(rnorm[0]) and math.isnan(kkt[0])
    assert np.all(X[:, 0] >= 0) and np.all(X[support[::2], 0] == 0)
    assert np.linalg.norm(WA @ X[:, 0] - b) >= rnorm_full
    kept = inference._project(_plan(WA, columns, 0.0), b[None])
    for got, want in zip(kept, plain):
        assert got.tobytes() == want.tobytes()


def test_bounded_replicates_keep_the_verdict():
    """Binary3 sims whose tests run for many rounds: replicates bounded by
    their working-set points never hide a hit, and verdicts, statistics and
    curtailed p-values match the full bootstrap."""
    bounded = 0
    for seed in (1, 3):
        rho, A = _rho_and_A(DgpSpec("binary3"), 350, seed)
        config = TestConfig(reps=199, seed=seed, critical_value=False)
        full, stats = full_bootstrap(rho, A, config)
        report = run_test(rho, A, config)
        assert report.statistic == full.statistic and report.reject == full.reject
        assert report.p_value == curtailed_p_value(stats, full.statistic, 199, config.alpha)
        d = report.diagnostics
        assert d["working_set_bounded"] <= d["nnls_solves"] - 2
        assert d["kkt_residual_max"] < 1e-8
        bounded += d["working_set_bounded"]
    assert bounded > 0


# (panel seed, bootstrap seed) pairs searched, in order, for a null binary3
# test that takes more than 80 replicates before its decisive hit
LONG_TEST_SEEDS = [(3, 2)] + [(seed, seed) for seed in range(4, 14)]


def test_the_plan_is_built_once_per_test(monkeypatch):
    """A verdict-only test that rejects decides its 199 replicates in rounds
    of at most ROUND; the row blocks' multinomial probabilities are still
    computed once per test. On a binary3 test that takes many replicates, a
    working-set matrix is built once per working set: the working-set
    solves share it until a round adds faces or a grown or full re-solve
    grows it, and it only grows. A grown solve, the one sub-solve that a
    ``_kkt_residual`` check follows, runs on more columns than the
    working-set solve before it."""
    real_normalized, real_solve = inference._normalized, inference.nnls_solve
    real_check = inference._kkt_residual
    normalized, events = [], []

    def counting(block):
        normalized.append(len(block))
        return real_normalized(block)

    def solve(M, b):
        if M.shape[1] < n_columns:
            events.append(M)
        return real_solve(M, b)

    def check(M, x, b, kkt_tol):
        events.append(None)
        return real_check(M, x, b, kkt_tol)

    real_chunk, rounds = inference._bootstrap_chunk, []

    def chunk(plan, B, need=None):
        out, supports = real_chunk(plan, B, need)
        # the replicates the round took: up to its decisive hit, if any
        rounds.append(out.shape[1])
        return out, supports

    monkeypatch.setattr(inference, "_normalized", counting)
    monkeypatch.setattr(inference, "nnls_solve", solve)
    monkeypatch.setattr(inference, "_kkt_residual", check)
    monkeypatch.setattr(inference, "_bootstrap_chunk", chunk)
    rho, A = _rho_and_A(DgpSpec("binary1"), 175, 0)
    n_columns = A.dense().shape[1]
    report = run_test(rho, A, TestConfig(reps=199, seed=0, critical_value=False))
    assert report.reject and report.diagnostics["curtailed_replicates"] == 0
    assert len(normalized) == len(report.diagnostics["path_sizes"])

    for panel_seed, boot_seed in LONG_TEST_SEEDS:
        rho, A = _rho_and_A(DgpSpec("binary3"), 350, panel_seed)
        n_columns = A.dense().shape[1]
        events.clear()
        rounds.clear()
        d = run_test(rho, A, TestConfig(reps=199, seed=boot_seed,
                                        critical_value=False)).diagnostics
        if d["curtailed_replicates"] < 199 - 80:
            break
    else:
        pytest.fail(f"no seeds in {LONG_TEST_SEEDS} take more than 80 replicates")
    checked = [k for k, M in enumerate(events) if M is None]
    grown = [k - 1 for k in checked]
    subs = [M for k, M in enumerate(events) if M is not None and k not in grown]
    assert d["curtailed_replicates"] < 199 - 80 and len(subs) > 10
    assert max(rounds) <= inference.ROUND and sum(rounds) == 199 - d["curtailed_replicates"]
    assert len(rounds) == d["bootstrap_rounds"]
    # each grown solve is checked once, right after it
    assert all(events[k] is not None for k in grown)
    assert len(grown) >= d["working_set_grown"]
    assert all(events[k].shape[1] > events[k - 1].shape[1] for k in grown)
    distinct = [M for k, M in enumerate(subs) if k == 0 or M is not subs[k - 1]]
    assert len({id(M) for M in distinct}) == len(distinct)
    assert len(distinct) <= len(rounds) + d["working_set_full_solves"] + d["working_set_grown"]
    assert all(a.shape[1] <= b.shape[1] for a, b in zip(distinct, distinct[1:]))
    assert distinct[-1].shape[1] <= d["working_set_columns"]
