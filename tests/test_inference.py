"""Bootstrap cone-projection test and its expected-utility restriction."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from conftest import reference_chunk
from scipy.optimize import lsq_linear, nnls

from drumtest import catalog, inference
from drumtest.checks import KKT_TOL
from drumtest.errors import ParameterError, SchemaError
from drumtest.inference import TestConfig, TestReport, run_test, run_test_eu
from drumtest.model import PanelDataset, PanelRecord, estimate_rho
from drumtest.representations import build_static_A, enumerate_orders, kron_dynamic
from drumtest.simulate import DgpSpec, build_universe, simulate, type_matrix_for


def _order_mixture_dgp(universe, profiles, weights):
    paths = sorted(itertools.permutations(universe.menu_indices(universe.periods[0])))
    return DgpSpec("order-mixture", {"universe": universe, "profiles": profiles,
                                     "weights": weights, "menu_paths": paths})


@pytest.fixture(scope="module")
def binary_app():
    uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
    statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in uni.periods]
    paths = sorted(itertools.permutations((1, 2, 3)))
    A = kron_dynamic(statics, paths, uni)
    return uni, A


class TestRunTest:
    def test_degenerate_type_data_never_rejects(self, binary_app):
        uni, A = binary_app
        profile = (("l1", "l2", "l3"),) * 3
        dgp = _order_mixture_dgp(uni, [profile], [1.0])
        panel, _ = simulate(dgp, 40, seed=1)
        rho = estimate_rho(panel, uni)
        report = run_test(rho, A, TestConfig(reps=199, seed=0))
        assert report.statistic < 1e-12
        assert report.p_value > 0.5
        assert not report.reject

    def test_seed_determinism_across_workers(self, binary_app):
        uni, A = binary_app
        dgp = DgpSpec("binary3")
        panel, _ = simulate(dgp, 30, seed=5)
        rho = estimate_rho(panel, uni)
        r1 = run_test(rho, A, TestConfig(reps=99, seed=11))
        r2 = run_test(rho, A, TestConfig(reps=99, seed=11))
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value
        assert r1.critical_value == r2.critical_value

    def test_bootstrap_validity_smoke(self, binary_app):
        """With data exactly on a type, the statistic is zero and p-values
        stay high."""
        uni, A = binary_app
        high = 0
        for s in range(20):
            profile = (("l2", "l1", "l3"),) * 3
            dgp = _order_mixture_dgp(uni, [profile], [1.0])
            panel, _ = simulate(dgp, 25, seed=100 + s)
            rho = estimate_rho(panel, uni)
            rep = run_test(rho, A, TestConfig(reps=99, seed=s))
            assert rep.statistic < 1e-12
            high += rep.p_value >= 0.5
        assert high >= 19

    def test_requires_counts(self, binary_app, simple_setup):
        from conftest import rho_from_weights
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                               np.full(9, 1 / 9))
        with pytest.raises(SchemaError, match="sample sizes"):
            run_test(rho, simple_setup["AT"], TestConfig(reps=9))

    def test_panel_entrypoint_and_report_fields(self, binary_app):
        uni, A = binary_app
        panel, _ = simulate(DgpSpec("binary3"), 20, seed=3)
        report = run_test(estimate_rho(panel, uni), A, TestConfig(reps=49, seed=1))
        doc = report.to_dict()
        assert set(doc) >= {"statistic", "critical_value", "p_value", "reject"}
        assert 0 <= doc["p_value"] <= 1
        assert report.diagnostics["N"] == 20
        # eta is a proper per-path distribution
        eta = report.eta_tau
        for k in range(0, len(eta), 8):
            assert eta[k:k + 8].sum() == pytest.approx(1.0, abs=1e-9)

    def test_bad_config_rejected(self):
        with pytest.raises(ParameterError):
            TestConfig(alpha=1.5)
        with pytest.raises(ParameterError):
            TestConfig(reps=0)
        for seed in (-1, 1.5, "3", None):
            with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
                TestConfig(seed=seed)
        assert TestConfig(seed=np.uint64(2**63 + 11)).seed == 2**63 + 11


def test_bootstrap_matches_per_replicate_loop(binary_app, monkeypatch):
    uni, A = binary_app
    panel, _ = simulate(DgpSpec("binary3"), 20, seed=6)
    rho = estimate_rho(panel, uni)
    config = TestConfig(reps=99, seed=13)
    hoisted = run_test(rho, A, config)
    monkeypatch.setattr(inference, "_bootstrap_chunk", reference_chunk)
    reference = run_test(rho, A, config)
    assert hoisted.diagnostics["working_set_certified"] > 0
    # a J* certified on the working set is the full optimum up to rounding
    assert hoisted.critical_value == pytest.approx(reference.critical_value, rel=1e-12)
    assert hoisted.p_value == reference.p_value
    assert hoisted.reject == reference.reject
    assert hoisted.statistic == reference.statistic


def _kkt(WA, x, b):
    g = WA.T @ (WA @ x - b)
    return max(-g.min(initial=0.0), np.abs(g[x > 1e-12]).max(initial=0.0))


def _app_rho(uni, seed):
    """A criterion-8-shaped panel: 356 agents on each menu path of a mixture
    of the six order profiles and a rotation."""
    orders = list(itertools.permutations(("l1", "l2", "l3")))
    rotation = (("l1", "l2", "l3"), ("l2", "l3", "l1"), ("l3", "l1", "l2"))
    dgp = _order_mixture_dgp(uni, [(r, r, r) for r in orders] + [rotation], [0.14] * 6 + [0.16])
    return estimate_rho(simulate(dgp, 356, seed=seed)[0], uni)


# choice-path counts of one bootstrap draw of the ``_app_rho`` panel below
# (six menu paths of 356 agents, eight choice paths each) whose right-hand
# side gets a full-matrix nnls point off its KKT conditions: scipy's nnls
# reports J* = 10.98 there, at a point whose residual gives 13.22, against
# bvls's 11.77. Such draws are rare (none in 617k replicates of this panel's
# test at bootstrap seeds 0-3099), so the input is kept as data.
OFF_KKT_COUNTS = [42, 31, 0, 114, 63, 0, 64, 42, 41, 63, 55, 44, 61, 60, 0, 32,
                  43, 40, 56, 64, 0, 54, 39, 60, 131, 53, 30, 0, 0, 38, 60, 44,
                  45, 0, 50, 100, 42, 54, 0, 65, 44, 51, 70, 47, 39, 0, 54, 51]


def test_a_projection_off_its_kkt_conditions_is_solved_again(binary_app, monkeypatch):
    """On the rank-deficient 48x216 matrix of a criterion-8-shaped panel,
    every right-hand side whose full-matrix nnls point fails its KKT check
    still ends with a passing certificate and bvls's J*, and every other one
    keeps scipy's nnls statistic bit for bit. ``_project`` is driven with
    the test's plan and a working set of every column, so that every row is
    solved on the full matrix; the rows are those the test's chunks
    received plus the right-hand side of ``OFF_KKT_COUNTS``, which fails
    the check."""
    uni, A = binary_app
    rho = _app_rho(uni, int(np.random.SeedSequence((5, 0)).generate_state(1)[0]))
    chunks = []

    def recording(plan, B, need=None):
        out = chunk(plan, B, need)
        chunks.append((plan, B, out))
        return out

    chunk = inference._bootstrap_chunk
    monkeypatch.setattr(inference, "_bootstrap_chunk", recording)
    report = run_test(rho, A, TestConfig(reps=199, alpha=0.05, seed=5052))
    assert report.diagnostics["kkt_residual_max"] <= 1e-8

    plan = chunks[0][0]
    WA, N = plan.WA, plan.N
    sizes = np.repeat(plan.counts, [stop - start for _, start, stop in plan.blocks])
    off = plan.sqrt_w * (np.array(OFF_KKT_COUNTS) / sizes - plan.vec + plan.eta - plan.shift)
    rows = np.vstack([B for _, B, _ in chunks] + [off])
    assert len(rows) == 200
    every = dataclasses.replace(plan.faces, columns=np.arange(WA.shape[1]), working=WA)
    _, rnorm, kkt, route = inference._project(dataclasses.replace(plan, faces=every), rows)
    stats = N * (rnorm * rnorm)
    failed = []
    for i, b in enumerate(rows):
        x, rnorm = nnls(WA, b)
        limit = KKT_TOL * max(1.0, np.abs(b).max()) * 100
        assert kkt[i] <= limit
        if _kkt(WA, x, b) <= limit:
            assert route[i] == inference.WORKING_SET
            assert stats[i] == N * (rnorm * rnorm)
            continue
        failed.append(i)
        # off its KKT conditions on every column, so solved again on the
        # full matrix and then by bvls
        assert route[i] == inference.FULL_AGAIN
        x = lsq_linear(WA, b, bounds=(0, np.inf), method="bvls").x
        assert _kkt(WA, x, b) <= limit
        assert stats[i] == pytest.approx(N * np.linalg.norm(WA @ x - b) ** 2, rel=1e-12)
    assert 199 in failed
    assert stats[199] == pytest.approx(11.77, abs=0.01)


@pytest.mark.parametrize("kind", ["app", "binary1"])
def test_each_replicate_is_drawn_once(kind, binary_app, monkeypatch):
    """A full-route test at R = 199 whose order statistic takes candidates
    (an app panel, and binary1 at 175 per menu path) draws 199 rows in all:
    the order statistic reads the kept rows. The report is the one without
    the spies."""
    if kind == "app":
        uni, A = binary_app
        rho = _app_rho(uni, 11)
    else:
        dgp = DgpSpec(kind)
        universe, _ = build_universe(dgp)
        rho = estimate_rho(simulate(dgp, 175, seed=11)[0], universe)
        A = type_matrix_for(dgp, universe)
    config = TestConfig(reps=199, seed=3)
    plain = run_test(rho, A, config)
    real_draws, real_order, real_intervals = (inference._draws, inference._exact_order_statistic,
                                              inference._intervals)
    drawn, candidates = [], []

    def draws(plan, seed, reps):
        drawn.append(reps)
        return real_draws(plan, seed, reps)

    def order_statistic(plan, B, out, rank):
        candidates.append(0)
        real_order(plan, B, out, rank)

    def intervals(plan, B, statistic=None):
        if candidates:
            candidates[-1] += len(B)
        return real_intervals(plan, B, statistic)

    monkeypatch.setattr(inference, "_draws", draws)
    monkeypatch.setattr(inference, "_exact_order_statistic", order_statistic)
    monkeypatch.setattr(inference, "_intervals", intervals)
    spied = run_test(rho, A, config)
    assert candidates[0] > 0
    assert drawn == [199]
    assert spied.to_dict() == plain.to_dict()


def _looped_draws(plan, seed, reps):
    """``_draws`` written out replicate by replicate: one generator draws
    each path block's counts for all ``reps`` replicates, block after block,
    and every replicate's frequencies are weighted and recentred alone."""
    rng = np.random.default_rng(seed)
    counts = [rng.multinomial(n, p, size=reps) for n, p in zip(plan.counts, plan.probs)]
    B = np.empty((reps, len(plan.vec)))
    for i in range(reps):
        star = np.empty_like(plan.vec)
        for (_, start, stop), n, block in zip(plan.blocks, plan.counts, counts):
            star[start:stop] = block[i] / n
        B[i] = plan.sqrt_w * (star - plan.vec + plan.eta - plan.shift)
    return B


@pytest.mark.parametrize("kind,n", [("binary3", 40), ("binary1", 10), ("cobb-douglas-walk", 50)])
def test_draws_match_the_per_replicate_loop(kind, n, monkeypatch):
    """One ``_draws`` call per test, full or verdict-only, gives the loop's
    right-hand sides byte for byte."""
    real, calls = inference._draws, []

    def spy(plan, seed, reps):
        B = real(plan, seed, reps)
        calls.append((plan, seed, reps, B))
        return B

    monkeypatch.setattr(inference, "_draws", spy)
    dgp = DgpSpec(kind)
    universe, _ = build_universe(dgp)
    panel, _ = simulate(dgp, 4 * n if kind.startswith("cobb") else n, seed=2)
    rho = estimate_rho(panel, universe)
    for critical_value in (True, False):
        run_test(rho, type_matrix_for(dgp, universe),
                 TestConfig(reps=120, seed=9, critical_value=critical_value))
    assert [(seed, reps) for _, seed, reps, _ in calls] == [(9, 120)] * 2
    for plan, seed, reps, B in calls:
        assert B.tobytes() == _looped_draws(plan, seed, reps).tobytes()


def test_both_routes_read_the_same_replicates(monkeypatch):
    """At equal seed and R, each test draws its R rows in one ``_draws``
    call, and the rows that the curtailed verdict-only route kept are the
    first L rows of the full route's. What no replicate enters, the
    statistic, ``nu_tau``, ``eta_tau`` and the point projection of this
    binary3 panel, keeps the bytes it had when every replicate drew from its
    own child seed (SHA-256 prefixes)."""
    real_bootstrap, real_draws, real_projection = (inference._bootstrap, inference._draws,
                                                   inference.nnls_projection)
    kept, drawn, points = [], [], []

    def bootstrap(*args):
        out, plan, B, rounds = real_bootstrap(*args)
        kept.append(B)
        return out, plan, B, rounds

    def draws(plan, seed, reps):
        drawn.append((seed, reps))
        return real_draws(plan, seed, reps)

    def projection(WA, b):
        result = real_projection(WA, b)
        points.append(result[0])
        return result

    monkeypatch.setattr(inference, "_bootstrap", bootstrap)
    monkeypatch.setattr(inference, "_draws", draws)
    monkeypatch.setattr(inference, "nnls_projection", projection)
    dgp = DgpSpec("binary3")
    universe, _ = build_universe(dgp)
    rho = estimate_rho(simulate(dgp, 350, seed=1)[0], universe)
    A = type_matrix_for(dgp, universe)
    reports = [run_test(rho, A, TestConfig(reps=199, seed=4, critical_value=critical_value))
               for critical_value in (True, False)]
    assert drawn == [(4, 199)] * 2
    L = 199 - reports[1].diagnostics["curtailed_replicates"]
    assert 0 < L < 199
    assert len(kept[0]) == 199 and len(kept[1]) == L
    assert kept[1].tobytes() == kept[0][:L].tobytes()

    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

    # nnls_projection runs twice per test: the point, then the recentring fit
    for report, point in zip(reports, points[::2]):
        assert float(report.statistic).hex() == "0x1.50aca46e771abp+4"
        assert digest(report.nu_tau) == "36ba09661ccfa6d1"
        assert digest(report.eta_tau) == "295789ba715f3217"
        assert digest(point) == "9f9db26b8673df6e"


class TestRunTestEu:
    def test_eu_consistent_profile_not_rejected(self):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        profile = (("l1", "l3", "l2"),) * 3  # an expected-utility ranking
        dgp = _order_mixture_dgp(uni, [profile], [1.0])
        panel, _ = simulate(dgp, 40, seed=2)
        report = run_test_eu(estimate_rho(panel, uni), catalog.application_lotteries(),
                             TestConfig(reps=99, seed=0))
        assert not report.reject
        assert report.diagnostics["eu_orders_per_period"] == [2, 2, 2]

    def test_middle_lottery_on_top_rejected(self):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        profile = (("l3", "l1", "l2"),) * 3  # the mixture ranked strictly top
        dgp = _order_mixture_dgp(uni, [profile], [1.0])
        panel, _ = simulate(dgp, 60, seed=3)
        report = run_test_eu(estimate_rho(panel, uni), catalog.application_lotteries(),
                             TestConfig(reps=99, seed=0))
        assert report.reject

    def test_drum_passes_while_eu_rejects(self):
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        profiles = [(("l1", "l2", "l3"),) * 3, (("l2", "l1", "l3"),) * 3]
        dgp = _order_mixture_dgp(uni, profiles, [0.5, 0.5])
        panel, _ = simulate(dgp, 80, seed=4)
        rho = estimate_rho(panel, uni)
        statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in uni.periods]
        A = kron_dynamic(statics, rho.observed_paths, uni)
        plain = run_test(rho, A, TestConfig(reps=99, seed=0))
        eu = run_test_eu(rho, catalog.application_lotteries(),
                         TestConfig(reps=99, seed=0))
        assert not plain.reject
        assert eu.reject

    def test_degenerate_restriction_error(self):
        uni = catalog.binary_universe(("l1", "l2"), (1,))
        lotteries = {"l1": (1, 0), "l2": (1, 0)}  # identical lotteries
        panel = PanelDataset((PanelRecord(1, 1, 1, "l1"),))
        with pytest.raises(ParameterError, match="degenerate"):
            run_test_eu(estimate_rho(panel, uni), lotteries, TestConfig(reps=9))
