"""Bootstrap cone-projection test and its expected-utility restriction."""

import dataclasses
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


def test_a_projection_off_its_kkt_conditions_is_solved_again(binary_app, monkeypatch):
    """Replicate 37 of this criterion-8-shaped panel (panel seed from
    SeedSequence((5, 0)), bootstrap seed 5052) gets a full-matrix nnls point
    that fails its KKT check on the rank-deficient 48x216 matrix. It still
    ends with a passing certificate and bvls's J*; every other replicate
    keeps scipy's nnls statistic bit for bit. ``_project`` is driven with
    the test's plan, the rows its chunks received and a working set of every
    column, so that every replicate is solved on the full matrix; in the
    test itself replicate 37 is decided by its interval without a solve."""
    uni, A = binary_app
    rho = _app_rho(uni, int(np.random.SeedSequence((5, 0)).generate_state(1)[0]))
    chunks = []

    def recording(plan, B):
        out = chunk(plan, B)
        chunks.append((plan, B, out))
        return out

    chunk = inference._bootstrap_chunk
    monkeypatch.setattr(inference, "_bootstrap_chunk", recording)
    report = run_test(rho, A, TestConfig(reps=199, alpha=0.05, seed=5052))
    rows = np.concatenate([B for _, B, _ in chunks])
    assert len(rows) == 199
    tested = np.concatenate([out for _, _, (out, _) in chunks], axis=1)
    assert tested[2, 37] == inference.INTERVAL
    assert report.diagnostics["kkt_residual_max"] <= 1e-8

    plan = chunks[0][0]
    WA, N = plan.WA, plan.N
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
        assert stats[i] == pytest.approx(11.77, abs=0.01)
    assert failed == [37]


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

    def draws(plan, seeds):
        drawn.append(len(seeds))
        return real_draws(plan, seeds)

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
    assert sum(drawn) == 199
    assert spied.to_dict() == plain.to_dict()


def test_replicate_seeds_are_the_spawned_children():
    """``_seeds`` builds child i of SeedSequence(seed).spawn(R) alone, with
    the same state and the same stream, for every i < R and in any order."""
    for seed in (0, 5052, 2**63 + 11):
        spawned = np.random.SeedSequence(seed).spawn(199)
        alone = inference._seeds(seed, range(199))
        for a, b in zip(spawned, alone):
            assert np.array_equal(a.generate_state(8), b.generate_state(8))
            assert np.array_equal(np.random.default_rng(a).random(4),
                                  np.random.default_rng(b).random(4))
        picked = inference._seeds(seed, np.array([150, 3, 77]))
        assert [s.generate_state(2).tolist() for s in picked] == \
            [spawned[i].generate_state(2).tolist() for i in (150, 3, 77)]


def _looped_draws(plan, seeds):
    """``_draws`` as it was computed before the batch: every replicate's
    frequencies weighted and recentred inside the loop."""
    B = np.empty((len(seeds), len(plan.vec)))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        star = np.empty_like(plan.vec)
        for (_, start, stop), n, p in zip(plan.blocks, plan.counts, plan.probs):
            star[start:stop] = rng.multinomial(n, p) / n
        B[i] = plan.sqrt_w * (star - plan.vec + plan.eta - plan.shift)
    return B


@pytest.mark.parametrize("kind,n", [("binary3", 40), ("binary1", 10), ("cobb-douglas-walk", 50)])
def test_draws_match_the_per_replicate_loop(kind, n, monkeypatch):
    """The batched weighting and recentring gives the loop's right-hand
    sides byte for byte, on every round of a full and a verdict-only test."""
    real, calls = inference._draws, []

    def spy(plan, seeds):
        B = real(plan, seeds)
        calls.append((plan, seeds, B))
        return B

    monkeypatch.setattr(inference, "_draws", spy)
    dgp = DgpSpec(kind)
    universe, _ = build_universe(dgp)
    panel, _ = simulate(dgp, 4 * n if kind.startswith("cobb") else n, seed=2)
    rho = estimate_rho(panel, universe)
    for critical_value in (True, False):
        run_test(rho, type_matrix_for(dgp, universe),
                 TestConfig(reps=120, seed=9, critical_value=critical_value))
    assert len(calls) >= 2
    for plan, seeds, B in calls:
        assert B.tobytes() == _looped_draws(plan, seeds).tobytes()


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
