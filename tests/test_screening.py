"""Exact bootstrap screening and curtailment: with ``critical_value=False``
the bootstrap skips the replicates whose upper bound cannot reach the
statistic and stops drawing once the verdict is decided. The statistic and
the verdict stay those of the full bootstrap, and the p-value is the
curtailed one read off the full bootstrap's J* sequence."""

import concurrent.futures
import itertools
import json
import math

import numpy as np
import pytest
from conftest import curtailed_p_value, full_bootstrap, reference_chunk
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, nnls

import drumtest.simulate as sim
from drumtest import catalog, checks, inference
from drumtest.cli import main
from drumtest.errors import SolverError
from drumtest.inference import TestConfig, run_test
from drumtest.model import estimate_rho
from drumtest.simulate import (DgpSpec, agents_per_path_for, build_universe, run_experiment,
                               simulate, type_matrix_for)


def _order_mixture():
    uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
    profiles = [(("l1", "l2", "l3"),) * 3, (("l3", "l2", "l1"),) * 3,
                (("l2", "l3", "l1"), ("l1", "l3", "l2"), ("l3", "l1", "l2"))]
    paths = sorted(itertools.permutations(uni.menu_indices(1)))
    return DgpSpec("order-mixture", {"universe": uni, "profiles": profiles,
                                     "weights": [0.5, 0.3, 0.2], "menu_paths": paths})


# (DGP, reported sample size); each kind of generator once
DGPS = [(DgpSpec("cobb-douglas-walk"), 50), (DgpSpec("cobb-douglas-gaussian-copula"), 50),
        (DgpSpec("binary1"), 10), (DgpSpec("binary2"), 60), (DgpSpec("binary3"), 40),
        (_order_mixture(), 30)]
DGP_IDS = [dgp.kind for dgp, _ in DGPS]


def _rho_and_A(dgp, n, seed):
    universe, _ = build_universe(dgp)
    panel, _ = simulate(dgp, agents_per_path_for(dgp, n), seed=seed)
    return estimate_rho(panel, universe), type_matrix_for(dgp, universe)


def _same_verdict(screened, full):
    assert screened.statistic == full.statistic
    assert screened.p_value == full.p_value
    assert screened.reject == full.reject


@pytest.mark.parametrize("dgp,n", DGPS, ids=DGP_IDS)
def test_screened_test_matches_full_bootstrap(dgp, n):
    for seed in range(3):
        rho, A = _rho_and_A(dgp, n, seed)
        config = TestConfig(reps=99, seed=seed, critical_value=False)
        full, stats = full_bootstrap(rho, A, config)
        screened = run_test(rho, A, config)
        assert screened.statistic == full.statistic
        assert screened.reject == full.reject
        assert screened.p_value == curtailed_p_value(stats, full.statistic, 99, config.alpha)
        assert math.isnan(screened.critical_value)
        assert not math.isnan(full.critical_value)
        assert full.diagnostics["critical_value_computed"]
        assert not screened.diagnostics["critical_value_computed"]
        assert full.diagnostics["nnls_solves"] == 2 + 99
        assert full.diagnostics["screened_replicates"] == 0
        assert full.diagnostics["curtailed_replicates"] == 0
        skipped = screened.diagnostics["screened_replicates"]
        curtailed = screened.diagnostics["curtailed_replicates"]
        bounded = screened.diagnostics["bounded_replicates"]
        assert screened.diagnostics["nnls_solves"] == 2 + 99 - skipped - curtailed - bounded
        for report in (full, screened):
            assert 0 <= report.diagnostics["kkt_residual_max"] < 1e-8
            assert json.dumps(report.to_dict())


def test_skipped_replicates_fall_below_the_statistic(monkeypatch):
    """Every replicate the screen skips has a full projection value below the
    statistic. Every replicate it keeps has the full value: bit for bit when
    it was solved on the full matrix, to rounding when it was certified on
    the working set, and on its certified side of the statistic when its
    interval decided it."""
    real = inference._bootstrap_chunk
    calls = []

    def spy(plan, B, need=None):
        out, used = real(plan, B, need)
        # the rows past a curtailed round's decisive hit are not taken
        calls.append((plan, B[:out.shape[1]], out))
        return out, used

    monkeypatch.setattr(inference, "_bootstrap_chunk", spy)
    skipped = 0
    for dgp, n in DGPS:
        for seed in range(2):
            rho, A = _rho_and_A(dgp, n, 10 + seed)
            run_test(rho, A, TestConfig(reps=99, seed=seed, critical_value=False))
    for plan, B, out in calls:
        full, _ = reference_chunk(plan, B)
        # screened, or decided below the statistic by a working-set point
        gone = np.isnan(out[0])
        skipped += int(gone.sum())
        assert np.all(full[0][gone] < plan.statistic - 1e-12)
        decided = out[2] == inference.INTERVAL
        assert np.array_equal(np.isnan(out[1]), gone | decided)
        solved = out[2] == inference.FULL_AGAIN
        assert full[0][solved].tobytes() == out[0][solved].tobytes()
        certified = np.isin(out[2], (inference.WORKING_SET, inference.GROWN))
        assert np.allclose(out[0][certified], full[0][certified], rtol=1e-12, atol=0)
        assert np.all(out[1][solved | certified] < 1e-8)
        hit = out[0][decided] >= plan.statistic - 1e-12
        assert np.array_equal(full[0][decided] >= plan.statistic - 1e-12, hit)
    assert skipped > 0
    assert all(len(plan.faces.columns) for plan, _, _ in calls)


def test_default_path_keeps_the_unscreened_chunk_call(monkeypatch):
    """The plan has no screening fit; on the wide binary matrix and on a tall
    demand one every round of ROUND replicates, the last one short, runs
    with a working set."""
    seen = []
    real = inference._bootstrap_chunk

    def spy(plan, B, need=None):
        seen.append((len(B), plan.fit is None, len(plan.faces.columns) > 0))
        return real(plan, B, need)

    monkeypatch.setattr(inference, "_bootstrap_chunk", spy)
    for kind in ("binary1", "cobb-douglas-walk"):
        seen.clear()
        rho, A = _rho_and_A(DgpSpec(kind), 10, 0)
        run_test(rho, A, TestConfig(reps=2 * inference.ROUND + 20, seed=0))
        assert seen == [(inference.ROUND, True, True)] * 2 + [(20, True, True)]


@pytest.mark.parametrize("critical_value", [True, False])
def test_deterministic_across_workers(critical_value):
    rho, A = _rho_and_A(DgpSpec("binary1"), 10, 3)
    one, two = [run_test(rho, A, TestConfig(reps=99, seed=4, critical_value=critical_value))
                for _ in range(2)]
    _same_verdict(one, two)
    assert one.critical_value == two.critical_value or (
        math.isnan(one.critical_value) and math.isnan(two.critical_value))
    assert one.diagnostics == two.diagnostics
    assert one.diagnostics["kkt_residual_max"] < 1e-8


def _refused_pool(max_workers):
    raise AssertionError("a process pool was opened")


def test_verdict_only_rounds_run_in_process(monkeypatch):
    """A verdict-only round holds at most ROUND replicates, too few to pay
    for a pool: the test opens none, and the inference module imports no
    pool."""
    rho, A = _rho_and_A(DgpSpec("binary1"), 10, 3)
    config = TestConfig(reps=99, seed=4, critical_value=False)
    one = run_test(rho, A, config)
    assert not hasattr(inference, "ProcessPoolExecutor")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refused_pool)
    two = run_test(rho, A, config)
    _same_verdict(one, two)
    assert math.isnan(one.critical_value) and math.isnan(two.critical_value)
    assert one.diagnostics == two.diagnostics
    # the test rejects, so it draws all 99 replicates, in rounds of ROUND
    assert one.reject and one.diagnostics["curtailed_replicates"] == 0
    assert one.diagnostics["bootstrap_rounds"] == -(-99 // inference.ROUND)


def test_full_bootstrap_rounds_run_in_process(monkeypatch):
    """The full bootstrap's rounds and its order-statistic solves run here
    too: the test opens no pool and reports what it does without the
    refusal, critical value included."""
    rho, A = _rho_and_A(DgpSpec("binary3"), 40, 0)
    config = TestConfig(reps=2 * inference.ROUND + 9, seed=0)
    one = run_test(rho, A, config)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refused_pool)
    two = run_test(rho, A, config)
    _same_verdict(one, two)
    assert one.critical_value == two.critical_value
    assert one.diagnostics == two.diagnostics
    assert one.diagnostics["bounded_replicates"] > 0


def test_experiment_rates_match_unscreened(monkeypatch):
    """run_experiment screens; forcing full bootstraps gives the same rates,
    statistics and verdicts, with every replicate solved."""
    dgps, Ns = [DgpSpec("binary1"), DgpSpec("cobb-douglas-walk")], [10]
    kwargs = dict(sims=4, reps=49, seed=5)
    screened = run_experiment(dgps, Ns, **kwargs)
    full_config = TestConfig

    def unscreened(**config):
        return full_config(**{**config, "critical_value": True})

    monkeypatch.setattr(sim, "TestConfig", unscreened)
    full = run_experiment(dgps, Ns, **kwargs)
    for s, f in zip(screened.entries, full.entries):
        assert s["rejection_rate"] == f["rejection_rate"]
        assert s["mean_statistic"] == f["mean_statistic"]
        assert f["screened_replicates"] == f["curtailed_replicates"] == 0
        assert f["nnls_solves"] + f["bounded_replicates"] == 4 * (49 + 2)
        # one round of ROUND per sim on the full route; no more when curtailed
        assert f["bootstrap_rounds"] == 4 * -(-49 // inference.ROUND)
        assert 4 <= s["bootstrap_rounds"] <= f["bootstrap_rounds"]
        assert s["nnls_solves"] + s["screened_replicates"] + s["curtailed_replicates"] + \
            s["bounded_replicates"] == f["nnls_solves"] + f["bounded_replicates"]
    assert screened.entries[0]["screened_replicates"] > 0
    assert screened.to_csv().splitlines()[0] == \
        "dgp,N,sims,reps,rejections,rejection_rate,standard_error,working_set_grown," \
        "working_set_full_solves,seconds"


def test_experiment_deterministic_across_workers():
    kwargs = dict(sims=3, reps=19, seed=2)
    one = run_experiment([DgpSpec("binary1")], [10], n_jobs=1, **kwargs)
    two = run_experiment([DgpSpec("binary1")], [10], n_jobs=2, **kwargs)
    for a, b in zip(one.entries, two.entries):
        assert {k: v for k, v in a.items() if k != "seconds"} == \
            {k: v for k, v in b.items() if k != "seconds"}


NEW_DIAGNOSTICS = {"nnls_solves", "screened_replicates", "critical_value_computed",
                   "kkt_residual_max", "working_set_columns", "working_set_certified",
                   "working_set_full_solves", "working_set_grown", "curtailed_replicates",
                   "working_set_bounded", "bounded_replicates"}


def test_drum_test_output_unchanged(tmp_path, capsys, monkeypatch):
    panel_path = tmp_path / "panel.csv"
    main(["simulate", "--dgp", "binary1", "--n", "12", "--seed", "4", "--out", str(panel_path)])
    argv = ["test", "--panel", str(panel_path),
            "--universe", str(panel_path.with_suffix(".universe.json")),
            "--reps", "49", "--seed", "1"]
    capsys.readouterr()
    codes, docs = [], []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(inference, "_bootstrap_chunk", reference_chunk)
        codes.append(main(argv))
        docs.append(json.loads(capsys.readouterr().out))
    new, old = docs
    assert codes[0] == codes[1] == 2
    for key in ("statistic", "p_value", "reject"):
        assert new[key] == old[key]
    # a J* certified on the working set is the full optimum up to rounding
    assert new["critical_value"] == pytest.approx(old["critical_value"], rel=1e-12)
    assert new["diagnostics"]["bounded_replicates"] > 0
    assert NEW_DIAGNOSTICS <= set(new["diagnostics"])
    assert new["diagnostics"]["critical_value_computed"] is True
    assert new["diagnostics"]["screened_replicates"] == 0
    assert new["diagnostics"]["curtailed_replicates"] == 0
    assert new["diagnostics"]["working_set_bounded"] == 0
    assert {k: v for k, v in new["diagnostics"].items() if k not in NEW_DIAGNOSTICS} == \
        {k: v for k, v in old["diagnostics"].items() if k not in NEW_DIAGNOSTICS}


def test_failed_certificate_raises(monkeypatch):
    """A projection off its KKT conditions whose bvls re-solve is off them
    too raises with its residual."""
    rho, A = _rho_and_A(DgpSpec("binary3"), 40, 0)

    def off_target(WA, b):
        x, rnorm = nnls(WA, b)
        return x + 0.5, rnorm

    for module in (checks, inference):
        monkeypatch.setattr(module, "nnls_solve", off_target)
    monkeypatch.setattr(checks, "lsq_linear",
                        lambda WA, b, **options: OptimizeResult(x=off_target(WA, b)[0]))
    with pytest.raises(SolverError) as err:
        run_test(rho, A, TestConfig(reps=9, seed=0))
    assert err.value.diagnostics["kkt_residual"] > err.value.diagnostics["kkt_limit"]


# (DGP kind, reported sample size) of the curtailment property: the null
# binary3 cell, the binary1 cell that nearly always rejects, a demand cell
CURTAILED_CELLS = [("binary3", 40), ("binary1", 10), ("cobb-douglas-walk", 50)]


@pytest.fixture(scope="module")
def cell_matrices():
    return {kind: type_matrix_for(DgpSpec(kind), build_universe(DgpSpec(kind))[0])
            for kind, _ in CURTAILED_CELLS}


@settings(max_examples=40, deadline=None)
@given(cell=st.sampled_from(CURTAILED_CELLS), seed=st.integers(0, 2**16),
       reps=st.integers(1, 150),
       alpha=st.one_of(st.sampled_from([0.05, 0.1]), st.floats(0.005, 0.5)))
def test_curtailed_verdicts_match_the_full_bootstrap(cell_matrices, cell, seed, reps, alpha):
    kind, n = cell
    dgp = DgpSpec(kind)
    panel, _ = simulate(dgp, agents_per_path_for(dgp, n), seed=seed)
    rho, A = estimate_rho(panel, build_universe(dgp)[0]), cell_matrices[kind]
    config = TestConfig(reps=reps, alpha=alpha, seed=seed + 1, critical_value=False)
    full, stats = full_bootstrap(rho, A, config)
    report = run_test(rho, A, config)
    assert report.statistic == full.statistic
    assert report.reject == full.reject
    assert 1 / (reps + 1) <= report.p_value <= 1
    assert report.reject == (report.p_value <= alpha)
    assert report.p_value == curtailed_p_value(stats, full.statistic, reps, alpha)
    d = report.diagnostics
    assert d["nnls_solves"] - 2 + d["screened_replicates"] + d["curtailed_replicates"] + \
        d["bounded_replicates"] == reps
    if report.reject:
        assert d["curtailed_replicates"] == 0
        assert report.p_value == full.p_value


# (DGP kind, reported sample size) of the seed-order stop property: the
# cell that nearly always rejects and the two small demand cells
STOP_CELLS = [("binary1", 10), ("cobb-douglas-walk", 50), ("cobb-douglas-gaussian-copula", 50)]


@settings(max_examples=30, deadline=None)
@given(cell=st.sampled_from(STOP_CELLS), panel_seed=st.integers(0, 50),
       seed=st.integers(0, 2**32 - 1))
def test_no_replicate_past_the_decisive_hit_is_projected(cell, panel_seed, seed):
    """Every replicate that ``_project`` takes lies before L, the seed-order
    index of the h-th hit of the full bootstrap (L = R when the test
    rejects). The p-value is h/L when the test does not reject and the
    fixed-R one when it does; the curtailed replicates are R - L, and the
    rounds at most ceil(L / ROUND)."""
    kind, n = cell
    dgp = DgpSpec(kind)
    rho, A = _rho_and_A(dgp, n, panel_seed)
    config = TestConfig(reps=199, seed=seed, critical_value=False)
    full, stats = full_bootstrap(rho, A, config)
    real_draws, real_chunk, real_project = (inference._draws, inference._bootstrap_chunk,
                                            inference._project)
    drawn, rounds, projected = [], [], []

    def draws(plan, seed, reps):
        drawn.append(real_draws(plan, seed, reps))
        return drawn[-1]

    def chunk(plan, B, need=None):
        # the round's first seed-order index: the rows the earlier rounds took
        rounds.append([sum(taken for _, _, taken in rounds), B, None])
        out, supports = real_chunk(plan, B, need)
        rounds[-1][2] = out.shape[1]
        return out, supports

    def project(plan, B, room=None):
        result = real_project(plan, B, room)
        first, rows, _ = rounds[-1]
        for b in B[:len(result[3])]:
            projected.append(first + int(np.flatnonzero((rows == b).all(axis=1))[0]))
        return result

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(inference, "_draws", draws)
        patched.setattr(inference, "_bootstrap_chunk", chunk)
        patched.setattr(inference, "_project", project)
        report = run_test(rho, A, config)
    assert report.statistic == full.statistic and report.reject == full.reject
    hits = np.flatnonzero(stats >= full.statistic - 1e-12)
    h = inference._stop_count(199, config.alpha)
    if report.reject:
        L = 199
        assert report.p_value == full.p_value
    else:
        L = hits[h - 1] + 1
        assert report.p_value == h / L
    d = report.diagnostics
    assert d["curtailed_replicates"] == 199 - L
    assert d["bootstrap_rounds"] == len(rounds) <= math.ceil(L / inference.ROUND)
    assert all(index < L for index in projected)
    # the rounds are consecutive seed-order slices of the test's one draw
    assert len(drawn) == 1
    for first, rows, _ in rounds:
        assert rows.tobytes() == drawn[0][first:first + len(rows)].tobytes()


def test_curtailment_stops_at_the_decisive_hit():
    """A null binary3 sim at R = 199, alpha = 0.05: the tenth replicate to
    reach J is the L-th drawn, among the first 20, so drawing stops there
    and the p-value is 10/L; the working set holds the supports found by
    then."""
    rho, A = _rho_and_A(DgpSpec("binary3"), 350, 7)
    config = TestConfig(reps=199, seed=7, critical_value=False)
    full, stats = full_bootstrap(rho, A, config)
    report = run_test(rho, A, config)
    hits = np.flatnonzero(stats >= full.statistic - 1e-12)
    assert len(hits) >= 10 and hits[9] < 20
    assert report.p_value == 10 / (hits[9] + 1)
    assert report.diagnostics["curtailed_replicates"] == 199 - (hits[9] + 1)
    assert report.diagnostics["working_set_columns"] > 0
    assert not report.reject and not full.reject


@pytest.mark.parametrize("reps,alpha,h", [(199, 0.05, 10), (99, 0.05, 5), (999, 0.05, 50),
                                          (19, 0.05, 1), (99, 0.0506, None), (1, 0.05, None),
                                          (9, 0.01, None)])
def test_stop_count(reps, alpha, h):
    """h is the fewest hits at which (1 + h)/(R + 1) > alpha; no curtailment
    where h/R could fail to exceed alpha (h = 5 at R = 99 gives 5/99 <
    0.0506) or where nothing can reject (h = 0)."""
    assert inference._stop_count(reps, alpha) == h
