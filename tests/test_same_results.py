"""Same results: SHA-256 digests of seeded bootstrap outcomes, so that a
change to the bootstrap's rounds, bounds or projections that moves a
statistic, a p-value, a verdict or a critical value shows here.

The verdict-only route is pinned on every criterion-7 cell, 5 sims each
through ``run_experiment``; the full route (``drum test``, critical value
included) on two criterion-8-shaped panels, with and without the
expected-utility restriction. Each digest hashes the exact float bits
(``float.hex``) of every outcome in order."""

import hashlib

import numpy as np
import pytest
from conftest import app_panel

import drumtest.simulate as sim
from drumtest import catalog
from drumtest.inference import TestConfig, run_test, run_test_eu
from drumtest.simulate import DgpSpec, run_experiment

# (DGP kind, N, digest of (statistic, p-value, reject) over its 5 sims)
VERDICT_ONLY = [
    ("cobb-douglas-walk", 50,
     "0f74415d2c797cdaf696b0f2713ddedeef1985284268a9597bc16f3d57252d9c"),
    ("cobb-douglas-walk", 500,
     "ff1d1a5c8eb974feb48e89bb0f851b416cc1406c88cd2057288f6e1ce8170015"),
    ("cobb-douglas-gaussian-copula", 50,
     "5fd613effb3bb84044a0289722189c0884da59a21dabf26556e8d50e83a2adda"),
    ("cobb-douglas-gaussian-copula", 500,
     "c642660e186390b395d9a642296cc639157b0e0f751db272a304ea3b3dba5d21"),
    ("binary1", 10,
     "31af32cbe2f85983374c824a92efde14608db13e1c701f8cf9af5d1657365fd9"),
    ("binary1", 175,
     "96d3c13dede9f9b186cb50381a5d012559f12eb99cbb3d0979a8fdf36b7b6223"),
    ("binary3", 350,
     "47316ae10b29f905c9459ace7a42a285bc633bb92ff6d72cea88e3a92ee74745"),
]

# (restricted to expected utility, digest of (statistic, p-value, reject,
# critical value) over the two panels)
FULL_ROUTE = [
    (False, "335a4987ea815adf663a01cf3cb07cbd4e77b1de0bb883bb17feedcf27ce79ae"),
    (True, "36781f14d9ec1db5ffeb237ce3cab2c492ec6e0fa299b4f28f4cd8fb2b147da8"),
]


def _digest(reports, critical_value=False):
    h = hashlib.sha256()
    for r in reports:
        fields = [float(r.statistic).hex(), float(r.p_value).hex(), str(bool(r.reject))]
        if critical_value:
            fields.append(float(r.critical_value).hex())
        h.update(" ".join(fields).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("kind,n,digest", VERDICT_ONLY,
                         ids=[f"{kind}@{n}" for kind, n, _ in VERDICT_ONLY])
def test_verdict_only_outcomes_are_pinned(kind, n, digest, monkeypatch):
    reports, real = [], sim.run_test

    def capture(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(sim, "run_test", capture)
    run_experiment([DgpSpec(kind)], [n], sims=5, reps=199, seed=2301)
    assert len(reports) == 5
    assert not any(r.diagnostics["critical_value_computed"] for r in reports)
    assert _digest(reports) == digest


@pytest.mark.parametrize("eu,digest", FULL_ROUTE, ids=["plain", "eu"])
def test_full_route_outcomes_are_pinned(eu, digest):
    reports = []
    for seed in (31, 32):
        rho, A = app_panel(seed)
        config = TestConfig(reps=199, seed=seed)
        if eu:
            reports.append(run_test_eu(rho, catalog.application_lotteries(), config))
        else:
            reports.append(run_test(rho, A, config))
    assert all(np.isfinite(r.critical_value) for r in reports)
    assert _digest(reports, critical_value=True) == digest
