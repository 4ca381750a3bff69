"""Same results: SHA-256 digests of seeded bootstrap outcomes and
counterfactual bounds, so that a change to the bootstrap's rounds, bounds or
projections that moves a statistic, a p-value, a verdict or a critical
value, or a change to the bounding LPs that moves a bound, shows here.

The verdict-only route is pinned on every criterion-7 cell, 5 sims each
through ``run_experiment``; the full route (``drum test``, critical value
included) on two criterion-8-shaped panels, with and without the
expected-utility restriction. Each of these digests hashes the exact float
bits (``float.hex``) of every outcome in order. The counterfactual bounds
are pinned on both routes, targets 1 and 2, marginal and conditional, over
seeded Dirichlet(1) mixtures of the two-budget demand geometry; their digests
hash each bound at 9 significant digits, the benchmark fingerprint's
precision, since an LP optimum is only fixed up to the solver's last bit.
The command line is pinned by the exit code and printed JSON of ``drum
test``, ``drum test --eu`` and ``drum check`` on the two panels, and of
``drum check`` on seeded mixtures of the simple, binary and demand3x3
geometries, byte for byte, as a fresh ``drum`` process prints them: each
command line first drops the compiled feasibility LPs, which are warm and
would otherwise start from the basis of whatever solved them before. The
verdicts of the mixture checks are also held independent of that history.

``python tests/test_same_results.py`` prints every digest as the current
code computes it, in the layout of the tables below, so that a change that
moves the random stream on purpose re-pins them with one command."""

import contextlib
import hashlib
import io as textio
import itertools
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # a checkout that is not installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conftest import app_dgp, app_panel, rho_from_weights, simple_geometry  # noqa: E402

import drumtest.simulate as sim  # noqa: E402
from drumtest import catalog, checks, cli, io  # noqa: E402
from drumtest.counterfactuals import (CounterfactualProblem, bound_functional,  # noqa: E402
                                      kron_counterfactual_cone)
from drumtest.geometry import Budget, compute_patches, demand_universe  # noqa: E402
from drumtest.inference import TestConfig, run_test, run_test_eu  # noqa: E402
from drumtest.model import estimate_rho  # noqa: E402
from drumtest.representations import (build_static_A, enumerate_orders,  # noqa: E402
                                      kron_dynamic, static_type_matrix)
from drumtest.simulate import DgpSpec, run_experiment, simulate  # noqa: E402

# (DGP kind, N, digest of (statistic, p-value, reject) over its 5 sims)
VERDICT_ONLY = [
    ("cobb-douglas-walk", 50,
     "8f755706ad6c1d2ed18e63e863935e31213b76ae785d9fe209bb85f535eaaffd"),
    ("cobb-douglas-walk", 500,
     "a1c915590acc1aff67d79cd267815777ed63489ad22fcbc50a18d7c35798279f"),
    ("cobb-douglas-gaussian-copula", 50,
     "ce43c0065397ef575061538a525656c91c3a11e3c9404a8a1b9b2fd4c38d39ce"),
    ("cobb-douglas-gaussian-copula", 500,
     "8413bbd29bfb75500de268bffa2b0a2210a444d99c575e4b755d52ca46791a2f"),
    ("binary1", 10,
     "31af32cbe2f85983374c824a92efde14608db13e1c701f8cf9af5d1657365fd9"),
    ("binary1", 175,
     "96d3c13dede9f9b186cb50381a5d012559f12eb99cbb3d0979a8fdf36b7b6223"),
    ("binary3", 350,
     "e211b2fcd1956d70687b158890c247547c2ee9614ae1938e0b6162b45f908d9a"),
]

# (restricted to expected utility, digest of (statistic, p-value, reject,
# critical value) over the two panels)
FULL_ROUTE = [
    (False, "53808b977185faf27f24a5afa1b8b38ace5269c50c9bca602797109bf889413e"),
    (True, "32b455c0db5143337bf08c7aeadbaf1feda6c7402aa6f0df64dafd42c7e99f27"),
]

# (route, target budget, conditional, digest of (lower, upper) at 9
# significant digits over BOUND_MIXTURES mixtures)
BOUNDS = [
    ("extension", 1, False,
     "feff116bb271bf78bad1095b79d87c2119ca7755fdb0b19970c2c242965ae7e4"),
    ("extension", 1, True,
     "1022e63d7bdf438e1ef12c9150a2ee5dc3827ebc190ece436b2c82b5e385dcd9"),
    ("extension", 2, False,
     "635b3454fc2be8927ac9cfb212df81ac9d9c8d828f6d4771f7f82a298f366b20"),
    ("extension", 2, True,
     "2d77e19c9aeadfaf5be7a6532e8380c36590e08e88d65e346f040799f1ffa136"),
    ("mixture", 1, False,
     "feff116bb271bf78bad1095b79d87c2119ca7755fdb0b19970c2c242965ae7e4"),
    ("mixture", 1, True,
     "1022e63d7bdf438e1ef12c9150a2ee5dc3827ebc190ece436b2c82b5e385dcd9"),
    ("mixture", 2, False,
     "635b3454fc2be8927ac9cfb212df81ac9d9c8d828f6d4771f7f82a298f366b20"),
    ("mixture", 2, True,
     "2d77e19c9aeadfaf5be7a6532e8380c36590e08e88d65e346f040799f1ffa136"),
]
BOUND_MIXTURES = 5

# (command case, digest of (exit code, printed JSON) over its inputs): the
# app cases run on the two panels, the mixture cases on CLI_MIXTURES mixtures
CLI = [
    ("test",
     "dbfeffa56368d619960ebf27026715b9a0f04da8aa9b301a118e490cad547ab7"),
    ("test-eu",
     "68a145f30f43e44f53a54ff29c6930a1a0a03a297b06c787d87e860378b31164"),
    ("check",
     "bee535341f11fb7d0d79d657ee9b3a656f6117e67bae54d0c98aa0ff15dc196d"),
    ("check-simple",
     "74ff045845d3a9d445895963d980e35cf12a0337305cd065a01da1cbc76048e4"),
    ("check-binary",
     "020256b33b135742b319176e0002c5ee7a4a30ec6a22b2f147be42aa3aafb8ef"),
    ("check-demand3x3",
     "c48170df532fabb01294aba3e316031e12b5e34cee44210f6cf19a98c0ca4d7a"),
]
CLI_MIXTURES = 3
MIXTURE_CHECKS = {"simple": "stability,dmono,hrep,cone,hierarchy,sarpd",
                  "binary": "stability,dmono,hrep,cone,bm,hierarchy",
                  "demand3x3": "stability,dmono,hrep,cone"}
ROUTES = {"extension": bound_functional, "mixture": kron_counterfactual_cone}
BOUND_CASES = [(route, target, conditional) for route in ROUTES for target in (1, 2)
               for conditional in (False, True)]


def _digest(reports, critical_value=False):
    h = hashlib.sha256()
    for r in reports:
        fields = [float(r.statistic).hex(), float(r.p_value).hex(), str(bool(r.reject))]
        if critical_value:
            fields.append(float(r.critical_value).hex())
        h.update(" ".join(fields).encode() + b"\n")
    return h.hexdigest()


def verdict_only_digest(kind, n):
    """The digest of a cell's 5 verdict-only sims, read from the reports
    ``run_experiment`` gets back from ``run_test``."""
    reports, real = [], sim.run_test

    def capture(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(sim, "run_test", capture)
        run_experiment([DgpSpec(kind)], [n], sims=5, reps=199, seed=2301)
    assert len(reports) == 5
    assert not any(r.diagnostics["critical_value_computed"] for r in reports)
    return _digest(reports)


def full_route_digest(eu):
    """The digest of ``drum test``'s full route on the two app panels."""
    reports = []
    for seed in (31, 32):
        rho, A = app_panel(seed)
        config = TestConfig(reps=199, seed=seed)
        if eu:
            reports.append(run_test_eu(rho, catalog.application_lotteries(), config))
        else:
            reports.append(run_test(rho, A, config))
    assert all(np.isfinite(r.critical_value) for r in reports)
    return _digest(reports, critical_value=True)


def bounds_digest(route, target, conditional, setup=None):
    """The digest of one route's bounds on the seeded mixtures: each draws
    Dirichlet(1) weights over the nine two-period types and a functional,
    as the benchmark's bounds inputs do, and conditions on menu path (1, 2)
    at its most likely choice path."""
    setup = setup or simple_geometry()
    new_budgets = [Budget("next", 1, (Fraction(2), Fraction(1)), Fraction(1)),
                   Budget("next", 2, (Fraction(1), Fraction(2)), Fraction(1))]
    labels = [p.label for p in compute_patches(new_budgets)[0] if not p.is_intersection]
    rng = np.random.default_rng(2800 + 10 * target + conditional)
    h = hashlib.sha256()
    for _ in range(BOUND_MIXTURES):
        rho = rho_from_weights(setup["universe"], setup["AT"], rng.dirichlet(np.ones(9)))
        lo = {lbl: float(v) for lbl, v in zip(labels, rng.random(4))}
        hi = {lbl: lo[lbl] + float(v) for lbl, v in zip(labels, rng.random(4))}
        condition = None
        if conditional:
            path = (1, 2)
            condition = (path, setup["universe"].choice_paths(path)[
                int(np.argmax(rho.probs[path]))])
        problem = CounterfactualProblem(rho, setup["budgets"], new_budgets, lo, hi,
                                        target_budget=target, condition=condition)
        report = ROUTES[route](problem)
        h.update(f"{report.lower:.9g} {report.upper:.9g}\n".encode())
    return h.hexdigest()


def _app_argvs(case, workdir):
    """The ``drum`` command lines of an app case, one per panel, with the
    panel, rho, universe and lottery files written to ``workdir``."""
    dgp = app_dgp()
    uni = dgp.params["universe"]
    io.write_universe(uni, workdir / "app.universe.json")
    lotteries = catalog.application_lotteries()
    width = len(next(iter(lotteries.values())))
    (workdir / "lotteries.csv").write_text(
        "alternative_id," + ",".join(f"prize_{k}" for k in range(1, width + 1)) + "\n"
        + "".join(f"{a}," + ",".join(map(str, lotteries[a])) + "\n" for a in lotteries))
    assert io.read_lotteries(workdir / "lotteries.csv") == lotteries
    argvs = []
    for seed in (31, 32):
        panel, _ = simulate(dgp, 356, seed=seed)
        io.write_panel(panel, uni, workdir / f"panel{seed}.csv")
        io.write_rho(estimate_rho(panel, uni), workdir / f"rho{seed}.csv")
        if case == "check":
            argvs.append(["check", "--input", str(workdir / f"rho{seed}.csv"),
                          "--universe", str(workdir / "app.universe.json")])
            continue
        argv = ["test", "--panel", str(workdir / f"panel{seed}.csv"),
                "--universe", str(workdir / "app.universe.json"),
                "--reps", "199", "--seed", str(seed)]
        argvs.append(argv + ["--eu", str(workdir / "lotteries.csv")] if case == "test-eu"
                     else argv)
    return argvs


def _mixture_argvs(kind, workdir):
    """``drum check`` command lines on CLI_MIXTURES seeded Dirichlet(1)
    mixtures of the geometry's types, with its files written to
    ``workdir``."""
    if kind == "binary":
        uni, budgets = catalog.binary_universe(periods=(1, 2)), None
        statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in uni.periods]
    else:
        budgets = (catalog.simple_budgets((1, 2)) if kind == "simple"
                   else catalog.demand3x3_budgets((1,)))
        uni, patches, _ = demand_universe(budgets, tuple(budgets))
        statics = [static_type_matrix(uni, t, patches) for t in uni.periods]
        io.write_budgets(budgets, workdir / f"{kind}.budgets.csv")
    A = kron_dynamic(statics, itertools.product(*map(uni.menu_indices, uni.periods)), uni)
    io.write_universe(uni, workdir / f"{kind}.universe.json")
    rng = np.random.default_rng(3000 + len(kind))
    argvs = []
    for k in range(CLI_MIXTURES):
        rho = rho_from_weights(uni, A, rng.dirichlet(np.ones(A.shape[1])))
        io.write_rho(rho, workdir / f"{kind}{k}.rho.csv")
        argv = ["check", "--input", str(workdir / f"{kind}{k}.rho.csv"),
                "--universe", str(workdir / f"{kind}.universe.json"),
                "--checks", MIXTURE_CHECKS[kind]]
        argvs.append(argv + ["--budgets", str(workdir / f"{kind}.budgets.csv")] if budgets
                     else argv)
    return argvs


def run_cli(argv, fresh=True):
    """The exit code and printed output of one command line, run in-process
    through ``cli.main``. ``fresh`` first drops the compiled feasibility
    LPs, whose solves start from the basis of the last one, so that the
    output is what a fresh ``drum`` process prints."""
    if fresh:
        checks._compile_bm.cache_clear()
        checks._compile_hierarchy.cache_clear()
    out = textio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_digest(case, workdir=None):
    """The digest of a CLI case: each command line's exit code and printed
    JSON, in order, each as a fresh ``drum`` process prints them."""
    with contextlib.ExitStack() as stack:
        workdir = Path(workdir or stack.enter_context(tempfile.TemporaryDirectory()))
        argvs = (_mixture_argvs(case.split("-", 1)[1], workdir) if case.startswith("check-")
                 else _app_argvs(case, workdir))
        h = hashlib.sha256()
        for argv in argvs:
            code, out = run_cli(argv)
            h.update(f"{code}\n{out}".encode())
        return h.hexdigest()


def check_outcomes(code, out):
    """What decides a ``drum check`` run: its exit code and, per check, the
    verdict, the worst violation and the LP status where an LP ran."""
    return code, {name: (report["passed"], report["worst_violation"],
                         report["diagnostics"].get("solver", {}).get("status"))
                  for name, report in json.loads(out).items()}


@pytest.mark.parametrize("kind,n,digest", VERDICT_ONLY,
                         ids=[f"{kind}@{n}" for kind, n, _ in VERDICT_ONLY])
def test_verdict_only_outcomes_are_pinned(kind, n, digest):
    assert verdict_only_digest(kind, n) == digest


@pytest.mark.parametrize("eu,digest", FULL_ROUTE, ids=["plain", "eu"])
def test_full_route_outcomes_are_pinned(eu, digest):
    assert full_route_digest(eu) == digest


@pytest.mark.parametrize("route,target,conditional,digest", BOUNDS,
                         ids=[f"{r}-{t}-{'conditional' if c else 'marginal'}"
                              for r, t, c, _ in BOUNDS])
def test_bounds_are_pinned(simple_setup, route, target, conditional, digest):
    assert bounds_digest(route, target, conditional, simple_setup) == digest


@pytest.mark.parametrize("case,digest", CLI, ids=[case for case, _ in CLI])
def test_cli_reports_are_pinned(tmp_path, case, digest):
    assert cli_digest(case, tmp_path) == digest


def test_check_verdicts_do_not_depend_on_solve_history(tmp_path):
    """The binary and simple mixture ``drum check`` calls, run in one process
    forward from cold LPs and then in reverse from the bases they left,
    give each call's exit code, verdicts, worst violations and LP statuses
    as a fresh process does."""
    argvs = _mixture_argvs("binary", tmp_path) + _mixture_argvs("simple", tmp_path)
    fresh = [check_outcomes(*run_cli(argv)) for argv in argvs]
    checks._compile_bm.cache_clear()
    checks._compile_hierarchy.cache_clear()
    forward = [check_outcomes(*run_cli(argv, fresh=False)) for argv in argvs]
    backward = [check_outcomes(*run_cli(argv, fresh=False)) for argv in reversed(argvs)]
    assert forward == fresh
    assert backward[::-1] == fresh
    # every call solved its hierarchy LP, and the binary calls their bm LP
    assert [outcome["hierarchy"][2] for _, outcome in fresh] == [0] * len(argvs)
    assert [outcome["bm"][2] for _, outcome in fresh[:CLI_MIXTURES]] == [0] * CLI_MIXTURES


if __name__ == "__main__":
    print("VERDICT_ONLY = [")
    for kind, n, _ in VERDICT_ONLY:
        print(f'    ("{kind}", {n},\n     "{verdict_only_digest(kind, n)}"),')
    print("]\n\nFULL_ROUTE = [")
    for eu, _ in FULL_ROUTE:
        print(f'    ({eu}, "{full_route_digest(eu)}"),')
    print("]\n\nBOUNDS = [")
    for route, target, conditional in BOUND_CASES:
        print(f'    ("{route}", {target}, {conditional},\n'
              f'     "{bounds_digest(route, target, conditional)}"),')
    print("]\n\nCLI = [")
    for case, _ in CLI:
        print(f'    ("{case}", "{cli_digest(case)}"),')
    print("]")
