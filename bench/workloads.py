"""The benchmark's workloads: seeded inputs, one pass of ops, output gates.

Each workload drives drumtest only through ``run_experiment``,
``drumtest.cli.main`` and the ``drumtest.io`` writers (plus the library
constructors needed to build inputs for those writers). A pass is a fixed
list of ops; the runner repeats passes until the run's time is used up.
Gates accept any correct program: they check invariants of the outputs,
never a particular random stream.
"""

from __future__ import annotations

import contextlib
import importlib
import io as textio
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

ALPHA = 0.05
REPS = 199  # bootstrap replications in every test, as in the criterion-7 table


@dataclass
class Outcome:
    """Gate verdict of one op. ``known_defects`` names failed verdicts that a
    correct program would not give but that are reported instead of counted
    as failures (see NOTES.md)."""

    ok: bool
    detail: str = ""
    fingerprint: list = field(default_factory=list)
    known_defects: list = field(default_factory=list)


@dataclass
class Op:
    """One timed call. ``units`` is the number of ops it counts as (the
    simulations of an mc-table cell call, one for a CLI call)."""

    kind: str
    run: object
    units: int = 1


def _digits(x) -> str:
    return f"{float(x):.9g}"


# --- shared helpers ----------------------------------------------------------------

def call_cli(argv):
    """Run ``drum`` in-process through the module attribute ``drumtest.cli.main``;
    returns (exit code, stdout, stderr)."""
    cli = importlib.import_module("drumtest.cli")
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def gate_test(code, out, err) -> Outcome:
    """``drum test``: exit 2 exactly when p <= alpha, p inside [1/(R+1), 1]."""
    doc = _json(out)
    if doc is None:
        return Outcome(False, f"exit {code}, no report: {err.strip()[:200]}")
    p = doc["p_value"]
    ok = (code in (0, 2) and (code == 2) == (p <= ALPHA) and doc["reject"] == (code == 2)
          and 1.0 / (REPS + 1) - 1e-12 <= p <= 1.0 + 1e-12
          and np.isfinite(doc["statistic"]) and doc["statistic"] >= 0)
    return Outcome(ok, f"exit {code}, p={p}",
                   [_digits(doc["statistic"]), _digits(doc["critical_value"]), _digits(p)])


def gate_check(code, out, err, expect_pass=None, ungated=(), known_defects=(),
               allow_size_guard=False) -> Outcome:
    """``drum check``: the exit code agrees with the reports, and
    ``expect_pass`` pins the verdict of every check not named in ``ungated``
    or ``known_defects``; failures of the latter are reported as known
    defects. With ``allow_size_guard`` an exit 1 that names the size guard is
    a valid answer."""
    if allow_size_guard and code == 1 and "size guard" in err:
        return Outcome(True, "size guard", ["size-guard"])
    doc = _json(out)
    if doc is None:
        return Outcome(False, f"exit {code}, no report: {err.strip()[:200]}")
    failing = [name for name, r in doc.items() if not r["passed"]]
    ok = code == (2 if failing else 0)
    if expect_pass is not None:
        pinned = [name for name in doc if name not in ungated and name not in known_defects]
        gated_pass = not any(name in failing for name in pinned)
        ok &= gated_pass == expect_pass
    return Outcome(ok, f"exit {code}, failing {failing}",
                   [f"{name}:{r['passed']}:{_digits(r['worst_violation'])}"
                    for name, r in sorted(doc.items())],
                   [name for name in failing if name in known_defects])


def gate_bounds(code, out, err) -> Outcome:
    """``drum bounds``: lower <= upper, both equal to the mixture cross-check
    within 1e-7."""
    doc = _json(out)
    if code != 0 or doc is None:
        return Outcome(False, f"exit {code}: {err.strip()[:200]}")
    lo, hi = doc["lower"], doc["upper"]
    ok = (lo <= hi + 1e-9 and abs(lo - doc["cross_check_lower"]) <= 1e-7
          and abs(hi - doc["cross_check_upper"]) <= 1e-7)
    return Outcome(ok, f"[{lo}, {hi}]", [_digits(lo), _digits(hi)])


def _write_g(path, lower, upper):
    """g.csv in the layout ``drumtest.io.read_g`` reads."""
    lines = ["budget_id,patch_id,g_lower,g_upper"]
    for (b, p), lo in sorted(lower.items()):
        lines.append(f"{b},{p},{lo!r},{upper[(b, p)]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_lotteries(path, lotteries):
    """lotteries.csv in the layout ``drumtest.io.read_lotteries`` reads."""
    width = max(len(v) for v in lotteries.values())
    lines = ["alternative_id," + ",".join(f"prize_{k + 1}" for k in range(width))]
    for alt, prizes in lotteries.items():
        lines.append(f"{alt}," + ",".join(str(v) for v in prizes))
    Path(path).write_text("\n".join(lines) + "\n")


def _mixture_rho(universe, A, rng):
    """Population distribution of a random mixture of A's columns."""
    from drumtest.model import StochasticChoiceFunction
    fitted = A.dense().astype(float) @ rng.dirichlet(np.ones(A.dense().shape[1]))
    probs, pos = {}, 0
    for path in sorted({p for p, _ in A.row_labels}):
        k = len(universe.choice_paths(path))
        block = np.clip(fitted[pos:pos + k], 0.0, None)
        probs[path] = block / block.sum()
        pos += k
    return StochasticChoiceFunction(universe, probs)


# --- mc-table ------------------------------------------------------------------------

# (name, DGP kind, N, sims per run_experiment call); one call per cell per
# pass. The three cheapest cells run one sim and copula-500 three, so that
# p50 lands mid-way through the walk-500/binary1-175/binary3-350 group and
# p90 inside copula-500, not on the edge between two cells.
MC_CELLS = (("walk-50", "cobb-douglas-walk", 50, 1),
            ("walk-500", "cobb-douglas-walk", 500, 2),
            ("copula-50", "cobb-douglas-gaussian-copula", 50, 1),
            ("copula-500", "cobb-douglas-gaussian-copula", 500, 3),
            ("binary1-10", "binary1", 10, 1),
            ("binary1-175", "binary1", 175, 2),
            ("binary3-350", "binary3", 350, 2))


class McTable:
    """The criterion-7 table through ``run_experiment``, one cell per call.

    Per-sim test reports are read off ``drumtest.simulate.run_test`` by a
    pass-through wrapper, for the gates and the fingerprint; it adds one
    Python call per simulation.
    """

    name = "mc-table"

    def setup(self, workdir: Path, seed: int):
        self.seed = seed
        self.simulate = importlib.import_module("drumtest.simulate")

    def pass_ops(self, index: int):
        ops = []
        for c, (cell, kind, n, sims) in enumerate(MC_CELLS):
            cell_seed = int(np.random.SeedSequence((self.seed, index, c)).generate_state(1)[0])
            ops.append(Op(cell, self._cell_op(cell, kind, n, sims, cell_seed), sims))
        return ops

    def _cell_op(self, cell, kind, n, sims, cell_seed):
        def run():
            sim = self.simulate
            original = getattr(sim, "run_test", None)
            captured = []

            def capture(*args, **kwargs):
                report = original(*args, **kwargs)
                captured.append(report)
                return report

            if original is not None:
                sim.run_test = capture
            try:
                report = sim.run_experiment([sim.DgpSpec(kind)], [n], sims=sims,
                                            reps=REPS, seed=cell_seed, alpha=ALPHA, n_jobs=1)
            finally:
                if original is not None:
                    sim.run_test = original
            return gate_cell(cell, sims, report, captured)
        return run


def gate_cell(cell, sims, report, captured) -> Outcome:
    """One cell entry with the requested sims and reps, an integral rejection
    count, and per-sim p-values in [1/(R+1), 1] that agree with the verdicts."""
    entries = report.entries
    if len(entries) != 1:
        return Outcome(False, f"{len(entries)} entries")
    e = entries[0]
    rejects = e["rejection_rate"] * e["sims"]
    ok = (e["sims"] == sims and e["reps"] == REPS
          and abs(rejects - round(rejects)) < 1e-9 and 0 <= rejects <= sims)
    fp = [f"{cell}:{int(round(rejects))}"]
    if captured:
        ok &= len(captured) == sims
        ok &= sum(bool(r.reject) for r in captured) == int(round(rejects))
        for r in captured:
            ok &= bool(1.0 / (REPS + 1) - 1e-12 <= r.p_value <= 1.0 + 1e-12)
            ok &= bool(r.reject) == (r.p_value <= ALPHA)
            fp += [_digits(r.statistic), _digits(r.critical_value), _digits(r.p_value)]
    return Outcome(bool(ok), f"{cell}: {int(round(rejects))}/{e['sims']} rejected", fp)


# --- app-test ------------------------------------------------------------------------

APP_PANELS = 4
APP_AGENTS_PER_PATH = 356  # about 2135 agents over six menu paths, as in criterion 8


class AppTest:
    """Criterion-8-shaped three-period order-mixture panels through the CLI:
    ``drum test``, ``drum test --eu``, ``drum check`` (default battery),
    ``drum check --checks stability,dmono`` and ``drum check --checks
    hierarchy`` on each panel. (``hrep`` needs all 27 menu paths; the panels
    observe the six of the experimental design.)

    Estimated frequencies carry sampling noise, so check verdicts are not
    pinned. The two quick checks put 40% of the ops below the median, so p50
    and p90 land inside one op kind each rather than between two.
    """

    name = "app-test"

    def setup(self, workdir: Path, seed: int):
        from drumtest import catalog, io
        from drumtest.model import estimate_rho
        from drumtest.simulate import DgpSpec, simulate
        self.seed = seed
        uni = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))
        paths = sorted(itertools.permutations((1, 2, 3)))
        orders = list(itertools.permutations(("l1", "l2", "l3")))
        rotation = (("l1", "l2", "l3"), ("l2", "l3", "l1"), ("l3", "l1", "l2"))
        profiles = [(r, r, r) for r in orders] + [rotation]
        dgp = DgpSpec("order-mixture", {"universe": uni, "profiles": profiles,
                                        "weights": [0.14] * 6 + [0.16], "menu_paths": paths})
        self.universe = workdir / "universe.json"
        io.write_universe(uni, self.universe)
        self.lotteries = workdir / "lotteries.csv"
        _write_lotteries(self.lotteries, catalog.application_lotteries())
        self.panels = []
        for k in range(APP_PANELS):
            panel_seed = int(np.random.SeedSequence((seed, k)).generate_state(1)[0])
            panel, _ = simulate(dgp, APP_AGENTS_PER_PATH, seed=panel_seed)
            panel_csv, rho_csv = workdir / f"panel{k}.csv", workdir / f"rho{k}.csv"
            io.write_panel(panel, uni, panel_csv)
            io.write_rho(estimate_rho(panel, uni), rho_csv)
            self.panels.append((panel_csv, rho_csv))

    def pass_ops(self, index: int):
        uni = str(self.universe)
        ops = []
        for k, (panel_csv, rho_csv) in enumerate(self.panels):
            boot_seed = str((self.seed * 1000 + index * APP_PANELS + k) % 2**31)
            test = ["test", "--panel", str(panel_csv), "--universe", uni, "--reps", str(REPS),
                    "--alpha", str(ALPHA), "--seed", boot_seed, "--threads", "1"]
            ops.append(Op("test", lambda a=test: gate_test(*call_cli(a))))
            eu = test + ["--eu", str(self.lotteries)]
            ops.append(Op("test-eu", lambda a=eu: gate_test(*call_cli(a))))
            check = ["check", "--input", str(rho_csv), "--universe", uni]
            ops.append(Op("check", lambda a=check: gate_check(*call_cli(a))))
            quick = check + ["--checks", "stability,dmono"]
            ops.append(Op("check-quick", lambda a=quick: gate_check(*call_cli(a))))
            hier = check + ["--checks", "hierarchy"]
            ops.append(Op("check-hierarchy",
                          lambda a=hier: gate_check(*call_cli(a), allow_size_guard=True)))
        return ops


# --- check-bounds --------------------------------------------------------------------

BOUNDS_MIXTURES = 3
SIMPLE_CHECKS = "stability,dmono,hrep,cone,hierarchy,sarpd"
BINARY_CHECKS = "stability,dmono,hrep,cone,bm,hierarchy"
DEMAND3X3_CHECKS = "stability,dmono,hrep,cone"
NEW_BUDGET = "2,1;1,2"

# the published two-budget counterexamples over pairs (1,1),(1,2),(2,1),(2,2)
TABLE5 = [[3 / 4, 0, 3 / 4, 0], [0, 1 / 4, 1 / 4, 0],
          [0, 1 / 4, 1 / 4, 0], [3 / 4, 0, 3 / 4, 0]]
TABLE9 = [[1 / 6, 1 / 3, 2 / 3, 0], [1 / 3, 1 / 6, 1 / 6, 1 / 6],
          [1 / 6, 1 / 3, 2 / 3, 0], [1 / 3, 1 / 6, 1 / 6, 1 / 6]]


def _table_rho(universe, M):
    from drumtest.model import StochasticChoiceFunction
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    probs = {}
    for j1, j2 in itertools.product((1, 2), repeat=2):
        probs[(j1, j2)] = np.array([M[pairs.index((j1, i1))][pairs.index((j2, i2))]
                                    for i1 in (1, 2) for i2 in (1, 2)])
    return StochasticChoiceFunction(universe, probs)


class CheckBounds:
    """``drum check`` and ``drum bounds`` on many small inputs: seeded mixtures
    on the two-budget demand geometry (T=2), the binary universe (T=2) and
    demand3x3 (T=1, three goods), plus the Table 5 and Table 9
    counterexamples."""

    name = "check-bounds"

    def setup(self, workdir: Path, seed: int):
        from drumtest import catalog, io
        from drumtest.geometry import Budget, compute_patches, demand_universe, \
            enumerate_demand_types
        from drumtest.representations import build_static_A, enumerate_orders, kron_dynamic
        rng = np.random.default_rng(seed)

        def demand(budgets, periods, maps, stem):
            uni, patches, _ = demand_universe(budgets, periods, index_maps=maps)
            statics = []
            for t in periods:
                types, _ = enumerate_demand_types(patches[t], budgets[t])
                statics.append(build_static_A(uni, t, types))
            paths = sorted(itertools.product(*[uni.menu_indices(t) for t in periods]))
            io.write_universe(uni, workdir / f"{stem}.universe.json")
            io.write_budgets(budgets, workdir / f"{stem}.budgets.csv")
            return uni, kron_dynamic(statics, paths, uni)

        simple_uni, simple_A = demand(catalog.simple_budgets((1, 2)), (1, 2),
                                      catalog.SIMPLE_INDEX_MAPS, "simple")
        d3_uni, d3_A = demand(catalog.demand3x3_budgets((1,)), (1,),
                              catalog.DEMAND3X3_INDEX_MAPS, "d3")
        bin_uni = catalog.binary_universe(periods=(1, 2))
        bin_statics = [build_static_A(bin_uni, t, enumerate_orders(bin_uni, t))
                       for t in (1, 2)]
        bin_A = kron_dynamic(bin_statics, sorted(itertools.product((1, 2, 3), repeat=2)),
                             bin_uni)
        io.write_universe(bin_uni, workdir / "binary.universe.json")

        new_budgets = [Budget("next", j + 1, tuple(Fraction(v) for v in part.split(",")),
                              Fraction(1)) for j, part in enumerate(NEW_BUDGET.split(";"))]
        new_labels = [p.label for p in compute_patches(new_budgets)[0]
                      if not p.is_intersection]

        self.workdir = workdir
        self.mixtures = []
        for k in range(BOUNDS_MIXTURES):
            rho = _mixture_rho(simple_uni, simple_A, rng)
            io.write_rho(rho, workdir / f"simple{k}.rho.csv")
            lo = {lbl: float(v) for lbl, v in zip(new_labels, rng.random(len(new_labels)))}
            hi = {lbl: lo[lbl] + float(v) for lbl, v in zip(new_labels,
                                                           rng.random(len(new_labels)))}
            _write_g(workdir / f"g{k}.csv", lo, hi)
            # condition on one observed path, on its most likely choice path
            path = rho.observed_paths[k % len(rho.observed_paths)]
            arr = np.asarray(rho.probs[path])
            cp = simple_uni.choice_paths(path)[int(np.argmax(arr))]
            condition = "|".join(map(str, path)) + ":" + "|".join(map(str, cp))
            io.write_rho(_mixture_rho(bin_uni, bin_A, rng), workdir / f"binary{k}.rho.csv")
            io.write_rho(_mixture_rho(d3_uni, d3_A, rng), workdir / f"d3{k}.rho.csv")
            self.mixtures.append(condition)
        io.write_rho(_table_rho(simple_uni, TABLE5), workdir / "table5.rho.csv")
        io.write_rho(_table_rho(simple_uni, TABLE9), workdir / "table9.rho.csv")

    def _check(self, stem, rho_name, checks, expect_pass, **gate):
        w = self.workdir
        argv = ["check", "--input", str(w / rho_name), "--universe",
                str(w / f"{stem}.universe.json"), "--checks", checks]
        if stem != "binary":
            argv += ["--budgets", str(w / f"{stem}.budgets.csv")]
        return lambda: gate_check(*call_cli(argv), expect_pass=expect_pass, **gate)

    def _bounds(self, k, target, condition=None):
        w = self.workdir
        argv = ["bounds", "--input", str(w / f"simple{k}.rho.csv"),
                "--universe", str(w / "simple.universe.json"),
                "--budgets", str(w / "simple.budgets.csv"),
                "--new-budget", NEW_BUDGET, "--g", str(w / f"g{k}.csv"),
                "--target", str(target)]
        if condition:
            argv += ["--condition", condition]
        return lambda: gate_bounds(*call_cli(argv))

    def pass_ops(self, index: int):
        ops = []
        for k, condition in enumerate(self.mixtures):
            # revealed path dominance tests constant utility, which mixtures
            # of dynamic types need not satisfy: its verdict is not pinned
            ops += [Op("check-simple", self._check("simple", f"simple{k}.rho.csv",
                                                   SIMPLE_CHECKS, True, ungated=("sarpd",))),
                    Op("bounds", self._bounds(k, 1)),
                    Op("bounds", self._bounds(k, 2)),
                    Op("bounds-condition", self._bounds(k, 1, condition)),
                    Op("bounds-condition", self._bounds(k, 2, condition)),
                    Op("check-binary", self._check("binary", f"binary{k}.rho.csv",
                                                   BINARY_CHECKS, True)),
                    # dmono rejects some demand3x3 mixtures of the published
                    # 25 types: a program defect, reported, see NOTES.md
                    Op("check-demand3x3", self._check("d3", f"d3{k}.rho.csv",
                                                      DEMAND3X3_CHECKS, True,
                                                      known_defects=("dmono",)))]
        ops += [Op("check-table5", self._check("simple", "table5.rho.csv",
                                               "stability,dmono", False)),
                Op("check-table9", self._check("simple", "table9.rho.csv",
                                               "stability,dmono", False))]
        return ops


WORKLOADS = {w.name: w for w in (McTable, AppTest, CheckBounds)}
