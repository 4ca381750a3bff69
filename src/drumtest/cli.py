"""Command-line interface.

Subcommands: matrices, check, test, bounds, simulate, experiment. Exit
codes: 0 completed (and ``--help``), 2 model rejected (check/test), 1 any
error, a usage error included. An error prints its exception class, message
and diagnostics, and a usage error the usage line too; ``--debug`` raises
it with its traceback instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import catalog, io
from .checks import (bm_extension_feasible, check_H, check_d_monotonicity, check_sarpd,
                     check_stability, cone_membership, hierarchy_feasible)
from .counterfactuals import CounterfactualProblem, bound_functional, kron_counterfactual_cone
from .errors import DrumError, ModelRejectedError, UsageError
from .geometry import Budget, compute_patches, demand_universe
from .inference import TestConfig, run_test, run_test_eu
from .model import estimate_rho
from .representations import catalog_H, kron_dynamic, static_type_matrix
from .simulate import DgpSpec, run_experiment, simulate


def _load_config(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_SHARED = {"seed": {"type": int, "default": 0},
           "threads": {"type": int, "default": 1, "help": "worker processes over the sims "
                       "(experiment); does nothing for test"},
           "tolerance": {"type": float, "default": 1e-9},
           "out": {"default": None}}


def _add_common(p, *shared):
    """The named options of ``_SHARED`` that the subcommand reads, then
    ``--config`` and ``--debug``."""
    for name in shared:
        p.add_argument(f"--{name}", **_SHARED[name])
    p.add_argument("--config", default=None, help="key=value file merged into options")
    p.add_argument("--debug", action="store_true",
                   help="raise errors with their traceback instead of exiting")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose parse failures raise ``UsageError`` instead
    of exiting 2, so that ``main`` reports them as errors (exit 1); its
    subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(message, self.format_usage().strip())


def build_parser():
    ap = _Parser(prog="drum", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("matrices", help="emit catalog type and facet matrices")
    m.add_argument("--geometry", choices=["simple", "binary3", "demand3x3"], required=True)
    m.add_argument("--T", type=int, default=1)
    _add_common(m, "out")

    c = sub.add_parser("check", help="deterministic consistency checks")
    c.add_argument("--input", required=True, help="rho.csv")
    c.add_argument("--universe", required=True, help="universe.json")
    c.add_argument("--budgets", default=None)
    c.add_argument("--checks", default="stability,dmono,cone",
                   help="comma list: stability,dmono,hrep,cone,bm,hierarchy,sarpd")
    c.add_argument("--report", default=None)
    _add_common(c, "tolerance")

    t = sub.add_parser("test", help="bootstrap cone-projection test")
    t.add_argument("--panel", required=True)
    t.add_argument("--universe", required=True)
    t.add_argument("--budgets", default=None)
    t.add_argument("--eu", default=None, help="lotteries.csv for the EU-restricted test")
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--reps", type=int, default=999)
    t.add_argument("--report", default=None)
    _add_common(t, "seed", "threads")

    b = sub.add_parser("bounds", help="counterfactual bounds for one extra period")
    b.add_argument("--input", required=True, help="rho.csv")
    b.add_argument("--universe", required=True)
    b.add_argument("--budgets", required=True)
    b.add_argument("--new-budget", required=True,
                   help="semicolon-separated price vectors, e.g. '2,1;1,2'")
    b.add_argument("--g", required=True, help="g.csv with per-patch bounds")
    b.add_argument("--condition", default=None, help="'menu_path:choice_path' e.g. '1|2:1|2'")
    b.add_argument("--target", type=int, default=None)
    _add_common(b, "out")

    s = sub.add_parser("simulate", help="draw a synthetic panel")
    s.add_argument("--dgp", required=True,
                   choices=["dgp1", "dgp2", "binary1", "binary2", "binary3"])
    s.add_argument("--n", type=int, required=True, help="agents per menu path")
    _add_common(s, "seed", "out")

    e = sub.add_parser("experiment", help="rejection-rate table over DGPs and sizes")
    e.add_argument("--dgps", required=True, help="comma list of dgp1,dgp2,binary1..binary3")
    e.add_argument("--Ns", required=True, help="comma list of sample sizes")
    e.add_argument("--sims", type=int, default=1000)
    e.add_argument("--reps", type=int, default=999)
    e.add_argument("--alpha", type=float, default=0.05)
    _add_common(e, "seed", "threads", "out")
    return ap


@lru_cache(maxsize=1)
def _parser():
    """The parser ``main`` uses, built once per process; parsing leaves it
    unchanged, so calls cannot leak options into each other."""
    return build_parser()


_DGPS = {
    "dgp1": DgpSpec("cobb-douglas-walk"),
    "dgp2": DgpSpec("cobb-douglas-gaussian-copula"),
    "binary1": DgpSpec("binary1"),
    "binary2": DgpSpec("binary2"),
    "binary3": DgpSpec("binary3"),
}


def _cmd_matrices(args) -> int:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    periods = tuple(range(1, args.T + 1))
    if args.geometry == "binary3":
        uni = catalog.binary_universe(periods=periods)
        patches = None
        kind = "binary"
    else:
        budgets = (catalog.simple_budgets if args.geometry == "simple"
                   else catalog.demand3x3_budgets)(periods)
        uni, patches, _ = demand_universe(budgets, periods)
        kind = args.geometry
    statics = [static_type_matrix(uni, t, patches) for t in uni.periods]
    H = catalog_H(kind, uni, uni.periods[0])
    io.export_matrix(statics[0].dense(), statics[0].row_labels, statics[0].col_labels,
                     out / f"A_static_{args.geometry}")
    paths = sorted(itertools.product(*[uni.menu_indices(t) for t in uni.periods]))
    A_T = kron_dynamic(statics, paths, uni)
    io.export_matrix(A_T.dense(), A_T.row_labels, A_T.col_labels,
                     out / f"A_dynamic_{args.geometry}_T{args.T}")
    io.export_matrix(H.full(), [f"row{k}" for k in range(len(H.full()))], H.col_labels,
                     out / f"H_{args.geometry}")
    io.write_universe(uni, out / f"universe_{args.geometry}.json")
    print(f"wrote matrices for {args.geometry} (T={args.T}) to {out}")
    return 0


def _demand_geometry(universe, budgets):
    """Patches, per-period dominance and the distinct warnings of the
    geometry, rebuilt from the budgets and numbered by ``compute_patches``'s
    rule, as ``demand_universe`` and ``drum matrices`` number them. The
    warnings are raised again as well."""
    patches, dominance = {}, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for t, blist in budgets.items():
            patches[t], dominance[t] = compute_patches(blist)
            labels = {p.label for p in patches[t] if not p.is_intersection}
            if set(universe.alternatives[t]) != labels:
                raise DrumError(f"period {t}: budget patches do not match the universe; "
                                "rebuild universe.json from these budgets")
    distinct = {}
    for w in caught:
        distinct.setdefault(str(w.message), w.message)
    for message in distinct.values():
        warnings.warn(message, stacklevel=2)
    return patches, dominance, tuple(distinct)


def _catalog_kind(universe, t):
    """The published facet table of period ``t``: ``binary`` on all pairs of
    at most five alternatives, ``simple``/``demand3x3`` on the menus and
    primitive order ``demand_universe`` builds from that catalog's budgets."""
    menus = universe.menus[t]
    if all(m.size == 2 for m in menus) and len(universe.alternatives[t]) <= 5 \
            and len(menus) == len(universe.alternatives[t]) * (len(universe.alternatives[t]) - 1) // 2:
        return "binary"
    for kind, budgets in (("simple", catalog.simple_budgets),
                          ("demand3x3", catalog.demand3x3_budgets)):
        published, _, _ = demand_universe(budgets((t,)), (t,))
        if published.menus[t] == menus and \
                set(published.primitive_order[t]) == set(universe.primitive_order.get(t, ())):
            return kind
    return None


def _cmd_check(args) -> int:
    uni = io.read_universe(args.universe)
    rho = io.read_rho(args.input, uni)
    budgets = io.read_budgets(args.budgets) if args.budgets else None
    wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
    reports = {}
    patches = dominance = None
    if budgets:
        patches, dominance, geometry_warnings = _demand_geometry(uni, budgets)
    if {"hrep", "hierarchy"} & set(wanted):
        kinds = [_catalog_kind(uni, t) for t in uni.periods]
        if None in kinds:
            raise DrumError("no catalog H-matrix matches this geometry; "
                            "use the library convert_V_to_H")
        H_list = [catalog_H(k, uni, t) for k, t in zip(kinds, uni.periods)]
    for name in wanted:
        if name == "stability":
            reports[name] = check_stability(rho, tol=args.tolerance)
        elif name == "dmono":
            # demand patch labels are (budget, index) pairs, which is the
            # replacement-pair format the check expects
            pairs = dict(dominance) if dominance is not None else None
            report = check_d_monotonicity(rho, dominance=pairs, tol=args.tolerance)
            if budgets:
                report = replace(report, diagnostics={**report.diagnostics,
                                                      "geometry_warnings": geometry_warnings})
            reports[name] = report
        elif name == "hrep":
            reports[name] = check_H(rho, H_list, tol=args.tolerance)
        elif name == "cone":
            statics = [static_type_matrix(uni, t, patches) for t in uni.periods]
            _, _, rep = cone_membership(rho, kron_dynamic(statics, rho.observed_paths, uni))
            reports[name] = rep
        elif name == "bm":
            _, _, rep = bm_extension_feasible(rho)
            reports[name] = rep
        elif name == "hierarchy":
            k_vec = (1,) + (2,) * (uni.num_periods - 1)
            _, _, rep = hierarchy_feasible(rho, H_list, k_vec)
            reports[name] = rep
        elif name == "sarpd":
            if not budgets:
                raise DrumError("sarpd needs --budgets")
            reports[name] = check_sarpd(rho, budgets, patches, tol=args.tolerance)
        else:
            raise DrumError(f"unknown check {name!r}")
    doc = {k: v.to_dict() for k, v in reports.items()}
    text = json.dumps(doc, indent=1)
    if args.report:
        Path(args.report).write_text(text)
    print(text)
    return 0 if all(v.passed for v in reports.values()) else 2


def _cmd_test(args) -> int:
    uni = io.read_universe(args.universe)
    panel = io.read_panel(args.panel)
    rho = estimate_rho(panel, uni)
    config = TestConfig(reps=args.reps, alpha=args.alpha, seed=args.seed)
    if args.eu:
        lotteries = io.read_lotteries(args.eu)
        report = run_test_eu(rho, lotteries, config)
    else:
        budgets = io.read_budgets(args.budgets) if args.budgets else None
        patches = _demand_geometry(uni, budgets)[0] if budgets else None
        statics = [static_type_matrix(uni, t, patches) for t in uni.periods]
        report = run_test(rho, kron_dynamic(statics, rho.observed_paths, uni), config)
    text = json.dumps(report.to_dict(), indent=1)
    if args.report:
        Path(args.report).write_text(text)
    print(text)
    return 2 if report.reject else 0


def _cmd_bounds(args) -> int:
    uni = io.read_universe(args.universe)
    rho = io.read_rho(args.input, uni)
    budgets = io.read_budgets(args.budgets)
    price_vecs = [tuple(Fraction(v) for v in part.split(","))
                  for part in args.new_budget.split(";")]
    new_budgets = [Budget("next", j + 1, pv, Fraction(1)) for j, pv in enumerate(price_vecs)]
    g_lower, g_upper = io.read_g(args.g)
    condition = None
    if args.condition:
        mp, cp = args.condition.split(":")
        condition = (tuple(int(v) for v in mp.split("|")),
                     tuple(int(v) for v in cp.split("|")))
    problem = CounterfactualProblem(rho, budgets, new_budgets, g_lower, g_upper,
                                    target_budget=args.target, condition=condition)
    report = bound_functional(problem)
    cross = kron_counterfactual_cone(problem)
    doc = {"lower": report.lower, "upper": report.upper,
           "cross_check_lower": cross.lower, "cross_check_upper": cross.upper,
           "diagnostics": report.diagnostics, "cross_check_diagnostics": cross.diagnostics}
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_simulate(args) -> int:
    dgp = _DGPS[args.dgp]
    panel, uni = simulate(dgp, args.n, seed=args.seed)
    out = Path(args.out or f"panel_{args.dgp}.csv")
    io.write_panel(panel, uni, out)
    io.write_universe(uni, out.with_suffix(".universe.json"))
    print(f"wrote {out} and {out.with_suffix('.universe.json')}")
    return 0


def _cmd_experiment(args) -> int:
    dgps = [_DGPS[d.strip()] for d in args.dgps.split(",")]
    Ns = [int(v) for v in args.Ns.split(",")]
    report = run_experiment(dgps, Ns, sims=args.sims, reps=args.reps,
                            seed=args.seed, alpha=args.alpha, n_jobs=args.threads)
    print(report.to_text())
    if args.out:
        from .plots import rejection_rate_svg
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "experiment.csv").write_text(report.to_csv())
        (out / "experiment.txt").write_text(report.to_text())
        (out / "experiment.svg").write_text(rejection_rate_svg(report.entries))
    return 0


def _with_config(ap, argv, args):
    """``argv`` parsed again with the ``--config`` file's options put right
    after the subcommand, ahead of its flags: a flag beats the file, the
    file beats the default, and the parser types each file value as it
    types its flag's. A switch (a ``store_true`` option) reads ``true`` or
    ``false``; keys that name no option of the subcommand are ignored."""
    options = []
    for key, value in _load_config(args.config).items():
        if key in ("command", "config") or not hasattr(args, key):
            continue
        flag = "--" + key.replace("_", "-")
        if not isinstance(getattr(args, key), bool):
            options.append(f"{flag}={value}")
        elif value == "true":
            options.append(flag)
    at = argv.index(args.command) + 1
    return ap.parse_args(argv[:at] + options + argv[at:])


def main(argv=None) -> int:
    ap = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    handlers = {"matrices": _cmd_matrices, "check": _cmd_check, "test": _cmd_test,
                "bounds": _cmd_bounds, "simulate": _cmd_simulate,
                "experiment": _cmd_experiment}
    # a command line that does not parse has no args to ask
    debug = "--debug" in argv
    try:
        args = ap.parse_args(argv)
        debug = args.debug
        if args.config:
            args = _with_config(ap, argv, args)
            debug = args.debug
        return handlers[args.command](args)
    except ModelRejectedError as exc:
        if debug:
            raise
        print(f"model rejected: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # usage, input, schema, or solver failure: exit 1
        if debug:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if getattr(exc, "diagnostics", None):
            print("diagnostics: " + json.dumps(exc.diagnostics, default=str), file=sys.stderr)
        if isinstance(exc, UsageError):
            print(exc.usage, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
