"""Command-line interface.

Subcommands: matrices, check, test, bounds, simulate, experiment. Exit
codes: 0 completed (and ``--help``), 2 model rejected (check/test/bounds),
1 any error, a usage error and a solver failure included. An error prints its exception class, message
and diagnostics, and a usage error the usage line too; ``--debug`` raises
it with its traceback instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import catalog, io
from .checks import (bm_extension_feasible, check_H, check_d_monotonicity, check_sarpd,
                     check_stability, cone_membership, hierarchy_feasible)
from .counterfactuals import CounterfactualProblem, bound_functional, kron_counterfactual_cone
from .errors import DrumError, ModelRejectedError, SchemaError, UsageError
from .geometry import Budget, demand_geometry
from .inference import TestConfig, run_test, run_test_eu
from .model import estimate_rho
from .representations import catalog_H, static_type_matrix, type_matrix
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

    def _get_values(self, action, arg_strings):
        # argparse drops "--" given as an option's one value (``--seed=--``)
        # and stores [] untyped; type it like any other value instead
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


_DGPS = {
    "dgp1": DgpSpec("cobb-douglas-walk"),
    "dgp2": DgpSpec("cobb-douglas-gaussian-copula"),
    "binary1": DgpSpec("binary1"),
    "binary2": DgpSpec("binary2"),
    "binary3": DgpSpec("binary3"),
}


def _dgp_list(value):
    """The generators of a comma list of ``_DGPS`` names."""
    names = [name.strip() for name in value.split(",")]
    unknown = [name for name in names if name not in _DGPS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown generator {unknown[0]!r}; the names are "
                                         + ", ".join(_DGPS))
    return [_DGPS[name] for name in names]


_CHECKS = ("stability", "dmono", "hrep", "cone", "bm", "hierarchy", "sarpd")


def _check_list(value):
    """The names of a comma list of ``_CHECKS``, at least one."""
    names = [name.strip() for name in value.split(",") if name.strip()]
    unknown = [name for name in names if name not in _CHECKS]
    if unknown or not names:
        what = f"unknown check {unknown[0]!r}" if unknown else "no check named"
        raise argparse.ArgumentTypeError(f"{what}; the names are " + ", ".join(_CHECKS))
    return names


def _price_vectors(value):
    """The price vectors of a semicolon list of comma lists of numbers,
    e.g. '2,1;1,2'."""
    try:
        return [tuple(Fraction(v) for v in part.split(",")) for part in value.split(";")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{value!r} is not a semicolon list of price "
                                         "vectors such as '2,1;1,2'") from None


def _condition(value):
    """The (menu path, choice path) of 'menu_path:choice_path', each a
    '|' list of integers, e.g. '1|2:1|2'."""
    try:
        mp, cp = value.split(":")
        return tuple(int(v) for v in mp.split("|")), tuple(int(v) for v in cp.split("|"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not 'menu_path:choice_path' with "
                                         "'|' lists of integers, such as '1|2:1|2'") from None


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
    c.add_argument("--checks", default="stability,dmono,cone", type=_check_list,
                   help="comma list: " + ",".join(_CHECKS))
    c.add_argument("--report", default=None)
    _add_common(c, "tolerance")

    t = sub.add_parser("test", help="bootstrap cone-projection test")
    t.add_argument("--panel", required=True)
    t.add_argument("--universe", required=True)
    # the EU test's types are rankings of the lotteries: it reads no budgets
    types = t.add_mutually_exclusive_group()
    types.add_argument("--budgets", default=None)
    types.add_argument("--eu", default=None, help="lotteries.csv for the EU-restricted test")
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--reps", type=int, default=999)
    t.add_argument("--report", default=None)
    _add_common(t, "seed", "threads")

    b = sub.add_parser("bounds", help="counterfactual bounds for one extra period")
    b.add_argument("--input", required=True, help="rho.csv")
    b.add_argument("--universe", required=True)
    b.add_argument("--budgets", required=True)
    b.add_argument("--new-budget", required=True, type=_price_vectors,
                   help="semicolon-separated price vectors, e.g. '2,1;1,2'")
    b.add_argument("--g", required=True, help="g.csv with per-patch bounds")
    b.add_argument("--condition", default=None, type=_condition,
                   help="'menu_path:choice_path' e.g. '1|2:1|2'")
    b.add_argument("--target", type=int, default=None)
    _add_common(b, "out")

    s = sub.add_parser("simulate", help="draw a synthetic panel")
    s.add_argument("--dgp", required=True, choices=list(_DGPS))
    s.add_argument("--n", type=int, required=True, help="agents per menu path")
    _add_common(s, "seed", "out")

    e = sub.add_parser("experiment", help="rejection-rate table over DGPs and sizes")
    e.add_argument("--dgps", required=True, type=_dgp_list,
                   help="comma list of dgp1,dgp2,binary1..binary3")
    e.add_argument("--Ns", required=True, help="comma list of sample sizes")
    e.add_argument("--sims", type=int, default=1000)
    e.add_argument("--reps", type=int, default=999)
    e.add_argument("--alpha", type=float, default=0.05)
    _add_common(e, "seed", "threads", "out")
    # the subcommand parsers by name, for a usage error found after parsing
    ap.commands = sub.choices
    return ap


@lru_cache(maxsize=1)
def _parser():
    """The parser ``main`` uses, built once per process; parsing leaves it
    unchanged, so calls cannot leak options into each other."""
    return build_parser()


def _cmd_matrices(args) -> int:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    periods = tuple(range(1, args.T + 1))
    if args.geometry == "binary3":
        uni = catalog.binary_universe(periods=periods)
        geometry = patches = None
        kind = "binary"
    else:
        budgets = (catalog.simple_budgets if args.geometry == "simple"
                   else catalog.demand3x3_budgets)(periods)
        geometry = demand_geometry(budgets, periods)
        uni, patches = geometry.universe, geometry.patches
        kind = args.geometry
    static = static_type_matrix(uni, uni.periods[0], patches)
    H = catalog_H(kind, uni, uni.periods[0])
    io.export_matrix(static.dense(), static.row_labels, static.col_labels,
                     out / f"A_static_{args.geometry}")
    A_T = type_matrix(uni, itertools.product(*map(uni.menu_indices, uni.periods)), geometry)
    io.export_matrix(A_T.dense(), A_T.row_labels, A_T.col_labels,
                     out / f"A_dynamic_{args.geometry}_T{args.T}")
    io.export_matrix(H.full(), [f"row{k}" for k in range(len(H.full()))], H.col_labels,
                     out / f"H_{args.geometry}")
    io.write_universe(uni, out / f"universe_{args.geometry}.json")
    print(f"wrote matrices for {args.geometry} (T={args.T}) to {out}")
    return 0


def _budget_geometry(path, universe):
    """The geometry of the budgets file at ``path`` on the universe's periods
    that it has, checked against the universe; None without a file. A
    budgets period the universe lacks is a SchemaError."""
    if not path:
        return None
    budgets = io.read_budgets(path)
    for t in budgets:
        if t not in universe.periods:
            raise SchemaError(f"budgets period {t} is not a period of the universe")
    geometry = demand_geometry(budgets, tuple(t for t in universe.periods if t in budgets))
    geometry.check_universe(universe)
    return geometry


@lru_cache(maxsize=16)
def _catalog_system(universe):
    """Each period's published facet table (``catalog_H`` of its
    ``_catalog_kind``), or None when a period has none; found once per
    universe."""
    kinds = [_catalog_kind(universe, t) for t in universe.periods]
    if None in kinds:
        return None
    return tuple(catalog_H(k, universe, t) for k, t in zip(kinds, universe.periods))


def _catalog_kind(universe, t):
    """The published facet table of period ``t``: ``binary`` on all pairs of
    at most five alternatives, ``simple``/``demand3x3`` on the menus and
    primitive order of that catalog's ``demand_geometry``."""
    menus = universe.menus[t]
    if all(m.size == 2 for m in menus) and len(universe.alternatives[t]) <= 5 \
            and len(menus) == len(universe.alternatives[t]) * (len(universe.alternatives[t]) - 1) // 2:
        return "binary"
    for kind, budgets in (("simple", catalog.simple_budgets),
                          ("demand3x3", catalog.demand3x3_budgets)):
        published = demand_geometry(budgets((t,)), (t,)).universe
        if published.menus[t] == menus and \
                set(published.primitive_order[t]) == set(universe.primitive_order.get(t, ())):
            return kind
    return None


def _cmd_check(args) -> int:
    if "sarpd" in args.checks and args.budgets is None:
        raise UsageError("argument --checks: sarpd needs --budgets",
                         _parser().commands["check"].format_usage().strip())
    uni = io.read_universe(args.universe)
    rho = io.read_rho(args.input, uni)
    geometry = _budget_geometry(args.budgets, uni)
    reports = {}
    if {"hrep", "hierarchy"} & set(args.checks):
        H_list = _catalog_system(uni)
        if H_list is None:
            raise DrumError("no catalog H-matrix matches this geometry; "
                            "use the library convert_V_to_H")
    for name in args.checks:
        if name == "stability":
            reports[name] = check_stability(rho, tol=args.tolerance)
        elif name == "dmono":
            # demand patch labels are (budget, index) pairs, which is the
            # replacement-pair format the check expects
            pairs = None if geometry is None else geometry.dominance
            report = check_d_monotonicity(rho, dominance=pairs, tol=args.tolerance)
            if geometry is not None:
                report = replace(report, diagnostics={**report.diagnostics,
                                                      "geometry_warnings": geometry.warnings})
            reports[name] = report
        elif name == "hrep":
            reports[name] = check_H(rho, H_list, tol=args.tolerance)
        elif name == "cone":
            _, _, rep = cone_membership(rho, type_matrix(uni, rho.observed_paths, geometry))
            reports[name] = rep
        elif name == "bm":
            _, _, rep = bm_extension_feasible(rho)
            reports[name] = rep
        elif name == "hierarchy":
            k_vec = (1,) + (2,) * (uni.num_periods - 1)
            _, _, rep = hierarchy_feasible(rho, H_list, k_vec)
            reports[name] = rep
        else:  # sarpd
            reports[name] = check_sarpd(rho, geometry, tol=args.tolerance)
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
        geometry = _budget_geometry(args.budgets, uni)
        report = run_test(rho, type_matrix(uni, rho.observed_paths, geometry), config)
    text = json.dumps(report.to_dict(), indent=1)
    if args.report:
        Path(args.report).write_text(text)
    print(text)
    return 2 if report.reject else 0


def _cmd_bounds(args) -> int:
    uni = io.read_universe(args.universe)
    rho = io.read_rho(args.input, uni)
    budgets = io.read_budgets(args.budgets)
    new_budgets = [Budget("next", j + 1, pv, Fraction(1))
                   for j, pv in enumerate(args.new_budget)]
    g_lower, g_upper = io.read_g(args.g)
    problem = CounterfactualProblem(rho, budgets, new_budgets, g_lower, g_upper,
                                    target_budget=args.target, condition=args.condition)
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
    Ns = [int(v) for v in args.Ns.split(",")]
    report = run_experiment(args.dgps, Ns, sims=args.sims, reps=args.reps,
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
