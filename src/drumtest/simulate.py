"""Monte Carlo data generators and the experiment runner.

Demand generators draw Cobb-Douglas share parameters (a persistent clipped
walk or a Gaussian-copula pair), solve demand in closed form, and classify
it into patches. Binary-menu generators compose published per-menu
marginals independently across periods. Every simulated agent faces one
menu path; each observed menu path receives the same number of agents, as
in the experimental designs the generators mimic.

``draw_choices`` makes a generator's draws: each agent's menus and 0-based
choice positions. ``simulate`` assembles them into a panel. A Monte Carlo
sim (``run_experiment``) builds no panel: it draws, tallies the draws with
``model.tally_rho`` and tests.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import catalog
from .errors import GeometryError, ParameterError
from .geometry import ABOVE, demand_universe
from .inference import TestConfig, run_test
from .model import PanelDataset, tally_rho
from .representations import kron_dynamic, static_type_matrix

BINARY_MARGINALS = {
    "binary1": np.array([1, 4, 4, 1, 1, 4]) / 5.0,
    "binary2": np.array([1 / 5, 4 / 5, 1 / 2, 1 / 2, 1 / 5, 4 / 5]),
    "binary3": np.array([1, 3, 2, 2, 1, 3]) / 4.0,
}


@dataclass(frozen=True)
class DgpSpec:
    """A named data-generating process with its parameters.

    Kinds: ``cobb-douglas-walk`` (persistence 0.9, innovation sd 5, clipped
    to [0,1]), ``cobb-douglas-gaussian-copula`` (correlation 0.5, arctan
    link), ``binary1``/``binary2``/``binary3`` (published binary-menu
    marginals over three periods), and ``order-mixture`` (weights over
    ranking profiles on a supplied universe).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def periods(self):
        if self.kind.startswith("cobb"):
            return (1, 2)
        if self.kind.startswith("binary"):
            return (1, 2, 3)
        return tuple(self.params["universe"].periods)


def build_universe(dgp: DgpSpec):
    """Universe (and budgets where applicable) the generator samples on."""
    if dgp.kind.startswith(("cobb", "binary")):
        universe, budgets, *_ = _catalog_structure(dgp.kind)
        return universe, budgets
    if dgp.kind == "order-mixture":
        return dgp.params["universe"], None
    raise ParameterError(f"unknown DGP kind {dgp.kind!r}")


@lru_cache(maxsize=16)
def _catalog_structure(kind: str):
    """(universe, budgets, demand patches by period, type matrix, demand
    classification tables) of a catalog generator, ``cobb*`` or
    ``binary*``, built once per kind and process; a binary generator has no
    budgets, patches or tables. None of it depends on the generator's
    params, which only shape its draws. Every caller shares these objects,
    and nothing writes to them: the universe is a frozen value of tuples,
    budgets and patches are frozen, and the arrays of the type matrix and
    the tables are made read-only here (the matrix's range basis, built on
    the first test, is read-only too)."""
    dgp = DgpSpec(kind)
    if kind.startswith("cobb"):
        budgets = catalog.simple_budgets(dgp.periods())
        universe, patches, _ = demand_universe(budgets, dgp.periods())
        tables = _demand_tables(universe, budgets, patches)
    else:
        budgets = patches = tables = None
        universe = catalog.binary_universe(("l1", "l2", "l3"), dgp.periods())
    statics = [static_type_matrix(universe, t, patches) for t in universe.periods]
    A = kron_dynamic(statics, observed_menu_paths(dgp, universe), universe)
    A.matrix.setflags(write=False)
    return universe, budgets, patches, A, tables


def _demand_tables(universe, budgets, patches_by_period):
    """Per period, one ``(budget index, prices, expenditure, others,
    position)`` tuple per budget: ``others`` holds the (prices, expenditure)
    of the period's other budgets, and ``position[code]`` is the 0-based
    menu position of the budget's open patch whose sign vector has bit b of
    ``code`` set exactly when the patch lies above ``others[b]``, or -1 when
    no open patch has that sign vector; ``patches_by_period`` are numbered
    as the universe's."""
    tables = {}
    for t in universe.periods:
        rows = []
        for budget in budgets[t]:
            others = [b for b in budgets[t] if b.index != budget.index]
            menu = universe.menu(t, budget.index)
            position = np.full(1 << len(others), -1, dtype=np.intp)
            for pt in patches_by_period[t]:
                if pt.budget == budget.index and not pt.is_intersection:
                    code = sum(1 << b for b, o in enumerate(others)
                               if pt.sign_vector[o.index] == ABOVE)
                    position[code] = menu.position(pt.label) - 1
            prices = budget.p()
            other_prices = tuple((o.p(), o.w()) for o in others)
            for array in (position, prices, *(p for p, _ in other_prices)):
                array.setflags(write=False)
            rows.append((budget.index, prices, budget.w(), other_prices, position))
        tables[t] = tuple(rows)
    return tables


def observed_menu_paths(dgp: DgpSpec, universe):
    if dgp.kind.startswith("cobb"):
        return sorted(itertools.product(*[universe.menu_indices(t)
                                          for t in universe.periods]))
    if dgp.kind.startswith("binary"):
        return sorted(itertools.permutations(universe.menu_indices(universe.periods[0])))
    paths = dgp.params.get("menu_paths")
    if paths is None:
        raise ParameterError("order-mixture needs explicit menu paths")
    return sorted(tuple(p) for p in paths)


def draw_choices(dgp: DgpSpec, agents_per_path: int, seed):
    """The generator's draws for ``agents_per_path`` agents on every observed
    menu path, agents in path order: (menus, positions, quantity), with
    ``menus`` each agent's menu ids and ``positions`` the 0-based positions
    of its choices in them, both (agents, periods), and ``quantity`` the
    demand points, (agents, periods, 2), or None for a generator without
    them. Budget indices double as menu ids; a demand choice is the open
    patch whose sign vector against the period's other budgets matches the
    demand point.

    Raises ParameterError when ``agents_per_path`` is below 1, the kind is
    unknown or a copula correlation lies outside [-1, 1].
    """
    if agents_per_path < 1:
        raise ParameterError(f"agents per menu path must be at least 1, got {agents_per_path}")
    rng = np.random.default_rng(seed)
    universe, budgets = build_universe(dgp)
    paths = observed_menu_paths(dgp, universe)
    T = universe.num_periods
    menus = np.repeat(np.array(paths, dtype=np.int64).reshape(-1, T), agents_per_path, axis=0)
    quantity = None
    if dgp.kind.startswith("cobb"):
        shares = _draw_shares(dgp, rng, len(paths), agents_per_path)
        positions, quantity = _demand_choices(universe, _catalog_structure(dgp.kind)[4],
                                              menus, shares)
    elif dgp.kind.startswith("binary"):
        marg = dgp.params.get("marginals")
        if marg is None:
            marg = BINARY_MARGINALS[dgp.kind]
        marg = np.asarray(marg, dtype=float)
        # probability of the first item, by menu id
        first = np.zeros(max(universe.menu_indices(universe.periods[0])) + 1)
        for j in universe.menu_indices(universe.periods[0]):
            first[j] = marg[2 * (j - 1)]
        u = rng.uniform(size=menus.shape)
        positions = (u >= first[menus]).astype(np.intp)
    else:
        profiles = dgp.params["profiles"]
        weights = np.asarray(dgp.params["weights"], dtype=float)
        weights = weights / weights.sum()
        draws = rng.choice(len(profiles), size=len(menus), p=weights)
        positions = np.empty(menus.shape, dtype=np.intp)
        for k, t in enumerate(universe.periods):
            for menu in universe.menus[t]:
                rows = menus[:, k] == menu.index
                positions[rows, k] = _best_positions(menu, [p[k] for p in profiles])[draws[rows]]
    return menus, positions, quantity


def simulate(dgp: DgpSpec, agents_per_path: int, seed: int = 0):
    """Draw a panel with ``agents_per_path`` agents on every menu path.

    Returns (panel, universe): ``draw_choices``'s draws as records. Agents
    are numbered from 1 in path order and the panel runs agent by agent,
    period by period.
    """
    menus, positions, quantity = draw_choices(dgp, agents_per_path, seed)
    universe, _ = build_universe(dgp)
    n, T = menus.shape
    choice, choice_ids = _chosen_items(universe, menus, positions)
    panel = PanelDataset.from_columns(
        np.repeat(np.arange(1, n + 1), T), np.tile(np.asarray(universe.periods), n),
        menus.reshape(-1), choice.reshape(-1),
        None if quantity is None else quantity.reshape(n * T, -1), choice_ids=choice_ids)
    return panel, universe


def _draw_shares(dgp: DgpSpec, rng, n_paths: int, agents_per_path: int) -> np.ndarray:
    """Cobb-Douglas share of the first good, (agents, 2), agents in path order.

    The walk draws every agent's first-period share as one array of
    uniforms, then every agent's innovation as one array of standard
    normals: agent i takes the i-th of each. ``random`` draws the doubles
    of ``uniform(0, 1)`` and 0 + sd z is ``normal(0, sd)``'s arithmetic.

    The copula draws every agent's two standard normals as one array and
    maps each path's rows through the covariance factor ``(u sqrt(s))ᵀ`` of
    one SVD, with one matmul per path: the stream and arithmetic of one
    ``multivariate_normal(0, cov, size=agents_per_path)`` per path."""
    if dgp.kind == "cobb-douglas-walk":
        persistence = dgp.params.get("persistence", 0.9)
        sd = dgp.params.get("innovation_sd", 5.0)
        n = n_paths * agents_per_path
        first = rng.random(n)
        z = rng.standard_normal(n)
        return np.column_stack([first, np.clip(persistence * first + (0.0 + sd * z), 0.0, 1.0)])
    corr = dgp.params.get("correlation", 0.5)
    if not -1.0 <= corr <= 1.0:
        raise ParameterError(f"copula correlation must lie in [-1, 1], got {corr}")
    u, s, _ = np.linalg.svd(np.array([[1.0, corr], [corr, 1.0]]))
    factor = (u * np.sqrt(s)).T
    z = rng.standard_normal((n_paths, agents_per_path, 2))
    # one matmul per path: a one-row product can differ in the last bit
    # from the same row inside a larger one
    eps = np.concatenate([block @ factor for block in z])
    return np.arctan(eps) / np.pi + 0.5


def _demand_choices(universe, tables, menus, shares):
    """(positions, quantity): the 0-based patch position in its menu of each
    agent's demand point per period, and the points, (agents, periods, 2);
    ``tables`` are the generator's ``_demand_tables``.

    A point lying exactly on another budget line (probability zero) counts
    as below it.
    """
    positions = np.empty(menus.shape, dtype=np.intp)
    quantity = np.empty(menus.shape + (2,))
    for k, t in enumerate(universe.periods):
        for index, p, w, others, position in tables[t]:
            rows = menus[:, k] == index
            a = shares[rows, k]
            y = np.column_stack([a * w / p[0], (1 - a) * w / p[1]])
            code = np.zeros(len(y), dtype=np.intp)
            for b, (op, ow) in enumerate(others):
                code |= (y @ op > ow).astype(np.intp) << b
            pos = position[code]
            if (pos < 0).any():
                raise GeometryError(f"a demand point on budget {index} matches no patch")
            positions[rows, k] = pos
            quantity[rows, k] = y
    return positions, quantity


def _best_positions(menu, rankings) -> np.ndarray:
    """0-based position in ``menu`` of the best item under each ranking."""
    best = []
    for ranking in rankings:
        pos_of = {a: r for r, a in enumerate(ranking)}
        best.append(min(range(menu.size), key=lambda i: pos_of[menu.items[i]]))
    return np.array(best, dtype=np.intp)


def _chosen_items(universe, menus, positions):
    """(codes, ids): chosen items (agents, periods) as codes into the
    universe's item ids, from menu ids and 0-based positions."""
    ids = tuple(dict.fromkeys(item for t in universe.periods for menu in universe.menus[t]
                              for item in menu.items))
    code_of = {item: c for c, item in enumerate(ids)}
    out = np.empty(menus.shape, dtype=np.intp)
    for k, t in enumerate(universe.periods):
        for menu in universe.menus[t]:
            rows = menus[:, k] == menu.index
            out[rows, k] = np.array([code_of[i] for i in menu.items])[positions[rows, k]]
    return out, ids


def type_matrix_for(dgp: DgpSpec, universe):
    """Restricted type matrix matching the generator's observed paths; a
    demand generator's periods take the demand types of its own patches.
    On its own universe a catalog generator's matrix is the one shared
    ``_catalog_structure`` built."""
    patches = None
    if dgp.kind.startswith(("cobb", "binary")):
        shared, _, patches, A, _ = _catalog_structure(dgp.kind)
        if universe == shared:
            return A
    statics = [static_type_matrix(universe, t, patches) for t in universe.periods]
    return kron_dynamic(statics, observed_menu_paths(dgp, universe), universe)


def agents_per_path_for(dgp: DgpSpec, n: int) -> int:
    """Translate a reported sample size to agents per menu path: demand
    designs report agents per choice path (four per path), binary designs
    report agents per menu path."""
    return 4 * n if dgp.kind.startswith("cobb") else n


@dataclass(frozen=True)
class ExperimentReport:
    entries: tuple

    def to_text(self) -> str:
        lines = [f"{'dgp':<28}{'N':>8}{'sims':>7}{'reps':>7}{'reject_rate':>13}{'seconds':>9}"]
        for e in self.entries:
            lines.append(f"{e['dgp']:<28}{e['N']:>8}{e['sims']:>7}{e['reps']:>7}"
                         f"{e['rejection_rate']:>13.3f}{e['seconds']:>9.1f}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["dgp,N,sims,reps,rejection_rate,seconds"]
        for e in self.entries:
            lines.append(f"{e['dgp']},{e['N']},{e['sims']},{e['reps']},"
                         f"{e['rejection_rate']:.6f},{e['seconds']:.2f}")
        return "\n".join(lines)


# the counts of a test report that run_experiment sums per cell
SUMMED_DIAGNOSTICS = ("nnls_solves", "screened_replicates", "curtailed_replicates",
                      "bounded_replicates", "working_set_certified", "working_set_full_solves",
                      "working_set_bounded", "bootstrap_rounds")


def _run_sims(dgp: DgpSpec, n: int, sim_seeds, reps: int, alpha: float) -> np.ndarray:
    """Per sim: (reject, statistic, then the SUMMED_DIAGNOSTICS counts).

    Only verdicts are read, so the bootstrap skips the replicates that cannot
    reach the statistic, decides those whose certified interval lies on one
    side of it without a solve, stops at the replicate that decides the
    verdict and computes no critical value. The universe and the type matrix
    come from ``build_universe`` and ``type_matrix_for``, which share one
    build per catalog generator kind and process (``_catalog_structure``),
    range basis included. Each sim draws (``draw_choices``), tallies the
    drawn positions by menu path (``model.tally_rho``, the tally
    ``estimate_rho`` ends in, so ``rho`` is that of the simulated panel) and
    tests through the module attribute ``run_test``; it builds no panel."""
    universe, _ = build_universe(dgp)
    A = type_matrix_for(dgp, universe)
    paths = observed_menu_paths(dgp, universe)
    agents = agents_per_path_for(dgp, n)
    # draw_choices lays the agents out in path order, agents per path each
    path = np.repeat(np.arange(len(paths)), agents)
    out = np.empty((len(sim_seeds), 2 + len(SUMMED_DIAGNOSTICS)))
    for i, seed in enumerate(sim_seeds):
        panel_seed, boot_seed = seed.spawn(2)
        _, positions, _ = draw_choices(dgp, agents, panel_seed)
        rho = tally_rho(universe, paths, path, positions)
        config = TestConfig(reps=reps, alpha=alpha, critical_value=False,
                            seed=int(boot_seed.generate_state(1, np.uint64)[0]))
        report = run_test(rho, A, config)
        out[i] = (report.reject, report.statistic,
                  *(report.diagnostics[key] for key in SUMMED_DIAGNOSTICS))
    return out


def chunked_map(fn, items, n_jobs: int) -> list:
    """``fn`` of contiguous chunks of ``items``, one chunk per worker process,
    in chunk order; one call on all items when ``n_jobs`` is at most 1."""
    if n_jobs <= 1:
        return [fn(items)]
    chunks = [chunk for chunk in np.array_split(np.arange(len(items)), n_jobs) if len(chunk)]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        futures = [pool.submit(fn, [items[i] for i in chunk]) for chunk in chunks]
        return [f.result() for f in futures]


def run_experiment(dgps: list, Ns: list, sims: int = 1000, reps: int = 999,
                   seed: int = 0, alpha: float = 0.05, n_jobs: int = 1) -> ExperimentReport:
    """Rejection rates of the cone test per generator and sample size.

    Each sim runs the verdict-only test (``TestConfig(critical_value=False)``):
    its bootstrap screens the replicates that cannot reach the statistic,
    decides by certified interval those that lie on one side of it, and
    stops, inside its round of ``inference.ROUND``, at the replicate after
    which ``alpha`` can no longer be met, so a sim that does not reject
    reports the curtailed p-value h/L. Its verdict and statistic are those
    of the full bootstrap, so the rejection rates are too. Each entry also
    sums the cell's NNLS solves, screened, curtailed, interval-bounded and
    working-set bounded replicates, working-set routes and bootstrap rounds
    (SUMMED_DIAGNOSTICS; per sim, the solves less 2, the screened, the
    curtailed and the interval-bounded replicates add up to ``reps``) and
    gives its mean statistic; no critical values are computed. A cell's
    generator structure is built once per process and kind, not per
    call.

    Raises ParameterError when ``sims`` or a sample size is below 1.
    """
    if sims < 1:
        raise ParameterError(f"sims must be at least 1, got {sims}")
    if any(n < 1 for n in Ns):
        raise ParameterError(f"sample sizes must be at least 1, got {list(Ns)}")
    entries = []
    master = np.random.SeedSequence(seed)
    for dgp in dgps:
        for n in Ns:
            t0 = time.perf_counter()
            cell = master.spawn(1)[0]
            run = partial(_run_sims, dgp, n, reps=reps, alpha=alpha)
            per_sim = np.concatenate(chunked_map(run, cell.spawn(sims), n_jobs))
            rejects, statistics, *counts = per_sim.T
            entries.append({
                "dgp": dgp.kind, "N": n, "sims": sims, "reps": reps,
                "rejection_rate": float(rejects.mean()),
                "seconds": time.perf_counter() - t0,
                **{key: int(c.sum()) for key, c in zip(SUMMED_DIAGNOSTICS, counts)},
                "mean_statistic": float(statistics.mean()),
            })
    return ExperimentReport(tuple(entries))
