"""Monte Carlo data generators and the experiment runner.

Demand generators draw Cobb-Douglas share parameters (a persistent clipped
walk or a Gaussian-copula pair) and classify each agent's demand into a
patch by its share of the first good alone: on two goods the demand point
(a w/p_0, (1 - a) w/p_1) crosses each other budget line at one share, its
cut, so comparing a with the cuts places the point. Binary-menu generators
compose published per-menu marginals independently across periods. Every
simulated agent faces one menu path; each observed menu path receives the
same number of agents, as in the experimental designs the generators mimic.

``draw_choices`` makes a generator's draws: each agent's menus, 0-based
choice positions and, for a demand generator, shares. ``simulate``
assembles them into a panel and only it computes the demand points. A Monte
Carlo sim (``run_experiment``) builds no panel: it draws, tallies the draws
with ``model.tally_rho`` and tests.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import sqrt

import numpy as np

from . import catalog
from .errors import GeometryError, ParameterError
from .geometry import ABOVE, demand_geometry
from .inference import TestConfig, run_test
from .model import PanelDataset, tally_rho
from .representations import type_matrix

BINARY_MARGINALS = {
    "binary1": np.array([1, 4, 4, 1, 1, 4]) / 5.0,
    "binary2": np.array([1 / 5, 4 / 5, 1 / 2, 1 / 2, 1 / 5, 4 / 5]),
    "binary3": np.array([1, 3, 2, 2, 1, 3]) / 4.0,
}
DEMAND_KINDS = ("cobb-douglas-walk", "cobb-douglas-gaussian-copula")
KINDS = (*DEMAND_KINDS, *BINARY_MARGINALS, "order-mixture")
ORDER_MIXTURE_PARAMS = ("universe", "menu_paths", "profiles", "weights")


@dataclass(frozen=True)
class DgpSpec:
    """A named data-generating process with its parameters.

    ``kind`` is exactly one of ``KINDS``: ``cobb-douglas-walk``
    (persistence 0.9, innovation sd 5, clipped to [0,1]),
    ``cobb-douglas-gaussian-copula`` (correlation 0.5, arctan link),
    ``binary1``, ``binary2`` or ``binary3`` (published binary-menu
    marginals over three periods), or ``order-mixture`` (``weights`` over
    ranking ``profiles`` on a supplied ``universe`` and its ``menu_paths``,
    all four required in ``params``); any other kind, or an
    ``order-mixture`` without one of its params, raises ParameterError.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown DGP kind {self.kind!r}; the kinds are "
                                 + ", ".join(KINDS))
        if self.kind == "order-mixture":
            missing = [key for key in ORDER_MIXTURE_PARAMS if self.params.get(key) is None]
            if missing:
                raise ParameterError("order-mixture needs params " + ", ".join(missing))


BINARY_UNIVERSE = catalog.binary_universe(("l1", "l2", "l3"), (1, 2, 3))


def build_universe(dgp: DgpSpec):
    """Universe (and budgets where applicable) the generator samples on."""
    if dgp.kind in DEMAND_KINDS:
        geometry = _catalog_structure(dgp.kind)[0]
        return geometry.universe, geometry.budgets
    if dgp.kind in BINARY_MARGINALS:
        return BINARY_UNIVERSE, None
    return dgp.params["universe"], None


# shares this close to a cut are classified by the demand point itself
CUT_MARGIN = 1e-9


@lru_cache(maxsize=16)
def _catalog_structure(kind: str):
    """(demand geometry, cut tables) of a ``DEMAND_KINDS`` generator, the
    two-period simple budgets, built once per kind and process (the params
    only shape its draws) and shared: the geometry is a frozen value and the
    tables' arrays are made read-only."""
    geometry = demand_geometry(catalog.simple_budgets((1, 2)), (1, 2))
    return geometry, _demand_tables(geometry)


@dataclass(frozen=True)
class _Cuts:
    """How a demand point on one two-good budget (``prices``,
    ``expenditure``) classifies into the budget's open patches.

    ``others`` holds the (prices, expenditure) of the period's other
    budgets. At first-good share a the point y = (a w/p_0, (1 - a) w/p_1)
    lies above ``others[b]``, y @ p' > w', exactly when a lies above
    ``cuts[b]`` if ``rising[b]``, below it if not; a point on the line
    counts as below it. A line parallel to the budget has an infinite cut.
    ``position[code]`` is the 0-based menu position of the open patch whose
    sign vector has bit b of ``code`` set exactly when the patch lies above
    ``others[b]``, or -1 when no open patch has that sign vector."""

    prices: np.ndarray
    expenditure: float
    others: tuple
    cuts: np.ndarray
    rising: np.ndarray
    position: np.ndarray


def _demand_tables(geometry):
    """Per period of the geometry, the ``_Cuts`` of each budget by budget
    index. The point's value y @ p' is linear in a, from c_1 = w p'_1/p_1
    at a = 0 to c_0 = w p'_0/p_0 at a = 1, so it exceeds w' above the share
    (w' - c_1)/(c_0 - c_1) when c_0 > c_1 and below it when c_0 < c_1."""
    tables = {}
    for t in geometry.universe.periods:
        tables[t] = {}
        for budget in geometry.budgets[t]:
            others = [b for b in geometry.budgets[t] if b.index != budget.index]
            menu = geometry.universe.menu(t, budget.index)
            position = np.full(1 << len(others), -1, dtype=np.intp)
            for pt in geometry.patches[t]:
                if pt.budget == budget.index and not pt.is_intersection:
                    code = sum(1 << b for b, o in enumerate(others)
                               if pt.sign_vector[o.index] == ABOVE)
                    position[code] = menu.position(pt.label) - 1
            p, w = budget.p(), budget.w()
            cuts, rising = np.empty(len(others)), np.ones(len(others), dtype=bool)
            for b, other in enumerate(others):
                c0, c1 = w * other.p()[0] / p[0], w * other.p()[1] / p[1]
                if c0 == c1:
                    cuts[b] = -np.inf if c1 > other.w() else np.inf
                else:
                    cuts[b], rising[b] = (other.w() - c1) / (c0 - c1), c0 > c1
            other_prices = tuple((o.p(), o.w()) for o in others)
            for array in (position, p, cuts, rising, *(q for q, _ in other_prices)):
                array.setflags(write=False)
            tables[t][budget.index] = _Cuts(p, w, other_prices, cuts, rising, position)
    return tables


def observed_menu_paths(dgp: DgpSpec, universe):
    if dgp.kind in DEMAND_KINDS:
        return sorted(itertools.product(*[universe.menu_indices(t)
                                          for t in universe.periods]))
    if dgp.kind in BINARY_MARGINALS:
        return sorted(itertools.permutations(universe.menu_indices(universe.periods[0])))
    return sorted(tuple(p) for p in dgp.params["menu_paths"])


def draw_choices(dgp: DgpSpec, agents_per_path: int, seed):
    """The generator's draws for ``agents_per_path`` agents on every observed
    menu path, agents in path order: (menus, positions, shares), with
    ``menus`` each agent's menu ids and ``positions`` the 0-based positions
    of its choices in them, both (agents, periods), and ``shares`` each
    agent's first-good shares, (agents, periods), or None for a generator
    without them. Budget indices double as menu ids; a demand choice is the
    open patch whose sign vector against the period's other budgets matches
    the demand point, read off the budget's cuts (``_demand_choices``).

    Raises ParameterError when ``agents_per_path`` is below 1 or a copula
    correlation lies outside [-1, 1].
    """
    if agents_per_path < 1:
        raise ParameterError(f"agents per menu path must be at least 1, got {agents_per_path}")
    rng = np.random.default_rng(seed)
    universe, budgets = build_universe(dgp)
    paths = observed_menu_paths(dgp, universe)
    T = universe.num_periods
    menus = np.repeat(np.array(paths, dtype=np.int64).reshape(-1, T), agents_per_path, axis=0)
    shares = None
    if dgp.kind in DEMAND_KINDS:
        shares = _draw_shares(dgp, rng, len(paths), agents_per_path)
        positions = _demand_choices(universe, _catalog_structure(dgp.kind)[1], paths,
                                    agents_per_path, shares)
    elif dgp.kind in BINARY_MARGINALS:
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
    return menus, positions, shares


def simulate(dgp: DgpSpec, agents_per_path: int, seed: int = 0):
    """Draw a panel with ``agents_per_path`` agents on every menu path.

    Returns (panel, universe): ``draw_choices``'s draws as records, with a
    demand generator's demand points as quantities. Agents are numbered
    from 1 in path order and the panel runs agent by agent, period by
    period.
    """
    menus, positions, shares = draw_choices(dgp, agents_per_path, seed)
    universe, _ = build_universe(dgp)
    n, T = menus.shape
    choice, choice_ids = _chosen_items(universe, menus, positions)
    quantity = None
    if shares is not None:
        quantity = _demand_points(universe, _catalog_structure(dgp.kind)[1], menus, shares)
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


def _demand_choices(universe, tables, paths, agents_per_path, shares):
    """The 0-based patch position in its menu of each agent's demand point
    per period, (agents, periods); ``tables`` are the generator's
    ``_demand_tables`` and the agents lie in ``paths`` order,
    ``agents_per_path`` each, as ``draw_choices`` lays them out.

    Each menu path's block of agents faces one budget per period, so the
    block's shares are compared with that budget's cuts. A share within
    ``CUT_MARGIN`` of a cut is classified by the demand point, y @ p' > w'
    (``_above``), so a point on a line, or rounded onto it, counts as below
    it as it always has.
    """
    positions = np.empty(shares.shape, dtype=np.intp)
    for k, t in enumerate(universe.periods):
        for block, path in enumerate(paths):
            rows = slice(block * agents_per_path, (block + 1) * agents_per_path)
            table, a = tables[t][path[k]], shares[rows, k]
            code = np.zeros(len(a), dtype=np.intp)
            for b, (cut, rising) in enumerate(zip(table.cuts, table.rising)):
                above = a > cut if rising else a < cut
                near = np.flatnonzero(np.abs(a - cut) <= CUT_MARGIN)
                if len(near):
                    above[near] = _above(table, a[near], *table.others[b])
                code |= above.astype(np.intp) << b
            pos = table.position[code]
            if (pos < 0).any():
                raise GeometryError(f"a demand point on budget {path[k]} matches no patch")
            positions[rows, k] = pos
    return positions


def _above(table, a, prices, expenditure):
    """Whether the demand points of shares ``a`` on the ``table``'s budget
    lie above the line (``prices``, ``expenditure``): y @ p' > w' on the
    points of ``_demand_points``. A one-row product can differ in the last
    bit from the same row inside a larger one, so a lone share is evaluated
    as two rows."""
    y = _points(table, np.repeat(a, 2) if len(a) == 1 else a)
    return (y @ prices > expenditure)[:len(a)]


def _points(table, a):
    """The demand points (a w/p_0, (1 - a) w/p_1), one row per share."""
    p, w = table.prices, table.expenditure
    return np.column_stack([a * w / p[0], (1 - a) * w / p[1]])


def _demand_points(universe, tables, menus, shares):
    """The demand points of the agents' shares on their menus' budgets,
    (agents, periods, 2)."""
    quantity = np.empty(menus.shape + (2,))
    for k, t in enumerate(universe.periods):
        for index, table in tables[t].items():
            rows = menus[:, k] == index
            quantity[rows, k] = _points(table, shares[rows, k])
    return quantity


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
    It is the shared, read-only build of ``representations.type_matrix``."""
    geometry = _catalog_structure(dgp.kind)[0] if dgp.kind in DEMAND_KINDS else None
    return type_matrix(universe, observed_menu_paths(dgp, universe), geometry)


def agents_per_path_for(dgp: DgpSpec, n: int) -> int:
    """Translate a reported sample size to agents per menu path: demand
    designs report agents per choice path (four per path), binary designs
    report agents per menu path."""
    return 4 * n if dgp.kind in DEMAND_KINDS else n


@dataclass(frozen=True)
class ExperimentReport:
    """One entry per (generator, sample size) cell: its rejections out of
    ``sims``, the rejection rate with its binomial Monte Carlo
    ``standard_error``, the summed diagnostics and the seconds taken. The
    table and the CSV show the rates with their errors and the cell's
    grown and full re-solves next to them."""

    entries: tuple

    def to_text(self) -> str:
        lines = [f"{'dgp':<28}{'N':>8}{'sims':>7}{'reps':>7}{'rejections':>12}"
                 f"{'reject_rate':>13}{'std_error':>11}{'grown':>8}{'full':>7}{'seconds':>9}"]
        for e in self.entries:
            lines.append(f"{e['dgp']:<28}{e['N']:>8}{e['sims']:>7}{e['reps']:>7}"
                         f"{e['rejections']:>12}{e['rejection_rate']:>13.3f}"
                         f"{e['standard_error']:>11.4f}{e['working_set_grown']:>8}"
                         f"{e['working_set_full_solves']:>7}{e['seconds']:>9.1f}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["dgp,N,sims,reps,rejections,rejection_rate,standard_error,working_set_grown,"
                 "working_set_full_solves,seconds"]
        for e in self.entries:
            lines.append(f"{e['dgp']},{e['N']},{e['sims']},{e['reps']},{e['rejections']},"
                         f"{e['rejection_rate']:.6f},{e['standard_error']:.6f},"
                         f"{e['working_set_grown']},{e['working_set_full_solves']},"
                         f"{e['seconds']:.2f}")
        return "\n".join(lines)


# the counts of a test report that run_experiment sums per cell
SUMMED_DIAGNOSTICS = ("nnls_solves", "screened_replicates", "curtailed_replicates",
                      "bounded_replicates", "working_set_certified", "working_set_grown",
                      "working_set_full_solves", "working_set_bounded", "bootstrap_rounds")


def _run_sims(dgp: DgpSpec, n: int, sim_seeds, reps: int, alpha: float) -> np.ndarray:
    """Per sim: (reject, statistic, then the SUMMED_DIAGNOSTICS counts).

    Only verdicts are read, so the bootstrap skips the replicates that cannot
    reach the statistic, decides those whose certified interval lies on one
    side of it without a solve, stops at the replicate that decides the
    verdict and computes no critical value. The universe and the type matrix
    come from ``build_universe`` and ``type_matrix_for``, built once per
    process and shared (``_catalog_structure``, ``representations.type_matrix``),
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
    reports the curtailed p-value h/L. Its bootstrap draws each round's rows
    just before walking it, so a curtailed sim draws only the rounds it
    runs, and a round the screen empties takes no bounds. Its verdict and
    statistic are those of the full bootstrap, so the rejection rates are
    too. Each entry also
    sums the cell's NNLS solves, screened, curtailed, interval-bounded and
    working-set bounded replicates, working-set routes (certified, grown and
    full re-solves) and bootstrap rounds (SUMMED_DIAGNOSTICS; per sim, the
    solves less 2, the screened, the curtailed and the interval-bounded
    replicates add up to ``reps``) and gives its mean statistic; no
    critical values are computed. Each entry counts the cell's
    ``rejections`` and gives the rate's Monte Carlo standard error,
    sqrt(rate (1 - rate) / sims), the binomial error Koehler, Brown and
    Haneuse (2009) ask a simulated rate to carry. A cell's
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
            rate = float(rejects.mean())
            entries.append({
                "dgp": dgp.kind, "N": n, "sims": sims, "reps": reps,
                "rejections": int(rejects.sum()), "rejection_rate": rate,
                "standard_error": sqrt(rate * (1 - rate) / sims),
                "seconds": time.perf_counter() - t0,
                **{key: int(c.sum()) for key, c in zip(SUMMED_DIAGNOSTICS, counts)},
                "mean_statistic": float(statistics.mean()),
            })
    return ExperimentReport(tuple(entries))
