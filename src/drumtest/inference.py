"""Cone-projection hypothesis test with interior tightening and a
recentered multinomial bootstrap, plus the expected-utility-restricted
variant."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from math import log, sqrt

import numpy as np

from .checks import KKT_TOL, _kkt_residual, certify_nnls, nnls_projection, nnls_solve
from .errors import ParameterError, SchemaError, SolverError
from .model import path_blocks, rho_vector
from .representations import TypeMatrix, kron_dynamic, static_type_matrix

# routes of a bootstrap replicate: solved on the full matrix, certified on
# the working set, solved again on the full matrix after the working set,
# decided below the statistic by the working-set point's residual, or decided
# by its certified interval without a solve
FULL, WORKING_SET, FULL_AGAIN, BOUNDED, INTERVAL = 0, 1, 2, 3, 4
# replicates solved on the full matrix to find a wide matrix's working set
PILOT_REPLICATES = 20


@dataclass(frozen=True)
class TestConfig:
    """Knobs of the statistical test.

    ``reps`` bootstrap replications, drawn from ``seed``, decide at level
    ``alpha``; ``n_jobs`` processes share the full bootstrap's replicates
    after the working-set pilot (see ``_bootstrap``). The tightening
    parameter is sqrt(log(M)/M) with M the per-menu-path sample size (the
    smallest one when paths differ). Rows are scaled by estimated inverse
    binomial variances.

    The full bootstrap (``critical_value=True``) on a wide matrix brackets
    every replicate after the working-set pilot by a certified interval
    [lo, up] on its J* (``_intervals``). It projects only the replicates
    whose interval straddles the statistic and those that could hold the
    critical value's rank, until that order statistic is an exactly solved
    J*; the others are counted in ``bounded_replicates``. ``nnls_solves``
    less 2, the screened, the curtailed and the bounded replicates add up to
    ``reps`` on either route.

    ``critical_value=False`` asks for the verdict and the p-value only, and
    the report's critical value is NaN. The bootstrap then skips the
    projection of every replicate whose exact upper bound (its residual at
    the recentring solution, or at a working-set point that failed its
    certificate) cannot reach the observed statistic; such a replicate
    cannot count toward the p-value. It also stops drawing replicates once
    the verdict is decided (Besag and Clifford's curtailed test): at level
    ``alpha`` the fixed-R test cannot reject once h replicates reach the
    statistic, h the smallest count with (1 + h)/(R + 1) > alpha. The
    verdict is then "not reject", as with every replicate, and the p-value
    is h/L, L the seed-order index of the h-th hit; a test that rejects
    decides every replicate and keeps the fixed-R p-value. Curtailment is
    left out when some h/L could reach alpha (h/R <= alpha), so that
    ``reject`` is always ``p_value <= alpha``. The statistic and the verdict
    are those of the full bootstrap. The report counts the replicates never
    drawn (``curtailed_replicates``) and those decided by a working-set point
    (``working_set_bounded``). ``drum test`` keeps the full bootstrap.
    """

    __test__ = False  # not a pytest class despite the name

    reps: int = 999
    alpha: float = 0.05
    seed: int = 0
    n_jobs: int = 1
    critical_value: bool = True

    def __post_init__(self):
        if self.reps < 1:
            raise ParameterError("need at least one bootstrap replication")
        if not 0 < self.alpha < 1:
            raise ParameterError("alpha must be inside (0,1)")


@dataclass(frozen=True)
class TestReport:
    __test__ = False  # not a pytest class despite the name

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    nu_tau: np.ndarray
    eta_tau: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "statistic": float(self.statistic),
            "critical_value": float(self.critical_value),
            "p_value": float(self.p_value),
            "reject": bool(self.reject),
            "diagnostics": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                            for k, v in self.diagnostics.items()},
        }


@dataclass(frozen=True)
class IntervalStage:
    """What the full bootstrap's interval stage shares (see ``_intervals``):
    an orthonormal ``basis`` of range(WA); a ``dual`` vector v with WA^T v =
    1 (1/sqrt_w on the first row block: every type column has one 1 in each
    block); and per pilot face, a pilot projection's support S padded to a
    common width, ``sub`` = WA[:, S] with zero padding columns, its
    pseudo-inverse ``pinv`` and its Gram matrix ``gram``."""

    basis: np.ndarray
    dual: np.ndarray
    sub: np.ndarray
    pinv: np.ndarray
    gram: np.ndarray


@dataclass(frozen=True)
class BootstrapPlan:
    """What every bootstrap replicate of one test shares, built once per
    test; ``probs`` are the row blocks' multinomial probabilities. ``fit``,
    the recentring fit ``WA @ mu``, marks and screens the verdict-only route
    and is None on the full one. The working set ``columns`` and its matrix
    ``sub = WA[:, columns]`` stay None until the pilot freezes them; on the
    full route the pilot also fixes the ``interval`` stage."""

    WA: np.ndarray
    sqrt_w: np.ndarray
    vec: np.ndarray
    eta: np.ndarray
    shift: np.ndarray
    blocks: list
    counts: np.ndarray
    N: int
    probs: list
    statistic: float
    fit: np.ndarray | None
    columns: np.ndarray | None = None
    sub: np.ndarray | None = None
    interval: IntervalStage | None = None


def run_test(rho, A: TypeMatrix, config: TestConfig = TestConfig()) -> TestReport:
    """Scaled squared distance of the estimated path distribution from the
    type cone, with bootstrap critical values.

    The statistic is N times the weighted squared projection residual, N
    being the smallest per-menu-path sample size. The bootstrap resamples
    choice paths within each menu path, recenters at the tightened cone
    point, and recomputes the statistic with the same weights over the
    tightened cone (the parallel shift of the recentering point and the
    constraint set is what keeps the procedure valid at kinks); the p-value
    is (1 + #{J* >= J}) / (R + 1), or h/L for a verdict-only test curtailed
    at its h-th hit (see ``TestConfig``).
    """
    if not rho.counts:
        raise SchemaError("the test needs per-menu-path sample sizes")

    dense = A.dense().astype(float)
    paths = list(dict.fromkeys(path for path, _ in A.row_labels))
    if tuple(A.row_labels) != tuple((path, cp) for path in paths
                                    for cp in rho.universe.choice_paths(path)):
        raise SchemaError("A rows are not in the canonical path order")
    for path in paths:
        if path not in rho.probs:
            raise SchemaError(f"menu path {path} in A is not observed")
        if not rho.counts.get(path):
            raise SchemaError(f"menu path {path} has no recorded sample size")
    vec = rho_vector(rho, A.row_labels)
    blocks = [(path, int(rows[0]), int(rows[-1]) + 1)
              for path, rows in path_blocks(rho.universe, paths, np.arange(len(vec))).items()]
    counts = np.array([rho.counts[path] for path in paths], dtype=int)
    N = int(counts.min())

    tau = sqrt(log(N) / N) if N > 1 else 0.0
    var = np.maximum(vec * (1 - vec), 1e-4)
    sqrt_w = 1.0 / np.sqrt(var)
    WA = dense * sqrt_w[:, None]

    _, distance, kkt_point = nnls_projection(WA, sqrt_w * vec)
    statistic = N * (distance * distance)

    n_cols = dense.shape[1]
    lower = np.full(n_cols, tau / n_cols)
    shift = dense @ lower
    mu, _, kkt_mu = nnls_projection(WA, sqrt_w * (vec - shift))
    kkt = max(kkt_point, kkt_mu)
    nu_tau = mu + lower
    # the bootstrap recenters at the exact tightened-cone point; pulling it
    # back onto the simplex would park it off the tightened cone and bias
    # every bootstrap statistic upward, so the renormalized version is only
    # reported
    eta = dense @ nu_tau
    eta_report = eta.copy()
    for path, start, stop in blocks:
        mass = eta_report[start:stop].sum()
        if mass > 0:
            eta_report[start:stop] /= mass

    plan = BootstrapPlan(WA, sqrt_w, vec, eta, shift, blocks, counts, N,
                         [_normalized(vec[start:stop]) for _, start, stop in blocks], statistic,
                         # mu >= 0 is feasible for every replicate's projection, so the
                         # residual at the recentring fit WA mu bounds each J* from above
                         None if config.critical_value else WA @ mu)
    stop = None if config.critical_value else _stop_count(config.reps, config.alpha)
    # a wide matrix has far more columns than any projection uses
    pilot = PILOT_REPLICATES if WA.shape[1] > WA.shape[0] and config.reps > PILOT_REPLICATES else 0
    seeds = np.random.SeedSequence(config.seed).spawn(config.reps)
    out, plan = _bootstrap(plan, seeds, pilot, mu > 0, stop, config.n_jobs)
    # rank of the critical value among the sorted J*
    rank = min(int(np.ceil((1 - config.alpha) * (config.reps + 1))) - 1, config.reps - 1)
    if plan.interval is not None:
        _exact_order_statistic(plan, seeds, out, rank)
    # rows: J* per drawn replicate (its certified lower bound when its
    # interval decided it), its projection's KKT residual, its route and an
    # upper bound on J*; NaN marks a screened replicate, and a bounded one in
    # the J* and KKT rows
    stats, kkt_boot, route, _ = out
    drawn = len(stats)
    solved = ~np.isnan(route)
    kkt = float(np.max(kkt_boot[~np.isnan(kkt_boot)], initial=kkt))

    hits = int(np.sum(stats >= statistic - 1e-12))
    # Besag and Clifford's p-value when drawing stopped at the stop count
    p_value = stop / drawn if hits == stop else (1 + hits) / (config.reps + 1)
    critical = float(np.sort(stats)[rank]) if config.critical_value else float("nan")
    return TestReport(statistic, critical, p_value, p_value <= config.alpha,
                      nu_tau, eta_report,
                      {"N": N, "tau": tau, "path_sizes": counts.tolist(),
                       "weights": "inverse-variance", "reps": config.reps,
                       "unequal_path_sizes": bool(len(set(counts.tolist())) > 1),
                       "nnls_solves": 2 + int(np.sum(solved & (route != INTERVAL))),
                       "screened_replicates": int(drawn - solved.sum()),
                       "bounded_replicates": int(np.sum(route == INTERVAL)),
                       "curtailed_replicates": config.reps - drawn,
                       "critical_value_computed": bool(config.critical_value),
                       "kkt_residual_max": kkt,
                       "working_set_columns": 0 if plan.columns is None else len(plan.columns),
                       "working_set_certified": int(np.sum(route == WORKING_SET)),
                       "working_set_full_solves": int(np.sum(route == FULL_AGAIN)),
                       "working_set_bounded": int(np.sum(route == BOUNDED))})


def _stop_count(reps: int, alpha: float):
    """The number h of replicates reaching the statistic at which the fixed-R
    test can no longer reject: the smallest count c with (1 + c)/(R + 1) >
    alpha, the expression ``reject`` reads. None when a curtailed p-value
    h/L, L <= R, could be alpha or less, so the test is not curtailed."""
    h = next(c for c in range(reps + 1) if (1 + c) / (reps + 1) > alpha)
    return h if h / reps > alpha else None


def _bootstrap(plan, seeds, pilot, support, stop, n_jobs):
    """The rows of ``_bootstrap_chunk`` for the replicates drawn, in seed
    order, and the plan as the pilot left it.

    Without ``stop`` every replicate is drawn. With it, replicates are drawn
    in rounds of ``stop`` minus the hits so far (J* >= statistic), and
    drawing ends when the hits reach ``stop``, which can only happen on a
    round's last replicate. Round boundaries depend on seed order and hits
    alone.

    With ``pilot`` > 0 the first ``pilot`` replicates are solved on the full
    matrix, in rounds cut at the pilot's end. Their supports, gathered into
    ``support`` (the recentring solution's), are then frozen into the plan
    as the working set of every later replicate, so that every chunking
    solves on the same columns. On the full route (no ``fit``) the pilot's
    supports also fix the interval stage (``_interval_stage``).

    Only the full bootstrap's replicates after the pilot are split over
    ``n_jobs`` worker processes. A verdict-only round holds at most ``stop``
    replicates, too few to pay for starting a pool, so it runs here."""
    results, faces, drawn, hits = [], [], 0, 0
    while drawn < len(seeds) and hits != stop:
        end = len(seeds) if stop is None else min(len(seeds), drawn + stop - hits)
        if drawn < pilot:
            end = min(end, pilot)
        elif pilot and plan.columns is None:
            columns = np.flatnonzero(support)
            plan = replace(plan, columns=columns, sub=plan.WA[:, columns])
            if plan.fit is None:
                plan = replace(plan, interval=_interval_stage(plan, np.hstack(faces)))
        workers = n_jobs if drawn >= pilot and plan.fit is None else 1
        for out, used in chunked_map(partial(_bootstrap_chunk, plan), seeds[drawn:end], workers):
            results.append(out)
            support |= used.any(axis=1)
            if drawn < pilot:
                faces.append(used)
            hits += int(np.sum(out[0] >= plan.statistic - 1e-12))
        drawn = end
    return np.concatenate(results, axis=1), plan


def chunked_map(fn, items, n_jobs: int) -> list:
    """``fn`` of contiguous chunks of ``items``, one chunk per worker process,
    in chunk order; one call on all items when ``n_jobs`` is at most 1."""
    if n_jobs <= 1:
        return [fn(items)]
    chunks = [chunk for chunk in np.array_split(np.arange(len(items)), n_jobs) if len(chunk)]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        futures = [pool.submit(fn, [items[i] for i in chunk]) for chunk in chunks]
        return [f.result() for f in futures]


def _below(bound, statistic):
    """Upper bounds on J* that fall below the statistic by more than the
    float margins: their replicates cannot count toward the p-value."""
    return bound * (1 + 1e-9) + 1e-12 < statistic - 1e-12


def _bootstrap_chunk(plan, seeds):
    """Bootstrap statistics J* for the given replicate seeds, with the KKT
    residual and the route of each replicate's projection (see ``_project``)
    and an upper bound on J*: a (4, len(seeds)) array; and the supports of
    the projections, one boolean column per replicate.

    With the plan's recentring ``fit``, a replicate whose upper bound
    N * ||b - fit||^2 falls below the statistic by more than the float
    margins is not projected, and its entries are NaN; it could not have
    counted toward the p-value. With the plan's ``interval`` stage, a
    replicate whose certified interval [lo, up] lies on one side of the
    statistic by those margins is not projected either: its route is
    INTERVAL, its J* entry holds lo and its KKT entry is NaN. Every
    replicate draws from its own seed either way, and all draws come first,
    so the bounds take one pass.
    """
    B = _draws(plan, seeds)
    out = np.full((4, len(seeds)), np.nan)
    todo = np.arange(len(seeds))
    if plan.fit is not None:
        R = B - plan.fit
        todo = np.flatnonzero(~_below(plan.N * np.einsum("ij,ij->i", R, R), plan.statistic))
    elif plan.interval is not None:
        lo, up = _intervals(plan, B)
        decided = _below(up, plan.statistic) | _below(plan.statistic, lo)
        out[0, decided], out[2, decided], out[3, decided] = lo[decided], INTERVAL, up[decided]
        todo = np.flatnonzero(~decided)
    supports = np.zeros((plan.WA.shape[1], len(seeds)), dtype=bool)
    if len(todo):
        X, rnorm, out[1, todo], out[2, todo] = _project(plan, B[todo])
        out[0, todo] = out[3, todo] = plan.N * (rnorm * rnorm)
        supports[:, todo] = X > 0
    return out, supports


def _draws(plan, seeds):
    """The weighted, recentred right-hand sides of the replicates drawn from
    ``seeds``, one row each: each draws its path blocks' multinomial
    frequencies from its own seed."""
    B = np.empty((len(seeds), len(plan.vec)))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        star = np.empty_like(plan.vec)
        for (_, start, stop), n, p in zip(plan.blocks, plan.counts, plan.probs):
            star[start:stop] = rng.multinomial(n, p) / n
        B[i] = plan.sqrt_w * (star - plan.vec + plan.eta - plan.shift)
    return B


def _interval_stage(plan, supports):
    """The interval stage of a full bootstrap on a wide matrix, built once
    per test from the pilot's projection ``supports`` (one boolean column
    per pilot replicate; each distinct one is a face)."""
    WA = plan.WA
    U, sv, _ = np.linalg.svd(WA, full_matrices=False)
    basis = U[:, sv > sv[0] * max(WA.shape) * np.finfo(float).eps]
    dual = np.zeros(len(WA))
    _, start, stop = plan.blocks[0]
    dual[start:stop] = 1.0 / plan.sqrt_w[start:stop]
    faces = np.unique(supports.T, axis=0)
    width = max(1, int(faces.sum(axis=1).max()))
    sub = np.zeros((len(faces), len(WA), width))
    for f, face in enumerate(faces):
        columns = np.flatnonzero(face)
        sub[f, :, :len(columns)] = WA[:, columns]
    return IntervalStage(basis, dual, sub, np.linalg.pinv(sub), sub.transpose(0, 2, 1) @ sub)


def _intervals(plan, B):
    """Certified bounds lo <= J* <= up on the bootstrap statistic of each
    row b of ``B``.

    lo, by weak duality: for y with WA^T y <= 0 and every x >= 0,
    ||b - WA x|| ||y|| >= y^T (b - WA x) >= b^T y, so J* >= N (b^T y)^2 /
    ||y||^2 when b^T y > 0. y is b less its projection onto range(WA), made
    dual-feasible against rounding by subtracting max(0, max WA^T y) times
    the plan's dual vector.

    up, N ||b - WA x||^2 at a feasible x >= 0: per pilot face S, the
    clipped least-squares point max(pinv(WA_S) b, 0); each replicate keeps
    its best face, drops the face's columns that the clip zeroed and
    re-solves its normal equations on the rest, once, keeping the better
    residual. Any x >= 0 bounds J*, however inexact the solve."""
    stage, N = plan.interval, plan.N
    Y = B - (B @ stage.basis) @ stage.basis.T
    Y -= np.maximum(0.0, (Y @ plan.WA).max(axis=1))[:, None] * stage.dual
    by, yy = np.einsum("ij,ij->i", B, Y), np.einsum("ij,ij->i", Y, Y)
    lo = N * np.divide(by * by, yy, out=np.zeros(len(B)), where=by > 0)

    best = np.full(len(B), np.inf)
    face = np.zeros(len(B), dtype=int)
    X = np.zeros((len(B), stage.sub.shape[2]))
    for f, (sub, pinv) in enumerate(zip(stage.sub, stage.pinv)):
        x = np.maximum(pinv @ B.T, 0.0)
        R = B.T - sub @ x
        res = np.einsum("rn,rn->n", R, R)
        better = res < best
        best[better], face[better], X[better] = res[better], f, x[:, better].T
    for f in np.unique(face):
        rows, sub = np.flatnonzero(face == f), stage.sub[f]
        keep = X[rows] > 0
        gram = stage.gram[f] * (keep[:, :, None] & keep[:, None, :])
        gram[:, np.arange(keep.shape[1]), np.arange(keep.shape[1])] += ~keep
        try:
            x = np.linalg.solve(gram, ((B[rows] @ sub) * keep)[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            continue  # a face of dependent columns: keep the clipped points
        R = B[rows] - (np.maximum(x, 0.0) * keep) @ sub.T
        best[rows] = np.minimum(best[rows], np.einsum("ij,ij->i", R, R))
    up = N * best
    return lo, up


def _exact_order_statistic(plan, seeds, out, rank):
    """Solve replicates that the interval stage decided, in place in the
    rows of ``out``, until the ``rank``-th smallest J* (0-based) is an
    exactly solved one.

    That order statistic lies between L, the rank-th smallest lower bound,
    and U, the rank-th smallest upper bound; an exact J* is both of its
    bounds. A replicate whose interval lies below L or above U by
    ``_below``'s margins stays on its side of the order statistic whatever
    its J*, so only those whose interval meets [L, U] are solved, redrawn
    from their seeds; then L and U are taken again."""
    stats, kkt, route, upper = out
    while True:
        L, U = np.partition(stats, rank)[rank], np.partition(upper, rank)[rank]
        todo = np.flatnonzero((route == INTERVAL) & ~_below(upper, L) & ~_below(U, stats))
        if not len(todo):
            return
        _, rnorm, kkt[todo], route[todo] = _project(plan, _draws(plan, [seeds[i] for i in todo]))
        stats[todo] = upper[todo] = plan.N * (rnorm * rnorm)


def _project(plan, B):
    """NNLS projections of the rows of ``B`` onto the cone of ``plan.WA``,
    all certified on the full matrix: (solutions, one per column; residual
    norms; KKT residuals; routes).

    Once the plan has a working set, each problem is solved on ``plan.sub``
    alone and its solution embedded in all columns. One whose KKT conditions
    hold on the full matrix is its optimum (Lawson and Hanson's active-set
    argument); one that fails them, or whose sub-solve raises, is solved
    again on the full matrix. ``certify_nnls``'s bvls re-solve stays the
    last resort.

    A working-set point that fails the certificate is still feasible, so its
    squared residual norm bounds the projection's from above. With the
    plan's ``fit``, a problem whose bound falls below the statistic
    (``_below``) is not solved again: its route is BOUNDED and its residual
    norm and KKT residual read NaN."""
    WA, columns = plan.WA, plan.columns
    X = np.zeros((WA.shape[1], len(B)))
    rnorm = np.full(len(B), np.nan)
    route = np.full(len(B), FULL)
    if columns is not None:
        for k, b in enumerate(B):
            try:
                X[columns, k], rnorm[k] = nnls_solve(plan.sub, b)
                route[k] = WORKING_SET
            except SolverError:
                route[k] = FULL_AGAIN
        # one pass over all solutions; per replicate it would cost as much
        # as a small projection
        kkt, limit = _kkt_residual(WA, X, B.T, KKT_TOL)
        missed = (route == WORKING_SET) & (kkt > limit)
        route[missed] = FULL_AGAIN
        if plan.fit is not None:
            route[missed & _below(plan.N * (rnorm * rnorm), plan.statistic)] = BOUNDED
    for k in np.flatnonzero((route == FULL) | (route == FULL_AGAIN)):
        X[:, k], rnorm[k] = nnls_solve(WA, B[k])
    kept = route != BOUNDED
    kkt = np.full(len(B), np.nan)
    X[:, kept], rnorm[kept], kkt[kept] = certify_nnls(WA, X[:, kept], B[kept].T, rnorm[kept])
    rnorm[~kept] = np.nan
    return X, rnorm, kkt, route


def _normalized(block):
    s = block.sum()
    return block / s if s > 0 else np.full_like(block, 1.0 / len(block))


def run_test_eu(rho, lotteries: dict, config: TestConfig = TestConfig()) -> TestReport:
    """The same test with the type matrix restricted to rankings consistent
    with expected utility over the supplied lotteries."""
    universe = rho.universe
    statics = [static_type_matrix(universe, t, eu_filter=lotteries) for t in universe.periods]
    A = kron_dynamic(statics, rho.observed_paths, universe)
    report = run_test(rho, A, config)
    report.diagnostics["eu_orders_per_period"] = [len(s.col_labels) for s in statics]
    return report
