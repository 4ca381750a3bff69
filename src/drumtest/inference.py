"""Cone-projection hypothesis test with interior tightening and a
recentered multinomial bootstrap, plus the expected-utility-restricted
variant."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import log, sqrt

import numpy as np

from .checks import KKT_TOL, _kkt_of_gradient, certify_nnls, nnls_projection, nnls_solve
from .errors import ParameterError, SchemaError, SolverError
from .model import path_blocks, rho_vector
from .representations import TypeMatrix, type_matrix

# routes of a bootstrap replicate: certified on the working set, solved
# again on the full matrix after the working set, decided below the
# statistic by the working-set point's residual, decided by its certified
# interval without a solve, or certified on the working set grown by the
# columns that broke the working-set point's certificate (and, when the
# grown point breaks others, grown once more by those)
WORKING_SET, FULL_AGAIN, BOUNDED, INTERVAL, GROWN = 0, 1, 2, 3, 4
# growth steps a failed working-set point gets before the full re-solve
GROWTHS = 2
# replicates per bootstrap round, on either route: each round's solves add
# faces that bound the later rounds' replicates, and each round costs a pass
# of bounds and face updates; a curtailed round stops inside itself, at the
# decisive hit, so a larger round projects no more replicates
ROUND = 50
# faces whose bounds one pass of ``_intervals`` stacks at a time
FACE_GROUP = 16


@dataclass(frozen=True)
class TestConfig:
    """Knobs of the statistical test.

    ``reps`` bootstrap replications decide at level ``alpha``. ``seed``, a
    non-negative integer, seeds the test's one generator. The bootstrap
    runs in the calling process in rounds of ``ROUND`` replicates on either
    route (see ``_bootstrap``), and the generator draws each round's rows
    just before the round is walked (``_draws``): replicate i is the same
    on either route, and a test draws only the rounds it runs. Only
    ``run_experiment`` spreads sims over processes. The tightening
    parameter is sqrt(log(M)/M) with M the per-menu-path sample size (the
    smallest one when paths differ). Rows are scaled by estimated inverse
    binomial variances.

    Every replicate drawn is bracketed by a certified interval [lo, up] on
    its J* (``_intervals``), on either route, from the faces that the point
    and recentring projections and the earlier rounds' projections found.
    Only a replicate whose interval straddles the statistic is projected,
    down the ladder of ``_project``: on the working set, then on the
    working set grown by the columns that broke its certificate (twice at
    most, ``GROWTHS``), then on the full matrix. The report counts each
    rung's replicates (``working_set_certified``, ``working_set_grown``,
    ``working_set_full_solves``). The full bootstrap
    (``critical_value=True``) then also projects those that could hold the
    critical value's rank, until that order statistic is an exactly solved
    J*. The replicates left to their intervals are counted in
    ``bounded_replicates``. ``nnls_solves`` less 2, the screened, the
    curtailed and the bounded replicates add up to ``reps`` on either
    route.

    ``critical_value=False`` asks for the verdict and the p-value only, and
    the report's critical value is NaN. The bootstrap then first skips,
    before its interval, every replicate whose exact upper bound (its
    residual at the recentring solution) cannot reach the observed
    statistic, and skips the grown and full re-solves of one whose
    working-set point failed its certificate but whose residual there
    cannot reach it either; such a replicate cannot count toward the
    p-value. A round whose replicates are all screened goes on to no bounds
    and adds no faces. It also stops taking
    replicates once the verdict is decided (Besag and Clifford's curtailed
    test): at level ``alpha`` the fixed-R test cannot reject once h
    replicates reach the statistic, h the smallest count with (1 + h)/(R +
    1) > alpha. The verdict is then "not reject", as with every replicate,
    and the p-value is h/L, L the seed-order index of the h-th hit. Each
    round is screened and bounded in one pass and then walked in seed
    order: an undecided replicate is projected only while fewer than h hits
    precede it, so no replicate past L is projected, the rows past L are
    neither hits nor taken, and the rounds past L's are never drawn. A test
    that rejects decides every replicate and keeps the fixed-R p-value.
    Curtailment is left out when some h/L could reach alpha (h/R <= alpha),
    so that ``reject`` is always ``p_value <= alpha``. The statistic and the
    verdict are those of the full bootstrap. The report counts the
    replicates never taken (``curtailed_replicates``, R - L) and those
    decided by a working-set point (``working_set_bounded``); on either
    route it counts the rounds run (``bootstrap_rounds``). ``drum test``
    keeps the full bootstrap.
    """

    __test__ = False  # not a pytest class despite the name

    reps: int = 999
    alpha: float = 0.05
    seed: int = 0
    critical_value: bool = True

    def __post_init__(self):
        if self.reps < 1:
            raise ParameterError("need at least one bootstrap replication")
        if not 0 < self.alpha < 1:
            raise ParameterError("alpha must be inside (0,1)")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")


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
class Faces:
    """The faces a test's projections have found so far: distinct nonempty
    projection supports S (one boolean row each in ``supports``), with per
    face ``sub`` = WA[:, S] and the ``inverse`` of its Gram matrix,
    zero-padded to the widest face and stacked (read by ``_intervals``); and
    the working set ``columns``, their union, with its matrix ``working`` =
    WA[:, columns] (read by ``_project``); and the supports' ``keys``, each
    row packed to bytes, by which ``_add_faces`` tells a new support from a
    known one."""

    supports: np.ndarray
    sub: np.ndarray
    inverse: np.ndarray
    columns: np.ndarray
    working: np.ndarray
    keys: frozenset


@dataclass(frozen=True)
class BootstrapPlan:
    """What every bootstrap replicate of one test shares, built once per
    test; ``probs`` are the row blocks' multinomial probabilities. ``fit``,
    the recentring fit ``WA @ mu``, marks and screens the verdict-only route
    and is None on the full one. ``basis``, an orthonormal basis of
    range(WA), and ``dual``, a vector v with WA^T v = 1, give the intervals'
    lower bounds (``_intervals``); the ``faces`` grow round by round
    (``_add_faces``)."""

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
    basis: np.ndarray
    dual: np.ndarray
    faces: Faces


def run_test(rho, A: TypeMatrix, config: TestConfig = TestConfig()) -> TestReport:
    """Scaled squared distance of the estimated path distribution from the
    type cone, with bootstrap critical values.

    The statistic is N times the weighted squared projection residual, N
    being the smallest per-menu-path sample size. The bootstrap resamples
    choice paths within each menu path, recenters at the tightened cone
    point, and recomputes the statistic with the same weights over the
    tightened cone (the parallel shift of the recentering point and the
    constraint set is what keeps the procedure valid at kinks). The
    recentring projection is solved down ``_project``'s ladder from the
    point projection's support, so it carries one KKT certificate on the
    full matrix like every other exact solve; the p-value
    is (1 + #{J* >= J}) / (R + 1), or h/L for a verdict-only test curtailed
    at its h-th hit (see ``TestConfig``). The faces, and with them the
    intervals and the working set, start from the supports of the point and
    recentring projections and grow round by round (``_bootstrap``), each
    round drawn as it is taken.
    """
    if not rho.counts:
        raise SchemaError("the test needs per-menu-path sample sizes")

    dense = A.dense().astype(float)
    paths = list(dict.fromkeys(path for path, _ in A.row_labels))
    if tuple(A.row_labels) != tuple((path, cp) for path in paths
                                    for cp in rho.universe.choice_paths(path)):
        raise SchemaError("A rows are not in the canonical path order")
    vec = rho_vector(rho, A.row_labels)
    for path in paths:
        if not rho.counts.get(path):
            raise SchemaError(f"menu path {path} has no recorded sample size")
    blocks = [(path, int(rows[0]), int(rows[-1]) + 1)
              for path, rows in path_blocks(rho.universe, paths, np.arange(len(vec))).items()]
    counts = np.array([rho.counts[path] for path in paths], dtype=int)
    N = int(counts.min())

    tau = sqrt(log(N) / N) if N > 1 else 0.0
    var = np.maximum(vec * (1 - vec), 1e-4)
    sqrt_w = 1.0 / np.sqrt(var)
    WA = dense * sqrt_w[:, None]

    x_point, distance, kkt_point = nnls_projection(WA, sqrt_w * vec)
    statistic = N * (distance * distance)

    n_cols = dense.shape[1]
    lower = np.full(n_cols, tau / n_cols)
    shift = dense @ lower
    plan = BootstrapPlan(WA, sqrt_w, vec, None, shift, blocks, counts, N,
                         [_normalized(vec[start:stop]) for _, start, stop in blocks], statistic,
                         None, *_range_and_dual(sqrt_w, blocks, A.range_basis), _no_faces(WA))
    # the point projection's support is the first face, and the working set
    # on which the recentring projection starts down the ladder of
    # ``_project``; its support is the second face
    plan = _add_faces(plan, (x_point > 0)[:, None])
    X, _, kkt_mu, _ = _project(plan, (sqrt_w * (vec - shift))[None])
    mu = X[:, 0]
    plan = _add_faces(plan, X > 0)
    kkt = max(kkt_point, float(kkt_mu[0]))
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

    # mu >= 0 is feasible for every replicate's projection, so the residual
    # at the recentring fit WA mu bounds each J* from above
    plan = replace(plan, eta=eta, fit=None if config.critical_value else WA @ mu)
    stop = None if config.critical_value else _stop_count(config.reps, config.alpha)
    out, plan, B, rounds = _bootstrap(plan, config.seed, config.reps, stop)
    # rank of the critical value among the sorted J*
    rank = min(int(np.ceil((1 - config.alpha) * (config.reps + 1))) - 1, config.reps - 1)
    if config.critical_value:
        _exact_order_statistic(plan, B, out, rank)
    # rows: J* per drawn replicate (its certified lower bound when its
    # interval decided it), its projection's KKT residual, its route and an
    # upper bound on J*; NaN marks a screened replicate, and a bounded one in
    # the J* and KKT rows
    stats, kkt_boot, route, _ = out
    drawn = len(stats)
    solved = ~np.isnan(route)
    kkt = float(np.max(kkt_boot[~np.isnan(kkt_boot)], initial=kkt))

    hits = int(np.sum(_hits(stats, statistic)))
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
                       "bootstrap_rounds": rounds,
                       "critical_value_computed": bool(config.critical_value),
                       "kkt_residual_max": kkt,
                       "working_set_columns": len(plan.faces.columns),
                       "working_set_certified": int(np.sum(route == WORKING_SET)),
                       "working_set_grown": int(np.sum(route == GROWN)),
                       "working_set_full_solves": int(np.sum(route == FULL_AGAIN)),
                       "working_set_bounded": int(np.sum(route == BOUNDED))})


def _stop_count(reps: int, alpha: float):
    """The number h of replicates reaching the statistic at which the fixed-R
    test can no longer reject: the smallest count c with (1 + c)/(R + 1) >
    alpha, the expression ``reject`` reads. None when a curtailed p-value
    h/L, L <= R, could be alpha or less, so the test is not curtailed."""
    h = next(c for c in range(reps + 1) if (1 + c) / (reps + 1) > alpha)
    return h if h / reps > alpha else None


def _bootstrap(plan, seed, reps, stop):
    """The rows of ``_bootstrap_chunk`` for the replicates taken, in seed
    order; the plan with the faces their projections found; those
    replicates' rows of ``_draws``; and the number of rounds.

    The test's one generator, ``default_rng(seed)``, draws each round's
    ``ROUND`` rows (fewer in the last round) just before the round is
    walked, by one ``_draws`` call, on either route; so row i is replicate i
    on either route, and the rounds a curtailed test never reaches are never
    drawn. With ``stop``, each round is told how many hits (J* >= statistic)
    are still needed, and the test ends in the round that holds the
    ``stop``-th hit, at that replicate; the rows past it are never projected
    and never counted. After each round the supports of its projections join
    the faces and the working set (``_add_faces``; a round that projected
    nothing adds nothing), so round boundaries, and with them the report,
    depend on seed order and hits alone."""
    rng = np.random.default_rng(seed)
    results, taken, drawn, hits = [], [], 0, 0
    while drawn < reps and hits != stop:
        B = _draws(plan, rng, min(ROUND, reps - drawn))
        out, supports = _bootstrap_chunk(plan, B, None if stop is None else stop - hits)
        results.append(out)
        taken.append(B[:out.shape[1]])
        if supports.shape[1]:
            plan = _add_faces(plan, supports)
        hits += int(np.sum(_hits(out[0], plan.statistic)))
        drawn += out.shape[1]
    return np.concatenate(results, axis=1), plan, np.concatenate(taken), len(results)


def _hits(stats, statistic):
    """The bootstrap statistics that count toward the p-value: J* >= J, to
    rounding (NaN, a screened or bounded replicate, never counts)."""
    return stats >= statistic - 1e-12


def _below(bound, statistic):
    """Upper bounds on J* that fall below the statistic by more than the
    float margins: their replicates cannot count toward the p-value."""
    return bound * (1 + 1e-9) + 1e-12 < statistic - 1e-12


def _bootstrap_chunk(plan, B, need=None):
    """Bootstrap statistics J* for the replicates whose right-hand sides are
    the rows of ``B`` (see ``_draws``), with the KKT residual and the route
    of each replicate's projection (see ``_project``) and an upper bound on
    J*: a (4, L) array; and the supports of the projections, one boolean
    column per projected replicate, in seed order. L is len(B), or, with
    ``need``, the seed-order index of the ``need``-th hit when the round
    holds that many.

    With the plan's recentring ``fit``, a replicate whose upper bound
    N * ||b - fit||^2 falls below the statistic by more than the float
    margins is not projected, and its entries are NaN; it could not have
    counted toward the p-value. A replicate left by that screen whose
    certified interval [lo, up] lies on one side of the statistic by those
    margins is not projected either: its route is INTERVAL, its J* entry
    holds lo and its KKT entry is NaN. The round's rows are drawn before the
    chunk, so the screen and the bounds take one pass over the round, and a
    round that the screen empties returns before the bounds.

    With ``need``, the round is then walked in seed order: an undecided
    replicate is projected only while fewer than ``need`` hits, decided by
    the intervals or by earlier projections, precede it, and the rows past
    the ``need``-th hit are dropped.
    """
    out = np.full((4, len(B)), np.nan)
    supports = np.zeros((plan.WA.shape[1], 0), dtype=bool)
    todo = np.arange(len(B))
    if plan.fit is not None:
        R = B - plan.fit
        todo = np.flatnonzero(~_below(plan.N * np.einsum("ij,ij->i", R, R), plan.statistic))
        if not len(todo):
            return out, supports
    lo, up = _intervals(plan, B[todo], plan.statistic)
    decided = _below(up, plan.statistic) | _below(plan.statistic, lo)
    rows = todo[decided]
    out[0, rows], out[2, rows], out[3, rows] = lo[decided], INTERVAL, up[decided]
    todo = todo[~decided]
    if len(todo):
        # the hits still wanted once the intervals' hits ahead of each
        # undecided replicate are counted
        room = None if need is None else need - np.cumsum(_hits(out[0], plan.statistic))[todo]
        X, rnorm, kkt, route = _project(plan, B[todo], room)
        todo = todo[:len(route)]
        out[1, todo], out[2, todo] = kkt, route
        out[0, todo] = out[3, todo] = plan.N * (rnorm * rnorm)
        supports = X > 0
    if need is not None:
        hits = np.flatnonzero(_hits(out[0], plan.statistic))
        if len(hits) >= need:
            taken = hits[need - 1] + 1
            return out[:, :taken], supports
    return out, supports


def _draws(plan, rng, rows):
    """The weighted, recentred right-hand sides of the next ``rows``
    replicates of a test, one row each, in seed order: the test's generator
    ``rng`` draws the rows' multinomial counts of a path block at once,
    block after block, and the counts are turned into frequencies, recentred
    and weighted as one array. ``_bootstrap`` calls it once per round."""
    draws = np.empty((rows, len(plan.vec)), dtype=np.int64)
    for (_, start, stop), n, p in zip(plan.blocks, plan.counts, plan.probs):
        draws[:, start:stop] = rng.multinomial(n, p, size=rows)
    sizes = np.repeat(plan.counts, [stop - start for _, start, stop in plan.blocks])
    return plan.sqrt_w * (draws / sizes - plan.vec + plan.eta - plan.shift)


def _range_and_dual(sqrt_w, blocks, range_basis):
    """An orthonormal basis of range(WA) = diag(sqrt_w) range(A), by one QR
    of ``range_basis``, an orthonormal basis of range(A) shared by every
    test on the type matrix A; and a dual vector v with WA^T v = 1:
    1/sqrt_w on the first row block, where every type column has one 1."""
    basis, _ = np.linalg.qr(sqrt_w[:, None] * range_basis)
    dual = np.zeros(len(sqrt_w))
    _, start, stop = blocks[0]
    dual[start:stop] = 1.0 / sqrt_w[start:stop]
    return basis, dual


def _no_faces(WA):
    """The faces of a test before any projection: none, and an empty
    working set."""
    rows, cols = WA.shape
    return Faces(np.zeros((0, cols), dtype=bool), np.zeros((0, rows, 0)), np.zeros((0, 0, 0)),
                 np.zeros(0, dtype=int), WA[:, :0], frozenset())


def _add_faces(plan, supports):
    """The plan with the nonempty ``supports`` (one boolean column per
    projection) that its faces lack added as faces, and its working set made
    their union; the plan itself when no support is new. Only ``supports``
    are packed, against the faces' kept keys, and only the new faces'
    inverse Gram matrices are computed; the stacks are padded to the widest
    face."""
    faces = plan.faces
    keys = [key for key in dict.fromkeys(map(bytes, np.packbits(supports.T, axis=1)))
            if key not in faces.keys and any(key)]
    if not keys:
        return plan
    WA = plan.WA
    new = np.unpackbits(np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), -1),
                        axis=1, count=WA.shape[1]).astype(bool)
    sizes = new.sum(axis=1)
    width = max(faces.sub.shape[2], int(sizes.max()))
    sub = np.zeros((len(new), len(WA), width))
    for f, face in enumerate(new):
        sub[f, :, :sizes[f]] = WA[:, face]
    gram = sub.transpose(0, 2, 1) @ sub
    # a projection's support has independent columns, so S^T S is
    # invertible and pinv(S) = inv(S^T S) S^T; a unit diagonal on the
    # padding keeps it invertible and zeroes the padding rows of the
    # inverse's products. Any x >= 0 bounds J*, so a rough inverse costs
    # tightness only.
    padded, diagonal = gram.copy(), np.arange(width)
    padded[:, diagonal, diagonal] += diagonal >= sizes[:, None]
    try:
        inverse = np.linalg.inv(padded)
    except np.linalg.LinAlgError:
        inverse = np.linalg.pinv(gram, hermitian=True)
    supports = np.vstack([faces.supports, new])
    columns = np.flatnonzero(supports.any(axis=0))
    return replace(plan, faces=Faces(supports, _stacked(faces.sub, sub),
                                     _stacked(faces.inverse, inverse), columns, WA[:, columns],
                                     faces.keys.union(keys)))


def _stacked(old, new):
    """``old`` zero-padded to the trailing shape of ``new``, with ``new``
    stacked under it."""
    out = np.zeros((len(old) + len(new),) + new.shape[1:])
    out[(slice(len(old)),) + tuple(map(slice, old.shape[1:]))] = old
    out[len(old):] = new
    return out


def _intervals(plan, B, statistic=None):
    """Certified bounds lo <= J* <= up on the bootstrap statistic of each
    row b of ``B``.

    lo, by weak duality: for y with WA^T y <= 0 and every x >= 0,
    ||b - WA x|| ||y|| >= y^T (b - WA x) >= b^T y, so J* >= N (b^T y)^2 /
    ||y||^2 when b^T y > 0. y is b less its projection onto range(WA) (the
    plan's ``basis``), made dual-feasible against rounding by subtracting
    max(0, max WA^T y) times the plan's ``dual`` vector.

    up, N ||b - WA x||^2 at a feasible x >= 0: per face S, a group of
    faces at a time, the clipped least-squares point max(pinv(WA_S) b, 0),
    pinv(WA_S) = inv(WA_S^T WA_S) WA_S^T, and each replicate keeps its best
    face (x = 0 without faces). A replicate whose interval still meets
    ``statistic`` (every one when it is None) then holds the face's columns
    that the clip zeroed at 0 and solves least squares on the rest
    (``_held_at_zero``), twice, the second time also holding the columns
    the first left at or below 0, and keeps the best residual. Any x >= 0
    bounds J*, however inexact the solve."""
    faces, N, n = plan.faces, plan.N, len(B)
    Y = B - (B @ plan.basis) @ plan.basis.T
    Y -= np.maximum(0.0, (Y @ plan.WA).max(axis=1))[:, None] * plan.dual
    by, yy = np.einsum("ij,ij->i", B, Y), np.einsum("ij,ij->i", Y, Y)
    lo = N * np.divide(by * by, yy, out=np.zeros(n), where=by > 0)

    if not len(faces.supports):
        return lo, N * np.einsum("ij,ij->i", B, B)
    best, face = np.full(n, np.inf), np.zeros(n, dtype=int)
    free = np.zeros((n, faces.sub.shape[2]))
    # a few faces at a time bounds the face-by-replicate stacks alive
    for first in range(0, len(faces.supports), FACE_GROUP):
        sub = faces.sub[first:first + FACE_GROUP]
        P = faces.inverse[first:first + FACE_GROUP] @ (sub.transpose(0, 2, 1) @ B.T)
        R = sub @ np.maximum(P, 0.0)
        R -= B.T
        res = np.einsum("frn,frn->fn", R, R)
        pick = np.argmin(res, axis=0)
        better = np.flatnonzero(res[pick, np.arange(n)] < best)
        best[better], face[better] = res[pick[better], better], first + pick[better]
        free[better] = P[pick[better], :, better]
    rows = np.arange(n)
    if statistic is not None:
        rows = np.flatnonzero(~_below(N * best, statistic) & ~_below(statistic, lo))
    if len(rows):
        f, free = face[rows], free[rows]
        real = np.arange(free.shape[1]) < faces.supports[f].sum(axis=1)[:, None]
        drop = (free <= 0) & real
        for _ in range(2):
            x = _held_at_zero(faces.inverse, f, free, drop)
            if x is None:
                break  # a face of dependent columns: keep the clipped points
            # the face's entries, in column order, into all columns
            full = np.zeros((len(rows), plan.WA.shape[1]))
            full[faces.supports[f]] = np.maximum(x, 0.0)[real]
            R = B[rows] - full @ plan.WA.T
            # fmin: a rough inverse may give NaN, which bounds nothing
            best[rows] = np.fmin(best[rows], np.einsum("ij,ij->i", R, R))
            drop |= (x <= 0) & real
    return lo, N * best


def _held_at_zero(inverse, faces, x, drop):
    """The least-squares points on ``faces`` (indices into the stacked
    inverse Gram matrices H) with the ``drop`` coordinates held at 0, from
    their unconstrained points x: x - H[:, D] H[D, D]^-1 x[D]. None when
    some H[D, D] is singular."""
    width = int(drop.sum(axis=1).max())
    if not width:
        return x
    # each row's dropped coordinates first, padded by kept ones that the
    # identity rows and columns of the block leave out
    order = np.argsort(~drop, axis=1, kind="stable")[:, :width]
    k = np.arange(len(x))[:, None]
    valid = drop[k, order]
    block = inverse[faces[:, None, None], order[:, :, None], order[:, None, :]]
    block *= valid[:, :, None] & valid[:, None, :]
    block[:, np.arange(width), np.arange(width)] += ~valid
    try:
        z = np.linalg.solve(block, (x[k, order] * valid)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return None
    # H is symmetric: its columns D are its rows D
    return x - np.einsum("kdw,kd->kw", inverse[faces[:, None], order], z * valid)


def _exact_order_statistic(plan, B, out, rank):
    """Solve replicates that the interval stage decided, in place in the
    rows of ``out``, until the ``rank``-th smallest J* (0-based) is an
    exactly solved one; ``B`` holds the rows ``_bootstrap`` kept.

    That order statistic lies between L, the rank-th smallest lower bound,
    and U, the rank-th smallest upper bound; an exact J* is both of its
    bounds. A replicate whose interval lies below L or above U by
    ``_below``'s margins stays on its side of the order statistic whatever
    its J*, so only those whose interval meets [L, U] are taken, read from
    their kept rows: first bounded again, once, with every face of the final
    plan and the re-solve, then solved if they still meet it; then L and U
    are taken again."""
    stats, kkt, route, upper = out
    rebounded = np.zeros(len(stats), dtype=bool)
    while True:
        L, U = np.partition(stats, rank)[rank], np.partition(upper, rank)[rank]
        todo = np.flatnonzero((route == INTERVAL) & ~_below(upper, L) & ~_below(U, stats))
        if not len(todo):
            return
        fresh = todo[~rebounded[todo]]
        if len(fresh):
            _, up = _intervals(plan, B[fresh])
            upper[fresh] = np.fmin(upper[fresh], up)
            rebounded[fresh] = True
            continue
        _, rnorm, kkt[todo], route[todo] = _project(plan, B[todo])
        stats[todo] = upper[todo] = plan.N * (rnorm * rnorm)


def _project(plan, B, room=None):
    """NNLS projections of the rows of ``B`` onto the cone of ``plan.WA``,
    each certified on the full matrix as it is made: (solutions, one per
    column; residual norms; KKT residuals; routes), for the problems taken.

    The problems are taken in turn, down a ladder of solves. Each is solved
    on the columns of the plan's working set alone and its solution
    embedded in all columns. One whose KKT conditions hold on the full
    matrix (``_full_check``) is its optimum (Lawson and Hanson's active-set
    argument) and keeps the residual of that check (route WORKING_SET). One
    that fails them is solved again on the working set grown by the columns
    that broke them, those whose gradient entry in that check lies below
    the negative accuracy limit, and checked once on the full matrix; a
    grown point that fails its check grows the set again by the columns
    that broke it, up to ``GROWTHS`` growth steps (route GROWN on a passing
    check). One whose last grown solve fails its check, whose sub-solve
    raises, or whose grown set adds no column or is every column, is solved
    on the full matrix and certified by ``certify_nnls``, whose bvls
    re-solve stays the last resort (route FULL_AGAIN). The support of a
    grown or full solution joins the working set of the problems after it.
    ``run_test`` sends the recentring projection down the same ladder, on
    the point projection's support.

    A working-set point that fails the certificate is still feasible, so its
    squared residual norm bounds the projection's from above. With the
    plan's ``fit``, a problem whose bound falls below the statistic
    (``_below``) is neither grown nor solved again: its route is BOUNDED and
    its residual norm and KKT residual read NaN.

    With ``room``, problem k is taken only while fewer than room[k] of the
    problems before it reach the statistic (``_hits``); the first one that
    may not be taken ends the projections. Without it every problem is
    taken."""
    WA, columns, sub = plan.WA, plan.faces.columns, plan.faces.working
    X = np.zeros((WA.shape[1], len(B)))
    rnorm, kkt = np.full(len(B), np.nan), np.full(len(B), np.nan)
    route = np.full(len(B), FULL_AGAIN)
    taken = hits = 0
    for k, b in enumerate(B):
        if room is not None and hits >= room[k]:
            break
        taken = k + 1
        on, matrix = columns, sub
        for growth in range(1 + GROWTHS):
            try:
                X[on, k], rnorm[k] = nnls_solve(matrix, b)
            except SolverError:
                break
            g, kkt[k], limit = _full_check(WA, X[:, k], b)
            if kkt[k] <= limit:
                route[k] = GROWN if growth else WORKING_SET
                break
            if not growth and plan.fit is not None and \
                    _below(plan.N * rnorm[k] ** 2, plan.statistic):
                route[k], rnorm[k], kkt[k] = BOUNDED, np.nan, np.nan
                break
            grown = np.union1d(on, np.flatnonzero(g < -limit))
            if not len(on) < len(grown) < WA.shape[1]:
                break
            on, matrix = grown, WA[:, grown]
        if route[k] == FULL_AGAIN:
            x, r = nnls_solve(WA, b)
            X[:, k], rnorm[k], kkt[k] = certify_nnls(WA, x, b, r)
        if route[k] in (GROWN, FULL_AGAIN):
            columns = np.union1d(columns, np.flatnonzero(X[:, k] > 0))
            sub = WA[:, columns]
        if room is not None:
            hits += bool(_hits(plan.N * rnorm[k] ** 2, plan.statistic))
    return X[:, :taken], rnorm[:taken], kkt[:taken], route[:taken]


def _full_check(WA, x, b):
    """(gradient WA^T (WA x - b), KKT residual, accuracy limit) of a point x
    >= 0 on the full matrix: the check each working-set or grown solve is
    certified by, once, as it is made."""
    g = WA.T @ (WA @ x - b)
    return (g, *_kkt_of_gradient(g, x, b, KKT_TOL))


def _normalized(block):
    s = block.sum()
    return block / s if s > 0 else np.full_like(block, 1.0 / len(block))


def run_test_eu(rho, lotteries: dict, config: TestConfig = TestConfig()) -> TestReport:
    """The same test on the shared ``type_matrix`` of rankings consistent with
    expected utility over the lotteries, counted per period in its column labels."""
    A = type_matrix(rho.universe, rho.observed_paths, eu_filter=lotteries)
    report = run_test(rho, A, config)
    report.diagnostics["eu_orders_per_period"] = [len(set(c)) for c in zip(*A.col_labels)]
    return report
