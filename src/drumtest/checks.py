"""Deterministic consistency checks for an observed choice-path distribution:
stability, dominance monotonicity, H-systems, exact cone membership,
Block-Marschak extension feasibility, projection-hierarchy feasibility,
revealed-path-dominance, and the sequence-sum audit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.optimize import Bounds, lsq_linear, nnls

from .doubledesc import _invert
from .errors import GeometryError, SchemaError, SizeError, SolverError
from .geometry import _cell_constraints
from .lp import LinearProgram, compile_lp, solve, solver_diagnostics
from .model import ChoiceUniverse, StochasticChoiceFunction, _has_cycle, rho_vector
from .representations import (InequalityMatrix, TypeMatrix, bm_matrix, full_pair_lists,
                              kron_apply, kron_system, pair_vector, projection_ops, reduce_H,
                              reduced_labels, static_row_labels, validate_replication,
                              virtual_universe)

ESTIMATE_TOL = 1e-9
FEASIBILITY_TOL = 1e-8
KKT_TOL = 1e-10
# entries of the largest extension and hierarchy LP systems that may be built
BM_ENTRY_GUARD = 2_000_000
HIERARCHY_ENTRY_GUARD = 5_000_000


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_violation: float
    violations: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    vacuous: bool = False

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": bool(self.passed),
            "worst_violation": float(self.worst_violation),
            "violations": [repr(v) for v in self.violations[:20]],
            "vacuous": self.vacuous,
            "diagnostics": {k: _plain(v) for k, v in self.diagnostics.items()},
        }


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


# --- stability ------------------------------------------------------------------

def stability_groups(universe: ChoiceUniverse, paths):
    """Groups of menu paths that differ only in one period's menu.

    Yields ``(t_pos, off_menus, group, classes)`` for every group of two or
    more paths (in the given order) that share the menus ``off_menus`` off
    position ``t_pos``. ``classes`` maps each off-period choice, in order of
    first appearance, to one list per path of the choice-path positions that
    carry it; stability equates the class sums across the group.
    """
    for t_pos in range(universe.num_periods):
        groups = {}
        for path in paths:
            groups.setdefault(path[:t_pos] + path[t_pos + 1:], []).append(path)
        for off_menus, group in groups.items():
            if len(group) < 2:
                continue
            classes = {}
            for g, path in enumerate(group):
                for pos, cp in enumerate(universe.choice_paths(path)):
                    oc = cp[:t_pos] + cp[t_pos + 1:]
                    classes.setdefault(oc, [[] for _ in group])[g].append(pos)
            yield t_pos, off_menus, group, classes


def check_stability(rho: StochasticChoiceFunction, tol: float = ESTIMATE_TOL) -> CheckReport:
    """Marginal invariance: summing out the period-t choice must not depend
    on the period-t menu, holding the rest of the path fixed."""
    uni = rho.universe
    worst = 0.0
    violations = []
    testable = False
    for t_pos, off_menus, group, classes in stability_groups(uni, rho.observed_paths):
        testable = True
        arrs = [np.asarray(rho.probs[path], dtype=float) for path in group]
        # a set grown one key at a time, as this check always used, keeps the
        # order of the violation list
        for oc in {oc for oc in classes}:
            vals = []
            for path, arr, positions in zip(group, arrs, classes[oc]):
                margin = 0.0
                for pos in positions:
                    margin += arr[pos]
                vals.append((path[t_pos], margin))
            for (j1, v1), (j2, v2) in itertools.combinations(vals, 2):
                gap = abs(v1 - v2)
                if gap > worst:
                    worst = gap
                if gap > tol:
                    violations.append((uni.periods[t_pos], off_menus, oc, j1, j2, v1 - v2))
    if not testable:
        return CheckReport("stability", True, 0.0, vacuous=True,
                           diagnostics={"note": "no menu variation off any period"})
    return CheckReport("stability", worst <= tol, worst, tuple(violations),
                       {"tolerance": tol})


# --- dominance monotonicity --------------------------------------------------------

def dominance_from_universe(universe: ChoiceUniverse) -> dict:
    """Per-period replacement pairs ((j', i'), (j, i)) induced by the
    singleton primitive-order pairs, ranging over all menus containing the
    items."""
    out = {}
    for t in universe.periods:
        pairs = []
        for dom, sub in universe.primitive_order.get(t, ()):
            if len(dom) != 1 or len(sub) != 1:
                continue
            dom_item, sub_item = next(iter(dom)), next(iter(sub))
            for m_dom in universe.menus[t]:
                if dom_item not in m_dom.items:
                    continue
                for m_sub in universe.menus[t]:
                    if sub_item not in m_sub.items:
                        continue
                    pairs.append(((m_dom.index, m_dom.position(dom_item)),
                                  (m_sub.index, m_sub.position(sub_item))))
        out[t] = pairs
    return out


def iterated_differences(universe: ChoiceUniverse, dominance: dict, paths):
    """Every signed iterated difference along dominant replacements over an
    increasing period subsequence, the unreplaced periods held fixed.

    Yields ``(subseq, combo, off_menu, off_choice, terms)``: the replaced
    positions, their replacement pairs, the menus and choices of the other
    positions, and the ``(sign, menu_path, position)`` summands, ``position``
    the choice path's index in ``universe.choice_paths(menu_path)``, or None
    when a menu path is not among ``paths`` (a skipped combination).
    """
    periods = universe.periods
    n = len(periods)
    positions = {path: {cp: k for k, cp in enumerate(universe.choice_paths(path))}
                 for path in paths}
    t_positions = [k for k, t in enumerate(periods) if dominance.get(t)]
    for size in range(1, len(t_positions) + 1):
        for subseq in itertools.combinations(t_positions, size):
            subsets = list(itertools.chain.from_iterable(
                itertools.combinations(subseq, m) for m in range(size + 1)))
            for combo in itertools.product(*[dominance[periods[k]] for k in subseq]):
                base_menu = {k: pair[1][0] for k, pair in zip(subseq, combo)}
                base_choice = {k: pair[1][1] for k, pair in zip(subseq, combo)}
                repl_menu = {k: pair[0][0] for k, pair in zip(subseq, combo)}
                repl_choice = {k: pair[0][1] for k, pair in zip(subseq, combo)}
                off = [k for k in range(n) if k not in subseq]
                for off_menu, off_choice in _off_combinations(universe, paths, off, base_menu):
                    terms = []
                    for S in subsets:
                        menu_path = tuple(
                            repl_menu[k] if k in S else base_menu.get(k, off_menu.get(k))
                            for k in range(n))
                        cp = tuple(
                            repl_choice[k] if k in S else base_choice.get(k, off_choice.get(k))
                            for k in range(n))
                        position = positions.get(menu_path, {}).get(cp)
                        if position is None:
                            terms = None
                            break
                        terms.append(((-1) ** (size - len(S)), menu_path, position))
                    yield subseq, combo, off_menu, off_choice, terms


def _off_combinations(universe: ChoiceUniverse, paths, off_positions, base_menu):
    """(menu, choice) assignments for the unreplaced periods, read from the
    paths compatible with the base menus."""
    if not off_positions:
        return [({}, {})]
    combos = []
    seen_menu = set()
    for path in paths:
        if any(path[k] != j for k, j in base_menu.items()):
            continue
        off_menu = {k: path[k] for k in off_positions}
        key = tuple(sorted(off_menu.items()))
        if key in seen_menu:
            continue
        seen_menu.add(key)
        ranges = [range(1, universe.menu(universe.periods[k], off_menu[k]).size + 1)
                  for k in off_positions]
        for choice in itertools.product(*ranges):
            combos.append((off_menu, dict(zip(off_positions, choice))))
    return combos


def check_d_monotonicity(rho: StochasticChoiceFunction, dominance: dict | None = None,
                         tol: float = ESTIMATE_TOL) -> CheckReport:
    """Signed iterated differences along dominant replacements over every
    increasing period subsequence must be nonnegative.

    Only paths whose replaced coordinates differ enter each difference; a
    combination is skipped (and counted) when one of its menu paths is
    unobserved.
    """
    uni = rho.universe
    if dominance is None:
        dominance = dominance_from_universe(uni)
    probs = {path: np.asarray(rho.probs[path], dtype=float) for path in rho.observed_paths}
    periods = uni.periods
    worst = 0.0
    violations = []
    skipped = 0
    evaluated = 0
    for subseq, combo, off_menu, off_choice, terms in iterated_differences(
            uni, dominance, rho.observed_paths):
        if terms is None:
            skipped += 1
            continue
        evaluated += 1
        value = 0.0
        for sign, menu_path, position in terms:
            value += sign * probs[menu_path][position]
        if value < worst:
            worst = value
        if value < -tol:
            violations.append((tuple(periods[k] for k in subseq), combo,
                               tuple(sorted(off_menu.items())),
                               tuple(sorted(off_choice.items())), value))
    return CheckReport("d-monotonicity", worst >= -tol, worst, tuple(violations),
                       {"tolerance": tol, "evaluated": evaluated, "skipped": skipped},
                       vacuous=(evaluated == 0))


# --- linear inequality systems -----------------------------------------------------

def check_H(rho, H, tol: float = ESTIMATE_TOL) -> CheckReport:
    """Minimum of H v over the assembled vector; passes when >= -tol. ``H`` is
    one InequalityMatrix or a list of per-period ones, applied factor by factor
    as their Kronecker product; ``rho`` is gathered at the system's labels."""
    factors, kind = kron_system(H)
    if not isinstance(rho, StochasticChoiceFunction):
        vec = np.asarray(rho, dtype=float)
        if vec.shape[0] != math.prod(F.shape[1] for F in factors):
            raise SchemaError("vector length does not match the H column space")
    elif isinstance(H, InequalityMatrix):
        vec = rho_vector(rho, H.col_labels)
    else:
        vec = pair_vector(rho, [H_t.col_labels for H_t in H])
    vals = kron_apply(factors, vec)
    worst = float(vals.min()) if len(vals) else 0.0
    violations = tuple(int(i) for i in np.nonzero(vals < -tol)[0][:50])
    return CheckReport("h-representation", worst >= -tol, min(worst, 0.0), violations,
                       {"tolerance": tol, "min_row_value": worst, "kind": kind,
                        "inequality_rows": len(vals), "columns": len(vec)})


# --- cone membership ------------------------------------------------------------------

def nnls_projection(A: np.ndarray, b: np.ndarray):
    """Nonnegative least squares with a KKT-residual certificate: (x,
    residual norm, KKT residual)."""
    x, rnorm = nnls_solve(A, b)
    return certify_nnls(A, x, b, rnorm)


def nnls_solve(A: np.ndarray, b: np.ndarray):
    """(x, ||Ax - b||) minimising ||Ax - b|| over x >= 0, by scipy's
    active-set ``nnls``; the package's one call of it. A matrix without
    columns has only x = 0 (scipy would abort the process on it)."""
    if not A.shape[1]:
        return np.zeros(0), float(np.linalg.norm(b))
    try:
        x, rnorm = nnls(A, b)
    except RuntimeError as exc:
        raise SolverError(f"nonnegative least squares failed: {exc}") from exc
    return x, float(rnorm)


def certify_nnls(A: np.ndarray, x: np.ndarray, b: np.ndarray, rnorm):
    """Certify a nonnegative least-squares solution x of min ||Ax - b||
    with residual norm ``rnorm`` by its KKT residual: the worst negative
    gradient entry and the worst gradient entry on the support.

    A residual above the accuracy tolerance has the problem solved again by
    bounded-variable least squares, whose solution and residual norm
    replace x and ``rnorm``. Returns (x, rnorm, KKT residual); raises
    SolverError when the re-solve fails the check too."""
    kkt, limit = _kkt_residual(A, x, b, KKT_TOL)
    if kkt > limit:
        x = lsq_linear(A, b, bounds=(0, np.inf), method="bvls").x
        rnorm = float(np.linalg.norm(A @ x - b))
        kkt = _kkt_residual(A, x, b, KKT_TOL)[0]
        if kkt > limit:
            raise SolverError("cone projection did not reach the required accuracy",
                              {"kkt_residual": float(kkt), "kkt_limit": float(limit)})
    return x, rnorm, float(kkt)


def _kkt_residual(A, x, b, kkt_tol):
    """(KKT residual, accuracy limit) of NNLS solutions, per column of x."""
    return _kkt_of_gradient(A.T @ (A @ x - b), x, b, kkt_tol)


def _kkt_of_gradient(g, x, b, kkt_tol):
    """``_kkt_residual`` from the gradients g = A^T (A x - b), which the
    caller keeps unchanged."""
    negative = 0.0 - np.min(g, axis=0, initial=0.0)
    kkt = np.maximum(negative, np.max(np.abs(g), axis=0, initial=0.0, where=x > 1e-12))
    return kkt, kkt_tol * np.maximum(1.0, np.max(np.abs(b), axis=0)) * 100


def cone_membership(rho, A: TypeMatrix, tol: float = FEASIBILITY_TOL):
    """Euclidean distance from the vector to the column cone of A.

    Returns (distance, weights, report); consistency means distance <= tol.
    """
    dense = A.dense().astype(float)
    if isinstance(rho, StochasticChoiceFunction):
        b = rho_vector(rho, A.row_labels)
    else:
        b = np.asarray(rho, dtype=float)
        if b.shape[0] != dense.shape[0]:
            raise SchemaError("vector length does not match the type-matrix rows")
    x, distance, kkt = nnls_projection(dense, b)
    passed = distance <= tol
    report = CheckReport("cone-membership", passed, max(0.0, distance - tol),
                         diagnostics={"distance": distance, "kkt_residual": kkt,
                                      "tolerance": tol, "weight_mass": float(x.sum())})
    return distance, x, report


# --- unique recovery (two intersecting budgets per period) ----------------------------

SIMPLE_A = np.array([[1, 1, 0],
                     [0, 0, 1],
                     [1, 0, 0],
                     [0, 1, 1]], dtype=int)


def simple_recovery_matrix() -> np.ndarray:
    """Exact left inverse (A'A)^{-1}A' of the one-period simple-setup matrix."""
    A = SIMPLE_A.tolist()
    AtA = [[sum(A[r][i] * A[r][j] for r in range(4)) for j in range(3)] for i in range(3)]
    inv = _invert(AtA)
    H = [[sum(inv[i][k] * A[r][k] for k in range(3)) for r in range(4)] for i in range(3)]
    return np.array([[float(v) for v in row] for row in H])


def unique_recovery(rho: StochasticChoiceFunction):
    """Closed-form mixture recovery for the two-budget setup.

    Applies the Kronecker power of the exact one-period left inverse to the
    full path vector, factor by factor; valid (nonnegative, reproducing rho)
    exactly when rho is stable and dominance-monotone.
    """
    uni = rho.universe
    for t in uni.periods:
        menus = uni.menus[t]
        if len(menus) != 2 or any(m.size != 2 for m in menus):
            raise GeometryError("unique recovery needs 2 budgets with 2 patches each")
    vec = pair_vector(rho, full_pair_lists(uni))
    nu = kron_apply([simple_recovery_matrix()] * uni.num_periods, vec)
    residual = float(np.abs(kron_apply([SIMPLE_A] * uni.num_periods, nu) - vec).max())
    diagnostics = {"min_weight": float(nu.min()), "reconstruction_residual": residual}
    return nu, diagnostics


# --- Block-Marschak extension ---------------------------------------------------------

@dataclass(frozen=True)
class BmModel:
    """Fixed LP of the Block-Marschak extension for one virtual universe and
    set of observed menu paths; arrays are read-only.

    ``lp`` holds the negated alternating-sum rows (right-hand side 0), then
    the simplex rows (1), the agreement rows at ``agreement``, whose
    right-hand side is the observed distribution gathered at
    ``agreement_labels``, and the stability rows (0); ``b_eq`` carries the
    1s and 0s of the equality rows. ``witness_columns`` lists each virtual
    menu path with the columns of its choice paths.
    """

    lp: LinearProgram
    b_eq: np.ndarray
    agreement: slice
    agreement_labels: tuple
    witness_columns: tuple


def bm_extension_feasible(rho: StochasticChoiceFunction):
    """Existence of an agreeing, monotonicity-consistent extension of rho to
    full menu variation satisfying the alternating-sum system.

    One period solves the static system; longer windows use the per-period
    Kronecker system plus stability, which characterizes consistency when
    every period's static mixture is unique (up to three alternatives). The
    LP is compiled once per virtual universe and observed menu paths; the
    size guard runs on every call before anything is built.
    """
    uni = rho.universe
    vuni = virtual_universe(uni)
    # the per-period system stacks the alternating-sum rows over nonnegativity
    dims = [len(static_row_labels(vuni, t)) for t in vuni.periods]
    n_vars = math.prod(dims)
    n_ineq = math.prod(2 * d for d in dims)
    if n_ineq * n_vars > BM_ENTRY_GUARD:
        raise SizeError("Block-Marschak system exceeds the size guard")
    paths = tuple(rho.observed_paths)
    model = _compile_bm(vuni, paths)
    b_eq = model.b_eq.copy()
    b_eq[model.agreement] = rho_vector(rho, model.agreement_labels)
    res = solve(model.lp, np.zeros(n_vars), b_eq=b_eq)
    solver = solver_diagnostics(res)
    if res.status not in (0, 2):
        raise SolverError(f"extension LP returned status {res.status}: {res.message}",
                          {"solver": solver, "variables": n_vars})
    feasible = res.status == 0
    witness = None
    if feasible:
        probs = {}
        for menu_path, cols in model.witness_columns:
            v = np.clip(res.x[cols], 0.0, None)
            probs[menu_path] = v / v.sum()
        witness = StochasticChoiceFunction._trusted(vuni, probs)
    report = CheckReport("bm-extension", feasible, 0.0 if feasible else 1.0,
                         diagnostics={"status": int(res.status), "variables": n_vars,
                                      "inequality_rows": model.lp.n_ub,
                                      "solver": solver})
    return feasible, witness, report


@lru_cache(maxsize=16)
def _compile_bm(vuni: ChoiceUniverse, paths: tuple) -> BmModel:
    """Build the extension LP of one virtual universe and tuple of observed
    menu paths. A dynamic type is a product of static ones, so every block
    is a Kronecker product of per-period factors over
    ``full_pair_lists(vuni)``, period 1 slowest; ``member[t]`` has one row
    per menu of period t marking that menu's (menu, position) pairs."""
    pair_lists = full_pair_lists(vuni)
    dims = [len(p) for p in pair_lists]
    n_vars = math.prod(dims)
    big = reduce(np.kron, [np.asarray(bm_matrix(vuni, t).full(), dtype=float)
                           for t in vuni.periods])
    member = [np.array([[float(j == menu) for j, _ in pairs] for menu in vuni.menu_indices(t)])
              for t, pairs in zip(vuni.periods, pair_lists)]

    # simplex per virtual menu path, in itertools.product order
    simplex = reduce(np.kron, member)
    menu_paths = itertools.product(*[vuni.menu_indices(t) for t in vuni.periods])
    witness_columns = tuple((path, np.flatnonzero(row)) for path, row in zip(menu_paths, simplex))

    # agreement with the observed distribution (observed menus keep their
    # indices in the virtual universe, so their choice paths are the same)
    columns = dict(witness_columns)
    agreement_rows = np.eye(n_vars)[np.concatenate([columns[path] for path in paths])]
    agreement_labels = tuple((path, cp) for path in paths for cp in vuni.choice_paths(path))
    agreement = slice(len(simplex), len(simplex) + len(agreement_rows))

    # stability across virtual menus (needed beyond one period): each menu's
    # period-t marginal equals the first menu's, every other pair held fixed
    blocks = [simplex, agreement_rows]
    if vuni.num_periods > 1:
        for t_pos, m in enumerate(member):
            rows = np.kron(m[1:] - m[0], np.eye(n_vars // dims[t_pos]))
            # the product's columns run (period t, other periods); move the
            # period-t axis into place
            rest = dims[:t_pos] + dims[t_pos + 1:]
            rows = np.moveaxis(rows.reshape(len(rows), dims[t_pos], *rest), 1, 1 + t_pos)
            blocks.append(rows.reshape(-1, n_vars))
    A_eq = np.vstack(blocks)
    b_eq = np.zeros(len(A_eq))
    b_eq[:len(simplex)] = 1.0

    # monotonicity zeros from the primitive order
    dominated = [_iu_dominated_pairs(vuni, t) for t in vuni.periods]
    upper = reduce(np.kron, [np.array([pair not in d for pair in pairs], dtype=float)
                             for pairs, d in zip(pair_lists, dominated)])

    model = BmModel(compile_lp(-big, A_eq, Bounds(0.0, upper)), b_eq,
                    agreement, agreement_labels, witness_columns)
    for a in (model.b_eq, *(cols for _, cols in witness_columns)):
        a.flags.writeable = False
    return model


def _iu_dominated_pairs(universe: ChoiceUniverse, t) -> set:
    """(menu, position) pairs whose item is beaten, inside its own menu, by a
    declared dominant subset."""
    dominated = set()
    for menu in universe.menus[t]:
        items = set(menu.items)
        for dom, sub in universe.primitive_order.get(t, ()):
            if len(sub) == 1 and set(dom) <= items:
                target = next(iter(sub))
                if target in items:
                    dominated.add((menu.index, menu.position(target)))
    return dominated


# --- projection hierarchy ---------------------------------------------------------------

def hierarchy_feasible(rho: StochasticChoiceFunction, H_list: list, k: tuple):
    """Level-k feasibility of the replication hierarchy.

    Feasibility of {Gamma z = rho*, (kron of replicated reduced H) z >= 0} is
    necessary for consistency at every k; infeasibility is a rejection
    certificate. With k = all ones the system pins z = rho* and reduces to
    the reduced Kronecker H-check. The LP is compiled once per reduced
    system and k; validation and the size guard run on every call first.
    """
    uni = rho.universe
    reductions = [reduced_static_labels(uni, t) for t in uni.periods]
    H_stars = [reduce_H(H, kept, dropped) for H, (kept, dropped) in zip(H_list, reductions)]
    validate_replication(k, len(H_stars))
    # size the system from the factor shapes before building anything dense;
    # Gamma has the Kronecker system's columns and no more rows, so the
    # guard bounds it too
    shapes = [np.shape(H_star.rows) for H_star in H_stars]
    rows = math.prod(r ** kt for (r, _), kt in zip(shapes, k))
    cols = math.prod(c ** kt for (_, c), kt in zip(shapes, k))
    if rows * cols > HIERARCHY_ENTRY_GUARD:
        raise SizeError("hierarchy system exceeds the size guard; lower k")
    lp = _compile_hierarchy(tuple(H_stars), tuple(k))
    rho_star = pair_vector(rho, [list(kept) for kept, _ in reductions])
    n_vars = int(lp.A.shape[1])
    res = solve(lp, np.zeros(n_vars), b_eq=rho_star)
    solver = solver_diagnostics(res)
    if res.status not in (0, 2):
        raise SolverError(f"hierarchy LP returned status {res.status}: {res.message}",
                          {"solver": solver, "k": tuple(k), "variables": n_vars})
    feasible = res.status == 0
    report = CheckReport("hierarchy", feasible, 0.0 if feasible else 1.0,
                         diagnostics={"k": tuple(k), "variables": n_vars,
                                      "inequality_rows": lp.n_ub,
                                      "solver": solver})
    return feasible, (res.x if feasible else None), report


@lru_cache(maxsize=16)
def _compile_hierarchy(H_stars: tuple, k: tuple) -> LinearProgram:
    """Build the level-k LP of the reduced H-matrices ``H_stars``: the
    negated Kronecker product of the replicated reduced H-matrices as
    inequality rows, the averaging operator Gamma as equality rows (the
    reduced observed vector fills their right-hand side), free variables."""
    ops = projection_ops(H_stars, k)
    big = reduce(np.kron, [np.asarray(H_star.full(), dtype=float)
                           for H_star, kt in zip(H_stars, k) for _ in range(kt)])
    return compile_lp(-big, ops.Gamma_float(), Bounds(-np.inf, np.inf))


def reduced_static_labels(universe: ChoiceUniverse, t):
    """Kept/dropped static labels of the period (``reduced_labels``)."""
    return reduced_labels(static_row_labels(universe, t))


# --- revealed path dominance ---------------------------------------------------------

@dataclass(frozen=True)
class SarpdModel:
    """Revealed path dominance of one geometry: ``marked[n]`` lists the
    (position, choice path) pairs of the n-th observed menu path whose cells
    carry a revealed-preference cycle; ``cells`` counts the distinct cells
    on observed choice paths."""

    marked: tuple
    cells: int


def check_sarpd(rho: StochasticChoiceFunction, budgets_by_period: dict,
                patches_by_period: dict, tol: float = ESTIMATE_TOL) -> CheckReport:
    """Mass on choice paths whose patches contain a revealed-preference cycle.

    The weak relation runs from a chosen patch to every patch reachable in
    its budget (minimum expenditure at the chooser's prices no larger than
    its wealth); any directed cycle over distinct cells marks the path, and
    under constant utility marked paths must carry zero probability. Which
    paths are marked depends only on the geometry, so it is compiled once
    per universe, budgets, patches and observed menu paths; a call sums the
    marked masses.
    """
    uni = rho.universe
    periods = uni.periods
    paths = tuple(rho.observed_paths)
    model = _compile_sarpd(uni, tuple(tuple(budgets_by_period[t]) for t in periods),
                           tuple(tuple(patches_by_period[t]) for t in periods), paths)
    cyclic_mass = 0.0
    cyclic_paths = []
    for path, marked in zip(paths, model.marked):
        arr = np.asarray(rho.probs[path], dtype=float)
        for pos, cp in marked:
            mass = arr[pos]
            cyclic_mass += float(mass)
            if mass > tol:
                cyclic_paths.append((path, cp, float(mass)))
    return CheckReport("sarpd", cyclic_mass <= tol, cyclic_mass, tuple(cyclic_paths),
                       {"tolerance": tol, "cyclic_mass": cyclic_mass, "cells": model.cells,
                        "cyclic_choice_paths": sum(len(m) for m in model.marked)})


@lru_cache(maxsize=16)
def _compile_sarpd(uni: ChoiceUniverse, budgets: tuple, patches: tuple,
                   paths: tuple) -> SarpdModel:
    """Mark the cyclic choice paths of one geometry: ``budgets`` and
    ``patches`` hold per period the budget tuple and the patch tuple."""
    patch_by_label = {t: {p.label: p.sign_vector for p in period_patches}
                      for t, period_patches in zip(uni.periods, patches)}
    budget_by_index = {t: {b.index: b for b in blist} for t, blist in zip(uni.periods, budgets)}
    budgets_by_period = dict(zip(uni.periods, budgets))
    min_cache = {}

    def geom_key(t, label):
        own = budget_by_index[t][label[0]]
        own_key = (tuple(own.prices), own.expenditure)
        signs = tuple(sorted(((tuple(budget_by_index[t][j].prices),
                               budget_by_index[t][j].expenditure), s)
                             for j, s in patch_by_label[t][label].items()))
        return (own_key, signs)

    def min_spend(t_cell, label, prices_key):
        key = (geom_key(t_cell, label), prices_key)
        if key in min_cache:
            return min_cache[key]
        own = budget_by_index[t_cell][label[0]]
        others = [b for b in budgets_by_period[t_cell] if b.index != label[0]]
        A_eq, b_eq, A_ub, b_ub = _cell_constraints(own, others, patch_by_label[t_cell][label])
        p = np.array(prices_key[0], dtype=float)
        res = solve(compile_lp(A_ub, A_eq, Bounds(-np.inf, np.inf)), p, b_ub, b_eq)
        val = res.fun if res.status == 0 else np.inf
        min_cache[key] = val
        return val

    marked_by_path = []
    all_cells = set()
    for path in paths:
        marked = []
        for pos, cp in enumerate(uni.choice_paths(path)):
            cells = []
            for t, j, i in zip(uni.periods, path, cp):
                if (j, i) not in patch_by_label[t]:
                    raise SchemaError(f"choice ({j}, {i}) in period {t} is not a patch of "
                                      "the supplied geometry")
                cells.append((t, (j, i)))
            uniq = {}
            for t, label in cells:
                uniq[geom_key(t, label)] = (t, label)
            all_cells.update(uniq)
            if len(uniq) < 2:
                continue
            nodes = list(uniq)
            adj = {a: set() for a in nodes}
            for a in nodes:
                t_a, label_a = uniq[a]
                own = budget_by_index[t_a][label_a[0]]
                w_a = own.w()
                prices_key = (tuple(float(v) for v in own.prices), float(own.expenditure))
                for b in nodes:
                    if a == b:
                        continue
                    t_b, label_b = uniq[b]
                    other = budget_by_index[t_b][label_b[0]]
                    same_budget = (tuple(float(v) for v in other.prices),
                                   float(other.expenditure)) == prices_key
                    # a reachable point must exist inside the open cell:
                    # strictly cheaper somewhere, or expenditure-tied on the
                    # same hyperplane
                    if same_budget or min_spend(t_b, label_b, prices_key) < w_a - 1e-9:
                        adj[a].add(b)
            if _has_cycle(nodes, adj):
                marked.append((pos, cp))
        marked_by_path.append(tuple(marked))
    return SarpdModel(tuple(marked_by_path), len(all_cells))


# --- sequence-sum audit ------------------------------------------------------------------

@dataclass(frozen=True)
class AdsrpReport:
    gap: float
    counts: dict
    length: int
    disproves: bool


def adsrp_audit(rho: StochasticChoiceFunction, A: TypeMatrix, max_len: int = 8) -> AdsrpReport:
    """Greedy-plus-swaps search for a sequence of path entries whose summed
    probability exceeds the best single type's score; a positive gap
    disproves consistency, absence at bounded length proves nothing."""
    dense = A.dense().astype(float)
    vec = rho_vector(rho, A.row_labels)
    n = len(vec)

    def score(counts):
        return float(counts @ vec - (counts @ dense).max())

    counts = np.zeros(n)
    best_counts, best_gap = counts.copy(), score(counts)
    for _ in range(max_len):
        gains = [score(counts + _unit(n, r)) for r in range(n)]
        r = int(np.argmax(gains))
        counts = counts + _unit(n, r)
        if gains[r] > best_gap:
            best_gap, best_counts = gains[r], counts.copy()
    improved = True
    while improved:
        improved = False
        support = np.nonzero(best_counts)[0]
        for r_out in support:
            for r_in in range(n):
                if r_in == r_out:
                    continue
                trial = best_counts + _unit(n, r_in) - _unit(n, r_out)
                g = score(trial)
                if g > best_gap + 1e-12:
                    best_gap, best_counts, improved = g, trial, True
    labels = {A.row_labels[r]: int(c) for r, c in enumerate(best_counts) if c > 0}
    return AdsrpReport(best_gap, labels, int(best_counts.sum()), best_gap > FEASIBILITY_TOL)


def _unit(n, r):
    u = np.zeros(n)
    u[r] = 1.0
    return u
