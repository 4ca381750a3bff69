"""Deterministic consistency checks for an observed choice-path distribution:
stability, dominance monotonicity, H-systems, exact cone membership,
Block-Marschak extension feasibility, projection-hierarchy feasibility,
revealed-path-dominance, and the sequence-sum audit.

Whatever a check derives from the universe, the geometry and the observed
menu paths alone (its rows, Kronecker factors, reductions and LPs) is
compiled once per such key into a memoised, read-only model (``lru_cache``
of 16); a call gathers rho, does its float work, solves and reads the
result. The stability margins and the iterated differences are one
``RowSystem`` each, a CSR matrix over ``path_vector``'s layout: the checks
multiply it by rho, and the counterfactual model densifies the same
systems into its LP rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.optimize import Bounds, lsq_linear, nnls
from scipy.sparse import csr_array

from .doubledesc import _invert
from .errors import GeometryError, SchemaError, SizeError, SolverError
from .geometry import DemandGeometry, _cell_constraints
from .lp import LinearProgram, compile_lp, optimal, solve, solver_diagnostics
from .model import (ChoiceUniverse, StochasticChoiceFunction, _has_cycle, path_index,
                    path_vector, rho_vector)
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
    on the period-t menu, holding the rest of the path fixed.

    The groups, classes and compared pairs depend only on the universe and
    the observed menu paths, so they are compiled once per pair of them
    (``_compile_stability``); a call sums every class margin in one sparse
    product and compares the pairs."""
    paths = tuple(rho.observed_paths)
    system = _compile_stability(rho.universe, paths)
    if not system.labels:
        return CheckReport("stability", True, 0.0, vacuous=True,
                           diagnostics={"note": "no menu variation off any period"})
    margins = system.matrix @ path_vector(rho, paths)
    diff = margins[system.first] - margins[system.second]
    gaps = np.abs(diff)
    worst = gaps.max()
    if not worst > 0.0:
        worst = 0.0
    violations = tuple(system.labels[k] + (diff[k],) for k in np.flatnonzero(gaps > tol))
    return CheckReport("stability", worst <= tol, worst, violations, {"tolerance": tol})


@dataclass(frozen=True)
class RowSystem:
    """Linear rows over the path-major vector of some menu paths
    (``path_vector``), read-only. ``matrix`` is CSR with each row's signed
    terms stored in the order they are added and never canonicalised, so
    ``matrix @ v`` adds each row up term by term from 0.0 in that order.
    ``labels`` names what a check reports: a row of d-monotonicity, or a
    pair of stability, which compares row ``first[k]`` with row
    ``second[k]``. ``skipped`` counts the rows left out because a menu path
    is not among the paths."""

    matrix: csr_array
    labels: tuple
    skipped: int
    first: np.ndarray | None = None
    second: np.ndarray | None = None


def _csr(rows, signs, blocks: dict) -> csr_array:
    """Read-only CSR of ``rows`` of column indices with their ``signs`` over
    the path-major vector split into ``blocks`` (``path_index``), each row's
    terms stored in the given order."""
    width = sum(map(len, blocks.values()))
    matrix = csr_array((np.array([s for row in signs for s in row], dtype=float),
                        np.array([i for row in rows for i in row], dtype=np.intp),
                        np.cumsum([0, *map(len, rows)])), shape=(len(rows), width))
    for a in (matrix.data, matrix.indices, matrix.indptr):
        _read_only(a)
    return matrix


@lru_cache(maxsize=16)
def _compile_stability(universe: ChoiceUniverse, paths: tuple) -> RowSystem:
    """The stability margins and pairs of the menu ``paths``, in the order
    the check always compared them: groups as ``stability_groups`` yields
    them, classes in the order of a set grown one key at a time (which
    keeps the order of the violation list), then the group's path pairs.
    Row r sums one path's choice paths in one class."""
    blocks = path_index(universe, paths)
    rows, first, second, labels = [], [], [], []
    for t_pos, off_menus, group, classes in stability_groups(universe, paths):
        for oc in {oc for oc in classes}:
            start = len(rows)
            rows += [blocks[path][positions] for path, positions in zip(group, classes[oc])]
            for (g1, p1), (g2, p2) in itertools.combinations(enumerate(group), 2):
                first.append(start + g1)
                second.append(start + g2)
                labels.append((universe.periods[t_pos], off_menus, oc, p1[t_pos], p2[t_pos]))
    pairs = [_read_only(np.array(v, dtype=np.intp)) for v in (first, second)]
    matrix = _csr(rows, [[1.0] * len(row) for row in rows], blocks)
    return RowSystem(matrix, tuple(labels), 0, *pairs)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    unobserved. The differences depend only on the universe, the
    replacement pairs (``dominance_from_universe`` by default) and the
    observed menu paths, so they are compiled once per triple of them
    (``_compile_dmono``); a call evaluates them in one sparse product.
    """
    paths = tuple(rho.observed_paths)
    # the pairs as tuples down to their (menu, position) leaves key the memo
    key = None if dominance is None else tuple(
        (t, tuple((tuple(a), tuple(b)) for a, b in pairs)) for t, pairs in dominance.items())
    system = _compile_dmono(rho.universe, key, paths)
    values = system.matrix @ path_vector(rho, paths)
    worst = values.min(initial=0.0)
    if not worst < 0.0:
        worst = 0.0
    violations = tuple(system.labels[k] + (values[k],) for k in np.flatnonzero(values < -tol))
    evaluated = len(system.labels)
    return CheckReport("d-monotonicity", worst >= -tol, worst, violations,
                       {"tolerance": tol, "evaluated": evaluated, "skipped": system.skipped},
                       vacuous=(evaluated == 0))


@lru_cache(maxsize=16)
def _compile_dmono(universe: ChoiceUniverse, dominance: tuple | None,
                   paths: tuple) -> RowSystem:
    """The rows of ``iterated_differences`` on the menu ``paths``, in its
    order, each labelled (replaced periods, replacement pairs, off menus,
    off choices); ``dominance`` holds the (period, pairs) items of the
    replacement pairs, or None for those of the universe's primitive
    order."""
    dominance = dominance_from_universe(universe) if dominance is None else dict(dominance)
    blocks = path_index(universe, paths)
    rows, signs, labels, skipped = [], [], [], 0
    for subseq, combo, off_menu, off_choice, terms in iterated_differences(
            universe, dominance, paths):
        if terms is None:
            skipped += 1
            continue
        rows.append([blocks[menu_path][position] for _, menu_path, position in terms])
        signs.append([sign for sign, _, _ in terms])
        labels.append((tuple(universe.periods[k] for k in subseq), combo,
                       tuple(sorted(off_menu.items())), tuple(sorted(off_choice.items()))))
    return RowSystem(_csr(rows, signs, blocks), tuple(labels), skipped)


# --- linear inequality systems -----------------------------------------------------

def check_H(rho, H, tol: float = ESTIMATE_TOL) -> CheckReport:
    """Minimum of H v over the assembled vector; passes when >= -tol. ``H`` is
    one InequalityMatrix or a list of per-period ones, applied factor by factor
    as their Kronecker product (the factors are built once per system,
    ``_kron_factors``); ``rho`` is gathered at the system's labels."""
    factors, kind = _kron_factors(H if isinstance(H, InequalityMatrix) else tuple(H))
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


@lru_cache(maxsize=16)
def _kron_factors(H) -> tuple:
    """``kron_system`` of one H-matrix or a tuple of per-period ones, its
    factors read-only."""
    factors, kind = kron_system(H)
    return tuple(_read_only(F) for F in factors), kind


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
    right-hand side is the observed distribution over the observed menu
    paths, path-major, and the stability rows (0); ``b_eq`` carries the 1s
    and 0s of the equality rows. ``witness_columns`` lists each virtual
    menu path with the columns of its choice paths. ``lp`` is compiled
    warm: a solve starts from the basis of the last.
    """

    lp: LinearProgram
    b_eq: np.ndarray
    agreement: slice
    witness_columns: tuple


def bm_extension_feasible(rho: StochasticChoiceFunction):
    """Existence of an agreeing, monotonicity-consistent extension of rho to
    full menu variation satisfying the alternating-sum system.

    One period solves the static system; longer windows use the per-period
    Kronecker system plus stability, which characterizes consistency when
    every period's static mixture is unique (up to three alternatives). The
    LP is compiled once per virtual universe and observed menu paths; the
    size guard runs on every call before anything is built. The compiled
    LP is warm, so in a process that solves one geometry more than once
    the witness and the report's ``max_violation`` can depend on earlier
    solves; the verdict and the solver status do not.
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
    b_eq[model.agreement] = path_vector(rho, paths)
    res = solve(model.lp, np.zeros(n_vars), b_eq=b_eq)
    feasible = optimal(res, "extension", variables=n_vars)
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
                                      "solver": solver_diagnostics(res)})
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

    model = BmModel(compile_lp(-big, A_eq, Bounds(0.0, upper), warm=True), b_eq,
                    agreement, witness_columns)
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
    system and k, the reduced system once per universe and H-matrices
    (``_reduced_system``); validation and the size guard run on every call
    before the LP is built or looked up. The compiled LP is warm, so in a
    process that solves one system more than once the returned z and the
    report's ``max_violation`` can depend on earlier solves; the verdict
    and the solver status do not.
    """
    kept_lists, H_stars = _reduced_system(rho.universe, tuple(H_list))
    validate_replication(k, len(H_stars))
    # size the system from the factor shapes before building anything dense;
    # Gamma has the Kronecker system's columns and no more rows, so the
    # guard bounds it too
    shapes = [np.shape(H_star.rows) for H_star in H_stars]
    rows = math.prod(r ** kt for (r, _), kt in zip(shapes, k))
    cols = math.prod(c ** kt for (_, c), kt in zip(shapes, k))
    if rows * cols > HIERARCHY_ENTRY_GUARD:
        raise SizeError("hierarchy system exceeds the size guard; lower k")
    lp = _compile_hierarchy(H_stars, tuple(k))
    rho_star = pair_vector(rho, kept_lists)
    n_vars = int(lp.A.shape[1])
    res = solve(lp, np.zeros(n_vars), b_eq=rho_star)
    feasible = optimal(res, "hierarchy", k=tuple(k), variables=n_vars)
    report = CheckReport("hierarchy", feasible, 0.0 if feasible else 1.0,
                         diagnostics={"k": tuple(k), "variables": n_vars,
                                      "inequality_rows": lp.n_ub,
                                      "solver": solver_diagnostics(res)})
    return feasible, (res.x if feasible else None), report


@lru_cache(maxsize=16)
def _compile_hierarchy(H_stars: tuple, k: tuple) -> LinearProgram:
    """Build the level-k LP of the reduced H-matrices ``H_stars``: the
    negated Kronecker product of the replicated reduced H-matrices as
    inequality rows, the averaging operator Gamma as equality rows (the
    reduced observed vector fills their right-hand side), free variables,
    compiled warm."""
    ops = projection_ops(H_stars, k)
    big = reduce(np.kron, [np.asarray(H_star.full(), dtype=float)
                           for H_star, kt in zip(H_stars, k) for _ in range(kt)])
    return compile_lp(-big, ops.Gamma_float(), Bounds(-np.inf, np.inf), warm=True)


@lru_cache(maxsize=16)
def _reduced_system(universe: ChoiceUniverse, H_list: tuple) -> tuple:
    """(kept labels per period, reduced H-matrices) of the per-period
    ``H_list`` on the universe: ``reduce_H`` of each over its period's
    ``reduced_static_labels``."""
    reductions = [reduced_static_labels(universe, t) for t in universe.periods]
    return (tuple(kept for kept, _ in reductions),
            tuple(reduce_H(H, kept, dropped) for H, (kept, dropped) in zip(H_list, reductions)))


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


def check_sarpd(rho: StochasticChoiceFunction, geometry: DemandGeometry,
                tol: float = ESTIMATE_TOL) -> CheckReport:
    """Mass on choice paths whose patches contain a revealed-preference cycle.

    The weak relation runs from a chosen patch to every patch reachable in
    its budget (minimum expenditure at the chooser's prices no larger than
    its wealth); any directed cycle over distinct cells marks the path, and
    under constant utility marked paths must carry zero probability. Which
    paths are marked depends only on the demand geometry, whose menus must
    be the universe's, so it is compiled once per geometry and observed
    menu paths; a call sums the marked masses.
    """
    geometry.check_universe(rho.universe)
    if geometry.universe.periods != rho.universe.periods:
        raise SchemaError("sarpd needs the budgets of every period of the universe")
    paths = tuple(rho.observed_paths)
    model = _compile_sarpd(geometry, paths)
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
def _compile_sarpd(geometry: DemandGeometry, paths: tuple) -> SarpdModel:
    """Mark the cyclic choice paths of one geometry on the menu ``paths``.

    ``cells`` maps each (period, patch label) to the cell's identity (its
    budget's exact prices and expenditure and its sorted signs against the
    period's other budgets, so a cell that recurs in another period is one
    node), its budget and its constraint inputs. Cell b is reachable from
    cell a when both lie on budgets of one identity, else when b's minimum
    spend at a's prices lies more than 1e-9 below a's wealth: a reachable
    point must exist inside the open cell. That LP is solved once per (b's
    identity, a's budget), in the order the paths first reach it.
    """
    cells = {}
    for t, budgets in geometry.budgets.items():
        for patch in geometry.patches[t]:
            own = next(b for b in budgets if b.index == patch.budget)
            others = [b for b in budgets if b is not own]
            identity = ((own.prices, own.expenditure), tuple(sorted(
                ((b.prices, b.expenditure), patch.sign_vector[b.index]) for b in others)))
            cells[t, patch.label] = identity, own, others, patch.sign_vector
    uni = geometry.universe
    spend, marked_by_path, seen = {}, [], set()
    for path in paths:
        marked = []
        for pos, cp in enumerate(uni.choice_paths(path)):
            # a cell met in two periods keeps its first place and its last inputs
            nodes = {cell[0]: cell for cell in (cells[t, (j, i)]
                                                for t, j, i in zip(uni.periods, path, cp))}
            seen.update(nodes)
            adj = {a: set() for a in nodes}
            for a, (_, chooser, _, _) in nodes.items():
                for b, (_, own, others, signs) in nodes.items():
                    if b == a:
                        continue
                    if a[0] != b[0] and (b, a[0]) not in spend:
                        A_eq, b_eq, A_ub, b_ub = _cell_constraints(own, others, signs)
                        res = solve(compile_lp(A_ub, A_eq, Bounds(-np.inf, np.inf)),
                                    chooser.p(), b_ub, b_eq)
                        spend[b, a[0]] = res.fun if optimal(res, "reachability") else np.inf
                    if a[0] == b[0] or spend[b, a[0]] < chooser.w() - 1e-9:
                        adj[a].add(b)
            if _has_cycle(nodes, adj):
                marked.append((pos, cp))
        marked_by_path.append(tuple(marked))
    return SarpdModel(tuple(marked_by_path), len(seen))


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
