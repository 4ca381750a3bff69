"""V- and H-representations of the consistency cone.

Canonical orderings, used everywhere:

* static row space: menus in declared order, items in menu order, labelled
  ``(menu_index, position)``;
* type columns: linear orders in lexicographic order of their ranking words
  (demand types in lexicographic order of their patch tuples);
* dynamic spaces: Kronecker products with the period-1 factor slowest, so a
  path entry sits at the product index of its per-period (menu, item) pairs.
  Every dynamic row or column space is labelled in one format,
  ``(menu_path, choice_path)``: ``TypeMatrix.row_labels`` of ``kron_dynamic``,
  ``convert_V_to_H`` columns and ``kron_inequalities`` columns (through
  ``kron_labels``) alike, so ``model.label_index``, the one gather index,
  places any of them in the path-major vector over ``rho``.
  ``model.rho_vector`` gathers at it by the labels, ``pair_vector`` by
  per-period pair lists, memoised on the lists.

The package's LPs (the EU filter here) read their outcome by ``lp.optimal``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import numpy as np
from scipy.optimize import Bounds

from . import catalog
from .errors import GeometryError, ParameterError, SchemaError, SizeError
from .geometry import enumerate_demand_types
from .lp import compile_lp, optimal, solve
from .model import ChoiceUniverse, Menu, StochasticChoiceFunction, label_index, path_vector

DENSE_ENTRY_GUARD = 100_000_000
# the most permutations enumerate_orders walks: 9! takes about a second
ORDER_GUARD = math.factorial(9)
# the strict utility gap an expected-utility ranking must admit
EU_MARGIN = 1e-9


@dataclass(frozen=True)
class LinearOrder:
    """A strict total order, best to worst."""

    period: object
    ranking: tuple

    def best_of(self, items):
        pos = {a: k for k, a in enumerate(self.ranking)}
        return min(items, key=lambda a: pos[a])


@dataclass(frozen=True)
class TypeMatrix:
    """0/1 matrix whose columns are deterministic rational types."""

    matrix: np.ndarray
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        m = self.matrix
        if m.shape != (len(self.row_labels), len(self.col_labels)):
            raise SchemaError("type matrix labels do not match its shape")
        if m.size and m.size <= 1_000_000:
            groups = {}
            for r, lab in enumerate(self.row_labels):
                groups.setdefault(lab[0], []).append(r)
            for key, rows in groups.items():
                sums = m[rows, :].sum(axis=0)
                if not np.all(sums == 1):
                    raise SchemaError(f"adding-up fails in menu group {key}")

    @property
    def shape(self):
        return self.matrix.shape

    def dense(self) -> np.ndarray:
        return np.asarray(self.matrix)

    @cached_property
    def range_basis(self) -> np.ndarray:
        """An orthonormal basis of the column space, from a thin SVD; built
        once per matrix, so every test on it shares it, read-only."""
        U, sv, _ = np.linalg.svd(self.dense().astype(float), full_matrices=False)
        basis = U[:, sv > sv[0] * max(self.shape) * np.finfo(float).eps]
        basis.setflags(write=False)
        return basis


@dataclass(frozen=True, eq=False)
class InequalityMatrix:
    """Signed integer rows of one H-representation.

    ``rows`` holds the facet block exactly as published (or computed), as a
    read-only copy; ``include_nonneg`` appends coordinate nonnegativity when
    materializing the full row set. Matrices compare and hash by value, the
    rows by their shape, dtype and bytes.
    """

    kind: str
    rows: np.ndarray
    col_labels: tuple
    include_nonneg: bool = False

    def __post_init__(self):
        rows = np.array(self.rows)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "col_labels", tuple(self.col_labels))

    def _key(self) -> tuple:
        return (self.kind, self.rows.shape, self.rows.dtype.str, self.rows.tobytes(),
                self.col_labels, self.include_nonneg)

    def __eq__(self, other):
        if not isinstance(other, InequalityMatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def full(self) -> np.ndarray:
        if not self.include_nonneg:
            return np.asarray(self.rows)
        eye = np.eye(len(self.col_labels), dtype=int)
        if len(self.rows) == 0:
            return eye
        return np.vstack([np.asarray(self.rows), eye])


@dataclass(frozen=True)
class ReducedSystem:
    """Row reduction dropping the last item of every non-first menu."""

    kept_labels: tuple
    dropped_labels: tuple
    kept_indices: tuple
    dropped_indices: tuple
    reconstruction: np.ndarray  # rows of the dropped block as +/-1 combos of kept rows


@dataclass(frozen=True)
class ProjectionOperator:
    """Averaging maps from a replicated time window back to the original one.

    ``phi[t]`` is the exact facet-average vector of period t's reduced
    H-matrix; ``gammas[t]`` the per-period averaging matrix for k_t copies;
    ``Gamma`` their Kronecker composite (period 1 untouched). All entries are
    Fractions.
    """

    k: tuple
    phi: dict
    gammas: dict
    Gamma: np.ndarray

    def Gamma_float(self) -> np.ndarray:
        return self.Gamma.astype(float)


# --- linear orders -----------------------------------------------------------

def enumerate_orders(universe: ChoiceUniverse, t, eu_filter: dict | None = None):
    """All strict total extensions of the period's primitive order, in
    lexicographic order of position words; optionally filtered to rankings
    admitting a prize-utility vector that strictly rationalizes them. Raises
    ``SizeError`` before walking more than ``ORDER_GUARD`` permutations."""
    alts = universe.alternatives[t]
    if math.factorial(len(alts)) > ORDER_GUARD:
        raise SizeError(f"period {t}: {len(alts)} alternatives have {len(alts)}! orderings, "
                        "over the size guard; on demand data pass --budgets so the period "
                        "takes the demand types of its patches")
    pairs = universe.primitive_order.get(t, ())
    orders = []
    for perm in itertools.permutations(alts):
        pos = {a: k for k, a in enumerate(perm)}
        ok = True
        for dom, sub in pairs:
            if min(pos[a] for a in dom) >= min(pos[a] for a in sub):
                ok = False
                break
        if ok:
            orders.append(LinearOrder(t, perm))
    if eu_filter is not None:
        orders = [o for o in orders if _eu_consistent(o, eu_filter)]
    return orders


def _eu_consistent(order: LinearOrder, lotteries: dict) -> bool:
    """Strict feasibility of u with u.l decreasing along the ranking."""
    return _eu_rankable(tuple(tuple(lotteries[a]) for a in order.ranking))


@lru_cache(maxsize=1024)
def _eu_rankable(ranked: tuple) -> bool:
    """The EU filter LP for lotteries listed best to worst; each distinct
    ranking is solved once per process. A proven infeasible LP means not
    rankable; any other failed solve raises SolverError."""
    mats = [np.array([float(v) for v in lottery]) for lottery in ranked]
    n_prizes = len(mats[0])
    c = np.zeros(n_prizes + 1)
    c[-1] = -1.0
    A_ub, b_ub = [], []
    for better, worse in zip(mats, mats[1:]):
        row = np.append(-(better - worse), 1.0)
        A_ub.append(row)
        b_ub.append(0.0)
    A_ub.append(np.append(np.zeros(n_prizes), 1.0))
    b_ub.append(1.0)
    bounds = Bounds(np.append(np.full(n_prizes, -1.0), -np.inf),
                    np.append(np.ones(n_prizes), np.inf))
    res = solve(compile_lp(np.array(A_ub), None, bounds), c, np.array(b_ub))
    return optimal(res, "EU filter") and res.x[-1] > EU_MARGIN


# --- static and dynamic type matrices ---------------------------------------

def static_row_labels(universe: ChoiceUniverse, t) -> tuple:
    labels = []
    for menu in universe.menus[t]:
        labels.extend((menu.index, i) for i in range(1, menu.size + 1))
    return tuple(labels)


def build_static_A(universe: ChoiceUniverse, t, types) -> TypeMatrix:
    """One-period type matrix; ``types`` are LinearOrders or patch tuples.

    A linear-order column marks the best item of every menu; a patch-tuple
    column marks its chosen patch per budget. Duplicate columns are merged,
    keeping the first label.
    """
    labels = static_row_labels(universe, t)
    row_index = {lab: r for r, lab in enumerate(labels)}
    cols, col_labels, seen = [], [], {}
    for typ in types:
        col = np.zeros(len(labels), dtype=np.int8)
        if isinstance(typ, LinearOrder):
            for menu in universe.menus[t]:
                best = typ.best_of(menu.items)
                col[row_index[(menu.index, menu.position(best))]] = 1
            label = typ.ranking
        else:
            menus = universe.menus[t]
            if len(typ) != len(menus):
                raise SchemaError("patch tuple length must equal the number of menus")
            for menu, i in zip(menus, typ):
                col[row_index[(menu.index, i)]] = 1
            label = tuple(typ)
        key = col.tobytes()
        if key in seen:
            continue
        seen[key] = label
        cols.append(col)
        col_labels.append(label)
    return TypeMatrix(np.column_stack(cols).astype(np.int8), labels, tuple(col_labels))


def static_type_matrix(universe: ChoiceUniverse, t, patches: dict | None = None,
                       eu_filter: dict | None = None) -> TypeMatrix:
    """The period's type matrix, the one rule for its static types: the
    SARP-consistent demand types of ``patches[t]`` when ``patches`` has the
    period, else the linear extensions of its primitive order that
    ``eu_filter`` admits (all of them without a filter)."""
    if patches and t in patches:
        types, _ = enumerate_demand_types(patches[t])
    else:
        types = enumerate_orders(universe, t, eu_filter=eu_filter)
        if not types:
            raise ParameterError("no ranking is consistent with expected utility; "
                                 "the restricted model is degenerate")
    return build_static_A(universe, t, types)


def kron_dynamic(statics: list, observed_paths, universe: ChoiceUniverse) -> TypeMatrix:
    """Kronecker product of per-period type matrices, rows restricted to the
    observed menu paths (dropped rows are never materialized)."""
    if len(statics) != universe.num_periods:
        raise SchemaError("need one static matrix per period")
    observed_paths = sorted(tuple(p) for p in observed_paths)
    n_cols = int(np.prod([len(a.col_labels) for a in statics]))
    n_rows = sum(len(universe.choice_paths(p)) for p in observed_paths)
    if n_rows * n_cols > DENSE_ENTRY_GUARD:
        raise SizeError(
            f"{n_rows}x{n_cols} exceeds the size guard; use the H-route instead")
    labels = [(path, cp) for path in observed_paths for cp in universe.choice_paths(path)]
    # each row is the Kronecker product of one static row per period, so
    # gather those rows and multiply them out one period at a time
    rows = np.ones((len(labels), 1), dtype=np.int8)
    for k, a in enumerate(statics):
        row_map = {lab: r for r, lab in enumerate(a.row_labels)}
        picked = a.dense().astype(np.int8)[[row_map[(path[k], cp[k])] for path, cp in labels]]
        rows = (rows[:, :, None] * picked[:, None, :]).reshape(len(labels), -1)
    col_labels = tuple(itertools.product(*[a.col_labels for a in statics]))
    return TypeMatrix(rows, tuple(labels), col_labels)


def type_matrix(universe: ChoiceUniverse, paths, geometry=None, eu_filter=None) -> TypeMatrix:
    """``kron_dynamic`` of each period's ``static_type_matrix`` on the menu ``paths``,
    a period of the demand ``geometry`` taking its patches' demand types;
    memoised per geometry: callers share the read-only matrix and its ``range_basis``."""
    lotteries = None if eu_filter is None else tuple((a, tuple(v)) for a, v in eu_filter.items())
    return _type_matrix(universe, tuple(sorted(map(tuple, paths))), geometry, lotteries)


@lru_cache(maxsize=16)
def _type_matrix(universe, paths, geometry, lotteries) -> TypeMatrix:
    eu_filter = None if lotteries is None else dict(lotteries)
    A = kron_dynamic([static_type_matrix(universe, t, geometry and geometry.patches, eu_filter)
                      for t in universe.periods], paths, universe)
    A.matrix.setflags(write=False)
    return A


# --- row reduction -----------------------------------------------------------

def reduce_star(A: TypeMatrix):
    """Drop the last item of every menu but the first; reconstruct the rest.

    Returns (A_star, A_minus, G, reduction) with A_minus = G @ A_star. The
    k-th row of G carries +1 on the first menu's rows and -1 on the kept rows
    of the (k+1)-th menu.
    """
    kept_labels, dropped_labels = reduced_labels(A.row_labels)
    row_of = {lab: r for r, lab in enumerate(A.row_labels)}
    kept = sorted(row_of[lab] for lab in kept_labels)
    dropped = [row_of[lab] for lab in dropped_labels]
    dense = A.dense()
    star = _RowBlock(dense[kept, :], tuple(A.row_labels[r] for r in kept), A.col_labels)
    minus = _RowBlock(dense[dropped, :], dropped_labels, A.col_labels)
    G = np.zeros((len(dropped), len(kept)), dtype=int)
    for grow, (j, _) in enumerate(dropped_labels):
        for k, lab in enumerate(star.row_labels):
            G[grow, k] = (lab[0] == kept_labels[0][0]) - (lab[0] == j)
    reduction = ReducedSystem(star.row_labels, dropped_labels, tuple(kept), tuple(dropped), G)
    return star, minus, G, reduction


def reduced_labels(row_labels) -> tuple:
    """(kept, dropped) row labels under the one reduction rule: the last item
    of every menu (a label's first entry) but the first is dropped."""
    menus = {}
    for lab in row_labels:
        menus.setdefault(lab[0], []).append(lab)
    kept, dropped = [], []
    for pos, items in enumerate(menus.values()):
        kept.extend(items[:-1] if pos else items)
        dropped.extend(items[-1:] if pos else ())
    return tuple(kept), tuple(dropped)


@dataclass(frozen=True)
class _RowBlock:
    """Dropped-row block of a type matrix; no adding-up invariant applies."""

    matrix: np.ndarray
    row_labels: tuple
    col_labels: tuple

    def dense(self):
        return np.asarray(self.matrix)


def reduce_H(H: InequalityMatrix, kept_labels, dropped_labels) -> InequalityMatrix:
    """Reduced H-matrix: facet rows supported on the kept coordinates,
    restricted to them, plus kept-coordinate nonnegativity; duplicates
    removed, facet rows first."""
    label_pos = {lab: k for k, lab in enumerate(H.col_labels)}
    kept_cols = [label_pos[lab] for lab in kept_labels]
    dropped_cols = [label_pos[lab] for lab in dropped_labels]
    out, seen = [], set()
    rows = np.asarray(H.rows)
    for row in rows:
        if len(dropped_cols) and np.any(row[dropped_cols] != 0):
            continue
        red = tuple(int(v) for v in row[kept_cols])
        if red not in seen:
            seen.add(red)
            out.append(red)
    for k in range(len(kept_cols)):
        unit = tuple(1 if i == k else 0 for i in range(len(kept_cols)))
        if unit not in seen:
            seen.add(unit)
            out.append(unit)
    return InequalityMatrix(H.kind + "-reduced", np.array(out, dtype=int),
                            tuple(kept_labels), include_nonneg=False)


# --- catalog H ----------------------------------------------------------------

def catalog_H(kind: str, universe: ChoiceUniverse, t) -> InequalityMatrix:
    """Published facet systems for the catalog geometries.

    ``binary``: ordered-triple triangle rows (complete for up to five
    alternatives) plus nonnegativity; ``simple``: the complete printed
    four-row table; ``demand3x3``: the printed seven facet rows plus
    nonnegativity.
    """
    labels = static_row_labels(universe, t)
    if kind == "binary":
        n = len(universe.alternatives[t])
        if n > 5:
            raise GeometryError("triangle catalog covers at most 5 alternatives; "
                                "use convert_V_to_H")
        rows = catalog.triangle_rows(universe, t)
        return InequalityMatrix("triangle", rows, labels, include_nonneg=True)
    if kind == "simple":
        if len(labels) != 4:
            raise GeometryError("simple catalog expects 2 budgets with 2 patches each")
        return InequalityMatrix("simple-monotone", catalog.H_SIMPLE, labels,
                                include_nonneg=False)
    if kind == "demand3x3":
        if len(labels) != 12:
            raise GeometryError("demand3x3 catalog expects 3 budgets with 4 patches each")
        return InequalityMatrix("demand-3x3", catalog.H_DEMAND3X3, labels,
                                include_nonneg=True)
    raise GeometryError(f"unknown catalog geometry {kind!r}; use convert_V_to_H")


def kron_system(H) -> tuple:
    """(full factors, kind) of one H-matrix or of a per-period Kronecker list."""
    if isinstance(H, InequalityMatrix):
        return [H.full()], H.kind
    return [H_t.full() for H_t in H], "kron(" + "x".join(H_t.kind for H_t in H) + ")"


def kron_inequalities(H_list: list) -> InequalityMatrix:
    """Kronecker product of per-period full H-matrices, materialised; the
    column space is the product of the per-period row spaces, period 1
    slowest, labelled by ``kron_labels``. Raises SizeError before allocating
    more than ``DENSE_ENTRY_GUARD`` entries; ``check_H`` takes the factors."""
    factors, kind = kron_system(H_list)
    if math.prod(F.size for F in factors) > DENSE_ENTRY_GUARD:
        raise SizeError("Kronecker inequality system exceeds the size guard; "
                        "pass the factors to check_H instead")
    return InequalityMatrix(kind, reduce(np.kron, factors),
                            kron_labels([H_t.col_labels for H_t in H_list]), include_nonneg=False)


def kron_apply(factors, x) -> np.ndarray:
    """``reduce(np.kron, factors) @ x`` without building the product, one
    factor per axis of ``x`` (laid out with period 1 slowest)."""
    tensor = np.asarray(x).reshape([np.shape(F)[1] for F in factors])
    for axis, F in enumerate(factors):
        tensor = kron_axis(F, tensor, axis)
    return tensor.reshape(-1)


def kron_axis(F, tensor, axis: int) -> np.ndarray:
    """``F`` applied along one axis of ``tensor``: one step of ``kron_apply``."""
    return np.moveaxis(np.tensordot(F, tensor, axes=([1], [axis])), 0, axis)


def kron_labels(pair_lists) -> tuple:
    """``(menu_path, choice_path)`` labels of the product of per-period
    ``(menu, item-position)`` pair lists, period 1 slowest."""
    return tuple(tuple(zip(*combo)) for combo in itertools.product(*pair_lists))


def pair_vector(rho: StochasticChoiceFunction, pair_lists: list) -> np.ndarray:
    """``rho`` flattened in the Kronecker order of ``pair_lists``: the
    entries ``rho_vector`` gathers at their ``kron_labels``, at a
    ``label_index`` memoised on the pair lists rather than on the labels.

    Raises SchemaError as ``label_index`` does."""
    paths = tuple(rho.observed_paths)
    key = tuple(tuple((m, i) for m, i in pairs) for pairs in pair_lists)
    return path_vector(rho, paths)[_pair_index(rho.universe, key, paths)]


@lru_cache(maxsize=16)
def _pair_index(universe: ChoiceUniverse, pair_lists: tuple, paths: tuple) -> np.ndarray:
    return label_index(universe, paths, kron_labels(pair_lists))


def full_pair_lists(universe: ChoiceUniverse) -> list:
    return [list(static_row_labels(universe, t)) for t in universe.periods]


# --- Block-Marschak machinery -------------------------------------------------

def virtual_universe(universe: ChoiceUniverse) -> ChoiceUniverse:
    """Extend every period's menus to all nonempty subsets of its choice set;
    observed menus keep their indices, virtual ones follow by (size, order)."""
    menus = {}
    for t in universe.periods:
        alts = universe.alternatives[t]
        if len(alts) > 12:
            raise SizeError("virtual menu extension capped at 12 alternatives")
        existing = {frozenset(m.items): m for m in universe.menus[t]}
        out = list(universe.menus[t])
        next_id = max(m.index for m in out) + 1
        pos = {a: k for k, a in enumerate(alts)}
        candidates = []
        for size in range(1, len(alts) + 1):
            candidates.extend(itertools.combinations(alts, size))
        for items in sorted(candidates, key=lambda s: (len(s), tuple(pos[a] for a in s))):
            if frozenset(items) not in existing:
                out.append(Menu(next_id, items))
                next_id += 1
        menus[t] = tuple(out)
    return ChoiceUniverse(universe.periods, universe.alternatives, menus,
                          universe.primitive_order)


def bm_matrix(universe: ChoiceUniverse, t) -> InequalityMatrix:
    """Alternating-sum rows over menu supersets, one per (item, menu) pair.

    Requires the period to carry full menu variation (use virtual_universe
    first); the row for (x, B) adds rho(x from B') with sign (-1)^{|B'\\B|}
    over every superset menu B'.
    """
    menus = universe.menus[t]
    sets = {m.index: frozenset(m.items) for m in menus}
    covered = {sets[m.index] for m in menus}
    alts = universe.alternatives[t]
    want = 2 ** len(alts) - 1
    if len(covered) != want:
        raise SchemaError("bm_matrix needs all nonempty subsets as menus")
    labels = static_row_labels(universe, t)
    pos = {lab: k for k, lab in enumerate(labels)}
    rows = np.zeros((len(labels), len(labels)), dtype=int)
    for menu in menus:
        for i in range(1, menu.size + 1):
            item = menu.items[i - 1]
            r = pos[(menu.index, i)]
            for other in menus:
                if sets[menu.index] <= sets[other.index]:
                    sign = (-1) ** (len(sets[other.index]) - len(sets[menu.index]))
                    rows[r, pos[(other.index, other.position(item))]] = sign
    return InequalityMatrix("BM", rows, labels, include_nonneg=True)


def drum_bm_values(rho_bar: StochasticChoiceFunction):
    """Recursive alternating-sum values per starting period.

    Level t applies the per-period superset operator at periods t..T; the
    level-1 tensor is the fully recursed system whose nonnegativity is
    necessary for consistency. Returns {level: tensor}, with axes indexed by
    the per-period (menu, item) pair lists.
    """
    uni = rho_bar.universe
    pair_lists = full_pair_lists(uni)
    tensor = pair_vector(rho_bar, pair_lists).reshape([len(p) for p in pair_lists])
    mats = [np.asarray(bm_matrix(uni, t).rows, dtype=float) for t in uni.periods]
    T = uni.num_periods
    levels = {}
    current = tensor
    for t_pos in range(T - 1, -1, -1):
        current = kron_axis(mats[t_pos], current, t_pos)
        levels[uni.periods[t_pos]] = current
    return levels, pair_lists


# --- projection hierarchy -------------------------------------------------------

def _phi_from_rows(rows: np.ndarray) -> tuple:
    n = len(rows)
    sums = [sum(int(row[k]) for row in rows) for k in range(rows.shape[1])]
    return tuple(Fraction(s, n) for s in sums)


def _gamma(phi: tuple, k: int) -> np.ndarray:
    """Exact average over the k copies of a period of the maps that keep one
    copy and contract the others with ``phi``; the identity at k = 1. The
    leading Fraction 1 makes every entry a Fraction."""
    one = np.array([[Fraction(1)]], dtype=object)
    phi_row = np.array([list(phi)], dtype=object)
    eye = np.eye(len(phi), dtype=int).astype(object)
    return sum(reduce(np.kron, [one] + [phi_row] * (j - 1) + [eye] + [phi_row] * (k - j))
               for j in range(1, k + 1)) / k


def validate_replication(k: tuple, periods: int) -> None:
    """Check the per-period replication counts: one per period, k_1 = 1,
    every k_t >= 1."""
    if len(k) != periods:
        raise ParameterError("k must have one entry per period")
    if k[0] != 1:
        raise ParameterError("the first period is never replicated: k_1 must be 1")
    if any(kt < 1 for kt in k):
        raise ParameterError("replication counts must be >= 1")


def projection_ops(H_star_list: list, k: tuple) -> ProjectionOperator:
    """Facet-average vectors and replication-averaging operators.

    ``H_star_list`` holds the reduced per-period H-matrices (facet rows plus
    nonnegativity); ``k`` the per-period replication counts with k_1 = 1.
    """
    validate_replication(k, len(H_star_list))
    phi, gammas = {}, {}
    for pos, (H, kt) in enumerate(zip(H_star_list, k)):
        phi[pos] = _phi_from_rows(np.asarray(H.full()))
        gammas[pos] = _gamma(phi[pos], kt)
    Gamma = reduce(np.kron, gammas.values())
    return ProjectionOperator(tuple(k), phi, gammas, Gamma)
