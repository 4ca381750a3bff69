"""Budget-arrangement geometry: patches, dominance, expenditure
normalization, and SARP-consistent nonstochastic demand types.

A patch is a cell of the coarsest partition of the union of one period's
budget hyperplanes; every cell has a constant position (below / on / above)
relative to each same-period budget. Open cells (no 'on' entries) receive
the catalog indices 1..m per budget; intersection cells follow and carry
zero probability by convention.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from scipy.optimize import Bounds

from .errors import AllocationError, GeometryError, SchemaError
from .lp import compile_lp, solve
from .model import (ChoiceUniverse, Menu, PanelDataset, PanelRecord,
                    StochasticChoiceFunction, marginal_conditional_slice)

BELOW, ON, ABOVE = "below", "on", "above"
_SIGN_NUM = {ABOVE: 1, ON: 0, BELOW: -1}

MARGIN_TOL = 1e-9
REPRESENTATIVE_MARGIN = 1e-8
VERTEX_TOL = 1e-9
# a cell whose vertices need more candidate bases than this is not enumerated
VERTEX_BASES_CAP = 5000


@dataclass(frozen=True)
class Budget:
    """A linear budget: prices strictly positive, expenditure positive."""

    period: object
    index: int
    prices: tuple
    expenditure: object

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(self.prices))
        if len(self.prices) < 2:
            raise SchemaError("need at least 2 goods")
        if any(p <= 0 for p in self.prices):
            raise SchemaError(f"budget {self.index}: prices must be strictly positive")
        if self.expenditure <= 0:
            raise SchemaError(f"budget {self.index}: expenditure must be positive")

    @property
    def num_goods(self) -> int:
        return len(self.prices)

    def p(self) -> np.ndarray:
        return np.array([float(v) for v in self.prices])

    def w(self) -> float:
        return float(self.expenditure)


@dataclass(frozen=True, eq=False)
class Patch:
    """One cell of the partition, attached to an owning budget.

    ``sign_vector`` maps every other same-period budget index to its
    position; ``on_budgets`` lists all budgets whose hyperplane contains the
    cell (more than one only for intersection patches). Patches are
    immutable: the sign vector is a read-only mapping and the representative
    a read-only array, so memoised arrangements can be shared. Patches
    compare and hash by value, the representative by its bytes.
    """

    period: object
    budget: int
    index: int
    sign_vector: Mapping
    representative: np.ndarray
    is_intersection: bool
    on_budgets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sign_vector", MappingProxyType(dict(self.sign_vector)))
        point = np.array(self.representative, dtype=float)
        point.setflags(write=False)
        object.__setattr__(self, "representative", point)

    def __reduce__(self):
        # a mappingproxy cannot be pickled; rebuild from a plain dict
        return (Patch, (self.period, self.budget, self.index, dict(self.sign_vector),
                        self.representative, self.is_intersection, self.on_budgets))

    def _key(self) -> tuple:
        return (self.period, self.budget, self.index, frozenset(self.sign_vector.items()),
                self.representative.shape, self.representative.tobytes(),
                self.is_intersection, self.on_budgets)

    def __eq__(self, other):
        if not isinstance(other, Patch):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def label(self) -> tuple:
        return (self.budget, self.index)


def _cell_program(budget: Budget, others: list, signs: dict):
    """LP maximizing the uniform slack of a sign cell on a budget.

    Returns (margin, point) or (None, None) when the open cell is empty:
    the LP fails or its margin is at most ``MARGIN_TOL``. 'on' entries
    become equalities; the margin applies to strict entries scaled by the
    price norm so it is comparable across budgets.
    """
    K = budget.num_goods
    A_eq, b_eq, A_ub, b_ub = _sign_rows(budget, others, signs)
    c = np.zeros(K + 1)
    c[-1] = -1.0
    # the slack column: each strict row's price norm (|-p| = |p|), then the
    # cap on the margin
    slack = [np.linalg.norm(row) for row in A_ub]
    A_ub = np.vstack([np.column_stack([A_ub, slack]), np.append(np.zeros(K), 1.0)])
    lp = compile_lp(A_ub, np.column_stack([A_eq, np.zeros(len(A_eq))]),
                    Bounds(np.append(np.zeros(K), -np.inf), np.inf))
    res = solve(lp, c, np.append(b_ub, 1.0), b_eq)
    if res.status != 0:
        return None, None
    margin = res.x[-1]
    if margin <= MARGIN_TOL:
        return None, None
    return margin, res.x[:K]


def compute_patches(budgets: list, index_maps: dict | None = None):
    """Enumerate the patches of one period's budgets and their dominance.

    One rule numbers the open patches: budgets equal to
    ``catalog.demand3x3_budgets`` by index, prices and expenditure (in any
    period) get ``catalog.DEMAND3X3_INDEX_MAPS``; every other arrangement
    sweeps by descending last coordinate of the representative for two
    goods (the published numbering on the catalog two-budget setup) and
    sorts sign vectors otherwise (above before below, other budgets in
    ascending index order). ``index_maps`` overrides the rule with a map
    {budget_index: {numeric sign tuple over other budgets: patch index}}.

    Returns (patches, dominance) where dominance is a list of
    (dominant_label, dominated_label) pairs over open patches. Each
    arrangement is solved once: results are memoised on the budgets and the
    index maps, and every call gets fresh lists of the shared immutable
    patches. A call whose arrangement needed the conservative dominance
    fallback warns every time.
    """
    # the maps in hashable form key the memo
    frozen = (frozenset((j, frozenset(m.items())) for j, m in index_maps.items())
              if index_maps else None)
    patches, dominance, conservative = _arrangement(tuple(budgets), frozen)
    if conservative:
        warnings.warn("dominance used the conservative representative check; "
                      "pairs are sufficient-only", stacklevel=2)
    return list(patches), list(dominance)


@lru_cache(maxsize=32)
def _arrangement(budgets: tuple, frozen_maps):
    """(patches, dominance pairs, conservative flag) of one arrangement,
    numbered by ``frozen_maps`` or, when None, by the published rule."""
    if not budgets:
        raise SchemaError("no budgets supplied")
    K = budgets[0].num_goods
    if K < 2:
        raise SchemaError("need at least 2 goods")
    if any(b.num_goods != K for b in budgets):
        raise SchemaError("budgets disagree on the number of goods")
    keys = [(tuple(b.prices), b.expenditure) for b in budgets]
    if len(set(keys)) != len(keys):
        raise SchemaError("budgets must be pairwise distinct")
    by_index = {b.index: b for b in budgets}
    if len(by_index) != len(budgets):
        raise SchemaError("duplicate budget indices")
    index_maps = {j: dict(m) for j, m in frozen_maps} if frozen_maps else None
    if index_maps is None:
        from . import catalog  # catalog imports Budget from this module
        if {(b.index, b.prices, b.expenditure) for b in budgets} == \
                {(b.index, b.prices, b.expenditure) for b in catalog.demand3x3_budgets()[1]}:
            index_maps = catalog.DEMAND3X3_INDEX_MAPS

    patches = []
    open_cells = {}
    for budget in budgets:
        others = [b for b in budgets if b.index != budget.index]
        other_idx = [b.index for b in others]
        cells = []
        for combo in itertools.product((ABOVE, BELOW), repeat=len(others)):
            signs = dict(zip(other_idx, combo))
            margin, point = _cell_program(budget, others, signs)
            if margin is None:
                continue
            cells.append((signs, point, margin))
        if not cells:
            raise GeometryError(f"budget {budget.index}: no open cell found")
        if index_maps and budget.index in index_maps:
            mapping = index_maps[budget.index]

            def sort_key(cell, _m=mapping, _oi=tuple(sorted(other_idx))):
                numeric = tuple(_SIGN_NUM[cell[0][o]] for o in _oi)
                return _m[numeric]
        elif K == 2:
            def sort_key(cell):
                return -cell[1][-1]
        else:
            def sort_key(cell, _oi=tuple(sorted(other_idx))):
                return tuple(0 if cell[0][o] == ABOVE else 1 for o in _oi)
        cells.sort(key=sort_key)
        open_cells[budget.index] = []
        for i, (signs, point, margin) in enumerate(cells, start=1):
            patch = Patch(budget.period, budget.index, i, signs, point, False, (budget.index,))
            patches.append(patch)
            open_cells[budget.index].append(patch)

    # intersection cells: at least one 'on' entry; registered once under the
    # lowest participating budget, indices continuing after the open cells
    seen = set()
    next_index = {b.index: len(open_cells[b.index]) for b in budgets}
    for budget in sorted(budgets, key=lambda b: b.index):
        others = [b for b in budgets if b.index != budget.index]
        other_idx = [b.index for b in others]
        for combo in itertools.product((ABOVE, ON, BELOW), repeat=len(others)):
            if ON not in combo:
                continue
            signs = dict(zip(other_idx, combo))
            on_set = frozenset([budget.index] + [o for o in other_idx if signs[o] == ON])
            if min(on_set) != budget.index:
                continue
            rest = tuple(sorted((o, signs[o]) for o in other_idx if signs[o] != ON))
            cell_key = (on_set, rest)
            if cell_key in seen:
                continue
            # a cell is nonempty only when its strict signs hold with margin;
            # equality-only solutions mean the open part of the cell is empty
            margin, point = _cell_program(budget, others, signs)
            if margin is None:
                continue
            seen.add(cell_key)
            next_index[budget.index] += 1
            patches.append(Patch(budget.period, budget.index, next_index[budget.index],
                                 signs, point, True, tuple(sorted(on_set))))

    dominance, exact = _dominance_pairs(by_index, open_cells)
    return tuple(patches), tuple(dominance), not exact


def _sign_rows(budget: Budget, others: list, signs: dict):
    """(A_eq, b_eq, A_ub, b_ub) of a sign cell on a budget: the budget
    hyperplane and every 'on' budget as equalities, then one row per strict
    sign ('above' as -p.y <= -w, 'below' as p.y <= w) in the order of
    ``others``."""
    A_eq = [budget.p()]
    b_eq = [budget.w()]
    A_ub, b_ub = [], []
    for other in others:
        s = signs[other.index]
        if s == ON:
            A_eq.append(other.p())
            b_eq.append(other.w())
        elif s == ABOVE:
            A_ub.append(-other.p())
            b_ub.append(-other.w())
        else:
            A_ub.append(other.p())
            b_ub.append(other.w())
    K = budget.num_goods
    return (np.array(A_eq), np.array(b_eq), np.array(A_ub).reshape(len(A_ub), K),
            np.array(b_ub))


def _cell_constraints(budget: Budget, others: list, signs: dict):
    """(A_eq, b_eq, A_ub, b_ub) describing the closure of a cell: the sign
    rows, then nonnegativity of every good."""
    A_eq, b_eq, A_ub, b_ub = _sign_rows(budget, others, signs)
    K = budget.num_goods
    return A_eq, b_eq, np.vstack([A_ub, np.diag(np.full(K, -1.0))]), np.append(b_ub, np.zeros(K))


def _cell_vertices(budget: Budget, others: list, signs: dict):
    """Vertices of the closure of an open cell, or None when enumeration is too big.

    On the budget hyperplane, its one equality, the cell is a (K-1)-polytope,
    so vertices activate K-1 of the inequality constraints. Each vertex is
    returned with a flag marking whether it sits on a foreign-budget
    boundary (and so lies outside the open cell).
    """
    A_eq, b_eq, A_ub, b_ub = _cell_constraints(budget, others, signs)
    K = budget.num_goods
    n_sign = len(b_ub) - K  # sign rows precede the orthant rows
    combos = list(itertools.combinations(range(len(b_ub)), K - 1))
    if len(combos) > VERTEX_BASES_CAP:
        return None
    verts = []
    for combo in combos:
        M = np.vstack([A_eq] + [A_ub[i] for i in combo])
        rhs = np.concatenate([b_eq, [b_ub[i] for i in combo]])
        try:
            y = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(A_ub @ y <= b_ub + VERTEX_TOL):
            if not any(np.allclose(y, v, atol=1e-8) for v, _ in verts):
                on_sign = bool(n_sign and np.any(
                    np.abs(A_ub[:n_sign] @ y - b_ub[:n_sign]) <= 1e-8))
                verts.append((y, on_sign))
    return verts


def _improvement_margin(target: np.ndarray, budget: Budget, others: list, signs: dict):
    """max m with y in closure(cell) and y >= target + m componentwise."""
    A_eq, b_eq, A_ub, b_ub = _cell_constraints(budget, others, signs)
    K = budget.num_goods
    c = np.zeros(K + 1)
    c[-1] = -1.0
    ub_rows = [np.append(row, 0.0) for row in A_ub]
    for k in range(K):
        row = np.zeros(K + 1)
        row[k] = -1.0
        row[-1] = 1.0
        ub_rows.append(row)
        b_ub = np.append(b_ub, -target[k])
    eq_rows = [np.append(row, 0.0) for row in A_eq]
    lp = compile_lp(np.array(ub_rows), np.array(eq_rows), Bounds(-np.inf, np.inf))
    res = solve(lp, c, b_ub, b_eq)
    if res.status != 0:
        return None
    return res.x[-1]


def _dominates_exact(dom: Patch, sub: Patch, by_index: dict):
    """Every point of `sub` strictly vector-dominated by a point of `dom`.

    The improvement margin is concave on the dominated cell: it must be
    nonnegative at every closure vertex, strictly positive at vertices that
    belong to the open cell (no foreign-budget boundary active), and
    strictly positive at the vertex centroid. Returns None when vertex
    enumeration is out of reach.
    """
    dom_budget = by_index[dom.budget]
    dom_others = [by_index[j] for j in by_index if j != dom.budget]
    sub_budget = by_index[sub.budget]
    sub_others = [by_index[j] for j in by_index if j != sub.budget]
    verts = _cell_vertices(sub_budget, sub_others, sub.sign_vector)
    if verts is None or not verts:
        return None
    for v, on_sign in verts:
        m = _improvement_margin(v, dom_budget, dom_others, dom.sign_vector)
        if m is None or m < -VERTEX_TOL:
            return False
        if not on_sign and m <= MARGIN_TOL:
            return False
    centroid = np.mean([v for v, _ in verts], axis=0)
    m = _improvement_margin(centroid, dom_budget, dom_others, dom.sign_vector)
    return m is not None and m > MARGIN_TOL


def _dominates_conservative(dom: Patch, sub: Patch) -> bool:
    """Sufficient-only fallback: representative strictly above representative
    and the dominated cell strictly below the dominant budget."""
    below = sub.sign_vector.get(dom.budget) == BELOW
    rep_gap = np.all(dom.representative > sub.representative + REPRESENTATIVE_MARGIN)
    return bool(below and rep_gap)


def _dominance_pairs(by_index: dict, open_cells: dict):
    pairs = []
    exact = True
    all_open = [p for cells in open_cells.values() for p in cells]
    for dom, sub in itertools.permutations(all_open, 2):
        if dom.budget == sub.budget:
            continue
        # necessary: the dominated cell must sit strictly below the dominant
        # patch's budget, otherwise some of its points are unaffordable there
        if sub.sign_vector.get(dom.budget) != BELOW:
            continue
        verdict = _dominates_exact(dom, sub, by_index)
        if verdict is None:
            exact = False
            verdict = _dominates_conservative(dom, sub)
        if verdict:
            pairs.append((dom.label, sub.label))
    return pairs, exact


def enumerate_demand_types(patches: list, budgets: list | None = None):
    """All SARP-consistent assignments of one open patch per budget.

    Tuples are enumerated lexicographically over patch indices; a tuple is
    kept when the revealed-preference digraph on its chosen patches (edge
    from the chooser to every patch lying weakly below its budget, strict
    when strictly below) has no cycle through a strict edge. Returns (types,
    budget order). The patches alone decide both, so ``budgets`` is ignored,
    results are memoised on the patches, and every call gets fresh lists.
    """
    types, order = _demand_types(tuple(patches))
    return list(types), list(order)


@lru_cache(maxsize=32)
def _demand_types(patches: tuple):
    by_budget = {}
    for p in patches:
        if not p.is_intersection:
            by_budget.setdefault(p.budget, []).append(p)
    order = sorted(by_budget)
    for j in order:
        by_budget[j].sort(key=lambda p: p.index)
    types = []
    for combo in itertools.product(*[by_budget[j] for j in order]):
        if _sarp_consistent(combo):
            types.append(tuple(p.index for p in combo))
    return tuple(types), tuple(order)


def _sarp_consistent(chosen) -> bool:
    n = len(chosen)
    weak = np.zeros((n, n), dtype=bool)
    strict = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            s = chosen[b].sign_vector.get(chosen[a].budget)
            if s == BELOW:
                weak[a, b] = True
                strict[a, b] = True
            elif s == ON:
                weak[a, b] = True
    closure = weak.copy()
    for k in range(n):
        closure |= np.outer(closure[:, k], closure[k, :])
    for a in range(n):
        for b in range(n):
            if closure[a, b] and strict[b, a]:
                return False
    return True


def demand_universe(budgets_by_period: dict, periods: tuple, index_maps: dict | None = None):
    """Discretize budget arrangements into a ChoiceUniverse.

    Alternatives are open-patch labels ``(budget, patch_index)``, numbered
    by ``compute_patches`` (``index_maps`` overrides it in every period);
    menus are budgets; the primitive order is the computed patch dominance.
    Returns (universe, patches_by_period, dominance_by_period).
    """
    alternatives, menus, order, patches_all, dominance_all = {}, {}, {}, {}, {}
    for t in periods:
        budgets = budgets_by_period[t]
        patches, dominance = compute_patches(budgets, index_maps=index_maps)
        open_patches = [p for p in patches if not p.is_intersection]
        alternatives[t] = tuple(p.label for p in sorted(open_patches, key=lambda p: p.label))
        menu_list = []
        for b in sorted(budgets, key=lambda b: b.index):
            items = tuple(p.label for p in sorted(open_patches, key=lambda p: p.index)
                          if p.budget == b.index)
            menu_list.append(Menu(b.index, items))
        menus[t] = tuple(menu_list)
        order[t] = tuple((frozenset({dom}), frozenset({sub})) for dom, sub in dominance)
        patches_all[t] = patches
        dominance_all[t] = dominance
    universe = ChoiceUniverse(tuple(periods), alternatives, menus, order)
    return universe, patches_all, dominance_all


def classify_point(y, budget: Budget, others: list, tol: float = 1e-9) -> dict:
    """Sign vector of a demand point on `budget` relative to the others."""
    y = np.asarray(y, dtype=float)
    if abs(budget.p() @ y - budget.w()) > 1e-7 * max(1.0, budget.w()):
        raise SchemaError("point does not lie on its budget hyperplane")
    signs = {}
    for other in others:
        gap = other.p() @ y - other.w()
        if gap > tol:
            signs[other.index] = ABOVE
        elif gap < -tol:
            signs[other.index] = BELOW
        else:
            signs[other.index] = ON
    return signs


def normalize_dradm(panel: PanelDataset, budgets_by_period: dict):
    """Rescale point-level demands to unit expenditure and re-discretize.

    Each quantity vector y faced with prices p is replaced by y / (p'y); the
    patches are recomputed on the unit-expenditure budgets and records are
    relabeled with the patch containing the normalized point.
    """
    unit_budgets = {
        t: [Budget(b.period, b.index, b.prices, Fraction(1)) for b in blist]
        for t, blist in budgets_by_period.items()
    }
    periods = tuple(sorted(unit_budgets))
    universe, patches_all, dominance_all = demand_universe(unit_budgets, periods)
    records = []
    for rec in panel.records:
        if rec.quantity is None:
            raise SchemaError("normalize_dradm needs point-level quantity vectors")
        blist = {b.index: b for b in unit_budgets[rec.period]}
        if rec.menu_id not in blist:
            raise SchemaError(f"unknown budget id {rec.menu_id} in period {rec.period}")
        budget = blist[rec.menu_id]
        y = np.asarray(rec.quantity, dtype=float)
        spend = budget.p() @ y
        if spend <= 0:
            raise SchemaError(f"agent {rec.agent_id}: p'y = 0 record is invalid")
        y_norm = y / spend
        others = [b for b in unit_budgets[rec.period] if b.index != rec.menu_id]
        signs = classify_point(y_norm, budget, others)
        label = _match_patch(patches_all[rec.period], rec.menu_id, signs)
        records.append(PanelRecord(rec.agent_id, rec.period, rec.menu_id, label,
                                   tuple(y_norm.tolist())))
    return PanelDataset(tuple(records)), universe, patches_all, dominance_all


def _match_patch(patches: list, budget_index: int, signs: dict):
    for p in patches:
        if p.budget == budget_index and p.sign_vector == signs:
            return p.label
    on_keys = [k for k, v in signs.items() if v == ON]
    if on_keys:
        for p in patches:
            if p.is_intersection and budget_index in p.on_budgets:
                rest = {k: v for k, v in p.sign_vector.items() if v != ON}
                if all(signs.get(k) == v for k, v in rest.items()):
                    return p.label
    raise GeometryError(f"no patch of budget {budget_index} matches signs {signs}")


@dataclass(frozen=True)
class PooledReport:
    """Pooled-patch masses and the consistency of the pooled cross-section.

    ``masses[(t, j)]`` is the probability vector over the pooled sub-patches
    of budget j of period t (labels in ``pooled_labels[(t, j)]``); pooling
    ignores time labels, so the vector of one budget may be inconsistent
    with a static mixture even when the panel itself is consistent.
    """

    masses: dict
    pooled_labels: dict
    splits: dict
    rum_consistent: bool
    rum_distance: float


def pool(rho: StochasticChoiceFunction, budgets_by_period: dict,
         allocation: dict | None = None, path_weights: dict | None = None) -> PooledReport:
    """Pool the panel into one cross-section over the refined patches.

    Every budget of every period enters one arrangement; original patches
    that split must receive a within-patch ``allocation`` (fractions per
    pooled sub-patch keyed by pooled label), since patch-level data
    underdetermine the split. The pooled vector of each budget is the
    slicing distribution of its period pushed through the allocation;
    consistency of the pooled cross-section with a static mixture is
    checked by cone projection.
    """
    periods = [t for t in rho.universe.periods]
    keys = set()
    for t in periods:
        for b in budgets_by_period[t]:
            key = (tuple(b.prices), b.expenditure)
            if key in keys:
                raise SchemaError("pooling requires cross-period budgets to be distinct")
            keys.add(key)
    pooled_budgets = []
    owner = {}
    k = 0
    for t in periods:
        for b in budgets_by_period[t]:
            k += 1
            pooled_budgets.append(Budget("pool", k, b.prices, b.expenditure))
            owner[k] = (t, b.index)
    pool_uni, pooled_patches, _ = demand_universe({"pool": pooled_budgets}, ("pool",))
    open_pooled = [p for p in pooled_patches["pool"] if not p.is_intersection]

    # a pooled cell on budget k refines the original patch whose sign vector
    # it matches on same-period budgets
    period_patches = {t: compute_patches(budgets_by_period[t])[0] for t in periods}
    same_period_idx = {k: [k2 for k2, tj in owner.items()
                           if tj[0] == owner[k][0] and k2 != k] for k in owner}
    original_patch = {}
    for p in open_pooled:
        t, j = owner[p.budget]
        orig_signs = {owner[k2][1]: p.sign_vector[k2] for k2 in same_period_idx[p.budget]}
        label = _match_patch(period_patches[t], j, orig_signs) if orig_signs else (j, 1)
        original_patch[p.label] = (t, label)

    slices = {t: marginal_conditional_slice(rho, t, path_weights).slice for t in periods}

    splits = {}
    for p in open_pooled:
        t, orig = original_patch[p.label]
        splits.setdefault((t, orig), []).append(p.label)

    masses, pooled_labels = {}, {}
    for p in open_pooled:
        pooled_labels.setdefault(owner[p.budget], []).append(p.label)
    for t_j in pooled_labels:
        pooled_labels[t_j].sort()
        masses[t_j] = np.zeros(len(pooled_labels[t_j]))
    for (t, orig), sub_labels in splits.items():
        j_orig, i_orig = orig
        mass = float(slices[t][j_orig][i_orig - 1])
        if len(sub_labels) == 1:
            frac = {sub_labels[0]: 1.0}
        else:
            if allocation is None or (t, orig) not in allocation:
                raise AllocationError(
                    f"patch {orig} of period {t} splits into {len(sub_labels)} pooled "
                    "cells; supply a within-patch allocation or point-level data")
            frac = allocation[(t, orig)]
            total = sum(frac.get(lbl, 0.0) for lbl in sub_labels)
            if abs(total - 1.0) > 1e-9:
                raise AllocationError(f"allocation for {orig} in period {t} sums to {total}")
        for lbl in sub_labels:
            vec_key = owner[lbl[0]]
            masses[vec_key][pooled_labels[vec_key].index(lbl)] += mass * frac.get(lbl, 0.0)

    # static mixture check on the pooled cross-section
    from .checks import cone_membership
    from .representations import static_type_matrix
    A = static_type_matrix(pool_uni, "pool", pooled_patches)
    vec = np.concatenate([masses[owner[b.index]] for b in pooled_budgets])
    distance, _, _ = cone_membership(vec, A, tol=1e-8)
    return PooledReport(masses, pooled_labels, splits, distance <= 1e-8, distance)


def reallocate_intersection_mass(rho: StochasticChoiceFunction, patches_by_period: dict,
                                 tol: float = 1e-9) -> StochasticChoiceFunction:
    """Move any probability mass observed on intersection patches onto the
    adjacent open patches, proportionally to their existing mass.

    Intersection patches are zero-probability by convention; observed mass
    above `tol` triggers a warning. Requires a universe whose menus include
    the intersection labels, which the default discretization avoids, so
    this is only exercised by user-supplied data.
    """
    uni = rho.universe
    intersections = {p.label for t in patches_by_period for p in patches_by_period[t]
                     if p.is_intersection}
    moved = 0.0
    probs = {}
    for path in rho.observed_paths:
        order = uni.choice_paths(path)
        arr = np.asarray(rho.probs[path], dtype=float).copy()
        for idx, cp in enumerate(order):
            items = uni.path_items(path, cp)
            if any(item in intersections for item in items) and arr[idx] > tol:
                moved += arr[idx]
                mass = arr[idx]
                arr[idx] = 0.0
                neighbors = [k for k, other in enumerate(order)
                             if k != idx and not any(i2 in intersections
                                                     for i2 in uni.path_items(path, other))]
                base = arr[neighbors]
                share = base / base.sum() if base.sum() > 0 else np.full(len(neighbors), 1 / len(neighbors))
                arr[neighbors] += mass * share
        probs[path] = arr
    if moved > tol:
        warnings.warn(f"reallocated {moved:.3g} probability mass from intersection patches")
    return StochasticChoiceFunction(uni, probs, rho.counts, None)
