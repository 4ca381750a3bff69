"""Combinatorial primitives: choice universes, menu/choice paths, and the
observed distribution over choice paths, plus estimation from panel data and
the marginal/conditional/slicing/pooling transforms.

Index conventions used everywhere in the package:

* periods are kept in the order declared by the universe,
* menus are kept in the order declared per period (`Menu.index` is the stable
  1-based id),
* items within a menu are kept in the menu's declared order and addressed by
  1-based position,
* choice paths within a menu path are enumerated with the period-1 index
  varying slowest (row-major), which matches the Kronecker-product row order
  of the type matrices;
* a flat vector over ``rho`` is labelled by ``(menu_path, choice_path)``
  pairs. ``rho_vector`` gathers ``rho`` at any such labels and
  ``path_blocks`` splits a path-major vector (menu paths in turn, each in
  canonical choice-path order) back into per-path blocks: these two are the
  one place the layout between ``rho`` and the flat vectors lives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import RejectedRecordError, SchemaError

PROB_TOL = 1e-9


@dataclass(frozen=True)
class Menu:
    """A menu: a stable 1-based index and an ordered tuple of item ids."""

    index: int
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) == 0:
            raise SchemaError(f"menu {self.index} is empty")
        if len(set(self.items)) != len(self.items):
            raise SchemaError(f"menu {self.index} has duplicate items")

    @property
    def size(self) -> int:
        return len(self.items)

    def position(self, item) -> int:
        """1-based position of an item inside the menu."""
        try:
            return self.items.index(item) + 1
        except ValueError:
            raise SchemaError(f"item {item!r} not in menu {self.index}")


@dataclass(frozen=True)
class ChoiceUniverse:
    """Per-period alternatives, primitive partial order, and menus.

    ``alternatives[t]`` and ``menus[t]`` are tuples; ``primitive_order[t]``
    is a tuple of ``(dominant, dominated)`` pairs of frozensets of
    alternative ids, where singleton sets encode item-level pairs. A universe
    compares and hashes by these values, so it can key a memo.
    """

    periods: tuple
    alternatives: dict
    menus: dict
    primitive_order: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.periods) < 1:
            raise SchemaError("need at least one period")
        if len(set(self.periods)) != len(self.periods):
            raise SchemaError("duplicate period labels")
        object.__setattr__(self, "periods", tuple(self.periods))
        for t in self.periods:
            if not self.alternatives.get(t):
                raise SchemaError(f"period {t} has no alternatives")
            if not self.menus.get(t):
                raise SchemaError(f"period {t} has no menus")
        object.__setattr__(self, "alternatives",
                           {t: tuple(self.alternatives[t]) for t in self.periods})
        object.__setattr__(self, "menus", {t: tuple(self.menus[t]) for t in self.periods})
        object.__setattr__(self, "primitive_order",
                           {t: tuple((frozenset(dom), frozenset(sub))
                                     for dom, sub in self.primitive_order.get(t, ()))
                            for t in self.periods})
        for t in self.periods:
            alts, menus = self.alternatives[t], self.menus[t]
            seen = set()
            for menu in menus:
                if menu.index in seen:
                    raise SchemaError(f"duplicate menu index {menu.index} in period {t}")
                seen.add(menu.index)
                unknown = set(menu.items) - set(alts)
                if unknown:
                    raise SchemaError(f"menu {menu.index} in period {t} has unknown items {unknown}")
            for dom, sub in self.primitive_order[t]:
                if not (set(dom) <= set(alts) and set(sub) <= set(alts)):
                    raise SchemaError(f"primitive-order pair outside X^{t}")
            if _order_has_cycle(self.primitive_order[t], alts):
                raise SchemaError(f"primitive order in period {t} has a cycle")

    def __hash__(self):
        return hash((self.periods,
                     *(self.alternatives[t] for t in self.periods),
                     *(self.menus[t] for t in self.periods),
                     *(self.primitive_order[t] for t in self.periods)))

    @property
    def num_periods(self) -> int:
        return len(self.periods)

    def menu(self, t, j: int) -> Menu:
        for menu in self.menus[t]:
            if menu.index == j:
                return menu
        raise SchemaError(f"unknown menu id {j} in period {t}")

    def menu_indices(self, t) -> tuple:
        return tuple(menu.index for menu in self.menus[t])

    def choice_paths(self, menu_path: tuple):
        """All choice paths for a menu path, period-1 index slowest."""
        sizes = [self.menu(t, j).size for t, j in zip(self.periods, menu_path)]
        return list(itertools.product(*[range(1, s + 1) for s in sizes]))

    def path_items(self, menu_path: tuple, choice_path: tuple) -> tuple:
        """Item ids chosen along a path."""
        out = []
        for t, j, i in zip(self.periods, menu_path, choice_path):
            menu = self.menu(t, j)
            if not 1 <= i <= menu.size:
                raise SchemaError(f"choice index {i} outside menu {j} in period {t}")
            out.append(menu.items[i - 1])
        return tuple(out)


def _order_has_cycle(pairs, alternatives) -> bool:
    """Cycle test for the declared partial order under transitive closure.

    Subset-level pairs are projected to the relation 'some element of the
    dominant set precedes every element of the dominated set', whose
    consistency is equivalent to acyclicity of the induced relation on the
    dominant-set representatives; a sufficient practical test is acyclicity
    of the bipartite expansion linking every dominant element to every
    dominated element, which is exact for singleton pairs.
    """
    adjacency = {a: set() for a in alternatives}
    for dom, sub in pairs:
        for a in dom:
            adjacency[a].update(sub)
    return _has_cycle(alternatives, adjacency)


def _has_cycle(nodes, adj) -> bool:
    """Whether the digraph with successor sets ``adj`` over ``nodes`` has a
    directed cycle (depth-first search)."""
    color = {n: 0 for n in nodes}

    def dfs(n):
        color[n] = 1
        for m in adj[n]:
            if color[m] == 1:
                return True
            if color[m] == 0 and dfs(m):
                return True
        color[n] = 2
        return False

    return any(dfs(n) for n in nodes if color[n] == 0)


@dataclass(frozen=True)
class StochasticChoiceFunction:
    """Observed probability vectors over choice paths, one per menu path.

    ``probs[j]`` is a vector over the canonical choice-path order of menu
    path ``j``. ``counts[j]`` is the per-menu-path sample size when the
    function was estimated; ``choice_counts[j]`` keeps the exact integer
    tallies so tests can re-derive rationals.
    """

    universe: ChoiceUniverse
    probs: dict
    counts: dict | None = None
    choice_counts: dict | None = None

    def __post_init__(self):
        for path, vec in self.probs.items():
            expected = len(self.universe.choice_paths(path))
            if len(vec) != expected:
                raise SchemaError(f"menu path {path}: expected {expected} entries, got {len(vec)}")
            arr = np.asarray(vec, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise SchemaError(f"menu path {path}: probabilities are not finite")
            if np.any(arr < -PROB_TOL) or np.any(arr > 1 + PROB_TOL):
                raise SchemaError(f"menu path {path}: probabilities outside [0,1]")
            if abs(arr.sum() - 1.0) > PROB_TOL:
                raise SchemaError(f"menu path {path}: probabilities sum to {arr.sum()}, not 1")

    @classmethod
    def _trusted(cls, universe, probs):
        """Build without validation, for vectors the caller has just built
        clipped to [0, 1] and normalised over the universe's choice paths."""
        self = object.__new__(cls)
        self.__dict__.update(universe=universe, probs=probs, counts=None, choice_counts=None)
        return self

    @property
    def observed_paths(self) -> list:
        return sorted(self.probs)

    def prob(self, menu_path: tuple, choice_path: tuple) -> float:
        idx = self.universe.choice_paths(menu_path).index(tuple(choice_path))
        return float(np.asarray(self.probs[menu_path])[idx])

    def fractions(self, menu_path: tuple):
        """Exact per-path probabilities when integer tallies are available."""
        if not self.choice_counts or menu_path not in self.choice_counts:
            raise SchemaError("no integer tallies recorded for this menu path")
        tallies = self.choice_counts[menu_path]
        total = int(sum(tallies))
        return [Fraction(int(c), total) for c in tallies]


def rho_vector(rho: StochasticChoiceFunction, labels) -> np.ndarray:
    """``rho`` gathered at ``(menu_path, choice_path)`` labels, in the
    labels' order. On a one-period ``rho`` a static ``(menu, item)`` label
    reads as ``((menu,), (item,))``.

    Raises SchemaError when a label's menu path is not observed, or on a
    static label of a longer ``rho``.
    """
    out = np.empty(len(labels))
    index = {}
    for k, (path, cp) in enumerate(labels):
        if not isinstance(path, tuple):
            if rho.universe.num_periods != 1:
                raise SchemaError(f"label {(path, cp)!r} is a one-period (menu, item) label; "
                                  f"a {rho.universe.num_periods}-period rho is gathered at "
                                  "(menu_path, choice_path) labels")
            path, cp = (path,), (cp,)
        if path not in index:
            if path not in rho.probs:
                raise SchemaError(f"menu path {path} is not observed in rho")
            index[path] = ({c: i for i, c in enumerate(rho.universe.choice_paths(path))},
                           np.asarray(rho.probs[path], dtype=float))
        position, probs = index[path]
        out[k] = probs[position[cp]]
    return out


def path_blocks(universe: ChoiceUniverse, paths, vec) -> dict:
    """Inverse of ``rho_vector`` on a path-major vector: each menu path's
    block of ``vec`` (a view), for ``paths`` in the given order.

    Raises SchemaError when the blocks do not cover ``vec`` exactly.
    """
    blocks, start = {}, 0
    for path in paths:
        stop = start + len(universe.choice_paths(path))
        blocks[path] = vec[start:stop]
        start = stop
    if start != len(vec):
        raise SchemaError(f"a vector of {len(vec)} entries does not split into "
                          f"{start} entries over the menu paths")
    return blocks


@dataclass(frozen=True)
class PanelRecord:
    agent_id: object
    period: object
    menu_id: int
    choice_id: object
    quantity: tuple | None = None


class PanelDataset:
    """One record per (agent, period), held as numpy columns.

    ``agent``, ``period`` and ``menu`` are read-only 1-d columns of equal
    length; columns of plain integers are int64, anything else (strings,
    tuples) is stored as objects. Choices are held as integer
    ``choice_codes`` into the tuple ``choice_ids``, so tallies never hash
    an item id per record; ``choice`` gives them back as a column.
    ``quantity`` is None or a read-only (n, K) float array of point-level
    demands with a NaN row for every record that carries none. ``records``
    is a derived view with one ``PanelRecord`` per row. Agents must cover
    every period, which ``estimate_rho`` checks.
    """

    def __init__(self, records=()):
        records = tuple(records)
        self._set_columns([r.agent_id for r in records], [r.period for r in records],
                          [r.menu_id for r in records], [r.choice_id for r in records],
                          _quantity_matrix([r.quantity for r in records]))

    @classmethod
    def from_columns(cls, agent, period, menu, choice, quantity=None,
                     choice_ids=None) -> "PanelDataset":
        """Panel straight from column data, without a record per row. With
        ``choice_ids``, ``choice`` holds integer codes into it."""
        panel = cls.__new__(cls)
        panel._set_columns(agent, period, menu, choice, quantity, choice_ids)
        return panel

    def _set_columns(self, agent, period, menu, choice, quantity, choice_ids=None):
        self.agent, self.period, self.menu = _column(agent), _column(period), _column(menu)
        if choice_ids is None:
            codes, choice_ids = _codes(_column(choice))
        else:
            codes = np.array(choice, dtype=np.intp)
            if codes.ndim != 1 or (len(codes) and not 0 <= codes.min() <= codes.max()
                                   < len(choice_ids)):
                raise SchemaError("choice codes must index choice_ids")
        codes.setflags(write=False)
        self.choice_codes, self.choice_ids = codes, tuple(choice_ids)
        n = len(self.agent)
        if any(len(col) != n for col in (self.period, self.menu, self.choice_codes)):
            raise SchemaError("panel columns differ in length")
        if quantity is not None:
            quantity = np.array(quantity, dtype=float)
            if quantity.ndim != 2 or quantity.shape[0] != n:
                raise SchemaError("quantity must have one row per record")
            quantity.setflags(write=False)
        self.quantity = quantity

    def __len__(self) -> int:
        return len(self.agent)

    def __eq__(self, other):
        if not isinstance(other, PanelDataset):
            return NotImplemented
        return self.records == other.records

    def __hash__(self):
        return hash(self.records)

    def __repr__(self) -> str:
        return f"PanelDataset(records={self.records!r})"

    @property
    def choice(self) -> np.ndarray:
        ids = np.fromiter(self.choice_ids, dtype=object, count=len(self.choice_ids))
        return _column(ids[self.choice_codes])

    @cached_property
    def records(self) -> tuple:
        if self.quantity is None:
            quantities = [None] * len(self)
        else:
            quantities = [None if np.isnan(row).all() else tuple(row.tolist())
                          for row in self.quantity]
        return tuple(PanelRecord(*fields) for fields in
                     zip(self.agent.tolist(), self.period.tolist(), self.menu.tolist(),
                         self.choice.tolist(), quantities))


def _column(values) -> np.ndarray:
    """Read-only 1-d column: int64 when every value is a plain integer,
    objects otherwise."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        col = values.astype(np.int64)
    else:
        items = values.tolist() if isinstance(values, np.ndarray) else list(values)
        col = None
        if all(type(v) is int for v in items):
            try:
                col = np.array(items, dtype=np.int64)
            except OverflowError:
                pass
        if col is None:
            col = np.fromiter(items, dtype=object, count=len(items))
    if col.ndim != 1:
        raise SchemaError("panel columns must be one-dimensional")
    col.setflags(write=False)
    return col


def _quantity_matrix(quantities: list):
    """(n, K) float array with NaN rows for missing vectors, or None."""
    given = [q for q in quantities if q is not None]
    if not given:
        return None
    widths = {len(q) for q in given}
    if len(widths) != 1:
        raise SchemaError("quantity vectors differ in length")
    out = np.full((len(quantities), widths.pop()), np.nan)
    for row, q in enumerate(quantities):
        if q is not None:
            out[row] = q
    return out


def _codes(column: np.ndarray):
    """(codes, values): each row's index into the distinct values of a
    column. Integer values come sorted, objects in first-seen order."""
    if column.dtype == object:
        items = column.tolist()
        values = list(dict.fromkeys(items))
        lookup = {v: i for i, v in enumerate(values)}
        return np.fromiter(map(lookup.__getitem__, items), dtype=np.intp,
                           count=len(items)), values
    values, codes = np.unique(column, return_inverse=True)
    return codes.reshape(-1), values.tolist()


def _agent_grid(panel: PanelDataset, universe: ChoiceUniverse):
    """Row of each agent's record per universe period, as an (agents,
    periods) array, and the period position of every record.

    Raises RejectedRecordError when an agent has two records for one period,
    lacks a period or has a period the universe does not declare.
    """
    agent_codes, agents = _codes(panel.agent)
    period_codes, period_values = _codes(panel.period)
    slot = {t: k for k, t in enumerate(universe.periods)}
    period_pos = np.array([slot.get(t, -1) for t in period_values], dtype=np.intp)[period_codes]
    T = len(slot)
    known = period_pos >= 0
    cells = agent_codes * T + period_pos
    filled = np.bincount(cells[known], minlength=len(agents) * T)
    if known.all() and (filled == 1).all():
        grid = np.empty(len(agents) * T, dtype=np.intp)
        grid[cells] = np.arange(len(panel))
        return grid.reshape(-1, T), period_pos
    repeated = np.flatnonzero(known & (filled[np.where(known, cells, 0)] > 1))
    if repeated.size:
        row = repeated[0]
        raise RejectedRecordError(f"agent {panel.agent[row]} has duplicate records "
                                  f"for period {panel.period[row]}")
    bad = (filled.reshape(-1, T) == 0).any(axis=1)
    bad[agent_codes[~known]] = True
    code = agent_codes[np.flatnonzero(bad[agent_codes])[0]]
    seen = set(panel.period[agent_codes == code].tolist())
    missing = set(universe.periods) - seen
    if missing:
        raise RejectedRecordError(f"agent {agents[code]} is missing periods "
                                  f"{sorted(map(str, missing))}")
    raise RejectedRecordError(f"agent {agents[code]} has unknown periods "
                              f"{sorted(map(str, seen - set(universe.periods)))}")


def estimate_rho(panel: PanelDataset, universe: ChoiceUniverse) -> StochasticChoiceFunction:
    """Sample frequencies of choice paths per observed menu path.

    Each distinct (period, menu, choice) is resolved to a menu position
    once; each agent's menu path gets a code, and ``tally_rho`` counts the
    agents per menu path. Menu paths never observed are absent from the
    output rather than zero-filled.
    """
    grid, period_pos = _agent_grid(panel, universe)
    menu_codes, menu_ids = _codes(panel.menu)
    n_menus, n_choices = len(menu_ids), len(panel.choice_ids)
    key = (period_pos * n_menus + menu_codes) * n_choices + panel.choice_codes
    triples, inverse = np.unique(key, return_inverse=True)
    position = np.empty(len(triples), dtype=np.intp)
    for k, triple in enumerate(triples.tolist()):
        rest, c = divmod(triple, n_choices)
        t, m = divmod(rest, n_menus)
        menu = universe.menu(universe.periods[t], menu_ids[m])
        position[k] = _resolve_choice(menu, panel.choice_ids[c]) - 1
    position = position[inverse.reshape(-1)][grid]
    # per agent: menu path code, in the sorted order of the menu codes
    path = np.zeros(len(grid), dtype=np.intp)
    for k in range(grid.shape[1]):
        path = np.unique(path * n_menus + menu_codes[grid[:, k]],
                         return_inverse=True)[1].reshape(-1)
    agent_of = np.empty(int(path.max()) + 1 if len(path) else 0, dtype=np.intp)
    agent_of[path] = np.arange(len(grid))
    menu_paths = [tuple(menu_ids[c] for c in menu_codes[grid[agent]].tolist())
                  for agent in agent_of.tolist()]
    return tally_rho(universe, menu_paths, path, position)


def tally_rho(universe: ChoiceUniverse, menu_paths: list, path: np.ndarray,
              position: np.ndarray) -> StochasticChoiceFunction:
    """The stochastic choice function of tallied agents: agent i faced menu
    path ``menu_paths[path[i]]`` and chose the 0-based positions
    ``position[i]``, one per universe period.

    Each agent's choice path is one cell of its menu path's choice paths,
    read as a mixed-radix number with period 1 slowest (the canonical
    order); one bincount counts the agents per (menu path, cell). Every
    menu path in ``menu_paths`` needs at least one agent; the output keeps
    their order and gives each its probabilities ``raw / total``, its sample
    size ``total`` and its integer tallies ``raw``.
    """
    T = universe.num_periods
    sizes = np.array([[universe.menu(t, j).size for t, j in zip(universe.periods, menu_path)]
                      for menu_path in menu_paths], dtype=np.intp).reshape(-1, T)
    size = sizes[path]
    cell = np.zeros(len(path), dtype=np.intp)
    for k in range(T):
        cell = cell * size[:, k] + position[:, k]
    cells = sizes.prod(axis=1)
    width = int(cells.max()) if len(cells) else 0
    table = np.bincount(path * width + cell,
                        minlength=len(menu_paths) * width).reshape(len(menu_paths), width)
    probs, counts, choice_counts = {}, {}, {}
    for p, (menu_path, n_cells) in enumerate(zip(menu_paths, cells.tolist())):
        raw = table[p, :n_cells].copy()
        total = int(raw.sum())
        probs[menu_path] = raw / total
        counts[menu_path] = total
        choice_counts[menu_path] = raw
    return StochasticChoiceFunction(universe, probs, counts, choice_counts)


def _resolve_choice(menu: Menu, choice_id) -> int:
    """Position of a chosen item, accepting either the item id or its
    1-based position within the menu."""
    try:
        return menu.position(choice_id)
    except SchemaError:
        if isinstance(choice_id, int) and 1 <= choice_id <= menu.size:
            return choice_id
        raise


def path_frequencies(rho: StochasticChoiceFunction, t) -> dict:
    """Conditional menu-path frequencies F(j | j_t) from recorded counts.

    Falls back to the uniform distribution over observed paths sharing each
    period-t menu when no counts are recorded.
    """
    t_pos = rho.universe.periods.index(t)
    weights = {}
    groups = {}
    for path in rho.observed_paths:
        groups.setdefault(path[t_pos], []).append(path)
    for jt, paths in groups.items():
        if rho.counts:
            totals = np.array([rho.counts.get(p, 0) for p in paths], dtype=float)
            if totals.sum() == 0:
                totals = np.ones(len(paths))
        else:
            totals = np.ones(len(paths))
        for p, w in zip(paths, totals / totals.sum()):
            weights[p] = w
    return weights


@dataclass(frozen=True)
class MarginalReport:
    """Conditional, marginal, and slicing transforms for one period.

    ``conditional[(menu_path, off_t_choices)]`` is the distribution over the
    period-t choice given the other periods' choices, or None where the
    conditioning mass is zero (flagged, not a crash). ``marginal[menu_path]``
    is the period-t distribution over the patches of its period-t menu.
    ``slice[j_t]`` mixes the marginals with the supplied path frequencies.
    """

    period: object
    conditional: dict
    marginal: dict
    slice: dict
    zero_mass_flags: tuple


def marginal_conditional_slice(rho: StochasticChoiceFunction, t, weights: dict | None = None) -> MarginalReport:
    """Exact conditional/marginal/slicing transforms at period ``t``."""
    uni = rho.universe
    if t not in uni.periods:
        raise SchemaError(f"unknown period {t}")
    t_pos = uni.periods.index(t)
    if weights is None:
        weights = path_frequencies(rho, t)
    else:
        groups = {}
        for path, w in weights.items():
            groups.setdefault(path[t_pos], 0.0)
            groups[path[t_pos]] += w
        for jt, tot in groups.items():
            if abs(tot - 1.0) > PROB_TOL:
                raise SchemaError(f"weights for period-{t} menu {jt} sum to {tot}, not 1")

    conditional, marginal, flags = {}, {}, []
    for path in rho.observed_paths:
        order = uni.choice_paths(path)
        arr = np.asarray(rho.probs[path], dtype=float)
        menu_t = uni.menu(t, path[t_pos])
        marg = np.zeros(menu_t.size)
        for cp, p in zip(order, arr):
            marg[cp[t_pos] - 1] += p
        marginal[path] = marg
        off_groups = {}
        for cp, p in zip(order, arr):
            key = tuple(v for k, v in enumerate(cp) if k != t_pos)
            off_groups.setdefault(key, np.zeros(menu_t.size))
            off_groups[key][cp[t_pos] - 1] += p
        for key, vec in off_groups.items():
            mass = vec.sum()
            if mass <= PROB_TOL:
                conditional[(path, key)] = None
                flags.append((path, key))
            else:
                conditional[(path, key)] = vec / mass

    slices = {}
    for path, marg in marginal.items():
        jt = path[t_pos]
        w = weights.get(path, 0.0)
        slices.setdefault(jt, np.zeros(len(marg)))
        slices[jt] = slices[jt] + w * marg
    return MarginalReport(t, conditional, marginal, slices, tuple(flags))
