"""Catalog geometries and published inequality tables.

The canonical patch numbering of each catalog geometry is fixed here as an
explicit sign-vector map so the type/inequality matrices come out exactly in
their published row and column order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .geometry import Budget
from .model import ChoiceUniverse, Menu

# --- abstract binary-menu setup -------------------------------------------

def binary_universe(alternatives=("x", "y", "z"), periods=(1, 2)) -> ChoiceUniverse:
    """All two-element menus of a common choice set, empty primitive order."""
    alts = tuple(alternatives)
    menus = tuple(Menu(k + 1, pair)
                  for k, pair in enumerate(itertools.combinations(alts, 2)))
    return ChoiceUniverse(tuple(periods),
                          {t: alts for t in periods},
                          {t: menus for t in periods})


# --- demand geometries ------------------------------------------------------

def simple_budgets(periods=(1, 2)) -> dict:
    """Two intersecting budgets per period: prices (2,1) and (1,2), w = 1."""
    return {t: [Budget(t, 1, (Fraction(2), Fraction(1)), Fraction(1)),
                Budget(t, 2, (Fraction(1), Fraction(2)), Fraction(1))]
            for t in periods}


# patch numbering of the two-budget setup: on the steep budget the piece
# above the other budget comes first; on the flat budget the piece below
# the other budget comes first (the sweep away from the last-good axis)
SIMPLE_INDEX_MAPS = {1: {(1,): 1, (-1,): 2},
                     2: {(-1,): 1, (1,): 2}}


def demand3x3_budgets(periods=(1,)) -> dict:
    """Three budgets with maximal intersections: every pair of budget planes
    crosses inside the positive orthant and each budget is split into four
    open cells by the other two."""
    prices = [(1, 2, 4), (2, 4, 1), (4, 1, 2)]
    return {t: [Budget(t, j + 1, tuple(Fraction(v) for v in p), Fraction(1))
                for j, p in enumerate(prices)]
            for t in periods}


# published numbering of the four open cells per budget, keyed by the
# (above=+1 / below=-1) signs relative to the other budgets in ascending
# index order
DEMAND3X3_INDEX_MAPS = {
    1: {(1, 1): 1, (-1, 1): 2, (1, -1): 3, (-1, -1): 4},
    2: {(1, 1): 1, (-1, 1): 2, (1, -1): 3, (-1, -1): 4},
    3: {(1, 1): 1, (1, -1): 2, (-1, 1): 3, (-1, -1): 4},
}


# --- published inequality tables -------------------------------------------

# complete facet table of the two-budget setup over
# (x_{1|1}, x_{2|1}, x_{1|2}, x_{2|2})
H_SIMPLE = np.array([
    [1, 0, -1, 0],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
], dtype=int)

# facet table of the three-budget maximal-intersection geometry, excluding
# nonnegativity, over patches (1|1..4|1, 1|2..4|2, 1|3..4|3)
H_DEMAND3X3 = np.array([
    [0, 0, 0, -1, 0, 0, 0, -1, 1, 1, 1, 0],
    [0, 0, 0, -1, 1, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0],
    [0, -1, 0, -1, 1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0, 0, -1, 0, -1],
    [0, 0, -1, -1, 0, 0, 0, 0, 1, 1, 0, 0],
], dtype=int)


def triangle_rows(universe: ChoiceUniverse, t) -> np.ndarray:
    """All ordered-triple triangle rows for a binary-menu universe.

    Row for (a, b, c): +1 at (a from {a,b}), +1 at (b from {b,c}),
    -1 at (a from {a,c}); triples enumerated lexicographically in the
    declared alternative order.
    """
    alts = universe.alternatives[t]
    menus = universe.menus[t]
    col_index = {}
    k = 0
    for menu in menus:
        if menu.size != 2:
            raise ValueError("triangle rows need binary menus")
        for item in menu.items:
            col_index[(menu.index, item)] = k
            k += 1
    menu_of = {frozenset(menu.items): menu.index for menu in menus}
    rows = []
    for a, b, c in itertools.permutations(alts, 3):
        row = np.zeros(k, dtype=int)
        row[col_index[(menu_of[frozenset((a, b))], a)]] += 1
        row[col_index[(menu_of[frozenset((b, c))], b)]] += 1
        row[col_index[(menu_of[frozenset((a, c))], a)]] -= 1
        rows.append(row)
    return np.array(rows, dtype=int)


# --- application lotteries ---------------------------------------------------

def application_lotteries():
    """Three lotteries over four prizes; the third is the even mixture of the
    first two, so expected-utility rankings must place it strictly between
    them."""
    return {
        "l1": (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)),
        "l2": (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        "l3": (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
    }
