"""Flat-file formats: universes (JSON), panels/rho/budgets/lotteries/g
(CSV), and matrix export (Matrix Market plus labelled CSV)."""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from io import StringIO
from pathlib import Path

import numpy as np
from scipy.io import mmwrite
from scipy.sparse import coo_matrix

from .errors import SchemaError
from .geometry import Budget
from .model import ChoiceUniverse, Menu, PanelDataset, StochasticChoiceFunction


def _coerce(value):
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


def _item_from_json(item):
    return tuple(item) if isinstance(item, list) else item


def universe_to_json(universe: ChoiceUniverse) -> dict:
    def items_out(seq):
        return [list(i) if isinstance(i, tuple) else i for i in seq]

    return {
        "periods": list(universe.periods),
        "alternatives": [items_out(universe.alternatives[t]) for t in universe.periods],
        "menus": [[{"id": m.index, "items": items_out(m.items)} for m in universe.menus[t]]
                  for t in universe.periods],
        "primitive_order": [[[items_out(sorted(dom, key=str)), items_out(sorted(sub, key=str))]
                             for dom, sub in universe.primitive_order.get(t, ())]
                            for t in universe.periods],
    }


def universe_from_json(doc: dict) -> ChoiceUniverse:
    periods = tuple(doc["periods"])
    alternatives, menus, order = {}, {}, {}
    for k, t in enumerate(periods):
        alternatives[t] = tuple(_item_from_json(i) for i in doc["alternatives"][k])
        menus[t] = tuple(Menu(m["id"], tuple(_item_from_json(i) for i in m["items"]))
                         for m in doc["menus"][k])
        pairs = doc.get("primitive_order", [[] for _ in periods])[k]
        order[t] = tuple((frozenset(_item_from_json(i) for i in dom),
                          frozenset(_item_from_json(i) for i in sub))
                         for dom, sub in pairs)
    return ChoiceUniverse(periods, alternatives, menus, order)


def write_universe(universe: ChoiceUniverse, path):
    Path(path).write_text(json.dumps(universe_to_json(universe), indent=1))


def read_universe(path) -> ChoiceUniverse:
    return universe_from_json(json.loads(Path(path).read_text()))


def write_panel(panel: PanelDataset, universe: ChoiceUniverse, path):
    """Header agent_id,period,menu_id,choice_id[,q_1..q_K]; choices are
    written as 1-based positions within the faced menu, except where that
    position is itself an item of the menu: ``estimate_rho`` reads a choice
    as an item id first, so such a choice is written as its item id."""
    has_q = any(rec.quantity is not None for rec in panel.records)
    n_q = max((len(rec.quantity) for rec in panel.records if rec.quantity), default=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["agent_id", "period", "menu_id", "choice_id"]
        if has_q:
            header += [f"q_{k+1}" for k in range(n_q)]
        w.writerow(header)
        for rec in panel.records:
            menu = universe.menu(rec.period, rec.menu_id)
            pos = rec.choice_id
            if pos in menu.items and menu.position(pos) not in menu.items:
                pos = menu.position(pos)
            row = [rec.agent_id, rec.period, rec.menu_id, pos]
            if has_q:
                row += list(rec.quantity) if rec.quantity else [""] * n_q
            w.writerow(row)


PANEL_ID_COLUMNS = ("agent_id", "period", "menu_id", "choice_id")
# deletes every character a plainly integer panel body may hold
_PLAIN_FIELDS = str.maketrans("", "", "0123456789,\n")


def read_panel(path) -> PanelDataset:
    """Panel columns straight from the file; quantities are read when the
    file has ``q_*`` columns, with a NaN row where the first is blank. A
    file of plain integer fields is parsed in one pass (``_integer_panel``)."""
    agent, period, menu, choice, quantity = [], [], [], [], []
    with open(path, newline="") as fh:
        columns = _integer_panel(fh.read())
        if columns is not None:
            return PanelDataset.from_columns(*columns)
        fh.seek(0)
        reader = csv.DictReader(fh)
        q_cols = [c for c in reader.fieldnames or [] if c.startswith("q_")]
        for row in reader:
            agent.append(_coerce(row["agent_id"]))
            period.append(_coerce(row["period"]))
            menu.append(int(row["menu_id"]))
            choice.append(_coerce(row["choice_id"]))
            if q_cols:
                quantity.append([float(row[c]) for c in q_cols] if row[q_cols[0]] != ""
                                else [np.nan] * len(q_cols))
    quantity = np.array(quantity, dtype=float)
    has_q = quantity.ndim == 2 and not np.isnan(quantity[:, 0]).all()
    return PanelDataset.from_columns(agent, period, menu, choice, quantity if has_q else None)


def _integer_panel(text: str):
    """The id columns (agent, period, menu, choice) of a panel file as int64
    arrays, or None unless the file is plainly integer: a header of distinct
    unquoted names that include the four ids and no ``q_*`` column, then
    rows of one field per name, every field ASCII digits that fit in int64,
    lines ending in LF or CRLF. Such a file reads the same as through
    ``csv.DictReader`` with ``_coerce``, which also skips blank lines."""
    header, _, body = text.partition("\n")
    names = header.removesuffix("\r").split(",")
    body = body.replace("\r\n", "\n")
    if (len(set(names)) != len(names) or not set(PANEL_ID_COLUMNS) <= set(names)
            or any(name.startswith("q_") for name in names)
            or not body.strip("\n") or body.translate(_PLAIN_FIELDS)):
        return None
    try:
        values = np.loadtxt(StringIO(body), dtype=np.int64, delimiter=",", comments=None,
                            ndmin=2)
    except ValueError:  # ragged rows, empty fields or ids beyond int64
        return None
    if values.shape[1] != len(names):
        return None
    return tuple(values[:, names.index(name)] for name in PANEL_ID_COLUMNS)


def write_rho(rho: StochasticChoiceFunction, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["menu_path", "choice_path", "prob", "count"])
        for menu_path in rho.observed_paths:
            arr = np.asarray(rho.probs[menu_path], dtype=float)
            count = rho.counts.get(menu_path, "") if rho.counts else ""
            for cp, p in zip(rho.universe.choice_paths(menu_path), arr):
                w.writerow(["|".join(map(str, menu_path)), "|".join(map(str, cp)),
                            repr(float(p)), count])


def read_rho(path, universe: ChoiceUniverse) -> StochasticChoiceFunction:
    """A choice path without a row has probability 0; a repeated row, a
    choice path that its menu path lacks or rows of one menu path with
    different counts raise SchemaError."""
    table = {}
    counts = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            menu_path = tuple(int(v) for v in row["menu_path"].split("|"))
            cp = tuple(int(v) for v in row["choice_path"].split("|"))
            if menu_path not in table:
                table[menu_path] = dict.fromkeys(universe.choice_paths(menu_path))
            if cp not in table[menu_path]:
                raise SchemaError(f"{cp} is not a choice path of menu path {menu_path}")
            if table[menu_path][cp] is not None:
                raise SchemaError(f"menu path {menu_path}, choice path {cp} has two rows")
            table[menu_path][cp] = float(row["prob"])
            if row.get("count"):
                count = int(float(row["count"]))
                if counts.setdefault(menu_path, count) != count:
                    raise SchemaError(f"menu path {menu_path} has rows with counts "
                                      f"{counts[menu_path]} and {count}")
    probs = {menu_path: np.array([0.0 if p is None else p for p in entries.values()])
             for menu_path, entries in table.items()}
    return StochasticChoiceFunction(universe, probs, counts or None)


def read_budgets(path) -> dict:
    """period,budget_id,price_1..price_K,expenditure -> {period: [Budget]}."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        price_cols = sorted((c for c in reader.fieldnames or [] if c.startswith("price_")),
                            key=lambda c: int(c.split("_")[1]))
        if not price_cols:
            raise SchemaError("budgets.csv needs price_1..price_K columns")
        for row in reader:
            t = _coerce(row["period"])
            prices = tuple(Fraction(row[c]) for c in price_cols)
            out.setdefault(t, []).append(Budget(t, int(row["budget_id"]), prices,
                                                Fraction(row["expenditure"])))
    return {t: sorted(bs, key=lambda b: b.index) for t, bs in out.items()}


def write_budgets(budgets_by_period: dict, path):
    periods = sorted(budgets_by_period, key=str)
    K = budgets_by_period[periods[0]][0].num_goods
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["period", "budget_id"] + [f"price_{k+1}" for k in range(K)]
                   + ["expenditure"])
        for t in periods:
            for b in budgets_by_period[t]:
                w.writerow([t, b.index] + [str(p) for p in b.prices] + [str(b.expenditure)])


def read_lotteries(path) -> dict:
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        prize_cols = sorted((c for c in reader.fieldnames or [] if c.startswith("prize_")),
                            key=lambda c: int(c.split("_")[1]))
        for row in reader:
            out[_coerce(row["alternative_id"])] = tuple(Fraction(row[c]) for c in prize_cols)
    return out


def read_g(path):
    lower, upper = {}, {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["budget_id"]), int(row["patch_id"]))
            lower[key] = float(row["g_lower"])
            upper[key] = float(row["g_upper"])
    return lower, upper


def export_matrix(matrix, row_labels, col_labels, stem):
    """Write <stem>.mtx (coordinate Matrix Market) and <stem>.csv with the
    row/column index maps."""
    dense = np.asarray(matrix)
    mmwrite(str(stem) + ".mtx", coo_matrix(dense))
    with open(str(stem) + ".csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row_label"] + [str(c) for c in col_labels])
        for lab, row in zip(row_labels, dense):
            w.writerow([str(lab)] + [int(v) if float(v).is_integer() else float(v)
                                     for v in row])
