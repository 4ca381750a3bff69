"""File formats and the command-line interface."""

import contextlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumtest import catalog, inference, io
from drumtest.cli import build_parser, main
from drumtest.counterfactuals import CounterfactualProblem, bound_functional
from drumtest.errors import ParameterError, SchemaError, SolverError, UsageError
from drumtest.geometry import Budget, demand_universe, enumerate_demand_types
from drumtest.model import (ChoiceUniverse, Menu, PanelDataset, PanelRecord,
                            StochasticChoiceFunction, estimate_rho)
from drumtest.representations import (build_static_A, catalog_H, enumerate_orders, kron_dynamic,
                                      static_type_matrix)
from drumtest.simulate import DgpSpec, simulate

from conftest import failed_solve, rho_from_weights


class TestIO:
    def test_universe_roundtrip(self, binary_uni_T2, tmp_path):
        path = tmp_path / "u.json"
        io.write_universe(binary_uni_T2, path)
        loaded = io.read_universe(path)
        assert loaded == binary_uni_T2

    def test_demand_universe_roundtrip(self, simple_setup, tmp_path):
        path = tmp_path / "u.json"
        io.write_universe(simple_setup["universe"], path)
        loaded = io.read_universe(path)
        assert loaded.menus == simple_setup["universe"].menus
        assert loaded.primitive_order == simple_setup["universe"].primitive_order

    def test_panel_roundtrip(self, tmp_path):
        panel, uni = simulate(DgpSpec("binary2"), 7, seed=0)
        path = tmp_path / "panel.csv"
        io.write_panel(panel, uni, path)
        loaded = io.read_panel(path)
        assert estimate_rho(loaded, uni).probs.keys() == estimate_rho(panel, uni).probs.keys()
        r1, r2 = estimate_rho(loaded, uni), estimate_rho(panel, uni)
        for p in r1.observed_paths:
            assert np.array_equal(r1.probs[p], r2.probs[p])

    def test_integer_item_ids_roundtrip(self, tmp_path):
        """Menu (3, 1) over items 1-3: choice 3 sits at position 1, itself an
        item of the menu, so it is written as its id; choice 1 is written as
        its position 2, which is not an item."""
        uni = ChoiceUniverse((1,), {1: (1, 2, 3)}, {1: (Menu(1, (3, 1)),)})
        panel = PanelDataset([PanelRecord(agent, 1, 1, choice)
                              for agent, choice in enumerate((3, 3, 1))])
        path = tmp_path / "panel.csv"
        io.write_panel(panel, uni, path)
        assert path.read_text().splitlines()[1:] == ["0,1,1,3", "1,1,1,3", "2,1,1,2"]
        for read in (panel, io.read_panel(path)):
            assert np.allclose(estimate_rho(read, uni).probs[(1,)], [2 / 3, 1 / 3])

    def test_demand_panel_with_quantities_roundtrip(self, tmp_path):
        panel, uni = simulate(DgpSpec("cobb-douglas-walk"), 5, seed=1)
        path = tmp_path / "panel.csv"
        io.write_panel(panel, uni, path)
        loaded = io.read_panel(path)
        assert loaded.records[0].quantity is not None
        r1, r2 = estimate_rho(loaded, uni), estimate_rho(panel, uni)
        for p in r1.observed_paths:
            assert np.array_equal(r1.probs[p], r2.probs[p])

    def test_rho_roundtrip(self, simple_setup, tmp_path):
        rng = np.random.default_rng(0)
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                               rng.dirichlet(np.ones(9)))
        path = tmp_path / "rho.csv"
        io.write_rho(rho, path)
        loaded = io.read_rho(path, simple_setup["universe"])
        for p in rho.observed_paths:
            assert np.allclose(loaded.probs[p], rho.probs[p], atol=0)

    def test_budgets_roundtrip(self, tmp_path):
        budgets = catalog.simple_budgets((1, 2))
        path = tmp_path / "budgets.csv"
        io.write_budgets(budgets, path)
        loaded = io.read_budgets(path)
        assert loaded[1][0].prices == budgets[1][0].prices
        assert loaded[2][1].expenditure == budgets[2][1].expenditure

    def test_a_repeated_g_row_is_a_schema_error(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("budget_id,patch_id,g_lower,g_upper\n1,1,0.1,0.9\n1,2,0.2,0.3\n"
                        "1,1,0.5,0.6\n")
        with pytest.raises(SchemaError, match=r"budget 1, patch 1 has two rows"):
            io.read_g(path)

    @pytest.mark.parametrize("fields", ["fewer", "more"])
    @pytest.mark.parametrize("reader", ["panel", "rho", "budgets", "lotteries", "g"])
    def test_a_row_of_the_wrong_width_is_a_schema_error(self, simple_setup, tmp_path,
                                                        reader, fields):
        """A row with fewer or more fields than its header names its line;
        none is filled with None or cut to the header's width."""
        header, good, short = {
            "panel": ("agent_id,period,menu_id,choice_id", "1,1,1,1", "2,1,1"),
            "rho": ("menu_path,choice_path,prob,count", "1|1,1|1,0.5,4", "1|1,1|2,0.5"),
            "budgets": ("period,budget_id,price_1,price_2,expenditure", "1,1,2,1,1",
                        "1,2,1,2"),
            "lotteries": ("alternative_id,prize_1,prize_2", "l1,1/2,1/2", "l2,1"),
            "g": ("budget_id,patch_id,g_lower,g_upper", "1,1,0.1,0.9", "1,2,0.2"),
        }[reader]
        bad = short if fields == "fewer" else short + ",1,1"
        path = tmp_path / f"{reader}.csv"
        path.write_text(f"{header}\n{good}\n{bad}\n")
        read = {"panel": io.read_panel, "budgets": io.read_budgets,
                "lotteries": io.read_lotteries, "g": io.read_g,
                "rho": lambda p: io.read_rho(p, simple_setup["universe"])}[reader]
        with pytest.raises(SchemaError, match=f"line 3: the row has {fields} fields"):
            read(path)

    def test_a_repeated_lottery_is_a_schema_error(self, tmp_path):
        path = tmp_path / "lotteries.csv"
        path.write_text("alternative_id,prize_1,prize_2\nl1,1/2,1/2\nl2,1,0\nl1,0,1\n")
        with pytest.raises(SchemaError, match=r"alternative 'l1' has two rows"):
            io.read_lotteries(path)

    def test_matrix_export(self, simple_setup, tmp_path):
        A = simple_setup["statics"][0]
        io.export_matrix(A.dense(), A.row_labels, A.col_labels, tmp_path / "A")
        assert (tmp_path / "A.mtx").exists()
        lines = (tmp_path / "A.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows


def _read_both(path, monkeypatch):
    """``read_panel`` of a file as read, and as read with the integer parse
    turned off (the ``csv.DictReader`` route)."""
    fast = io.read_panel(path)
    with monkeypatch.context() as patched:
        patched.setattr(io, "_integer_panel", lambda text: None)
        slow = io.read_panel(path)
    return fast, slow


def _same_panel(got, want):
    for name in ("agent", "period", "menu", "choice_codes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.choice_ids == want.choice_ids
    assert got.quantity is None and want.quantity is None


HEADER = "agent_id,period,menu_id,choice_id"
# plainly integer panels: the one-pass parse reads each of them
INTEGER_PANELS = {
    "lf": HEADER + "\n1,1,2,1\n1,2,1,2\n2,1,2,2\n2,2,3,1\n",
    "crlf": HEADER + "\r\n1,1,2,1\r\n1,2,1,2\r\n",
    "no final newline": HEADER + "\n1,1,2,1\n1,2,1,2",
    "reordered, extra column": "choice_id,extra,menu_id,agent_id,period\n1,9,2,1,1\n2,9,1,1,2\n",
    "leading zeros, 19 digits": HEADER + "\n007,1,2,1\n9223372036854775807,2,1,3\n",
    "blank rows": HEADER + "\n1,1,2,1\n\n1,2,1,2\n\n",
}
# panels the one-pass parse leaves to csv.DictReader
OTHER_PANELS = {
    "quoted": HEADER + '\n"1",1,2,1\n',
    "quoted header": '"agent_id",period,menu_id,choice_id\n1,1,2,1\n',
    "sign": HEADER + "\n+1,1,2,1\n",
    "negative": HEADER + "\n-1,1,2,1\n",
    "whitespace": HEADER + "\n1, 1,2,1\n",
    "string id": HEADER + "\na1,1,2,1\n",
    "float id": HEADER + "\n1.0,1,2,1\n",
    "ragged": HEADER + "\n1,1,2,1\n1,2,1\n",
    "empty field": HEADER + "\n1,,2,1\n",
    "beyond int64": HEADER + "\n9223372036854775808,1,2,1\n",
    "blank body": HEADER + "\n\n\r\n",
    "too many fields": HEADER + "\n1,1,2,1,5\n1,2,1,2,5\n",
    "non-ASCII digit": HEADER + "\n\u0661,1,2,1\n",
    "quantities": HEADER + ",q_1,q_2\n1,1,2,1,0.5,0.5\n",
    "header only": HEADER + "\n",
    "duplicate column": HEADER + ",period\n1,1,2,1,2\n",
    "missing column": "agent_id,period,menu_id\n1,1,2\n",
    "lone carriage return": HEADER + "\n1,1,2,1\r1,2,1,2\n",
}


class TestIntegerPanel:
    @pytest.mark.parametrize("name", INTEGER_PANELS)
    def test_integer_panels_read_as_through_the_csv_reader(self, name, tmp_path, monkeypatch):
        text = INTEGER_PANELS[name]
        assert io._integer_panel(text) is not None
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode())
        _same_panel(*_read_both(path, monkeypatch))

    @pytest.mark.parametrize("name", OTHER_PANELS)
    def test_other_panels_take_the_csv_reader(self, name):
        assert io._integer_panel(OTHER_PANELS[name]) is None

    def test_written_panels_take_the_integer_parse(self, tmp_path, monkeypatch):
        panel, uni = simulate(DgpSpec("binary3"), 30, seed=2)
        path = tmp_path / "panel.csv"
        io.write_panel(panel, uni, path)
        assert io._integer_panel(path.read_text()) is not None
        fast, slow = _read_both(path, monkeypatch)
        _same_panel(fast, slow)
        assert fast == slow


def _write_simple_inputs(tmp_path, rho):
    uni = rho.universe
    io.write_universe(uni, tmp_path / "universe.json")
    io.write_rho(rho, tmp_path / "rho.csv")
    io.write_budgets(catalog.simple_budgets((1, 2)), tmp_path / "budgets.csv")


def _legacy_matrices(geometry, T, out):
    """The files ``drum matrices`` wrote when it chose each period's types
    and its patch numbering by hand."""
    out.mkdir(parents=True)
    periods = tuple(range(1, T + 1))
    if geometry == "binary3":
        uni = catalog.binary_universe(periods=periods)
        statics = [build_static_A(uni, t, enumerate_orders(uni, t)) for t in periods]
        kind = "binary"
    else:
        if geometry == "simple":
            budgets, maps = catalog.simple_budgets(periods), catalog.SIMPLE_INDEX_MAPS
        else:
            budgets, maps = catalog.demand3x3_budgets(periods), catalog.DEMAND3X3_INDEX_MAPS
        uni, patches, _ = demand_universe(budgets, periods, maps)
        statics = [build_static_A(uni, t, enumerate_demand_types(patches[t], budgets[t])[0])
                   for t in periods]
        kind = geometry
    H = catalog_H(kind, uni, 1)
    io.export_matrix(statics[0].dense(), statics[0].row_labels, statics[0].col_labels,
                     out / f"A_static_{geometry}")
    A_T = kron_dynamic(statics, sorted(itertools.product(*[uni.menu_indices(t) for t in periods])),
                       uni)
    io.export_matrix(A_T.dense(), A_T.row_labels, A_T.col_labels,
                     out / f"A_dynamic_{geometry}_T{T}")
    io.export_matrix(H.full(), [f"row{k}" for k in range(len(H.full()))], H.col_labels,
                     out / f"H_{geometry}")
    io.write_universe(uni, out / f"universe_{geometry}.json")


class TestCli:
    def test_entry_point_importable(self):
        from drumtest.cli import build_parser
        parser = build_parser()
        assert parser.prog == "drum"

    def test_simulate_then_test_accepts(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        code = main(["simulate", "--dgp", "binary3", "--n", "25", "--seed", "3",
                     "--out", str(panel_path)])
        assert code == 0
        code = main(["test", "--panel", str(panel_path),
                     "--universe", str(panel_path.with_suffix(".universe.json")),
                     "--reps", "49", "--seed", "1",
                     "--report", str(tmp_path / "report.json")])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["reject"] is False

    def test_rejecting_dgp_exits_2(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        main(["simulate", "--dgp", "binary1", "--n", "50", "--seed", "4",
              "--out", str(panel_path)])
        code = main(["test", "--panel", str(panel_path),
                     "--universe", str(panel_path.with_suffix(".universe.json")),
                     "--reps", "49", "--seed", "1"])
        assert code == 2

    def test_negative_seed_exits_1_before_any_projection(self, tmp_path, capsys, monkeypatch):
        panel_path = tmp_path / "panel.csv"
        main(["simulate", "--dgp", "binary1", "--n", "12", "--seed", "4",
              "--out", str(panel_path)])
        projections = []
        monkeypatch.setattr(inference, "nnls_projection",
                            lambda *args: projections.append(args))
        capsys.readouterr()
        code = main(["test", "--panel", str(panel_path),
                     "--universe", str(panel_path.with_suffix(".universe.json")),
                     "--reps", "49", "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: ParameterError: seed must be a non-negative integer, got -1")
        assert projections == []

    def test_check_consistent_rho(self, simple_setup, tmp_path, capsys):
        # constant-type mixture: consistent with every check including the
        # constant-utility path-dominance condition
        rng = np.random.default_rng(1)
        weights = rng.dirichlet(np.ones(3))
        nu = np.zeros(9)
        for k, col in enumerate([((1, 1), (1, 1)), ((1, 2), (1, 2)), ((2, 2), (2, 2))]):
            nu[simple_setup["AT"].col_labels.index(col)] = weights[k]
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], nu)
        _write_simple_inputs(tmp_path, rho)
        code = main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--budgets", str(tmp_path / "budgets.csv"),
                     "--checks", "stability,dmono,hrep,sarpd",
                     "--report", str(tmp_path / "checks.json")])
        assert code == 0
        doc = json.loads((tmp_path / "checks.json").read_text())
        assert all(v["passed"] for v in doc.values())

    def test_check_table9_exits_2(self, simple_setup, table9_rho, tmp_path):
        _write_simple_inputs(tmp_path, table9_rho)
        code = main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--checks", "stability,dmono"])
        assert code == 2

    @pytest.mark.parametrize("geometry", ["simple", "binary3", "demand3x3"])
    def test_matrices_command(self, tmp_path, geometry):
        code = main(["matrices", "--geometry", geometry, "--T", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / f"A_static_{geometry}.mtx").exists()
        assert (tmp_path / f"A_dynamic_{geometry}_T2.csv").exists()
        assert (tmp_path / f"H_{geometry}.mtx").exists()
        assert (tmp_path / f"universe_{geometry}.json").exists()

    def test_bounds_command(self, simple_setup, tmp_path):
        rng = np.random.default_rng(2)
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"],
                               rng.dirichlet(np.ones(9)))
        _write_simple_inputs(tmp_path, rho)
        g_rows = ["budget_id,patch_id,g_lower,g_upper"]
        for j in (1, 2):
            for i in (1, 2):
                g_rows.append(f"{j},{i},0.1,0.9")
        (tmp_path / "g.csv").write_text("\n".join(g_rows))
        code = main(["bounds", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--budgets", str(tmp_path / "budgets.csv"),
                     "--new-budget", "2,1;1,2", "--g", str(tmp_path / "g.csv"),
                     "--out", str(tmp_path / "bounds.json")])
        assert code == 0
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert doc["lower"] <= doc["upper"]
        assert doc["lower"] == pytest.approx(doc["cross_check_lower"], abs=1e-7)

    @pytest.mark.parametrize("command", ["check", "test", "bounds"])
    def test_a_universe_listing_patches_in_another_order_is_a_schema_error(
            self, tmp_path, capsys, command):
        """The same data written against a universe whose menu 1 lists its
        patches in the other order, positions relabelled to match, is
        refused: the budgets number the patches, so the universe must list
        them as the budgets do."""
        panel, uni = simulate(DgpSpec("cobb-douglas-walk"), 20, seed=0)
        menus = {t: tuple(Menu(m.index, m.items[::-1]) if m.index == 1 else m
                          for m in uni.menus[t]) for t in uni.periods}
        swapped = ChoiceUniverse(uni.periods, uni.alternatives, menus, uni.primitive_order)
        io.write_universe(swapped, tmp_path / "universe.json")
        io.write_budgets(catalog.simple_budgets((1, 2)), tmp_path / "budgets.csv")
        io.write_panel(panel, swapped, tmp_path / "panel.csv")
        io.write_rho(estimate_rho(panel, swapped), tmp_path / "rho.csv")
        (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n"
                                        "1,1,0,1\n1,2,0,1\n2,1,0,1\n2,2,0,1\n")
        argv = {"check": ["check", "--input", str(tmp_path / "rho.csv"), "--checks", "cone"],
                "test": ["test", "--panel", str(tmp_path / "panel.csv"), "--reps", "19"],
                "bounds": ["bounds", "--input", str(tmp_path / "rho.csv"), "--new-budget",
                           "2,1;1,2", "--g", str(tmp_path / "g.csv")]}[command]
        code = main(argv + ["--universe", str(tmp_path / "universe.json"),
                            "--budgets", str(tmp_path / "budgets.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: SchemaError: period 1: the universe does not match the supplied budgets")

    def test_short_rows_of_budgets_and_lotteries_exit_1(self, simple_setup, tmp_path, capsys):
        """``drum check --budgets`` and ``drum test --eu`` name the line of a
        row shorter than its header."""
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        with open(tmp_path / "budgets.csv", "a") as fh:
            fh.write("2,3,1,1\n")
        code = main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--budgets", str(tmp_path / "budgets.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: SchemaError: line 6: the row has fewer fields than the 5 of the header")
        panel, uni = simulate(DgpSpec("binary3"), 5, seed=0)
        io.write_panel(panel, uni, tmp_path / "panel.csv")
        io.write_universe(uni, tmp_path / "binary.json")
        (tmp_path / "lotteries.csv").write_text("alternative_id,prize_1,prize_2,prize_3\n"
                                                "l1,1/2,1/2,0\nl2,1/2,1/2\nl3,0,0,1\n")
        code = main(["test", "--panel", str(tmp_path / "panel.csv"),
                     "--universe", str(tmp_path / "binary.json"),
                     "--eu", str(tmp_path / "lotteries.csv"), "--reps", "19"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: SchemaError: line 3: the row has fewer fields than the 4 of the header")

    def test_bounds_rejects_a_repeated_g_row(self, simple_setup, tmp_path, capsys):
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n"
                                        "1,1,0.1,0.9\n1,2,0.1,0.9\n2,1,0.1,0.9\n"
                                        "2,2,0.1,0.9\n1,1,0.5,0.6\n")
        code = main(["bounds", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--budgets", str(tmp_path / "budgets.csv"),
                     "--new-budget", "2,1;1,2", "--g", str(tmp_path / "g.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: SchemaError: budget 1, patch 1 has two rows")

    @pytest.mark.parametrize("geometry", ["simple", "binary3", "demand3x3"])
    @pytest.mark.parametrize("T", [1, 2])
    def test_matrices_files_keep_their_bytes(self, tmp_path, geometry, T):
        assert main(["matrices", "--geometry", geometry, "--T", str(T),
                     "--out", str(tmp_path / "cli")]) == 0
        _legacy_matrices(geometry, T, tmp_path / "legacy")
        written = sorted(p.name for p in (tmp_path / "cli").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "legacy").iterdir())
        for name in written:
            assert (tmp_path / "cli" / name).read_bytes() == \
                (tmp_path / "legacy" / name).read_bytes(), name

    @pytest.mark.parametrize("goods", [2, 3])
    def test_bounds_reads_patches_in_the_check_numbering(self, tmp_path, goods):
        """``drum bounds`` numbers patches like ``drum check`` and the
        library: on the same files the checks pass and the bounds are the
        library's."""
        prices = [(2, 1), (1, 2)] if goods == 2 else [(2, 1, 1), (1, 2, 1)]
        budgets = {t: [Budget(t, j + 1, tuple(map(Fraction, p)), Fraction(1))
                       for j, p in enumerate(prices)] for t in (1, 2)}
        uni, patches, _ = demand_universe(budgets, (1, 2))
        A = kron_dynamic([static_type_matrix(uni, t, patches) for t in uni.periods],
                         sorted(itertools.product((1, 2), repeat=2)), uni)
        rho = rho_from_weights(uni, A, np.random.default_rng(5).dirichlet(np.ones(A.shape[1])))
        io.write_universe(uni, tmp_path / "universe.json")
        io.write_rho(rho, tmp_path / "rho.csv")
        io.write_budgets(budgets, tmp_path / "budgets.csv")
        lower = {(1, 1): 0.1, (1, 2): 0.4, (2, 1): 0.2, (2, 2): 0.7}
        upper = {key: lo + 0.25 for key, lo in lower.items()}
        (tmp_path / "g.csv").write_text("\n".join(
            ["budget_id,patch_id,g_lower,g_upper"]
            + [f"{j},{i},{lower[j, i]},{upper[j, i]}" for j, i in lower]))
        files = ["--input", str(tmp_path / "rho.csv"),
                 "--universe", str(tmp_path / "universe.json"),
                 "--budgets", str(tmp_path / "budgets.csv")]
        assert main(["check", *files, "--checks", "stability,dmono,cone"]) == 0
        new_budget = ";".join(",".join(map(str, p)) for p in prices)
        assert main(["bounds", *files, "--new-budget", new_budget, "--g", str(tmp_path / "g.csv"),
                     "--out", str(tmp_path / "bounds.json")]) == 0
        doc = json.loads((tmp_path / "bounds.json").read_text())
        new_budgets = [Budget("next", j + 1, tuple(map(Fraction, p)), Fraction(1))
                       for j, p in enumerate(prices)]
        report = bound_functional(CounterfactualProblem(
            io.read_rho(tmp_path / "rho.csv", uni), budgets, new_budgets, lower, upper))
        assert (doc["lower"], doc["upper"]) == (report.lower, report.upper)

    def test_experiment_command(self, tmp_path):
        code = main(["experiment", "--dgps", "binary3", "--Ns", "10",
                     "--sims", "2", "--reps", "19", "--seed", "0",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "experiment.csv").exists()

    @pytest.mark.parametrize("dgps", ["foo", "binary1,binary9", "dgp1,"])
    def test_an_unknown_generator_name_is_a_usage_error(self, dgps, capsys):
        assert main(["experiment", "--dgps", dgps, "--Ns", "5"]) == 1
        err = capsys.readouterr().err
        unknown = next(d for d in dgps.split(",") if d not in ("binary1", "dgp1"))
        assert err.startswith(f"error: UsageError: argument --dgps: unknown generator "
                              f"{unknown!r}; the names are dgp1, dgp2, binary1, binary2, "
                              "binary3\nusage: drum experiment")

    @pytest.mark.parametrize("argv,message", [
        (["experiment", "--dgps", "binary1", "--Ns", "5", "--sims", "0"],
         "sims must be at least 1, got 0"),
        (["experiment", "--dgps", "dgp1", "--Ns", "5,0", "--sims", "2"],
         "sample sizes must be at least 1, got [5, 0]"),
        (["simulate", "--dgp", "binary1", "--n", "-1"],
         "agents per menu path must be at least 1, got -1"),
        (["simulate", "--dgp", "dgp1", "--n", "0"],
         "agents per menu path must be at least 1, got 0")],
        ids=["sims-0", "N-0", "n-negative", "n-0"])
    def test_bad_sizes_exit_1_before_any_draw(self, argv, message, tmp_path, capsys,
                                              monkeypatch):
        draws = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed))
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: ParameterError: {message}")
        assert draws == [] and not out.exists()

    def test_config_file_merging(self, tmp_path):
        """A file value reaches an option whose default is not None, typed
        as its flag's; a flag on the command line beats the file."""
        (tmp_path / "conf").write_text("n=30\nseed=8\ndebug=false\n")

        def panel(name, *options):
            out = tmp_path / f"{name}.csv"
            assert main(["simulate", "--dgp", "binary3", "--n", "5", "--out", str(out),
                         *options]) == 0
            return out.read_text()

        config = ["--config", str(tmp_path / "conf")]
        assert panel("seed8", "--seed", "8") != panel("default")
        assert panel("file", *config) == panel("seed8", "--seed", "8")
        assert panel("flag", "--seed", "3", *config) == panel("seed3", "--seed", "3")
        # a missing file is an input error
        assert main(["simulate", "--dgp", "binary3", "--n", "5",
                     "--config", str(tmp_path / "missing")]) == 1
        # a switch set in the file: the error is raised, not printed
        (tmp_path / "debug").write_text("debug=true\n")
        with pytest.raises(ParameterError):
            main(["simulate", "--dgp", "binary3", "--n", "-1", "--config", str(tmp_path / "debug")])

    def test_non_distinct_budgets_exit_1_with_message(self, simple_setup, tmp_path, capsys):
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        twins = {t: [Budget(t, j, (Fraction(2), Fraction(1)), Fraction(1)) for j in (1, 2)]
                 for t in (1, 2)}
        io.write_budgets(twins, tmp_path / "budgets.csv")
        code = main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--budgets", str(tmp_path / "budgets.csv"), "--checks", "stability"])
        assert code == 1
        assert "budgets must be pairwise distinct" in capsys.readouterr().err

    def test_consecutive_calls_share_no_options(self, simple_setup, tmp_path, capsys):
        """main parses every call with one parser; nothing one call sets
        reaches the next."""
        from drumtest.cli import build_parser
        assert build_parser() is not build_parser()
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        base = ["check", "--input", str(tmp_path / "rho.csv"),
                "--universe", str(tmp_path / "universe.json"),
                "--budgets", str(tmp_path / "budgets.csv")]
        assert main(base + ["--checks", "stability"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"stability"}
        assert main(base) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"stability", "dmono", "cone"}
        report = tmp_path / "report.json"
        (tmp_path / "conf").write_text(f"report={report}\n")
        assert main(base + ["--config", str(tmp_path / "conf")]) == 0
        assert set(json.loads(report.read_text())) == {"stability", "dmono", "cone"}
        report.unlink()
        capsys.readouterr()
        assert main(base + ["--checks", "dmono"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"dmono"}
        assert not report.exists()

    def test_bounds_reports_solver_diagnostics(self, simple_setup, tmp_path, capsys):
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n"
                                        "1,1,0.1,0.9\n1,2,0.2,0.3\n2,1,0,1\n2,2,0,1\n")
        code = main(["bounds", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--budgets", str(tmp_path / "budgets.csv"),
                     "--new-budget", "2,1;1,2", "--g", str(tmp_path / "g.csv")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("diagnostics", "cross_check_diagnostics"):
            diag = doc[key]
            assert {"variables", "equality_rows", "inequality_rows"} <= set(diag)
            for side in ("lower", "upper"):
                assert diag["solver"][side] == {
                    "status": 0,
                    "message": "Optimization terminated successfully. (HiGHS Status 7: Optimal)",
                    "max_violation": diag["solver"]["lower"]["max_violation"]}
                assert 0.0 <= diag["solver"][side]["max_violation"] <= 1e-9
        assert doc["diagnostics"]["inequality_rows"] == doc["diagnostics"]["monotonicity_rows"]
        assert doc["cross_check_diagnostics"]["route"] == "mixture"

    def test_geometry_warnings_reach_the_reports(self, simple_setup, tmp_path, capsys,
                                                 monkeypatch):
        """A conservative dominance fallback still warns, and the dmono
        report of ``drum check`` and both bound reports carry its message."""
        from drumtest import counterfactuals, geometry

        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n"
                                        "1,1,0.1,0.9\n1,2,0.2,0.3\n2,1,0,1\n2,2,0,1\n")
        common = ["--input", str(tmp_path / "rho.csv"),
                  "--universe", str(tmp_path / "universe.json"),
                  "--budgets", str(tmp_path / "budgets.csv")]
        check = ["check", *common, "--checks", "stability,dmono"]
        bounds = ["bounds", *common, "--new-budget", "2,1;1,2", "--g", str(tmp_path / "g.csv")]

        def run(argv):
            code = main(argv)
            assert code in (0, 2)
            return json.loads(capsys.readouterr().out)

        def clear():
            geometry._arrangement.cache_clear()
            geometry._demand_geometry.cache_clear()
            counterfactuals._compile.cache_clear()

        clear()
        try:
            quiet = run(check)
            assert quiet["dmono"]["diagnostics"]["geometry_warnings"] == []
            assert "geometry_warnings" not in quiet["stability"]["diagnostics"]
            doc = run(bounds)
            for key in ("diagnostics", "cross_check_diagnostics"):
                assert doc[key]["geometry_warnings"] == []

            monkeypatch.setattr(geometry, "_dominates_exact", lambda *args: None)
            clear()
            for _ in range(2):  # a miss, then a memoised hit
                with pytest.warns(UserWarning, match="conservative") as caught:
                    loud = run(check)
                assert len(caught) == 1
                messages = loud["dmono"]["diagnostics"]["geometry_warnings"]
                assert messages == [str(caught[0].message)]
                with pytest.warns(UserWarning, match="conservative"):
                    doc = run(bounds)
                for key in ("diagnostics", "cross_check_diagnostics"):
                    assert doc[key]["geometry_warnings"] == messages
        finally:
            clear()

    def test_solver_error_prints_class_and_diagnostics(self, simple_setup, tmp_path, capsys,
                                                       monkeypatch):
        from scipy.optimize import OptimizeResult

        from drumtest import checks
        from drumtest.errors import SolverError

        def failing(lp, c, b_ub=None, b_eq=None):
            return OptimizeResult(status=4, message="numerical difficulties", x=None)

        monkeypatch.setattr(checks, "solve", failing)
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        argv = ["check", "--input", str(tmp_path / "rho.csv"),
                "--universe", str(tmp_path / "universe.json"), "--checks", "hierarchy"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: SolverError: hierarchy LP returned status 4" in err
        diagnostics = json.loads(err.split("diagnostics: ", 1)[1])
        assert diagnostics["solver"] == {"status": 4, "message": "numerical difficulties",
                                         "max_violation": None}
        assert diagnostics["variables"] == 27
        with pytest.raises(SolverError) as info:
            main(argv + ["--debug"])
        assert info.value.diagnostics["solver"]["status"] == 4

    def test_schema_error_prints_class(self, simple_setup, tmp_path, capsys):
        from drumtest.errors import SchemaError

        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        rho_csv = tmp_path / "rho.csv"
        lines = rho_csv.read_text().splitlines()
        fields = lines[1].split(",")
        lines[1] = ",".join(fields[:2] + ["2.0"] + fields[3:])
        rho_csv.write_text("\n".join(lines) + "\n")
        argv = ["check", "--input", str(rho_csv), "--universe", str(tmp_path / "universe.json"),
                "--checks", "stability"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError: menu path (1, 1): probabilities")
        assert "diagnostics" not in err
        with pytest.raises(SchemaError, match="probabilities outside"):
            main(argv + ["--debug"])

    def test_error_exit_code(self, tmp_path):
        code = main(["check", "--input", str(tmp_path / "missing.csv"),
                     "--universe", str(tmp_path / "missing.json")])
        assert code == 1

    REQUIRED = {"matrices": ["--geometry", "simple"],
                "check": ["--input", "rho.csv", "--universe", "universe.json"],
                "test": ["--panel", "panel.csv", "--universe", "universe.json"],
                "bounds": ["--input", "rho.csv", "--universe", "universe.json", "--budgets",
                           "budgets.csv", "--new-budget", "2,1;1,2", "--g", "g.csv"],
                "simulate": ["--dgp", "binary1", "--n", "5"],
                "experiment": ["--dgps", "binary1", "--Ns", "5"]}

    @pytest.mark.parametrize("command,option", [
        ("matrices", "seed"), ("matrices", "threads"), ("matrices", "tolerance"),
        ("check", "seed"), ("check", "threads"), ("check", "out"),
        ("test", "tolerance"), ("test", "out"),
        ("bounds", "seed"), ("bounds", "threads"), ("bounds", "tolerance"),
        ("simulate", "threads"), ("simulate", "tolerance"),
        ("experiment", "tolerance")])
    def test_an_option_the_subcommand_ignores_is_a_usage_error(self, command, option, capsys):
        assert main([command, *self.REQUIRED[command], f"--{option}", "1"]) == 1
        assert f"error: UsageError: unrecognized arguments: --{option} 1" in \
            capsys.readouterr().err

    def test_console_script_installed(self):
        # a fresh interpreter imports the package from this checkout
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-m", "drumtest.cli", "--help"], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.returncode == 0
        assert "matrices" in out.stdout


# one option of each type per subcommand that types its values
TYPED_OPTIONS = [("matrices", "T", int), ("check", "tolerance", float), ("test", "alpha", float),
                 ("test", "reps", int), ("test", "seed", int), ("test", "threads", int),
                 ("bounds", "target", int), ("simulate", "n", int), ("simulate", "seed", int),
                 ("experiment", "sims", int), ("experiment", "reps", int),
                 ("experiment", "alpha", float), ("experiment", "seed", int),
                 ("experiment", "threads", int)]
# config-file values: one line each, no comment mark
VALUES = st.text(st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="#"),
                 min_size=1, max_size=12)


def _untyped(kind):
    """Values that ``kind`` cannot read."""
    def unreadable(value):
        try:
            kind(value)
        except ValueError:
            return True
        return False
    return VALUES.filter(unreadable)


def _option_strings(command):
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    return list(subparsers.choices[command]._option_string_actions)


class TestExitCodes:
    """One exit-code contract: 0 completed (``--help`` too), 2 model
    rejected and nothing else, 1 any error. A command line that does not
    parse, here or through a ``--config`` file, is a ``UsageError``: exit 1
    with the class and the usage line; ``--debug`` raises it."""

    @staticmethod
    def _usage_error(argv):
        """What ``main(argv)`` prints to stderr; it exits 1 with a usage
        error, and raises it with ``--debug``."""
        with contextlib.redirect_stderr(StringIO()) as err:
            assert main(argv) == 1
        err = err.getvalue()
        assert err.startswith("error: UsageError: ") and "usage: drum" in err
        with pytest.raises(UsageError):
            main(argv + ["--debug"])
        return err

    @settings(max_examples=15, deadline=None)
    @given(command=st.sampled_from(sorted(TestCli.REQUIRED)),
           flag=st.from_regex(r"--[a-z][a-z0-9-]{0,10}", fullmatch=True))
    def test_an_unknown_flag_exits_1(self, command, flag):
        # argparse takes any unambiguous prefix of an option
        if any(known.startswith(flag) for known in _option_strings(command)):
            return
        err = self._usage_error([command, *TestCli.REQUIRED[command], flag])
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command,option,kind", TYPED_OPTIONS,
                             ids=[f"{c}-{o}" for c, o, _ in TYPED_OPTIONS])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_a_badly_typed_value_exits_1(self, command, option, kind, data):
        value = data.draw(_untyped(kind))
        err = self._usage_error([command, *TestCli.REQUIRED[command], f"--{option}={value}"])
        assert f"argument --{option}: invalid {kind.__name__} value" in err

    @pytest.mark.parametrize("command,option,kind", TYPED_OPTIONS,
                             ids=[f"{c}-{o}" for c, o, _ in TYPED_OPTIONS])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_a_badly_typed_config_value_exits_1(self, command, option, kind, data):
        value = data.draw(_untyped(kind))
        with tempfile.TemporaryDirectory() as folder:
            config = Path(folder) / "conf"
            config.write_text(f"{option}={value}\n")
            err = self._usage_error([command, *TestCli.REQUIRED[command],
                                     "--config", str(config)])
        assert f"argument --{option}: invalid {kind.__name__} value" in err

    @pytest.mark.parametrize("command", ["test", "simulate", "experiment"])
    def test_a_bad_config_seed_exits_1(self, command, tmp_path):
        (tmp_path / "conf").write_text("seed=abc\n")
        self._usage_error([command, *TestCli.REQUIRED[command], "--config",
                           str(tmp_path / "conf")])

    @pytest.mark.parametrize("order", ["eu-first", "budgets-first"])
    def test_eu_with_budgets_is_a_usage_error(self, order):
        """The EU test reads no budgets, so naming both is refused before
        any file is read."""
        eu, budgets = ["--eu", "lotteries.csv"], ["--budgets", "/nonexistent/budgets.csv"]
        flags = eu + budgets if order == "eu-first" else budgets + eu
        err = self._usage_error(["test", *TestCli.REQUIRED["test"], *flags])
        first, second = ("--budgets", "--eu") if order == "eu-first" else ("--eu", "--budgets")
        assert f"argument {first}: not allowed with argument {second}" in err

    def test_the_parsers_raise_instead_of_exiting(self):
        (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
        for parser in (build_parser(), subparsers.choices["test"]):
            with pytest.raises(UsageError, match="bad value") as raised:
                parser.error("bad value")
            assert raised.value.usage == parser.format_usage().strip()

    @pytest.mark.parametrize("argv", [[], ["--help"], ["test", "--help"]])
    def test_help_exits_0_and_no_command_exits_1(self, argv, capsys):
        if not argv:
            assert main(argv) == 1
            assert "error: UsageError: " in capsys.readouterr().err
            return
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert "usage: drum" in capsys.readouterr().out


def _report_of(rep):
    """A library check or test report as ``drum`` prints it."""
    return json.loads(json.dumps(rep.to_dict()))


def _swapped_inputs(tmp_path, seed=3):
    """The two crossing budgets listed as prices (1,2), (2,1), the library's
    universe over them and an exact mixture of its dynamic types, written as
    ``drum`` reads them; returns (universe, rho, budgets, argv of the files)."""
    budgets = {t: [Budget(t, j + 1, tuple(map(Fraction, p)), Fraction(1))
                   for j, p in enumerate([(1, 2), (2, 1)])] for t in (1, 2)}
    uni, patches, _ = demand_universe(budgets, (1, 2))
    A = kron_dynamic([static_type_matrix(uni, t, patches) for t in uni.periods],
                     sorted(itertools.product((1, 2), repeat=2)), uni)
    rho = rho_from_weights(uni, A, np.random.default_rng(seed).dirichlet(np.ones(A.shape[1])))
    io.write_universe(uni, tmp_path / "universe.json")
    io.write_rho(rho, tmp_path / "rho.csv")
    io.write_budgets(budgets, tmp_path / "budgets.csv")
    return uni, io.read_rho(tmp_path / "rho.csv", uni), budgets, [
        "--input", str(tmp_path / "rho.csv"), "--universe", str(tmp_path / "universe.json")]


def _demand3x3_paths(setup):
    """The demand3x3 universe and its type matrix over the three one-period paths."""
    uni = setup["universe"]
    return uni, kron_dynamic([setup["A"]], [(1,), (2,), (3,)], uni)


class TestCliNumbering:
    """Every subcommand numbers patches as ``compute_patches`` does, so
    files the library writes for any arrangement read back consistently."""

    def test_check_with_budgets_agrees_with_check_without(self, tmp_path, capsys):
        _, _, _, files = _swapped_inputs(tmp_path)
        checks = ["--checks", "stability,dmono,cone"]
        assert main(["check", *files, *checks]) == 0
        without = json.loads(capsys.readouterr().out)
        assert main(["check", *files, "--budgets", str(tmp_path / "budgets.csv"), *checks]) == 0
        with_budgets = json.loads(capsys.readouterr().out)
        assert {k: v["passed"] for k, v in with_budgets.items()} == \
            {k: v["passed"] for k, v in without.items()} == \
            {"stability": True, "dmono": True, "cone": True}

    def test_bounds_are_the_library_bounds(self, tmp_path, capsys):
        uni, rho, budgets, files = _swapped_inputs(tmp_path)
        lower = {(1, 1): 0.1, (1, 2): 0.4, (2, 1): 0.2, (2, 2): 0.7}
        upper = {key: lo + 0.25 for key, lo in lower.items()}
        (tmp_path / "g.csv").write_text("\n".join(
            ["budget_id,patch_id,g_lower,g_upper"]
            + [f"{j},{i},{lower[j, i]},{upper[j, i]}" for j, i in lower]))
        assert main(["bounds", *files, "--budgets", str(tmp_path / "budgets.csv"),
                     "--new-budget", "1,2;2,1", "--g", str(tmp_path / "g.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        new_budgets = [Budget("next", j + 1, tuple(map(Fraction, p)), Fraction(1))
                       for j, p in enumerate([(1, 2), (2, 1)])]
        report = bound_functional(CounterfactualProblem(rho, budgets, new_budgets, lower, upper))
        assert (doc["lower"], doc["upper"]) == (report.lower, report.upper)

    @pytest.mark.parametrize("check", ["hrep", "hierarchy"])
    @pytest.mark.parametrize("with_budgets", [False, True])
    def test_published_facets_need_the_catalog_universe(self, tmp_path, capsys, check,
                                                        with_budgets):
        """The swapped universe has the catalog's menus but not its
        primitive order, so no published facet table applies to it."""
        _, _, _, files = _swapped_inputs(tmp_path)
        if with_budgets:
            files += ["--budgets", str(tmp_path / "budgets.csv")]
        assert main(["check", *files, "--checks", check]) == 1
        assert capsys.readouterr().err.startswith(
            "error: DrumError: no catalog H-matrix matches this geometry")

    def test_demand_types_without_budgets_hit_the_order_guard(self, demand3x3_setup,
                                                              tmp_path, capsys):
        """Without budgets the twelve patch labels of demand3x3 would take
        the linear orders of the primitive order: 12! orderings."""
        uni, A = _demand3x3_paths(demand3x3_setup)
        rho = rho_from_weights(uni, A, np.full(A.shape[1], 1 / A.shape[1]))
        io.write_universe(uni, tmp_path / "universe.json")
        io.write_rho(rho, tmp_path / "rho.csv")
        start = time.perf_counter()
        assert main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: SizeError: period 1: 12 alternatives have 12! orderings")
        assert "--budgets" in err


class TestCliPaths:
    """Each subcommand path against the library call it wraps."""

    def test_eu_test_matches_run_test_eu(self, tmp_path, capsys):
        from drumtest.inference import TestConfig, run_test_eu
        panel_path = tmp_path / "panel.csv"
        assert main(["simulate", "--dgp", "binary3", "--n", "25", "--seed", "3",
                     "--out", str(panel_path)]) == 0
        lotteries = catalog.application_lotteries()
        (tmp_path / "lotteries.csv").write_text("\n".join(
            ["alternative_id,prize_1,prize_2,prize_3,prize_4"]
            + [f"{alt}," + ",".join(map(str, prizes)) for alt, prizes in lotteries.items()]))
        assert io.read_lotteries(tmp_path / "lotteries.csv") == lotteries
        capsys.readouterr()
        universe = panel_path.with_suffix(".universe.json")
        code = main(["test", "--panel", str(panel_path), "--universe", str(universe),
                     "--eu", str(tmp_path / "lotteries.csv"), "--reps", "49", "--seed", "1"])
        doc = json.loads(capsys.readouterr().out)
        rho = estimate_rho(io.read_panel(panel_path), io.read_universe(universe))
        report = run_test_eu(rho, lotteries, TestConfig(reps=49, seed=1))
        assert doc == _report_of(report)
        assert code == (2 if report.reject else 0)

    def test_bm_check_matches_the_library(self, binary_uni_T2, tmp_path, capsys):
        from drumtest.checks import bm_extension_feasible
        statics = [build_static_A(binary_uni_T2, t, enumerate_orders(binary_uni_T2, t))
                   for t in (1, 2)]
        A = kron_dynamic(statics, sorted(itertools.product((1, 2, 3), repeat=2)), binary_uni_T2)
        rho = rho_from_weights(binary_uni_T2, A,
                               np.random.default_rng(6).dirichlet(np.ones(A.shape[1])))
        io.write_universe(binary_uni_T2, tmp_path / "universe.json")
        io.write_rho(rho, tmp_path / "rho.csv")
        assert main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"), "--checks", "bm"]) == 0
        rho = io.read_rho(tmp_path / "rho.csv", binary_uni_T2)
        assert json.loads(capsys.readouterr().out) == {
            "bm": _report_of(bm_extension_feasible(rho)[2])}

    def test_demand3x3_hrep_matches_the_library(self, demand3x3_setup, tmp_path, capsys):
        from drumtest.checks import check_H
        uni, A = _demand3x3_paths(demand3x3_setup)
        rho = rho_from_weights(uni, A, np.random.default_rng(7).dirichlet(np.ones(A.shape[1])))
        io.write_universe(uni, tmp_path / "universe.json")
        io.write_rho(rho, tmp_path / "rho.csv")
        code = main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"), "--checks", "hrep"])
        rho = io.read_rho(tmp_path / "rho.csv", uni)
        report = check_H(rho, [catalog_H("demand3x3", uni, 1)], tol=1e-9)
        assert json.loads(capsys.readouterr().out) == {"hrep": _report_of(report)}
        assert report.passed and code == 0

    def test_hierarchy_completes_and_matches_the_library(self, simple_setup, tmp_path,
                                                          capsys):
        from drumtest.checks import hierarchy_feasible
        uni = simple_setup["universe"]
        rho = rho_from_weights(uni, simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        assert main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--checks", "hierarchy"]) == 0
        rho = io.read_rho(tmp_path / "rho.csv", uni)
        _, _, report = hierarchy_feasible(rho, [catalog_H("simple", uni, t) for t in (1, 2)],
                                          (1, 2))
        assert json.loads(capsys.readouterr().out) == {"hierarchy": _report_of(report)}

    def test_conditional_bounds_match_the_library(self, simple_setup, tmp_path, capsys):
        uni = simple_setup["universe"]
        rho = rho_from_weights(uni, simple_setup["AT"],
                               np.random.default_rng(8).dirichlet(np.ones(9)))
        _write_simple_inputs(tmp_path, rho)
        (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n"
                                        "1,1,0.1,0.9\n1,2,0.2,0.3\n2,1,0,1\n2,2,0,1\n")
        assert main(["bounds", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--budgets", str(tmp_path / "budgets.csv"), "--new-budget", "2,1;1,2",
                     "--g", str(tmp_path / "g.csv"), "--condition", "1|2:2|1",
                     "--target", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        new_budgets = [Budget("next", j + 1, tuple(map(Fraction, p)), Fraction(1))
                       for j, p in enumerate([(2, 1), (1, 2)])]
        g_lower, g_upper = io.read_g(tmp_path / "g.csv")
        report = bound_functional(CounterfactualProblem(
            io.read_rho(tmp_path / "rho.csv", uni), simple_setup["budgets"], new_budgets,
            g_lower, g_upper, target_budget=1, condition=((1, 2), (2, 1))))
        assert (doc["lower"], doc["upper"]) == (report.lower, report.upper)

    def test_unknown_check_exits_1(self, simple_setup, tmp_path, capsys):
        rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        assert main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"),
                     "--checks", "stability,nonesuch"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: UsageError: argument --checks: unknown check 'nonesuch'; the names are "
            "stability, dmono, hrep, cone, bm, hierarchy, sarpd\nusage: drum check")

    @pytest.mark.parametrize("checks,message", [
        ("", "no check named; the names are stability, dmono, hrep, cone, bm, hierarchy, "
             "sarpd"),
        (" , ", "no check named"),
        ("cone,bogus", "unknown check 'bogus'"),
        ("stability,sarpd", "sarpd needs --budgets")])
    def test_a_bad_check_list_is_a_usage_error_before_any_input(self, tmp_path, capsys,
                                                                checks, message):
        """The check list is read before the input files: none of these
        exists, and an empty list does not run as a consistent check."""
        assert main(["check", "--input", str(tmp_path / "rho.csv"),
                     "--universe", str(tmp_path / "universe.json"), "--checks", checks]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: UsageError: argument --checks: {message}")
        assert "usage: drum check" in captured.err

    def test_rejected_model_exits_2(self, simple_setup, table5_rho, tmp_path, capsys):
        """``drum bounds`` on Table 5 reaches ``main``'s model-rejected exit,
        where the library raises ``ModelRejectedError``."""
        from drumtest.errors import ModelRejectedError
        _write_simple_inputs(tmp_path, table5_rho)
        (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n"
                                        "1,1,0,1\n1,2,0,1\n2,1,0,1\n2,2,0,1\n")
        argv = ["bounds", "--input", str(tmp_path / "rho.csv"),
                "--universe", str(tmp_path / "universe.json"),
                "--budgets", str(tmp_path / "budgets.csv"), "--new-budget", "2,1;1,2",
                "--g", str(tmp_path / "g.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("model rejected: ")
        new_budgets = [Budget("next", j + 1, tuple(map(Fraction, p)), Fraction(1))
                       for j, p in enumerate([(2, 1), (1, 2)])]
        g_lower, g_upper = io.read_g(tmp_path / "g.csv")
        with pytest.raises(ModelRejectedError):
            bound_functional(CounterfactualProblem(table5_rho, simple_setup["budgets"],
                                                   new_budgets, g_lower, g_upper))
        with pytest.raises(ModelRejectedError):
            main(argv + ["--debug"])


class TestBudgetPeriods:
    """A budgets period is a period of the universe: ``check`` and ``test``
    refuse one the universe lacks (a universe period without budgets takes
    the linear orders of its primitive order), and ``bounds`` needs budgets
    for exactly the universe's periods. Each refusal is a SchemaError that
    names the period."""

    @staticmethod
    def _inputs(tmp_path, simple_setup, periods):
        uni = simple_setup["universe"]
        rho = rho_from_weights(uni, simple_setup["AT"], np.full(9, 1 / 9))
        _write_simple_inputs(tmp_path, rho)
        io.write_budgets({t: catalog.simple_budgets((t,))[t] for t in periods},
                         tmp_path / "budgets.csv")
        (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n"
                                        "1,1,0,1\n1,2,0,1\n2,1,0,1\n2,2,0,1\n")
        return ["--universe", str(tmp_path / "universe.json"),
                "--budgets", str(tmp_path / "budgets.csv")]

    @pytest.mark.parametrize("periods", [(7,), (1, 2, 7)])
    def test_check_names_a_period_the_universe_lacks(self, simple_setup, tmp_path, capsys,
                                                      periods):
        files = self._inputs(tmp_path, simple_setup, periods)
        assert main(["check", "--input", str(tmp_path / "rho.csv"), *files,
                     "--checks", "cone"]) == 1
        assert capsys.readouterr().err == \
            "error: SchemaError: budgets period 7 is not a period of the universe\n"

    def test_test_names_a_period_the_universe_lacks(self, simple_setup, tmp_path, capsys):
        files = self._inputs(tmp_path, simple_setup, (1, 2, 7))
        panel, _ = simulate(DgpSpec("cobb-douglas-walk"), 5, seed=0)
        io.write_panel(panel, simple_setup["universe"], tmp_path / "panel.csv")
        assert main(["test", "--panel", str(tmp_path / "panel.csv"), *files,
                     "--reps", "19"]) == 1
        assert capsys.readouterr().err == \
            "error: SchemaError: budgets period 7 is not a period of the universe\n"

    def test_check_keeps_a_universe_period_without_budgets(self, simple_setup, tmp_path,
                                                          capsys):
        files = self._inputs(tmp_path, simple_setup, (1,))
        assert main(["check", "--input", str(tmp_path / "rho.csv"), *files,
                     "--checks", "cone"]) == 0
        assert json.loads(capsys.readouterr().out)["cone"]["passed"]

    @pytest.mark.parametrize("periods,message", [
        ((1,), "universe period 2 has no budgets"),
        ((1, 2, 7), "budgets period 7 is not a period of the universe")])
    def test_bounds_needs_budgets_for_exactly_the_universe_periods(
            self, simple_setup, tmp_path, capsys, periods, message):
        files = self._inputs(tmp_path, simple_setup, periods)
        assert main(["bounds", "--input", str(tmp_path / "rho.csv"), *files,
                     "--new-budget", "2,1;1,2", "--g", str(tmp_path / "g.csv")]) == 1
        assert capsys.readouterr().err == f"error: SchemaError: {message}\n"


def test_a_failed_bounds_solve_exits_1(simple_setup, tmp_path, capsys, monkeypatch):
    """A bounding LP that fails without proving infeasibility is a solver
    error (exit 1), not a rejected model (exit 2)."""
    from drumtest import counterfactuals
    rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
    _write_simple_inputs(tmp_path, rho)
    (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n"
                                    "1,1,0,1\n1,2,0,1\n2,1,0,1\n2,2,0,1\n")
    argv = ["bounds", "--input", str(tmp_path / "rho.csv"),
            "--universe", str(tmp_path / "universe.json"),
            "--budgets", str(tmp_path / "budgets.csv"), "--new-budget", "2,1;1,2",
            "--g", str(tmp_path / "g.csv")]
    monkeypatch.setattr(counterfactuals, "solve", failed_solve)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "error: SolverError: bounding LP returned status 4: numerical trouble\n")
    with pytest.raises(SolverError):
        main(argv + ["--debug"])


class TestSharedTypeMatrix:
    """Repeated in-process ``drum`` calls on one panel assemble each dynamic
    type matrix once (``representations.type_matrix``) and print exactly
    what a cold cache prints."""

    def test_repeated_calls_build_each_matrix_once(self, tmp_path, monkeypatch):
        from conftest import app_dgp

        from drumtest import representations
        dgp = app_dgp()
        uni = dgp.params["universe"]
        panel, _ = simulate(dgp, 60, seed=5)
        io.write_panel(panel, uni, tmp_path / "panel.csv")
        io.write_universe(uni, tmp_path / "universe.json")
        rho = estimate_rho(panel, uni)
        io.write_rho(rho, tmp_path / "rho.csv")
        lotteries = catalog.application_lotteries()
        (tmp_path / "lotteries.csv").write_text("\n".join(
            ["alternative_id,prize_1,prize_2,prize_3,prize_4"]
            + [f"{alt}," + ",".join(map(str, prizes)) for alt, prizes in lotteries.items()]))
        test = ["test", "--panel", str(tmp_path / "panel.csv"),
                "--universe", str(tmp_path / "universe.json"), "--reps", "49", "--seed", "2"]
        argvs = [test, test + ["--eu", str(tmp_path / "lotteries.csv")],
                 ["check", "--input", str(tmp_path / "rho.csv"),
                  "--universe", str(tmp_path / "universe.json"), "--checks", "cone"]]

        def run(argv):
            with contextlib.redirect_stdout(StringIO()) as out:
                code = main(argv)
            return code, out.getvalue()

        cold = []
        for argv in argvs:
            representations._type_matrix.cache_clear()
            cold.append(run(argv))
        representations._type_matrix.cache_clear()
        built, real = [], representations.kron_dynamic
        monkeypatch.setattr(representations, "kron_dynamic",
                            lambda *args: built.append(real(*args)) or built[-1])
        for _ in range(3):
            assert [run(argv) for argv in argvs] == cold
        # test and the cone check share the unrestricted matrix; the EU
        # test has its own, over fewer rankings
        assert [A.shape for A in built] == [(48, 216), (48, built[1].shape[1])]
        assert built[1].shape[1] < 216
        A = representations.type_matrix(uni, rho.observed_paths)
        assert A is built[0] and len(built) == 2
        assert not A.matrix.flags.writeable and not A.range_basis.flags.writeable
        assert not built[1].matrix.flags.writeable
        assert representations.type_matrix(uni, rho.observed_paths).range_basis is A.range_basis


# --- malformed bounds inputs and counts -------------------------------------------------


def _bounds_argv(tmp_path, simple_setup, g_text="1,1,0.1,0.9\n1,2,0.2,0.3\n2,1,0,1\n2,2,0,1\n"):
    rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
    _write_simple_inputs(tmp_path, rho)
    (tmp_path / "g.csv").write_text("budget_id,patch_id,g_lower,g_upper\n" + g_text)
    return ["bounds", "--input", str(tmp_path / "rho.csv"),
            "--universe", str(tmp_path / "universe.json"),
            "--budgets", str(tmp_path / "budgets.csv"), "--new-budget", "2,1;1,2",
            "--g", str(tmp_path / "g.csv")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_g_bounds_name_their_line(simple_setup, tmp_path, capsys, value):
    g_text = f"1,1,0.1,0.9\n1,2,{value},0.3\n2,1,0,1\n2,2,0,1\n"
    argv = _bounds_argv(tmp_path, simple_setup, g_text)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "SchemaError: line 3: g_lower" in err and "not a finite number" in err
    with pytest.raises(SchemaError, match="must be finite"):
        CounterfactualProblem(None, {}, [], {(1, 1): 0.0}, {(1, 1): float(value)})


@pytest.mark.parametrize("flag,value", [("--condition", "1|2"), ("--condition", "1|x:1|2"),
                                        ("--new-budget", "2,x;1,2"), ("--new-budget", "1/0,1")])
def test_malformed_bounds_options_are_usage_errors(simple_setup, tmp_path, capsys, flag, value):
    argv = _bounds_argv(tmp_path, simple_setup)
    if flag == "--new-budget":
        argv[argv.index("--new-budget") + 1] = value
    else:
        argv += [flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: UsageError: argument {flag}:" in err and "usage: drum bounds" in err
    with pytest.raises(UsageError):
        main(argv + ["--debug"])


@pytest.mark.parametrize("condition,message", [
    ("2|2:1|1", "menu path (2, 2) is not observed in rho"),
    ("1|2:1|3", "choice path (1, 3) is not a choice path of menu path (1, 2)")])
def test_a_conditioning_label_is_placed_by_the_gather_index(simple_setup, tmp_path, capsys,
                                                           condition, message):
    """``drum bounds --condition`` places its label with ``model.label_index``
    and exits 1 with its SchemaError for an unobserved menu path and for a
    choice path outside the menu path's."""
    argv = _bounds_argv(tmp_path, simple_setup) + ["--condition", condition]
    rho = io.read_rho(tmp_path / "rho.csv", simple_setup["universe"])
    io.write_rho(StochasticChoiceFunction(rho.universe, {path: probs for path, probs
                                                         in rho.probs.items() if path != (2, 2)}),
                 tmp_path / "rho.csv")
    assert main(argv) == 1
    assert f"error: SchemaError: {message}\n" in capsys.readouterr().err


def test_bounds_options_still_parse(simple_setup, tmp_path, capsys):
    argv = _bounds_argv(tmp_path, simple_setup) + ["--condition", "1|2:1|2"]
    assert main(argv) == 0
    assert build_parser().parse_args(argv).condition == ((1, 2), (1, 2))


@pytest.mark.parametrize("count,ok", [("356", 356), ("356.0", 356), ("12.7", None),
                                      ("-3", None), ("nan", None), ("x", None)])
def test_rho_counts_are_non_negative_integers(tmp_path, count, ok):
    uni = catalog.binary_universe(periods=(1,))
    rows = "".join(f"{j},{i},{1 / m.size},{count}\n" for m in uni.menus[1] for j in [m.index]
                   for i in range(1, m.size + 1))
    (tmp_path / "rho.csv").write_text("menu_path,choice_path,prob,count\n" + rows)
    if ok is None:
        with pytest.raises(SchemaError, match="line 2: count"):
            io.read_rho(tmp_path / "rho.csv", uni)
    else:
        assert set(io.read_rho(tmp_path / "rho.csv", uni).counts.values()) == {ok}
