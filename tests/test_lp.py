"""The LP entry point: ``lp.solve`` against scipy's ``linprog(method="highs")``
bit for bit, and the rule that every LP of the package goes through it."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, OptimizeResult, linprog

from drumtest import lp
from drumtest.lp import compile_lp, solve

SRC = Path(lp.__file__).resolve().parent

# variable bounds as linprog reads them and as a compiled LP stores them
BOUNDS = {"nonnegative": ((0, None), Bounds(0.0, np.inf)),
          "free": ((None, None), Bounds(-np.inf, np.inf)),
          "capped": ((-2, 3), Bounds(-2.0, 3.0))}

_entries = st.integers(-6, 6).map(lambda v: v / 2)


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 6))
    m_ub = draw(st.integers(0, 5))
    m_eq = draw(st.integers(0 if m_ub else 1, 3))

    def block(rows, cols):
        return np.array(draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)),
                        dtype=float).reshape(rows, cols)

    return {"c": block(1, n)[0],
            "A_ub": block(m_ub, n) if m_ub else None,
            "b_ub": block(1, m_ub)[0] if m_ub else None,
            "A_eq": block(m_eq, n) if m_eq else None,
            "b_eq": block(1, m_eq)[0] if m_eq else None,
            "bounds": draw(st.sampled_from(sorted(BOUNDS)))}


def _solve_both(case):
    bounds_linprog, bounds = BOUNDS[case["bounds"]]
    ref = linprog(case["c"], A_ub=case["A_ub"], b_ub=case["b_ub"], A_eq=case["A_eq"],
                  b_eq=case["b_eq"], bounds=bounds_linprog, method="highs")
    res = solve(compile_lp(case["A_ub"], case["A_eq"], bounds), case["c"], case["b_ub"],
                case["b_eq"])
    return ref, res


_OPTIMAL = {"c": np.array([1.0, 1.0]), "A_ub": np.array([[-1.0, -1.0]]),
            "b_ub": np.array([-1.0]), "A_eq": None, "b_eq": None, "bounds": "nonnegative"}
_INFEASIBLE = {**_OPTIMAL, "A_eq": np.array([[1.0, 1.0]]), "b_eq": np.array([0.5])}
_UNBOUNDED = {**_OPTIMAL, "c": np.array([-1.0, 0.0]), "bounds": "free"}


@settings(max_examples=300, deadline=None)
@given(case=small_lps())
@example(case=_OPTIMAL)
@example(case=_INFEASIBLE)
@example(case=_UNBOUNDED)
def test_solve_is_linprog_bit_for_bit(case):
    ref, res = _solve_both(case)
    assert (res.status, res.message) == (ref.status, ref.message)
    assert res.fun == ref.fun
    assert (res.x is None) == (ref.x is None)
    if ref.x is not None:
        assert res.x.tobytes() == np.asarray(ref.x).tobytes()


@pytest.mark.parametrize("case,status", [(_OPTIMAL, 0), (_INFEASIBLE, 2), (_UNBOUNDED, 3)])
def test_the_examples_cover_every_status(case, status):
    assert _solve_both(case)[1].status == status


def test_filled_right_hand_sides_leave_the_compiled_lp_alone():
    base = compile_lp(np.array([[-1.0, -1.0]]), np.array([[1.0, -1.0]]))
    filled = base.with_rhs(b_ub=[-2.0], b_eq=[0.5])
    assert filled.lower.tolist() == [-np.inf, 0.5] and filled.upper.tolist() == [-2.0, 0.5]
    assert base.lower.tolist() == [-np.inf, 0.0] and base.upper.tolist() == [0.0, 0.0]
    assert solve(filled, [1.0, 1.0]).x.tobytes() == \
        solve(base, [1.0, 1.0], b_ub=[-2.0], b_eq=[0.5]).x.tobytes()


def test_solve_raises_no_option_warning_and_keeps_the_filters():
    before = list(warnings.filters)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve(compile_lp(_OPTIMAL["A_ub"]), _OPTIMAL["c"], _OPTIMAL["b_ub"]).status == 0
    assert warnings.filters == before


def test_an_optimum_off_the_constraints_is_demoted(monkeypatch):
    """An optimum that breaks a row by more than linprog's check tolerance
    reads status 4, as linprog reports it."""
    program = compile_lp(np.array([[-1.0, -1.0]]), None)
    monkeypatch.setattr(lp, "milp", lambda *a, **k: OptimizeResult(
        status=0, message="Optimal", success=True, fun=0.0, x=np.zeros(2)))
    res = solve(program, [1.0, 1.0], b_ub=[-1.0])
    assert res.status == 4 and not res.success
    assert "does not satisfy the constraints" in res.message


# --- one entry point -------------------------------------------------------------------

SOLVER_NAMES = {"linprog", "milp"}
SOLVER_HOMES = {"lp.py"}


def _imports(tree):
    """(module, imported name) for every import in a module; ``import m``
    gives (m, None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None


def test_every_lp_goes_through_the_entry_point():
    files = sorted(SRC.glob("*.py"))
    assert {f.name for f in files} >= SOLVER_HOMES | {"checks.py", "counterfactuals.py",
                                                      "geometry.py"}
    for path in files:
        tree = ast.parse(path.read_text())
        for module, name in _imports(tree):
            assert not re.match(r"scipy(\.\w+)*\._", module), \
                f"{path.name} imports private {module}"
            if path.name not in SOLVER_HOMES:
                assert name not in SOLVER_NAMES, f"{path.name} imports {name}"
        if path.name not in SOLVER_HOMES:
            used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not used & SOLVER_NAMES, f"{path.name} reaches {used & SOLVER_NAMES}"
