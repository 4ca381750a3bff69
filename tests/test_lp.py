"""The LP entry point: ``lp.solve`` against scipy's ``linprog(method="highs")``
bit for bit at the same options, and the rule that every LP of the package
goes through it."""

import ast
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, OptimizeResult, linprog

from drumtest import checks, counterfactuals, geometry, lp
from drumtest.counterfactuals import CounterfactualProblem, bound_functional
from drumtest.lp import compile_lp, solve

from conftest import rho_from_weights

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


def _solve_both(case, presolve=True):
    """``linprog`` and ``solve`` on one case, both with HiGHS' presolve on or
    both with it off."""
    bounds_linprog, bounds = BOUNDS[case["bounds"]]
    ref = linprog(case["c"], A_ub=case["A_ub"], b_ub=case["b_ub"], A_eq=case["A_eq"],
                  b_eq=case["b_eq"], bounds=bounds_linprog, method="highs",
                  options={} if presolve else {"presolve": False})
    res = solve(compile_lp(case["A_ub"], case["A_eq"], bounds, presolve=presolve), case["c"],
                case["b_ub"], case["b_eq"])
    return ref, res


_OPTIMAL = {"c": np.array([1.0, 1.0]), "A_ub": np.array([[-1.0, -1.0]]),
            "b_ub": np.array([-1.0]), "A_eq": None, "b_eq": None, "bounds": "nonnegative"}
_INFEASIBLE = {**_OPTIMAL, "A_eq": np.array([[1.0, 1.0]]), "b_eq": np.array([0.5])}
_UNBOUNDED = {**_OPTIMAL, "c": np.array([-1.0, 0.0]), "bounds": "free"}


def _assert_linprog_bit_for_bit(case, presolve):
    ref, res = _solve_both(case, presolve)
    assert (res.status, res.message) == (ref.status, ref.message)
    assert res.fun == ref.fun
    assert (res.x is None) == (ref.x is None)
    if ref.x is not None:
        assert res.x.tobytes() == np.asarray(ref.x).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=small_lps())
@example(case=_OPTIMAL)
@example(case=_INFEASIBLE)
@example(case=_UNBOUNDED)
def test_solve_is_linprog_bit_for_bit(case):
    _assert_linprog_bit_for_bit(case, presolve=True)


@settings(max_examples=300, deadline=None)
@given(case=small_lps())
@example(case=_OPTIMAL)
@example(case=_INFEASIBLE)
@example(case=_UNBOUNDED)
def test_presolve_free_solve_is_linprog_bit_for_bit(case):
    _assert_linprog_bit_for_bit(case, presolve=False)


@pytest.mark.parametrize("case,status", [(_OPTIMAL, 0), (_INFEASIBLE, 2), (_UNBOUNDED, 3)])
def test_the_examples_cover_every_status(case, status):
    for presolve in (True, False):
        assert _solve_both(case, presolve)[1].status == status


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
    assert res.max_violation == 1.0


def test_every_result_reports_its_largest_violation():
    """``max_violation`` is the largest bound or row violation of ``x``: 0
    or a rounding error at an optimum, None without an ``x``."""
    for case in (_OPTIMAL, _INFEASIBLE, _UNBOUNDED):
        res = _solve_both(case)[1]
        if res.x is None:
            assert res.max_violation is None
            continue
        A_ub = case["A_ub"] if case["A_ub"] is not None else np.zeros((0, len(res.x)))
        lb, ub = BOUNDS[case["bounds"]][1].lb, BOUNDS[case["bounds"]][1].ub
        expected = max(0.0, np.max(A_ub @ res.x - case["b_ub"], initial=0.0),
                       np.max(lb - res.x), np.max(res.x - ub))
        assert res.max_violation == expected
        assert lp.solver_diagnostics(res)["max_violation"] == res.max_violation


def _recorded_options(monkeypatch):
    """Route ``lp.milp`` through a recorder of the options each call gets."""
    seen, real = [], lp.milp

    def recording(*args, **kwargs):
        seen.append(dict(kwargs["options"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "milp", recording)
    return seen


def test_only_the_bound_pairs_switch_presolve_off(monkeypatch, simple_setup):
    """Default-compiled LPs reach ``milp`` with exactly HiGHS' console
    output off; the counterfactual bound pairs add ``presolve: False`` and
    nothing else."""
    defaults = {"output_flag": False}
    seen = _recorded_options(monkeypatch)
    assert solve(compile_lp(_OPTIMAL["A_ub"]), _OPTIMAL["c"], _OPTIMAL["b_ub"]).status == 0
    assert solve(compile_lp(_OPTIMAL["A_ub"], presolve=False), _OPTIMAL["c"],
                 _OPTIMAL["b_ub"]).status == 0
    assert seen == [defaults, {**defaults, "presolve": False}]

    # the package's own LPs: patch geometry, sarpd cells, then one bound pair
    geometry._arrangement.cache_clear()
    geometry._demand_geometry.cache_clear()
    checks._compile_sarpd.cache_clear()
    counterfactuals._compile.cache_clear()
    seen.clear()
    rho = rho_from_weights(simple_setup["universe"], simple_setup["AT"], np.full(9, 1 / 9))
    budgets = simple_setup["budgets"]
    checks.check_sarpd(rho, geometry.demand_geometry(budgets, (1, 2)))
    new_budgets = [geometry.Budget("next", 1, (Fraction(2), Fraction(1)), Fraction(1)),
                   geometry.Budget("next", 2, (Fraction(1), Fraction(2)), Fraction(1))]
    labels = [p.label for p in geometry.compute_patches(new_budgets)[0]
              if not p.is_intersection]
    g = {label: 0.5 for label in labels}
    report = bound_functional(CounterfactualProblem(rho, budgets, new_budgets, g, g))
    assert report.diagnostics["solver"]["lower"]["status"] == 0
    # the bound pair is the last LP solved
    assert len(seen) > 1 and all(options == defaults for options in seen[:-1])
    assert seen[-1] == {**defaults, "presolve": False}


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
