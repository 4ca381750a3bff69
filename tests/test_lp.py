"""The LP entry point: ``lp.solve`` against scipy's ``linprog(method="highs")``
bit for bit at the same options, and the rule that every LP of the package
goes through it."""

import ast
import copy
import itertools
import pickle
import re
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, linprog

from drumtest import catalog, checks, counterfactuals, geometry, lp
from drumtest.counterfactuals import CounterfactualProblem, bound_functional
from drumtest.lp import compile_lp, solve
from drumtest.model import StochasticChoiceFunction

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


def _linprog(case, presolve=True):
    """``linprog(method="highs")`` on one case, HiGHS' presolve on or off."""
    return linprog(case["c"], A_ub=case["A_ub"], b_ub=case["b_ub"], A_eq=case["A_eq"],
                   b_eq=case["b_eq"], bounds=BOUNDS[case["bounds"]][0], method="highs",
                   options={} if presolve else {"presolve": False})


def _compile(case, presolve=True, warm=False):
    return compile_lp(case["A_ub"], case["A_eq"], BOUNDS[case["bounds"]][1], presolve=presolve,
                      warm=warm)


def _solve_both(case, presolve=True):
    """``linprog`` and ``solve`` on one case, both with HiGHS' presolve on or
    both with it off."""
    return _linprog(case, presolve), solve(_compile(case, presolve), case["c"], case["b_ub"],
                                           case["b_eq"])


_OPTIMAL = {"c": np.array([1.0, 1.0]), "A_ub": np.array([[-1.0, -1.0]]),
            "b_ub": np.array([-1.0]), "A_eq": None, "b_eq": None, "bounds": "nonnegative"}
_INFEASIBLE = {**_OPTIMAL, "A_eq": np.array([[1.0, 1.0]]), "b_eq": np.array([0.5])}
_UNBOUNDED = {**_OPTIMAL, "c": np.array([-1.0, 0.0]), "bounds": "free"}


def _assert_linprog_bit_for_bit(case, presolve):
    ref, res = _solve_both(case, presolve)
    _assert_same_bits(res, ref)


def _assert_same_bits(res, ref):
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


@st.composite
def solve_sequences(draw):
    """Two LPs from ``small_lps``, whether each is presolved, and a run of
    solves that picks one of them at random each time, with costs and
    right-hand sides drawn afresh to its shape or the costs repeated."""
    cases = [draw(small_lps()), draw(small_lps())]
    presolves = [draw(st.booleans()), draw(st.booleans())]

    def redraw(v):
        return None if v is None else np.array(draw(st.lists(_entries, min_size=len(v),
                                                             max_size=len(v))))

    # a cost vector may repeat the LP's last one (or its zeros), which the
    # solver is not handed again
    steps, last_c = [], [np.zeros(len(case["c"])) for case in cases]
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, 1))
        step = {**cases[k], **{key: redraw(cases[k][key]) for key in ("c", "b_ub", "b_eq")}}
        if draw(st.booleans()):
            step["c"] = last_c[k].copy()
        last_c[k] = step["c"]
        steps.append((k, step))
    return cases, presolves, steps


# one LP through every outcome and back, interleaved with another
_FREE_PAIR = {"c": np.array([1.0, 1.0]), "A_ub": np.array([[-1.0, -1.0]]),
              "b_ub": np.array([-1.0]), "A_eq": np.array([[1.0, 1.0]]), "b_eq": np.array([2.0]),
              "bounds": "free"}
_EVERY_OUTCOME = ([_FREE_PAIR, _OPTIMAL], [True, False],
                  [(0, _FREE_PAIR), (1, _OPTIMAL),
                   (0, {**_FREE_PAIR, "b_eq": np.array([0.5])}),
                   (0, {**_FREE_PAIR, "c": np.array([-1.0, 1.0])}),
                   (1, {**_OPTIMAL, "b_ub": np.array([-2.0])}), (0, _FREE_PAIR)])


def _assert_duals(res, ref):
    """At an optimum the row duals are linprog's marginals and the dual
    objective meets ``fun``; the Farkas ray comes at status 2 alone."""
    if res.status == 0:
        marginals = np.concatenate([ref.ineqlin.marginals, ref.eqlin.marginals])
        assert res.row_dual.tobytes() == marginals.tobytes()
        assert abs(res.dual_objective - res.fun) <= 1e-8 * (1 + abs(res.fun))
    if res.status != 2:
        assert res.dual_ray is None


@settings(max_examples=150, deadline=None)
@given(sequence=solve_sequences())
@example(sequence=_EVERY_OUTCOME)
def test_a_compiled_lp_solved_again_is_linprog_bit_for_bit(sequence):
    """Each solve of a compiled LP, in any order and interleaved with
    another LP's, is a fresh ``linprog`` solve bit for bit; solving leaves
    the LP's fields, equality, hash and pickled form as they were."""
    cases, presolves, steps = sequence
    programs = [_compile(case, presolve) for case, presolve in zip(cases, presolves)]
    last = {}
    for k, step in steps:
        res = solve(programs[k], step["c"], step["b_ub"], step["b_eq"])
        ref = _linprog(step, presolves[k])
        _assert_same_bits(res, ref)
        _assert_duals(res, ref)
        last[k] = step, res
    for k, (step, res) in last.items():
        program = programs[k]
        assert "_model" in vars(program)
        assert [f.name for f in fields(program)] == ["A", "n_ub", "lower", "upper", "bounds",
                                                     "presolve", "warm"]
        assert program == program
        with pytest.raises(TypeError, match="unhashable"):
            hash(program)
        assert pickle.dumps(program) == pickle.dumps(_compile(cases[k], presolves[k]))
        for twin in (pickle.loads(pickle.dumps(program)), copy.copy(program)):
            assert "_model" not in vars(twin)
            _assert_same_bits(solve(twin, step["c"], step["b_ub"], step["b_eq"]), res)


def test_the_outcome_sequence_covers_every_status():
    cases, presolves, steps = _EVERY_OUTCOME
    programs = [_compile(case, presolve) for case, presolve in zip(cases, presolves)]
    assert [solve(programs[k], step["c"], step["b_ub"], step["b_eq"]).status
            for k, step in steps] == [0, 0, 2, 3, 0, 0]


def _assert_farkas_ray(program, res, lower, upper):
    """``res.dual_ray`` y proves the LP over rows ``lower <= A x <= upper``
    infeasible: ``y @ A x`` stays, over the variable bounds, below the
    positive margin y takes at the row bounds it points at (``lower``
    where y > 0, ``upper`` where y < 0). At x >= 0 this is ``y @ A <= 0``
    on the columns that may be positive and a positive margin. A ray is
    fixed up to its scale, so entries of y and of ``y @ A`` within 1e-9
    times the largest of y (or 1) count as zero."""
    assert res.dual_ray is not None
    y = np.array(res.dual_ray, dtype=float)
    tol = 1e-9 * max(1.0, np.max(np.abs(y)))
    y[np.abs(y) <= tol] = 0.0
    reach = y @ program.A
    reach[np.abs(reach) <= tol] = 0.0
    with np.errstate(invalid="ignore"):
        reach = np.where(reach > 0, reach * program.bounds.ub,
                         np.where(reach < 0, reach * program.bounds.lb, 0.0))
    margin = y[y > 0] @ lower[y > 0] + y[y < 0] @ upper[y < 0]
    assert np.isfinite(margin) and margin > 0 and reach.sum() < margin


class _Clearing(lp._Highs):
    """A HiGHS object that counts its ``clearSolver`` calls."""

    clears = 0

    def clearSolver(self):
        self.clears += 1
        return super().clearSolver()


@st.composite
def warm_sequences(draw):
    """``solve_sequences`` with each of its two LPs compiled warm or cold."""
    cases, presolves, steps = draw(solve_sequences())
    return cases, presolves, [draw(st.booleans()), draw(st.booleans())], steps


@settings(max_examples=300, deadline=None)
@given(sequence=warm_sequences())
@example(sequence=(*_EVERY_OUTCOME[:2], [True, True], _EVERY_OUTCOME[2]))
@example(sequence=(*_EVERY_OUTCOME[:2], [True, False], _EVERY_OUTCOME[2]))
def test_a_warm_lp_gives_a_cold_solves_outcome(sequence):
    """Each solve of a warm LP, interleaved with another LP's, warm or cold,
    gives the status of a cold twin's solve of the same LP and an objective
    within 1e-9 of it. At status 2 every ray returned proves the LP
    infeasible, and a warm solve returns one wherever the twin does (HiGHS
    has none, cold or warm, for an empty row such as 0 x = 1/2). A warm
    LP's first solve, and each one after a status other than 0 or 2,
    clears HiGHS' state and is the cold twin's bit for bit; no other solve
    of it clears."""
    cases, presolves, warms, steps = sequence
    programs = [_compile(case, presolve, warm)
                for case, presolve, warm in zip(cases, presolves, warms)]
    starts_cold = [True, True]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_Highs", _Clearing)
        for program in programs:
            assert program._model.highs.clears == 0
    for k, step in steps:
        program = programs[k]
        clears = program._model.highs.clears
        res = solve(program, step["c"], step["b_ub"], step["b_eq"])
        assert program._model.highs.clears - clears == starts_cold[k]
        twin = solve(_compile(step, presolves[k]), step["c"], step["b_ub"], step["b_eq"])
        assert res.status == twin.status
        if starts_cold[k]:
            _assert_same_bits(res, twin)
        if res.status == 0:
            assert abs(res.fun - twin.fun) <= 1e-9 * (1 + abs(twin.fun))
        if res.status == 2 and (res.dual_ray is not None or twin.dual_ray is not None):
            _assert_farkas_ray(program, res, *program.row_bounds(step["b_ub"], step["b_eq"]))
        starts_cold[k] = not warms[k] or res.status not in (0, 2)


def test_an_infeasible_extension_lp_carries_a_farkas_ray(monkeypatch):
    """On an infeasible Block-Marschak LP of the binary T=2 universe (a
    random rho, no mixture), HiGHS' dual ray y proves infeasibility: y'A <=
    0 on every column that may be positive, and y times the row bounds it
    points at is positive. No report carries it."""
    uni = catalog.binary_universe(periods=(1, 2))
    rng = np.random.default_rng(0)
    rho = StochasticChoiceFunction(uni, {
        path: rng.dirichlet(np.full(len(uni.choice_paths(path)), 0.5))
        for path in itertools.product(uni.menu_indices(1), uni.menu_indices(2))})
    solved = []

    def recording(program, c, b_ub=None, b_eq=None):
        solved.append((program, program.row_bounds(b_ub, b_eq), solve(program, c, b_ub, b_eq)))
        return solved[-1][-1]

    monkeypatch.setattr(checks, "solve", recording)
    feasible, _, report = checks.bm_extension_feasible(rho)
    program, (lower, upper), res = solved[-1]
    assert not feasible and res.status == 2
    assert res.x is res.row_dual is res.dual_objective is None
    y = res.dual_ray
    assert np.max((y @ program.A)[program.bounds.ub > 0]) <= 1e-9
    margin = y[y > 0] @ lower[y > 0] + y[y < 0] @ upper[y < 0]
    assert np.isfinite(margin) and margin > 0
    assert set(report.diagnostics["solver"]) == {"status", "message", "max_violation"}


def test_filled_right_hand_sides_leave_the_compiled_lp_alone():
    base = compile_lp(np.array([[-1.0, -1.0]]), np.array([[1.0, -1.0]]))
    lower, upper = base.row_bounds(b_ub=[-2.0], b_eq=[0.5])
    assert lower.tolist() == [-np.inf, 0.5] and upper.tolist() == [-2.0, 0.5]
    assert lower is not base.lower and upper is not base.upper
    assert base.lower.tolist() == [-np.inf, 0.0] and base.upper.tolist() == [0.0, 0.0]
    filled = replace(base, lower=lower, upper=upper)
    assert solve(filled, [1.0, 1.0]).x.tobytes() == \
        solve(base, [1.0, 1.0], b_ub=[-2.0], b_eq=[0.5]).x.tobytes()


def test_solve_raises_no_option_warning_and_keeps_the_filters():
    before = list(warnings.filters)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve(compile_lp(_OPTIMAL["A_ub"]), _OPTIMAL["c"], _OPTIMAL["b_ub"]).status == 0
    assert warnings.filters == before


class _OptimumAtZero(lp._Highs):
    """A HiGHS object that reports an optimum at x = 0 without solving."""

    def run(self):
        return lp.HighsStatus.kOk

    def getModelStatus(self):
        return lp.HighsModelStatus.kOptimal

    def getSolution(self):
        n, m = self.getNumCol(), self.getNumRow()
        return SimpleNamespace(col_value=[0.0] * n, col_dual=[0.0] * n,
                               row_value=[0.0] * m, row_dual=[0.0] * m)


def test_an_optimum_off_the_constraints_is_demoted(monkeypatch):
    """An optimum that breaks a row by more than linprog's check tolerance
    reads status 4, as linprog reports it."""
    program = compile_lp(np.array([[-1.0, -1.0]]), None)
    monkeypatch.setattr(lp, "_Highs", _OptimumAtZero)
    res = solve(program, [1.0, 1.0], b_ub=[-1.0])
    assert res.status == 4 and not res.success
    assert "does not satisfy the constraints" in res.message
    assert res.max_violation == 1.0


def test_a_warm_lp_clears_after_a_demoted_optimum(monkeypatch):
    """A warm LP keeps HiGHS' basis after an optimum that passes linprog's
    check and clears it after one demoted to status 4."""
    class Counted(_OptimumAtZero, _Clearing):
        pass

    program = compile_lp(np.array([[-1.0, -1.0]]), None, warm=True)
    monkeypatch.setattr(lp, "_Highs", Counted)
    statuses, clears = [], []
    for b_ub in ([0.0], [0.0], [-1.0], [0.0], [0.0]):
        statuses.append(solve(program, [1.0, 1.0], b_ub=b_ub).status)
        clears.append(program._model.highs.clears)
    assert statuses == [0, 0, 4, 0, 0]
    assert clears == [1, 1, 1, 2, 2]


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
    """Route ``lp.solve``'s HiGHS objects through a recorder that keeps, at
    each run, the options whose values differ from a fresh object's."""
    seen, fresh = [], lp._Highs()
    names = [name for name in dir(fresh.getOptions()) if not name.startswith("_")]

    class Recording(lp._Highs):
        def run(self):
            seen.append({name: self.getOptionValue(name)[1] for name in names
                         if self.getOptionValue(name) != fresh.getOptionValue(name)})
            return super().run()

    monkeypatch.setattr(lp, "_Highs", Recording)
    return seen


def _clear_lp_caches():
    geometry._arrangement.cache_clear()
    geometry._demand_geometry.cache_clear()
    checks._compile_sarpd.cache_clear()
    counterfactuals._compile.cache_clear()


def test_only_the_bound_pairs_switch_presolve_off(monkeypatch, simple_setup):
    """Default-compiled LPs run with HiGHS' defaults but console output
    off, as ``milp`` sets them; the counterfactual bound pairs add presolve
    off and nothing else."""
    defaults = {"output_flag": False, "log_to_console": False}
    seen = _recorded_options(monkeypatch)
    assert solve(compile_lp(_OPTIMAL["A_ub"]), _OPTIMAL["c"], _OPTIMAL["b_ub"]).status == 0
    assert solve(compile_lp(_OPTIMAL["A_ub"], presolve=False), _OPTIMAL["c"],
                 _OPTIMAL["b_ub"]).status == 0
    assert seen == [defaults, {**defaults, "presolve": "off"}]

    # the package's own LPs, built afresh: patch geometry, sarpd cells,
    # then one bound pair
    _clear_lp_caches()
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
    assert seen[-1] == {**defaults, "presolve": "off"}
    # the cached LPs keep their recording HiGHS objects: let no later test
    # solve them
    _clear_lp_caches()


# --- one entry point -------------------------------------------------------------------

SOLVER_NAMES = {"linprog", "milp"}
# the one private scipy module the package may import, and the one module
# that may import it: HiGHS' bindings, behind lp.solve
HIGHS_MODULE, HIGHS_HOME = "scipy.optimize._highspy._core", "lp.py"


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


def _entry_point_breaches(name: str, source: str) -> list:
    """What the package module ``name`` with ``source`` breaks of the rule
    that every LP goes through ``lp.solve``: an import of a private scipy
    module or name (only ``HIGHS_HOME`` may import ``HIGHS_MODULE``), a
    reach for ``_highspy`` outside it, or any import or use of scipy's
    ``linprog`` or ``milp``."""
    tree = ast.parse(source)
    breaches = []
    for module, imported in _imports(tree):
        full = module if imported is None else f"{module}.{imported}"
        if re.match(r"scipy(\.\w+)*\._", full) and (name, module) != (HIGHS_HOME, HIGHS_MODULE):
            breaches.append(f"imports private {full}")
        if imported in SOLVER_NAMES:
            breaches.append(f"imports {imported}")
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    breaches += [f"reaches {attr}" for attr in sorted(used & SOLVER_NAMES)]
    if name != HIGHS_HOME and "_highspy" in used:
        breaches.append("reaches _highspy")
    return breaches


def test_every_lp_goes_through_the_entry_point():
    files = sorted(SRC.glob("*.py"))
    assert {f.name for f in files} >= {HIGHS_HOME, "checks.py", "counterfactuals.py",
                                       "geometry.py"}
    for path in files:
        assert _entry_point_breaches(path.name, path.read_text()) == [], path.name


def test_scan_finds_a_way_around_the_entry_point():
    bindings = "from scipy.optimize._highspy._core import _Highs\n"
    assert _entry_point_breaches("lp.py", bindings + "import scipy.optimize._highspy._core\n") \
        == []
    assert _entry_point_breaches("checks.py", bindings) == \
        ["imports private scipy.optimize._highspy._core._Highs"]
    assert _entry_point_breaches("checks.py", "import scipy.optimize\n"
                                 "h = scipy.optimize._highspy\n") == ["reaches _highspy"]
    assert _entry_point_breaches("lp.py", bindings + "from scipy.optimize import _highspy\n"
                                 "from scipy.optimize._linprog_highs import _STATUS\n") == \
        ["imports private scipy.optimize._highspy",
         "imports private scipy.optimize._linprog_highs._STATUS"]
    assert _entry_point_breaches("lp.py", "from scipy.optimize import milp\n"
                                 "import scipy.optimize\nscipy.optimize.linprog\n") == \
        ["imports milp", "reaches linprog"]
