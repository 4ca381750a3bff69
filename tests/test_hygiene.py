"""Source hygiene: every import in the package modules is used, every
module-level constant and every function of the package is read somewhere,
every field of the package's input dataclasses is read by the package,
every defaulted parameter of a private package function is passed
somewhere, no parameter of one is passed the same literal by every package
call, dense Kronecker products are built only at the known sites,
dynamic type matrices are assembled only by ``representations.type_matrix``,
demand geometries only by ``geometry.demand_geometry``, an LP's outcome
is read only by ``lp.optimal``, only the feasibility LPs are compiled
warm, no warning is recorded to be raised again, no ``kind`` is matched by its prefix, and no
name the package exports hides one of its modules."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "drumtest"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a package constant may be read
READERS = sorted(p for part in ("src", "tests", "bench") for p in (ROOT / part).rglob("*.py"))


def _unused_imports(source: str) -> list:
    """Names bound by the module's imports that no Name node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "import itertools\nfrom fractions import Fraction\nimport numpy as np\nnp.ones(1)\n"
    assert _unused_imports(source) == [(1, "itertools"), (2, "Fraction")]


def _constants(source: str) -> list:
    """(line, name) of the UPPER_CASE names the module binds at top level."""
    found = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            found += [(node.lineno, n.id) for n in names
                      if isinstance(n, ast.Name) and n.id.isupper()]
    return found


def _reads(source: str) -> set:
    """Names the source reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_module_constant_is_read():
    read = set().union(*(_reads(path.read_text()) for path in READERS))
    unread = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
              for line, name in _constants(path.read_text()) if name not in read]
    assert unread == []


def test_scan_finds_an_unread_constant():
    source = ("import math\nLIMIT = 1\nUSED, SPARE = 2, 3\nTYPED: int = 4\nlower = 5\n"
              "print(USED + math.TYPED)\n")
    assert _constants(source) == [(2, "LIMIT"), (3, "USED"), (3, "SPARE"), (4, "TYPED")]
    read = _reads(source)
    assert [name for _, name in _constants(source) if name not in read] == ["LIMIT", "SPARE"]


def _functions(source: str) -> list:
    """(line, name) of the module-level functions the source defines and of
    the methods, dunders apart, of its module-level classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.ClassDef):
            found += [(f.lineno, f.name) for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (f.name.startswith("__") and f.name.endswith("__"))]
    return found


def _function_reads(source: str) -> set:
    """Names the source reads as ``_reads`` does, plus the names its
    ``from`` imports bind and the last part of each string passed to a
    ``setattr``, ``getattr`` or ``delattr`` call (a monkeypatch target)."""
    read = _reads(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call) and \
                _callee(node.func) in ("setattr", "getattr", "delattr"):
            read.update(arg.value.rsplit(".", 1)[-1] for arg in node.args
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return read


def test_every_function_is_read():
    """Code that nothing calls is deleted."""
    read = set().union(*(_function_reads(path.read_text()) for path in READERS))
    unread = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
              for line, name in _functions(path.read_text()) if name not in read]
    assert unread == []


def test_scan_finds_an_unread_function():
    source = ("from pkg import imported\n"
              "def dead():\n    pass\n"
              "def called():\n    pass\n"
              "def patched():\n    pass\n"
              "def by_path():\n    pass\n"
              "async def waiting():\n    pass\n"
              "class C:\n    def __init__(self):\n        self.x = 1\n"
              "    def method(self):\n        def nested():\n            pass\n"
              "    def used(self):\n        return self.x\n"
              "called()\nC().used()\n"
              "def test(monkeypatch):\n    monkeypatch.setattr(C, 'patched', None)\n"
              "    monkeypatch.setattr('pkg.mod.by_path', None)\n")
    assert _functions(source) == [(2, "dead"), (4, "called"), (6, "patched"), (8, "by_path"),
                                  (10, "waiting"), (15, "method"), (18, "used"), (22, "test")]
    read = _function_reads(source)
    assert {"imported", "called", "used", "patched", "by_path"} <= read
    assert [name for _, name in _functions(source) if name not in read] == \
        ["dead", "waiting", "method", "test"]


# the dataclasses through which callers configure the package
INPUT_DATACLASSES = [("inference.py", "TestConfig"), ("simulate.py", "DgpSpec"),
                     ("counterfactuals.py", "CounterfactualProblem")]


def _fields(source: str, name: str) -> list:
    """(line, field) of the annotated fields of the module-level class
    ``name``."""
    cls = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == name)
    return [(node.lineno, node.target.id) for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _attribute_reads(source: str) -> set:
    """Attribute names the source loads, outside the bodies of the classes
    of ``INPUT_DATACLASSES`` (a field read only by its own class's
    validation changes nothing downstream)."""
    own = {name for _, name in INPUT_DATACLASSES}
    read = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name in own:
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                read.add(child.attr)
            visit(child)

    visit(ast.parse(source))
    return read


def test_every_input_field_is_read():
    """A field that no package code reads is an option that does nothing."""
    read = set().union(*(_attribute_reads(path.read_text()) for path in MODULES))
    unread = [(module, line, f"{cls}.{name}") for module, cls in INPUT_DATACLASSES
              for line, name in _fields((SRC / module).read_text(), cls) if name not in read]
    assert unread == []


def test_scan_finds_an_unread_field():
    source = ("class TestConfig:\n    __test__ = False\n    reps: int = 9\n    jobs: int = 1\n"
              "    seed: int = 0\n    def check(self):\n        return self.jobs + self.seed\n"
              "def run(config):\n    config.seed = 1\n    return config.reps\n")
    assert _fields(source, "TestConfig") == [(3, "reps"), (4, "jobs"), (5, "seed")]
    assert {"reps"} <= _attribute_reads(source)
    assert not {"jobs", "seed"} & _attribute_reads(source)


def _private_functions(tree) -> list:
    """(definition, positional parameters) of each private function the
    tree defines, dunders apart; a method's self or cls is left out."""
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)
               and "staticmethod" not in {getattr(d, "id", None) for d in f.decorator_list}}
    return [(node, (node.args.posonlyargs + node.args.args)[1 if id(node) in methods else 0:])
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _private_defaults(source: str) -> list:
    """(function, parameter, position) of each defaulted parameter of the
    private functions the source defines; the position does not count a
    method's self or cls and is None for a keyword-only parameter."""
    found = []
    for node, positional in _private_functions(ast.parse(source)):
        a = node.args
        first = len(positional) - len(a.defaults)
        found += [(node.name, arg.arg, k) for k, arg in enumerate(positional) if k >= first]
        found += [(node.name, arg.arg, None)
                  for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
    return found


def _callee(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passed_arguments(source: str) -> set:
    """(callee, keyword) and (callee, position) of each argument a call in
    the source passes, and (callee, "*") for a call that unpacks. A call
    through ``partial``, or of a name bound to one, counts for the wrapped
    function."""
    tree = ast.parse(source)
    aliases = {}  # name: (wrapped function, positional arguments bound)

    def resolve(call):
        name, args = _callee(call.func), call.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        wrapped, bound = aliases.get(name, (name, 0))
        return wrapped, bound, args

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and \
                _callee(node.value.func) == "partial" and node.value.args:
            wrapped, bound, args = resolve(node.value)
            for target in node.targets:
                aliases.setdefault(_callee(target), (wrapped, bound + len(args)))
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, bound, args = resolve(node)
        if any(isinstance(a, ast.Starred) for a in args) or \
                any(kw.arg is None for kw in node.keywords):
            passed.add((name, "*"))
        passed.update((name, bound + k) for k in range(len(args)))
        passed.update((name, kw.arg) for kw in node.keywords)
    return passed


def _unpassed(defaults, passed) -> list:
    return [(fn, arg) for fn, arg, pos in defaults
            if not {(fn, arg), (fn, pos), (fn, "*")} & passed]


def test_every_private_default_is_passed():
    """A default that no caller overrides is a constant in disguise."""
    passed = set().union(*(_passed_arguments(path.read_text()) for path in READERS))
    unpassed = [(path.name, *found) for path in MODULES
                for found in _unpassed(_private_defaults(path.read_text()), passed)]
    assert unpassed == []


def test_scan_finds_an_unpassed_private_default():
    source = ("from functools import partial\n"
              "def _knob(a, b=1, *, c=2, d=3):\n    return a\n"
              "def _pos(a, b=1):\n    return a\n"
              "def _splat(a, b=1):\n    return a\n"
              "def public(a, b=1):\n    return a\n"
              "class C:\n    def _m(self, a, b=1):\n        return a\n"
              "    def _n(self, a, b=1):\n        return a\n"
              "f = partial(_knob, 0)\n"
              "g = partial(f, c=5)\n"
              "_pos(1, 2)\n_splat(*xs)\nC()._m(1)\nC()._n(1, 2)\nf(1)\n")
    defaults = _private_defaults(source)
    assert defaults == [("_knob", "b", 1), ("_knob", "c", None), ("_knob", "d", None),
                        ("_pos", "b", 1), ("_splat", "b", 1), ("_m", "b", 1), ("_n", "b", 1)]
    assert _unpassed(defaults, _passed_arguments(source)) == [("_knob", "d"), ("_m", "b")]


def _literal_parameters(sources: list) -> list:
    """(function, parameter, literal) where every call in the ``sources``
    of a private function they define passes that same literal for the
    parameter. A function whose name is read other than as a callee (passed
    on, wrapped in ``partial``), or that a call passes arguments by
    unpacking, is left out: its calls are not all in sight."""
    trees = [ast.parse(source) for source in sources]
    params = {node.name: [arg.arg for arg in positional + node.args.kwonlyargs]
              for tree in trees for node, positional in _private_functions(tree)}
    calls, hidden = {}, set()
    for tree in trees:
        callees = set()
        for node in ast.walk(tree):
            name = _callee(node.func) if isinstance(node, ast.Call) else None
            if name not in params:
                continue
            callees.add(id(node.func))
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(kw.arg is None for kw in node.keywords):
                hidden.add(name)
            passed = dict(zip(params[name], node.args))
            passed.update((kw.arg, kw.value) for kw in node.keywords)
            calls.setdefault(name, []).append({arg: repr(value.value) for arg, value in
                                               passed.items() if isinstance(value, ast.Constant)})
        hidden.update(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and id(node) not in callees)
        hidden.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and id(node) not in callees)
    found = []
    for name, literals in sorted(calls.items()):
        if name in hidden:
            continue
        for arg in params[name]:
            values = {passed.get(arg) for passed in literals}
            if len(values) == 1 and None not in values:
                found.append((name, arg, values.pop()))
    return found


def test_no_private_parameter_is_always_passed_one_literal():
    """A parameter that every package call sets to the same literal is a
    constant in disguise, the twin of a default that no caller overrides."""
    assert _literal_parameters([path.read_text() for path in MODULES]) == []


def test_scan_finds_a_parameter_always_passed_one_literal():
    source = ("from functools import partial\n"
              "def _knob(a, b, flag=False, *, mode='x'):\n    return a\n"
              "def _varied(a, b):\n    return a\n"
              "def _passed_on(a, b):\n    return a\n"
              "def _splat(a, b):\n    return a\n"
              "class C:\n    def _m(self, a, b):\n        return a\n"
              "_knob(1, 2, True, mode='y')\n_knob(x, b=2, flag=True, mode='y')\n"
              "_varied(1, 2)\n_varied(1, 3)\n"
              "_passed_on(1, 2)\nf = partial(_passed_on, 1)\n"
              "_splat(1, 2)\n_splat(*xs)\n"
              "C()._m(1, None)\nC()._m(2, None)\n")
    assert _literal_parameters([source]) == [
        ("_knob", "b", "2"), ("_knob", "flag", "True"), ("_knob", "mode", "'y'"),
        ("_m", "b", "None"),
        ("_varied", "a", "1")]


# The functions of the package that build a Kronecker product densely. Each
# sits behind a size guard or builds exact or vector-sized arrays; a product
# that is only multiplied by a vector goes through representations.kron_apply.
KRON_SITES = [
    ("checks.py", "_compile_bm"),
    ("checks.py", "_compile_hierarchy"),
    ("counterfactuals.py", "kron_counterfactual_cone.objective"),
    ("representations.py", "_gamma"),
    ("representations.py", "kron_inequalities"),
    ("representations.py", "projection_ops"),
]


def _sites(source: str, found) -> set:
    """Dotted names of the functions and classes whose own code (nested
    definitions apart) holds a node for which ``found`` is true;
    module-level code counts as ``<module>``."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if found(child):
                sites.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def _kron_sites(source: str) -> set:
    """``_sites`` of the nodes that name ``kron``, bare or as an attribute."""
    return _sites(source, lambda node: (isinstance(node, ast.Attribute) and node.attr == "kron")
                  or (isinstance(node, ast.Name) and node.id == "kron"))


def test_dense_kronecker_products_stay_at_their_sites():
    found = sorted((path.name, site) for path in MODULES for site in _kron_sites(path.read_text()))
    assert found == KRON_SITES


def test_scan_finds_every_kron_site():
    source = ("import numpy as np\nfrom functools import reduce\nfrom numpy import kron\n"
              "TOP = np.kron([1], [1])\n"
              "def dense(fs):\n    return reduce(np.kron, fs)\n"
              "def outer(a):\n    b = a + 1\n"
              "    def inner(c):\n        return kron(b, c)\n    return inner\n"
              "class Op:\n    def build(self):\n        return np.kron(self.a, self.a)\n"
              "def clean(x):\n    return np.dot(x, x) + kron_apply(x)\n")
    assert _kron_sites(source) == {"<module>", "dense", "outer.inner", "Op.build"}


# The functions of the package that compile an LP warm, so that each solve
# starts from the basis of the last. Both LPs are read for their status
# alone; a warm bound pair would move printed bounds in their last bits.
WARM_SITES = [
    ("checks.py", "_compile_bm"),
    ("checks.py", "_compile_hierarchy"),
]
# the calls that can build a warm LP, and the position of ``warm`` among
# their positional parameters (``replace`` takes it by keyword alone)
WARM_POSITION = {"compile_lp": 4, "LinearProgram": 6, "replace": None}


def _warms(node) -> bool:
    """Whether ``node`` is a call that may build an LP with ``warm`` set: a
    ``WARM_POSITION`` call that passes ``warm``, by position or keyword,
    other than as the constant False, or unpacks its arguments."""
    name = _callee(node.func) if isinstance(node, ast.Call) else None
    if name not in WARM_POSITION:
        return False
    if any(isinstance(a, ast.Starred) for a in node.args) or \
            any(kw.arg is None for kw in node.keywords):
        return True
    position = WARM_POSITION[name]
    values = [kw.value for kw in node.keywords if kw.arg == "warm"]
    values += node.args[position:position + 1] if position is not None else []
    return any(not (isinstance(v, ast.Constant) and v.value is False) for v in values)


def test_only_the_feasibility_lps_are_compiled_warm():
    """Outside ``lp`` only the Block-Marschak and hierarchy LPs are compiled
    warm; every bound pair and geometry LP solves cold."""
    found = sorted((path.name, site) for path in MODULES if path.name != "lp.py"
                   for site in _sites(path.read_text(), _warms))
    assert found == WARM_SITES


def test_scan_finds_a_warm_compile():
    source = ("from dataclasses import replace\n"
              "def _pair(A):\n    return compile_lp(None, A, presolve=False, warm=True)\n"
              "def _cold(A):\n"
              "    return compile_lp(A, warm=False), lp.compile_lp(A, None, None, True, False)\n"
              "def _positional(A):\n    return lp.compile_lp(A, None, None, True, True)\n"
              "class M:\n    def warmed(self):\n        return replace(self.lp, warm=self.flag)\n"
              "def _unpacked(A, opts):\n    return compile_lp(A, **opts)\n"
              "def _built(f):\n    return LinearProgram(*f, True)\n"
              "def _fields(f):\n    return LinearProgram(f.A, 0, f.lo, f.up, f.b, True, 1)\n"
              "def _report(r):\n    return replace(r, passed=True), other(A, warm=True)\n")
    assert _sites(source, _warms) == {"_pair", "_positional", "M.warmed", "_unpacked", "_built",
                                      "_fields"}


def _calls(source: str, names: set, **keywords) -> list:
    """Lines of the source's calls, bare or as an attribute, of a function
    in ``names`` that pass each of ``keywords`` as that constant."""
    def passes(call):
        given = {k.arg: k.value for k in call.keywords}
        return all(isinstance(given.get(key), ast.Constant) and given[key].value == value
                   for key, value in keywords.items())

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _callee(node.func) in names
                  and passes(node))


def _calls_outside(home: str, names: set, **keywords) -> list:
    """(module, line) of the calls ``_calls`` finds in the package modules
    other than ``home``."""
    return [(path.name, line) for path in MODULES if path.name != home
            for line in _calls(path.read_text(), names, **keywords)]


def test_type_matrices_have_one_builder():
    """Outside ``representations`` the package gets a dynamic type matrix
    from ``type_matrix``, built once per geometry, never by calling
    ``kron_dynamic`` itself."""
    assert _calls_outside("representations.py", {"kron_dynamic"}) == []


def test_scan_finds_a_kron_dynamic_call():
    source = ("from drumtest import representations as r\n"
              "from drumtest.representations import kron_dynamic, type_matrix\n"
              "A = kron_dynamic(statics, paths, uni)\n"
              "B = r.kron_dynamic(statics, paths, uni)\n"
              "C = type_matrix(uni, paths)\n"
              "build = kron_dynamic\n")
    assert _calls(source, {"kron_dynamic"}) == [3, 4]


def test_row_enumerations_have_one_consumer():
    """Outside ``checks`` the package reads the stability and iterated-difference
    rows from their compiled row systems, built once per geometry, never by
    running the enumerations itself."""
    assert _calls_outside("checks.py", {"stability_groups", "iterated_differences"}) == []


def test_scan_finds_the_row_enumerations():
    source = ("from drumtest import checks\n"
              "from drumtest.checks import _compile_dmono, stability_groups\n"
              "groups = list(stability_groups(uni, paths))\n"
              "rows = checks.iterated_differences(uni, dominance, paths)\n"
              "M = _compile_dmono(uni, None, paths).matrix\n"
              "enumerate_rows = stability_groups\n")
    assert _calls(source, {"stability_groups", "iterated_differences"}) == [3, 4]


def test_demand_geometry_has_one_builder():
    """Outside ``geometry`` the package gets patches, dominance and demand
    universes from one ``demand_geometry`` value, never by calling
    ``compute_patches`` or ``demand_universe`` itself."""
    assert _calls_outside("geometry.py", {"compute_patches", "demand_universe"}) == []


def test_scan_finds_the_geometry_builders():
    source = ("from drumtest import geometry\n"
              "from drumtest.geometry import compute_patches, demand_geometry\n"
              "P = compute_patches(budgets)\n"
              "U = geometry.demand_universe(budgets, (1,))\n"
              "G = demand_geometry(budgets, (1,))\n")
    assert _calls(source, {"compute_patches", "demand_universe"}) == [3, 4]


def _lp_outcome_sites(source: str) -> list:
    """Lines of the source's comparisons of a ``status`` attribute and of
    its strings that build the "LP returned status" message."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "status"
                for side in (node.left, *node.comparators)):
            found.add(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and \
                "LP returned status" in node.value:
            found.add(node.lineno)
    return sorted(found)


def test_lp_outcomes_have_one_rule():
    """Outside ``lp`` the package reads an LP result's status through
    ``lp.optimal``: no other module compares it or builds the message of a
    failed solve."""
    found = [(path.name, line) for path in MODULES if path.name != "lp.py"
             for line in _lp_outcome_sites(path.read_text())]
    assert found == []


def test_scan_finds_an_lp_outcome_rule():
    source = ("res = solve(lp, c)\n"
              "if res.status == 2:\n    pass\n"
              "if 0 != res.status:\n    pass\n"
              "ok = res.status in (0, 2)\n"
              "raise SolverError(f'cell LP returned status {res.status}: {res.message}')\n"
              "diagnostics = {'status': int(res.status)}\n"
              "feasible = optimal(res, 'cell')\n"
              "if status == 0:\n    pass\n")
    assert _lp_outcome_sites(source) == [2, 4, 6, 7]


def test_no_warning_is_recorded_to_be_raised_again():
    """Geometry warnings travel as ``DemandGeometry.warnings``: no package
    module records warnings to replay them."""
    assert _calls_outside(None, {"catch_warnings"}, record=True) == []


def test_scan_finds_a_recording_catch_warnings():
    source = ("import warnings\n"
              "with warnings.catch_warnings(record=True) as caught:\n    pass\n"
              "with warnings.catch_warnings():\n    pass\n"
              "with catch_warnings(record=False):\n    pass\n"
              "with catch_warnings(action='ignore', record=True):\n    pass\n")
    assert _calls(source, {"catch_warnings"}, record=True) == [2, 8]


def _kind_prefix_calls(source: str) -> list:
    """Lines of the source's ``.startswith(...)`` calls on an attribute
    named ``kind``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "startswith"
                  and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "kind")


def test_kinds_are_matched_exactly():
    """A generator kind is one of a known set of names: a prefix test lets a
    misspelt kind through as another generator."""
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _kind_prefix_calls(path.read_text())]
    assert found == []


def test_scan_finds_a_kind_prefix():
    source = ("if dgp.kind.startswith('cobb'):\n    pass\n"
              "if spec.params.kind.startswith(('a', 'b')):\n    pass\n"
              "if kind.startswith('x') or dgp.name.startswith('y'):\n    pass\n"
              "if dgp.kind in KINDS or dgp.kind == 'binary1':\n    pass\n")
    assert _kind_prefix_calls(source) == [1, 3]


def test_every_module_is_the_package_attribute_of_its_name():
    """``drumtest.<name>`` is the module of that file, also after every
    module has been imported, and ``import drumtest.<name> as m`` binds the
    module, not a function the package exports."""
    import drumtest
    for path in MODULES:
        module = importlib.import_module(f"drumtest.{path.stem}")
        assert getattr(drumtest, path.stem) is module, path.stem
    import drumtest.simulate as sim
    assert isinstance(sim, types.ModuleType)
