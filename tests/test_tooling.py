"""The benchmark's tracer names only bindings that exist in the engine.

``perfbench/tracer.py`` wraps engine functions by (module, class,
attribute); a deletion or rename in ``src/`` that one of them names would
otherwise surface only as a failed traced benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "wreathdunkl"

# Imports kept for their binding alone: the package's public names, the
# kernel names the engine reaches through ``_kernels``, and the
# ``spinrep.op_compose`` binding that perfbench's tracer rebinds.
REEXPORTS = {"__init__": "*", "_kernels": "*", "spinrep": {"op_compose"}}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(t[0], t[1], t[2]) for t in tracer.TARGETS]


def _resolves(module, cls, attr) -> bool:
    try:
        home = importlib.import_module(f"wreathdunkl.{module}")
        target = getattr(home, attr) if cls is None else vars(getattr(home, cls))[attr]
    except (ImportError, AttributeError, KeyError):
        return False
    return callable(target)


def test_tracer_targets_resolve():
    targets = _targets()
    assert targets
    assert [t for t in targets if not _resolves(*t)] == []


def test_kernel_backend_name_resolves():
    from wreathdunkl import _kernels

    assert isinstance(_kernels.BACKEND_NAME, str) and _kernels.BACKEND_NAME


def test_tracer_result_hooks_accept_engine_results():
    """Every result hook runs on a real result of the target it is attached
    to, so a change to a result type fails here and not only in a traced
    benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    from wreathdunkl import _kernels
    from wreathdunkl.cyclotomic import CyclotomicField
    from wreathdunkl.groups import GroupSpec, enumerate_subgroup, generator
    from wreathdunkl.opalg import MixedOperator, op_compose
    from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient
    from wreathdunkl.static import build_frozen_hamiltonian, build_lattice

    q1, q2 = LaurentPoly.variable(1, 2, 3), LaurentPoly.variable(2, 2, 3)
    c = RationalCoefficient.ratio(q1, q1 - q2)
    d = MixedOperator.euler(2, 1, 3)
    P12 = generator(GroupSpec("W(m,N)", 2, 3), "P", i=1, j=2)
    calls = {
        "kernels.poly_mul": (
            _kernels.poly_mul, (q1.terms, (q1 - q2).terms, CyclotomicField.get(3).red)
        ),
        "polyalg.divide_exact": (LaurentPoly.divide_exact, (q1 * q1 - q2 * q2, q1 - q2)),
        "polyalg.rational_add": (RationalCoefficient.__add__, (c, c)),
        "polyalg.rational_mul": (RationalCoefficient.__mul__, (c, c)),
        "opalg.op_compose": (op_compose, (d, MixedOperator.term(c, P12))),
        "groups.enumerate_subgroup": (enumerate_subgroup, (GroupSpec("W(m,N)", 2, 2),)),
        "static.build_frozen_hamiltonian": (
            build_frozen_hamiltonian, (build_lattice("cyclic", 2, 1),)
        ),
    }
    hooked = {name: hook for _, _, _, name, _, hook in tracer.TARGETS if hook is not None}
    assert set(hooked) == set(calls)
    tr = tracer.Tracer()
    for name, hook in hooked.items():
        fn, args = calls[name]
        hook(tr, fn(*args), args, 0.0)
    metrics = tr.metrics()
    for name in tracer.HOOK_COUNTS + tracer.MAXIMA:
        if name != "opalg.op_compose.spin_calls" and name != "polyalg.divide_exact.fail":
            assert metrics[name] > 0, name
    assert metrics["opalg.op_compose.spin_calls"] == 0  # operators carry no spin factor
    # a failed trial division is counted
    hooked["polyalg.divide_exact"](tr, LaurentPoly.divide_exact(q1, q1 - q2), (q1, q1 - q2), 0.5)
    assert tr.metrics()["polyalg.divide_exact.fail"] == 1


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.stem}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_engine_modules_use_what_they_import():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = REEXPORTS.get(path.stem, set())
        if allowed != "*":
            stale += [s for s in _unused_imports(path) if s.split()[1] not in allowed]
    assert stale == []


def test_unused_import_check_sees_a_stale_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "def f(x: Fraction) -> int:\n"
        "    return gcd(x, 2)\n"
    )
    assert _unused_imports(module) == ["probe:2 os", "probe:3 least"]


def test_coefficient_core_is_exact_only():
    """The coefficient and operator layers import no float or random module:
    evaluation at points and numeric residuals are oracles in ``tests/helpers.py``."""
    for name in ("polyalg", "opalg"):
        nodes = list(ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())))
        imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
        assert not imported & {"cmath", "random"}, name


# Definitions kept for tests, which use them as oracles.
TEST_ORACLES = {"CheckSuite.failures"}


def _definitions(node, prefix=""):
    """(name, qualified name, whether a method) of every function and class
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child.name, prefix + child.name, isinstance(node, ast.ClassDef)
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _dead_definitions(package: Path, pinned=frozenset(), allowed=frozenset()) -> list[str]:
    """Every non-dunder function, method or class in ``package`` that no
    module there references, unless ``pinned`` holds its name or
    ``allowed`` its qualified name.  A method is referenced only as an
    attribute; anything else also as a name or an imported name, so a
    local variable that shares a method's name does not keep it alive."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    attributes, names = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return sorted(
        f"{stem}:{qualified}"
        for stem, tree in trees.items()
        for name, qualified, method in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in (attributes if method else attributes | names)
        and name not in pinned
        and qualified not in allowed
    )


def test_engine_defines_nothing_it_never_references():
    pinned = {attr for _, _, attr in _targets()}
    assert _dead_definitions(PACKAGE, pinned, TEST_ORACLES) == []


def test_dead_definition_check_sees_an_unreferenced_method(tmp_path):
    (tmp_path / "probe.py").write_text(
        "class Rule:\n"
        "    def power(self, k):\n"
        "        return k\n"
        "    def quotient(self, terms):\n"
        "        return terms\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "def divide(rule, terms, power=1):\n"
        "    return rule.quotient(terms) * power\n"
        "def unused():\n"
        "    def helper():\n"
        "        return divide(Rule(), ())\n"
        "    return 0\n"
    )
    assert _dead_definitions(tmp_path) == [
        "probe:Rule.power", "probe:unused", "probe:unused.helper"
    ]
    assert _dead_definitions(tmp_path, {"unused", "helper"}, {"Rule.power"}) == []


# Defaulted parameters that no engine call sets: the console script calls
# ``main()`` while tests pass an argv, and tests use the other two to state
# other claims.
UNSET_DEFAULTS = {
    "cli:main(argv)",
    "static:scan_equidistant(offsets)",
    "static:scan_equidistant(coupling_grid)",
}


def _is_dataclass(node) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _in_init(value) -> bool:
    """Whether a dataclass field with this right-hand side is an
    ``__init__`` parameter: all but ``field(..., init=False)``."""
    return not (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", True) is False
                for k in value.keywords)
    )


def _defaulted_parameters(node, prefix="", cls=None):
    """(qualified name, name a call uses, position or None for keyword-only,
    parameter) of every parameter with a default under ``node``.  A class
    is called by its name for ``__init__``, and a dataclass's fields are
    its parameters; methods count positions after the receiver, static
    methods from the first argument."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                fields = [s for s in child.body
                          if isinstance(s, ast.AnnAssign) and _in_init(s.value)]
                for pos, f in enumerate(fields):
                    if f.value is not None:
                        yield prefix + child.name, child.name, pos, f.target.id
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.", child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = a.posonlyargs + a.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            skip = 1 if cls is not None and not static else 0
            called = cls.name if cls is not None and child.name == "__init__" else child.name
            first = len(positional) - len(a.defaults)
            for pos, arg in enumerate(positional):
                if pos >= first:
                    yield prefix + child.name, called, pos - skip, arg.arg
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield prefix + child.name, called, None, arg.arg
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.")
        else:
            yield from _defaulted_parameters(child, prefix, cls)


def _unset_defaults(package: Path) -> list[str]:
    """Every defaulted parameter in ``package`` that no call there passes,
    by position or by keyword.  Calls are matched by name, so any call of
    a same-named function or method counts; a call with ``*args`` or
    ``**kwargs`` passes everything."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, pos, param):
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if pos is not None and len(call.args) > pos:
            return True
        return any(k.arg is None or k.arg == param for k in call.keywords)

    return sorted(
        f"{stem}:{qualified}({param})"
        for stem, tree in trees.items()
        for qualified, called, pos, param in _defaulted_parameters(tree)
        if not any(passes(call, pos, param) for call in calls.get(called, ()))
    )


def test_engine_sets_every_default_it_declares():
    """A default no engine call overrides is an option with one value in
    use: a constant belongs in its place."""
    assert [p for p in _unset_defaults(PACKAGE) if p not in UNSET_DEFAULTS] == []


def test_unset_default_check_sees_each_kind_of_parameter(tmp_path):
    (tmp_path / "probe.py").write_text(
        "from dataclasses import dataclass, field\n"
        "class Rule:\n"
        "    def __init__(self, v, d=1):\n"
        "        self.v = v\n"
        "    def quotient(self, terms, strict=False, lazy=True):\n"
        "        return terms\n"
        "    @staticmethod\n"
        "    def make(v, d=2, *, cache=None):\n"
        "        return Rule(v)\n"
        "@dataclass\n"
        "class Case:\n"
        "    name: str\n"
        "    weight: int = 1\n"
        "    items: list = field(default_factory=list, init=False)\n"
        "    tags: list = field(default_factory=list)\n"
        "def run(rule, terms, seed=0, **options):\n"
        "    Case('x', 2)\n"
        "    rule.quotient(terms, lazy=False)\n"
        "    return rule.quotient(terms, True), Rule.make(1)\n"
    )
    assert _unset_defaults(tmp_path) == [
        "probe:Case(tags)", "probe:Rule.__init__(d)", "probe:Rule.make(cache)",
        "probe:Rule.make(d)", "probe:run(seed)",
    ]
