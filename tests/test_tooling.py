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
    d = MixedOperator.euler(2, 1, order=3, group_order=3)
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


# Definitions kept for tests, which use them as oracles.
TEST_ORACLES = {"CheckSuite.failures", "MixedOperator.adjoint"}


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
