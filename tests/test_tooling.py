"""The benchmark's tracer names only bindings that exist in the engine.

``perfbench/tracer.py`` wraps engine functions by (module, class,
attribute); a deletion or rename in ``src/`` that one of them names would
otherwise surface only as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
