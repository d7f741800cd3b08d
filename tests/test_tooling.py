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
