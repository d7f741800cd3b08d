"""Kernel backend selector.

Imports the compiled kernels when the extension was built, otherwise falls
back to the pure-Python module.  ``WREATHDUNKL_PURE=1`` forces the fallback,
so that both backends can be compared on one build.
"""

import os

from . import _kernels_py

if os.environ.get("WREATHDUNKL_PURE") == "1":
    _impl = _kernels_py
    COMPILED = False
else:
    try:
        from . import _kernels_cy as _impl  # type: ignore[attr-defined]

        COMPILED = True
    except ImportError:
        _impl = _kernels_py
        COMPILED = False

BACKEND_NAME = "cython" if COMPILED else "python"

scalar_normalize = _impl.scalar_normalize
scalar_add = _impl.scalar_add
scalar_sub = _impl.scalar_sub
scalar_rat_mul = _impl.scalar_rat_mul
scalar_mul = _impl.scalar_mul
poly_add = _impl.poly_add
poly_neg = _impl.poly_neg
poly_scalar_mul = _impl.poly_scalar_mul
poly_mul = _impl.poly_mul
