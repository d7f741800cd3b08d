"""The arithmetic kernels, as the rest of the engine calls them.

``cyclotomic`` and ``polyalg`` reach every kernel through this module
(``from . import _kernels as K``), so a per-layer tracer can count kernel
calls by rebinding names here without touching the implementation in
``_kernels_py``.
"""

from ._kernels_py import (  # noqa: F401
    poly_add,
    poly_mul,
    poly_neg,
    poly_scalar_mul,
    scalar_add,
    scalar_mul,
    scalar_normalize,
    scalar_rat_mul,
    scalar_sub,
)

BACKEND_NAME = "python"
