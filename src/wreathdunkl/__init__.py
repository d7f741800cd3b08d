"""Exact engine for rotation- and reflection-image Sutherland models.

Wreath-product symmetry groups, commuting Dunkl operators, conserved
charges, physical-state projectors and frozen spin chains, all verified by
exact cyclotomic arithmetic.  Floating point enters only after the exact
work, to diagonalize frozen chains, and on the numeric equidistant lattices
and their scans.
"""

__version__ = "0.1.0"

from .cyclotomic import CycloScalar, CyclotomicField, FieldMismatchError
from .dunkl import ModelParams, build_charge, build_dunkl, build_hamiltonian
from .groups import GroupSpec, WreathElement, enumerate_subgroup, generator, relation_suite
from .opalg import MixedOperator, ad_projector, op_commutator, op_compose
from .polyalg import LaurentPoly, RationalCoefficient
from .spinrep import SpinRepData, build_projector, substitute_spin, verify_agreement
from .static import LatticeConfig, build_frozen_hamiltonian, build_lattice

__all__ = [
    "CycloScalar",
    "CyclotomicField",
    "FieldMismatchError",
    "GroupSpec",
    "LatticeConfig",
    "LaurentPoly",
    "MixedOperator",
    "ModelParams",
    "RationalCoefficient",
    "SpinRepData",
    "WreathElement",
    "__version__",
    "ad_projector",
    "build_charge",
    "build_dunkl",
    "build_frozen_hamiltonian",
    "build_hamiltonian",
    "build_lattice",
    "build_projector",
    "enumerate_subgroup",
    "generator",
    "op_commutator",
    "op_compose",
    "relation_suite",
    "substitute_spin",
    "verify_agreement",
]
