"""Operator algebra: rewrite rules, confluence, projectors, adjoints."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply, random_operator
from wreathdunkl.cyclotomic import CycloScalar
from wreathdunkl.groups import GroupSpec, generator
from wreathdunkl.opalg import (
    MixedOperator,
    ad_projector,
    normalize_is_zero,
    numeric_residual,
    op_commutator,
    op_compose,
    random_test_functions,
)
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient


def _basic_ops(N=2, m=3):
    spec = GroupSpec("W(m,N)", N, m)
    return {
        "D1": MixedOperator.euler(N, 1, order=m, group_order=m),
        "D2": MixedOperator.euler(N, 2, order=m, group_order=m),
        "Q1": MixedOperator.from_group(generator(spec, "Q", i=1), order=m),
        "K1": MixedOperator.from_group(generator(spec, "K", i=1), order=m),
        "q1": MixedOperator.from_coefficient(
            RationalCoefficient.from_poly(LaurentPoly.variable(1, N, m)),
            group_order=m,
        ),
    }


def test_rewrite_rules():
    ops = _basic_ops()
    z3 = CycloScalar.root_of_unity(3)
    # flip anticommutes with the same-site Euler derivative
    assert op_compose(ops["K1"], ops["D1"]) == -op_compose(ops["D1"], ops["K1"])
    # rotation scales the coordinate it passes
    assert op_compose(ops["Q1"], ops["q1"]) == op_compose(
        ops["q1"].scale(z3), ops["Q1"]
    )
    # Euler derivation rule
    assert op_compose(ops["D1"], ops["q1"]) == op_compose(ops["q1"], ops["D1"]) + ops["q1"]
    # coordinate derivations commute; rotation and flip do not (m >= 3)
    assert op_commutator(ops["D1"], ops["D2"]).is_zero()
    assert not op_commutator(ops["Q1"], ops["K1"]).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compose_is_associative_and_confluent(seed):
    rng = random.Random(seed)
    A = random_operator(rng)
    B = random_operator(rng)
    C = random_operator(rng)
    assert op_compose(op_compose(A, B), C) == op_compose(A, op_compose(B, C))


def test_apply_composes():
    rng = random.Random(5)
    for _ in range(75):
        A, B = random_operator(rng), random_operator(rng)
        [f] = random_test_functions(rng, 2, 3, 1)
        assert apply(op_compose(A, B), f) == apply(A, apply(B, f))


def test_ad_projector_properties():
    rng = random.Random(11)
    m = 3
    for _ in range(8):
        A = random_operator(rng)
        # resolution of identity
        total = MixedOperator.zero(2, m, m)
        for r in range(m):
            total = total + ad_projector(1, r, A)
        assert total == A
        # idempotence and orthogonality
        P0 = ad_projector(1, 0, A)
        assert ad_projector(1, 0, P0) == P0
        assert ad_projector(1, 1, P0).is_zero()
        P2 = ad_projector(2, 2, A)
        assert ad_projector(2, 2, P2) == P2


def test_adjoint_is_an_antihomomorphism():
    rng = random.Random(13)
    for _ in range(8):
        A, B = random_operator(rng), random_operator(rng)
        assert op_compose(A, B).adjoint() == op_compose(B.adjoint(), A.adjoint())
        assert A.adjoint().adjoint() == A


def test_zero_report_and_numeric_residual():
    ops = _basic_ops()
    Z = op_commutator(ops["D1"], ops["D2"])
    rep = normalize_is_zero(Z, seed=1)
    assert rep["zero"] and rep["terms"] == 0
    assert rep["numeric_residual"] < 1e-12
    NZ = op_commutator(ops["Q1"], ops["K1"])
    rep = normalize_is_zero(NZ, seed=1)
    assert not rep["zero"]
    assert rep["witness"] is not None
    assert rep["numeric_residual"] > 1e-6


def test_numeric_residual_of_exact_zero_random():
    rng = random.Random(17)
    for s in range(5):
        A = random_operator(rng)
        Z = op_compose(A, A) - op_compose(A, A)
        assert Z.is_zero()
        assert numeric_residual(A - A, seed=s) == 0.0


def test_dimension_mismatch_raises():
    A = MixedOperator.euler(2, 1, order=3, group_order=3)
    B = MixedOperator.euler(3, 1, order=3, group_order=3)
    with pytest.raises(ValueError):
        op_compose(A, B)


def test_operator_json_dump_shape():
    ops = _basic_ops()
    A = op_compose(ops["Q1"], ops["D1"]) + ops["q1"]
    dump = A.to_json()
    assert all(set(t) == {"euler", "group", "matrix"} for t in dump)
    assert all(len(t["matrix"]) == 1 for t in dump)  # spinless: 1x1 blocks


def test_scalar_multiplication():
    ops = _basic_ops()
    A = ops["D1"] + ops["K1"]
    assert A.scale(Fraction(2, 3)) + A.scale(Fraction(1, 3)) == A
    z = CycloScalar.root_of_unity(3)
    assert A.scale(z).scale(z).scale(z) == A
