"""Operator algebra: rewrite rules, confluence, projectors, float cross-checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply, numeric_residual, random_operator, random_test_functions
from wreathdunkl.cyclotomic import CycloScalar, FieldMismatchError
from wreathdunkl.dunkl import ModelParams
from wreathdunkl.groups import GroupSpec, generator
from wreathdunkl.opalg import (
    MixedOperator,
    ad_projector,
    first_term_witness,
    op_commutator,
    op_compose,
)
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient
from wreathdunkl.spinrep import SpinRepData, projector_check, verify_agreement


def _basic_ops(N=2, m=3):
    spec = GroupSpec("W(m,N)", N, m)
    return {
        "D1": MixedOperator.euler(N, 1, m),
        "D2": MixedOperator.euler(N, 2, m),
        "Q1": MixedOperator.from_group(generator(spec, "Q", i=1)),
        "K1": MixedOperator.from_group(generator(spec, "K", i=1)),
        "q1": MixedOperator.from_coefficient(
            RationalCoefficient.from_poly(LaurentPoly.variable(1, N, m)), m
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
        total = MixedOperator.zero(2, m)
        for r in range(m):
            total = total + ad_projector(1, r, A)
        assert total == A
        # idempotence and orthogonality
        P0 = ad_projector(1, 0, A)
        assert ad_projector(1, 0, P0) == P0
        assert ad_projector(1, 1, P0).is_zero()
        P2 = ad_projector(2, 2, A)
        assert ad_projector(2, 2, P2) == P2


def test_zero_report_and_numeric_residual():
    """The exact zero test, its witness, and the float residual agree on a
    vanishing and a nonvanishing commutator."""
    ops = _basic_ops()
    Z = op_commutator(ops["D1"], ops["D2"])
    assert Z.is_zero() and not Z.terms and first_term_witness(Z) is None
    assert numeric_residual(Z, seed=1) < 1e-12
    NZ = op_commutator(ops["Q1"], ops["K1"])
    assert not NZ.is_zero()
    assert first_term_witness(NZ) is not None
    assert numeric_residual(NZ, seed=1) > 1e-6


def test_numeric_residual_of_exact_zero_random():
    rng = random.Random(17)
    for s in range(5):
        A = random_operator(rng)
        Z = op_compose(A, A) - op_compose(A, A)
        assert Z.is_zero()
        assert numeric_residual(A - A, seed=s) == 0.0


def test_dimension_mismatch_raises():
    A = MixedOperator.euler(2, 1, 3)
    B = MixedOperator.euler(3, 1, 3)
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


def test_foreign_order_coefficients_raise():
    """An operator of order m takes coefficients and scalars over Q(zeta_m)
    itself, and ints and Fractions; a coefficient or scalar over any other
    field, a subfield included, or an operator of another order, raises
    instead of being lifted."""
    ops = _basic_ops()
    i = CycloScalar.root_of_unity(4)
    K1 = generator(GroupSpec("W(m,N)", 2, 3), "K", i=1)
    with pytest.raises(FieldMismatchError):
        ops["D1"].scale(i)
    with pytest.raises(FieldMismatchError):
        MixedOperator.term(RationalCoefficient.from_scalar(2, i, 4), K1)
    with pytest.raises(FieldMismatchError):
        ops["D1"] + MixedOperator.euler(2, 1, 1)
    with pytest.raises(FieldMismatchError):
        MixedOperator.term(RationalCoefficient.from_scalar(2, Fraction(1, 2)), K1)
    with pytest.raises(FieldMismatchError):
        ops["K1"].scale(CycloScalar.rational(2, 1))
    half = RationalCoefficient.from_scalar(2, Fraction(1, 2), 3)
    assert MixedOperator.term(half, K1).scale(CycloScalar.rational(2, 3)) == ops["K1"]
    assert MixedOperator.term(half, K1).scale(2) == ops["K1"]


def _over(kind, order):
    """A value of each arithmetic type over Q(zeta_order), not rational."""
    z = CycloScalar.root_of_unity(order)
    if kind == "scalar":
        return z + 1
    q1 = LaurentPoly.variable(1, 2, order)
    p = q1 * z + 1
    if kind == "poly":
        return p
    c = RationalCoefficient.ratio(p, q1 - 1)
    if kind == "coefficient":
        return c
    K1 = generator(GroupSpec("W(m,N)", 2, order), "K", i=1)
    return MixedOperator.term(c, K1) + MixedOperator.euler(2, 1, order)


ARITHMETIC = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "==": lambda x, y: x == y,
}


@pytest.mark.parametrize("kind", ["scalar", "poly", "coefficient", "operator"])
def test_foreign_orders_raise(kind):
    """Arithmetic and == take a value of their own field, or an int or a
    Fraction read as a rational of it.  A value over another field raises
    on either side, a subfield (order 3 in 6) as well as a field that
    shares none (order 4); so does a scalar of another order."""
    home = _over(kind, 6)
    for name, op in ARITHMETIC.items():
        for order in (3, 4):
            for other in (_over(kind, order), CycloScalar.root_of_unity(order)):
                with pytest.raises(FieldMismatchError):
                    op(home, other)
                with pytest.raises(FieldMismatchError):
                    op(other, home)
        for v in (2, Fraction(-1, 3)):
            as_scalar = CycloScalar.rational(v, 6)
            assert op(home, v) == op(home, as_scalar)
            assert op(v, home) == op(as_scalar, home)


def test_operators_equal_numbers_as_multiples_of_the_identity():
    """== reads a number as a multiple of the identity, as + and - do."""
    ident = MixedOperator.identity(2, 3)
    assert ident == 1 and 1 == ident and not ident != 1
    assert ident * Fraction(1, 2) == Fraction(1, 2)
    assert ident * CycloScalar.root_of_unity(3) == CycloScalar.root_of_unity(3)
    assert ident != 2 and MixedOperator.zero(2, 3) == 0
    assert MixedOperator.euler(2, 1, 3) != 0 and ident != "1"
    with pytest.raises(FieldMismatchError):
        _ = ident == CycloScalar.one(6)


def test_fields_change_only_by_lift():
    """A rotation acts only on a field holding its phases, a coefficient's
    factors share its numerator's field, the spin checks need the model's
    order to be the representation's, and equal irrational scalars hash
    alike."""
    q1 = LaurentPoly.variable(1, 2, 6)
    with pytest.raises(FieldMismatchError):
        q1.act(generator(GroupSpec("G(m,1,N)", 2, 4), "Q", i=1))
    Q1 = generator(GroupSpec("G(m,1,N)", 2, 3), "Q", i=1)
    assert q1.act(Q1) == q1 * CycloScalar.root_of_unity(6, 2)
    with pytest.raises(FieldMismatchError):
        RationalCoefficient(q1, ((LaurentPoly.variable(2, 2, 3) - 1, 1),))
    with pytest.raises(FieldMismatchError):
        RationalCoefficient(LaurentPoly.variable(1, 2, 3), ((q1 - 1, 1),))
    params = ModelParams("cyclic", 2, 6)
    for check in (projector_check, lambda p, rep: verify_agreement(p, rep, 1)):
        with pytest.raises(ValueError):
            check(params, SpinRepData(2, 3, 2))
        assert check(params, SpinRepData(2, 6, 2)).passed
    z = CycloScalar.root_of_unity(12, 5)
    built = (CycloScalar.root_of_unity(12, 2) + 1) * z - CycloScalar.root_of_unity(12, 7)
    assert built == z and hash(built) == hash(z)
    assert z.lift(24) ** 2 == CycloScalar.root_of_unity(24, 20)
    assert hash(z.lift(24) ** 2) == hash(CycloScalar.root_of_unity(24, 20))
