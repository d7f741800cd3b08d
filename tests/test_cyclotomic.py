"""Exact cyclotomic arithmetic: canonical form, field axioms, embeddings."""

import cmath
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scalar_from_json
from wreathdunkl.cyclotomic import (
    CycloScalar,
    CyclotomicField,
    FieldMismatchError,
    _cyclotomic_poly,
)


def test_standard_cyclotomic_polynomials():
    assert _cyclotomic_poly(1) == (-1, 1)
    assert _cyclotomic_poly(2) == (1, 1)
    assert _cyclotomic_poly(4) == (1, 0, 1)
    assert _cyclotomic_poly(6) == (1, -1, 1)
    assert _cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # phi(n) degrees
    for n, phi in [(1, 1), (4, 2), (8, 4), (9, 6), (24, 8)]:
        assert CyclotomicField.get(n).phi == phi


def test_root_relations():
    z3 = CycloScalar.root_of_unity(3)
    assert z3**3 == 1
    assert 1 + z3 + z3**2 == 0
    z6 = CycloScalar.root_of_unity(6)
    assert z3.lift(6) == z6**2  # compatible-roots convention
    assert hash(z3.lift(6)) == hash(z6**2)


def _rand(rng, n):
    phi = CyclotomicField.get(n).phi
    return CycloScalar(n, [rng.randint(-5, 5) for _ in range(phi)], rng.randint(1, 7))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 24])
def test_field_axioms_random(n):
    rng = random.Random(n)
    for _ in range(60):
        a, b, c = _rand(rng, n), _rand(rng, n), _rand(rng, n)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1
            assert (b / a) * a == b


def test_embedding_commutes_with_arithmetic():
    rng = random.Random(9)
    for _ in range(60):
        a, b = _rand(rng, 6), _rand(rng, 6)
        assert (a * b).lift(24) == a.lift(24) * b.lift(24)
        assert (a + b).lift(24) == a.lift(24) + b.lift(24)
        assert (a - b).lift(12) == a.lift(12) - b.lift(12)


def test_incompatible_orders_raise():
    a = CycloScalar.root_of_unity(4)
    b = CycloScalar.root_of_unity(6)
    with pytest.raises(FieldMismatchError):
        _ = a + b
    # but lifting both to the lcm works
    assert a.lift(12) * b.lift(12) == CycloScalar.root_of_unity(12, 5)


def test_division_by_zero():
    z = CycloScalar.zero(4)
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    with pytest.raises(ZeroDivisionError):
        CycloScalar.one(4) / 0


def test_conjugation():
    z4 = CycloScalar.root_of_unity(4)
    assert z4.conj() == -z4
    rng = random.Random(3)
    for _ in range(40):
        a = _rand(rng, 12)
        assert a.conj().conj() == a
        prod = a * a.conj()
        # a * conj(a) is fixed by conjugation (real)
        assert prod.conj() == prod


def test_to_complex_values():
    z4 = CycloScalar.root_of_unity(4)
    assert abs(z4.to_complex() - 1j) < 1e-15
    half = CycloScalar.rational(Fraction(1, 2))
    assert half.to_complex() == 0.5
    z3 = CycloScalar.root_of_unity(3)
    expected = cmath.exp(2j * cmath.pi / 3)  # independent: cos/sin of the angle
    assert abs(z3.to_complex() - expected) < 1e-12


def test_to_complex_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(1000):
        a, b = _rand(rng, 12), _rand(rng, 12)
        assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-9
        assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9


def test_to_complex_high_precision():
    """Every power of zeta_7, and a sum with a large denominator, is the
    double nearest a 220-bit reference."""
    import mpmath

    z7 = CycloScalar.root_of_unity(7)
    values = [z7**k for k in range(7)] + [(z7 + z7**3 * 5 - 2) / 12345]
    with mpmath.workprec(220):
        z = mpmath.expjpi(mpmath.mpf(2) / 7)
        refs = [z**k for k in range(7)] + [(z + 5 * z**3 - 2) / 12345]
        for v, ref in zip(values, refs):
            assert v.to_complex() == complex(ref)


def test_json_round_trip():
    s = CycloScalar.root_of_unity(6) / 2 - 3
    data = json.loads(json.dumps(s.to_json()))
    assert data["order"] == 6
    assert len(data["coeffs"]) == 2
    assert data["coeffs"] == ["-3", "1/2"]
    assert scalar_from_json(data) == s


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eq_and_hash_against_rationals(data):
    """Comparing a scalar with an int or a Fraction agrees with comparing it
    with the rational scalar of its own field, and so do the hashes."""
    order = data.draw(st.integers(1, 12))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeffs = data.draw(st.lists(small, min_size=1, max_size=CyclotomicField.get(order).phi))
    s = CycloScalar.zero(order)
    for j, c in enumerate(coeffs):
        s = s + CycloScalar.root_of_unity(order, j) * c
    v = data.draw(st.one_of(st.just(coeffs[0]), small, st.integers(-3, 3)))
    if isinstance(v, Fraction) and v.denominator == 1 and data.draw(st.booleans()):
        v = v.numerator
    lifted = CycloScalar.rational(v, order)
    assert (s == v) == (v == s) == (s == lifted)
    if s == v:
        assert hash(s) == hash(v) == hash(lifted)


def test_galois_substitution():
    z5 = CycloScalar.root_of_unity(5)
    assert z5.galois(2) == z5**2
    with pytest.raises(ValueError):
        CycloScalar.root_of_unity(6).galois(2)
