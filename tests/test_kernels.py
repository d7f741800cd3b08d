"""The arithmetic kernels against an independent exact reference.

The reference works on Fraction coefficient vectors and reduces products by
long division modulo the cyclotomic polynomial itself, not through the
field's ``red`` tables that the kernels use.
"""

import random
from fractions import Fraction
from math import gcd

from wreathdunkl import _kernels
from wreathdunkl.cyclotomic import CyclotomicField, _cyclotomic_poly


def _rand_scalar(rng, phi):
    num = tuple(rng.randint(-20, 20) for _ in range(phi))
    den = rng.randint(1, 12)
    return _kernels.scalar_normalize(num, den)


def _value(raw):
    num, den = raw
    return [Fraction(v, den) for v in num]


def _raw(vec):
    """Canonical (num, den) of a Fraction vector: the least common
    denominator, so gcd(num, den) = 1 and zero has den 1."""
    den = 1
    for c in vec:
        den = den * c.denominator // gcd(den, c.denominator)
    return tuple(int(c * den) for c in vec), den


def _reduce(vec, order):
    """A dense polynomial modulo the monic order-th cyclotomic polynomial."""
    poly = _cyclotomic_poly(order)
    phi = len(poly) - 1
    vec = list(vec) + [Fraction(0)] * max(0, phi - len(vec))
    for k in range(len(vec) - 1, phi - 1, -1):
        lead = vec[k]
        if lead:
            for j, pj in enumerate(poly):
                vec[k - phi + j] -= lead * pj
    return vec[:phi]


def _mul(a, b, order):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _reduce(conv, order)


def test_backend_is_reported():
    assert _kernels.BACKEND_NAME == "python"


def test_scalar_ops_match_pure_python():
    rng = random.Random(0)
    for order in (1, 2, 3, 4, 6, 8, 12, 24):
        field = CyclotomicField.get(order)
        for _ in range(200):
            a, da = _rand_scalar(rng, field.phi)
            b, db = _rand_scalar(rng, field.phi)
            x, y = _value((a, da)), _value((b, db))
            assert _kernels.scalar_add(a, da, b, db) == _raw([u + v for u, v in zip(x, y)])
            assert _kernels.scalar_sub(a, da, b, db) == _raw([u - v for u, v in zip(x, y)])
            assert _kernels.scalar_mul(a, da, b, db, field.red) == _raw(_mul(x, y, order))
            assert _kernels.scalar_rat_mul(a, da, 7, 3) == _raw([u * Fraction(7, 3) for u in x])


def _rand_poly(rng, nvars, phi, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-3, 3) for _ in range(nvars))
        v = _rand_scalar(rng, phi)
        if any(v[0]):
            terms[e] = v
    return terms


def _poly_raw(acc):
    """Term map of Fraction vectors to raw scalars, zeros dropped."""
    return {e: _raw(v) for e, v in acc.items() if any(v)}


def _poly_add(ta, tb):
    acc = {e: _value(v) for e, v in ta.items()}
    for e, v in tb.items():
        acc[e] = [u + w for u, w in zip(acc[e], _value(v))] if e in acc else _value(v)
    return _poly_raw(acc)


def _poly_mul(ta, tb, order):
    acc = {}
    for ea, va in ta.items():
        for eb, vb in tb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prod = _mul(_value(va), _value(vb), order)
            acc[e] = [u + w for u, w in zip(acc[e], prod)] if e in acc else prod
    return _poly_raw(acc)


def _cancelling_pair(order, field, nvars):
    """Two term maps and an exponent whose coefficient in their product
    cancels to zero.  For m > 1, sum_a tau**a q1**a times sum_b q1**-b q2
    puts 1 + tau + ... + tau**(m-1) = 0 on q2; at m = 1,
    (1 + q1/3)(1 - q1/3) has no q1 term."""
    if order > 1:
        ta = {(a,) + (0,) * (nvars - 1): (field.powers[a], 1) for a in range(order)}
        tb = {(-b, 1) + (0,) * (nvars - 2): (field.powers[0], 1) for b in range(order)}
        return ta, tb, (0, 1) + (0,) * (nvars - 2)
    one = (field.powers[0], 1)
    minus = ((-1,), 3)
    ta = {(0,) * nvars: one, (1,) + (0,) * (nvars - 1): ((1,), 3)}
    tb = {(0,) * nvars: one, (1,) + (0,) * (nvars - 1): minus}
    return ta, tb, (1,) + (0,) * (nvars - 1)


def test_poly_ops_match_pure_python():
    rng = random.Random(1)
    for order in (1, 3, 4, 5, 6, 8):
        field = CyclotomicField.get(order)
        for nvars in (2, 3):
            for trial in range(80):
                # one-term operands on every fourth trial
                size = 1 if trial % 4 == 0 else 6
                ta = _rand_poly(rng, nvars, field.phi, max_terms=size)
                tb = _rand_poly(rng, nvars, field.phi)
                assert _kernels.poly_add(ta, tb) == _poly_add(ta, tb)
                assert _kernels.poly_neg(ta) == _poly_raw(
                    {e: [-u for u in _value(v)] for e, v in ta.items()}
                )
                assert _kernels.poly_mul(ta, tb, field.red) == _poly_mul(ta, tb, order)
                assert _kernels.poly_mul(tb, ta, field.red) == _poly_mul(ta, tb, order)
                c, dc = _rand_scalar(rng, field.phi)
                assert _kernels.poly_scalar_mul(ta, c, dc, field.red) == _poly_raw(
                    {e: _mul(_value(v), _value((c, dc)), order) for e, v in ta.items()}
                )
            ta, tb, cancelled = _cancelling_pair(order, field, nvars)
            got = _kernels.poly_mul(ta, tb, field.red)
            assert got == _poly_mul(ta, tb, order)
            assert got and cancelled not in got


def test_normalization_invariants():
    rng = random.Random(2)
    for _ in range(300):
        num = [rng.randint(-30, 30) for _ in range(4)]
        den = rng.randint(-15, 15) or 1
        n, d = _kernels.scalar_normalize(tuple(num), den)
        assert d > 0
        g = d
        for v in n:
            g = gcd(g, v)
        assert g == 1 or not any(n)
        if not any(n):
            assert d == 1
