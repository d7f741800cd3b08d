"""Pure-Python arithmetic kernels.

These are the hot inner loops of the whole engine: coefficient vectors of
cyclotomic integers over a common denominator, and sparse Laurent-polynomial
term maps built on top of them.  This is the only implementation; the
engine calls it through ``_kernels``.

Raw scalar convention: a field element is ``(num, den)`` where ``num`` is a
tuple of ``phi(n)`` Python ints (coefficients on the reduced power basis) and
``den`` is a positive int, with ``gcd(*num, den) == 1``.  The zero element is
``((0,)*phi, 1)``.

``red`` is the reduction table of the field: row ``t`` expresses the power
``zeta**(phi+t)`` on the power basis, for ``t`` in ``range(phi-1)``.

``poly_mul`` works on integers until the end: it brings each operand to
one denominator, accumulates for each output exponent the unreduced
integer convolution (length ``2*phi - 1``) of every pair of terms that
lands there, and only then reduces each vector modulo the cyclotomic
polynomial and normalizes it against the product of the two denominators.
A unit coefficient costs one integer multiply per entry, and no pair pays
for a gcd.  A one-term operand skips all that: each term of the other is
multiplied by its scalar, and no product of nonzero scalars vanishes.
"""

from math import gcd
from operator import add


def scalar_normalize(num, den):
    """Canonicalize ``sum(num[j] z^j)/den``: positive denominator, gcd 1."""
    if den == 0:
        raise ZeroDivisionError("zero denominator in cyclotomic scalar")
    g = den
    for v in num:
        g = gcd(g, v)
        if g == 1:
            break
    if den < 0:
        g = -g
    if g != 1:
        num = tuple(v // g for v in num)
        den //= g
    else:
        num = tuple(num)
    if not any(num):
        return num, 1
    return num, den


def scalar_add(na, da, nb, db):
    if da == db:
        return scalar_normalize([x + y for x, y in zip(na, nb)], da)
    return scalar_normalize([x * db + y * da for x, y in zip(na, nb)], da * db)


def scalar_sub(na, da, nb, db):
    if da == db:
        return scalar_normalize([x - y for x, y in zip(na, nb)], da)
    return scalar_normalize([x * db - y * da for x, y in zip(na, nb)], da * db)


def scalar_rat_mul(na, da, p, q):
    """Multiply by the rational p/q."""
    return scalar_normalize([v * p for v in na], da * q)


def scalar_mul(na, da, nb, db, red):
    """Product of two scalars, reduced modulo the cyclotomic polynomial."""
    phi = len(na)
    if phi == 1:
        return scalar_normalize((na[0] * nb[0],), da * db)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(na):
        if x:
            for j, y in enumerate(nb):
                if y:
                    conv[i + j] += x * y
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            row = red[k - phi]
            for j, rj in enumerate(row):
                if rj:
                    conv[j] += c * rj
    return scalar_normalize(conv[:phi], da * db)


def poly_add(ta, tb):
    """Merge two sparse term maps {exponents: raw scalar}."""
    out = dict(ta)
    for e, (nb, db) in tb.items():
        cur = out.get(e)
        if cur is None:
            out[e] = (nb, db)
        else:
            s = scalar_add(cur[0], cur[1], nb, db)
            if any(s[0]):
                out[e] = s
            else:
                del out[e]
    return out


def poly_neg(ta):
    return {e: (tuple(-v for v in n), d) for e, (n, d) in ta.items()}


def poly_scalar_mul(ta, nb, db, red):
    """Multiply every coefficient by one scalar (drops to {} on zero)."""
    if not any(nb):
        return {}
    out = {}
    for e, (na, da) in ta.items():
        s = scalar_mul(na, da, nb, db, red)
        if any(s[0]):
            out[e] = s
    return out


def _over_one_den(terms):
    """The terms as ([(exponents, [(j, coefficient)])], den): every numerator
    brought to the lcm ``den`` of the denominators, zero entries left out."""
    den = 1
    for _, d in terms.values():
        if d != 1:
            den = den * d // gcd(den, d)
    out = []
    for e, (n, d) in terms.items():
        s = den // d
        out.append((e, [(j, v * s) for j, v in enumerate(n) if v]))
    return out, den


def poly_mul(ta, tb, red):
    """Sparse product of two term maps over the same field, accumulated on
    integers over one denominator (see the module docstring)."""
    if not ta or not tb:
        return {}
    if len(ta) > len(tb):
        ta, tb = tb, ta
    if len(ta) == 1:  # a monomial: one scalar product per term
        ((ea, (na, da)),) = ta.items()
        return {
            tuple(map(add, ea, eb)): scalar_mul(na, da, nb, db, red)
            for eb, (nb, db) in tb.items()
        }
    va, da = _over_one_den(ta)
    vb, db = _over_one_den(tb)
    den = da * db
    phi = len(red) + 1  # one row of red per power phi .. 2 phi - 2
    width = 2 * phi - 1
    acc = {}
    for ea, xa in va:
        for eb, xb in vb:
            e = tuple(map(add, ea, eb))
            conv = acc.get(e)
            if conv is None:
                conv = acc[e] = [0] * width
            for i, x in xa:
                for j, y in xb:
                    conv[i + j] += x * y
    out = {}
    for e, conv in acc.items():
        for k in range(phi, width):
            c = conv[k]
            if c:
                for j, rj in enumerate(red[k - phi]):
                    if rj:
                        conv[j] += c * rj
        s = scalar_normalize(conv[:phi], den)
        if any(s[0]):
            out[e] = s
    return out
