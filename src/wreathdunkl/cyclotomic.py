"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A scalar is stored on the power basis ``1, z, ..., z**(phi(n)-1)`` of
Q(zeta_n), reduced modulo the n-th cyclotomic polynomial, with one common
arbitrary-precision integer denominator.  The representation is canonical,
so equality is structural within a field.  All phases and couplings in the
engine (rotation phases, lattice positions, chain couplings) live here.

Every value lives in one field.  Arithmetic and ``==`` take a scalar of the
same order, or an int or Fraction read as a rational of that order; a
scalar of any other order raises ``FieldMismatchError``.  ``lift`` is the
one embedding, called where the code changes field, so a change of field
is always visible at its call site.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath

from . import _kernels as K


class FieldMismatchError(ValueError):
    """Raised when two scalars live in incompatible cyclotomic fields."""


def _int_poly_divexact(num: list[int], div: list[int]) -> list[int]:
    """Exact division of dense integer polynomials (lowest degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(div) + 1)
    lead = div[-1]
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(div) - 1]
        if c % lead:
            raise ArithmeticError("inexact integer polynomial division")
        q = c // lead
        out[k] = q
        if q:
            for j, dj in enumerate(div):
                num[k + j] -= q * dj
    if any(num[: len(div) - 1]):
        raise ArithmeticError("nonzero remainder in exact division")
    return out


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Dense integer coefficients of the n-th cyclotomic polynomial.

    Computed by dividing x**n - 1 by the cyclotomic polynomials of all
    proper divisors, which needs nothing beyond exact integer division.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_divexact(poly, list(_cyclotomic_poly(d)))
    return tuple(poly)


class CyclotomicField:
    """Descriptor for Q(zeta_n): degree and reduction tables.

    ``red`` reduces the powers ``z**phi .. z**(2*phi-2)`` that appear in
    products of reduced elements; ``powers`` gives every ``z**k`` for
    ``k < n`` on the basis, which drives Galois substitution, embeddings
    and root-of-unity construction.
    """

    __slots__ = ("order", "phi", "red", "powers")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("field order must be a positive integer")
        self.order = order
        poly = _cyclotomic_poly(order)
        phi = len(poly) - 1
        self.phi = phi

        rows: list[tuple[int, ...]] = []
        if phi > 1:
            base = [-c for c in poly[:phi]]
            rows.append(tuple(base))
            cur = base
            for _ in range(phi - 2):
                spill = cur[-1]
                nxt = [0] + cur[:-1]
                if spill:
                    for j in range(phi):
                        nxt[j] += spill * base[j]
                cur = nxt
                rows.append(tuple(cur))
        self.red = tuple(rows)

        powers: list[tuple[int, ...]] = []
        if phi == 1:
            z = -poly[0]  # 1 for order 1, -1 for order 2
            powers = [(z**k,) for k in range(order)]
        else:
            base = rows[0]
            cur = [1] + [0] * (phi - 1)
            for _ in range(order):
                powers.append(tuple(cur))
                spill = cur[-1]
                nxt = [0] + cur[:-1]
                if spill:
                    for j in range(phi):
                        nxt[j] += spill * base[j]
                cur = nxt
        self.powers = tuple(powers)

    @staticmethod
    @lru_cache(maxsize=None)
    def get(order: int) -> "CyclotomicField":
        return CyclotomicField(order)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def same_field(order: int, other: int) -> None:
    """``FieldMismatchError`` unless the two orders name one field."""
    if order != other:
        raise FieldMismatchError(f"Q(zeta_{order}) is not Q(zeta_{other}); lift to one field")


def in_field(value, order: int) -> "CycloScalar":
    """value in Q(zeta_order): an int or Fraction as a rational, a scalar
    of that order as is; ``FieldMismatchError`` for any other order."""
    if not isinstance(value, CycloScalar):
        return CycloScalar.rational(value, order)
    same_field(value.order, order)
    return value


class CycloScalar:
    """An element of Q(zeta_n) in canonical reduced form."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num, den: int = 1, _normalized: bool = False):
        self.order = order
        if _normalized:
            self.num = num
            self.den = den
        else:
            self.num, self.den = K.scalar_normalize(tuple(num), den)
        if len(self.num) != CyclotomicField.get(order).phi:
            raise ValueError("coefficient vector has wrong length for the field")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "CycloScalar":
        phi = CyclotomicField.get(order).phi
        return CycloScalar(order, (0,) * phi, 1, _normalized=True)

    @staticmethod
    def one(order: int = 1) -> "CycloScalar":
        return CycloScalar.rational(1, order)

    @staticmethod
    def rational(value, order: int = 1) -> "CycloScalar":
        f = _as_fraction(value)
        phi = CyclotomicField.get(order).phi
        num = (f.numerator,) + (0,) * (phi - 1)
        return CycloScalar(order, num, f.denominator)

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "CycloScalar":
        """zeta_order ** power, reduced to the power basis."""
        field = CyclotomicField.get(order)
        return CycloScalar(order, field.powers[power % order], 1)

    # -- field plumbing ----------------------------------------------------

    @property
    def field(self) -> CyclotomicField:
        return CyclotomicField.get(self.order)

    def lift(self, order: int) -> "CycloScalar":
        """Embed into Q(zeta_order); requires ``self.order | order``."""
        if order == self.order:
            return self
        if order % self.order:
            raise FieldMismatchError(
                f"cannot embed Q(zeta_{self.order}) into Q(zeta_{order})"
            )
        big = CyclotomicField.get(order)
        step = order // self.order
        acc = [0] * big.phi
        for j, c in enumerate(self.num):
            if c:
                row = big.powers[(j * step) % order]
                for t, r in enumerate(row):
                    if r:
                        acc[t] += c * r
        return CycloScalar(order, acc, self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (CycloScalar, int, Fraction)):
            return NotImplemented
        b = in_field(other, self.order)
        n, d = K.scalar_add(self.num, self.den, b.num, b.den)
        return CycloScalar(self.order, n, d, _normalized=True)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (CycloScalar, int, Fraction)):
            return NotImplemented
        b = in_field(other, self.order)
        n, d = K.scalar_sub(self.num, self.den, b.num, b.den)
        return CycloScalar(self.order, n, d, _normalized=True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloScalar(
            self.order, tuple(-v for v in self.num), self.den, _normalized=True
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            n, d = K.scalar_rat_mul(self.num, self.den, f.numerator, f.denominator)
            return CycloScalar(self.order, n, d, _normalized=True)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        b = in_field(other, self.order)
        n, d = K.scalar_mul(self.num, self.den, b.num, b.den, self.field.red)
        return CycloScalar(self.order, n, d, _normalized=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * Fraction(f.denominator, f.numerator)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return self * in_field(other, self.order).inverse()

    def __rtruediv__(self, other):
        return CycloScalar.rational(other, self.order) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloScalar.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CycloScalar":
        """Multiplicative inverse by the Galois norm.

        The norm N(x), the product of the conjugates sigma_t(x) over t in
        (Z/n)^x, is a nonzero rational for x != 0, so x^-1 is the product
        of the conjugates with t != 1, divided by N(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        if field.phi == 1:
            return CycloScalar.rational(Fraction(self.den, self.num[0]), self.order)
        num, den = (1,) + (0,) * (field.phi - 1), 1
        for t in range(2, self.order):
            if gcd(t, self.order) == 1:
                g = self.galois(t)
                num, den = K.scalar_mul(num, den, g.num, g.den, field.red)
        norm, norm_den = K.scalar_mul(num, den, self.num, self.den, field.red)
        if any(norm[1:]):
            raise ArithmeticError("Galois norm is not rational")
        num, den = K.scalar_rat_mul(num, den, norm_den, norm[0])
        return CycloScalar(self.order, num, den, _normalized=True)

    def conj(self) -> "CycloScalar":
        """Complex conjugation, zeta -> zeta**(n-1)."""
        return self.galois(self.order - 1) if self.order > 1 else self

    def galois(self, t: int) -> "CycloScalar":
        """The automorphism zeta -> zeta**t; t must be coprime to the order."""
        n = self.order
        if n == 1:
            return self
        if gcd(t % n, n) != 1:
            raise ValueError(f"zeta -> zeta^{t} is not a field automorphism")
        field = self.field
        acc = [0] * field.phi
        for j, c in enumerate(self.num):
            if c:
                row = field.powers[(j * t) % n]
                for k, r in enumerate(row):
                    if r:
                        acc[k] += c * r
        return CycloScalar(n, acc, self.den)

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_complex(self) -> complex:
        """Numeric value, summed with 73 bits of working precision."""
        with mpmath.workprec(73):
            z = mpmath.expjpi(mpmath.mpf(2) / self.order)
            acc = mpmath.mpc(0)
            p = mpmath.mpc(1)
            for c in self.num:
                if c:
                    acc += c * p
                p *= z
            return complex(acc / self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.num[0], self.den) == other
        if not isinstance(other, CycloScalar):
            return NotImplemented
        b = in_field(other, self.order)
        return self.num == b.num and self.den == b.den

    def __hash__(self):
        # a rational equals its int or Fraction, so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_rational():
            return str(Fraction(self.num[0], self.den))
        sym = f"z{self.order}"
        parts = []
        for j, c in enumerate(self.num):
            if not c:
                continue
            mono = "1" if j == 0 else (sym if j == 1 else f"{sym}^{j}")
            q = Fraction(c, self.den)
            if j == 0:
                parts.append(str(q))
            elif q == 1:
                parts.append(mono)
            elif q == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{q}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [str(Fraction(c, self.den)) for c in self.num],
        }
