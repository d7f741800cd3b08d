"""Sparse Laurent polynomials and rational functions over Q(zeta_n).

Each value is over one field, Q(zeta_order).  Arithmetic and ``==`` take
values of that order, and ints, Fractions and scalars read in it; any other
order raises ``FieldMismatchError``, a subfield's included.  So do a group
element whose rotations leave the field and a denominator factor over
another field.  ``LaurentPoly.lift`` is the one embedding.

``LaurentPoly`` maps integer exponent vectors (negative entries allowed) to
nonzero field scalars; the representation is canonical so equality is
structural.  ``RationalCoefficient`` is a quotient ``num / prod f_i**k_i``
whose denominator is kept as a multiset of unit-normalized factors: every
factor has nonnegative exponents, no monomial content, and leading
coefficient 1 in lexicographic order, with the stripped unit absorbed into
the numerator.  Keeping denominators factored means the common denominator
of a long sum is a factor-wise max instead of a product, which is what makes
exact normal-ordering of operator sums affordable.  No polynomial gcd is
ever computed: cancellation asks ``divide_exact`` whether each denominator
factor divides the numerator, and equality is decided by cross-multiplication.

Every denominator factor is a binomial: q_i - tau q_j, q_i q_j - tau and
1 +- tau q_i, with q_i**2 - tau and q_i**m - tau q_j**m among the rest.  A
binomial is f = c_x q**x (1 - s q**mu), with mu holding -d at one variable
q_v, and reads as the rule w = s for the monomial w = q**(-mu).  Every
Laurent polynomial is p = sum_r q**r P_r(w), where the entry of r at v lies
in [0, d), and f divides p exactly when every P_r vanishes at s.
``divide_exact`` makes one pass: it groups the terms of p by r, returns
None at once when a group holds a single term, divides each P_r by w - s
synthetically and returns None at the first nonzero remainder; the quotient
is built only when every group divides.  It refuses any other divisor, and
since the constructor trial-divides every factor listed under a nonzero
numerator, so does ``RationalCoefficient``.

Every coefficient is kept reduced: no listed factor divides the numerator.
Cancellation skips the trial divisions that provably fail on reduced
operands.  ``act`` is a ring automorphism, which keeps a quotient reduced
and distinct normalized factors distinct, so it never trial-divides.  No
binomial divides a one-term numerator, a unit.  ``__add__`` keeps without
a test each factor whose multiplicities in the two operands differ and
which is coprime to every other factor of the common denominator: two
distinct d = 1 binomials (primes), two binomials whose exponent
directions are not parallel, or parallel ones without a common root
(``_coprime``; the proof is in ``__add__``).

The group acts by substitution: a permutation relabels variables, a
rotation scales ``q_i`` by the phase ``tau``, a flip inverts ``q_i``.
Euler derivatives ``D_i = q_i d/dq_i`` act monomial-wise.

Inside a ``result_table()`` scope, ``act``, ``euler``, and ``+`` and ``*``
of two coefficients compute each result once: a repeat of an operation on
the same operand values returns the stored result, the very object the
first call built.  Operands are keyed by exact value (nvars, order, the
numerator's sorted terms, each denominator factor's sorted terms with its
multiplicity), never by a digest; each key is interned to a small integer
per scope and cached on the coefficient, and an operation is keyed by the
method with its operands' integers, or with the group element or variable
index.  Operands with more than 8 numerator terms or 2 denominator factors
stay out, since the table holds every result until the scope closes.  The
table also keeps two facts about denominator factors, keyed by the factor's
order and value: the unit-normalized image of a factor under a group
element, with the unit monomial it moves into the numerator, and each
power f**k that a common denominator needs.  So ``act`` of any coefficient
costs one numerator substitution and one monomial product, and the lcm
expansion of ``__add__`` multiplies by stored powers.  Outside a scope
every operation and fact is computed afresh.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import wraps
from itertools import combinations, count
from math import gcd

from . import _kernels as K
from .cyclotomic import CycloScalar, CyclotomicField, FieldMismatchError, in_field, same_field
from .groups import WreathElement


def _times(a, b, red):
    """Product of raw scalars where None stands for 1."""
    if a is None:
        return b
    if b is None:
        return a
    return K.scalar_mul(a[0], a[1], b[0], b[1], red)


class _BinomialRule:
    """A binomial f = c_x q**x (1 - s q**mu) read as the rule q**(-mu) = s.

    ``mu`` holds -d at position v, where x holds d.  With w = q**(-mu),
    every monomial is q**e = q**r w**a for a = e[v] // d and r = e + a*mu,
    whose entry at v lies in [0, d); so a Laurent polynomial is
    p = sum_r q**r P_r(w).  Since f = c_x q**(x + mu) (w - s), and
    multiplying by w keeps every r, f divides p exactly when every P_r
    vanishes at s.  Scalars are raw, with None standing for 1.
    """

    __slots__ = ("v", "d", "mu", "x", "s", "red", "_s", "_inv_cx")

    def __init__(self, v: int, d: int, x: tuple, mu: tuple, s: CycloScalar,
                 inv_cx: CycloScalar):
        self.v = v
        self.d = d
        self.x = x
        self.mu = mu
        self.s = s
        self.red = s.field.red
        self._s = None if s == 1 else (s.num, s.den)
        self._inv_cx = None if inv_cx == 1 else (inv_cx.num, inv_cx.den)

    def quotient(self, terms: dict):
        """The terms of p/f for the polynomial p with these terms, or None
        when f does not divide p.

        Terms are grouped by r.  A group of one term cannot vanish at s, so
        the exponents alone settle most rejections; with more groups than
        half the terms one of them holds a single term.  Each P_r is divided
        by w - s synthetically, from its highest power of w down, and the
        first nonzero remainder P_r(s) rejects.  Only when every group
        divides are the quotient terms built: the coefficient b of w**(k-1)
        in P_r/(w - s) becomes b/c_x at q**(r - x - k*mu).
        """
        v, d, mu = self.v, self.d, self.mu
        groups: dict = {}
        half = len(terms) // 2
        for e, raw in terms.items():
            a = e[v] // d
            if a:
                e = tuple(x + a * y for x, y in zip(e, mu))
            group = groups.get(e)
            if group is not None:
                group.append((a, raw))
            elif len(groups) == half:
                return None
            else:
                groups[e] = [(a, raw)]
        if any(len(group) == 1 for group in groups.values()):
            return None
        s, red = self._s, self.red
        divided = []
        for r, group in groups.items():
            group.sort(reverse=True)  # the powers a in a group are distinct
            k, b = group[0]
            out = []  # (k, b): b is the coefficient of w**(k - 1)
            for a, raw in group[1:]:
                while k > a:
                    out.append((k, b))
                    b = _times(s, b, red)
                    k -= 1
                b = K.scalar_add(b[0], b[1], raw[0], raw[1])
            if any(b[0]):
                return None
            divided.append((r, out))
        x, inv = self.x, self._inv_cx
        quo = {}
        for r, out in divided:
            for k, b in out:
                if any(b[0]):
                    e = tuple(ri - xi - k * mi for ri, xi, mi in zip(r, x, mu))
                    quo[e] = _times(b, inv, red)
        return quo


_UNSET = object()


class LaurentPoly:
    __slots__ = ("nvars", "order", "terms", "_key", "_hash", "_rule")

    def __init__(self, nvars: int, order: int, terms: dict):
        """``terms`` maps exponent tuples to nonzero raw scalars (num, den)
        of Q(zeta_order) in normal form; it is taken as is."""
        self.nvars = nvars
        self.order = order
        self.terms = terms
        self._key = None
        self._hash = None
        self._rule = _UNSET

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int, order: int = 1) -> "LaurentPoly":
        return LaurentPoly(nvars, order, {})

    @staticmethod
    def constant(nvars: int, value, order: int = 1) -> "LaurentPoly":
        s = in_field(value, order)
        if s.is_zero():
            return LaurentPoly.zero(nvars, s.order)
        return LaurentPoly(nvars, s.order, {(0,) * nvars: (s.num, s.den)})

    @staticmethod
    def variable(var: int, nvars: int, order: int = 1, power: int = 1) -> "LaurentPoly":
        """The monomial q_var**power; ``var`` is 1-based."""
        if not 1 <= var <= nvars:
            raise ValueError(f"variable index {var} out of range")
        e = [0] * nvars
        e[var - 1] = power
        one = CycloScalar.one(order)
        return LaurentPoly(nvars, order, {tuple(e): (one.num, one.den)})

    @staticmethod
    def monomial(nvars: int, exps, coeff, order: int = 1) -> "LaurentPoly":
        s = in_field(coeff, order)
        if s.is_zero():
            return LaurentPoly.zero(nvars, s.order)
        return LaurentPoly(nvars, s.order, {tuple(exps): (s.num, s.den)})

    # -- plumbing ----------------------------------------------------------

    def lift(self, order: int) -> "LaurentPoly":
        if order == self.order:
            return self
        if order % self.order:
            raise FieldMismatchError(
                f"cannot lift poly from order {self.order} to {order}"
            )
        out = {}
        for e, (n, d) in self.terms.items():
            s = CycloScalar(self.order, n, d, _normalized=True).lift(order)
            out[e] = (s.num, s.den)
        return LaurentPoly(self.nvars, order, out)

    def _match(self, other: "LaurentPoly") -> "LaurentPoly":
        """other, checked to share this poly's variables and field."""
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different numbers of variables")
        same_field(self.order, other.order)
        return other

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = LaurentPoly.constant(self.nvars, other, self.order)
        b = self._match(other)
        return LaurentPoly(self.nvars, self.order, K.poly_add(self.terms, b.terms))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = LaurentPoly.constant(self.nvars, other, self.order)
        b = self._match(other)
        return LaurentPoly(self.nvars, self.order, K.poly_add(self.terms, K.poly_neg(b.terms)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPoly(self.nvars, self.order, K.poly_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            out = {}
            for e, (n, d) in self.terms.items():
                raw = K.scalar_rat_mul(n, d, f.numerator, f.denominator)
                if any(raw[0]):
                    out[e] = raw
            return LaurentPoly(self.nvars, self.order, out)
        red = CyclotomicField.get(self.order).red
        if isinstance(other, CycloScalar):
            other = in_field(other, self.order)
            out = K.poly_scalar_mul(self.terms, other.num, other.den, red)
            return LaurentPoly(self.nvars, self.order, out)
        b = self._match(other)
        return LaurentPoly(self.nvars, self.order, K.poly_mul(self.terms, b.terms, red))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return LaurentPoly.constant(self.nvars, 1, self.order) if out is None else out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = LaurentPoly.constant(self.nvars, other, self.order)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == self._match(other).terms

    def __hash__(self):
        # equal polys share their field, so the exponents alone may key them;
        # a constant hashes like the scalar it equals
        if self._hash is None:
            if self.is_constant():
                self._hash = hash(self.coeff((0,) * self.nvars))
            else:
                self._hash = hash((self.nvars, frozenset(self.terms)))
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.nvars}

    def coeff(self, exps) -> CycloScalar:
        raw = self.terms.get(tuple(exps))
        if raw is None:
            return CycloScalar.zero(self.order)
        return CycloScalar(self.order, raw[0], raw[1], _normalized=True)

    def items(self):
        for e, (n, d) in sorted(self.terms.items()):
            yield e, CycloScalar(self.order, n, d, _normalized=True)

    # -- calculus and group action ------------------------------------------

    def euler(self, var: int) -> "LaurentPoly":
        """Apply D_var = q_var d/dq_var (1-based index)."""
        i = var - 1
        out = {}
        for e, (n, d) in self.terms.items():
            a = e[i]
            if a:
                out[e] = K.scalar_rat_mul(n, d, a, 1)
        return LaurentPoly(self.nvars, self.order, out)

    def act(self, g: WreathElement) -> "LaurentPoly":
        """Substitution action of a wreath element on the variables; its
        rotation order must divide the field's order."""
        if g.size != self.nvars:
            raise ValueError("group element size does not match variable count")
        order = self.order
        if order % g.order:
            raise FieldMismatchError(
                f"rotations by {g.order}-th roots of unity leave Q(zeta_{order})"
            )
        if g.is_identity():
            return self
        field = CyclotomicField.get(order)
        step = order // g.order
        out = {}
        for e, raw in self.terms.items():
            new_e, t = g.act_on_exponents(e)
            if t:
                row = field.powers[(t * step) % order]
                raw = K.scalar_mul(raw[0], raw[1], row, 1, field.red)
            out[new_e] = raw
        return LaurentPoly(self.nvars, order, out)

    # -- normalization and division -----------------------------------------

    def min_exps(self) -> tuple[int, ...]:
        its = iter(self.terms)
        first = next(its)
        lo = list(first)
        for e in its:
            for i, x in enumerate(e):
                if x < lo[i]:
                    lo[i] = x
        return tuple(lo)

    def shifted(self, delta) -> "LaurentPoly":
        out = {
            tuple(x + dx for x, dx in zip(e, delta)): v for e, v in self.terms.items()
        }
        return LaurentPoly(self.nvars, self.order, out)

    def unit_normalize(self):
        """Write unit * self = q**shift * monic and return all three.

        ``monic`` has nonnegative exponents with zero monomial content and
        leading (lex-max) coefficient 1; ``unit`` is the inverse of self's
        leading coefficient.
        """
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        shift = self.min_exps()
        p = self.shifted(tuple(-x for x in shift)) if any(shift) else self
        lead = max(p.terms)
        n, d = p.terms[lead]
        c = CycloScalar(self.order, n, d, _normalized=True)
        if c == 1:
            return c, shift, p
        unit = c.inverse()
        return unit, shift, p * unit

    def binomial_rule(self):
        """The ``_BinomialRule`` of self, or None when self is no binomial
        with nonnegative exponents and zero monomial content.

        Writing self = cx q**x + cy q**y, where x holds q_v**d, y is free
        of q_v and d is the smallest nonzero exponent gap, self is
        cx q**x (1 - s q**(y - x)) with s = -cy/cx.  Cached on the
        polynomial.
        """
        if self._rule is not _UNSET:
            return self._rule
        rule = None
        if len(self.terms) == 2:
            (x, cx), (y, cy) = self.terms.items()
            if all(a >= 0 and b >= 0 and not (a and b) for a, b in zip(x, y)):
                d, v = min((a + b, i) for i, (a, b) in enumerate(zip(x, y)) if a + b)
                if y[v]:
                    (x, cx), (y, cy) = (y, cy), (x, cx)
                lead = CycloScalar(self.order, cx[0], cx[1], _normalized=True)
                inv = lead if lead == 1 else lead.inverse()
                s = -CycloScalar(self.order, cy[0], cy[1], _normalized=True) * inv
                rule = _BinomialRule(v, d, x, tuple(b - a for a, b in zip(x, y)), s, inv)
        self._rule = rule
        return rule

    def divide_exact(self, f: "LaurentPoly"):
        """Exact quotient self/f, or None when f does not divide self.

        ``f`` must be a binomial with nonnegative exponents and no monomial
        content, the only shape of denominator factor; any other divisor
        raises ValueError.  self may be Laurent.  One pass of f's
        ``binomial_rule`` decides divisibility and builds the quotient.
        """
        quo = _binomial_rule(self._match(f)).quotient(self.terms)
        return None if quo is None else LaurentPoly(self.nvars, self.order, quo)

    # -- io -------------------------------------------------------------------

    def to_json(self) -> list:
        out = []
        for e, s in self.items():
            out.append({"exp": list(e), "coeff": s.to_json()})
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, s in self.items():
            mono = "*".join(
                f"q{i+1}" if a == 1 else f"q{i+1}^{a}" for i, a in enumerate(e) if a
            )
            if not mono:
                parts.append(f"({s!r})")
            else:
                parts.append(f"({s!r})*{mono}" if s != 1 else mono)
        return " + ".join(parts)


# -- the result table --------------------------------------------------------

# Operands larger than this stay out of the table, which holds every result
# until its scope closes.
_TABLE_NUM_TERMS = 8
_TABLE_DEN_FACTORS = 2


class _ResultTable:
    """Results of coefficient operations made inside one ``result_table``
    scope, keyed by the operation and its operands' interned value ids, and
    two facts about denominator factors, keyed by the factor's order and
    value: each factor's normalized image under a group element
    (``_factor_image``) and its powers (``_power``)."""

    __slots__ = ("serial", "ids", "results", "images", "powers")

    def __init__(self, serial: int):
        self.serial = serial
        self.ids: dict = {}  # exact value key -> small int
        self.results: dict = {}  # (operation, id, id or argument) -> result
        self.images: dict = {}  # (order, factor, element) -> _factor_image
        self.powers: dict = {}  # (order, factor, k) -> factor**k

    def ident(self, c: "RationalCoefficient") -> int:
        """c's interned id in this table, cached on c; -1 when c is too
        large to enter it."""
        memo = c._memo
        if memo is not None and memo[0] == self.serial:
            return memo[1]
        num = c.num
        if len(num.terms) > _TABLE_NUM_TERMS or len(c.den) > _TABLE_DEN_FACTORS:
            ident = -1
        else:
            key = (num.nvars, num.order, num.key(),
                   tuple((f.key(), k) for f, k in c.den))
            ident = self.ids.setdefault(key, len(self.ids))
        c._memo = (self.serial, ident)
        return ident


_SERIALS = count()
_LIVE = [None]  # the table of the innermost open scope, or None


@contextmanager
def result_table():
    """A scope in which ``act``, ``euler``, and ``+`` and ``*`` of two
    coefficients each compute a result once per operand values, and each
    denominator factor's normalized image under a group element and each
    of its powers are computed once; the table is dropped when the scope
    exits, normally or by an exception."""
    outer = _LIVE[0]
    _LIVE[0] = _ResultTable(next(_SERIALS))
    try:
        yield
    finally:
        _LIVE[0] = outer


def _remembered(pair: bool):
    """Serve ``op(self, arg)`` from the live table.  With ``pair`` the
    operation is keyed only when ``arg`` is a coefficient, by both ids;
    otherwise ``arg`` (a group element or a variable index) is keyed as is."""

    def decorate(op):
        @wraps(op)
        def remembered(self, arg):
            table = _LIVE[0]
            if table is None or pair and not isinstance(arg, RationalCoefficient):
                return op(self, arg)
            a = table.ident(self)
            b = table.ident(arg) if pair else 0
            if a < 0 or b < 0:
                return op(self, arg)
            key = (op, a, b if pair else arg)
            out = table.results.get(key)
            if out is None:
                out = table.results[key] = op(self, arg)
            return out

        return remembered

    return decorate


def _factor_image(f: LaurentPoly, g: WreathElement):
    """(monic, exps, unit) with 1/g(f) = unit q**exps / monic: the image of
    a denominator factor, unit-normalized.  ``unit`` is raw, None for 1.
    Stored in the live table."""
    table = _LIVE[0]
    key = (f.order, f, g)
    if table is not None:
        out = table.images.get(key)
        if out is not None:
            return out
    unit, shift, monic = f.act(g).unit_normalize()
    out = (monic, tuple(-x for x in shift), None if unit == 1 else (unit.num, unit.den))
    if table is not None:
        table.images[key] = out
    return out


def _power(f: LaurentPoly, k: int) -> LaurentPoly:
    """f**k, stored in the live table."""
    table = _LIVE[0]
    if k == 1 or table is None:
        return f**k
    key = (f.order, f, k)
    out = table.powers.get(key)
    if out is None:
        out = table.powers[key] = f**k
    return out


class RationalCoefficient:
    """Quotient of Laurent polynomials with a factored denominator.

    Instances are never changed after construction, so results served by
    ``result_table`` are shared; ``_memo`` caches the interned id of the
    value in the live table."""

    __slots__ = ("num", "den", "_memo")

    def __init__(self, num: LaurentPoly, den: tuple = (), _trusted: bool = False):
        self._memo = None
        if _trusted:
            self.num = num
            self.den = den
            return
        for f, k in den:
            num._match(f)
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            if k <= 0:
                raise ValueError("denominator multiplicities must be positive")
        self.num, self.den = _cancel(*_unit_normalized(num, den))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int, order: int = 1) -> "RationalCoefficient":
        return RationalCoefficient(LaurentPoly.zero(nvars, order), (), _trusted=True)

    @staticmethod
    def one(nvars: int, order: int = 1) -> "RationalCoefficient":
        return RationalCoefficient.from_poly(LaurentPoly.constant(nvars, 1, order))

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalCoefficient":
        return RationalCoefficient(p, (), _trusted=True)

    @staticmethod
    def from_scalar(nvars: int, value, order: int = 1) -> "RationalCoefficient":
        return RationalCoefficient.from_poly(LaurentPoly.constant(nvars, value, order))

    @staticmethod
    def ratio(num: LaurentPoly, den: LaurentPoly, power: int = 1) -> "RationalCoefficient":
        return RationalCoefficient(num, ((den, power),))

    # -- plumbing ------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def order(self) -> int:
        return self.num.order

    def den_poly(self) -> LaurentPoly:
        out = LaurentPoly.constant(self.nvars, 1, self.order)
        for f, k in self.den:
            out = out * f**k
        return out

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic ----------------------------------------------------------

    @_remembered(pair=True)
    def __add__(self, other):
        """a + b over the factor-wise lcm L of the denominators, cancelled.

        With D_a, D_b the operands' denominators, the sum's numerator is
        S = n_a L/D_a + n_b L/D_b.  A factor f whose multiplicities differ
        and which is coprime to every other factor of L (``_coprime``)
        cannot divide S.  Say k_a > k_b: then f divides L/D_b and so
        n_b L/D_b.  L/D_a holds only the other factors, so it is coprime to
        f, and f does not divide n_a (a is reduced); the ring is a UFD, so
        f does not divide n_a L/D_a, nor S.  Such an f is kept without a
        trial division.  A factor that shares a root with another keeps the
        trial division: 1/(q - 1) + x/(q**2 - 1) cancels q - 1.
        """
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = RationalCoefficient.from_scalar(self.nvars, other, self.order)
        elif isinstance(other, LaurentPoly):
            other = RationalCoefficient.from_poly(other)
        self.num._match(other.num)
        a, b = self, other
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        if a.den == b.den:
            return RationalCoefficient._reduced(a.num + b.num, dict(a.den))
        da, db = dict(a.den), dict(b.den)
        lcm: dict[LaurentPoly, int] = dict(da)
        for f, k in db.items():
            if lcm.get(f, 0) < k:
                lcm[f] = k
        na, nb = a.num, b.num
        for f, k in lcm.items():
            if k > da.get(f, 0):
                na = na * _power(f, k - da.get(f, 0))
            if k > db.get(f, 0):
                nb = nb * _power(f, k - db.get(f, 0))
        coprime = {
            f for f in lcm
            if da.get(f, 0) != db.get(f, 0)
            and all(h is f or _coprime(f, h) for h in lcm)
        }
        return RationalCoefficient._reduced(na + nb, lcm, coprime)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalCoefficient(-self.num, self.den, _trusted=True)

    @_remembered(pair=True)
    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return RationalCoefficient(self.num * other, self.den, _trusted=True)
        if isinstance(other, LaurentPoly):
            other = RationalCoefficient.from_poly(other)
        self.num._match(other.num)
        a, b = self, other
        if a.is_zero() or b.is_zero():
            return RationalCoefficient.zero(a.nvars, a.order)
        # a unit c * q**e shares no factor with a reduced denominator, so
        # there is nothing to cancel; the sort is _cancel's
        for unit, other in ((a, b), (b, a)):
            if not unit.den and len(unit.num.terms) == 1:
                den = tuple(sorted(other.den, key=lambda fk: fk[0].key()))
                return RationalCoefficient(a.num * b.num, den, _trusted=True)
        den = dict(a.den)
        for f, k in b.den:
            den[f] = den.get(f, 0) + k
        return RationalCoefficient._reduced(a.num * b.num, den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of rational functions are not defined")
        out = RationalCoefficient.one(self.nvars, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @staticmethod
    def _reduced(num: LaurentPoly, den: dict, coprime=()) -> "RationalCoefficient":
        num, dentuple = _cancel(num, den, coprime)
        return RationalCoefficient(num, dentuple, _trusted=True)

    # -- calculus and action ----------------------------------------------------

    @_remembered(pair=False)
    def euler(self, var: int) -> "RationalCoefficient":
        """Euler derivative D_var by the quotient rule on the factored form."""
        if not self.den:
            return RationalCoefficient(self.num.euler(var), (), _trusted=True)
        triples = [(f, k, f.euler(var)) for f, k in self.den]
        active = [(f, k, df) for f, k, df in triples if not df.is_zero()]
        if not active:
            return RationalCoefficient._reduced(self.num.euler(var), dict(self.den))
        prod_active = LaurentPoly.constant(self.nvars, 1, self.order)
        for f, _, _ in active:
            prod_active = prod_active * f
        acc = self.num.euler(var) * prod_active
        for i, (f, k, df) in enumerate(active):
            rest = LaurentPoly.constant(self.nvars, 1, self.order)
            for j, (other, _, _) in enumerate(active):
                if j != i:
                    rest = rest * other
            acc = acc - (self.num * df * rest) * k
        den = {f: (k + 1 if not df.is_zero() else k) for f, k, df in triples}
        return RationalCoefficient._reduced(acc, den)

    @_remembered(pair=False)
    def act(self, g: WreathElement) -> "RationalCoefficient":
        """The substitution g: g(num) over the g(f), unit-normalized and
        sorted without trial division.

        g is a ring automorphism.  It preserves divisibility both ways, so
        no g(f) divides g(num); and it maps non-associate factors to
        non-associate ones, so distinct normalized factors stay distinct.
        The units the images strip (``_factor_image``) are gathered into
        one monomial, so the numerator takes one substitution and one
        product.
        """
        field = CyclotomicField.get(self.order)
        exps, unit = [0] * self.nvars, None
        den = {}
        for f, k in self.den:
            monic, e, u = _factor_image(f, g)
            den[monic] = k
            for i, x in enumerate(e):
                exps[i] += k * x
            for _ in range(k):
                unit = _times(unit, u, field.red)
        num = self.num.act(g)
        if unit is not None or any(exps):
            monomial = {tuple(exps): unit or (field.powers[0], 1)}
            num = num * LaurentPoly(self.nvars, self.order, monomial)
        return RationalCoefficient(*_cancel(num, den, coprime=den), _trusted=True)

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = RationalCoefficient.from_scalar(self.nvars, other, self.order)
        if not isinstance(other, RationalCoefficient):
            return NotImplemented
        self.num._match(other.num)
        a, b = self, other
        da, db = dict(a.den), dict(b.den)
        for f in list(da):
            if f in db:
                k = min(da[f], db[f])
                da[f] -= k
                db[f] -= k
                if not da[f]:
                    del da[f]
                if not db[f]:
                    del db[f]
        left = a.num
        for f, k in db.items():
            left = left * f**k
        right = b.num
        for f, k in da.items():
            right = right * f**k
        return left == right

    def __hash__(self):
        # a reduced value equal to a number has no denominator and hashes
        # like its constant numerator; otherwise, per variable, the top
        # exponent of num minus that of den: tops add under products, so
        # cancellation cannot move it
        if not self.den and self.num.is_constant():
            return hash(self.num)
        span = [max(e[v] for e in self.num.terms) for v in range(self.nvars)]
        for f, k in self.den:
            for v in range(self.nvars):
                span[v] -= k * max(e[v] for e in f.terms)
        return hash((self.nvars, tuple(span)))

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den_poly().to_json()}

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        den = " * ".join(
            f"({f!r})" + (f"^{k}" if k > 1 else "") for f, k in self.den
        )
        return f"({self.num!r}) / [{den}]"


def _unit_normalized(num: LaurentPoly, den) -> tuple[LaurentPoly, dict]:
    """num / prod f**k with every factor unit-normalized, not cancelled.

    The unit c * q**shift stripped from each factor moves into the
    numerator as its inverse; constant factors vanish into it entirely.
    """
    factors: dict[LaurentPoly, int] = {}
    for f, k in den:
        unit, shift, monic = f.unit_normalize()
        if not monic.is_constant():
            factors[monic] = factors.get(monic, 0) + k
        if unit != 1 or any(shift):
            num = num * LaurentPoly.monomial(
                num.nvars, tuple(-x * k for x in shift), unit**k, f.order
            )
    return num, factors


def _binomial_rule(f: LaurentPoly) -> _BinomialRule:
    """f's ``binomial_rule``; ValueError unless f is a content-free binomial,
    the only shape of denominator factor."""
    rule = f.binomial_rule()
    if rule is None:
        raise ValueError(f"cannot divide by {f!r}: not a content-free binomial")
    return rule


def _coprime(f: LaurentPoly, h: LaurentPoly) -> bool:
    """Whether two distinct normalized binomial factors are known coprime.

    Two d = 1 binomials are primes, and distinct normalized primes are not
    associate.  Otherwise write f = c q**x (1 - s q**mu) with mu = e nu, nu
    primitive: over the algebraic closure f is a unit times the product of
    the irreducible q**nu - z over the e-th roots z of 1/s, so every
    irreducible factor of f has direction +-nu.  Factors whose directions
    mu are not parallel therefore share no irreducible factor.

    Parallel factors share one exactly when they share a root.  Both rules
    hold -d at the variable with the smallest nonzero exponent gap, the
    same variable for parallel directions, so h = c' q**x' (1 - t q**mu')
    with mu' = e' nu and the same nu.  Let g = gcd(e, e'), e = g a and
    e' = g b.  A common factor q**nu - z has z**e = 1/s and z**e' = 1/t, so
    (1/s)**b = z**(g a b) = (1/t)**a.  The pair is therefore coprime when
    s**b != t**a.  Pairs such as q_i**2 - tau and q_i - s with s**2 = tau
    keep their trial division.
    """
    rf, rh = _binomial_rule(f), _binomial_rule(h)
    if rf.d == 1 and rh.d == 1:
        return True
    mu, mu2 = rf.mu, rh.mu
    if any(mu[i] * mu2[j] != mu[j] * mu2[i] for i, j in combinations(range(len(mu)), 2)):
        return True
    e, e2 = gcd(*mu), gcd(*mu2)
    return rf.s ** (e2 // gcd(e, e2)) != rh.s ** (e // gcd(e, e2))


def _cancel(num: LaurentPoly, den: dict, coprime=()) -> tuple[LaurentPoly, tuple]:
    """Drop zero numerators, trial-divide by denominator factors, sort.

    Factors in ``coprime`` are known not to divide ``num`` and are kept
    without a trial division.  So is every factor under a one-term
    numerator, a unit that no binomial divides, once it is checked to be a
    binomial.
    """
    if num.is_zero():
        return num, ()
    unit = len(num.terms) == 1
    out = []
    for f, k in den.items():
        if f in coprime:
            pass
        elif unit:
            _binomial_rule(f)
        else:
            while k > 0:
                q = num.divide_exact(f)
                if q is None:
                    break
                num = q
                k -= 1
        if k:
            out.append((f, k))
    out.sort(key=lambda fk: fk[0].key())
    return num, tuple(out)
