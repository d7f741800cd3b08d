"""Noncommutative operator algebra for the Sutherland engine.

A ``MixedOperator`` is a finite sum of terms

    (rational coefficient) * (Euler monomial D^k) * (group element)

acting on rational functions of q_1..q_N.  The normal form keeps
coefficients on the left, Euler derivatives in the middle and the
position-group element on the right.  Terms are keyed by (Euler
multi-index, group element), so equal keys merge and the exact zero test is
"every coefficient is the zero rational function".

An operator has one order m: its group elements rotate by m-th roots of
unity, and its coefficients are over Q(zeta_m), the field those rotations
act on.  Operators of different orders are never combined, and a
coefficient or scalar over any other field raises ``FieldMismatchError``,
a subfield Q(zeta_k) with k | m included; ints and Fractions are read as
rationals of Q(zeta_m).

Operators carry no spin factor.  Where spins enter (physical-state
projectors, spin-substituted charges), ``spinrep`` works with weights on
the group and monomial spin images instead.

Composition rewrites products into normal form with three rules: a group
element acts on the coefficient it passes (substitution), conjugates Euler
indices through its permutation and picks up one sign per flip it crosses,
and an Euler derivative passes a coefficient by the Leibniz rule.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycloScalar, same_field
from .groups import WreathElement
from .polyalg import RationalCoefficient


class MixedOperator:
    __slots__ = ("nvars", "order", "terms")

    # Operators act on scalar functions only; perfbench/tracer.py's
    # ``_compose_sizes`` hook still reads this constant.
    spin_dim = 1

    def __init__(self, nvars, order, terms):
        """``terms`` maps (Euler index tuple, group element of rotation
        order ``order``) to a nonzero coefficient over Q(zeta_order), as is."""
        self.nvars = nvars
        self.order = order
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars, order):
        return MixedOperator(nvars, order, {})

    @staticmethod
    def identity(nvars, order):
        return MixedOperator.from_coefficient(RationalCoefficient.one(nvars, order), order)

    @staticmethod
    def from_group(g: WreathElement):
        return MixedOperator.term(RationalCoefficient.one(g.size, g.order), g)

    @staticmethod
    def from_coefficient(c: RationalCoefficient, order):
        return MixedOperator.term(c, WreathElement.identity(c.nvars, order))

    @staticmethod
    def euler(nvars, var, order):
        """The Euler derivative D_var as an operator (1-based index)."""
        k = [0] * nvars
        k[var - 1] = 1
        g = WreathElement.identity(nvars, order)
        one = RationalCoefficient.one(nvars, order)
        return MixedOperator(nvars, order, {(tuple(k), g): one})

    @staticmethod
    def term(coeff: RationalCoefficient, g: WreathElement):
        """Single term coeff * g; ``FieldMismatchError`` unless coeff is over
        Q(zeta_m), m the rotation order of g."""
        same_field(coeff.order, g.order)
        if coeff.is_zero():
            return MixedOperator.zero(g.size, g.order)
        return MixedOperator(g.size, g.order, {((0,) * g.size, g): coeff})

    # -- plumbing ------------------------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise ValueError("operators act on different numbers of variables")
        same_field(self.order, other.order)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key()))

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = MixedOperator.identity(self.nvars, self.order) * other
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = c
                continue
            s = cur + c
            if s.is_zero():
                del out[key]
            else:
                out[key] = s
        return MixedOperator(self.nvars, self.order, out)

    __radd__ = __add__

    def __neg__(self):
        out = {key: -c for key, c in self.terms.items()}
        return MixedOperator(self.nvars, self.order, out)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor):
        """factor * self; ``FieldMismatchError`` unless a cyclotomic or
        rational-function factor is over Q(zeta_order)."""
        if isinstance(factor, RationalCoefficient):
            return MixedOperator.from_coefficient(factor, self.order) * self
        out = {}
        for key, c in self.terms.items():
            s = c * factor
            if not s.is_zero():
                out[key] = s
        return MixedOperator(self.nvars, self.order, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scale(other)
        if isinstance(other, MixedOperator):
            return op_compose(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("operators have no inverses here")
        if k == 0:
            return MixedOperator.identity(self.nvars, self.order)
        out = self
        for _ in range(k - 1):
            out = op_compose(out, self)
        return out

    def __eq__(self, other):
        """Equality in normal form; an int, Fraction or scalar is read as a
        multiple of the identity, as ``+``, ``-`` and ``*`` read it."""
        if isinstance(other, MixedOperator):
            # no stored coefficient is zero: equal operators share their keys
            self._check_compatible(other)
            theirs = other.terms
            return self.terms.keys() == theirs.keys() and all(
                c == theirs[key] for key, c in self.terms.items()
            )
        if not isinstance(other, (int, Fraction, CycloScalar)):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # equal operators share their keys; c times the identity hashes
        # like c, and so like the number it equals
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1:
            (((k, g), c),) = self.terms.items()
            if not any(k) and g.is_identity():
                return hash(c)
        return hash((self.nvars, len(self.terms)))

    # -- io --------------------------------------------------------------------

    def to_json(self) -> list:
        """One record per term; ``matrix`` is the coefficient as a 1 x 1
        block, the layout of every report and export."""
        return [
            {"euler": list(k), "group": g.to_json(), "matrix": [[c.to_json()]]}
            for (k, g), c in self.sorted_terms()
        ]

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for (k, g), c in self.sorted_terms():
            dk = "*".join(
                f"D{i+1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(k)
                if p
            )
            parts.append("*".join(x for x in (f"[{c!r}]", dk, repr(g)) if x and x != "id"))
        return "  +  ".join(parts)


def _binom_derivatives(k: tuple, f: RationalCoefficient):
    """All (t, binom(k,t), D^t f) with 0 <= t <= k componentwise."""
    table = {(0,) * len(k): f}
    for i, ki in enumerate(k):
        if ki == 0:
            continue
        new = dict(table)
        for t, g in table.items():
            cur = g
            for step in range(1, ki + 1):
                cur = cur.euler(i + 1)
                if cur.is_zero():
                    break
                tt = list(t)
                tt[i] = step
                new[tuple(tt)] = cur
        table = new
    out = []
    for t, g in table.items():
        if g.is_zero():
            continue
        b = 1
        for ki, ti in zip(k, t):
            b *= math.comb(ki, ti)
        out.append((t, b, g))
    return out


def op_compose(A: MixedOperator, B: MixedOperator) -> MixedOperator:
    """Normal-form product A then B (A acts after B)."""
    A._check_compatible(B)
    if A.is_zero() or B.is_zero():
        return MixedOperator.zero(A.nvars, A.order)
    n = A.nvars
    out: dict = {}
    for (kA, gA), cA in A.terms.items():
        trivial_g = gA.is_identity()
        inv = [0] * n
        for i, p in enumerate(gA.perm):
            inv[p] = i
        for (kB, gB), cB in B.terms.items():
            if trivial_g:
                kB2 = kB
                f = cB
                g = gB
            else:
                kB2 = tuple(kB[inv[j]] for j in range(n))
                f = cB.act(gA)
                if sum(kB2[j] for j in range(n) if gA.flip[j]) % 2:
                    f = -f
                g = gA * gB
            if any(kA):
                pieces = _binom_derivatives(kA, f)
            else:
                pieces = [((0,) * n, 1, f)]
            for t, b, dtf in pieces:
                key = (tuple(a - x + y for a, x, y in zip(kA, t, kB2)), g)
                c = cA * dtf
                if b != 1:
                    c = c * b
                cur = out.get(key)
                c = c if cur is None else cur + c
                # a cancelled key keeps its place, so term order is stable
                out[key] = None if c.is_zero() else c
    out = {key: c for key, c in out.items() if c is not None}
    return MixedOperator(n, A.order, out)


def op_commutator(A: MixedOperator, B: MixedOperator) -> MixedOperator:
    return op_compose(A, B) - op_compose(B, A)


def ad_projector(site: int, weight: int, A: MixedOperator) -> MixedOperator:
    """Rotation-average projector onto the weight component at one site.

    Averages Q_site^{-s} A Q_site^{s} against the phase tau^{s*weight};
    weight 0 extracts the part commuting with the site rotation.  A
    rotation scales q_site and commutes with every Euler derivative, so
    Q^{-s} (c D^k g) Q^s = Q^{-s}(c) D^k (Q^{-s} g Q^s): each term is
    conjugated on its own, and distinct terms stay distinct.
    """
    m, n = A.order, A.nvars
    rot = [0] * n
    rot[site - 1] = 1 % m
    q = WreathElement(n, m, tuple(range(n)), tuple(rot), (0,) * n)
    total = MixedOperator.zero(n, m)
    qs = WreathElement.identity(n, m)
    for s in range(m):
        phase = CycloScalar.root_of_unity(m, s * weight)
        inv = qs.inverse()
        piece = A if not s else MixedOperator(n, m, {
            (k, inv * g * qs): c.act(inv) for (k, g), c in A.terms.items()
        })
        total = total + piece.scale(phase)
        qs = qs * q
    return total.scale(Fraction(1, m))


def first_term_witness(A: MixedOperator) -> dict | None:
    """The first surviving term of A, None when A is zero; its ``entry`` is
    always [0, 0], the coefficient's place in the 1 x 1 block of
    ``to_json``."""
    if A.is_zero():
        return None
    (k, g), c = A.sorted_terms()[0]
    return {
        "euler": list(k),
        "group": g.to_json(),
        "entry": [0, 0],
        "coefficient": c.to_json(),
    }
