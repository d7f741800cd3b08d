"""Noncommutative operator algebra for the Sutherland engine.

A ``MixedOperator`` is a finite sum of terms

    (rational coefficient) * (Euler monomial D^k) * (group element)

acting on rational functions of q_1..q_N.  The normal form keeps
coefficients on the left, Euler derivatives in the middle and the
position-group element on the right.  Terms are keyed by (Euler
multi-index, group element), so equal keys merge and the exact zero test is
"every coefficient is the zero rational function".

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
from math import gcd
from random import Random

from .cyclotomic import CycloScalar
from .groups import WreathElement
from .polyalg import LaurentPoly, RationalCoefficient, random_torus_point


class MixedOperator:
    __slots__ = ("nvars", "order", "group_order", "terms")

    # Operators act on scalar functions only; perfbench/tracer.py's
    # ``_compose_sizes`` hook still reads this constant.
    spin_dim = 1

    def __init__(self, nvars, order, group_order, terms):
        """``terms`` maps (Euler index tuple, group element) to a nonzero
        coefficient of the given order; it is taken as is."""
        self.nvars = nvars
        self.order = order
        self.group_order = group_order
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars, order=1, group_order=1):
        return MixedOperator(nvars, order, group_order, {})

    @staticmethod
    def identity(nvars, order=1, group_order=1):
        one = RationalCoefficient.one(nvars, order)
        return MixedOperator.from_coefficient(one, group_order)

    @staticmethod
    def from_group(g: WreathElement, order=None):
        return MixedOperator.term(RationalCoefficient.one(g.size, order or g.order), g)

    @staticmethod
    def from_coefficient(c: RationalCoefficient, group_order=1):
        g = WreathElement.identity(c.nvars, group_order)
        if c.is_zero():
            return MixedOperator.zero(c.nvars, c.order, group_order)
        return MixedOperator(c.nvars, c.order, group_order, {((0,) * c.nvars, g): c})

    @staticmethod
    def euler(nvars, var, order=1, group_order=1):
        """The Euler derivative D_var as an operator (1-based index)."""
        k = [0] * nvars
        k[var - 1] = 1
        g = WreathElement.identity(nvars, group_order)
        one = RationalCoefficient.one(nvars, order)
        return MixedOperator(nvars, order, group_order, {(tuple(k), g): one})

    @staticmethod
    def term(coeff: RationalCoefficient, g: WreathElement, euler=None):
        """Single term coeff * D^euler * g."""
        k = tuple(euler) if euler is not None else (0,) * g.size
        order = coeff.order * g.order // gcd(coeff.order, g.order)
        c = coeff.lift(order)
        if c.is_zero():
            return MixedOperator.zero(g.size, order, g.order)
        return MixedOperator(g.size, order, g.order, {(k, g): c})

    # -- plumbing ------------------------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise ValueError("operators act on different numbers of variables")
        if self.group_order != other.group_order:
            raise ValueError("operators carry different rotation orders")

    def lift_order(self, order):
        if order == self.order:
            return self
        out = {key: c.lift(order) for key, c in self.terms.items()}
        return MixedOperator(self.nvars, order, self.group_order, out)

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key()))

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = MixedOperator.identity(self.nvars, self.order, self.group_order) * other
        self._check_compatible(other)
        order = self.order * other.order // gcd(self.order, other.order)
        out = dict(self.lift_order(order).terms)
        for key, c in other.lift_order(order).terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = c
                continue
            s = cur + c
            if s.is_zero():
                del out[key]
            else:
                out[key] = s
        return MixedOperator(self.nvars, order, self.group_order, out)

    __radd__ = __add__

    def __neg__(self):
        out = {key: -c for key, c in self.terms.items()}
        return MixedOperator(self.nvars, self.order, self.group_order, out)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor):
        if isinstance(factor, RationalCoefficient):
            return MixedOperator.from_coefficient(factor, self.group_order) * self
        out = {}
        for key, c in self.terms.items():
            s = c * factor
            if not s.is_zero():
                out[key] = s
        order = self.order
        if isinstance(factor, CycloScalar):
            order = order * factor.order // gcd(order, factor.order)
            out = {key: c.lift(order) for key, c in out.items()}
        return MixedOperator(self.nvars, order, self.group_order, out)

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
            return MixedOperator.identity(self.nvars, self.order, self.group_order)
        out = self
        for _ in range(k - 1):
            out = op_compose(out, self)
        return out

    def __eq__(self, other):
        if not isinstance(other, MixedOperator):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.nvars, len(self.terms)))

    # -- application and evaluation ---------------------------------------------

    def numeric_apply(self, f, point) -> complex:
        """Evaluate (A f)(point) term by term in complex floats.

        This path never adds rational functions symbolically, so it is an
        independent cross-check of the exact normal form.
        """
        out = 0j
        for (k, g), c in self.terms.items():
            h = f.act(g)
            for var, p in enumerate(k):
                for _ in range(p):
                    h = h.euler(var + 1)
            out += c.eval_complex(point) * h.eval_complex(point)
        return out

    # -- adjoint -------------------------------------------------------------

    def adjoint(self):
        """Formal adjoint on the torus: reverse products, conjugate data.

        Multiplication by c(q) conjugates coefficients and inverts q, group
        elements invert, Euler derivatives are self-adjoint.
        """
        total = MixedOperator.zero(self.nvars, self.order, self.group_order)
        one = RationalCoefficient.one(self.nvars, self.order)
        ident = WreathElement.identity(self.nvars, self.group_order)
        for (k, g), c in self.terms.items():
            gi = MixedOperator.from_group(g.inverse(), self.order)
            ke = MixedOperator(self.nvars, self.order, self.group_order, {(k, ident): one})
            cop = MixedOperator.from_coefficient(c.conj_invert(), self.group_order)
            total = total + op_compose(op_compose(gi, ke), cop)
        return total

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
        return MixedOperator.zero(A.nvars, A.order, A.group_order)
    order = A.order * B.order // gcd(A.order, B.order)
    if order != A.order:
        A = A.lift_order(order)
    if order != B.order:
        B = B.lift_order(order)
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
    return MixedOperator(n, order, A.group_order, out)


def op_commutator(A: MixedOperator, B: MixedOperator) -> MixedOperator:
    return op_compose(A, B) - op_compose(B, A)


def ad_projector(site: int, weight: int, A: MixedOperator) -> MixedOperator:
    """Rotation-average projector onto the weight component at one site.

    Averages Q_site^{-s} A Q_site^{s} against the phase tau^{s*weight};
    weight 0 extracts the part commuting with the site rotation.
    """
    m = A.group_order
    n = A.nvars
    order = A.order * m // gcd(A.order, m)
    rot = [0] * n
    rot[site - 1] = 1 % m
    q = WreathElement(n, m, tuple(range(n)), tuple(rot), (0,) * n)
    total = MixedOperator.zero(n, order, m)
    qs = WreathElement.identity(n, m)
    for s in range(m):
        phase = CycloScalar.root_of_unity(m, s * weight)
        piece = op_compose(
            op_compose(MixedOperator.from_group(qs.inverse(), order), A),
            MixedOperator.from_group(qs, order),
        )
        total = total + piece.scale(phase)
        qs = qs * q
    return total.scale(Fraction(1, m))


def normalize_is_zero(A: MixedOperator, seed: int = 0) -> dict:
    """Exact zero test plus a numeric residual report.

    The residual is the largest |(A f)(point)| over a few random torus
    points and random polynomial test functions, evaluated term by term so
    it does not reuse the exact merging path.  The witness names the first
    surviving term; its ``entry`` is always [0, 0], the coefficient's
    place in the 1 x 1 block of ``to_json``.
    """
    residual = numeric_residual(A, seed=seed)
    witness = None
    if not A.is_zero():
        (k, g), c = A.sorted_terms()[0]
        witness = {
            "euler": list(k),
            "group": g.to_json(),
            "entry": [0, 0],
            "coefficient": c.to_json(),
        }
    return {
        "zero": A.is_zero(),
        "terms": A.term_count(),
        "numeric_residual": residual,
        "witness": witness,
    }


def random_test_functions(rng: Random, nvars: int, order: int, count: int = 1):
    """``count`` small random Laurent polynomials."""
    funcs = []
    for _ in range(count):
        p = LaurentPoly.zero(nvars, order)
        for _ in range(3):
            exps = tuple(rng.randint(-2, 2) for _ in range(nvars))
            p = p + LaurentPoly.monomial(
                nvars, exps, Fraction(rng.randint(-4, 4), rng.randint(1, 3)), order
            )
        funcs.append(RationalCoefficient.from_poly(p))
    return funcs


def numeric_residual(
    A: MixedOperator, seed: int = 0, npoints: int = 5, nfuncs: int = 3
) -> float:
    rng = Random(seed)
    worst = 0.0
    den_factors = []
    for c in A.terms.values():
        den_factors.extend(f for f, _ in c.den)
    for _ in range(npoints):
        point = random_torus_point(rng, A.nvars)
        tries = 0
        while den_factors and min(
            abs(f.eval_complex(point)) for f in den_factors
        ) < 1e-6:
            point = random_torus_point(rng, A.nvars)
            tries += 1
            if tries > 100:
                raise RuntimeError("could not sample away from denominator zeros")
        for _ in range(nfuncs):
            [f] = random_test_functions(rng, A.nvars, A.order)
            worst = max(worst, abs(A.numeric_apply(f, point)))
    return worst
