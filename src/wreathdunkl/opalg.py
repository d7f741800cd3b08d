"""Noncommutative operator algebra for the Sutherland engine.

A ``MixedOperator`` is a finite sum of terms

    (matrix of rational coefficients) * (Euler monomial D^k) * (group element)

acting on rational functions of q_1..q_N tensored with a spin space.  The
normal form keeps coefficients on the left, Euler derivatives in the middle
and the position-group element on the right; the spin matrix lives on a
separate tensor factor and commutes with all position data.  Terms are keyed
by (Euler multi-index, group element), so equal keys merge and the exact
zero test is "every matrix entry of every term is the zero rational
function".

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
    __slots__ = ("nvars", "order", "group_order", "spin_dim", "terms")

    def __init__(self, nvars, order, group_order, spin_dim, terms, _trusted=False):
        self.nvars = nvars
        self.order = order
        self.group_order = group_order
        self.spin_dim = spin_dim
        if _trusted:
            self.terms = terms
            return
        clean = {}
        for (k, g), mat in terms.items():
            entries = {pos: c for pos, c in mat.items() if not c.is_zero()}
            if entries:
                clean[(tuple(k), g)] = entries
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars, order=1, group_order=1, spin_dim=1):
        return MixedOperator(nvars, order, group_order, spin_dim, {}, _trusted=True)

    @staticmethod
    def identity(nvars, order=1, group_order=1, spin_dim=1):
        one = RationalCoefficient.one(nvars, order)
        return MixedOperator.from_coefficient(one, group_order, spin_dim)

    @staticmethod
    def from_group(g: WreathElement, order=None, spin_dim=1, coeff=1):
        c = RationalCoefficient.from_scalar(g.size, coeff, order or g.order)
        return MixedOperator.term(c, g, spin_dim=spin_dim)

    @staticmethod
    def from_coefficient(c: RationalCoefficient, group_order=1, spin_dim=1):
        g = WreathElement.identity(c.nvars, group_order)
        if c.is_zero():
            return MixedOperator.zero(c.nvars, c.order, group_order, spin_dim)
        mat = {(t, t): c for t in range(spin_dim)}
        return MixedOperator(
            c.nvars, c.order, group_order, spin_dim,
            {((0,) * c.nvars, g): mat}, _trusted=True,
        )

    @staticmethod
    def euler(nvars, var, order=1, group_order=1, spin_dim=1):
        """The Euler derivative D_var as an operator (1-based index)."""
        k = [0] * nvars
        k[var - 1] = 1
        g = WreathElement.identity(nvars, group_order)
        one = RationalCoefficient.one(nvars, order)
        mat = {(t, t): one for t in range(spin_dim)}
        return MixedOperator(
            nvars, order, group_order, spin_dim, {(tuple(k), g): mat}, _trusted=True
        )

    @staticmethod
    def term(coeff: RationalCoefficient, g: WreathElement, euler=None, spin_dim=1):
        """Single spin-diagonal term coeff * D^euler * g."""
        k = tuple(euler) if euler is not None else (0,) * g.size
        order = coeff.order * g.order // gcd(coeff.order, g.order)
        c = coeff.lift(order)
        if c.is_zero():
            return MixedOperator.zero(g.size, order, g.order, spin_dim)
        mat = {(t, t): c for t in range(spin_dim)}
        return MixedOperator(
            g.size, order, g.order, spin_dim, {(k, g): mat}, _trusted=True
        )

    @staticmethod
    def spin_term(g: WreathElement, matrix: dict, nvars, order, spin_dim, euler=None):
        """Term with an explicit sparse spin matrix of rational coefficients."""
        k = tuple(euler) if euler is not None else (0,) * nvars
        entries = {}
        for pos, c in matrix.items():
            if isinstance(c, (int, Fraction, CycloScalar)):
                c = RationalCoefficient.from_scalar(nvars, c, order)
            if not c.is_zero():
                entries[pos] = c.lift(order) if c.order != order else c
        return MixedOperator(
            nvars, order, g.order, spin_dim, {(k, g): entries} if entries else {},
            _trusted=True,
        )

    # -- plumbing ------------------------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise ValueError("operators act on different numbers of variables")
        if self.group_order != other.group_order:
            raise ValueError("operators carry different rotation orders")
        if self.spin_dim != other.spin_dim:
            raise ValueError("operators have different spin dimensions")

    def lift_order(self, order):
        if order == self.order:
            return self
        out = {}
        for key, mat in self.terms.items():
            out[key] = {pos: c.lift(order) for pos, c in mat.items()}
        return MixedOperator(
            self.nvars, order, self.group_order, self.spin_dim, out, _trusted=True
        )

    def lift_spin(self, spin_dim):
        """Tensor a spin-diagonal (or spinless) operator with 1 on spins."""
        if spin_dim == self.spin_dim:
            return self
        if self.spin_dim != 1:
            raise ValueError("can only lift a spinless operator to a spin space")
        out = {}
        for key, mat in self.terms.items():
            c = mat[(0, 0)]
            out[key] = {(t, t): c for t in range(spin_dim)}
        return MixedOperator(
            self.nvars, self.order, self.group_order, spin_dim, out, _trusted=True
        )

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key()))

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = MixedOperator.identity(
                self.nvars, self.order, self.group_order, self.spin_dim
            ) * other
        self._check_compatible(other)
        order = self.order * other.order // gcd(self.order, other.order)
        a = self.lift_order(order)
        b = other.lift_order(order)
        out = {k: dict(mat) for k, mat in a.terms.items()}
        for key, mat in b.terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = dict(mat)
                continue
            for pos, c in mat.items():
                s = cur.get(pos)
                s = c if s is None else s + c
                if s.is_zero():
                    cur.pop(pos, None)
                else:
                    cur[pos] = s
            if not cur:
                del out[key]
        return MixedOperator(
            self.nvars, order, self.group_order, self.spin_dim, out, _trusted=True
        )

    __radd__ = __add__

    def __neg__(self):
        out = {
            key: {pos: -c for pos, c in mat.items()}
            for key, mat in self.terms.items()
        }
        return MixedOperator(
            self.nvars, self.order, self.group_order, self.spin_dim, out, _trusted=True
        )

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor):
        if isinstance(factor, RationalCoefficient):
            return MixedOperator.from_coefficient(
                factor, self.group_order, self.spin_dim
            ) * self
        out = {}
        for key, mat in self.terms.items():
            entries = {}
            for pos, c in mat.items():
                s = c * factor
                if not s.is_zero():
                    entries[pos] = s
            if entries:
                out[key] = entries
        order = self.order
        if isinstance(factor, CycloScalar):
            order = order * factor.order // gcd(order, factor.order)
            out = {
                key: {pos: c.lift(order) for pos, c in mat.items()}
                for key, mat in out.items()
            }
        return MixedOperator(
            self.nvars, order, self.group_order, self.spin_dim, out, _trusted=True
        )

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
            return MixedOperator.identity(
                self.nvars, self.order, self.group_order, self.spin_dim
            )
        out = self
        for _ in range(k - 1):
            out = op_compose(out, self)
        return out

    def __eq__(self, other):
        if not isinstance(other, MixedOperator):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.nvars, self.spin_dim, len(self.terms)))

    # -- application and evaluation ---------------------------------------------

    def numeric_apply(self, funcs, point):
        """Evaluate (A f)(point) term by term in complex floats.

        This path never adds rational functions symbolically, so it is an
        independent cross-check of the exact normal form.
        """
        if isinstance(funcs, (LaurentPoly, RationalCoefficient)):
            funcs = [funcs]
        out = [0j] * self.spin_dim
        for (k, g), mat in self.terms.items():
            moved = {}
            for (i, j), c in mat.items():
                if j not in moved:
                    h = funcs[j].act(g)
                    for var, p in enumerate(k):
                        for _ in range(p):
                            h = h.euler(var + 1)
                    moved[j] = h.eval_complex(point)
                out[i] += c.eval_complex(point) * moved[j]
        return out

    # -- adjoint -------------------------------------------------------------

    def adjoint(self):
        """Formal adjoint on the torus: reverse products, conjugate data.

        Multiplication by c(q) conjugates coefficients and inverts q, group
        elements invert, Euler derivatives are self-adjoint, spin matrices
        transpose-conjugate.
        """
        total = MixedOperator.zero(
            self.nvars, self.order, self.group_order, self.spin_dim
        )
        for (k, g), mat in self.terms.items():
            gi = MixedOperator.from_group(
                g.inverse(), self.order, self.spin_dim
            )
            ke = MixedOperator(
                self.nvars, self.order, self.group_order, self.spin_dim,
                {(k, WreathElement.identity(self.nvars, self.group_order)): {
                    (t, t): RationalCoefficient.one(self.nvars, self.order)
                    for t in range(self.spin_dim)
                }},
                _trusted=True,
            )
            cmat = {}
            for (i, j), c in mat.items():
                cmat[(j, i)] = c.conj_invert()
            cop = MixedOperator(
                self.nvars, self.order, self.group_order, self.spin_dim,
                {((0,) * self.nvars,
                  WreathElement.identity(self.nvars, self.group_order)): cmat},
            )
            total = total + op_compose(op_compose(gi, ke), cop)
        return total

    # -- io --------------------------------------------------------------------

    def to_json(self) -> list:
        out = []
        for (k, g), mat in self.sorted_terms():
            dense = []
            for i in range(self.spin_dim):
                row = []
                for j in range(self.spin_dim):
                    c = mat.get((i, j))
                    if c is None:
                        c = RationalCoefficient.zero(self.nvars, self.order)
                    row.append(c.to_json())
                dense.append(row)
            out.append({"euler": list(k), "group": g.to_json(), "matrix": dense})
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for (k, g), mat in self.sorted_terms():
            dk = "*".join(
                f"D{i+1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(k)
                if p
            )
            gs = repr(g)
            if self.spin_dim == 1:
                c = mat.get((0, 0))
                body = f"[{c!r}]"
            else:
                body = "[" + ", ".join(f"{pos}:{c!r}" for pos, c in sorted(mat.items())) + "]"
            parts.append("*".join(x for x in (body, dk, gs) if x and x != "id"))
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
        return MixedOperator.zero(A.nvars, A.order, A.group_order, A.spin_dim)
    order = A.order * B.order // gcd(A.order, B.order)
    if order != A.order:
        A = A.lift_order(order)
    if order != B.order:
        B = B.lift_order(order)
    n = A.nvars
    out: dict = {}
    for (kA, gA), MA in A.terms.items():
        trivial_g = gA.is_identity()
        inv = [0] * n
        for i, p in enumerate(gA.perm):
            inv[p] = i
        for (kB, gB), MB in B.terms.items():
            if trivial_g:
                kB2 = kB
                sign = 1
                g = gB
            else:
                kB2 = tuple(kB[inv[j]] for j in range(n))
                sign = -1 if sum(
                    kB2[j] for j in range(n) if gA.flip[j]
                ) % 2 else 1
                g = gA * gB
            # regroup B's entries by inner index once per term pair
            by_row: dict = {}
            for (j, l), cB in MB.items():
                by_row.setdefault(j, []).append((l, cB))
            moved: dict = {}
            for (i, j), cA in MA.items():
                cols = by_row.get(j)
                if not cols:
                    continue
                for l, cB in cols:
                    pieces = moved.get((j, l))
                    if pieces is None:
                        f = cB if trivial_g else cB.act(gA)
                        if sign == -1:
                            f = -f
                        if any(kA):
                            pieces = _binom_derivatives(kA, f)
                        else:
                            pieces = [((0,) * n, 1, f)]
                        moved[(j, l)] = pieces
                    for t, b, dtf in pieces:
                        key = (
                            tuple(a - x + y for a, x, y in zip(kA, t, kB2)),
                            g,
                        )
                        c = cA * dtf
                        if b != 1:
                            c = c * b
                        mat = out.setdefault(key, {})
                        cur = mat.get((i, l))
                        c = c if cur is None else cur + c
                        if c.is_zero():
                            mat.pop((i, l), None)
                        else:
                            mat[(i, l)] = c
    out = {key: mat for key, mat in out.items() if mat}
    return MixedOperator(n, order, A.group_order, A.spin_dim, out, _trusted=True)


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
    total = MixedOperator.zero(n, order, m, A.spin_dim)
    qs = WreathElement.identity(n, m)
    for s in range(m):
        phase = CycloScalar.root_of_unity(m, s * weight)
        piece = op_compose(
            op_compose(MixedOperator.from_group(qs.inverse(), order, A.spin_dim), A),
            MixedOperator.from_group(qs, order, A.spin_dim),
        )
        total = total + piece.scale(phase)
        qs = qs * q
    return total.scale(Fraction(1, m))


def normalize_is_zero(A: MixedOperator, seed: int = 0) -> dict:
    """Exact zero test plus a numeric residual report.

    The residual is the largest |(A f)(point)| over a few random torus
    points and random polynomial test functions, evaluated term by term so
    it does not reuse the exact merging path.
    """
    residual = numeric_residual(A, seed=seed)
    witness = None
    if not A.is_zero():
        (k, g), mat = next(iter(A.sorted_terms()))
        pos, c = next(iter(sorted(mat.items())))
        witness = {
            "euler": list(k),
            "group": g.to_json(),
            "entry": list(pos),
            "coefficient": c.to_json(),
        }
    return {
        "zero": A.is_zero(),
        "terms": A.term_count(),
        "numeric_residual": residual,
        "witness": witness,
    }


def random_test_functions(rng: Random, nvars: int, order: int, spin_dim: int = 1):
    """Small random Laurent polynomials, one per spin component."""
    funcs = []
    for _ in range(spin_dim):
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
    for _key, mat in A.terms.items():
        for c in mat.values():
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
            funcs = random_test_functions(rng, A.nvars, A.order, A.spin_dim)
            vals = A.numeric_apply(funcs, point)
            worst = max(worst, max(abs(v) for v in vals))
    return worst
