"""Freezing machinery: barred operators, lattice conditions, frozen chains.

Dropping the derivative part of a Dunkl operator leaves the barred operator,
a pure difference operator that still commutes with its siblings.  The
static Hamiltonian is the part of the dynamical one that is linear in the
couplings (with the boundary couplings rescaled proportionally), up to
sign.  The Hamiltonian is written as a sum over its image table, so that
part is read off the table: ``build_static_hamiltonian`` is
``dunkl.image_operator`` at unit exchange coupling, and ``verify`` checks
it against its literal layout and the barred operators.  Its coefficient on
a group element g is the sum of the image kernels c x / (1 - x)^2 over the
images on g, so the frozen chain's coupling on g is that sum of image
kernels at the lattice sites: ``image_values`` evaluates each image x there
once, and the chain never builds the static Hamiltonian.  The sites freeze
at an equilibrium of the classical potential W = -sum c^2 x / (1 - x)^2
over the same table, the identity coefficient of the Hamiltonian: the
lattice condition is dW/dq_l = 0 at every site, and
``LatticeConfig.residuals`` sums dW/dq_l from the same image values, in
exact cyclotomic arithmetic whenever the positions are roots of unity.

The known equidistant solutions for odd rotation order form a four-row
table (site count, squared boundary couplings, position pattern); the
scanner sweeps candidate equidistant configurations numerically and
rediscovers exactly those rows.  For even rotation order at two sites it
finds the exact equilibrium L = 2 N m, integer positions, mu^2 = 4, for
every even m tested (2, 4, 6; at m = 6 the L = 8 lattice of m = 2 is a
second exact hit).  At three or more sites the default grid holds no
equidistant solution for even m (checked at N = 3, 4): at m = 2 the
equilibria are then zeros of a Jacobi polynomial, which are not equidistant.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm

from .cyclotomic import CycloScalar
from .dunkl import (
    ModelParams,
    _dunkl_coefficients_vanish,
    _pieces,
    balanced_sum,
    boundary_element,
    build_dunkl,
    exchange_element,
    hamiltonian_images,
    image_operator,
    reflected_exchange_element,
)
from .opalg import MixedOperator, op_commutator
from .polyalg import LaurentPoly, RationalCoefficient
from .reports import CheckSuite

# A float residual below this is round-off: the lattice counts as exact.
EXACT_RESIDUAL = 1e-12

LATTICE_LABELS = ("L2Nm", "L2NmPlusM_halfshift", "L2NmPlusM_integer", "L2Np1m")


# -- barred operators and the potential's derivatives ---------------------------


def build_barred(params: ModelParams, i: int) -> MixedOperator:
    """The coupling-stripped difference part of the cyclic Dunkl operator."""
    if params.family != "cyclic":
        raise ValueError("barred operators are built for the cyclic family")
    unit = ModelParams("cyclic", params.size, params.order, Fraction(1))
    return build_dunkl(unit, i) - MixedOperator.euler(params.size, i, params.order)


def potential_euler(N: int, m: int, i: int) -> RationalCoefficient:
    """euler_i of the cyclic two-body potential, the sum of x / (1 - x)^2
    over the images x, taken term by term.

    Euler operators are derivations, and D_i x / (1 - x)^2 =
    e_i x (1 + x) / (1 - x)^3 for an image x with exponent e_i at site i,
    so only the images that involve site i contribute.
    """
    unit = ModelParams("cyclic", N, m, Fraction(1))
    terms = [RationalCoefficient.zero(N, m)]
    for x, _, _ in hamiltonian_images(unit):
        ((e, _),) = x.terms.items()
        if e[i - 1]:
            one = LaurentPoly.constant(N, 1, x.order)
            terms.append(RationalCoefficient.ratio(x * (one + x) * e[i - 1], one - x, 3))
    return balanced_sum(terms)


def build_static_hamiltonian(params: ModelParams) -> MixedOperator:
    """The static Hamiltonian: sum over images of c x / (1 - x)^2 g.

    It is the coupling-linear part of the dynamical Hamiltonian up to sign
    (``dunkl.image_operator``), with the exchange coupling normalized to
    one (the static chain carries no free exchange strength; the boundary
    couplings of ``params`` survive linearly).  It has no derivative part
    and no scalar potential, only group terms.
    """
    return image_operator(
        ModelParams(
            params.family, params.size, params.order,
            Fraction(1), params.mu, params.rho,
        )
    )


def freezing_identity_check(params: ModelParams) -> CheckSuite:
    """Operator-level identities behind the freezing construction.

    The barred operators, the static Hamiltonian and the potential's
    derivatives (``potential_euler``) are built at unit coupling, so the
    verdicts of [barred_i, barred_j] = 0 and [static H, barred_i] =
    euler_i(potential) depend on (N, m) alone:
    ``_unit_freezing`` computes them once per (N, m) and process, and every
    coupling reuses them.  Only Dunkl = Euler + lambda * barred is checked
    at each coupling.
    """
    N = params.size
    suite = CheckSuite("freezing-identities")
    idx = params.to_json()
    if params.family != "cyclic":
        raise ValueError("the freezing identities are checked for the cyclic family")
    barred, commuting, static = _unit_freezing(N, params.order)
    for i in range(1, N + 1):
        d = build_dunkl(params, i)
        euler = MixedOperator.euler(N, i, params.order)
        recomposed = euler + barred[i - 1].scale(params.lam)
        suite.add(
            "Dunkl = Euler + lambda * barred", {**idx, "i": i}, d == recomposed
        )
    for i, j, ok in commuting:
        suite.add("[barred_i, barred_j] = 0", {**idx, "i": i, "j": j}, ok)
    for i, ok in enumerate(static, 1):
        suite.add("[static H, barred_i] = euler_i(potential)", {**idx, "i": i}, ok)
    return suite


@lru_cache(maxsize=16)
def _unit_freezing(N: int, m: int) -> tuple:
    """(barred operators, (i, j, [barred_i, barred_j] = 0) for i < j,
    [static H, barred_i] = euler_i(potential) for each i), all at unit
    coupling.

    barred_i = d_i(1) - euler_i is the lambda piece A_{i,lambda} =
    d_i(1) - d_i(0) of the Dunkl operator (``dunkl._pieces``), as d_i(0)
    is euler_i.  Where that equality holds exactly, [barred_i, barred_j]
    is the lambda^2 coefficient [A_{i,lambda}, A_{j,lambda}] of
    [d_i, d_j], whose verdict ``dunkl._dunkl_coefficients_vanish`` keeps
    per (N, m); elsewhere the commutator is multiplied out."""
    unit = ModelParams("cyclic", N, m, Fraction(1))
    barred = tuple(build_barred(unit, i) for i in range(1, N + 1))
    pieces = _pieces(build_dunkl, "cyclic", N, m)
    lam = [b == A[1] for b, A in zip(barred, pieces)]

    def commutes(i: int, j: int) -> bool:
        if lam[i] and lam[j]:
            return _dunkl_coefficients_vanish(build_dunkl, "cyclic", N, m, i + 1, j + 1)[(1, 1)]
        return op_commutator(barred[i], barred[j]).is_zero()

    commuting = tuple(
        (i + 1, j + 1, commutes(i, j)) for i in range(N) for j in range(i + 1, N)
    )
    hbar = build_static_hamiltonian(unit)
    static = tuple(
        op_commutator(hbar, barred[i - 1])
        == MixedOperator.from_coefficient(potential_euler(N, m, i), m)
        for i in range(1, N + 1)
    )
    return barred, commuting, static


# -- the lattice condition --------------------------------------------------------


def _is_exact(positions) -> bool:
    return all(isinstance(q, CycloScalar) for q in positions)


def _lifted(positions, m: int):
    """The positions in one field, Q(zeta_L) with L the lcm of m and their
    orders, and its zero; complex floats and 0j when they are not exact."""
    if not _is_exact(positions):
        return list(positions), 0j
    order = lcm(m, *(q.order for q in positions))
    return [p.lift(order) for p in positions], CycloScalar.zero(order)


def image_values(family: str, positions, m: int, couplings: dict):
    """(c, g, e, v, 1 / (1 - v)) for each image (x, c, g) of the table the
    lattice family freezes, with x = s q^e and v its value at the positions:
    exact when the positions are exact scalars, lifted into one field, and
    complex floats otherwise.  Raises ``ZeroDivisionError`` when 1 - v
    vanishes (in floats: |1 - v|^3 below 1e-12, with |q| = 1)."""
    params = _static_params(family, len(positions), m, couplings)
    exact = _is_exact(positions)
    q, zero = _lifted(positions, m)
    inv = [1 / p for p in q]
    for x, c, g in hamiltonian_images(params):
        ((e, _),) = x.terms.items()
        v = x.coeff(e)
        v = v.lift(zero.order) if exact else v.to_complex()
        for k, a in enumerate(e):
            for _ in range(abs(a)):
                v = v * (q[k] if a > 0 else inv[k])
        d = 1 - v
        if d.is_zero() if exact else abs(d * d * d) < 1e-12:
            sites = [k + 1 for k, a in enumerate(e) if a]
            raise ZeroDivisionError(f"sites {sites} meet their image {x!r}: 1 - x = 0")
        yield c, g, e, v, 1 / d


# -- lattice configurations -------------------------------------------------------


@dataclass
class LatticeConfig:
    """Frozen-site data: site count, exact positions, boundary couplings."""

    family: str  # cyclic | dihedral-odd | dihedral-even
    N: int
    m: int
    L: int
    label: str
    positions: list
    couplings: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return _is_exact(self.positions)

    @cached_property
    def images(self) -> list:
        """``image_values`` here, computed once for the residuals and the chain."""
        return list(image_values(self.family, self.positions, self.m, self.couplings))

    def residuals(self):
        """dW/dq_l at every site, one value per site; all vanish on a lattice.

        W = -sum over the image table of c^2 x / (1 - x)^2 is the classical
        potential, the identity coefficient of the Hamiltonian of
        ``_static_params``; the sites freeze at its equilibria.  An image
        x = s q^e with coupling c contributes
        -c^2 e_l x (1 + x) / (q_l (1 - x)^3) to site l.
        """
        q, zero = _lifted(self.positions, self.m)
        grad = [zero] * len(q)
        for c, _, e, v, r in self.images:
            w = v * (1 + v) * (r * r * r) * (c * c)
            for k, a in enumerate(e):
                if a:
                    grad[k] = grad[k] - w * a
        return [g / p for g, p in zip(grad, q)]

    @cached_property
    def residual_max(self):
        """The string "0" when every residual vanishes exactly, else the
        largest magnitude; computed once per configuration."""
        res = self.residuals()
        if self.exact:
            if all(r.is_zero() for r in res):
                return "0"
            return max(abs(r.to_complex()) for r in res)
        return max(abs(r) for r in res)

    def to_json(self) -> dict:
        if self.exact:
            pos = [q.to_json() for q in self.positions]
        else:
            pos = [[q.real, q.imag] for q in self.positions]
        return {
            "family": self.family,
            "N": self.N,
            "m": self.m,
            "L": self.L,
            "label": self.label,
            "positions": pos,
            "couplings": {k: str(v) for k, v in self.couplings.items()},
            "residual_max": self.residual_max,
        }


def build_lattice(family: str, N: int, m: int, label: str = "auto") -> LatticeConfig:
    """Exact lattice configurations with vanishing residuals.

    The cyclic family places the sites at N consecutive (m N)-th roots of
    unity.  The odd-m dihedral family has four equidistant patterns,
    distinguished by the site count and the squared boundary couplings;
    positions are either at the L-th roots of unity or shifted half a step.
    The even-m dihedral family has one row, at two sites: the first two
    (4m)-th roots of unity with mu^2 = 4 (``scan_equidistant`` finds no
    equidistant solution at three or four sites).
    """
    if family == "cyclic":
        L = m * N
        positions = [CycloScalar.root_of_unity(L, k) for k in range(1, N + 1)]
        return LatticeConfig("cyclic", N, m, L, "cyclic", positions)
    if family == "dihedral-even":
        if m % 2 or N != 2:
            raise ValueError(
                "the exact even-m dihedral lattice has N = 2; use "
                "scan_equidistant for other N"
            )
        L = 4 * m
        positions = [CycloScalar.root_of_unity(L, k) for k in (1, 2)]
        return LatticeConfig(family, N, m, L, family, positions, {"mu2": Fraction(4)})
    if family != "dihedral-odd":
        raise ValueError(f"unknown lattice family {family!r}")
    if m % 2 == 0:
        raise ValueError("the dihedral lattice table requires odd m")
    if label == "auto":
        label = "L2Nm"
    if label == "L2Nm":
        L = 2 * N * m
        couplings = {"beta2": Fraction(1, 4), "gamma2": Fraction(1, 4)}
        positions = [CycloScalar.root_of_unity(2 * L, 2 * k - 1) for k in range(1, N + 1)]
    elif label == "L2NmPlusM_halfshift":
        L = 2 * N * m + m
        couplings = {"beta2": Fraction(9, 4), "gamma2": Fraction(1, 4)}
        positions = [CycloScalar.root_of_unity(2 * L, 2 * k - 1) for k in range(1, N + 1)]
    elif label == "L2NmPlusM_integer":
        L = 2 * N * m + m
        couplings = {"beta2": Fraction(1, 4), "gamma2": Fraction(9, 4)}
        positions = [CycloScalar.root_of_unity(L, k) for k in range(1, N + 1)]
    elif label == "L2Np1m":
        L = 2 * (N + 1) * m
        couplings = {"beta2": Fraction(9, 4), "gamma2": Fraction(9, 4)}
        positions = [CycloScalar.root_of_unity(L, k) for k in range(1, N + 1)]
    else:
        raise ValueError(f"unknown lattice label {label!r}; choose from {LATTICE_LABELS}")
    return LatticeConfig("dihedral-odd", N, m, L, label, positions, couplings)


def equidistant_lattice(
    family: str, N: int, m: int, L: int, offset=Fraction(0), couplings=None
) -> LatticeConfig:
    """Numeric equidistant configuration q_k = exp(2 pi i (k - offset)/L)."""
    positions = [
        cmath.exp(2j * cmath.pi * (k - float(offset)) / L) for k in range(1, N + 1)
    ]
    return LatticeConfig(family, N, m, L, "custom", positions, dict(couplings or {}))


# -- frozen Hamiltonians ------------------------------------------------------------


@dataclass
class FrozenHamiltonian:
    """Static chain on a lattice: (coupling, group element) terms, one per
    group element, nonzero and sorted; couplings are ``CycloScalar`` on
    exact lattices and complex otherwise."""

    lattice: LatticeConfig
    terms: list  # (CycloScalar or complex, WreathElement)
    warning: str | None  # set when the lattice residuals do not vanish


def _static_params(family: str, N: int, m: int, couplings: dict) -> ModelParams:
    """The model whose image table a lattice family freezes: unit exchange
    coupling, boundary couplings the square roots of the squared ones."""
    if family == "cyclic":
        return ModelParams("cyclic", N, m, Fraction(1))
    if (family == "dihedral-odd") != (m % 2 == 1):
        raise ValueError(f"the {family} family does not take m = {m}")
    if family == "dihedral-odd":
        beta = rational_sqrt(couplings["beta2"])
        gamma = rational_sqrt(couplings["gamma2"])
        return ModelParams("dihedral", N, m, Fraction(1), beta + gamma, beta - gamma)
    return ModelParams("dihedral", N, m, Fraction(1), rational_sqrt(couplings["mu2"]))


def rational_sqrt(x) -> Fraction:
    x = Fraction(x)
    if x >= 0:
        num, den = isqrt(x.numerator), isqrt(x.denominator)
        if num * num == x.numerator and den * den == x.denominator:
            return Fraction(num, den)
    raise ValueError(f"{x} has no rational square root; positive roots only")


def build_frozen_hamiltonian(lattice: LatticeConfig) -> FrozenHamiltonian:
    """The frozen chain: per group element g, the sum of the image kernels
    c v / (1 - v)^2 over the images on g, at the lattice positions
    (``image_values``), for every family and lattice.  Couplings that
    vanish there are dropped.

    Refuses to claim integrability when the lattice residuals do not
    vanish; the chain is still built, flagged with a warning.
    """
    rmax = lattice.residual_max
    sums: dict = {}
    for c, g, _, v, r in lattice.images:
        w = v * (r * r) * c
        sums[g] = sums[g] + w if g in sums else w
    if lattice.exact:
        terms = [(w, g) for g, w in sums.items() if not w.is_zero()]
    else:
        terms = [(w, g) for g, w in sums.items() if abs(w) > 1e-15]
    terms.sort(key=lambda t: t[1].sort_key())
    ok = rmax == "0" or (isinstance(rmax, float) and rmax < EXACT_RESIDUAL)
    warning = None if ok else (
        "lattice residuals do not vanish; the chain is built but no "
        "commutation claims are made"
    )
    return FrozenHamiltonian(lattice, terms, warning)


# -- equidistant scan ------------------------------------------------------------------


def scan_equidistant(
    family: str,
    N: int,
    m: int,
    l_values,
    offsets=(Fraction(0), Fraction(1, 2)),
    coupling_grid=None,
) -> list[dict]:
    """Numeric sweep over equidistant candidate lattices.

    Positions are q_k = exp(2 pi i (k - offset)/L).  Records the worst-site
    residual magnitude for every valid candidate, sorted ascending;
    candidates that hit an image coincidence are skipped.  Residuals below
    ``EXACT_RESIDUAL`` are round-off of exact lattices and count as tied:
    those rows keep candidate order (L, then offset, then the coupling
    grid), so float summation order cannot reorder them.
    """
    odd = m % 2 == 1
    if family == "cyclic":
        grid = [None]
    elif coupling_grid is not None:
        grid = list(coupling_grid)
    elif odd:
        vals = (Fraction(1, 4), Fraction(9, 4))
        grid = [{"beta2": b, "gamma2": g} for b in vals for g in vals]
    else:
        grid = [{"mu2": v} for v in (Fraction(1, 4), Fraction(1), Fraction(9, 4), Fraction(4))]

    label = family if family == "cyclic" else ("dihedral-odd" if odd else "dihedral-even")

    def evaluate(candidate):
        L, offset, couplings = candidate
        try:
            res = equidistant_lattice(label, N, m, L, offset, couplings).residuals()
        except ZeroDivisionError:
            return None
        rec = {
            "L": L,
            "offset": str(offset),
            "residual": max(abs(r) for r in res),
        }
        if couplings:
            rec["couplings"] = {k: str(v) for k, v in couplings.items()}
        return rec

    candidates = [
        (L, offset, couplings)
        for L in l_values
        for offset in offsets
        for couplings in grid
    ]
    records = [r for r in map(evaluate, candidates) if r is not None]
    records.sort(key=lambda r: max(r["residual"], EXACT_RESIDUAL))
    return records


def static_display_check(params: ModelParams) -> CheckSuite:
    """Static Hamiltonian versus its literal two-body/boundary layout,
    written out independently of the image table.

    For the cyclic family the two agree as printed.  For
    the dihedral family the direct-exchange terms must be read with the
    rotation offset reversed relative to the group element they multiply;
    the engine pins that orientation here (the two readings differ for
    m > 2, and only this one is the coupling-linear part of the dynamical
    Hamiltonian, which is what freezing requires).
    """
    N, m = params.size, params.order
    suite = CheckSuite("static-display")
    idx = params.to_json()
    hbar = build_static_hamiltonian(params)
    one = LaurentPoly.constant(N, 1, m)
    direct = MixedOperator.zero(N, m)
    for k in range(1, N + 1):
        qk = LaurentPoly.variable(k, N, m)
        for l in range(1, N + 1):
            if k == l:
                continue
            ql = LaurentPoly.variable(l, N, m)
            for s in range(m):
                tau_s = CycloScalar.root_of_unity(m, s)
                v1 = RationalCoefficient.ratio(tau_s * ql * qk, qk - tau_s * ql, 2)
                direct = direct + MixedOperator.term(
                    v1, exchange_element(N, m, l, k, (-s) % m)
                )
                if params.family == "dihedral":
                    v2 = RationalCoefficient.ratio(
                        tau_s * ql * qk, tau_s * ql * qk - one, 2
                    )
                    direct = direct + MixedOperator.term(
                        v2, reflected_exchange_element(N, m, l, k, s)
                    )
    if params.family == "dihedral":
        if m % 2:
            beta, gamma = params.beta, params.gamma
            for l in range(1, N + 1):
                ql = LaurentPoly.variable(l, N, m)
                for s in range(m):
                    tau_s = CycloScalar.root_of_unity(m, s)
                    vb = RationalCoefficient.ratio(
                        tau_s * ql * gamma, one - tau_s * ql, 2
                    ) - RationalCoefficient.ratio(
                        tau_s * ql * beta, one + tau_s * ql, 2
                    )
                    direct = direct + MixedOperator.term(
                        vb, boundary_element(N, m, l, 2 * s)
                    )
        else:
            mu = params.mu
            for l in range(1, N + 1):
                ql = LaurentPoly.variable(l, N, m)
                for s in range(m):
                    tau_s = CycloScalar.root_of_unity(m, s)
                    vb = RationalCoefficient.ratio(
                        tau_s * ql * mu, one - tau_s * ql, 2
                    )
                    direct = direct + MixedOperator.term(
                        vb, boundary_element(N, m, l, 2 * s)
                    )
    suite.add(
        "extraction matches the literal static layout (direct offset reversed)",
        idx,
        hbar == direct,
    )
    return suite
