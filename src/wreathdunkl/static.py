"""Freezing machinery: barred operators, lattice conditions, frozen chains.

Dropping the derivative part of a Dunkl operator leaves the barred operator,
a pure difference operator that still commutes with its siblings.  The
static Hamiltonian is the part of the dynamical one that is linear in the
couplings (with the boundary couplings rescaled proportionally), up to
sign.  The Hamiltonian is written as a sum over its image table, so that
part is read off the table: ``build_static_hamiltonian`` is
``dunkl.image_operator`` at unit exchange coupling.  ``verify`` checks it
against its literal layout and the barred operators, and the frozen chain
is its coefficients evaluated at the lattice positions.  Freezing the
positions at special lattices makes the static operator commute with the
barred operators; the lattice conditions are rational identities in the
positions and are checked in exact cyclotomic arithmetic whenever the
positions are roots of unity.

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
from functools import cached_property
from math import gcd

from .cyclotomic import CycloScalar
from .dunkl import (
    ModelParams,
    balanced_sum,
    boundary_element,
    build_dunkl,
    exchange_element,
    hamiltonian_images,
    image_operator,
    inverse_square,
    reflected_exchange_element,
)
from .opalg import MixedOperator, op_commutator
from .polyalg import LaurentPoly, RationalCoefficient
from .reports import CheckSuite

LATTICE_LABELS = ("L2Nm", "L2NmPlusM_halfshift", "L2NmPlusM_integer", "L2Np1m")


# -- barred operators and the scalar potential ---------------------------------


def build_barred(params: ModelParams, i: int) -> MixedOperator:
    """The coupling-stripped difference part of the cyclic Dunkl operator."""
    if params.family != "cyclic":
        raise ValueError("barred operators are built for the cyclic family")
    unit = ModelParams("cyclic", params.size, params.order, Fraction(1))
    d = build_dunkl(unit, i)
    euler = MixedOperator.euler(
        params.size, i, order=d.order, group_order=params.order
    )
    return d - euler


def scalar_potential(params: ModelParams) -> RationalCoefficient:
    """Two-body inverse-square potential of the cyclic model (scalar part):
    the sum of x / (1 - x)^2 over the cyclic two-body images."""
    cyclic = ModelParams("cyclic", params.size, params.order, Fraction(1))
    terms = [inverse_square(x) for x, _, _ in hamiltonian_images(cyclic)]
    return balanced_sum([RationalCoefficient.zero(params.size, params.order)] + terms)


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
    """Operator-level identities behind the freezing construction."""
    N = params.size
    suite = CheckSuite("freezing-identities")
    idx = params.to_json()
    if params.family != "cyclic":
        raise ValueError("the freezing identities are checked for the cyclic family")
    barred = [build_barred(params, i) for i in range(1, N + 1)]
    for i in range(1, N + 1):
        d = build_dunkl(params, i)
        euler = MixedOperator.euler(N, i, order=d.order, group_order=params.order)
        recomposed = euler + barred[i - 1].scale(params.lam)
        suite.add(
            "Dunkl = Euler + lambda * barred", {**idx, "i": i}, d == recomposed
        )
    for i in range(N):
        for j in range(i + 1, N):
            suite.add(
                "[barred_i, barred_j] = 0",
                {**idx, "i": i + 1, "j": j + 1},
                op_commutator(barred[i], barred[j]).is_zero(),
            )
    hbar = build_static_hamiltonian(
        ModelParams("cyclic", N, params.order, Fraction(1))
    )
    v = scalar_potential(params)
    for i in range(1, N + 1):
        comm = op_commutator(hbar, barred[i - 1])
        target = MixedOperator.from_coefficient(v.euler(i), params.order)
        suite.add(
            "[static H, barred_i] = euler_i(potential)",
            {**idx, "i": i},
            comm == target,
        )
    return suite


# -- lattice residual conditions ------------------------------------------------


def _is_exact(positions) -> bool:
    return all(isinstance(q, CycloScalar) for q in positions)


def _sites_and_rotations(positions, m: int):
    """Positions and m-th roots of unity; exact ones share their lcm field."""
    if not _is_exact(positions):
        return positions, [cmath.exp(2j * cmath.pi * s / m) for s in range(m)], False
    order = m
    for q in positions:
        order = order * q.order // gcd(order, q.order)
    positions = [q.lift(order) for q in positions]
    return positions, [CycloScalar.root_of_unity(m, s).lift(order) for s in range(m)], True


def _vanishes(x) -> bool:
    if isinstance(x, CycloScalar):
        return x.is_zero()
    return abs(x) < 1e-12


def residual_cyclic(positions, m: int):
    """Left side of the cyclic lattice condition, one value per site.

    Exact cyclotomic arithmetic when the positions are exact scalars,
    complex floats otherwise.  Raises on coincident rotated images.
    """
    positions, taus, exact = _sites_and_rotations(positions, m)
    N = len(positions)
    out = []
    for i in range(N):
        qi = positions[i]
        acc = None
        for j in range(N):
            if j == i:
                continue
            qj = positions[j]
            for t in taus:
                den = (qi - t * qj) ** 3
                if _vanishes(den):
                    raise ZeroDivisionError(
                        f"sites {i+1} and {j+1} coincide under rotation"
                    )
                piece = t * qi * qj * (qi + t * qj) / den
                acc = piece if acc is None else acc + piece
        if acc is None:
            acc = CycloScalar.zero(1) if exact else 0j
        out.append(acc)
    return out


def residual_dihedral(positions, m: int, beta2=None, gamma2=None, mu2=None):
    """Left side of the dihedral lattice condition, one value per site.

    Odd m takes the squared boundary couplings (beta2, gamma2); even m
    takes mu2.  Everything else mirrors the cyclic case.
    """
    odd = m % 2 == 1
    if odd and (beta2 is None or gamma2 is None):
        raise ValueError("odd m needs beta2 and gamma2")
    if not odd and mu2 is None:
        raise ValueError("even m needs mu2")
    positions, taus, exact = _sites_and_rotations(positions, m)
    N = len(positions)

    def lift_coupling(c):
        if exact:
            return CycloScalar.rational(Fraction(c))
        return complex(Fraction(c))

    if odd:
        b2, g2 = lift_coupling(beta2), lift_coupling(gamma2)
    else:
        u2 = lift_coupling(mu2)
    one = CycloScalar.one(1) if exact else 1.0
    out = []
    for l in range(N):
        ql = positions[l]
        acc = None
        for t in taus:
            inner = None
            for j in range(N):
                if j == l:
                    continue
                qj = positions[j]
                den1 = (ql - t * qj) ** 3
                den2 = (t * ql * qj - one) ** 3
                if _vanishes(den1) or _vanishes(den2):
                    raise ZeroDivisionError(
                        f"sites {l+1} and {j+1} coincide under the dihedral images"
                    )
                piece = qj * (ql + t * qj) / den1 + qj * (t * ql * qj + one) / den2
                inner = piece if inner is None else inner + piece
            if inner is None:
                inner = CycloScalar.zero(1) if exact else 0j
            inner = inner + inner  # the two-body part enters twice
            denp = (one + t * ql) ** 3
            denm = (one - t * ql) ** 3
            if _vanishes(denp) or _vanishes(denm):
                raise ZeroDivisionError(
                    f"site {l+1} coincides with a boundary image"
                )
            if odd:
                inner = inner + b2 * (one - t * ql) / denp - g2 * (one + t * ql) / denm
            else:
                inner = inner - u2 * (one + t * ql) / denm
            piece = t * inner
            acc = piece if acc is None else acc + piece
        out.append(acc)
    return out


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

    def residuals(self):
        if self.family == "cyclic":
            return residual_cyclic(self.positions, self.m)
        # the couplings are keyed by the squared-coupling arguments
        return residual_dihedral(self.positions, self.m, **self.couplings)

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
    unity.  The dihedral family (odd m only) has four equidistant patterns,
    distinguished by the site count and the squared boundary couplings;
    positions are either at the L-th roots of unity or shifted half a step.
    """
    if family == "cyclic":
        L = m * N
        positions = [CycloScalar.root_of_unity(L, k) for k in range(1, N + 1)]
        return LatticeConfig("cyclic", N, m, L, "cyclic", positions)
    if family != "dihedral-odd":
        raise ValueError(
            "exact lattice tables exist for the cyclic family and odd-m "
            "dihedral family only; use scan_equidistant for even m"
        )
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
    residual_max: object  # "0" or float
    integrable: bool
    warning: str | None = None


def _static_params(lattice: LatticeConfig) -> ModelParams:
    if lattice.family == "cyclic":
        return ModelParams("cyclic", lattice.N, lattice.m, Fraction(1))
    if lattice.family == "dihedral-odd":
        b2, g2 = lattice.couplings["beta2"], lattice.couplings["gamma2"]
        beta, gamma = rational_sqrt(b2), rational_sqrt(g2)
        return ModelParams(
            "dihedral", lattice.N, lattice.m, Fraction(1), beta + gamma, beta - gamma
        )
    mu = rational_sqrt(lattice.couplings["mu2"])
    return ModelParams("dihedral", lattice.N, lattice.m, Fraction(1), mu, 0)


def rational_sqrt(x) -> Fraction:
    x = Fraction(x)
    num = _isqrt(x.numerator)
    den = _isqrt(x.denominator)
    if num is None or den is None:
        raise ValueError(f"{x} has no rational square root; positive roots only")
    return Fraction(num, den)


def _isqrt(v: int):
    if v < 0:
        return None
    r = int(v**0.5)
    for c in (r - 1, r, r + 1):
        if c >= 0 and c * c == v:
            return c
    return None


def build_frozen_hamiltonian(lattice: LatticeConfig) -> FrozenHamiltonian:
    """The frozen chain: the static Hamiltonian with the lattice positions
    substituted into its coefficients, for every family and lattice.
    Couplings that vanish there are dropped.

    Refuses to claim integrability when the lattice residuals do not
    vanish; the chain is still built, flagged with a warning.
    """
    rmax = lattice.residual_max
    terms = []
    for (_, g), c in build_static_hamiltonian(_static_params(lattice)).sorted_terms():
        if lattice.exact:
            value = c.eval_exact(lattice.positions)
            if not value.is_zero():
                terms.append((value, g))
        else:
            value = c.eval_complex(tuple(lattice.positions))
            if abs(value) > 1e-15:
                terms.append((value, g))
    ok = rmax == "0" or (isinstance(rmax, float) and rmax < 1e-12)
    warning = None if ok else (
        "lattice residuals do not vanish; the chain is built but no "
        "commutation claims are made"
    )
    return FrozenHamiltonian(lattice, terms, rmax, ok, warning)


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
    candidates that hit an image coincidence are skipped.
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
    records.sort(key=lambda r: r["residual"])
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
    order = m
    suite = CheckSuite("static-display")
    idx = params.to_json()
    hbar = build_static_hamiltonian(params)
    one = LaurentPoly.constant(N, 1, order)
    direct = MixedOperator.zero(N, order, m)
    for k in range(1, N + 1):
        qk = LaurentPoly.variable(k, N, order)
        for l in range(1, N + 1):
            if k == l:
                continue
            ql = LaurentPoly.variable(l, N, order)
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
                ql = LaurentPoly.variable(l, N, order)
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
                ql = LaurentPoly.variable(l, N, order)
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
