"""Dunkl operators, conserved charges and Hamiltonians.

Two families are built here.  The cyclic family attaches a rotation group of
order m to every site; each particle interacts with the rotated images of
the others, and the commuting operators d_i realize an extended degenerate
affine Hecke algebra on top of the rotation wreath group.  The dihedral
family adds per-site reflections q -> 1/q, giving boundary terms and two
extra couplings; its operators realize the analogous extension of the full
dihedral wreath group.

Every closed-form Hamiltonian is one sum over a table of images (x, c, g),
built by ``hamiltonian_images``:

    H = sum_i D_i^2 - sum over images of c (c + g) x / (1 - x)^2

with x a monomial times a root of unity, c its coupling and g the group
element of the image: x = tau^s q_j / q_i on the rotated exchanges,
x = tau^s q_i q_j on their mirror images, and x = +-tau^s q_i on the
rotated boundary reflections.  A two-body kernel keeps the binomial 1 - x
squared in its denominator, where exact division tests it as a binomial.
A boundary kernel is written x (1 + x)^2 / (1 - x^2)^2, over the quadratic
q_i^2 - tau^(-2s) that the Dunkl boundary coefficient carries, so H and
sum_i D_i^2 come in one factorization and their difference adds over
equal denominators (``inverse_square``).  The part of H linear in the
couplings is minus ``image_operator``, the sum of c x / (1 - x)^2 g over
the table.  At unit exchange coupling that sum is
the static Hamiltonian (``static.build_static_hamiltonian``), and its
coefficients at the lattice positions are the frozen chain's couplings.
The scalar potential of the static chain sums the same table, and the
lattice condition (``static.LatticeConfig.residuals``) differentiates it.

Every operator and image lives over Q(zeta_m), the field of the rotations.
At odd m and rho = 0 the boundary is also one sum over the doubled rotation
group; ``hamiltonian_check`` proves that form equal to H on the image table
(``simplified_boundary_mismatch``), building no operator over Q(zeta_2m).

``build_dunkl`` writes the dihedral operator in the image form: the cyclic
operator of the same couplings, the mirror images of its exchange terms
and the boundary terms.  ``_dihedral_dunkl_split`` writes it a second way,
with the reflected and boundary pieces split by the half-sum and
half-difference of the boundary couplings; the Hecke suite keeps their
exact equality as a standing regression check.

The one-copy operators ``build_symmetric_dunkl`` and
``build_reflection_dunkl`` are the cyclic and image builders restricted to
the rotation copy s = 0, with lambda, mu and rho scaled by m, so that
averaging them over the site rotation reproduces the wreath operators
exactly; see ``rotation_average_check``.

The charges I^(k) = sum_i D_i^k commute because the D_i do.  The checks
compute each [D_i, D_j] once (``dunkl_commutator``) and reach every
[I^(k), I^(l)] from them by the Leibniz rule (``charges_commutator``), so
commuting operators make no product of charges.  Likewise each [D_j, g]
for a group element g is computed once (``dunkl_group_commutator``); the
[D_j, Q_i] give [I^(k), Q_i] (``charge_rotation_commutator``).

The identities are evaluated from coupling coefficients kept per
(family, N, m).  Let c_1, ..., c_n be the couplings (lambda; or lambda,
mu, rho), c_0 = 1, and A_{i,0} = d_i(0), A_{i,a} = d_i(e_a) - d_i(0) with
e_a the unit point of coupling a (``_pieces``, built by ``build_dunkl`` as
bound when called and kept per builder).  Each d_i is affine in the
couplings by construction: lambda multiplies every exchange term, and mu
and rho the boundary terms.  At a point p the checks assert exactly that
d_i(p) = sum_a c_a A_{i,a} at the sites they read (``_affine``), and a
builder that is not affine is an engine fault (``ValueError``).  Then
every multilinear f expands:

    f(d_i(p), d_j(p)) = sum_{s,t} c_s c_t f(A_{i,s}, A_{j,t})
                      = sum over monomials u of c^u C_u,

where C_u sums f(A_{i,s}, A_{j,t}) over the (s, t) whose nonzero indices
form u (``_coefficients``).  The operator of the item at p is
sum_u c^u C_u (``_at``): the same operator as the direct computation, so
verdicts and witnesses are exact, made from operators kept per
(family, N, m):

* [d_i, d_j] (f the commutator; ``_dunkl_coefficients``), and [d_i, g]
  for a group element g (f linear; ``_group_coefficients``);
* H - sum_i d_i^2.  J2 = sum_i d_i^2 expands with f the product, summed
  over i.  H = sum_i D_i^2 - sum over rows of c (c + g) x / (1 - x)^2
  expands because the rows of ``hamiltonian_images`` at p are those at the
  unit points with c = sum_a c_a c_{row,a} (asserted by ``_linear_images``):
  its coefficient at c_a is minus the image sum of c_{row,a}, and at
  c_a c_b minus the identity times the sum of c_{row,a} c_{row,b} (doubled
  for a != b) x / (1 - x)^2 (``_hamiltonian_coefficients``);
* [J^(k), g] for k <= 2, including the coupling-free part
  sum_i d_i(0)^k (``_charge_group_coefficients``);
* the rotation average, with the one-copy operator decomposed the same
  way: Pi_j^0 Pi_i^0 is linear, so its coefficients are the projected
  one-copy pieces minus the A_{i,a} (``_average_coefficients``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import prod

from .cyclotomic import CycloScalar
from .groups import GroupSpec, WreathElement, generator
from .opalg import MixedOperator, ad_projector, first_term_witness, op_commutator, op_compose
from .polyalg import LaurentPoly, RationalCoefficient
from .reports import CheckSuite

FAMILIES = ("cyclic", "dihedral")


@dataclass(frozen=True)
class ModelParams:
    """Couplings and sizes of one model instance.

    ``lam`` multiplies the exchange terms; ``mu`` and ``rho`` drive the
    dihedral boundary and are ignored by the cyclic family.  The derived
    combinations beta and gamma are the half-sum and half-difference of
    (mu, rho) and are never stored independently.
    """

    family: str
    size: int
    order: int
    lam: Fraction = Fraction(0)
    mu: Fraction = Fraction(0)
    rho: Fraction = Fraction(0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.size < 1 or self.order < 1:
            raise ValueError("size and order must be positive")
        for name in ("lam", "mu", "rho"):
            v = getattr(self, name)
            if isinstance(v, float):
                raise TypeError(f"{name} must be an exact rational, not a float")
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))

    @property
    def beta(self) -> Fraction:
        return (self.mu + self.rho) / 2

    @property
    def gamma(self) -> Fraction:
        return (self.mu - self.rho) / 2

    @property
    def group_spec(self) -> GroupSpec:
        fam = "W(m,N)" if self.family == "dihedral" else "G(m,1,N)"
        return GroupSpec(fam, self.size, self.order)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "N": self.size,
            "m": self.order,
            "lambda": str(self.lam),
            "mu": str(self.mu),
            "rho": str(self.rho),
        }


# -- element and coefficient helpers ----------------------------------------


def exchange_element(N: int, m: int, i: int, j: int, s: int) -> WreathElement:
    """Q_i^{-s} P_ij Q_i^{s} in normal form."""
    rot = [0] * N
    rot[i - 1] = (-s) % m
    rot[j - 1] = s % m
    perm = list(range(N))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return WreathElement(N, m, tuple(perm), tuple(rot), (0,) * N)


def reflected_exchange_element(N: int, m: int, i: int, j: int, s: int) -> WreathElement:
    """K_i Q_i^{-s} P_ij Q_i^{s} K_i in normal form."""
    flip = [0] * N
    flip[i - 1] = 1
    k = WreathElement(N, m, tuple(range(N)), (0,) * N, tuple(flip))
    return k * exchange_element(N, m, i, j, s) * k

def boundary_element(N: int, m: int, i: int, r: int) -> WreathElement:
    """Q_i^{r} K_i in normal form."""
    rot = [0] * N
    rot[i - 1] = r % m
    flip = [0] * N
    flip[i - 1] = 1
    return WreathElement(N, m, tuple(range(N)), tuple(rot), tuple(flip))


def _q(i: int, N: int, order: int, power: int = 1) -> LaurentPoly:
    return LaurentPoly.variable(i, N, order, power)


_tau = CycloScalar.root_of_unity  # _tau(m, s) = tau^s, tau = zeta_m


# -- Dunkl operators ----------------------------------------------------------


@lru_cache(maxsize=256)
def build_dunkl(params: ModelParams, i: int) -> MixedOperator:
    """The commuting Dunkl operator attached to site i, in the image form.

    Recent operators are kept and shared (enough for every model of the
    default ``verify`` grid), so each is built once per model; callers
    never mutate an operator in place.
    """
    if not 1 <= i <= params.size:
        raise ValueError(f"site {i} out of range")
    if params.family == "cyclic":
        return _cyclic_dunkl(params, i)
    return _dihedral_dunkl_image(params, i)


def _cyclic_dunkl(params: ModelParams, i: int, copies=None) -> MixedOperator:
    N, m, lam = params.size, params.order, params.lam
    out = MixedOperator.euler(N, i, m)
    if lam == 0:
        return out
    one = LaurentPoly.constant(N, 1, m)
    for j in range(1, N + 1):
        if j == i:
            continue
        for s in copies or range(m):
            g = exchange_element(N, m, i, j, s)
            coeff = RationalCoefficient.ratio(
                _q(i, N, m), _q(i, N, m) - _tau(m, s) * _q(j, N, m)
            )
            out = out + MixedOperator.term(coeff * lam, g)
            if j > i:
                out = out + MixedOperator.term(
                    RationalCoefficient.from_poly(one * (-lam)), g
                )
    return out


def _dihedral_dunkl_image(params: ModelParams, i: int, copies=None) -> MixedOperator:
    """The cyclic operator of the same couplings plus the mirror images of
    its exchange terms and the boundary terms."""
    N, m = params.size, params.order
    lam, mu, rho = params.lam, params.mu, params.rho
    copies = copies or range(m)
    out = _cyclic_dunkl(params, i, copies)
    one = LaurentPoly.constant(N, 1, m)
    qi = _q(i, N, m)
    for j in range(1, N + 1):
        if j == i or not lam:
            continue
        qj = _q(j, N, m)
        for s in copies:
            mirror = RationalCoefficient.ratio(qi * qj, qi * qj - _tau(m, -s) * one)
            out = out + MixedOperator.term(mirror * lam, reflected_exchange_element(N, m, i, j, s))
    if mu or rho:
        for s in copies:
            num = qi * qi * mu - qi * (_tau(m, -s) * rho)
            den = qi * qi - _tau(m, -2 * s) * one
            out = out + MixedOperator.term(
                RationalCoefficient.ratio(num, den),
                boundary_element(N, m, i, 2 * s),
            )
    return out


def _dihedral_dunkl_split(params: ModelParams, i: int) -> MixedOperator:
    N, m = params.size, params.order
    lam, beta, gamma = params.lam, params.beta, params.gamma
    one = LaurentPoly.constant(N, 1, m)
    qi = _q(i, N, m)
    out = _cyclic_dunkl(ModelParams("cyclic", N, m, lam), i)
    for j in range(1, N + 1):
        if j == i:
            continue
        qj = _q(j, N, m)
        for s in range(m):
            if lam:
                tau_s = _tau(m, s)
                coeff = RationalCoefficient.ratio(
                    tau_s * qi * qj, tau_s * qi * qj - one
                )
                out = out + MixedOperator.term(
                    coeff * lam, reflected_exchange_element(N, m, i, j, s)
                )
    if beta or gamma:
        for s in range(m):
            tau_s = _tau(m, s)
            coeff = RationalCoefficient.ratio(
                tau_s * qi * beta, tau_s * qi + one
            ) + RationalCoefficient.ratio(tau_s * qi * gamma, tau_s * qi - one)
            out = out + MixedOperator.term(coeff, boundary_element(N, m, i, 2 * s))
    return out


def _one_copy(params: ModelParams) -> ModelParams:
    m = params.order
    return ModelParams(
        params.family, params.size, m, m * params.lam, m * params.mu, m * params.rho
    )


def build_symmetric_dunkl(params: ModelParams, i: int) -> MixedOperator:
    """One-copy exchange Dunkl operator: the cyclic operator restricted to
    the rotation copy s = 0, with coupling m * lambda.

    Lives in the same algebra as the cyclic family (group order m); its
    rotation average is the cyclic operator.
    """
    return _cyclic_dunkl(_one_copy(params), i, copies=(0,))


def build_reflection_dunkl(params: ModelParams, i: int) -> MixedOperator:
    """One-copy reflection Dunkl operator: the dihedral image form restricted
    to the rotation copy s = 0, with lambda, mu and rho scaled by m.

    With this normalization the rotation average reproduces ``build_dunkl``
    for the dihedral family exactly.
    """
    return _dihedral_dunkl_image(_one_copy(params), i, copies=(0,))


def _one_copy_dunkl(params: ModelParams, i: int) -> MixedOperator:
    if params.family == "cyclic":
        return build_symmetric_dunkl(params, i)
    return build_reflection_dunkl(params, i)


# -- charges and Hamiltonians --------------------------------------------------


@lru_cache(maxsize=64)
def build_charge(params: ModelParams, k: int) -> MixedOperator:
    """Power-sum conserved charge: sum over sites of the k-th Dunkl power.

    Kept and shared like ``build_dunkl``.
    """
    if k < 1:
        raise ValueError("charge index must be at least 1")
    total = None
    for i in range(1, params.size + 1):
        d = build_dunkl(params, i)
        total = d**k if total is None else total + d**k
    return total


@lru_cache(maxsize=256)
def dunkl_commutator(params: ModelParams, i: int, j: int) -> MixedOperator:
    """[d_i, d_j] for sites i < j, from its coupling coefficients
    (``_dunkl_coefficients``).

    Kept and shared like ``build_charge``: the Hecke suite's "[d_i, d_j] = 0"
    items and the charge commutators read the same operator.
    """
    if not 1 <= i < j <= params.size:
        raise ValueError(f"need 1 <= i < j <= N, got i={i}, j={j}")
    _affine(build_dunkl, params, i)
    _affine(build_dunkl, params, j)
    return _at(params, _dunkl_coefficients(build_dunkl, params.family, params.size,
                                           params.order, i, j))


@lru_cache(maxsize=1024)
def dunkl_group_commutator(params: ModelParams, i: int, g: WreathElement) -> MixedOperator:
    """[d_i, g] for a site i and a group element g, from its coupling
    coefficients (``_group_coefficients``).

    Kept and shared like ``dunkl_commutator``: the Hecke suite's site
    items, among them "[d_i, Q_j] = 0", and ``charge_rotation_commutator``
    read the same operator.
    """
    _affine(build_dunkl, params, i)
    return _at(params, _group_coefficients(build_dunkl, params.family, params.size,
                                           params.order, i, g))


def power_commutator(d: MixedOperator, c: MixedOperator, l: int) -> MixedOperator:
    """sum_{s<l} d^s c d^(l-1-s).

    In any associative algebra this is [A, d^l] when c = [A, d], and
    [d^l, B] when c = [d, B].  A zero c makes no product.
    """
    if c.is_zero():
        return c
    powers = [None, d]  # powers[s] = d^s for 1 <= s < l
    while len(powers) < l:
        powers.append(op_compose(powers[-1], d))
    total = None
    for s in range(l):
        term = c if s == 0 else op_compose(powers[s], c)
        if s < l - 1:
            term = op_compose(term, powers[l - 1 - s])
        total = term if total is None else total + term
    return total


def charge_dunkl_commutator(params: ModelParams, k: int, j: int) -> MixedOperator:
    """[I^(k), d_j] from the [d_i, d_j] alone, without building I^(k).

    [I^(k), d_j] = sum_{i != j} [d_i^k, d_j] = sum_{i != j} sum_{t<k} d_i^t
    [d_i, d_j] d_i^(k-1-t), with each [d_i, d_j] read from
    ``dunkl_commutator``; a vanishing one makes no product.
    """
    total = MixedOperator.zero(params.size, params.order)
    for i in range(1, params.size + 1):
        if i == j:
            continue
        c = dunkl_commutator(params, i, j) if i < j else -dunkl_commutator(params, j, i)
        total = total + power_commutator(build_dunkl(params, i), c, k)
    return total


def charge_rotation_commutator(params: ModelParams, k: int, i: int) -> MixedOperator:
    """[I^(k), Q_i] = sum_j sum_{s<k} d_j^s [d_j, Q_i] d_j^(k-1-s), an exact
    identity of the operator algebra, without building I^(k).

    Each [d_j, Q_i] is read from ``dunkl_group_commutator``; a vanishing
    one makes no product.
    """
    qi = generator(params.group_spec, "Q", i=i)
    total = MixedOperator.zero(params.size, params.order)
    for j in range(1, params.size + 1):
        c = dunkl_group_commutator(params, j, qi)
        total = total + power_commutator(build_dunkl(params, j), c, k)
    return total


def charges_commutator(params: ModelParams, k: int, l: int) -> MixedOperator:
    """[I^(k), I^(l)] = sum_j sum_{s<l} d_j^s [I^(k), d_j] d_j^(l-1-s).

    Both Leibniz sums (this one and ``charge_dunkl_commutator``) are exact
    identities of the operator algebra, so the result is the direct
    commutator of the two charges in normal form, built from the
    [d_i, d_j] without forming either charge.  When the d's commute every
    term vanishes and no product is made.
    """
    total = MixedOperator.zero(params.size, params.order)
    for j in range(1, params.size + 1):
        c = charge_dunkl_commutator(params, k, j)
        total = total + power_commutator(build_dunkl(params, j), c, l)
    return total


# -- coupling coefficients -------------------------------------------------------


def _coupling_units(family: str, N: int, m: int) -> tuple:
    """The unit point of each coupling of the family: lambda, then mu and rho."""
    units = [ModelParams(family, N, m, Fraction(1))]
    if family == "dihedral":
        units += [ModelParams(family, N, m, mu=Fraction(1)),
                  ModelParams(family, N, m, rho=Fraction(1))]
    return tuple(units)


def _coordinates(params: ModelParams) -> tuple:
    """The couplings of ``params`` in the order of ``_coupling_units``."""
    if params.family == "cyclic":
        return (params.lam,)
    return (params.lam, params.mu, params.rho)


@lru_cache(maxsize=64)
def _pieces(build, family: str, N: int, m: int) -> tuple:
    """Per site i, (A_0, A_1, ...): A_0 = build(zero couplings, i) and
    A_a = build(unit a, i) - A_0.  Kept per builder, so a rebound
    ``build_dunkl`` gets pieces of its own."""
    zero = ModelParams(family, N, m)
    out = []
    for i in range(1, N + 1):
        base = build(zero, i)
        out.append((base,) + tuple(build(u, i) - base for u in _coupling_units(family, N, m)))
    return tuple(out)


def _coefficients(f, *factors) -> dict:
    """f(sum_a p_a A_a, sum_b p_b B_b, ...) for a multilinear f, with
    p_0 = 1, as a polynomial in the couplings: {monomial: operator}, a
    monomial being the sorted tuple of its coupling indices a > 0."""
    out = {}
    for word in product(*(range(len(A)) for A in factors)):
        key = tuple(sorted(a for a in word if a))
        value = f(*(A[a] for A, a in zip(factors, word)))
        out[key] = out[key] + value if key in out else value
    return out


def _at(params: ModelParams, coeffs: dict) -> MixedOperator:
    """sum over monomials u of p^u C_u: the coupling coefficients
    {u: C_u} of ``_coefficients`` evaluated at the couplings p of
    ``params``, skipping zero coefficients and zero weights."""
    c = _coordinates(params)
    total = MixedOperator.zero(params.size, params.order)
    for u, C in coeffs.items():
        weight = prod(c[a - 1] for a in u)
        if weight and not C.is_zero():
            total = total + (C if weight == 1 else C.scale(weight))
    return total


@lru_cache(maxsize=1024)
def _affine(build, params: ModelParams, i: int) -> None:
    """Assert exactly that build(p, i) = sum_a p_a A_a with the
    ``_pieces`` of ``build``, and raise ``ValueError`` otherwise.

    The builders are affine in the couplings by construction, so a
    failure is an engine fault, never a verdict of the model."""
    pieces = _pieces(build, params.family, params.size, params.order)[i - 1]
    if build(params, i) != _at(params, _coefficients(lambda A: A, pieces)):
        raise ValueError(f"{build.__name__} at site {i} is not affine in the couplings "
                         f"at {params.to_json()}")


@lru_cache(maxsize=256)
def _dunkl_coefficients(build, family: str, N: int, m: int, i: int, j: int) -> dict:
    """The coupling coefficients of [d_i, d_j]; the cyclic lambda^2
    coefficient (1, 1) is [A_{i,lambda}, A_{j,lambda}]."""
    pieces = _pieces(build, family, N, m)
    return _coefficients(op_commutator, pieces[i - 1], pieces[j - 1])


@lru_cache(maxsize=1024)
def _group_coefficients(build, family: str, N: int, m: int, i: int, g: WreathElement) -> dict:
    """The coupling coefficients of [d_i, g]."""
    G = MixedOperator.from_group(g)
    return _coefficients(lambda A: op_commutator(A, G), _pieces(build, family, N, m)[i - 1])


@lru_cache(maxsize=64)
def _charge_coefficients(build, family: str, N: int, m: int, k: int) -> dict:
    """The coupling coefficients of sum_i d_i^k."""
    out = {}
    for A in _pieces(build, family, N, m):
        for key, op in _coefficients(lambda *ds: reduce(op_compose, ds), *(A,) * k).items():
            out[key] = out[key] + op if key in out else op
    return out


@lru_cache(maxsize=256)
def _charge_group_coefficients(build, family: str, N: int, m: int, k: int,
                               g: WreathElement) -> dict:
    """The coupling coefficients of [sum_i d_i^k, g]."""
    G = MixedOperator.from_group(g)
    return {key: op_commutator(C, G)
            for key, C in _charge_coefficients(build, family, N, m, k).items()}


def _linear_images(params: ModelParams) -> None:
    """Assert that the rows of ``hamiltonian_images`` at p are those at
    the unit points, row by row, with the same x and g and
    c = sum_a p_a c_a, and raise ``ValueError`` otherwise (an engine fault,
    as the table is linear in the couplings by construction)."""
    table = hamiltonian_images(params)
    tables = [hamiltonian_images(u)
              for u in _coupling_units(params.family, params.size, params.order)]
    linear = all(len(t) == len(table) for t in tables) and all(
        all(ux == x and ug == g for ux, _, ug in units)
        and c == sum(p * uc for p, (_, uc, _) in zip(_coordinates(params), units))
        for (x, c, g), *units in zip(table, *tables))
    if not linear:
        raise ValueError(f"the image table is not linear in the couplings at {params.to_json()}")


@lru_cache(maxsize=32)
def _hamiltonian_coefficients(build, images, family: str, N: int, m: int) -> dict:
    """The coupling coefficients of H - sum_i d_i^2, H being read off the
    unit tables of ``images`` with the x and g of the first
    (``_linear_images`` asserts that they share them)."""
    units = _coupling_units(family, N, m)
    rows = list(zip(*(images(u) for u in units)))
    kernels = [inverse_square(x) for (x, _, _), *_ in rows]
    zero = MixedOperator.zero(N, m)
    ident = WreathElement.identity(N, m)
    h = {(): zero}
    for i in range(1, N + 1):
        h[()] = h[()] + MixedOperator.euler(N, i, m) ** 2
    n = len(units)
    for a in range(n):
        h[(a + 1,)] = -_image_sum(N, m, [(K, r[a][1], r[a][2]) for K, r in zip(kernels, rows)
                                         if r[a][1]])
        for b in range(a, n):
            squares = [K * (-(1 if a == b else 2) * r[a][1] * r[b][1])
                       for K, r in zip(kernels, rows) if r[a][1] and r[b][1]]
            if squares:
                h[(a + 1, b + 1)] = MixedOperator.term(balanced_sum(squares), ident)
    j2 = _charge_coefficients(build, family, N, m, 2)
    return {key: h.get(key, zero) - j2.get(key, zero) for key in dict.fromkeys([*h, *j2])}


def _single_site(x: LaurentPoly) -> bool:
    """Whether the monomial x involves one variable: a boundary image."""
    (e,) = x.terms
    return sum(1 for a in e if a) == 1


def inverse_square(x: LaurentPoly) -> RationalCoefficient:
    """The image kernel x / (1 - x)^2 of a monomial x.

    A single-site image x = c q_i is written x (1 + x)^2 / (1 - x^2)^2:
    1 - x^2 is the quadratic q_i^2 - c^-2 of the Dunkl boundary
    coefficient, so H and sum_i d_i^2 carry the same denominator factors
    and their difference adds over one denominator.  Every other image
    keeps the binomial 1 - x squared.  Kernels are kept per (field, x), as
    every coupling point of a model reads the same ones.
    """
    return _inverse_square(x.order, x)


@lru_cache(maxsize=4096)
def _inverse_square(order: int, x: LaurentPoly) -> RationalCoefficient:
    # keyed by the order first: polys of different fields never compare
    one = LaurentPoly.constant(x.nvars, 1, x.order)
    if _single_site(x):
        return RationalCoefficient.ratio(x * (one + x) ** 2, one - x * x, 2)
    return RationalCoefficient.ratio(x, one - x, 2)


@lru_cache(maxsize=256)
def hamiltonian_images(params: ModelParams) -> tuple:
    """The image table (x, c, g) of the closed-form Hamiltonian.

    Two-body images x = tau^s q_j / q_i with c = lambda on the rotated
    exchange; for the dihedral family also x = tau^s q_i q_j with
    c = lambda on its mirror, and the boundary images on Q_i^{2s} K_i:
    x = -tau^s q_i with c = beta and x = tau^s q_i with c = gamma for odd
    m, x = tau^s q_i with c = mu for even m.  Each x is one monomial over
    Q(zeta_m).  The table is built once per model and shared (read-only) by
    ``image_operator``, the Hamiltonian, the lattice condition and the
    frozen chain.
    """
    N, m, lam = params.size, params.order, params.lam
    q = [None] + [_q(i, N, m) for i in range(1, N + 1)]
    pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1) if j != i]
    out = []
    for i, j in pairs:
        for s in range(m):
            x = q[j] * _q(i, N, m, -1) * _tau(m, s)
            out.append((x, lam, exchange_element(N, m, i, j, s)))
    if params.family == "cyclic":
        return tuple(out)
    for i, j in pairs:
        for s in range(m):
            x = q[i] * q[j] * _tau(m, s)
            out.append((x, lam, reflected_exchange_element(N, m, i, j, s)))
    for i in range(1, N + 1):
        for s in range(m):
            x = q[i] * _tau(m, s)
            g = boundary_element(N, m, i, 2 * s)
            if m % 2:
                out.append((-x, params.beta, g))
                out.append((x, params.gamma, g))
            else:
                out.append((x, params.mu, g))
    return tuple(out)


def _image_kernels(params: ModelParams):
    """(x / (1 - x)^2, c, g) for every image with a nonzero coupling."""
    return [(inverse_square(x), c, g) for x, c, g in hamiltonian_images(params) if c]


def _image_sum(N: int, m: int, kernels) -> MixedOperator:
    pieces: dict = {}
    for kernel, c, g in kernels:
        pieces.setdefault(g, []).append(kernel * c)
    total = MixedOperator.zero(N, m)
    for g, coeffs in pieces.items():
        total = total + MixedOperator.term(balanced_sum(coeffs), g)
    return total


@lru_cache(maxsize=64)
def image_operator(params: ModelParams) -> MixedOperator:
    """sum over images (x, c, g) of c x / (1 - x)^2 g, one balanced sum per g.

    This is minus the part of the Hamiltonian linear in the couplings.
    """
    return _image_sum(params.size, params.order, _image_kernels(params))


def build_hamiltonian(params: ModelParams) -> MixedOperator:
    """Closed-form Hamiltonian matching the second conserved charge,
    H = sum_i D_i^2 - sum over images of c (c + g) x / (1 - x)^2.

    Each kernel x / (1 - x)^2 is built once and feeds both sums.
    """
    N, m = params.size, params.order
    kernels = _image_kernels(params)
    squares = [kernel * (-c * c) for kernel, c, _ in kernels]
    total = MixedOperator.zero(N, m)
    for i in range(1, N + 1):
        total = total + MixedOperator.euler(N, i, m) ** 2
    if squares:
        ident = WreathElement.identity(N, m)
        total = total + MixedOperator.term(balanced_sum(squares), ident)
    return total - _image_sum(N, m, kernels)


def simplified_boundary_mismatch(params: ModelParams) -> dict | None:
    """None when the boundary rows of ``hamiltonian_images``, x lifted to
    Q(zeta_{2m}), are as a multiset the simplified boundary x = zeta_{2m}^s
    q_i, c = beta, g = Q_i^s K_i (s < 2m); else the first row counted
    differently, with both counts.  At odd m the even phases give the
    gamma rows and the odd ones (zeta_{2m}^m = -1) the beta rows, and rho = 0
    makes beta = gamma.  H is a sum over its table, so equal tables prove
    the simplified form equal to H."""
    N, m = params.size, params.order
    table = Counter(
        (x.lift(2 * m), c, g) for x, c, g in hamiltonian_images(params) if _single_site(x)
    )
    simplified = Counter(
        (_q(i, N, 2 * m) * CycloScalar.root_of_unity(2 * m, s), params.beta,
         boundary_element(N, m, i, s))
        for i in range(1, N + 1)
        for s in range(2 * m)
    )
    for row in [*table, *simplified]:
        if table[row] != simplified[row]:
            x, c, g = row
            return {"image": x.to_json(), "coupling": str(c), "group": g.to_json(),
                    "table": table[row], "simplified": simplified[row]}
    return None


def balanced_sum(items: list):
    """Sum of a nonempty list, added in a balanced tree.

    A long sum of rational functions then merges denominators of similar
    size, instead of multiplying each new term up to one ever-growing
    common denominator.
    """
    while len(items) > 1:
        pairs = [items[k : k + 2] for k in range(0, len(items), 2)]
        items = [p[0] + p[1] if len(p) == 2 else p[0] for p in pairs]
    return items[0]


def hamiltonian_x_display(params: ModelParams) -> str:
    """Human-readable angular form of the Hamiltonian.

    Rendering only: the engine computes in multiplicative coordinates, and
    this prints the equivalent trigonometric layout obtained by writing
    q = exp(i x).
    """
    N, m = params.size, params.order
    lines = [f"H = -sum_i d^2/dx_i^2   (N={N}, m={m})"]
    lines.append(
        f"  + (lambda/4) sum_(i!=j) sum_(s=0..{m-1}) "
        f"[lambda + X_ij(s)] / sin^2((x_i - x_j + 2 pi s/{m})/2)"
    )
    if params.family == "dihedral":
        lines.append(
            f"  + (lambda/4) sum_(i!=j) sum_(s=0..{m-1}) "
            f"[lambda + Xr_ij(s)] / sin^2((x_i + x_j + 2 pi s/{m})/2)"
        )
        if params.order % 2:
            lines.append(
                f"  + sum_i sum_(s=0..{m-1}) (beta/4) [beta + B_i(2s)] / "
                f"cos^2((x_i + 2 pi s/{m})/2)"
            )
            lines.append(
                f"  + sum_i sum_(s=0..{m-1}) (gamma/4) [gamma + B_i(2s)] / "
                f"sin^2((x_i + 2 pi s/{m})/2)"
            )
        else:
            lines.append(
                f"  + sum_i sum_(s=0..{m-1}) (mu/4) [mu + B_i(2s)] / "
                f"sin^2((x_i + 2 pi s/{m})/2)"
            )
    lines.append(
        "  with X_ij(s) the rotated exchange, Xr_ij(s) its mirror image and "
        "B_i(r) the rotated reflection at site i"
    )
    return "\n".join(lines)


# -- relation checkers ---------------------------------------------------------


def _is_zero_item(suite, name, indices, op, expect_zero=True):
    ok = op.is_zero()
    if not expect_zero:
        suite.add(name, indices, not ok, expected_nonzero=True)
        return
    suite.add(name, indices, ok, first_term_witness(op))


def check_recursion(params: ModelParams, corrupt: bool = False) -> CheckSuite:
    """Adjacent-site recursion linking consecutive Dunkl operators."""
    N, m, lam = params.size, params.order, params.lam
    suite = CheckSuite(f"recursion[{params.family}]")
    spec = params.group_spec
    lam_rhs = lam + 1 if corrupt else lam
    for i in range(1, N):
        d_i = build_dunkl(params, i)
        d_next = build_dunkl(params, i + 1)
        e = MixedOperator.from_group(generator(spec, "e", i=i))
        rhs = op_compose(op_compose(e, d_i), e)
        for s in range(m):
            g = exchange_element(N, m, i, i + 1, -s)
            rhs = rhs + MixedOperator.from_group(g).scale(lam_rhs)
        _is_zero_item(
            suite,
            "d_{i+1} = P d_i P + lambda sum_s Q^s P Q^{-s}",
            {**params.to_json(), "i": i},
            d_next - rhs,
        )
    return suite


def check_hecke_relations(params: ModelParams, corrupt: str | None = None) -> CheckSuite:
    """Every displayed relation of the extended algebra, instantiated."""
    N, m, lam = params.size, params.order, params.lam
    suite = CheckSuite(f"hecke[{params.family}]")
    spec = params.group_spec
    idx = params.to_json()
    d1 = build_dunkl(params, 1)

    a = generator(spec, "a")
    _is_zero_item(suite, "a d = d a", idx, -dunkl_group_commutator(params, 1, a))

    if N >= 2:
        e1_el = generator(spec, "e", i=1)
        e1 = MixedOperator.from_group(e1_el)
        d1_e1ae1 = dunkl_group_commutator(params, 1, e1_el * a * e1_el)
        _is_zero_item(suite, "d (e1 a e1) = (e1 a e1) d", idx, d1_e1ae1)
        # the quadratic cross relation, with the full rotation-twisted sum
        twist = MixedOperator.zero(N, m)
        for s in range(m):
            twist = twist + MixedOperator.from_group(exchange_element(N, m, 1, 2, -s))
        # lhs - rhs = [d1, inner] + (lam_l - lam_r) T d1 with inner =
        # e1 d1 e1 + lam T, which is d_2 up to the recursion residual R, so
        # [d1, inner] = [d_1, d_2] + [d1, R] from the cached commutator
        inner = op_compose(op_compose(e1, d1), e1) + twist.scale(lam)
        recursion_residual = inner - build_dunkl(params, 2)
        d1_inner = dunkl_commutator(params, 1, 2)
        if not recursion_residual.is_zero():
            d1_inner = d1_inner + op_commutator(d1, recursion_residual)
        cross = d1_inner
        if corrupt == "drels":  # lam_r = lam + 1 on the right-hand side
            cross = cross - op_compose(twist, d1)
        _is_zero_item(
            suite,
            "d e1 d e1 + lam d T = e1 d e1 d + lam T d",
            idx,
            cross,
        )
    for j in range(2, N):
        _is_zero_item(
            suite, "e_j d = d e_j (j>1)", {**idx, "j": j},
            -dunkl_group_commutator(params, 1, generator(spec, "e", i=j)),
        )

    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            _is_zero_item(
                suite,
                "[d_i, d_j] = 0",
                {**idx, "i": i, "j": j},
                dunkl_commutator(params, i, j),
            )
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            _is_zero_item(
                suite,
                "[d_i, Q_j] = 0",
                {**idx, "i": i, "j": j},
                dunkl_group_commutator(params, i, generator(spec, "Q", i=j)),
            )

    if params.family == "dihedral":
        k = MixedOperator.from_group(generator(spec, "k"))
        # k D + D k = mu * sum_s a^{2s}
        rot_sum = MixedOperator.zero(N, m)
        for s in range(m):
            rot_sum = rot_sum + MixedOperator.from_group(
                boundary_element(N, m, 1, 2 * s) * generator(spec, "k")
            )
        _is_zero_item(
            suite,
            "k D = -D k + mu sum_s a^{2s}",
            idx,
            op_compose(k, d1) + op_compose(d1, k) - rot_sum.scale(params.mu),
        )
        if N >= 2:
            k2 = op_compose(op_compose(e1, k), e1)
            # the twist sums a^{-s} e1 a^s over every s, in either direction
            _is_zero_item(
                suite,
                "(D + lam sum_s a^{-s} e1 a^s) commutes with e1 k e1",
                idx,
                op_commutator(d1 + twist.scale(lam), k2),
            )
            _is_zero_item(suite, "D e1 a e1 = e1 a e1 D", idx, d1_e1ae1)
            _is_zero_item(
                suite, "D (e1 D e1 + lam T) = (e1 D e1 + lam T) D", idx, d1_inner
            )
        # the two layouts of the operator agree exactly
        for i in range(1, N + 1):
            _is_zero_item(
                suite,
                "image form = split form",
                {**idx, "i": i},
                build_dunkl(params, i) - _dihedral_dunkl_split(params, i),
            )
        # [D_1, K_1] does not vanish for generic couplings
        if params.mu != 0:
            K1 = MixedOperator.from_group(generator(spec, "K", i=1))
            _is_zero_item(
                suite,
                "[D_1, K_1] != 0 (generic mu)",
                idx,
                op_commutator(d1, K1),
                expect_zero=False,
            )
    return suite


def rotation_average_check(params: ModelParams) -> CheckSuite:
    """Site-rotation average of the one-copy operators gives the wreath ones.

    Projecting the one-copy operator to the rotation-invariant sector at
    sites i and j must reproduce the wreath operator exactly; this is the
    mechanism behind the commuting property in both families.  The
    difference is evaluated at p from its coupling coefficients, kept per
    (family, N, m) (``_average_coefficients``).
    """
    N, m = params.size, params.order
    suite = CheckSuite(f"rotation-average[{params.family}]")
    idx = params.to_json()
    for i in range(1, N + 1):
        j = 1 if i != 1 else 2
        _affine(build_dunkl, params, i)
        _affine(_one_copy_dunkl, params, i)
        _is_zero_item(
            suite,
            "Pi_i^0 Pi_j^0 (one-copy Dunkl) = wreath Dunkl",
            {**idx, "i": i, "j": j},
            _at(params, _average_coefficients(build_dunkl, _one_copy_dunkl, params.family,
                                              N, m, i, j)),
        )
    return suite


@lru_cache(maxsize=64)
def _average_coefficients(build, one_copy, family: str, N: int, m: int, i: int, j: int) -> dict:
    """The coupling coefficients of Pi_j^0 Pi_i^0 (one-copy d_i) - d_i:
    the projection is linear, so each is the projected one-copy piece at
    site i minus the matching piece of d_i."""
    pairs = tuple(zip(_pieces(one_copy, family, N, m)[i - 1], _pieces(build, family, N, m)[i - 1]))
    return _coefficients(lambda pair: ad_projector(j, 0, ad_projector(i, 0, pair[0])) - pair[1],
                         pairs)


def _reduces_to_one_copy(params: ModelParams) -> bool:
    """Whether the wreath Dunkl operator equals the one-copy operator.

    At m = 1 they are the same operator.  At m > 1 the wreath exchange
    terms with a rotation s != 0 carry lambda.  The dihedral boundary puts
    mu q^2 - tau^{-s} rho q on Q_i^{2s} K_i: for even m the copies s and
    s + m/2 share that element and cancel rho, and at m = 2 the mu part
    lands on K_i alone, as in the one-copy operator; every other boundary
    term keeps mu or rho.  The cyclic family ignores mu and rho.
    """
    if params.order == 1:
        return True
    if params.lam:
        return False
    if params.family == "cyclic":
        return True
    return params.rho == 0 and (params.mu == 0 or params.order == 2)


def reduction_check(params: ModelParams) -> CheckSuite:
    """The wreath operators collapse to the one-copy operators exactly when
    no coupling sees the rotations (always at m = 1)."""
    N = params.size
    suite = CheckSuite(f"reduction[{params.family}]")
    idx = params.to_json()
    equal = _reduces_to_one_copy(params)
    if params.order == 1:
        name = "wreath Dunkl = one-copy Dunkl at m=1"
    elif equal:
        name = "wreath Dunkl = one-copy Dunkl at m>1 (no coupling sees the rotations)"
    else:
        name = "wreath Dunkl differs from one-copy Dunkl at m>1"
    for i in range(1, N + 1):
        diff = build_dunkl(params, i) - _one_copy_dunkl(params, i)
        _is_zero_item(suite, name, {**idx, "i": i}, diff, expect_zero=equal)
    return suite


def hamiltonian_check(params: ModelParams) -> CheckSuite:
    """The closed-form Hamiltonian equals the second power-sum charge, and
    at odd m and rho = 0 its simplified boundary form, decided on the
    image table (``simplified_boundary_mismatch``).

    H - J2 has degree 2 in the couplings.  The item evaluates at p the
    coefficients of H - J2, kept per (family, N, m)
    (``_hamiltonian_coefficients``; the proof is in the module docstring),
    so neither H nor J2 is built at p."""
    suite = CheckSuite(f"hamiltonian[{params.family}]")
    idx = params.to_json()
    N, m = params.size, params.order
    for i in range(1, N + 1):
        _affine(build_dunkl, params, i)
    _linear_images(params)
    _is_zero_item(suite, "H = sum_i d_i^2", idx, _at(params, _hamiltonian_coefficients(
        build_dunkl, hamiltonian_images, params.family, N, m)))
    if params.family == "dihedral" and params.order % 2 and params.rho == 0:
        witness = simplified_boundary_mismatch(params)
        suite.add("simplified boundary form agrees", idx, witness is None, witness)
    return suite


def charge_commutation_check(params: ModelParams, kmax: int = 3) -> CheckSuite:
    """Mutual commutation of the power-sum charges and their symmetries.

    Each [I^(k), I^(l)] with k < l is computed by ``charges_commutator``
    from the [d_i, d_j] through two Leibniz sums, exact identities of the
    associative operator algebra, so the item tests the same normal-form
    operator as the direct commutator of the two charges without forming
    either charge or any product of them.  When the d's commute every term
    vanishes and no product is made.  [I^(k), Q_i] comes the same way from
    the [d_j, Q_i] (``charge_rotation_commutator``).  [I^(k), P_{i,i+1}]
    and [J^(2), K_1] for k <= 2 are evaluated at p from the coupling
    coefficients of [J^(k), g], including the coupling-free part
    sum_i d_i(0)^k, kept per (family, N, m)
    (``_charge_group_coefficients``).  The charge itself is built only at
    k = 3 and for "[J^(1), K_i] != 0".
    """
    N, m = params.size, params.order
    suite = CheckSuite(f"charges[{params.family}]")
    idx = params.to_json()
    spec = params.group_spec
    for i in range(1, N + 1):
        _affine(build_dunkl, params, i)

    def commutator_with(k, g):
        """[I^(k), g], from the coupling coefficients for k <= 2."""
        if k <= 2:
            return _at(params, _charge_group_coefficients(build_dunkl, params.family, N, m, k, g))
        return op_commutator(build_charge(params, k), MixedOperator.from_group(g))

    for k1 in range(1, kmax + 1):
        for k2 in range(k1 + 1, kmax + 1):
            _is_zero_item(
                suite,
                "[I^(k), I^(l)] = 0",
                {**idx, "k": k1, "l": k2},
                charges_commutator(params, k1, k2),
            )
    for k in range(1, kmax + 1):
        for i in range(1, N):
            _is_zero_item(
                suite,
                "[I^(k), P_{i,i+1}] = 0",
                {**idx, "k": k, "i": i},
                commutator_with(k, generator(spec, "e", i=i)),
            )
        for i in range(1, N + 1):
            _is_zero_item(
                suite,
                "[I^(k), Q_i] = 0",
                {**idx, "k": k, "i": i},
                charge_rotation_commutator(params, k, i),
            )
    if params.family == "dihedral":
        K1 = generator(spec, "K", i=1)
        if kmax >= 2:
            _is_zero_item(suite, "[J^(2), K_i] = 0", {**idx, "k": 2}, commutator_with(2, K1))
        generic = params.lam != 0 and params.mu != 0
        if generic:
            _is_zero_item(
                suite,
                "[J^(1), K_i] != 0 (generic couplings)",
                {**idx, "k": 1},
                op_commutator(MixedOperator.from_group(K1), build_charge(params, 1)),
                expect_zero=False,
            )
    return suite
