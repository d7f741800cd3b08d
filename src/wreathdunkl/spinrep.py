"""Spin-space representation, physical-state projectors and spin chains.

Each of the N particles carries an n-dimensional spin.  One unitary of
order m acts diagonally on a single spin through integer weights, a second
one reverses the weight order, and transpositions exchange whole spins;
together these represent the dihedral wreath group on the N-fold tensor
product.  Every image is therefore a monomial matrix, a permutation of
basis states with phases (the exchange-operator picture), and
``monomial_image`` stores it as two integer arrays, for one element or for
a stack of them (``ElementStack``).  These arrays are the algebra of spin
images: ``compose_images`` multiplies them, and
``spin_representation_check`` proves on them that the map is a
homomorphism, for all of W at once.

Physical states are selected by group-average projectors.  A projector
is a dict of weights p_g on W(m, N) and stands for sum_g p_g g (x) rho(g),
the doubled (position times spin) action: the exchange projector averages
over the rotation-balanced subgroup, the dihedral boundary projector
multiplies per-site averages over even rotations and reflections, and
their product averages over the subgroup both generate.  Because rho is a
homomorphism, products and adjoints of projectors are convolutions and
inversions of weights.  Each projector comes with a generating set
(``projector_generators``) and a subgroup certificate
(``is_subgroup_average``): its weights are 1/|S| on a support S that a
breadth-first search from 1 by the generators reproduces, so S is a
subgroup and the weights are its uniform average e_S.  For such an
average:

* e_S e_S = e_S: for each s in S, t -> s t permutes S, so
  e_S e_S = |S|^-2 sum_s sum_t s t = |S|^-2 sum_s sum_u u = e_S;
* e_S* = e_S: s -> s^-1 permutes S and the weights are real and equal;
* g e_S = e_S for g in S, as t -> g t permutes S; so on the projected
  space (g (x) 1) iota(e_S) = sum_s |S|^-1 g s (x) rho(s)
  = sum_x |S|^-1 x (x) rho(g^-1 x) = (1 (x) rho(g^-1)) iota(e_S): a
  position element acts as the spin image of its inverse (the
  exchange-operator rule).

The spin suites are these theorems: ``projector_check`` passes an item
exactly when the certificates and hypotheses it rests on hold, so an
item may fail falsely but never passes falsely, and ``verify_agreement``
decides the agreement of the position charges with their spin substitutes
from the supports of the Dunkl operators alone.

A numeric frozen chain is a ``SparseChain``, its nonzero entries sorted
by position: the commutant residuals are evaluated on those entries, and
the spectrum comes from one dense block per connected component of the
nonzero pattern, so no array of dim x dim entries is formed.  An exact
sum of spin images, sum_g c_g rho(g), has one form: ``spin_sum`` keeps
its nonzero entries as {(row, column): entry}.  It is the
spin-substituted operator (``substitute_spin``), the input of the
exact characteristic polynomial (``char_poly_exact``, which also works
one block at a time, by an exact Hessenberg reduction of each) and what
the exports of chains and projectors write out, densely only as they
print it.  On exact lattices ``exact_levels`` certifies rational levels as
that polynomial's roots; elsewhere ``brute_force_eigvals`` checks ``eigh``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import lcm

import numpy as np

from .cyclotomic import CycloScalar
from .dunkl import ModelParams, boundary_element, build_dunkl, exchange_element
from .groups import (
    SPIN_GROUP_CAP,
    SPIN_IMAGE_CAP,
    GroupSpec,
    WreathElement,
    enumerate_subgroup,
    generated_subgroup,
    generator,
)
from .opalg import MixedOperator
# unused here; perfbench/test_perfbench.py asserts that its tracer rebinds
# spinrep.op_compose
from .opalg import op_compose  # noqa: F401
from .reports import CheckSuite


def default_weights(n: int, m: int) -> tuple[int, ...]:
    """Weight vector a with a_i = -a_{n+1-i} mod m, valid for any n, m.

    Even n pairs (1, 2, ..., n/2) against their negatives; odd n inserts a
    zero weight in the middle.
    """
    half = n // 2
    first = list(range(1, half + 1))
    if n % 2:
        mid = [0]
    else:
        mid = []
    last = [(-a) % m for a in reversed(first)]
    return tuple(a % m for a in first + mid + last)


@dataclass(frozen=True)
class SpinRepData:
    """Local spin dimension, rotation order and site count."""

    n: int
    m: int
    N: int

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The rotation weights of the local states, ``default_weights``."""
        return default_weights(self.n, self.m)

    @property
    def dim(self) -> int:
        return self.n**self.N

    @cached_property
    def digits(self) -> np.ndarray:
        """digits[t, j]: the local state of site j in basis state t, site 1
        leading.  Shared; never written to."""
        return np.indices((self.n,) * self.N).reshape(self.N, -1).T

    @cached_property
    def places(self) -> np.ndarray:
        """The place value n**(N - 1 - j) of site j in a basis state's index."""
        return self.n ** np.arange(self.N - 1, -1, -1)


@dataclass(frozen=True, eq=False)
class ElementStack:
    """k elements of W(m, N) as stacked fields: row r of ``perm``, ``rot``
    and ``flip`` (integer arrays of shape (k, N)) holds the fields of
    element r, as in ``WreathElement``."""

    size: int
    order: int
    perm: np.ndarray
    rot: np.ndarray
    flip: np.ndarray

    def __len__(self) -> int:
        return len(self.perm)

    def __getitem__(self, part) -> "ElementStack":
        """The elements at the rows ``part`` (a slice or an index array)."""
        return ElementStack(self.size, self.order, self.perm[part], self.rot[part], self.flip[part])

    def times(self, s: WreathElement) -> "ElementStack":
        """g s for every element g of the stack, by the rule of
        ``groups.compose`` on arrays."""
        ginv = np.argsort(self.perm, axis=1)
        rh, eh = np.array(s.rot)[ginv], np.array(s.flip)[ginv]
        rot = np.where(self.flip == 1, self.rot - rh, self.rot + rh) % self.order
        return ElementStack(self.size, self.order, self.perm[:, list(s.perm)], rot, self.flip ^ eh)

    def index(self) -> np.ndarray:
        """The position of each element in ``wreath_stack``'s order."""
        N, m = self.size, self.order
        perms = _permutations(N)
        places = N ** np.arange(N - 1, -1, -1)
        rank = np.searchsorted(perms @ places, self.perm @ places)
        rot = self.rot @ (m ** np.arange(N - 1, -1, -1))
        flip = self.flip @ (2 ** np.arange(N - 1, -1, -1))
        return (rank * m**N + rot) * 2**N + flip


def _permutations(N: int) -> np.ndarray:
    """The permutations of 0..N-1 as rows, in lexicographic order."""
    return np.array(list(itertools.permutations(range(N))), dtype=np.int64).reshape(-1, N)


def wreath_stack(N: int, m: int) -> ElementStack:
    """All of W(m, N) in the order of ``groups.enumerate_subgroup``:
    permutations in lexicographic order, then rotations, then flips, the
    last varying fastest."""
    perms = _permutations(N)
    rots = np.indices((m,) * N).reshape(N, -1).T
    flips = np.indices((2,) * N).reshape(N, -1).T
    P, R, F = len(perms), len(rots), len(flips)
    return ElementStack(
        N, m,
        np.repeat(perms, R * F, axis=0),
        np.tile(np.repeat(rots, F, axis=0), (P, 1)),
        np.tile(flips, (P * R, 1)),
    )


def monomial_image(rep: SpinRepData, g):
    """Image of a position-group element on the spin tensor product.

    The image is a monomial matrix: basis state t goes to state ``rows[t]``
    with the phase tau**``phases[t]``, tau = exp(2 pi i / m).  The
    permutation moves whole spins, a flip reverses the local weight order,
    and rotations contribute the phase of the final local state.  For an
    ``ElementStack`` of k elements, ``rows`` and ``phases`` have shape
    (k, dim), row r holding the image of element r.
    """
    if g.size != rep.N or g.order != rep.m:
        raise ValueError("group element does not fit this spin representation")
    inv = np.argsort(g.perm, axis=-1)
    # img[..., t, j]: the local state at site j of the image of state t
    img = np.moveaxis(rep.digits[:, inv], 0, -2)
    flip = np.asarray(g.flip, dtype=bool)
    if flip.any():
        img = np.where(flip[..., None, :], rep.n - 1 - img, img)
    rot = np.asarray(g.rot)[..., :, None]
    phases = (np.array(rep.weights)[img] @ rot)[..., 0] % rep.m
    return img @ rep.places, phases


def compose_images(a, b, m: int):
    """The product A B of two monomial images a = (rows, phases) and b.

    B sends t to rb[t] with phase pb[t], and A then sends rb[t] to
    ra[rb[t]] with phase pa[rb[t]]; phases add modulo m.  ``a`` may be a
    stack of images along leading axes, which are composed with ``b`` at
    once.
    """
    ra, pa = a
    rb, pb = b
    return ra[..., rb], (pb + pa[..., rb]) % m


def _same_image(a, b) -> bool:
    return bool(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))


def spin_sum(rep: SpinRepData, terms) -> tuple[int, dict]:
    """The exact spin matrix sum_{(c, g) in terms} c rho(g), sparse.

    Returns (order, S): the cyclotomic order of the common field of tau
    and every c, and S = {(row, column): entry} over that field with exact
    zeros left out.  The coefficients may be scalars, lifted into that
    field, or rational functions of the positions, which must be over it
    already.  Each entry records the list of (term, phase) contributions
    that reach it, in the order of ``terms``; a term reaches an entry of a
    monomial image once.  The entry is the sum of c tau**p over its list,
    added in that order, the value term-by-term accumulation gives.  Many
    entries share a list: each distinct list is summed once, and each
    product c tau**p made once.
    """
    order = lcm(rep.m, *(c.order for c, _ in terms))
    entries: dict = {}
    for i, (_, g) in enumerate(terms):
        rows, phases = monomial_image(rep, g)
        for t, (r, p) in enumerate(zip(rows.tolist(), phases.tolist())):
            entries.setdefault((r, t), []).append((i, p))
    values = [c.lift(order) if isinstance(c, CycloScalar) else c for c, _ in terms]
    roots = [CycloScalar.root_of_unity(rep.m, p).lift(order) for p in range(rep.m)]

    @cache
    def product(i: int, p: int):
        return values[i] * roots[p]

    @cache
    def total(contributions: tuple):
        s = product(*contributions[0])
        for c in contributions[1:]:
            s = s + product(*c)
        return s

    S = {}
    for key, contributions in entries.items():
        s = total(tuple(contributions))
        if not s.is_zero():
            S[key] = s
    return order, S


def spin_matrix_of_element(rep: SpinRepData, g: WreathElement) -> dict:
    """The spin image of g as an exact sparse matrix (``spin_sum``)."""
    return spin_sum(rep, [(CycloScalar.one(rep.m), g)])[1]


def generating_set(N: int, m: int) -> list[WreathElement]:
    """e_1, ..., e_{N-1}, a and k, which generate W(m, N)."""
    spec = GroupSpec("W(m,N)", N, m)
    return [generator(spec, "e", i=i) for i in range(1, N)] + [
        generator(spec, "a"),
        generator(spec, "k"),
    ]


# Entries of the largest intermediate array of stacked images, one per
# (element, basis state, site).
_IMAGE_BLOCK = 1 << 20


def spin_representation_check(rep: SpinRepData) -> CheckSuite:
    """Defining relations and the homomorphism property, exactly.

    Every image is composed as a pair of integer arrays
    (``compose_images``), never as a dense matrix.

    The homomorphism item is decided on all of W.  With T = {e_1, ...,
    e_{N-1}, a, k}, which generates W = W(m, N), it checks M(g) M(s) =
    M(g s) for every g in W and s in T, |W| |T| pairs.  That implies
    M(g) M(h) = M(g h) for every pair:

    * g = 1 gives M(1) M(s) = M(s), and M(s) is invertible, so M(1) = 1.
    * Every h in the finite group W is a word s_1 ... s_k in T.  For k = 0,
      M(g) M(1) = M(g).  If M(g) M(h) = M(g h) for all g, then for s in T
      M(g) M(h s) = M(g) M(h) M(s) = M(g h) M(s) = M(g h s), using the
      check at (h, s), the hypothesis, and the check at (g h, s).

    W is one ``ElementStack`` (``wreath_stack``): its images are made by
    ``monomial_image`` a block of rows at a time, and each product g s and
    its position in the stack by array arithmetic (``ElementStack.times``
    and ``index``).
    """
    suite = CheckSuite("spin-representation")
    N, m = rep.N, rep.m
    idx = {"n": rep.n, "m": m, "N": N}
    spec = GroupSpec("W(m,N)", N, m)
    if spec.exceeds(SPIN_GROUP_CAP):
        raise ValueError(f"W(m,N) at N = {N}, m = {m} has more than {SPIN_GROUP_CAP} elements")
    if spec.cardinality() * rep.dim > SPIN_IMAGE_CAP:
        raise ValueError(f"the spin images of W(m,N) have more than {SPIN_IMAGE_CAP} entries")
    Q = {i: monomial_image(rep, generator(spec, "Q", i=i)) for i in range(1, N + 1)}
    K = {i: monomial_image(rep, generator(spec, "K", i=i)) for i in range(1, N + 1)}
    ident = (np.arange(rep.dim), np.zeros(rep.dim, dtype=int))

    def mul(*images):
        out = ident
        for b in images:
            out = compose_images(out, b, m)
        return out

    for i in range(1, N + 1):
        suite.add("Q_i^m = 1", {**idx, "i": i}, _same_image(mul(*[Q[i]] * m), ident))
        suite.add("K_i^2 = 1", {**idx, "i": i}, _same_image(mul(K[i], K[i]), ident))
        suite.add(
            "K_i Q_i K_i = Q_i^{-1}",
            {**idx, "i": i},
            _same_image(mul(K[i], Q[i], K[i], Q[i]), ident),
        )
        for j in range(i + 1, N + 1):
            P = monomial_image(rep, generator(spec, "P", i=i, j=j))
            suite.add("P_ij^2 = 1", {**idx, "i": i, "j": j}, _same_image(mul(P, P), ident))
            suite.add(
                "P_ij Q_i = Q_j P_ij",
                {**idx, "i": i, "j": j},
                _same_image(mul(P, Q[i]), mul(Q[j], P)),
            )
            suite.add(
                "Q_i Q_j = Q_j Q_i",
                {**idx, "i": i, "j": j},
                _same_image(mul(Q[i], Q[j]), mul(Q[j], Q[i])),
            )
    els = wreath_stack(N, m)
    rows = np.empty((len(els), rep.dim), dtype=np.int64)
    phases = np.empty_like(rows)
    block = max(1, _IMAGE_BLOCK // (rep.dim * N))
    for start in range(0, len(els), block):
        part = slice(start, start + block)
        rows[part], phases[part] = monomial_image(rep, els[part])
    gens = generating_set(N, m)
    ok = True
    for s in gens:
        target = els.times(s).index()
        product = compose_images((rows, phases), monomial_image(rep, s), m)
        ok = ok and _same_image(product, (rows[target], phases[target]))
    suite.add("M(g) M(h) = M(g h)", {**idx, "samples": len(els) * len(gens)}, ok)
    return suite


# -- substitution and projectors ------------------------------------------------


def substitute_spin(A: MixedOperator, rep: SpinRepData) -> dict:
    """Replace every position-group element g of A by rho(g^-1), the spin
    image of its inverse.

    This is the exchange-operator substitution: on projected states a
    position element g of the projector's subgroup acts as rho(g^-1)
    (module docstring), and products reverse order, rho((g h)^-1) =
    rho(h^-1) rho(g^-1).  A is in normal form (group elements rightmost).
    The result maps each Euler index k to the exact sparse spin matrix
    S_k = sum_g c_{k,g} rho(g^-1) (``spin_sum``) over the common field of A
    and tau; an index whose matrix cancels is left out.
    """
    terms: dict = {}
    for (k, g), c in A.terms.items():
        terms.setdefault(k, []).append((c, g.inverse()))
    sums = {k: spin_sum(rep, kterms)[1] for k, kterms in terms.items()}
    return {k: mat for k, mat in sums.items() if mat}


def convolve(a: dict, b: dict) -> dict:
    """The product of two group-algebra elements: weight p_g q_h on g h,
    |a| |b| products.  It builds the boundary projector site by site."""
    out: dict = {}
    for g, p in a.items():
        for h, q in b.items():
            gh = g * h
            out[gh] = out.get(gh, 0) + p * q
    return {g: p for g, p in out.items() if p}


def _resolve(params: ModelParams, which: str) -> str:
    """The projector ``which`` names: ``auto`` is the family's own."""
    if which == "auto":
        which = "exchange" if params.family == "cyclic" else "product"
    if which not in ("exchange", "boundary", "product"):
        raise ValueError(f"unknown projector {which!r}")
    return which


def projector_generators(N: int, m: int, which: str) -> tuple[WreathElement, ...]:
    """A generating set of the support of the projector ``which``.

    ``exchange``: e_1, ..., e_{N-1} and a^-1 e_1 a = Q_1^-1 P_12 Q_1, which
    generate G(m, m, N).  ``boundary``: Q_j^2 and K_j at every site j,
    which generate the product over sites of {Q_j^{2s}, Q_j^{2s} K_j}.
    ``product``: both sets.  The certificate (``is_subgroup_average``)
    checks a set against the weights, so a wrong set is refused, never
    trusted.
    """
    spec = GroupSpec("W(m,N)", N, m)
    if which == "exchange":
        if N < 2:
            return ()
        e = tuple(generator(spec, "e", i=i) for i in range(1, N))
        a = generator(spec, "a")
        return e + (a.inverse() * e[0] * a,)
    if which == "boundary":
        out = []
        for j in range(1, N + 1):
            q = generator(spec, "Q", i=j)
            out += [q * q, generator(spec, "K", i=j)]
        return tuple(out)
    return projector_generators(N, m, "exchange") + projector_generators(N, m, "boundary")


def is_subgroup_average(weights: dict, gens) -> bool:
    """The subgroup certificate: whether ``weights`` is the uniform average
    over the subgroup generated by ``gens``.

    It holds when every weight is 1/|S|, S the support, and the
    breadth-first search from 1 by right multiplication with ``gens``
    (``groups.generated_subgroup``) stays inside S and reaches all of it,
    O(|S| |gens|) products.  The search reaches exactly <gens>, so then
    S = <gens> is a subgroup and the weights are its average e_S.  A
    support that is not a subgroup, unequal weights, and generators that
    leave S or miss part of it are all refused.
    """
    if not weights:
        return False
    p = Fraction(1, len(weights))
    if any(w != p for w in weights.values()):
        return False
    g = next(iter(weights))
    found = generated_subgroup(WreathElement.identity(g.size, g.order), gens, within=weights)
    return found is not None and len(found) == len(weights)


def _normalizes(gens_a, gens_b, B) -> bool:
    """Whether each a in ``gens_a`` conjugates each generator of the
    subgroup B = <gens_b> into B."""
    return all(a * b * a.inverse() in B for a in gens_a for b in gens_b)


@lru_cache(maxsize=32)
def _projector(N: int, m: int, which: str) -> tuple[dict, bool]:
    """(weights, certified) of the projector ``which`` on N sites of order
    m.  The exchange and boundary weights are built from their definitions
    and certified by ``is_subgroup_average`` with ``projector_generators``.
    The product weights are the average over the subgroup both generating
    sets generate, certified to be Lambda Lambda_b by ``_averages_commute``.
    Kept per (N, m, which), as the weights depend on nothing else; callers
    never mutate them."""
    gens = projector_generators(N, m, which)
    if which == "product":
        S = generated_subgroup(WreathElement.identity(N, m), gens)
        return {g: Fraction(1, len(S)) for g in S}, _averages_commute(N, m)
    if which == "exchange":
        els = enumerate_subgroup(GroupSpec("G(m,p,N)", N, m, p=m), cap=SPIN_GROUP_CAP)
        weights = {g: Fraction(1, len(els)) for g in els}
    else:
        weights = {WreathElement.identity(N, m): Fraction(1)}
        for j in range(1, N + 1):
            site: dict = {}
            for s in range(m):
                reflection = boundary_element(N, m, j, 2 * s)
                for g in (reflection * boundary_element(N, m, j, 0), reflection):
                    site[g] = site.get(g, 0) + Fraction(1, 2 * m)
            weights = convolve(weights, site)
    return weights, is_subgroup_average(weights, gens)


@cache
def _averages_commute(N: int, m: int) -> bool:
    """Whether Lambda Lambda_b = Lambda_b Lambda = e_{HB} follows from the
    certificates: Lambda = e_H and Lambda_b = e_B are certified averages
    and one of H, B normalizes the other, checked on generators (the proof
    is in ``build_projector``)."""
    (H, h_ok), (B, b_ok) = _projector(N, m, "exchange"), _projector(N, m, "boundary")
    TH, TB = projector_generators(N, m, "exchange"), projector_generators(N, m, "boundary")
    return h_ok and b_ok and (_normalizes(TB, TH, H) or _normalizes(TH, TB, B))


def build_projector(params: ModelParams, which: str = "auto") -> dict[WreathElement, Fraction]:
    """Group-average projectors onto physical wavefunctions, as weights on W.

    A weight dict p stands for iota(p) = sum_g p_g g (x) rho(g): g acts on
    positions and its image rho(g) (``monomial_image``) on spins.
    ``exchange`` is the uniform average over the rotation-balanced subgroup
    G(m, m, N).  ``boundary`` (dihedral family) multiplies, site by site,
    the averages of Q_j^{2s} and Q_j^{2s} K_j over s = 0, ..., m - 1.
    ``product`` is e_{HB}, the average over the subgroup the generators of
    both generate; it is the exchange projector times the boundary one
    where the certificates prove so (``_averages_commute``), and every item
    that rests on that fails elsewhere.  ``auto`` picks the projector of
    the family.  The weights are nonnegative and do not depend on the spin
    representation or the couplings.

    The product is e_{HB} when e_H and e_B are certified averages over
    H = <T_H> and B = <T_B> and B normalizes H (or H normalizes B, with
    the roles exchanged), as checked on generators: if b t b^-1 lies in H
    for every t in T_H, conjugation by b maps H = <T_H> into H, hence onto
    it, being injective on a finite set; every b in B is a word in T_B, so
    b H = H b for all b in B.  Then HB = BH, which makes HB a subgroup: it
    contains H and B and lies in every subgroup that does, so
    HB = <T_H, T_B>.  The map (h, b) -> h b covers each element of HB
    exactly |H n B| times (h b = h' b' iff h^-1 h' = b b'^-1 lies in
    H n B), so e_H e_B = |H n B| / (|H| |B|) sum_{x in HB} x = e_{HB}, as
    |HB| = |H| |B| / |H n B|; and e_B e_H = e_{BH} = e_{HB} alike.

    iota is an algebra map: iota(p) iota(q) = sum p_g q_h gh (x) rho(g) rho(h)
    = iota(p q), with the product of weights the convolution (``convolve``),
    because rho is a homomorphism; ``spin_representation_check`` proves that
    for every representation and runs before ``projector_check`` in every
    ``verify``.  iota is injective, because distinct g are distinct position
    keys and rho(g) != 0.  And iota(p)^dagger = iota(p*) with
    p* = sum p_g g^{-1}, because rho is unitary and monomial and the
    weights are real.  So every identity among projectors is an equality
    of weight dicts.
    """
    which = _resolve(params, which)
    return dict(_projector(params.size, params.order, which)[0])


def projector_check(params: ModelParams, rep: SpinRepData) -> CheckSuite:
    """Idempotence, Hermiticity and the exchange-substitution property.

    By ``build_projector``'s argument every item is an identity of weights.
    Each item passes exactly when the certificates and hypotheses that
    prove it hold (module docstring), and fails otherwise:

    * "Lambda^2 = Lambda" and "Lambda hermitian" hold for the certified
      average Lambda = e_H.
    * "exchange acts like its spin image" compares (g (x) 1) iota(Lambda)
      with (1 (x) rho(g)) iota(Lambda).  For g in H the left side is
      (1 (x) rho(g^-1)) iota(Lambda), which is the right side when g^2 = 1,
      as then g^-1 = g.  So the item asks for a certified e_H, g in H and
      g^2 = 1.
    * Dihedral: "Lambda_b^2 = Lambda_b" holds for the certified average
      Lambda_b = e_B.  When the averages commute (``_averages_commute``),
      Lambda Lambda_b = Lambda_b Lambda = e_{HB}, the average over a
      subgroup, so it is idempotent and Hermitian, and the doubled
      reflection g (x) rho(g), iota of the weight 1 on g, fixes it for every
      g in HB; the item asks for g in B.
    """
    N, m = params.size, params.order
    if (rep.N, rep.m) != (N, m):
        raise ValueError("spin representation does not match the model sizes")
    suite = CheckSuite("projectors")
    idx = {**params.to_json(), "n": rep.n}
    lam, lam_ok = _projector(N, m, "exchange")
    suite.add("Lambda^2 = Lambda", idx, lam_ok)
    suite.add("Lambda hermitian", idx, lam_ok)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            for s in range(m):
                g = exchange_element(N, m, i, j, s)
                suite.add(
                    "exchange acts like its spin image on Lambda",
                    {**idx, "i": i, "j": j, "s": s},
                    lam_ok and g in lam and (g * g).is_identity(),
                )
    if params.family == "dihedral":
        lam_b, b_ok = _projector(N, m, "boundary")
        commute = _averages_commute(N, m)
        suite.add("Lambda_b^2 = Lambda_b", idx, b_ok)
        suite.add("Lambda Lambda_b = Lambda_b Lambda", idx, commute)
        suite.add("(Lambda Lambda_b)^2 = Lambda Lambda_b", idx, commute)
        suite.add("Lambda Lambda_b hermitian", idx, commute)
        for i in range(1, N + 1):
            for s in range(m):
                g = boundary_element(N, m, i, 2 * s)
                suite.add(
                    "doubled reflection fixes Lambda Lambda_b",
                    {**idx, "i": i, "s": s},
                    commute and g in lam_b,
                )
    return suite


def verify_agreement(params: ModelParams, rep: SpinRepData, k: int) -> CheckSuite:
    """Position charge and spin-substituted charge agree on projected states.

    Zero is asserted at every k in both families.  The projector is e_S,
    the average over S = G(m, m, N) (cyclic) or S = HB (dihedral,
    Lambda Lambda_b), and spin I^(k) puts rho(g^-1) in place of every g
    (``substitute_spin``).  For g in S, (g (x) 1) iota(e_S) =
    (1 (x) rho(g^-1)) iota(e_S) (module docstring), and c D^k (x) 1
    commutes with 1 (x) rho(g^-1), as coefficients and Euler operators act
    on positions alone.  So a term c D^k g of I^(k) with g in S adds the
    same to (I^(k) (x) 1) iota(e_S) as to (spin I^(k)) iota(e_S), and
    (spin I^(k) - I^(k)) iota(e_S) = 0 once supp I^(k) lies in S.

    That follows from the Dunkl operators.  In normal form the product of
    the terms c D^a g and c' D^b h carries the group element g h: moving g
    right through c' D^b changes only the coefficient and the Euler part.
    So supp(A B) lies in supp(A) supp(B), supp(A + B) in the union of the
    supports, and since I^(k) = sum_i d_i^k, supp d_i in S for every i puts
    supp I^(k) in S, which is closed under products.

    The item passes exactly when the projector is certified
    (``is_subgroup_average``, and ``_averages_commute`` for the dihedral
    product) and every group element of every d_i lies in S: O(terms of
    the d_i) membership tests, with no charge built.  A refused certificate
    or a term outside S fails it.
    """
    N, m = params.size, params.order
    if (rep.N, rep.m) != (N, m):
        raise ValueError("spin representation does not match the model sizes")
    if k < 1:
        raise ValueError("charge index must be at least 1")
    suite = CheckSuite("charge-agreement")
    idx = {**params.to_json(), "n": rep.n, "k": k}
    proj, certified = _projector(N, m, _resolve(params, "auto"))
    inside = certified and all(
        g in proj for i in range(1, N + 1) for _, g in build_dunkl(params, i).terms
    )
    suite.add("(spin charge - charge) * projector = 0", idx, inside)
    return suite


# -- frozen spin chains ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SparseChain:
    """A frozen chain as sorted sparse entries: for each nonzero H[r, c]
    the linear key r * dim + c in ``keys`` (ascending) and the complex
    value in ``values``.  No stored value is zero."""

    dim: int
    keys: np.ndarray
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """H as a dense complex array, for the Jacobi oracle."""
        out = np.zeros(self.dim * self.dim, dtype=complex)
        out[self.keys] = self.values
        return out.reshape(self.dim, self.dim)


def _summed(keys: np.ndarray, values: np.ndarray):
    """The distinct keys, ascending, and for each the sum from zero of its
    values in the order given; keys whose sum is exactly zero are dropped."""
    distinct, where = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(distinct), dtype=complex)
    np.add.at(sums, where, values)  # unbuffered: one key's values in order
    keep = sums != 0
    return distinct[keep], sums[keep]


def frozen_spin_matrix(rep: SpinRepData, terms) -> SparseChain:
    """Assemble a frozen chain from (scalar, group element) terms, one
    monomial image per term; ``spin_sum`` is the exact counterpart.

    Every entry is summed term by term in the order of ``terms``, from
    zero, so each stored value is bit for bit the entry a dense
    accumulation of the images would hold, and the exact zeros of that
    accumulation are left out.  Memory is O(terms * dim).
    """
    m, dim = rep.m, rep.dim
    cols = np.arange(dim)
    keys, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    for c, g in terms:
        cval = c.to_complex() if isinstance(c, CycloScalar) else complex(c)
        values = np.array([cval * np.exp(2j * np.pi * p / m) for p in range(m)])
        rows, phases = monomial_image(rep, g)
        keys.append(rows * dim + cols)
        vals.append(values[phases])
    return SparseChain(dim, *_summed(np.concatenate(keys), np.concatenate(vals)))


def commutant_residual(H: SparseChain, rep: SpinRepData, g: WreathElement) -> float:
    """max |H M - M H| for the spin image M of g, without forming M.

    M sends basis state t to ``rows[t]`` with phase w_t, so an entry
    H[r, c] lands in H M at (r, t) with rows[t] = c, times w_t, and in M H
    at (rows[r], c), times w_r.  The difference is summed over the union
    of the two supports, O(entries of H); everywhere else it is zero.
    """
    rows, phases = monomial_image(rep, g)
    roots = [CycloScalar.root_of_unity(rep.m, p) for p in range(rep.m)]
    w = np.array([z.to_complex() for z in roots])[phases]
    inv = np.argsort(rows)
    r, c = np.divmod(H.keys, H.dim)
    _, diff = _summed(
        np.concatenate([r * H.dim + inv[c], rows[r] * H.dim + c]),
        np.concatenate([H.values * w[inv[c]], -(w[r] * H.values)]),
    )
    return float(np.max(np.abs(diff), initial=0.0))


def pattern_blocks(dim: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the pattern with nonzeros
    at (rows[e], cols[e]), symmetrized, ordered by least member.

    Every entry between two components is zero in both directions, so each
    component spans an exact invariant subspace.  Each state starts as its
    own label; a round lowers both ends of every entry to the smaller of
    their labels, then replaces labels by their labels' labels until they
    settle.  Labels only fall and stay within a component, so at the fixed
    point each state carries the least state of its component.
    """
    label = np.arange(dim)
    while True:
        low = np.minimum(label[rows], label[cols])
        new = label.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    members = np.argsort(label, kind="stable")
    return np.split(members, np.flatnonzero(np.diff(label[members])) + 1)


_RESIDUAL_BLOCK = 128


def diagonalize_hermitian(H: SparseChain):
    """Sorted real spectrum, degeneracy profile and Hermiticity residual
    max |H - H^H| of a Hermitian sparse chain.  The residual must stay
    within 1e-10 times scale = max(1, max |H|).

    The chain splits into the connected components of its symmetrized
    nonzero pattern (``pattern_blocks``), and each block is H restricted to
    the rows and columns of one component, built densely.  An entry
    between two components is zero in both H and H^H, so the residual and
    max |H| over the whole matrix are their maxima over the blocks.
    ``eigh`` runs on each block, and every eigenpair is checked against
    |H v - lambda v| <= 1e-8 * scale * dim, with dim the full dimension.
    """
    dim = H.dim
    rows, cols = np.divmod(H.keys, dim)
    local = np.zeros(dim, dtype=int)
    inside = np.zeros(dim, dtype=bool)
    blocks = []
    herm_residual, scale = 0.0, 1.0
    for idx in pattern_blocks(dim, rows, cols):
        local[idx] = np.arange(len(idx))
        inside[idx] = True
        e = inside[rows] & inside[cols]
        inside[idx] = False
        B = np.zeros((len(idx), len(idx)), dtype=complex)
        B[local[rows[e]], local[cols[e]]] = H.values[e]
        herm_residual = max(herm_residual, float(np.max(np.abs(B - B.conj().T))))
        scale = max(scale, float(np.max(np.abs(B))))
        blocks.append(B)
    if herm_residual > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian (residual {herm_residual:.2e})")
    bound = 1e-8 * scale * dim
    spectra = []
    for B in blocks:
        vals, vecs = np.linalg.eigh(B)
        # one norm per eigenpair, a block of columns at a time
        for k in range(0, len(vals), _RESIDUAL_BLOCK):
            part = vecs[:, k : k + _RESIDUAL_BLOCK]
            res = np.linalg.norm(B @ part - part * vals[k : k + _RESIDUAL_BLOCK], axis=0)
            if np.any(res > bound):
                raise ArithmeticError("eigenpair residual out of tolerance")
        spectra.append(vals)
    vals = np.sort(np.concatenate(spectra).real)
    degs = []
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) < 1e-7 * scale:
            j += 1
        degs.append((float(vals[i]), j - i + 1))
        i = j + 1
    return vals, degs, herm_residual


def _hessenberg_char_poly(H: list, order: int) -> list[CycloScalar]:
    """Characteristic polynomial of the dense exact square matrix H (a list
    of rows over Q(zeta_order), reduced in place), lowest degree first.

    A similarity brings H to upper Hessenberg form one column c at a time:
    the first nonzero entry of the column on or below the subdiagonal is
    swapped onto it (rows and columns alike), and with the one inverse of
    that pivot each entry below it is eliminated: row i minus u times row
    c + 1, then column c + 1 plus u times column i, u the entry over the
    pivot.  With p_0 = 1, the characteristic polynomials of the leading
    k x k blocks of the result satisfy (indices from 1)
    p_k = (x - h_kk) p_{k-1} - sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_{i-1},
    and p_dim is the polynomial.  Both steps take O(dim^3) field operations
    (H. Cohen, A Course in Computational Algebraic Number Theory, 2.2.4).
    """
    n = len(H)
    zero, one = CycloScalar.zero(order), CycloScalar.one(order)
    for c in range(n - 2):
        found = next((r for r in range(c + 1, n) if not H[r][c].is_zero()), None)
        if found is None:
            continue
        s = c + 1
        if found != s:
            H[found], H[s] = H[s], H[found]
            for row in H:
                row[found], row[s] = row[s], row[found]
        pivot = H[s]
        inv = pivot[c].inverse()
        for i in range(s + 1, n):
            row = H[i]
            if row[c].is_zero():
                continue
            u = row[c] * inv
            row[c] = zero
            for j in range(s, n):
                if not pivot[j].is_zero():
                    row[j] = row[j] - u * pivot[j]
            for other in H:
                if not other[i].is_zero():
                    other[s] = other[s] + u * other[i]
    polys = [[one]]  # polys[k] is the minor of the leading k x k block
    for k in range(n):
        p = [zero] + polys[k]
        if not H[k][k].is_zero():
            for a, x in enumerate(polys[k]):
                p[a] = p[a] - H[k][k] * x
        chain = one  # h_{i+1,i} ... h_{k,k-1}
        for i in range(k - 1, -1, -1):
            chain = chain * H[i + 1][i]
            if chain.is_zero():
                break
            if H[i][k].is_zero():
                continue
            w = H[i][k] * chain
            for a, x in enumerate(polys[i]):
                p[a] = p[a] - w * x
        polys.append(p)
    return polys[n]


def char_poly_exact(dim: int, order: int, S: dict) -> list[CycloScalar]:
    """Characteristic polynomial of the exact sparse dim x dim matrix S
    ({(row, column): entry} over Q(zeta_order), as ``spin_sum`` makes it).

    Returns [c_0, ..., c_dim] with c_dim = 1, lowest degree first; only
    exact field operations are used, so this is an eigenvalue oracle
    independent of any numeric eigensolver.  The keys of S are its nonzero
    pattern, which splits into the components of its symmetrization
    (``pattern_blocks``); up to a permutation of the basis S is their
    direct sum, so its polynomial is the product of theirs, each from the
    Hessenberg reduction of the component's dense block
    (``_hessenberg_char_poly``, O(size^3) field operations).
    """
    rows, cols = np.array(list(S), dtype=int).reshape(-1, 2).T
    zero = CycloScalar.zero(order)
    coeffs = [CycloScalar.one(order)]
    for idx in pattern_blocks(dim, rows, cols):
        local = {i: a for a, i in enumerate(idx.tolist())}
        M = [[zero] * len(local) for _ in local]
        for (r, c), v in S.items():
            if r in local:
                M[local[r]][local[c]] = v
        block = _hessenberg_char_poly(M, order)
        product = [zero] * (len(coeffs) + len(block) - 1)
        for a, x in enumerate(coeffs):
            for b, y in enumerate(block):
                product[a + b] = product[a + b] + x * y
        coeffs = product
    return coeffs


def exact_levels(coeffs, eigenvalues, tol: float):
    """[(level, multiplicity), ...] of the float ``eigenvalues``, each rounded
    to the nearest rational of denominator at most 1000 (exact lattices give
    integers and half-integers), when no rounding moves a value by more than
    ``tol`` and prod (x - r_i) is exactly ``coeffs`` (``char_poly_exact``);
    else None."""
    levels = [Fraction(float(lam)).limit_denominator(1000) for lam in eigenvalues]
    poly = [Fraction(1)]  # prod (x - r_i), lowest degree first
    for r in levels:
        poly = [a - r * b for a, b in zip([0] + poly, poly + [0])]
    if any(abs(float(r) - lam) > tol for r, lam in zip(levels, eigenvalues)) or coeffs != poly:
        return None
    return sorted(Counter(levels).items())


def brute_force_eigvals(matrix) -> np.ndarray:
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Plain two-by-two rotations, no library eigensolver involved; accurate
    for degenerate spectra, which polynomial root-finding is not.  Sweeps
    until every off-diagonal entry is within 1e-13 times max(1, max |H|),
    at most 100 times.
    """
    A = np.array(matrix, dtype=complex)
    n = A.shape[0]
    tol = 1e-13 * max(1.0, float(np.max(np.abs(A))))
    for _ in range(100):
        if np.max(np.abs(np.triu(A, 1)), initial=0.0) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = A[p, q]
                if abs(b) <= tol / 10:
                    continue
                phase = b / abs(b)
                a, d = A[p, p].real, A[q, q].real
                tau = (d - a) / (2 * abs(b))
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                g2 = np.array([[c, s], [-s * np.conj(phase), c * np.conj(phase)]])
                idx = [p, q]
                A[:, idx] = A[:, idx] @ g2
                A[idx, :] = g2.conj().T @ A[idx, :]
    else:
        raise ArithmeticError("Jacobi sweep did not converge")
    return np.sort(np.diag(A).real)


def twisted_translation_element(N: int, m: int) -> WreathElement:
    """One-site shift combined with a single rotation; a chain symmetry."""
    perm = tuple((i + 1) % N for i in range(N))
    rot = [0] * N
    rot[0] = 1 % m
    return WreathElement(N, m, perm, tuple(rot), (0,) * N)


def global_rotation_element(N: int, m: int) -> WreathElement:
    return WreathElement(N, m, tuple(range(N)), (1 % m,) * N, (0,) * N)
