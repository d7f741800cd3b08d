"""Spin-space representation, physical-state projectors and spin chains.

Each of the N particles carries an n-dimensional spin.  One unitary of
order m acts diagonally on a single spin through integer weights, a second
one reverses the weight order, and transpositions exchange whole spins;
together these represent the dihedral wreath group on the N-fold tensor
product.  Every image is therefore a monomial matrix, a permutation of
basis states with phases (the exchange-operator picture), and
``monomial_image`` stores it as two integer arrays.  These arrays are the
algebra of spin images: ``compose_images`` multiplies them, and
``spin_representation_check`` proves on them that the map is a
homomorphism.

Physical states are selected by group-average projectors.  A projector
is a dict of weights p_g on W(m, N) and stands for sum_g p_g g (x) rho(g),
the doubled (position times spin) action: the exchange projector averages
over the rotation-balanced subgroup, and the dihedral boundary projector
multiplies per-site averages over even rotations and reflections.  Because
rho is a homomorphism, products and adjoints of projectors are
convolutions and inversions of weights, so ``projector_check`` decides
every identity on weights and monomial images.  On the projected space
the position charges and their spin substitutes agree, which
``verify_agreement`` decides exactly, one left coset of the projector's
subgroup at a time.

Dense exact matrices (``SpinMatrix``) serve only where an exact chain
matrix is itself the object: the characteristic-polynomial oracle and the
export of a frozen chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .cyclotomic import CycloScalar
from .dunkl import (
    ModelParams,
    boundary_element,
    build_charge,
    exchange_element,
)
from .groups import GroupSpec, WreathElement, enumerate_subgroup, generator
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
    """Local spin dimension, rotation order, site count and weights."""

    n: int
    m: int
    N: int
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", default_weights(self.n, self.m))
        w = self.weights
        if len(w) != self.n:
            raise ValueError("need one weight per local state")
        for i, a in enumerate(w):
            if (a + w[self.n - 1 - i]) % self.m:
                raise ValueError("weights must satisfy a_i = -a_{n+1-i} (mod m)")

    @property
    def dim(self) -> int:
        return self.n**self.N


class SpinMatrix:
    """Dense matrix with exact cyclotomic entries (small dimensions).

    Only exact chain matrices take this form: ``char_poly_exact`` multiplies
    them and ``export --object Hbar_spin`` writes them out.  Group images
    are monomial and use ``monomial_image`` instead.
    """

    __slots__ = ("dim", "order", "rows")

    def __init__(self, dim: int, order: int, rows):
        self.dim = dim
        self.order = order
        self.rows = rows

    @staticmethod
    def zero(dim: int, order: int) -> "SpinMatrix":
        z = CycloScalar.zero(order)
        return SpinMatrix(dim, order, [[z] * dim for _ in range(dim)])

    @staticmethod
    def from_terms(rep: SpinRepData, terms) -> "SpinMatrix":
        """The sum of c times the spin image of g over (c, g) in ``terms``,
        over the common cyclotomic field of m and the coefficients."""
        order = rep.m
        for c, _ in terms:
            order = order * c.order // gcd(order, c.order)
        out = SpinMatrix.zero(rep.dim, order)
        for c, g in terms:
            c = c.lift(order)
            values = [CycloScalar.root_of_unity(rep.m, p).lift(order) * c for p in range(rep.m)]
            rows, phases = monomial_image(rep, g)
            for t, (r, p) in enumerate(zip(rows.tolist(), phases.tolist())):
                out.rows[r][t] = out.rows[r][t] + values[p]
        return out

    def __matmul__(self, other):
        if other.order != self.order:
            raise ValueError("matrix product needs one cyclotomic field")
        dim = self.dim
        zero = CycloScalar.zero(self.order)
        out = [[zero] * dim for _ in range(dim)]
        for i in range(dim):
            arow = self.rows[i]
            orow = out[i]
            for k in range(dim):
                x = arow[k]
                if x.is_zero():
                    continue
                brow = other.rows[k]
                for j in range(dim):
                    y = brow[j]
                    if not y.is_zero():
                        orow[j] = orow[j] + x * y
        return SpinMatrix(dim, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, SpinMatrix):
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def trace(self) -> CycloScalar:
        t = CycloScalar.zero(self.order)
        for i in range(self.dim):
            t = t + self.rows[i][i]
        return t

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if not c.is_zero():
                    out[i, j] = c.to_complex()
        return out

    def entries_json(self) -> list:
        return [[c.to_json() for c in row] for row in self.rows]


def monomial_image(rep: SpinRepData, g: WreathElement):
    """Image of a position-group element on the spin tensor product.

    The image is a monomial matrix: basis state t goes to state ``rows[t]``
    with the phase tau**``phases[t]``, tau = exp(2 pi i / m).  The
    permutation moves whole spins, a flip reverses the local weight order,
    and rotations contribute the phase of the final local state.
    """
    if g.size != rep.N or g.order != rep.m:
        raise ValueError("group element does not fit this spin representation")
    n, N = rep.n, rep.N
    # digits[t, j]: local state of site j in basis state t, site 1 leading
    digits = np.indices((n,) * N).reshape(N, -1).T
    inv = np.argsort(g.perm)
    img = digits[:, inv]
    flip = np.array(g.flip, dtype=bool)
    img[:, flip] = n - 1 - img[:, flip]
    phases = (np.array(rep.weights)[img] @ np.array(g.rot)) % rep.m
    rows = img @ (n ** np.arange(N - 1, -1, -1))
    return rows, phases


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


def spin_matrix_of_element(rep: SpinRepData, g: WreathElement) -> SpinMatrix:
    """The spin image of g as an exact dense matrix (a dense reference)."""
    return SpinMatrix.from_terms(rep, [(CycloScalar.one(rep.m), g)])


def generating_set(N: int, m: int) -> list[WreathElement]:
    """e_1, ..., e_{N-1}, a and k, which generate W(m, N)."""
    spec = GroupSpec("W(m,N)", N, m)
    return [generator(spec, "e", i=i) for i in range(1, N)] + [
        generator(spec, "a"),
        generator(spec, "k"),
    ]


def spin_representation_check(rep: SpinRepData) -> CheckSuite:
    """Defining relations and the homomorphism property, exactly.

    Every image is composed as a pair of integer arrays
    (``compose_images``), never as a dense matrix.

    The homomorphism item is decided on all of W.  With S = {e_1, ...,
    e_{N-1}, a, k}, which generates W = W(m, N), it checks M(g) M(s) =
    M(g s) for every g in W and s in S, |W| |S| pairs.  That implies
    M(g) M(h) = M(g h) for every pair:

    * g = 1 gives M(1) M(s) = M(s), and M(s) is invertible, so M(1) = 1.
    * Every h in the finite group W is a word s_1 ... s_k in S.  For k = 0,
      M(g) M(1) = M(g).  If M(g) M(h) = M(g h) for all g, then for s in S
      M(g) M(h s) = M(g) M(h) M(s) = M(g h) M(s) = M(g h s), using the
      check at (h, s), the hypothesis, and the check at (g h, s).
    """
    suite = CheckSuite("spin-representation")
    N, m = rep.N, rep.m
    idx = {"n": rep.n, "m": m, "N": N}
    spec = GroupSpec("W(m,N)", N, m)
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
    els = enumerate_subgroup(spec, cap=10**5)
    where = {g: t for t, g in enumerate(els)}
    images = [monomial_image(rep, g) for g in els]
    table = (np.stack([r for r, _ in images]), np.stack([p for _, p in images]))
    gens = generating_set(N, m)
    ok = True
    for s in gens:
        target = [where[g * s] for g in els]
        product = compose_images(table, images[where[s]], m)
        ok = ok and _same_image(product, (table[0][target], table[1][target]))
    suite.add("M(g) M(h) = M(g h)", {**idx, "samples": len(els) * len(gens)}, ok)
    return suite


# -- substitution and projectors ------------------------------------------------


def _roots(m: int, order: int) -> list[CycloScalar]:
    """tau**p for p = 0, ..., m - 1, in the field of the given order."""
    return [CycloScalar.root_of_unity(m, p).lift(order) for p in range(m)]


def _add_image(acc: dict, rep: SpinRepData, g: WreathElement, c, roots) -> None:
    """acc += c rho(g), on a sparse {(row, column): coefficient} matrix."""
    values = [c * r for r in roots]
    rows, phases = monomial_image(rep, g)
    for t, (r, p) in enumerate(zip(rows.tolist(), phases.tolist())):
        cur = acc.get((r, t))
        piece = values[p] if cur is None else cur + values[p]
        if piece.is_zero():
            acc.pop((r, t), None)
        else:
            acc[(r, t)] = piece


def substitute_spin(A: MixedOperator, rep: SpinRepData) -> dict:
    """Replace every position-group element of A by its spin image.

    A is in normal form (group elements rightmost).  The result maps each
    Euler index k to the exact sparse spin matrix S_k = sum_g c_{k,g} rho(g),
    {(row, column): coefficient} over the common field of A and tau; an
    index whose matrix cancels is left out.
    """
    order = A.order * rep.m // gcd(A.order, rep.m)
    roots = _roots(rep.m, order)
    out: dict = {}
    for (k, g), c in A.terms.items():
        _add_image(out.setdefault(k, {}), rep, g, c.lift(order), roots)
    return {k: mat for k, mat in out.items() if mat}


def convolve(a: dict, b: dict) -> dict:
    """The product of two group-algebra elements: weight p_g q_h on g h."""
    out: dict = {}
    for g, p in a.items():
        for h, q in b.items():
            gh = g * h
            out[gh] = out.get(gh, 0) + p * q
    return {g: p for g, p in out.items() if p}


def adjoint_weights(a: dict) -> dict:
    """a* = sum_g p_g g^{-1}, the weights of iota(a)^dagger (weights are real)."""
    return {g.inverse(): p for g, p in a.items()}


def build_projector(params: ModelParams, which: str = "auto") -> dict[WreathElement, Fraction]:
    """Group-average projectors onto physical wavefunctions, as weights on W.

    A weight dict p stands for iota(p) = sum_g p_g g (x) rho(g): g acts on
    positions and its image rho(g) (``monomial_image``) on spins.
    ``exchange`` is the uniform average over the rotation-balanced subgroup
    G(m, m, N).  ``boundary`` (dihedral family) multiplies, site by site,
    the averages of Q_j^{2s} and Q_j^{2s} K_j over s = 0, ..., m - 1.
    ``product`` is the exchange projector times the boundary one, and
    ``auto`` picks the projector of the family.  The weights are
    nonnegative and do not depend on the spin representation.

    iota is an algebra map: iota(p) iota(q) = sum p_g q_h gh (x) rho(g) rho(h)
    = iota(p q), with the product of weights the convolution (``convolve``),
    because rho is a homomorphism; ``spin_representation_check`` proves that
    for every representation and runs before ``projector_check`` in every
    ``verify``.  iota is injective, because distinct g are distinct position
    keys and rho(g) != 0.  And iota(p)^dagger = iota(p*) with
    p* = sum p_g g^{-1} (``adjoint_weights``), because rho is unitary and
    monomial and the weights are real.  So every identity among projectors
    is an equality of weight dicts.
    """
    N, m = params.size, params.order
    if which == "auto":
        which = "exchange" if params.family == "cyclic" else "product"
    if which == "exchange":
        els = enumerate_subgroup(GroupSpec("G(m,p,N)", N, m, p=m), cap=10**5)
        return {g: Fraction(1, len(els)) for g in els}
    if which == "boundary":
        total = {WreathElement.identity(N, m): Fraction(1)}
        for j in range(1, N + 1):
            site: dict = {}
            for s in range(m):
                reflection = boundary_element(N, m, j, 2 * s)
                for g in (reflection * boundary_element(N, m, j, 0), reflection):
                    site[g] = site.get(g, 0) + Fraction(1, 2 * m)
            total = convolve(total, site)
        return total
    if which == "product":
        return convolve(build_projector(params, "exchange"), build_projector(params, "boundary"))
    raise ValueError(f"unknown projector {which!r}")


def projector_check(params: ModelParams, rep: SpinRepData) -> CheckSuite:
    """Idempotence, Hermiticity and the exchange-substitution property.

    By ``build_projector``'s argument every item is decided on weights:
    Lambda^2 = Lambda is ``convolve(lam, lam) == lam``, Hermiticity is
    ``adjoint_weights(lam) == lam``, and the doubled reflection
    g (x) rho(g) is iota of the weight 1 on g.  "Exchange acts like its
    spin image" compares (g (x) 1) iota(Lambda) = sum_x p_{g^{-1}x} x (x)
    rho(g^{-1}x) with (1 (x) rho(g)) iota(Lambda) = sum_x p_x x (x)
    rho(g) rho(x), key by key.  At each x both sides are a nonnegative
    weight times a monomial matrix with unit entries, so they agree iff
    p_{g^{-1}x} = p_x and, where that weight is nonzero, rho(g^{-1}x)
    equals ``compose_images(rho(g), rho(x))``.
    """
    N, m = params.size, params.order
    if (rep.N, rep.m) != (N, m):
        raise ValueError("spin representation does not match the model sizes")
    suite = CheckSuite("projectors")
    idx = {**params.to_json(), "n": rep.n}
    lam = build_projector(params, "exchange")
    suite.add("Lambda^2 = Lambda", idx, convolve(lam, lam) == lam)
    suite.add("Lambda hermitian", idx, adjoint_weights(lam) == lam)
    images = {x: monomial_image(rep, x) for x in lam}

    def acts_like_spin_image(g) -> bool:
        gi, rho_g = g.inverse(), monomial_image(rep, g)
        for x in set(lam) | {g * y for y in lam}:
            p = lam.get(x, 0)
            if lam.get(gi * x, 0) != p:
                return False
            if p and not _same_image(images[gi * x], compose_images(rho_g, images[x], m)):
                return False
        return True

    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            for s in range(m):
                suite.add(
                    "exchange acts like its spin image on Lambda",
                    {**idx, "i": i, "j": j, "s": s},
                    acts_like_spin_image(exchange_element(N, m, i, j, s)),
                )
    if params.family == "dihedral":
        lam_b = build_projector(params, "boundary")
        plam = convolve(lam, lam_b)
        suite.add("Lambda_b^2 = Lambda_b", idx, convolve(lam_b, lam_b) == lam_b)
        suite.add("Lambda Lambda_b = Lambda_b Lambda", idx, plam == convolve(lam_b, lam))
        suite.add("(Lambda Lambda_b)^2 = Lambda Lambda_b", idx, convolve(plam, plam) == plam)
        suite.add("Lambda Lambda_b hermitian", idx, adjoint_weights(plam) == plam)
        for i in range(1, N + 1):
            for s in range(m):
                g = boundary_element(N, m, i, 2 * s)
                suite.add(
                    "doubled reflection fixes Lambda Lambda_b",
                    {**idx, "i": i, "s": s},
                    convolve({g: 1}, plam) == plam,
                )
    return suite


def agreement_blocks(A: MixedOperator, rep: SpinRepData, proj: dict) -> int:
    """The number of nonzero terms of (spin A - A) iota(P), decided exactly.

    spin A = sum_{k,g} c_{k,g} D^k (x) rho(g) (``substitute_spin``), and P
    must be the uniform average over a subgroup S of W: the weights are
    checked to equal 1/|S| and S to be closed under products, exactly, and
    anything else raises.  The product has one term per Euler index k and
    position key x.  (spin A) iota(P) contributes c_{k,g} p_x D^k x (x)
    rho(g) rho(x), because D^k passes the constant p_x, and (A (x) 1)
    iota(P) contributes c_{k,g} p_y D^k gy (x) rho(y), because g passes it
    too.  So with p_x = [x in S] / |S| the spin block of (k, x) is

        p_x S_k rho(x) - sum_g c_{k,g} p_{g^{-1}x} rho(g^{-1}x).

    p_{g^{-1}x} != 0 iff g^{-1}x in S iff g in xS, and rho(x) is
    invertible, so the block is zero iff the block times rho(x)^{-1},

        |S|^{-1} ([x in S] S_k - sum_{g in xS} c_{k,g} rho(g^{-1})),

    is.  That depends on x only through its left coset xS, so one exact
    sparse sum per (k, coset) decides |S| blocks at once, O(terms(A) dim)
    in all; a coset that holds no g of A and is not S itself gives zero.
    """
    S = list(proj)
    if any(p != Fraction(1, len(S)) for p in proj.values()) or any(
        a * b not in proj for a in S for b in S
    ):
        raise ValueError("the projector is not the average over a subgroup")
    order = A.order * rep.m // gcd(A.order, rep.m)
    roots = _roots(rep.m, order)
    coset = dict.fromkeys(S, 0)  # element -> label of its left coset; S is 0
    labels = 1
    brackets = {(k, 0): mat for k, mat in substitute_spin(A, rep).items()}
    for (k, g), c in A.terms.items():
        if g not in coset:
            for s in S:
                coset[g * s] = labels
            labels += 1
        _add_image(brackets.setdefault((k, coset[g]), {}), rep, g.inverse(), -c.lift(order), roots)
    return len(S) * sum(1 for mat in brackets.values() if mat)


def verify_agreement(
    params: ModelParams, rep: SpinRepData, k: int, expect: str = "auto"
) -> CheckSuite:
    """Position charge and spin-substituted charge agree on projected states.

    The agreement theorem covers every k in the cyclic family and even k in
    the dihedral family.  For odd dihedral k there is no general statement:
    k = 1 still vanishes (every group element it contains is an involution
    inside the invariance group, so its position and spin actions coincide
    on projected states), while k = 3 is nonzero under the substitution
    g -> rho(g) that ``substitute_spin`` makes.  ``expect`` can
    force "zero", "nonzero", or "report" (record the outcome, never fail);
    "auto" asserts zero exactly where the theorem applies and reports
    otherwise.  The projector of either family is uniform on a subgroup:
    G(m, m, N), or HB for Lambda Lambda_b, a convolution of two subgroup
    averages; ``agreement_blocks`` checks that and decides the product.
    """
    suite = CheckSuite("charge-agreement")
    idx = {**params.to_json(), "n": rep.n, "k": k}
    terms = agreement_blocks(build_charge(params, k), rep, build_projector(params, "auto"))
    if expect == "auto":
        covered = params.family == "cyclic" or k % 2 == 0
        expect = "zero" if covered else "report"
    if expect == "zero":
        suite.add("(spin charge - charge) * projector = 0", idx, terms == 0)
    elif expect == "nonzero":
        suite.add(
            "(spin charge - charge) * projector != 0",
            idx,
            terms != 0,
            expected_nonzero=True,
        )
    else:
        suite.add(
            "(spin charge - charge) * projector, outcome recorded",
            idx,
            True,
            witness={"zero": terms == 0, "terms": terms},
        )
    return suite


# -- frozen spin chains ---------------------------------------------------------


def frozen_spin_matrix(rep: SpinRepData, terms) -> np.ndarray:
    """Assemble a frozen chain from (scalar, group element) terms as a dense
    complex array, one monomial image per term; ``SpinMatrix.from_terms``
    is the exact counterpart."""
    m = rep.m
    cols = np.arange(rep.dim)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for c, g in terms:
        cval = c.to_complex() if isinstance(c, CycloScalar) else complex(c)
        values = np.array([cval * np.exp(2j * np.pi * p / m) for p in range(m)])
        rows, phases = monomial_image(rep, g)
        out[rows, cols] += values[phases]
    return out


_RESIDUAL_BLOCK = 128


def commutant_residual(H: np.ndarray, rep: SpinRepData, g: WreathElement) -> float:
    """max |H M - M H| for the spin image M of g, without forming M.

    M sends basis state t to ``rows[t]`` with phase w_t, so (H M)[:, t] is
    column ``rows[t]`` of H times w_t and (M H)[rows[t], :] is row t of H
    times w_t: two permutations with phases, O(dim^2), a block of rows at
    a time.
    """
    rows, phases = monomial_image(rep, g)
    roots = [CycloScalar.root_of_unity(rep.m, p) for p in range(rep.m)]
    w = np.array([z.to_complex() for z in roots])[phases]
    inv = np.argsort(rows)
    worst = 0.0
    for k in range(0, len(H), _RESIDUAL_BLOCK):
        src = inv[k : k + _RESIDUAL_BLOCK]
        diff = np.take(H[k : k + _RESIDUAL_BLOCK], rows, axis=1) * w
        diff -= w[src, None] * H[src]
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def hermitian_blocks(matrix: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the pattern ``matrix != 0``.

    Every entry between two components is exactly zero, so each component
    spans an exact invariant subspace of the matrix.  Breadth-first search
    over the symmetrized pattern, one frontier of rows at a time.
    """
    pattern = matrix != 0
    pattern |= pattern.T
    label = np.full(len(matrix), -1)
    blocks = []
    for seed in range(len(matrix)):
        if label[seed] >= 0:
            continue
        label[seed] = len(blocks)
        members = [np.array([seed])]
        frontier = members[0]
        while frontier.size:
            frontier = np.flatnonzero(pattern[frontier].any(axis=0) & (label < 0))
            label[frontier] = len(blocks)
            members.append(frontier)
        blocks.append(np.sort(np.concatenate(members)))
    return blocks


def diagonalize_hermitian(matrix, tol: float = 1e-10):
    """Sorted real spectrum, degeneracy profile and Hermiticity residual
    max |H - H^H| of a Hermitian matrix.

    The matrix splits into the connected components of its nonzero pattern
    (``hermitian_blocks``).  The pattern is symmetrized, so an entry
    between two components is zero in both H and H^H, and the residual and
    max |H| over the whole matrix are their maxima over the diagonal
    blocks.  ``eigh`` runs on each block, and every eigenpair is checked
    against |H v - lambda v| <= 1e-8 * scale * dim, with dim the full
    dimension.  A matrix with one component is diagonalized whole.
    """
    blocks = hermitian_blocks(matrix)

    def block(idx):
        return matrix if len(blocks) == 1 else matrix[np.ix_(idx, idx)]

    herm_residual, scale = 0.0, 1.0
    for idx in blocks:
        B = block(idx)
        herm_residual = max(herm_residual, float(np.max(np.abs(B - B.conj().T))))
        scale = max(scale, float(np.max(np.abs(B))))
    if herm_residual > tol:
        raise ValueError(f"matrix is not Hermitian (residual {herm_residual:.2e})")
    bound = 1e-8 * scale * matrix.shape[0]
    spectra = []
    for idx in blocks:
        B = block(idx)
        vals, vecs = np.linalg.eigh(B)
        # one norm per eigenpair, a block of columns at a time
        for k in range(0, len(vals), _RESIDUAL_BLOCK):
            cols = vecs[:, k : k + _RESIDUAL_BLOCK]
            r = np.linalg.norm(B @ cols - cols * vals[k : k + _RESIDUAL_BLOCK], axis=0)
            if np.any(r > bound):
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


def char_poly_exact(M: SpinMatrix) -> list[CycloScalar]:
    """Characteristic polynomial by the trace recursion, exact.

    Returns [c_0, ..., c_dim] with c_dim = 1, lowest degree first; only
    exact field operations and division by integers are used, so this is an
    eigenvalue oracle independent of any numeric eigensolver.
    """
    dim = M.dim
    order = M.order
    coeffs = [CycloScalar.zero(order) for _ in range(dim + 1)]
    coeffs[dim] = CycloScalar.one(order)
    # M_k = M M_{k-1} + c_{dim-k+1} 1 and c_{dim-k} = -tr(M M_k) / k; the
    # product M M_k serves the trace now and M_{k+1} next
    product = SpinMatrix.zero(dim, order)
    ck = CycloScalar.one(order)
    for k in range(1, dim + 1):
        for i in range(dim):
            product.rows[i][i] = product.rows[i][i] + ck
        product = M @ product
        ck = -(product.trace() / k)
        coeffs[dim - k] = ck
    return coeffs


def charpoly_residual(coeffs, eigenvalues) -> float:
    """Largest |p(lambda)| over the proposed eigenvalues, normalized."""
    vals = np.array([c.to_complex() for c in coeffs], dtype=complex)
    worst = 0.0
    scale = max(1.0, float(np.max(np.abs(vals))))
    for lam in eigenvalues:
        p = 0j
        for c in reversed(vals):
            p = p * lam + c
        worst = max(worst, abs(p) / scale)
    return worst


def brute_force_eigvals(matrix, tol: float = 1e-13, max_sweeps: int = 100) -> np.ndarray:
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Plain two-by-two rotations, no library eigensolver involved; accurate
    for degenerate spectra, which polynomial root-finding is not.
    """
    A = np.array(matrix, dtype=complex)
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = A[p, q]
                if abs(b) <= tol * scale / 10:
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
