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

Physical states are selected by group-average projectors: the exchange
projector averages the doubled (position times spin) action over the
rotation-balanced subgroup, and the dihedral boundary projector multiplies
per-site averages over doubled even rotations and reflections.  On the
projected space the position charges and their spin substitutes agree,
which is what ``verify_agreement`` checks exactly.

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
from .opalg import MixedOperator, op_compose
from .polyalg import RationalCoefficient
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

    def equal(a, b) -> bool:
        return bool(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))

    for i in range(1, N + 1):
        suite.add("Q_i^m = 1", {**idx, "i": i}, equal(mul(*[Q[i]] * m), ident))
        suite.add("K_i^2 = 1", {**idx, "i": i}, equal(mul(K[i], K[i]), ident))
        suite.add(
            "K_i Q_i K_i = Q_i^{-1}",
            {**idx, "i": i},
            equal(mul(K[i], Q[i], K[i], Q[i]), ident),
        )
        for j in range(i + 1, N + 1):
            P = monomial_image(rep, generator(spec, "P", i=i, j=j))
            suite.add("P_ij^2 = 1", {**idx, "i": i, "j": j}, equal(mul(P, P), ident))
            suite.add(
                "P_ij Q_i = Q_j P_ij",
                {**idx, "i": i, "j": j},
                equal(mul(P, Q[i]), mul(Q[j], P)),
            )
            suite.add(
                "Q_i Q_j = Q_j Q_i",
                {**idx, "i": i, "j": j},
                equal(mul(Q[i], Q[j]), mul(Q[j], Q[i])),
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
        ok = ok and equal(product, (table[0][target], table[1][target]))
    suite.add("M(g) M(h) = M(g h)", {**idx, "samples": len(els) * len(gens)}, ok)
    return suite


# -- substitution and projectors ------------------------------------------------


def substitute_spin(A: MixedOperator, rep: SpinRepData) -> MixedOperator:
    """Replace every position-group element by its spin matrix.

    The input must be spinless and in normal form (group elements already
    rightmost); coefficients and Euler parts are untouched, the output
    carries a trivial position-group part.
    """
    if A.spin_dim != 1:
        raise ValueError("substitution expects a spinless operator")
    ident = WreathElement.identity(A.nvars, A.group_order)
    order = A.order * rep.m // gcd(A.order, rep.m)
    out: dict = {}
    for (k, g), mat in A.terms.items():
        c = mat[(0, 0)].lift(order)
        entries = out.setdefault((k, ident), {})
        for pos, v in _spin_entries(rep, g):
            piece = c * v.lift(order)
            cur = entries.get(pos)
            piece = piece if cur is None else cur + piece
            if piece.is_zero():
                entries.pop(pos, None)
            else:
                entries[pos] = piece
    out = {key: mat for key, mat in out.items() if mat}
    return MixedOperator(A.nvars, order, A.group_order, rep.dim, out, _trusted=True)


def _spin_entries(rep: SpinRepData, g: WreathElement):
    """The nonzero entries ((row, column), phase) of g's spin image, by row."""
    rows, phases = monomial_image(rep, g)
    cols = np.argsort(rows)
    return [
        ((r, t), CycloScalar.root_of_unity(rep.m, p))
        for r, (t, p) in enumerate(zip(cols.tolist(), phases[cols].tolist()))
    ]


def doubled_element(
    rep: SpinRepData, g: WreathElement, order: int, position: bool = True
) -> MixedOperator:
    """g acting simultaneously on positions and spins, as one operator;
    with ``position=False`` the spin image of g alone."""
    entries = {
        pos: RationalCoefficient.from_scalar(g.size, v, order)
        for pos, v in _spin_entries(rep, g)
    }
    h = g if position else WreathElement.identity(g.size, g.order)
    return MixedOperator.spin_term(h, entries, g.size, order, rep.dim)


def spin_image_operator(rep: SpinRepData, g: WreathElement, order: int) -> MixedOperator:
    """The spin matrix of g alone, with a trivial position part."""
    return doubled_element(rep, g, order, position=False)


def build_projector(params: ModelParams, rep: SpinRepData, which: str = "auto") -> MixedOperator:
    """Group-average projectors onto physical wavefunctions.

    ``exchange`` averages the doubled action over the rotation-balanced
    exchange subgroup; ``boundary`` multiplies per-site averages over
    doubled even rotations and reflections (dihedral family); ``auto``
    returns the product appropriate to the family.
    """
    N, m = params.size, params.order
    if rep.N != N or rep.m != m:
        raise ValueError("spin representation does not match the model sizes")
    order = m
    if which == "auto":
        which = "exchange" if params.family == "cyclic" else "product"
    if which in ("Lambda", "exchange"):
        sub = GroupSpec("G(m,p,N)", N, m, p=m)
        els = enumerate_subgroup(sub, cap=10**5)
        total = MixedOperator.zero(N, order, m, rep.dim)
        for g in els:
            total = total + doubled_element(rep, g, order)
        return total.scale(Fraction(1, len(els)))
    if which in ("Lambda_b", "boundary"):
        total = MixedOperator.identity(N, order, m, rep.dim)
        for j in range(1, N + 1):
            site = MixedOperator.zero(N, order, m, rep.dim)
            for s in range(m):
                rot = boundary_element(N, m, j, 2 * s) * boundary_element(N, m, j, 0)
                site = site + doubled_element(rep, rot, order)
                site = site + doubled_element(
                    rep, boundary_element(N, m, j, 2 * s), order
                )
            total = op_compose(total, site.scale(Fraction(1, 2 * m)))
        return total
    if which == "product":
        lam = build_projector(params, rep, "exchange")
        lam_b = build_projector(params, rep, "boundary")
        return op_compose(lam, lam_b)
    raise ValueError(f"unknown projector {which!r}")


def projector_check(params: ModelParams, rep: SpinRepData) -> CheckSuite:
    """Idempotence, Hermiticity and the exchange-substitution property."""
    N, m = params.size, params.order
    suite = CheckSuite("projectors")
    idx = {**params.to_json(), "n": rep.n}
    lam = build_projector(params, rep, "exchange")
    suite.add("Lambda^2 = Lambda", idx, op_compose(lam, lam) == lam)
    suite.add("Lambda hermitian", idx, lam.adjoint() == lam)
    order = lam.order
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            for s in range(m):
                g = exchange_element(N, m, i, j, s)
                pos = MixedOperator.from_group(g, order, rep.dim)
                spin = spin_image_operator(rep, g, order)
                ok = op_compose(pos, lam) == op_compose(spin, lam)
                suite.add(
                    "exchange acts like its spin image on Lambda",
                    {**idx, "i": i, "j": j, "s": s},
                    ok,
                )
    if params.family == "dihedral":
        lam_b = build_projector(params, rep, "boundary")
        plam = op_compose(lam, lam_b)
        suite.add("Lambda_b^2 = Lambda_b", idx, op_compose(lam_b, lam_b) == lam_b)
        suite.add(
            "Lambda Lambda_b = Lambda_b Lambda",
            idx,
            plam == op_compose(lam_b, lam),
        )
        suite.add("(Lambda Lambda_b)^2 = Lambda Lambda_b", idx, op_compose(plam, plam) == plam)
        suite.add("Lambda Lambda_b hermitian", idx, plam.adjoint() == plam)
        for i in range(1, N + 1):
            for s in range(m):
                g = boundary_element(N, m, i, 2 * s)
                both = doubled_element(rep, g, lam.order)
                suite.add(
                    "doubled reflection fixes Lambda Lambda_b",
                    {**idx, "i": i, "s": s},
                    op_compose(both, plam) == plam,
                )
    return suite


def verify_agreement(
    params: ModelParams, rep: SpinRepData, k: int, expect: str = "auto"
) -> CheckSuite:
    """Position charge and spin-substituted charge agree on projected states.

    The agreement theorem covers every k in the cyclic family and even k in
    the dihedral family.  For odd dihedral k there is no general statement:
    k = 1 still vanishes (every group element it contains is an involution
    inside the invariance group, so its position and spin actions coincide
    on projected states), while k = 3 is genuinely nonzero.  ``expect`` can
    force "zero", "nonzero", or "report" (record the outcome, never fail);
    "auto" asserts zero exactly where the theorem applies and reports
    otherwise.
    """
    suite = CheckSuite("charge-agreement")
    idx = {**params.to_json(), "n": rep.n, "k": k}
    charge = build_charge(params, k)
    spin_charge = substitute_spin(charge, rep)
    proj = build_projector(params, rep, "auto")
    order = proj.order * spin_charge.order // gcd(proj.order, spin_charge.order)
    diff = spin_charge.lift_order(order) - charge.lift_spin(rep.dim).lift_order(order)
    prod = op_compose(diff, proj.lift_order(order))
    if expect == "auto":
        covered = params.family == "cyclic" or k % 2 == 0
        expect = "zero" if covered else "report"
    if expect == "zero":
        suite.add("(spin charge - charge) * projector = 0", idx, prod.is_zero())
    elif expect == "nonzero":
        suite.add(
            "(spin charge - charge) * projector != 0",
            idx,
            not prod.is_zero(),
            expected_nonzero=True,
        )
    else:
        suite.add(
            "(spin charge - charge) * projector, outcome recorded",
            idx,
            True,
            witness={"zero": prod.is_zero(), "terms": prod.term_count()},
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
    Mk = SpinMatrix.zero(dim, order)
    ck = CycloScalar.one(order)
    for k in range(1, dim + 1):
        Mk = M @ Mk
        for i in range(dim):
            Mk.rows[i][i] = Mk.rows[i][i] + ck
        ck = -((M @ Mk).trace() / k)
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
