"""Spin-space representation, physical-state projectors and spin chains.

Each of the N particles carries an n-dimensional spin.  One unitary of
order m acts diagonally on a single spin through integer weights, a second
one reverses the weight order, and transpositions exchange whole spins;
together these represent the dihedral wreath group on the N-fold tensor
product.  The map from position-group elements to spin matrices is defined
on normal forms and checked to be a homomorphism.

Physical states are selected by group-average projectors: the exchange
projector averages the doubled (position times spin) action over the
rotation-balanced subgroup, and the dihedral boundary projector multiplies
per-site averages over doubled even rotations and reflections.  On the
projected space the position charges and their spin substitutes agree,
which is what ``verify_agreement`` checks exactly.
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
    """Dense matrix with exact cyclotomic entries (small dimensions)."""

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
    def identity(dim: int, order: int) -> "SpinMatrix":
        out = SpinMatrix.zero(dim, order)
        one = CycloScalar.one(order)
        for i in range(dim):
            out.rows[i][i] = one
        return out

    def lift(self, order: int) -> "SpinMatrix":
        if order == self.order:
            return self
        return SpinMatrix(
            self.dim, order, [[c.lift(order) for c in row] for row in self.rows]
        )

    def _match(self, other: "SpinMatrix"):
        order = self.order * other.order // gcd(self.order, other.order)
        return self.lift(order), other.lift(order)

    def __add__(self, other):
        a, b = self._match(other)
        return SpinMatrix(
            a.dim, a.order,
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SpinMatrix(self.dim, self.order, [[-x for x in row] for row in self.rows])

    def scale(self, c) -> "SpinMatrix":
        return SpinMatrix(self.dim, self.order, [[x * c for x in row] for row in self.rows])

    def __matmul__(self, other):
        a, b = self._match(other)
        dim = a.dim
        zero = CycloScalar.zero(a.order)
        out = [[zero] * dim for _ in range(dim)]
        for i in range(dim):
            arow = a.rows[i]
            orow = out[i]
            for k in range(dim):
                x = arow[k]
                if x.is_zero():
                    continue
                brow = b.rows[k]
                for j in range(dim):
                    y = brow[j]
                    if not y.is_zero():
                        orow[j] = orow[j] + x * y
        return SpinMatrix(dim, a.order, out)

    def __eq__(self, other):
        if not isinstance(other, SpinMatrix):
            return NotImplemented
        a, b = self._match(other)
        return a.rows == b.rows

    def __hash__(self):
        return hash((self.dim, self.order))

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.rows for c in row)

    def conj_transpose(self) -> "SpinMatrix":
        return SpinMatrix(
            self.dim, self.order,
            [[self.rows[j][i].conj() for j in range(self.dim)] for i in range(self.dim)],
        )

    def is_hermitian(self) -> bool:
        return self == self.conj_transpose()

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


def spin_matrix_of_element(rep: SpinRepData, g: WreathElement) -> SpinMatrix:
    """The spin image of g as an exact dense matrix."""
    rows, phases = monomial_image(rep, g)
    out = SpinMatrix.zero(rep.dim, rep.m)
    for t, (r, p) in enumerate(zip(rows.tolist(), phases.tolist())):
        out.rows[r][t] = CycloScalar.root_of_unity(rep.m, p)
    return out


def build_spin_generators(rep: SpinRepData) -> dict:
    """Exchange, rotation and reflection matrices for every site."""
    spec = GroupSpec("W(m,N)", rep.N, rep.m)
    out = {"P": {}, "Q": {}, "K": {}}
    for i in range(1, rep.N + 1):
        for name in ("Q", "K"):
            out[name][i] = spin_matrix_of_element(rep, generator(spec, name, i=i))
        for j in range(i + 1, rep.N + 1):
            out["P"][(i, j)] = spin_matrix_of_element(rep, generator(spec, "P", i=i, j=j))
    return out


def spin_representation_check(rep: SpinRepData, samples: int = 200, seed: int = 0) -> CheckSuite:
    """Defining relations and the homomorphism property, exactly."""
    import random

    suite = CheckSuite("spin-representation")
    N, m = rep.N, rep.m
    idx = {"n": rep.n, "m": m, "N": N}
    gens = build_spin_generators(rep)
    ident = SpinMatrix.identity(rep.dim, m)
    for i in range(1, N + 1):
        Q, K = gens["Q"][i], gens["K"][i]
        qpow = ident
        for _ in range(m):
            qpow = qpow @ Q
        suite.add("Q_i^m = 1", {**idx, "i": i}, qpow == ident)
        suite.add("K_i^2 = 1", {**idx, "i": i}, K @ K == ident)
        suite.add(
            "K_i Q_i K_i = Q_i^{-1}",
            {**idx, "i": i},
            (K @ Q @ K) @ Q == ident,
        )
        for j in range(i + 1, N + 1):
            P = gens["P"][(i, j)]
            suite.add("P_ij^2 = 1", {**idx, "i": i, "j": j}, P @ P == ident)
            suite.add(
                "P_ij Q_i = Q_j P_ij",
                {**idx, "i": i, "j": j},
                P @ Q == gens["Q"][j] @ P,
            )
            suite.add(
                "Q_i Q_j = Q_j Q_i",
                {**idx, "i": i, "j": j},
                Q @ gens["Q"][j] == gens["Q"][j] @ Q,
            )
    rng = random.Random(seed)
    spec = GroupSpec("W(m,N)", N, m)
    els = enumerate_subgroup(spec, cap=10**5)
    bad = 0
    trials = min(samples, len(els) ** 2)
    for _ in range(trials):
        g, h = rng.choice(els), rng.choice(els)
        lhs = spin_matrix_of_element(rep, g) @ spin_matrix_of_element(rep, h)
        rhs = spin_matrix_of_element(rep, g * h)
        if lhs != rhs:
            bad += 1
    suite.add("M(g) M(h) = M(g h)", {**idx, "samples": trials}, bad == 0)
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


# -- dynamical and frozen spin Hamiltonians -------------------------------------


def dynamical_spin_hamiltonian(params: ModelParams, rep: SpinRepData) -> MixedOperator:
    """Spin substitute of the quadratic charge (local spin-spin model)."""
    return substitute_spin(build_charge(params, 2), rep)


def frozen_spin_matrix(rep: SpinRepData, terms, backend: str = "exact"):
    """Assemble a frozen chain from (scalar, group element) terms.

    ``exact`` returns a SpinMatrix over the common cyclotomic field;
    ``numeric`` builds a dense complex array without exact intermediates.
    """
    dim, m = rep.dim, rep.m
    cols = np.arange(dim)
    if backend == "exact":
        order = m
        for c, _ in terms:
            order = order * c.order // gcd(order, c.order)
        out = SpinMatrix.zero(dim, order)
        for c, g in terms:
            c = c.lift(order)
            values = [CycloScalar.root_of_unity(m, p).lift(order) * c for p in range(m)]
            rows, phases = monomial_image(rep, g)
            for t, (r, p) in enumerate(zip(rows.tolist(), phases.tolist())):
                out.rows[r][t] = out.rows[r][t] + values[p]
        return out
    out = np.zeros((dim, dim), dtype=complex)
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
    """Sorted real spectrum and degeneracy profile of a Hermitian matrix.

    The Hermiticity check runs on the whole matrix.  The matrix then splits
    into the connected components of its nonzero pattern
    (``hermitian_blocks``); ``eigh`` runs on each component's block, and
    every eigenpair is checked against |H v - lambda v| <= 1e-8 * scale *
    dim, with dim the full dimension.  A matrix with one component is
    diagonalized whole.
    """
    if isinstance(matrix, SpinMatrix):
        matrix = matrix.to_numpy()
    herm_residual = np.max(np.abs(matrix - matrix.conj().T))
    if herm_residual > tol:
        raise ValueError(f"matrix is not Hermitian (residual {herm_residual:.2e})")
    scale = max(1.0, np.max(np.abs(matrix)))
    bound = 1e-8 * scale * matrix.shape[0]
    blocks = hermitian_blocks(matrix)
    spectra = []
    for idx in blocks:
        block = matrix if len(blocks) == 1 else matrix[np.ix_(idx, idx)]
        vals, vecs = np.linalg.eigh(block)
        # one norm per eigenpair, a block of columns at a time
        for k in range(0, len(vals), _RESIDUAL_BLOCK):
            cols = vecs[:, k : k + _RESIDUAL_BLOCK]
            r = np.linalg.norm(block @ cols - cols * vals[k : k + _RESIDUAL_BLOCK], axis=0)
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
    return vals, degs


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


def spectrum_from_charpoly(coeffs) -> np.ndarray:
    """Eigenvalues as roots of the exact characteristic polynomial.

    Root-finding resolves a k-fold eigenvalue only to about eps**(1/k), so
    this is a structural cross-check; the tight independent oracle is
    ``brute_force_eigvals``.
    """
    arr = np.array([c.to_complex() for c in reversed(coeffs)], dtype=complex)
    roots = np.roots(arr)
    return np.sort(roots.real)


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
    if isinstance(matrix, SpinMatrix):
        matrix = matrix.to_numpy()
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
