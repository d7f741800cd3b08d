"""Shared random-object generators, the exact-application oracle of the
operator-algebra tests, exact and complex evaluation of coefficients and
the term-by-term float residual of an operator, a reader of exported
scalars, the reduced-form predicate of rational coefficients, the dense
oracles of the projector and agreement checks, the entry-by-entry
references of exact spin sums and agreement counts, the dense references of
exact spin sums, the frozen chain and its characteristic polynomial, the
extraction references of the static Hamiltonian and the frozen chains,
the direct-product
references of the charge commutators, the Hecke cross relation and the
freezing identities, the
summed scalar potential, residuals at arbitrary positions, and the
lattice-table suite."""

import cmath
import itertools
from fractions import Fraction
from math import lcm, prod
from random import Random

import numpy as np

from wreathdunkl.cyclotomic import CycloScalar
from wreathdunkl.dunkl import (
    ModelParams,
    balanced_sum,
    build_charge,
    build_dunkl,
    build_hamiltonian,
    exchange_element,
    hamiltonian_images,
    inverse_square,
)
from wreathdunkl.groups import GroupSpec, WreathElement, enumerate_subgroup, generator
from wreathdunkl.opalg import MixedOperator, op_commutator, op_compose
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient
from wreathdunkl.reports import CheckSuite
from wreathdunkl.spinrep import SparseChain, monomial_image
from wreathdunkl.static import (
    LATTICE_LABELS,
    LatticeConfig,
    _static_params,
    build_barred,
    build_lattice,
    build_static_hamiltonian,
)


def random_operator(rng, N=2, m=3, nterms=2, allow_euler=True):
    """Small random mixed operator with simple pole structure."""
    els = enumerate_subgroup(GroupSpec("W(m,N)", N, m))
    z = CycloScalar.root_of_unity(m) if m > 1 else CycloScalar.one(1)
    A = MixedOperator.zero(N, m)
    for _ in range(nterms):
        g = rng.choice(els)
        k = tuple(rng.randint(0, 1) if allow_euler else 0 for _ in range(N))
        poly = LaurentPoly.monomial(
            N,
            tuple(rng.randint(-1, 1) for _ in range(N)),
            Fraction(rng.randint(1, 3), rng.randint(1, 2)),
            m,
        )
        if rng.random() < 0.5:
            den = LaurentPoly.variable(1, N, m) - LaurentPoly.variable(2, N, m) * (
                z ** rng.randint(0, m - 1)
            )
            coeff = RationalCoefficient.ratio(poly, den)
        else:
            coeff = RationalCoefficient.from_poly(poly)
        A = A + MixedOperator(N, m, {(k, g): coeff})
    return A


def _derive(h, k):
    for var, p in enumerate(k):
        for _ in range(p):
            h = h.euler(var + 1)
    return h


def apply(A, f):
    """Apply A to one rational function, exactly."""
    if isinstance(f, LaurentPoly):
        f = RationalCoefficient.from_poly(f)
    out = RationalCoefficient.zero(A.nvars, A.order)
    for (k, g), c in A.terms.items():
        out = out + c * _derive(f.act(g), k)
    return out


def lift_coefficient(c: RationalCoefficient, order: int) -> RationalCoefficient:
    """c in Q(zeta_order), built afresh from its lifted numerator and
    denominator factors."""
    return RationalCoefficient(c.num.lift(order), tuple((f.lift(order), k) for f, k in c.den))


def eval_exact(c, values) -> CycloScalar:
    """A Laurent polynomial or rational coefficient at exact scalars, all
    lifted to one common field; raises ZeroDivisionError where a
    denominator factor vanishes."""
    if isinstance(c, RationalCoefficient):
        acc = eval_exact(c.num, values)
        for f, k in c.den:
            v = eval_exact(f, values)
            if v.is_zero():
                raise ZeroDivisionError("denominator vanishes at the given point")
            acc = acc * (v.inverse() ** k)
        return acc
    order = lcm(c.order, *(v.order for v in values))
    vals = [v.lift(order) for v in values]
    acc = CycloScalar.zero(order)
    for e, s in c.items():
        acc = acc + prod((v**a for v, a in zip(vals, e)), start=s.lift(order))
    return acc


def eval_complex(c, point) -> complex:
    """A Laurent polynomial or rational coefficient at a complex point, term
    by term in complex floats, without adding rational functions."""
    if isinstance(c, RationalCoefficient):
        acc = eval_complex(c.num, point)
        for f, k in c.den:
            acc /= eval_complex(f, point) ** k
        return acc
    return sum((s.to_complex() * prod(z**a for z, a in zip(point, e)) for e, s in c.items()), 0j)


def random_torus_point(rng, nvars: int) -> tuple:
    """A uniform point on the torus |q_i| = 1."""
    return tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(nvars))


def random_test_functions(rng, nvars: int, order: int, count: int = 1) -> list:
    """``count`` small random Laurent polynomials, as coefficients."""
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


def numeric_apply(A, f, point) -> complex:
    """(A f)(point) term by term in complex floats: it never adds rational
    functions symbolically, so it cross-checks the exact normal form."""
    return sum(
        (eval_complex(c, point) * eval_complex(_derive(f.act(g), k), point)
         for (k, g), c in A.terms.items()),
        0j,
    )


def numeric_residual(A, seed: int = 0) -> float:
    """Largest |(A f)(point)| over 5 random torus points, away from every
    denominator zero, and 3 random test functions at each."""
    rng = Random(seed)
    worst = 0.0
    factors = [f for c in A.terms.values() for f, _ in c.den]
    for _ in range(5):
        point = random_torus_point(rng, A.nvars)
        for _ in range(100):
            if min((abs(eval_complex(f, point)) for f in factors), default=1) >= 1e-6:
                break
            point = random_torus_point(rng, A.nvars)
        else:
            raise RuntimeError("could not sample away from denominator zeros")
        for _ in range(3):
            [f] = random_test_functions(rng, A.nvars, A.order)
            worst = max(worst, abs(numeric_apply(A, f, point)))
    return worst


def zero_rows(dim: int, order: int) -> list:
    """A dim x dim matrix of exact zeros, as rows of ``CycloScalar``."""
    return [[CycloScalar.zero(order)] * dim for _ in range(dim)]


def image_by_definition(rep, g) -> list:
    """[(row, column, phase)] of the spin image of g, one basis state at a
    time: the permutation moves whole spins, a flip reverses the local
    state, and each rotation contributes the phase of the weight of the
    final local state."""
    n, N, m = rep.n, rep.N, rep.m
    out = []
    for t in itertools.product(range(n), repeat=N):
        img = [t[g.perm.index(j)] for j in range(N)]
        img = [n - 1 - x if g.flip[j] else x for j, x in enumerate(img)]
        phase = sum(g.rot[j] * rep.weights[x] for j, x in enumerate(img)) % m
        row = sum(x * n ** (N - 1 - j) for j, x in enumerate(img))
        col = sum(x * n ** (N - 1 - j) for j, x in enumerate(t))
        out.append((row, col, phase))
    return out


def spin_image_by_definition(rep, g):
    """Dense spin image of g as rows of ``CycloScalar`` (``image_by_definition``)."""
    out = zero_rows(rep.dim, rep.m)
    for row, col, phase in image_by_definition(rep, g):
        out[row][col] = CycloScalar.root_of_unity(rep.m, phase)
    return out


def dense_spin_sum(rep, terms) -> list:
    """sum c rho(g) over the (c, g) in ``terms``, dense, over the lcm field
    of m and the coefficients, each image from ``spin_image_by_definition``:
    the reference for ``spinrep.spin_sum``."""
    order = lcm(rep.m, *(c.order for c, _ in terms))
    out = zero_rows(rep.dim, order)
    for c, g in terms:
        for r, row in enumerate(spin_image_by_definition(rep, g)):
            for t, v in enumerate(row):
                if not v.is_zero():
                    out[r][t] = out[r][t] + c.lift(order) * v.lift(order)
    return out


def nonzero_entries(rows) -> dict:
    """The sparse {(row, column): entry} form of dense rows, zeros left out."""
    return {
        (r, t): v for r, row in enumerate(rows) for t, v in enumerate(row) if not v.is_zero()
    }


def sparse_to_numpy(dim: int, S: dict) -> np.ndarray:
    """The exact sparse matrix S as a dense complex array."""
    out = np.zeros((dim, dim), dtype=complex)
    for (r, t), v in S.items():
        out[r, t] = v.to_complex()
    return out


def left_regular(els, g):
    """L(g) on the group algebra with basis ``els``: e_h goes to e_{gh}."""
    where = {h: i for i, h in enumerate(els)}
    L = np.zeros((len(els), len(els)))
    for h in els:
        L[where[g * h], where[h]] = 1.0
    return L


def dense_iota(weights, rep, els):
    """sum_g p_g L(g) (x) rho(g) as a dense complex matrix.

    L is the left-regular representation of W = ``els``, so this image of
    the group algebra is faithful: column e_1 (x) v of the g-th term is
    e_g (x) rho(g) v, and distinct g fill distinct blocks."""
    dim = len(els) * rep.dim
    out = np.zeros((dim, dim), dtype=complex)
    for g, p in weights.items():
        rho = to_numpy(spin_image_by_definition(rep, g))
        out += float(p) * np.kron(left_regular(els, g), rho)
    return out


def _substituted(g, inverse: bool):
    """The element whose spin image replaces g: g^-1, the exchange-operator
    substitution, or g itself when ``inverse`` is false."""
    return g.inverse() if inverse else g


def apply_agreement(A, rep, proj, funcs, inverse=True):
    """(spin A - A) iota(P) applied to the spin vector ``funcs`` (one
    function per basis state), exactly.

    iota(P) v has components sum_x p_x sum_t rho(x)[r, t] (x . v_t), A acts
    on each component, and spin A replaces each term c D^k g of A by
    c D^k (x) rho(g^-1), or by c D^k (x) rho(g) when ``inverse`` is false.
    Spin images come from ``spin_image_by_definition``.  A, rep and funcs
    share one field, Q(zeta_m)."""
    zero = RationalCoefficient.zero(A.nvars, rep.m)

    def entries(g):
        rows = spin_image_by_definition(rep, g)
        return [
            (r, t, v)
            for r, row in enumerate(rows)
            for t, v in enumerate(row)
            if not v.is_zero()
        ]

    w = [zero] * rep.dim
    for x, p in proj.items():
        for r, t, v in entries(x):
            w[r] = w[r] + funcs[t].act(x) * (v * p)
    out = [-apply(A, wr) for wr in w]
    derived = {}
    for (k, g), c in A.terms.items():
        for r, t, v in entries(_substituted(g, inverse)):
            if (k, t) not in derived:
                derived[(k, t)] = _derive(w[t], k)
            out[r] = out[r] + c * v * derived[(k, t)]
    return out


def agreement_blocks_by_definition(A, rep, proj, point, inverse=True):
    """Nonzero blocks (k, x) of (spin A - A) iota(P), counted densely.

    Block (k, x) is p_x S_k rho(x) - sum_g c_{k,g} p_{g^{-1}x} rho(g^{-1}x)
    with S_k = sum_g c_{k,g} rho(g^-1), or sum_g c_{k,g} rho(g) when
    ``inverse`` is false; every coefficient is evaluated at the torus
    ``point`` and every image comes from the definition, so no coset and no
    monomial array is involved."""
    images = {}

    def rho(g):
        if g not in images:
            images[g] = to_numpy(spin_image_by_definition(rep, g))
        return images[g]

    by_k = {}
    for (k, g), c in A.terms.items():
        by_k.setdefault(k, []).append((eval_complex(c, point), g))
    keys = set(proj) | {g * y for (_, g) in A.terms for y in proj}
    count = 0
    for terms in by_k.values():
        S_k = sum(c * rho(_substituted(g, inverse)) for c, g in terms)
        for x in keys:
            block = float(proj.get(x, 0)) * S_k @ rho(x)
            for c, g in terms:
                h = g.inverse() * x
                block = block - c * float(proj.get(h, 0)) * rho(h)
            count += bool(np.max(np.abs(block)) > 1e-9)
    return count


def _acted_monomials(g, E):
    """(E', t) with g . q^e = tau^t q^e' for every row e of the exponent
    matrix E, as ``WreathElement.act_on_exponents`` gives them."""
    inv = np.argsort(g.perm)
    new = E[:, inv] * np.where(np.array(g.flip) == 1, -1, 1)
    return new, (new @ np.array(g.rot)) % g.order


def dense_agreement(A, rep, proj, seed=0, inverse=True) -> bool:
    """Whether (A (x) 1) iota(P) F and sum_{k,g} c_{k,g} D^k (x) rho(g^-1)
    iota(P) F agree at two random torus points, for an exact spin vector
    F = sum_t f_t (x) e_t of random Laurent polynomials f_t: the dense
    decision of the charge agreement, with no coset and no support
    argument.  rho(g) replaces rho(g^-1) when ``inverse`` is false.

    iota(P) F has the components w_r = sum_x p_x sum_t rho(x)[r, t]
    (x . f_t), kept as one coefficient per (component, monomial).  A term
    c D^k g of A sends w_r to c D^k (g . w_r); spin A sends w to
    sum c rho(g^-1) D^k w.  On a monomial g acts by
    ``WreathElement.act_on_exponents`` and D^k multiplies by
    prod_j e_j^{k_j}, so both sides are evaluated at a point z from the
    monomials' exponents; the coefficients are evaluated term by term
    (``eval_complex``) and the images come from ``image_by_definition``.
    Agreement is a residual within 1e-9 of the larger side's scale."""
    rng = Random(seed)
    N, m, dim = rep.N, rep.m, rep.dim
    tau = np.exp(2j * np.pi * np.arange(m) / m)
    images = {}

    def image(g):
        if g not in images:
            images[g] = np.array(image_by_definition(rep, g)).reshape(-1, 3).T
        return images[g]

    funcs = [
        [(tuple(rng.randint(-2, 2) for _ in range(N)), rng.randint(-4, 4) / rng.randint(1, 3))
         for _ in range(2)]
        for _ in range(dim)
    ]
    columns, entries = {}, {}
    for x, p in proj.items():
        for r, t, phase in image(x).T.tolist():
            for e, a in funcs[t]:
                e2, s = x.act_on_exponents(e)
                key = (r, columns.setdefault(e2, len(columns)))
                entries[key] = entries.get(key, 0) + float(p) * tau[phase] * tau[s] * a
    E = np.array(list(columns), dtype=np.int64).reshape(-1, N)
    C = np.zeros((dim, len(columns)), dtype=complex)
    for (r, col), v in entries.items():
        C[r, col] = v
    by_g = {}
    for (k, g), c in A.terms.items():
        by_g.setdefault(g, []).append((np.array(k), c))
    for _ in range(2):
        z = np.array(random_torus_point(rng, N))
        base = np.prod(z**E, axis=1)
        spin, position = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
        for g, terms in by_g.items():
            acted, shift = _acted_monomials(g, E)
            moved = tau[shift] * np.prod(z**acted, axis=1)
            rows, cols, phases = image(_substituted(g, inverse))
            for k, c in terms:
                cz = eval_complex(c, z)
                position += cz * (C @ (moved * np.prod(acted**k, axis=1)))
                derived = C @ (base * np.prod(E**k, axis=1))
                spin[rows] += cz * tau[phases] * derived[cols]
        scale = max(1.0, float(np.max(np.abs(position))), float(np.max(np.abs(spin))))
        if np.max(np.abs(spin - position)) > 1e-9 * scale:
            return False
    return True


def _add_image_by_entry(acc, rep, g, c, roots):
    """acc += c rho(g) on a sparse {(row, column): coefficient} matrix, one
    entry at a time, an entry that cancels dropped."""
    values = [c * r for r in roots]
    rows, phases = monomial_image(rep, g)
    for t, (r, p) in enumerate(zip(rows.tolist(), phases.tolist())):
        cur = acc.get((r, t))
        piece = values[p] if cur is None else cur + values[p]
        if piece.is_zero():
            acc.pop((r, t), None)
        else:
            acc[(r, t)] = piece


def _spin_roots(m, order):
    return [CycloScalar.root_of_unity(m, p).lift(order) for p in range(m)]


def spin_sum_by_entry(rep, terms):
    """(order, S) of sum c rho(g) over ``terms``, each image added into its
    entries one after another: the reference for ``spinrep.spin_sum``."""
    order = lcm(rep.m, *(c.order for c, _ in terms))
    roots = _spin_roots(rep.m, order)
    S = {}
    for c, g in terms:
        _add_image_by_entry(S, rep, g, c.lift(order) if isinstance(c, CycloScalar) else c, roots)
    return order, S


def agreement_blocks_by_entry(A, rep, proj):
    """The count of ``spinrep.agreement_blocks`` from one sparse sum per
    (Euler index, left coset of S), each image added into its entries one
    after another: S_k = sum_g c_{k,g} rho(g^-1) in the coset S itself, minus
    c_{k,g} rho(g^{-1}) in the coset of g; the reference for the summing
    of distinct contribution lists."""
    S = list(proj)
    roots = _spin_roots(rep.m, rep.m)
    brackets = {}
    for (k, g), c in A.terms.items():
        _add_image_by_entry(brackets.setdefault((k, None), {}), rep, g.inverse(), c, roots)
    for (k, g), c in A.terms.items():
        xs = None if g in proj else frozenset(g * s for s in S)
        _add_image_by_entry(brackets.setdefault((k, xs), {}), rep, g.inverse(), -c, roots)
    return len(S) * sum(1 for mat in brackets.values() if mat)


def is_reduced(c: RationalCoefficient) -> bool:
    """Whether c is in the form cancellation leaves: no listed factor divides
    the numerator, and the factors are distinct, unit-normalized binomials,
    of positive multiplicity and sorted.  Skipped trial divisions rely on it."""
    keys = [f.key() for f, _ in c.den]
    if keys != sorted(set(keys)):
        return False
    for f, k in c.den:
        unit, shift, monic = f.unit_normalize()
        if k < 1 or unit != 1 or any(shift) or monic.terms != f.terms:
            return False
        if f.binomial_rule() is None or c.num.divide_exact(f) is not None:
            return False
    return True


def scalar_from_json(data: dict) -> CycloScalar:
    """The scalar ``CycloScalar.to_json`` wrote: the sum of its power-basis
    coefficients times the powers of the root of unity."""
    order = data["order"]
    total = CycloScalar.zero(order)
    for j, c in enumerate(data["coeffs"]):
        total = total + CycloScalar.root_of_unity(order, j) * Fraction(c)
    return total


def to_numpy(rows) -> np.ndarray:
    """Exact dense rows as a complex array."""
    return np.array([[c.to_complex() for c in row] for row in rows], dtype=complex)


def dense_frozen_chain(rep, terms) -> np.ndarray:
    """A frozen chain accumulated densely, one monomial image per term in
    the order of ``terms``: the reference for ``frozen_spin_matrix``."""
    m = rep.m
    cols = np.arange(rep.dim)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for c, g in terms:
        cval = c.to_complex() if isinstance(c, CycloScalar) else complex(c)
        values = np.array([cval * np.exp(2j * np.pi * p / m) for p in range(m)])
        rows, phases = monomial_image(rep, g)
        out[rows, cols] += values[phases]
    return out


def chain_from_dense(H) -> SparseChain:
    """The sparse chain holding the nonzero entries of the square array H."""
    flat = np.asarray(H, dtype=complex).ravel()
    keys = np.flatnonzero(flat)
    return SparseChain(len(H), keys, flat[keys])


def char_poly_by_trace_recursion(M: list) -> list:
    """Characteristic polynomial of the whole matrix with dense exact rows
    M (one field) by the trace recursion, lowest degree first: the
    reference for ``char_poly_exact``, which works on the sparse form and
    splits it into blocks first."""
    dim = len(M)
    order = M[0][0].order
    zero = CycloScalar.zero(order)
    coeffs = [zero] * dim + [CycloScalar.one(order)]
    product = zero_rows(dim, order)
    ck = CycloScalar.one(order)
    for k in range(1, dim + 1):
        for i in range(dim):
            product[i][i] = product[i][i] + ck
        product = [
            [sum((row[t] * product[t][j] for t in range(dim) if row[t]), zero)
             for j in range(dim)]
            for row in M
        ]
        ck = -(sum((product[i][i] for i in range(dim)), zero) / k)
        coeffs[dim - k] = ck
    return coeffs


def extracted_static(params):
    """The static Hamiltonian by symbolic extraction.

    With every coupling scaled by t the Hamiltonian is quadratic in t; the
    static Hamiltonian is minus its linear coefficient, recovered from the
    values at t = +1 and t = -1, with the exchange coupling normalized to
    one.  The reference for ``build_static_hamiltonian``."""
    def at(t):
        return build_hamiltonian(
            ModelParams(
                params.family, params.size, params.order,
                Fraction(t), t * params.mu, t * params.rho,
            )
        )

    return (at(1) - at(-1)).scale(Fraction(-1, 2))


def static_from_dunkl(params):
    """The static Hamiltonian as minus the coupling-linear part of
    J2 = sum_i d_i^2, from the Dunkl operators alone.

    With the exchange coupling normalized to one, d_i = D_i + B_i with D_i
    the Euler derivative and B_i linear in the couplings, so the linear
    part of J2 is sum_i (D_i B_i + B_i D_i).  No image table is read."""
    N, m = params.size, params.order
    p = ModelParams(params.family, N, m, Fraction(1), params.mu, params.rho)
    total = MixedOperator.zero(N, m)
    for i in range(1, N + 1):
        d = build_dunkl(p, i)
        D = MixedOperator.euler(N, i, m)
        B = d - D
        total = total - op_compose(D, B) - op_compose(B, D)
    return total


def extracted_chain(lattice):
    """Terms of the frozen chain by extraction: the coefficients of
    ``static_from_dunkl``, evaluated at the lattice positions.  The
    reference for ``build_frozen_hamiltonian``."""
    params = _static_params(lattice.family, lattice.N, lattice.m, lattice.couplings)
    return evaluated_chain(static_from_dunkl(params), lattice)


def evaluated_chain(hbar, lattice):
    """Terms of the static Hamiltonian ``hbar`` with its coefficients
    evaluated at the lattice positions (exactly on exact lattices), zeros
    dropped."""
    terms = []
    for (k, g), c in hbar.sorted_terms():
        assert k == (0,) * lattice.N, "static Hamiltonian acquired a derivative part"
        if lattice.exact:
            value = eval_exact(c, lattice.positions)
            if not value.is_zero():
                terms.append((value, g))
        else:
            value = eval_complex(c, lattice.positions)
            if abs(value) > 1e-15:
                terms.append((value, g))
    return terms


def charge_commutator_by_products(A, params, l):
    """[A, I^(l)] as the difference of the two products with the built
    charge: the reference for the Leibniz sums of ``dunkl.power_commutator``."""
    return op_commutator(A, build_charge(params, l))


def hecke_cross_by_products(params, corrupt=None):
    """d1 e1 d1 e1 + lam d1 T - e1 d1 e1 d1 - lam' T d1 from the four
    products, with lam' = lam + 1 under the ``drels`` corruption: the
    reference for the quadratic cross item of ``check_hecke_relations``,
    which reads it from the cached [d_1, d_2]."""
    N, m = params.size, params.order
    spec = params.group_spec
    d1 = build_dunkl(params, 1)
    e1 = MixedOperator.from_group(generator(spec, "e", i=1))
    twist = MixedOperator.zero(N, m)
    for s in range(m):
        twist = twist + MixedOperator.from_group(exchange_element(N, m, 1, 2, -s))
    lam_r = params.lam + 1 if corrupt == "drels" else params.lam
    lhs = op_compose(op_compose(op_compose(d1, e1), d1), e1) + op_compose(
        d1, twist
    ).scale(params.lam)
    rhs = op_compose(op_compose(op_compose(e1, d1), e1), d1) + op_compose(
        twist, d1
    ).scale(lam_r)
    return lhs - rhs


def power_sum_by_products(ds, k):
    """sum_i d_i^k over the operators ``ds``."""
    total = ds[0] ** k
    for d in ds[1:]:
        total = total + d**k
    return total


def hamiltonian_by_linear_kernels(params):
    """The closed-form Hamiltonian with every image kernel written as
    x / (1 - x)^2 over its binomial, boundary images included.  The
    reference for the factorization of ``build_hamiltonian``."""
    N, m = params.size, params.order
    one = LaurentPoly.constant(N, 1, m)
    kernels = [
        (RationalCoefficient.ratio(x, one - x, 2), c, g)
        for x, c, g in hamiltonian_images(params)
        if c
    ]
    total = MixedOperator.zero(N, m)
    for i in range(1, N + 1):
        total = total + MixedOperator.euler(N, i, m) ** 2
    ident = WreathElement.identity(N, m)
    pieces = {}
    for kernel, c, g in kernels:
        pieces.setdefault(g, []).append(kernel * c)
        pieces.setdefault(ident, []).append(kernel * (c * c))
    for g, coeffs in pieces.items():
        total = total - MixedOperator.term(balanced_sum(coeffs), g)
    return total


def scalar_potential(params: ModelParams) -> RationalCoefficient:
    """Two-body inverse-square potential of the cyclic model (scalar part):
    the sum of x / (1 - x)^2 over the cyclic two-body images.  Its Euler
    derivatives are the reference for ``static.potential_euler``."""
    cyclic = ModelParams("cyclic", params.size, params.order, Fraction(1))
    terms = [inverse_square(x) for x, _, _ in hamiltonian_images(cyclic)]
    return balanced_sum([RationalCoefficient.zero(params.size, params.order)] + terms)


def freezing_identities_by_products(params) -> CheckSuite:
    """The freezing identities with every commutator recomputed at the
    given coupling.  The reference for ``static.freezing_identity_check``."""
    N = params.size
    suite = CheckSuite("freezing-identities")
    idx = params.to_json()
    barred = [build_barred(params, i) for i in range(1, N + 1)]
    for i in range(1, N + 1):
        d = build_dunkl(params, i)
        euler = MixedOperator.euler(N, i, params.order)
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


def lattice_residuals(family, positions, m, couplings=None) -> list:
    """dW/dq_l at arbitrary positions: the residuals of a configuration
    placed there, whose L and label are not read."""
    return LatticeConfig(family, len(positions), m, 0, "custom", list(positions),
                         couplings or {}).residuals()


def lattice_table_check(m: int, sizes) -> CheckSuite:
    """Exact zero residuals for every dihedral table row at the given sizes."""
    suite = CheckSuite("lattice-table")
    for N in sizes:
        for label in LATTICE_LABELS:
            lat = build_lattice("dihedral-odd", N, m, label)
            res = lat.residuals()
            ok = all(r.is_zero() for r in res)
            suite.add(
                "table-row residual exactly zero",
                {"label": label, "N": N, "m": m, "L": lat.L},
                ok,
                None if ok else {"residuals": [repr(r) for r in res]},
            )
    return suite
