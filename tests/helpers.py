"""Shared random-object generators, the exact-application oracle of the
operator-algebra tests, the dense oracles of the projector and agreement
checks, and the extraction reference of the frozen chains."""

import itertools
from fractions import Fraction
from math import gcd

import numpy as np

from wreathdunkl.cyclotomic import CycloScalar
from wreathdunkl.groups import GroupSpec, enumerate_subgroup
from wreathdunkl.opalg import MixedOperator
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient
from wreathdunkl.spinrep import SpinMatrix
from wreathdunkl.static import _static_params, build_static_hamiltonian, merge_chain_terms


def random_operator(rng, N=2, m=3, nterms=2, allow_euler=True):
    """Small random mixed operator with simple pole structure."""
    els = enumerate_subgroup(GroupSpec("W(m,N)", N, m))
    z = CycloScalar.root_of_unity(m) if m > 1 else CycloScalar.one(1)
    A = MixedOperator.zero(N, m, m)
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
        A = A + MixedOperator.term(coeff, g, euler=k)
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


def spin_image_by_definition(rep, g):
    """Dense spin image of g, one basis state at a time: the permutation
    moves whole spins, a flip reverses the local state, and each rotation
    contributes the phase of the weight of the final local state."""
    n, N, m = rep.n, rep.N, rep.m
    out = SpinMatrix.zero(rep.dim, m)
    for t in itertools.product(range(n), repeat=N):
        img = [t[g.perm.index(j)] for j in range(N)]
        img = [n - 1 - x if g.flip[j] else x for j, x in enumerate(img)]
        phase = sum(g.rot[j] * rep.weights[x] for j, x in enumerate(img)) % m
        row = sum(x * n ** (N - 1 - j) for j, x in enumerate(img))
        col = sum(x * n ** (N - 1 - j) for j, x in enumerate(t))
        out.rows[row][col] = CycloScalar.root_of_unity(m, phase)
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
        rho = spin_image_by_definition(rep, g).to_numpy()
        out += float(p) * np.kron(left_regular(els, g), rho)
    return out


def apply_agreement(A, rep, proj, funcs):
    """(spin A - A) iota(P) applied to the spin vector ``funcs`` (one
    function per basis state), exactly.

    iota(P) v has components sum_x p_x sum_t rho(x)[r, t] (x . v_t), A acts
    on each component, and spin A replaces each term c D^k g of A by
    c D^k (x) rho(g).  Spin images come from ``spin_image_by_definition``."""
    order = A.order * rep.m // gcd(A.order, rep.m)
    zero = RationalCoefficient.zero(A.nvars, order)
    funcs = [f.lift(order) for f in funcs]

    def entries(g):
        rows = spin_image_by_definition(rep, g).rows
        return [
            (r, t, v.lift(order))
            for r, row in enumerate(rows)
            for t, v in enumerate(row)
            if not v.is_zero()
        ]

    w = [zero] * rep.dim
    for x, p in proj.items():
        for r, t, v in entries(x):
            w[r] = w[r] + funcs[t].act(x) * (v * p)
    out = [-apply(A.lift_order(order), wr) for wr in w]
    derived = {}
    for (k, g), c in A.terms.items():
        c = c.lift(order)
        for r, t, v in entries(g):
            if (k, t) not in derived:
                derived[(k, t)] = _derive(w[t], k)
            out[r] = out[r] + c * v * derived[(k, t)]
    return out


def agreement_blocks_by_definition(A, rep, proj, point):
    """Nonzero blocks (k, x) of (spin A - A) iota(P), counted densely.

    Block (k, x) is p_x S_k rho(x) - sum_g c_{k,g} p_{g^{-1}x} rho(g^{-1}x)
    with S_k = sum_g c_{k,g} rho(g); every coefficient is evaluated at the
    torus ``point`` and every image comes from the definition, so no coset
    and no monomial array is involved."""
    images = {}

    def rho(g):
        if g not in images:
            images[g] = spin_image_by_definition(rep, g).to_numpy()
        return images[g]

    by_k = {}
    for (k, g), c in A.terms.items():
        by_k.setdefault(k, []).append((c.eval_complex(point), g))
    keys = set(proj) | {g * y for (_, g) in A.terms for y in proj}
    count = 0
    for terms in by_k.values():
        S_k = sum(c * rho(g) for c, g in terms)
        for x in keys:
            block = float(proj.get(x, 0)) * S_k @ rho(x)
            for c, g in terms:
                h = g.inverse() * x
                block = block - c * float(proj.get(h, 0)) * rho(h)
            count += bool(np.max(np.abs(block)) > 1e-9)
    return count


def extracted_chain(lattice):
    """Merged terms of the frozen chain by symbolic extraction: the static
    Hamiltonian's coefficients, evaluated at the lattice positions (exactly
    on exact lattices).  The reference for ``build_frozen_hamiltonian``."""
    hbar = build_static_hamiltonian(_static_params(lattice))
    terms = []
    for (k, g), c in hbar.sorted_terms():
        assert k == (0,) * lattice.N, "static Hamiltonian acquired a derivative part"
        if lattice.exact:
            terms.append((c.eval_exact(lattice.positions), g))
        else:
            terms.append((c.eval_complex(tuple(lattice.positions)), g))
    return merge_chain_terms(terms)
