"""Shared random-object generators, the exact-application oracle of the
operator-algebra tests and the extraction reference of the frozen chains."""

from fractions import Fraction

from wreathdunkl.cyclotomic import CycloScalar
from wreathdunkl.groups import GroupSpec, enumerate_subgroup
from wreathdunkl.opalg import MixedOperator
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient
from wreathdunkl.static import _static_params, build_static_hamiltonian, merge_chain_terms


def random_operator(rng, N=2, m=3, nterms=2, spin_dim=1, allow_euler=True):
    """Small random mixed operator with simple pole structure."""
    els = enumerate_subgroup(GroupSpec("W(m,N)", N, m))
    z = CycloScalar.root_of_unity(m) if m > 1 else CycloScalar.one(1)
    A = MixedOperator.zero(N, m, m, spin_dim)
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
        if spin_dim == 1:
            A = A + MixedOperator.term(coeff, g, euler=k)
        else:
            entries = {
                (rng.randrange(spin_dim), rng.randrange(spin_dim)): coeff
            }
            A = A + MixedOperator.spin_term(g, entries, N, m, spin_dim, euler=k)
    return A


def apply(A, funcs):
    """Apply A to a spin vector of rational functions (a list of length
    ``A.spin_dim``), exactly; a single function is accepted when A is
    spinless."""
    if isinstance(funcs, LaurentPoly):
        funcs = RationalCoefficient.from_poly(funcs)
    if isinstance(funcs, RationalCoefficient):
        funcs = [funcs]
    if len(funcs) != A.spin_dim:
        raise ValueError("spin vector length does not match the operator")
    out = [RationalCoefficient.zero(A.nvars, A.order) for _ in funcs]
    for (k, g), mat in A.terms.items():
        moved = {}
        for (i, j), c in mat.items():
            if j not in moved:
                h = funcs[j].act(g)
                for var, p in enumerate(k):
                    for _ in range(p):
                        h = h.euler(var + 1)
                moved[j] = h
            out[i] = out[i] + c * moved[j]
    return out


def extracted_chain(lattice):
    """Merged terms of the frozen chain by symbolic extraction: the static
    Hamiltonian's coefficients, evaluated at the lattice positions (exactly
    on exact lattices).  The reference for ``build_frozen_hamiltonian``."""
    hbar = build_static_hamiltonian(_static_params(lattice))
    terms = []
    for (k, g), mat in hbar.sorted_terms():
        assert k == (0,) * lattice.N, "static Hamiltonian acquired a derivative part"
        c = mat[(0, 0)]
        if lattice.exact:
            terms.append((c.eval_exact(lattice.positions), g))
        else:
            terms.append((c.eval_complex(tuple(lattice.positions)), g))
    return merge_chain_terms(terms)
