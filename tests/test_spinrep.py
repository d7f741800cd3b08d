"""Spin representation, projectors, charge agreement and chain spectra."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    agreement_blocks_by_definition,
    apply_agreement,
    dense_iota,
    left_regular,
    random_operator,
    spin_image_by_definition,
)
from wreathdunkl.cyclotomic import CycloScalar
from wreathdunkl.dunkl import ModelParams, boundary_element, build_charge, exchange_element
from wreathdunkl import spinrep
from wreathdunkl.groups import GroupSpec, WreathElement, enumerate_subgroup, generator
from wreathdunkl.opalg import MixedOperator, random_test_functions
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient, random_torus_point
from wreathdunkl.spinrep import (
    SpinMatrix,
    SpinRepData,
    adjoint_weights,
    agreement_blocks,
    brute_force_eigvals,
    build_projector,
    char_poly_exact,
    charpoly_residual,
    commutant_residual,
    compose_images,
    convolve,
    default_weights,
    diagonalize_hermitian,
    frozen_spin_matrix,
    generating_set,
    global_rotation_element,
    hermitian_blocks,
    monomial_image,
    projector_check,
    spin_matrix_of_element,
    spin_representation_check,
    substitute_spin,
    twisted_translation_element,
    verify_agreement,
)
from wreathdunkl.static import build_frozen_hamiltonian, build_lattice


def test_default_weights():
    assert default_weights(2, 3) == (1, 2)
    assert default_weights(2, 2) == (1, 1)
    assert default_weights(3, 4) == (1, 0, 3)
    assert default_weights(4, 5) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        SpinRepData(2, 4, 2, weights=(1, 2))


def test_example_matrices():
    rep = SpinRepData(2, 3, 2, weights=(1, 2))
    spec = GroupSpec("W(m,N)", 2, 3)
    Q1, Q2, K1, P = (
        monomial_image(rep, generator(spec, name, i=i))
        for name, i in (("Q", 1), ("Q", 2), ("K", 1), ("P", 1))
    )
    z3 = CycloScalar.root_of_unity(3)
    # diagonal with the weight phases on the first tensor slot
    dense = spin_matrix_of_element(rep, generator(spec, "Q", i=1))
    assert dense.rows[0][0] == z3 and dense.rows[3][3] == z3**2
    assert Q1[0].tolist() == [0, 1, 2, 3] and Q1[1].tolist() == [1, 1, 2, 2]

    def mul(*images):
        out = (np.arange(4), np.zeros(4, dtype=int))
        for b in images:
            out = compose_images(out, b, 3)
        return [x.tolist() for x in out]

    ident = mul()
    assert mul(K1, K1) == ident
    assert mul(K1, Q1, K1, Q1) == ident  # K Q K = Q^{-1}
    assert mul(P, P) == ident
    assert mul(Q1, Q2) == mul(Q2, Q1)
    assert mul(Q1) != ident and mul(P) != ident


SPIN_POINTS = [(2, 2, 2), (2, 3, 2), (3, 4, 2), (2, 2, 3)]


@pytest.mark.parametrize("n,m,N", SPIN_POINTS)
def test_representation_relations_and_homomorphism(n, m, N):
    rep = SpinRepData(n, m, N)
    suite = spin_representation_check(rep)
    assert suite.passed, [i.relation for i in suite.failures()]
    [hom] = [i for i in suite.items if i.relation == "M(g) M(h) = M(g h)"]
    order = GroupSpec("W(m,N)", N, m).cardinality()
    assert hom.params["samples"] == order * (N + 1)


def _phase_of_unmoved_state(a, b, m):
    ra, pa = a
    rb, pb = b
    return ra[..., rb], (pb + pa) % m


def _swapped_order(a, b, m):
    ra, pa = a
    rb, pb = b
    return rb[ra], (pa + pb[ra]) % m


def _sign_flipped_image(rep, g, image=monomial_image):
    """The image with the rotation phase of every flipped site negated."""
    rows, _ = image(rep, g)
    digits = (rows[:, None] // rep.n ** np.arange(rep.N - 1, -1, -1)) % rep.n
    sign = 1 - 2 * np.array(g.flip)
    phases = (np.array(rep.weights)[digits] @ (sign * np.array(g.rot))) % rep.m
    return rows, phases


@pytest.mark.parametrize(
    "name,value,points",
    [
        # with all weights equal, as at n = m = 2, the phase does not depend
        # on the state, and reading it before the move changes nothing
        ("compose_images", _phase_of_unmoved_state, [(2, 3, 2), (3, 4, 2), (3, 2, 2)]),
        ("compose_images", _swapped_order, SPIN_POINTS),
        # at m = 2 a negated phase is the same phase
        ("monomial_image", _sign_flipped_image, [(2, 3, 2), (3, 4, 2)]),
    ],
    ids=["phase-read-before-move", "swapped-order", "flip-negates-phase"],
)
def test_representation_check_catches_mutations(monkeypatch, name, value, points):
    monkeypatch.setattr(spinrep, name, value)
    for n, m, N in points:
        suite = spin_representation_check(SpinRepData(n, m, N))
        failed = {i.relation for i in suite.failures()}
        assert "M(g) M(h) = M(g h)" in failed, (n, m, N)


@pytest.mark.parametrize("N,m", [(1, 3), (2, 1), (2, 2), (3, 2), (2, 4)])
def test_generating_set_generates_the_wreath_group(N, m):
    """The homomorphism proof needs S to generate W(m, N); without k the
    closure is a proper subgroup."""

    def closure(gens):
        seen = {g for g in gens}
        frontier = list(seen)
        while frontier:
            frontier = [g * s for g in frontier for s in gens if g * s not in seen]
            seen.update(frontier)
        return seen

    gens = generating_set(N, m)
    order = GroupSpec("W(m,N)", N, m).cardinality()
    assert len(closure(gens)) == order
    assert len(closure(gens[:-1])) < order


def test_substitution_of_single_terms():
    rep = SpinRepData(2, 2, 2)
    params = ModelParams("cyclic", 2, 2, Fraction(1))
    from wreathdunkl.dunkl import exchange_element
    from wreathdunkl.opalg import MixedOperator
    from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient

    c = RationalCoefficient.ratio(
        LaurentPoly.variable(1, 2, 2), LaurentPoly.variable(1, 2, 2) - LaurentPoly.variable(2, 2, 2)
    )
    g = exchange_element(2, 2, 1, 2, 0)
    A = MixedOperator.term(c, g)
    S = substitute_spin(A, rep)
    # one Euler index, no group part, the exchange matrix tensored in
    assert len(S) == 1
    (k, mat), = S.items()
    assert k == (0, 0)
    assert set(mat) == {(0, 0), (1, 2), (2, 1), (3, 3)}
    assert all(v == c for v in mat.values())


def test_projectors_cyclic():
    p = ModelParams("cyclic", 2, 2, Fraction(1, 2))
    rep = SpinRepData(2, 2, 2)
    suite = projector_check(p, rep)
    assert suite.passed, [(i.relation, i.params) for i in suite.failures()]


def test_projectors_dihedral():
    p = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
    rep = SpinRepData(2, 2, 2)
    suite = projector_check(p, rep)
    assert suite.passed, [(i.relation, i.params) for i in suite.failures()]


def test_projector_term_count():
    # the exchange average over the balanced group on two sites of order 2
    p = ModelParams("cyclic", 2, 2, Fraction(1))
    rep = SpinRepData(2, 2, 2)
    lam = build_projector(p, "exchange")
    assert len(lam) == 4  # one weight per group element


@pytest.mark.parametrize("k", [1, 2, 3])
def test_agreement_cyclic(k):
    p = ModelParams("cyclic", 2, 2, Fraction(1, 2))
    rep = SpinRepData(2, 2, 2)
    suite = verify_agreement(p, rep, k)
    assert suite.passed, [i.relation for i in suite.failures()]


def test_agreement_dihedral_even_k():
    p = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
    rep = SpinRepData(2, 2, 2)
    assert verify_agreement(p, rep, 2, expect="zero").passed


def test_agreement_dihedral_odd_k():
    """No theorem for odd k: k = 3 fails, and k = 1 happens to hold.

    Every group element in the first charge is an involution inside the
    invariance group, so its position and spin actions agree on projected
    states; the first genuine violation appears at k = 3.
    """
    p = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
    rep = SpinRepData(2, 2, 2)
    assert verify_agreement(p, rep, 3, expect="nonzero").passed
    assert verify_agreement(p, rep, 1, expect="zero").passed


def test_dynamical_spin_hamiltonian_shape():
    p = ModelParams("cyclic", 2, 2, Fraction(1))
    rep = SpinRepData(2, 2, 2)
    H = substitute_spin(build_charge(p, 2), rep)
    # all group parts substituted away: keyed by Euler index alone
    assert all(len(k) == 2 and all(isinstance(e, int) for e in k) for k in H)
    # spin matrices of dimension 4
    assert {i for mat in H.values() for pos in mat for i in pos} == set(range(4))


# -- projectors and agreement against dense oracles ------------------------------


def _family_params(family, N, m):
    if family == "cyclic":
        return ModelParams("cyclic", N, m, Fraction(1, 2))
    return ModelParams("dihedral", N, m, Fraction(1), Fraction(1), Fraction(1, 2))


def _close(a, b):
    return np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("family", ["cyclic", "dihedral"])
@pytest.mark.parametrize("n,m,N", [(2, 2, 2), (3, 2, 2), (2, 3, 2)])
def test_projector_check_agrees_with_dense_iota(family, n, m, N):
    """Every projector_check item against the same identity among dense
    matrices of the faithful representation L (x) rho, with the projectors
    built from their definitions by matrix products, not by convolution."""
    rep = SpinRepData(n, m, N)
    params = _family_params(family, N, m)
    spec = GroupSpec("W(m,N)", N, m)
    els = enumerate_subgroup(spec)

    def iota(g):
        return dense_iota({g: 1}, rep, els)

    balanced = enumerate_subgroup(GroupSpec("G(m,p,N)", N, m, p=m))
    lam = sum(iota(g) for g in balanced) / len(balanced)
    assert _close(dense_iota(build_projector(params, "exchange"), rep, els), lam)
    if family == "dihedral":
        lam_b = np.eye(len(els) * rep.dim)
        for j in range(1, N + 1):
            Q, K = generator(spec, "Q", i=j), generator(spec, "K", i=j)
            site, rot = 0, WreathElement.identity(N, m)
            for _ in range(m):
                site = site + iota(rot) + iota(rot * K)
                rot = rot * Q * Q
            lam_b = lam_b @ (site / (2 * m))
        assert _close(dense_iota(build_projector(params, "boundary"), rep, els), lam_b)
        plam = lam @ lam_b
    items = projector_check(params, rep).items
    assert len(items) == 2 + N * (N - 1) * m + (4 + N * m) * (family == "dihedral")
    for item in items:
        rel, p = item.relation, item.params
        if rel == "Lambda^2 = Lambda":
            dense = _close(lam @ lam, lam)
        elif rel == "Lambda hermitian":
            dense = _close(lam.conj().T, lam)
        elif rel == "exchange acts like its spin image on Lambda":
            g = exchange_element(N, m, p["i"], p["j"], p["s"])
            rho = spin_image_by_definition(rep, g).to_numpy()
            left = np.kron(left_regular(els, g), np.eye(rep.dim))
            dense = _close(left @ lam, np.kron(np.eye(len(els)), rho) @ lam)
        elif rel == "Lambda_b^2 = Lambda_b":
            dense = _close(lam_b @ lam_b, lam_b)
        elif rel == "Lambda Lambda_b = Lambda_b Lambda":
            dense = _close(plam, lam_b @ lam)
        elif rel == "(Lambda Lambda_b)^2 = Lambda Lambda_b":
            dense = _close(plam @ plam, plam)
        elif rel == "Lambda Lambda_b hermitian":
            dense = _close(plam.conj().T, plam)
        else:
            assert rel == "doubled reflection fixes Lambda Lambda_b"
            dense = _close(iota(boundary_element(N, m, p["i"], 2 * p["s"])) @ plam, plam)
        assert item.passed == dense, (rel, p)


def test_group_algebra_operations_match_dense_iota():
    """convolve and adjoint_weights against products and adjoints of dense
    matrices, on random signed weights that are neither Hermitian nor
    idempotent."""
    rep = SpinRepData(2, 3, 2)
    els = enumerate_subgroup(GroupSpec("W(m,N)", 2, 3))
    rng = random.Random(7)
    for _ in range(3):
        a, b = (
            {g: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for g in rng.sample(els, 5)}
            for _ in range(2)
        )
        Da, Db = dense_iota(a, rep, els), dense_iota(b, rep, els)
        assert _close(dense_iota(convolve(a, b), rep, els), Da @ Db)
        assert _close(dense_iota(adjoint_weights(a), rep, els), Da.conj().T)


@pytest.mark.parametrize(
    "family,N,m,k,zero",
    [
        ("cyclic", 2, 2, 1, True),
        ("cyclic", 2, 2, 2, True),
        ("cyclic", 2, 2, 3, True),
        ("cyclic", 2, 3, 2, True),
        ("dihedral", 2, 2, 1, True),
        ("dihedral", 2, 2, 2, True),
        ("dihedral", 2, 2, 3, False),
    ],
)
def test_agreement_matches_application_and_block_count(family, N, m, k, zero):
    """The agreement verdict against (spin charge - charge) * projector
    applied exactly to a random spin vector, and its term count against
    the blocks counted densely at a random torus point."""
    rep = SpinRepData(2, m, N)
    params = _family_params(family, N, m)
    [item] = verify_agreement(params, rep, k, expect="report").items
    assert item.witness["zero"] == zero
    charge = build_charge(params, k)
    proj = build_projector(params)
    rng = random.Random(k)
    count = agreement_blocks_by_definition(charge, rep, proj, random_torus_point(rng, N))
    assert item.witness["terms"] == count
    funcs = random_test_functions(rng, N, m, rep.dim)
    applied = apply_agreement(charge, rep, proj, funcs)
    assert all(v.is_zero() for v in applied) == zero


def _uniform(els):
    return {g: Fraction(1, len(els)) for g in els}


def test_agreement_blocks_by_cosets_on_subgroups():
    """agreement_blocks against the dense block count on random operators,
    for normal and non-normal subgroups S of W(3, 2): left cosets xS and
    right cosets Sx differ for the two-element ones."""
    N, m = 2, 3
    rep = SpinRepData(2, m, N)
    spec = GroupSpec("W(m,N)", N, m)
    ident = WreathElement.identity(N, m)
    subgroups = [
        [ident, generator(spec, "P", i=1, j=2)],
        [ident, generator(spec, "K", i=1)],
        enumerate_subgroup(GroupSpec("G(m,p,N)", N, m, p=m)),
        enumerate_subgroup(spec),
    ]
    rng = random.Random(11)
    for S in subgroups:
        proj = _uniform(S)
        for _ in range(4):
            A = random_operator(rng, N, m, nterms=4)
            point = random_torus_point(rng, N)
            assert agreement_blocks(A, rep, proj) == agreement_blocks_by_definition(
                A, rep, proj, point
            )


def test_agreement_blocks_cancel_within_left_cosets():
    """At n = m = 2 every rotation acts on the spins as -1 at its site, so
    A = c g (1 + Q_1) vanishes against the average over S = {1, Q_1}: the
    terms g and g Q_1 share the left coset gS and cancel there.  S is not
    normal, and for g = P_12 the two terms lie in different right cosets."""
    N, m = 2, 2
    rep = SpinRepData(2, m, N)
    spec = GroupSpec("W(m,N)", N, m)
    Q1 = generator(spec, "Q", i=1)
    proj = _uniform([WreathElement.identity(N, m), Q1])
    q1, q2 = LaurentPoly.variable(1, N, m), LaurentPoly.variable(2, N, m)
    c = RationalCoefficient.ratio(q1, q1 - q2)
    for g in enumerate_subgroup(spec):
        A = MixedOperator.term(c, g) + MixedOperator.term(c, g * Q1)
        assert agreement_blocks(A, rep, proj) == 0
        funcs = random_test_functions(random.Random(3), N, m, rep.dim)
        assert all(v.is_zero() for v in apply_agreement(A, rep, proj, funcs))
    A = MixedOperator.term(c, generator(spec, "P", i=1, j=2))
    assert agreement_blocks(A, rep, proj) == 2 * 2  # the cosets S and P_12 S


def test_agreement_blocks_require_a_subgroup_average():
    rep = SpinRepData(2, 3, 2)
    spec = GroupSpec("W(m,N)", 2, 3)
    ident = WreathElement.identity(2, 3)
    A = MixedOperator.from_group(generator(spec, "P", i=1, j=2))
    with pytest.raises(ValueError):  # not closed: Q_1^2 is missing
        agreement_blocks(A, rep, _uniform([ident, generator(spec, "Q", i=1)]))
    with pytest.raises(ValueError):  # a subgroup, but not uniform on it
        K1 = generator(spec, "K", i=1)
        agreement_blocks(A, rep, {ident: Fraction(1, 3), K1: Fraction(2, 3)})


def test_frozen_chain_exact_vs_numeric_backends():
    rep = SpinRepData(2, 3, 2)
    terms = build_frozen_hamiltonian(build_lattice("cyclic", 2, 3)).terms
    exact = SpinMatrix.from_terms(rep, terms).to_numpy()
    numeric = frozen_spin_matrix(rep, terms)
    assert np.max(np.abs(exact - numeric)) < 1e-12


@pytest.mark.parametrize("family,N,m", [("cyclic", 3, 2), ("dihedral-odd", 2, 3)])
def test_numeric_frozen_chain_equals_exact(family, N, m):
    rep = SpinRepData(2, m, N)
    terms = build_frozen_hamiltonian(build_lattice(family, N, m)).terms
    exact = SpinMatrix.from_terms(rep, terms).to_numpy()
    numeric = frozen_spin_matrix(rep, terms)
    assert np.max(np.abs(exact - numeric)) < 1e-12


@pytest.mark.parametrize("n,m,N", [(2, 2, 2), (3, 3, 2), (2, 1, 3)])
def test_monomial_image_equals_dense_definition(n, m, N):
    rep = SpinRepData(n, m, N)
    H = _random_complex(rep.dim, seed=n * m * N)
    for g in enumerate_subgroup(GroupSpec("W(m,N)", N, m)):
        dense = spin_image_by_definition(rep, g)
        assert spin_matrix_of_element(rep, g) == dense
        M = dense.to_numpy()
        assert abs(commutant_residual(H, rep, g) - np.max(np.abs(H @ M - M @ H))) < 1e-12


def _random_complex(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("n,m,N", [(2, 2, 2), (3, 3, 2)])
def test_commutant_residual_equals_dense_products(n, m, N):
    """On a frozen chain, against dense products: the chain's symmetries
    commute with it, other elements of W(m, N) do not."""
    rep = SpinRepData(n, m, N)
    H = frozen_spin_matrix(rep, build_frozen_hamiltonian(build_lattice("cyclic", N, m)).terms)
    residuals = {}
    for g in enumerate_subgroup(GroupSpec("W(m,N)", N, m)):
        M = spin_matrix_of_element(rep, g).to_numpy()
        residuals[g] = commutant_residual(H, rep, g)
        assert abs(residuals[g] - np.max(np.abs(H @ M - M @ H))) < 1e-12
    for g in (twisted_translation_element(N, m), global_rotation_element(N, m)):
        assert residuals[g] < 1e-12
    assert max(residuals.values()) > 0.1


def _multiplicities(vals, scale):
    """Degeneracy profile of sorted eigenvalues, by diagonalize_hermitian's rule."""
    out, i = [], 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) < 1e-7 * scale:
            j += 1
        out.append(j - i + 1)
        i = j + 1
    return out


def _hidden_blocks(seed):
    """A Hermitian matrix whose blocks are hidden by a random basis
    permutation: random blocks, one of them twice, and one block with a
    threefold eigenvalue."""
    rng = np.random.default_rng(seed)
    blocks = []
    for size in (1, 3, 5, 2):
        B = _random_complex(size, seed + size)
        blocks.append(B + B.conj().T)
    blocks.append(blocks[2])
    Q, _ = np.linalg.qr(_random_complex(4, seed))
    blocks.append(Q @ np.diag([2.0, 2.0, 2.0, -1.0]) @ Q.conj().T)
    dim = sum(len(B) for B in blocks)
    H = np.zeros((dim, dim), dtype=complex)
    start, members = 0, []
    for B in blocks:
        H[start : start + len(B), start : start + len(B)] = B
        members.append(range(start, start + len(B)))
        start += len(B)
    H = (H + H.conj().T) / 2
    perm = rng.permutation(dim)  # basis state perm[t] becomes state t
    where = np.argsort(perm)
    return H[np.ix_(perm, perm)], [sorted(where[list(r)]) for r in members]


@pytest.mark.parametrize("kind", ["hidden blocks 1", "hidden blocks 2", "dense", "diagonal"])
def test_block_diagonalization_matches_dense_eigvalsh(kind):
    if kind == "dense":
        B = _random_complex(12, seed=5)
        H, members = B + B.conj().T, [range(12)]
    elif kind == "diagonal":
        H = np.diag([3.0, -1.0, 3.0, 0.0, 3.0, -1.0]).astype(complex)
        members = [[t] for t in range(6)]
    else:
        H, members = _hidden_blocks(seed=int(kind[-1]))
    assert sorted(list(b) for b in hermitian_blocks(H)) == sorted(list(r) for r in members)
    vals, degs, herm = diagonalize_hermitian(H)
    assert herm == np.max(np.abs(H - H.conj().T))
    dense = np.linalg.eigvalsh(H)
    scale = max(1.0, np.max(np.abs(H)))
    assert np.max(np.abs(vals - dense)) < 1e-10
    assert [k for _, k in degs] == _multiplicities(dense, scale)
    if kind.startswith("hidden"):
        assert max(k for _, k in degs) >= 3


def test_haldane_shastry_blocks_are_colour_occupations():
    """At m = 1 the chain only exchanges spins, so each colour-occupation
    class of (C^3)^3 is one block: C(5, 2) = 10 of them."""
    n, N = 3, 3
    rep = SpinRepData(n, 1, N)
    H = frozen_spin_matrix(rep, build_frozen_hamiltonian(build_lattice("cyclic", N, 1)).terms)
    states = list(itertools.product(range(n), repeat=N))
    classes = {}
    for t, digits in enumerate(states):
        classes.setdefault(tuple(sorted(digits)), []).append(t)
    blocks = hermitian_blocks(H)
    assert len(blocks) == 10
    assert sorted(list(b) for b in blocks) == sorted(classes.values())


def test_known_two_site_chain():
    """Two sites, one rotation copy: a single exchange bond."""
    rep = SpinRepData(2, 1, 2)
    frozen = build_frozen_hamiltonian(build_lattice("cyclic", 2, 1))
    H = frozen_spin_matrix(rep, frozen.terms)
    # coupling u/(u-1)^2 at u = -1 is -1/4, twice (both orders) -> -P/2
    P = spin_matrix_of_element(rep, enumerate_subgroup(GroupSpec("symmetric", 2, 1))[1])
    assert np.max(np.abs(H - (-0.5) * P.to_numpy())) < 1e-14
    vals, degs, herm = diagonalize_hermitian(H)
    assert herm == 0.0
    assert np.allclose(vals, [-0.5, -0.5, -0.5, 0.5])
    assert [d for _, d in degs] == [3, 1]


def test_diagonalize_guards():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        diagonalize_hermitian(bad)
    # two Hermitian blocks linked by a lone entry whose mirror is missing:
    # the symmetrized pattern joins them, so the per-block check sees it
    linked = np.zeros((4, 4), dtype=complex)
    linked[:2, :2] = [[1.0, 1j], [-1j, 2.0]]
    linked[2:, 2:] = [[0.0, 3.0], [3.0, 1.0]]
    linked[0, 3] = 1e-3
    with pytest.raises(ValueError):
        diagonalize_hermitian(linked)
    # a non-real diagonal entry is a one-by-one block of its own
    with pytest.raises(ValueError):
        diagonalize_hermitian(np.diag([1.0, 2.0 + 1e-6j, 3.0]))
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals, degs, herm = diagonalize_hermitian(good)
    assert np.allclose(vals, [-1.0, 1.0]) and herm == 0.0


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(1)
    B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = B + B.conj().T
    vals, _, _ = diagonalize_hermitian(H)
    w, v = np.linalg.eigh(H)
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - H)) < 1e-8


def test_charpoly_oracle_matches_eigensolvers():
    rng = random.Random(0)
    dim = 4
    M = SpinMatrix.zero(dim, 4)
    z4 = CycloScalar.root_of_unity(4)
    for i in range(dim):
        for j in range(i, dim):
            val = CycloScalar.rational(Fraction(rng.randint(-3, 3)), 4)
            if i != j:
                val = val + z4 * rng.randint(-2, 2)
            M.rows[i][j] = val
            M.rows[j][i] = val.conj()
    # exact Hermiticity: M equals its conjugate transpose entry by entry
    assert all(M.rows[i][j] == M.rows[j][i].conj() for i in range(dim) for j in range(dim))
    H = M.to_numpy()
    vals, _, _ = diagonalize_hermitian(H)
    oracle = brute_force_eigvals(H)
    assert np.max(np.abs(vals - oracle)) < 1e-10
    coeffs = char_poly_exact(M)
    assert charpoly_residual(coeffs, vals) < 1e-9
    # the roots of the exact polynomial, a structural cross-check
    roots = np.roots([c.to_complex() for c in reversed(coeffs)])
    assert np.max(np.abs(np.sort(roots.real) - vals)) < 1e-5


def test_jacobi_oracle_on_degenerate_spectra():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    d = np.array([2.0, 2.0, 2.0, -1.0, -1.0, 5.0])
    H = Q @ np.diag(d) @ Q.conj().T
    H = (H + H.conj().T) / 2
    vals = brute_force_eigvals(H)
    assert np.max(np.abs(vals - np.sort(d))) < 1e-10
