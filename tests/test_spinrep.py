"""Spin representation, projectors, charge agreement and chain spectra."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    agreement_blocks_by_definition,
    agreement_blocks_by_entry,
    apply_agreement,
    chain_from_dense,
    char_poly_by_trace_recursion,
    dense_agreement,
    dense_frozen_chain,
    dense_iota,
    dense_spin_sum,
    left_regular,
    nonzero_entries,
    random_operator,
    random_test_functions,
    random_torus_point,
    spin_image_by_definition,
    spin_sum_by_entry,
    sparse_to_numpy,
    to_numpy,
)
from wreathdunkl.cyclotomic import CycloScalar
from wreathdunkl.dunkl import (
    ModelParams,
    boundary_element,
    build_charge,
    build_dunkl,
    exchange_element,
)
from wreathdunkl import spinrep
from wreathdunkl.groups import GroupSpec, WreathElement, enumerate_subgroup, generator
from wreathdunkl.opalg import MixedOperator
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient
from wreathdunkl.spinrep import (
    SpinRepData,
    adjoint_weights,
    agreement_blocks,
    brute_force_eigvals,
    build_projector,
    char_poly_exact,
    commutant_residual,
    compose_images,
    convolve,
    default_weights,
    diagonalize_hermitian,
    exact_levels,
    frozen_spin_matrix,
    generating_set,
    global_rotation_element,
    is_subgroup_average,
    monomial_image,
    pattern_blocks,
    projector_check,
    projector_generators,
    spin_matrix_of_element,
    spin_representation_check,
    spin_sum,
    substitute_spin,
    twisted_translation_element,
    verify_agreement,
    wreath_stack,
)
from wreathdunkl.static import build_frozen_hamiltonian, build_lattice, equidistant_lattice


def test_default_weights():
    assert default_weights(2, 3) == (1, 2)
    assert default_weights(2, 2) == (1, 1)
    assert default_weights(3, 4) == (1, 0, 3)
    assert default_weights(4, 5) == (1, 2, 3, 4)
    # one weight per local state, with a_i + a_{n+1-i} = 0 (mod m)
    for n in range(1, 9):
        for m in range(1, 9):
            a = default_weights(n, m)
            assert len(a) == n and SpinRepData(n, m, 2).weights == a
            assert all((a[i] + a[n - 1 - i]) % m == 0 for i in range(n))


def test_example_matrices():
    rep = SpinRepData(2, 3, 2)
    assert rep.weights == (1, 2)
    spec = GroupSpec("W(m,N)", 2, 3)
    Q1, Q2, K1, P = (
        monomial_image(rep, generator(spec, name, i=i))
        for name, i in (("Q", 1), ("Q", 2), ("K", 1), ("P", 1))
    )
    z3 = CycloScalar.root_of_unity(3)
    # diagonal with the weight phases on the first tensor slot
    image = spin_matrix_of_element(rep, generator(spec, "Q", i=1))
    assert sorted(image) == [(t, t) for t in range(4)]
    assert image[(0, 0)] == z3 and image[(3, 3)] == z3**2
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
    """The image with the rotation phase of every flipped site negated, for
    one element or a stack."""
    rows, _ = image(rep, g)
    digits = (rows[..., None] // rep.n ** np.arange(rep.N - 1, -1, -1)) % rep.n
    sign = 1 - 2 * np.asarray(g.flip)
    rot = (sign * np.asarray(g.rot))[..., None, :]
    phases = (np.array(rep.weights)[digits] * rot).sum(axis=-1) % rep.m
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


def _blocks(A, rep, params):
    """agreement_blocks of A against the family's projector."""
    which = "exchange" if params.family == "cyclic" else "product"
    proj = build_projector(params)
    return agreement_blocks(A, rep, proj, projector_generators(params.size, params.order, which))


def test_agreement_dihedral_even_k():
    p = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
    rep = SpinRepData(2, 2, 2)
    assert _blocks(build_charge(p, 2), rep, p) == 0


def test_agreement_dihedral_odd_k():
    """Odd k agrees like even k under the exchange-operator substitution
    g -> rho(g^-1), by the coset count, the engine's verdict and the dense
    decision.  Under g -> rho(g) the dense count at k = 3 is 48 blocks and
    the dense decision fails, while k = 1 holds either way (its group
    elements are involutions, so rho(g) = rho(g^-1)): the "first power
    where agreement fails is 3" belongs to the substitution order, not to
    the model."""
    p = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
    rep = SpinRepData(2, 2, 2)
    proj = build_projector(p)
    point = random_torus_point(random.Random(3), 2)
    for k in (1, 3):
        A = build_charge(p, k)
        assert _blocks(A, rep, p) == 0
        [item] = verify_agreement(p, rep, k).items
        assert item.relation == "(spin charge - charge) * projector = 0"
        assert item.passed and item.witness is None
        assert dense_agreement(A, rep, proj, seed=k)
        assert agreement_blocks_by_definition(A, rep, proj, point) == 0
    A3 = build_charge(p, 3)
    assert agreement_blocks_by_definition(A3, rep, proj, point, inverse=False) == 48
    assert not dense_agreement(A3, rep, proj, seed=3, inverse=False)
    assert agreement_blocks_by_definition(build_charge(p, 1), rep, proj, point, inverse=False) == 0


def test_agreement_cyclic_k3_fails_at_three_sites():
    """At N = 3, k = 3 the substitution g -> rho(g) fails on projected
    states, with 24 nonzero blocks in the dense count; the
    exchange-operator substitution g -> rho(g^-1) agrees, by the coset
    count, the engine's verdict and the dense decision."""
    p = ModelParams("cyclic", 3, 2, Fraction(1, 2))
    rep = SpinRepData(2, 2, 3)
    A, proj = build_charge(p, 3), build_projector(p)
    point = random_torus_point(random.Random(5), 3)
    assert agreement_blocks_by_definition(A, rep, proj, point, inverse=False) == 24
    assert not dense_agreement(A, rep, proj, seed=5, inverse=False)
    assert _blocks(A, rep, p) == 0
    assert agreement_blocks_by_definition(A, rep, proj, point) == 0
    assert dense_agreement(A, rep, proj, seed=5)
    assert verify_agreement(p, rep, 3).passed


_DIHEDRAL_22 = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
_CYCLIC_32 = ModelParams("cyclic", 3, 2, Fraction(1, 2))


def _outside_term(params):
    """c Q_1 with c = q_1 / (q_1 - q_2): Q_1 lies outside the support of
    the family's projector at m = 2 (its rotations do not balance, and in
    the dihedral family no flip of B can absorb them)."""
    N, m = params.size, params.order
    q1, q2 = LaurentPoly.variable(1, N, m), LaurentPoly.variable(2, N, m)
    Q1 = generator(GroupSpec("W(m,N)", N, m), "Q", i=1)
    assert Q1 not in build_projector(params)
    return MixedOperator.term(RationalCoefficient.ratio(q1, q1 - q2), Q1)


@pytest.mark.parametrize(
    "p,n,k,outside,count",
    [
        (_DIHEDRAL_22, 2, 3, False, 0),
        (_CYCLIC_32, 2, 3, False, 0),
        (_DIHEDRAL_22, 3, 2, False, 0),
        (_CYCLIC_32, 2, 2, False, 0),
        (_DIHEDRAL_22, 2, 3, True, 32),
        (_CYCLIC_32, 2, 3, True, 48),
    ],
    ids=["dihedral-k3", "cyclic-k3", "dihedral-n3", "cyclic-k2",
         "dihedral-k3-outside", "cyclic-k3-outside"],
)
def test_agreement_blocks_equal_the_entry_by_entry_sum(p, n, k, outside, count):
    """Summing each distinct contribution list once gives the count that
    adding every image into its entries one after another gives, and the
    count of the dense blocks.  The charges agree; a term outside the
    projector's subgroup leaves nonzero blocks, and the counts stay
    equal there."""
    rep = SpinRepData(n, p.order, p.size)
    A, proj = build_charge(p, k), build_projector(p)
    if outside:
        A = A + _outside_term(p)
    point = random_torus_point(random.Random(k), p.size)
    assert _blocks(A, rep, p) == agreement_blocks_by_entry(A, rep, proj) == count
    assert agreement_blocks_by_definition(A, rep, proj, point) == count


_CLI_SPIN_POINTS = [
    # the default verify grid, the benchmark's spin verifies, and the spin
    # verifies of tests/report_digests.py
    (ModelParams("cyclic", 2, 2, Fraction(1, 2)), 2),
    (_DIHEDRAL_22, 2),
    (ModelParams("cyclic", 3, 2, Fraction(1, 2)), 4),
    (_DIHEDRAL_22, 3),
    (ModelParams("cyclic", 4, 2, Fraction(1, 2)), 3),
    (ModelParams("dihedral", 3, 2, Fraction(1, 2), Fraction(1), Fraction(1, 2)), 2),
    (ModelParams("cyclic", 4, 3, Fraction(1, 2)), 2),
]


@pytest.mark.parametrize("p,n", _CLI_SPIN_POINTS,
                         ids=[f"{p.family}-N{p.size}-m{p.order}-n{n}" for p, n in _CLI_SPIN_POINTS])
def test_support_route_coset_count_and_dense_decision_agree(p, n):
    """At every CLI spin point and k <= 3, the engine's verdict (decided
    from the supports of the d_i), the coset count of the built charge and
    the dense decision on exact spin vectors all give agreement."""
    rep = SpinRepData(n, p.order, p.size)
    proj = build_projector(p)
    for k in (1, 2, 3):
        A = build_charge(p, k)
        assert verify_agreement(p, rep, k).passed
        assert _blocks(A, rep, p) == 0
        assert dense_agreement(A, rep, proj, seed=k)


def test_agreement_outside_the_subgroup_takes_the_counted_route(monkeypatch):
    """A build_dunkl rebound with a term outside the projector's subgroup
    sends verify_agreement to the built charge and the coset count, which
    fails exactly: the count equals the dense block count and the dense
    decision fails too."""
    p = _CYCLIC_32
    rep = SpinRepData(2, 2, 3)
    extra = _outside_term(p)

    def rebound(params, i):
        d = build_dunkl(params, i)
        return d + extra if i == 1 else d

    def charge(params, k):
        return sum((rebound(params, i) ** k for i in range(2, params.size + 1)),
                   rebound(params, 1) ** k)

    counted = []
    real_blocks = spinrep.agreement_blocks

    def blocks(*args):
        counted.append(real_blocks(*args))
        return counted[-1]

    monkeypatch.setattr(spinrep, "build_dunkl", rebound)
    monkeypatch.setattr(spinrep, "build_charge", charge)
    monkeypatch.setattr(spinrep, "agreement_blocks", blocks)
    proj = build_projector(p)
    for k in (1, 2):
        [item] = verify_agreement(p, rep, k).items
        A = charge(p, k)
        point = random_torus_point(random.Random(k), 3)
        assert not item.passed
        assert counted[-1] == agreement_blocks_by_definition(A, rep, proj, point) > 0
        assert not dense_agreement(A, rep, proj, seed=k)
    assert len(counted) == 2


def test_agreement_inside_the_subgroup_builds_no_charge(monkeypatch):
    def refuse(*args):
        raise AssertionError("no charge is built when every d_i lies in the subgroup")

    monkeypatch.setattr(spinrep, "build_charge", refuse)
    monkeypatch.setattr(spinrep, "agreement_blocks", refuse)
    for p, n in _CLI_SPIN_POINTS[:4]:
        for k in (1, 2, 3):
            assert verify_agreement(p, SpinRepData(n, p.order, p.size), k).passed


def test_spin_sum_equals_the_entry_by_entry_sum():
    """On a charge's rational coefficients and a frozen chain's scalars,
    spin_sum gives the entries of the term-by-term sum, written alike."""
    charge = build_charge(_CYCLIC_32, 2)
    cases = [
        (SpinRepData(2, 2, 3), [(c, g) for (k, g), c in charge.terms.items() if k == e])
        for e in {k for k, _ in charge.terms}
    ]
    for family, N, m in (("cyclic", 3, 2), ("dihedral-odd", 2, 3)):
        chain = build_frozen_hamiltonian(build_lattice(family, N, m))
        cases.append((SpinRepData(2, m, N), chain.terms))
    for rep, terms in cases:
        order, S = spin_sum(rep, terms)
        ref_order, ref = spin_sum_by_entry(rep, terms)
        assert order == ref_order
        assert {key: v.to_json() for key, v in S.items()} == {
            key: v.to_json() for key, v in ref.items()
        }


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
            rho = to_numpy(spin_image_by_definition(rep, g))
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
        ("dihedral", 2, 2, 3, True),
    ],
)
def test_agreement_matches_application_and_block_count(family, N, m, k, zero):
    """The agreement verdict against (spin charge - charge) * projector
    applied exactly to a random spin vector, and its term count against
    the blocks counted densely at a random torus point.  At dihedral k = 3
    the substitution g -> rho(g) fails the exact application."""
    rep = SpinRepData(2, m, N)
    params = _family_params(family, N, m)
    charge = build_charge(params, k)
    proj = build_projector(params)
    terms = _blocks(charge, rep, params)
    assert (terms == 0) == zero
    rng = random.Random(k)
    count = agreement_blocks_by_definition(charge, rep, proj, random_torus_point(rng, N))
    assert terms == count
    funcs = random_test_functions(rng, N, m, rep.dim)
    applied = apply_agreement(charge, rep, proj, funcs)
    assert all(v.is_zero() for v in applied) == zero
    if (family, k) == ("dihedral", 3):
        applied = apply_agreement(charge, rep, proj, funcs, inverse=False)
        assert not all(v.is_zero() for v in applied)


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
    P12, K1 = generator(spec, "P", i=1, j=2), generator(spec, "K", i=1)
    subgroups = [
        ([ident, P12], [P12]),
        ([ident, K1], [K1]),
        (enumerate_subgroup(GroupSpec("G(m,p,N)", N, m, p=m)),
         projector_generators(N, m, "exchange")),
        (enumerate_subgroup(spec), generating_set(N, m)),
    ]
    rng = random.Random(11)
    for S, gens in subgroups:
        proj = _uniform(S)
        for _ in range(4):
            A = random_operator(rng, N, m, nterms=4)
            point = random_torus_point(rng, N)
            assert agreement_blocks(A, rep, proj, gens) == agreement_blocks_by_definition(
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
        assert agreement_blocks(A, rep, proj, [Q1]) == 0
        funcs = random_test_functions(random.Random(3), N, m, rep.dim)
        assert all(v.is_zero() for v in apply_agreement(A, rep, proj, funcs))
    A = MixedOperator.term(c, generator(spec, "P", i=1, j=2))
    assert agreement_blocks(A, rep, proj, [Q1]) == 2 * 2  # the cosets S and P_12 S


def test_agreement_blocks_require_a_subgroup_average():
    rep = SpinRepData(2, 3, 2)
    spec = GroupSpec("W(m,N)", 2, 3)
    ident = WreathElement.identity(2, 3)
    Q1, K1 = generator(spec, "Q", i=1), generator(spec, "K", i=1)
    A = MixedOperator.from_group(generator(spec, "P", i=1, j=2))
    with pytest.raises(ValueError):  # not closed: Q_1^2 is missing
        agreement_blocks(A, rep, _uniform([ident, Q1]), [Q1])
    with pytest.raises(ValueError):  # a subgroup, but not uniform on it
        agreement_blocks(A, rep, {ident: Fraction(1, 3), K1: Fraction(2, 3)}, [K1])


def test_subgroup_certificate_refuses_what_it_does_not_prove():
    """The certificate holds for the projectors with their generating sets,
    and refuses a support that is not <T>, unequal weights, and a T that
    misses part of the support or leaves it."""
    N, m = 2, 3
    spec = GroupSpec("W(m,N)", N, m)
    ident = WreathElement.identity(N, m)
    Q1, K1 = generator(spec, "Q", i=1), generator(spec, "K", i=1)
    for which in ("exchange", "boundary", "product"):
        params = ModelParams("dihedral", N, m)
        assert is_subgroup_average(build_projector(params, which),
                                   projector_generators(N, m, which))
    lam = build_projector(ModelParams("cyclic", N, m), "exchange")
    T = projector_generators(N, m, "exchange")
    # a support that is not <T>: one element of the subgroup missing
    short = dict(list(lam.items())[:-1])
    assert not is_subgroup_average({g: Fraction(1, len(short)) for g in short}, T)
    # not a subgroup at all, whatever the generators
    assert not is_subgroup_average(_uniform([ident, Q1]), [Q1])
    # unequal weights on a subgroup
    assert not is_subgroup_average({ident: Fraction(1, 3), K1: Fraction(2, 3)}, [K1])
    # a T that generates only part of the support
    assert not is_subgroup_average(lam, T[:-1])
    # a T that leaves the support
    assert not is_subgroup_average(lam, T + (K1,))
    assert not is_subgroup_average({}, T)


@pytest.mark.parametrize("family", ["cyclic", "dihedral"])
@pytest.mark.parametrize("N,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_certified_projectors_equal_the_convolutions(family, N, m):
    """The product projector read off the certificates is the convolution
    of the exchange and boundary averages, in either order; each projector
    is certified with its generating set."""
    params = ModelParams(family, N, m)
    lam, lam_b = build_projector(params, "exchange"), build_projector(params, "boundary")
    product = build_projector(params, "product")
    assert product == convolve(lam, lam_b) == convolve(lam_b, lam)
    for which in ("exchange", "boundary", "product"):
        assert is_subgroup_average(build_projector(params, which),
                                   projector_generators(N, m, which))
    assert build_projector(params) == (lam if family == "cyclic" else product)


def test_exchange_item_loops_over_keys_for_a_non_involution(monkeypatch):
    """An exchange element of the subgroup that is not an involution is
    decided key by key, and fails: rho(g) != rho(g^-1) on the spins."""
    p = ModelParams("cyclic", 3, 2, Fraction(1, 2))
    rep = SpinRepData(2, 2, 3)
    looped = []
    real_loop = spinrep._acts_like_spin_image

    def loop(rep, lam, g):
        looped.append(g)
        return real_loop(rep, lam, g)

    monkeypatch.setattr(spinrep, "_acts_like_spin_image", loop)
    assert projector_check(p, rep).passed and not looped
    cycle = WreathElement(3, 2, (1, 2, 0), (0, 0, 0), (0, 0, 0))  # in G(2, 2, 3)
    assert cycle in build_projector(p) and not (cycle * cycle).is_identity()
    monkeypatch.setattr(spinrep, "exchange_element", lambda N, m, i, j, s: cycle)
    exchange = [i for i in projector_check(p, rep).items
                if i.relation == "exchange acts like its spin image on Lambda"]
    assert len(looped) == len(exchange) == 3 * 2 * 2
    assert not any(i.passed for i in exchange)


@pytest.mark.parametrize("family,N,m", [("cyclic", 3, 2), ("dihedral", 2, 2), ("dihedral", 2, 3)])
def test_projector_items_fall_back_to_products_without_certificates(monkeypatch, family, N, m):
    """With every certificate refused, each item is decided by products of
    weights and gives the verdict read off the certificates."""
    p = _family_params(family, N, m)
    rep = SpinRepData(2, m, N)

    def items():
        return [(i.relation, i.params, i.passed) for i in projector_check(p, rep).items]

    expected = items()
    assert all(passed for _, _, passed in expected)
    spinrep._projector.cache_clear()
    spinrep._averages_commute.cache_clear()
    monkeypatch.setattr(spinrep, "is_subgroup_average", lambda weights, gens: False)
    try:
        assert not spinrep._projector(N, m, "exchange")[1]
        assert not spinrep._averages_commute(N, m)
        assert items() == expected
    finally:
        monkeypatch.undo()
        spinrep._projector.cache_clear()
        spinrep._averages_commute.cache_clear()


def test_wreath_stack_matches_the_enumeration_and_compose():
    """The stacked W(m, N) lists the elements of enumerate_subgroup in its
    order, and the stacked product g s and its index agree with compose."""
    for N, m in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        els = enumerate_subgroup(GroupSpec("W(m,N)", N, m))
        stack = wreath_stack(N, m)
        fields = [(tuple(p), tuple(r), tuple(f))
                  for p, r, f in zip(stack.perm.tolist(), stack.rot.tolist(), stack.flip.tolist())]
        assert fields == [(g.perm, g.rot, g.flip) for g in els]
        assert stack.index().tolist() == list(range(len(els)))
        where = {g: t for t, g in enumerate(els)}
        for s in generating_set(N, m) + els[:: max(1, len(els) // 7)]:
            assert stack.times(s).index().tolist() == [where[g * s] for g in els]


def test_frozen_chain_exact_vs_numeric_backends():
    rep = SpinRepData(2, 3, 2)
    terms = build_frozen_hamiltonian(build_lattice("cyclic", 2, 3)).terms
    exact = sparse_to_numpy(rep.dim, spin_sum(rep, terms)[1])
    numeric = frozen_spin_matrix(rep, terms).dense()
    assert np.max(np.abs(exact - numeric)) < 1e-12


@pytest.mark.parametrize("family,N,m", [("cyclic", 3, 2), ("dihedral-odd", 2, 3)])
def test_numeric_frozen_chain_equals_exact(family, N, m):
    rep = SpinRepData(2, m, N)
    terms = build_frozen_hamiltonian(build_lattice(family, N, m)).terms
    exact = sparse_to_numpy(rep.dim, spin_sum(rep, terms)[1])
    numeric = frozen_spin_matrix(rep, terms).dense()
    assert np.max(np.abs(exact - numeric)) < 1e-12


def _chain_lattice(family, N, m):
    if family == "dihedral-even":
        return equidistant_lattice(family, N, m, 8, couplings={"mu2": Fraction(4)})
    return build_lattice(family, N, m)


@pytest.mark.parametrize(
    "family,N,m,n",
    [
        ("cyclic", 3, 2, 2),
        ("cyclic", 4, 1, 2),
        ("cyclic", 3, 1, 3),
        ("cyclic", 1, 1, 2),
        ("dihedral-odd", 2, 3, 2),
        ("dihedral-odd", 3, 1, 2),
        ("dihedral-even", 2, 2, 2),
    ],
)
def test_sparse_chain_equals_dense_assembly(family, N, m, n):
    """Bit for bit the dense accumulation, with its nonzero pattern."""
    rep = SpinRepData(n, m, N)
    terms = build_frozen_hamiltonian(_chain_lattice(family, N, m)).terms
    chain = frozen_spin_matrix(rep, terms)
    reference = dense_frozen_chain(rep, terms)
    assert np.array_equal(chain.dense(), reference)
    assert np.array_equal(chain.keys, np.flatnonzero(reference))
    assert np.all(chain.values != 0)


def test_cancelling_terms_leave_no_entries():
    """A term and its negative sum to exact zeros, which are not stored;
    a chain without entries has one block per basis state."""
    rep = SpinRepData(2, 2, 3)
    terms = build_frozen_hamiltonian(build_lattice("cyclic", 3, 2)).terms
    c, g = terms[0]
    chain = frozen_spin_matrix(rep, [(c, g), (-c, g)])
    assert chain.keys.size == 0 and chain.values.size == 0
    assert np.array_equal(chain.dense(), dense_frozen_chain(rep, [(c, g), (-c, g)]))
    blocks = pattern_blocks(rep.dim, *np.divmod(chain.keys, rep.dim))
    assert [b.tolist() for b in blocks] == [[t] for t in range(rep.dim)]
    vals, degs, herm = diagonalize_hermitian(chain)
    assert vals.tolist() == [0.0] * rep.dim and degs == [(0.0, rep.dim)] and herm == 0.0
    assert commutant_residual(chain, rep, g) == 0.0
    # and the same chain with the cancelling pair appended
    full = frozen_spin_matrix(rep, terms + [(c, g), (-c, g)])
    reference = dense_frozen_chain(rep, terms + [(c, g), (-c, g)])
    assert np.array_equal(full.dense(), reference)
    assert np.array_equal(full.keys, np.flatnonzero(reference))


@pytest.mark.parametrize("n,m,N", [(2, 2, 2), (3, 3, 2), (2, 1, 3)])
def test_monomial_image_equals_dense_definition(n, m, N):
    rep = SpinRepData(n, m, N)
    H = _random_complex(rep.dim, seed=n * m * N)
    for g in enumerate_subgroup(GroupSpec("W(m,N)", N, m)):
        dense = spin_image_by_definition(rep, g)
        assert spin_matrix_of_element(rep, g) == nonzero_entries(dense)
        M = to_numpy(dense)
        residual = commutant_residual(chain_from_dense(H), rep, g)
        assert abs(residual - np.max(np.abs(H @ M - M @ H))) < 1e-12


@pytest.mark.parametrize("n,m,N", [(2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_stacked_images_equal_the_images_one_at_a_time(n, m, N):
    """monomial_image of the stacked W(m, N) holds, row by row, the image of
    each element, and the representation's shared layout stays unwritten."""
    rep = SpinRepData(n, m, N)
    rows, phases = monomial_image(rep, wreath_stack(N, m))
    for t, g in enumerate(enumerate_subgroup(GroupSpec("W(m,N)", N, m))):
        r, p = monomial_image(rep, g)
        assert rows[t].tolist() == r.tolist() and phases[t].tolist() == p.tolist()
    assert rep.digits is rep.digits and rep.places is rep.places
    assert np.array_equal(rep.digits, np.indices((n,) * N).reshape(N, -1).T)


def test_frozen_chains_do_not_depend_on_the_substitution_order():
    """Every group element of the image table, the frozen chain's terms, is
    an involution, so rho(g) = rho(g^-1) on each term."""
    from wreathdunkl.dunkl import hamiltonian_images

    for N, m in [(2, 2), (3, 2), (3, 3), (4, 1)]:
        for params in (ModelParams("cyclic", N, m, Fraction(1)),
                       ModelParams("dihedral", N, m, Fraction(1), Fraction(1), Fraction(1, 2))):
            elements = [g for _, _, g in hamiltonian_images(params)]
            assert elements and all((g * g).is_identity() for g in elements)


def _random_complex(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("n,m,N", [(2, 2, 2), (3, 3, 2)])
def test_commutant_residual_equals_dense_products(n, m, N):
    """On a frozen chain, against dense products: the chain's symmetries
    commute with it, other elements of W(m, N) do not."""
    rep = SpinRepData(n, m, N)
    chain = frozen_spin_matrix(rep, build_frozen_hamiltonian(build_lattice("cyclic", N, m)).terms)
    H = chain.dense()
    residuals = {}
    for g in enumerate_subgroup(GroupSpec("W(m,N)", N, m)):
        M = sparse_to_numpy(rep.dim, spin_matrix_of_element(rep, g))
        residuals[g] = commutant_residual(chain, rep, g)
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
    chain = chain_from_dense(H)
    blocks = pattern_blocks(len(H), *np.divmod(chain.keys, len(H)))
    assert sorted(list(b) for b in blocks) == sorted(list(r) for r in members)
    vals, degs, herm = diagonalize_hermitian(chain)
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
    blocks = pattern_blocks(H.dim, *np.divmod(H.keys, H.dim))
    assert len(blocks) == 10
    assert sorted(list(b) for b in blocks) == sorted(classes.values())


def test_known_two_site_chain():
    """Two sites, one rotation copy: a single exchange bond."""
    rep = SpinRepData(2, 1, 2)
    frozen = build_frozen_hamiltonian(build_lattice("cyclic", 2, 1))
    H = frozen_spin_matrix(rep, frozen.terms)
    # coupling u/(u-1)^2 at u = -1 is -1/4, twice (both orders) -> -P/2
    P = spin_matrix_of_element(rep, enumerate_subgroup(GroupSpec("G(m,1,N)", 2, 1))[1])
    assert np.max(np.abs(H.dense() - (-0.5) * sparse_to_numpy(rep.dim, P))) < 1e-14
    vals, degs, herm = diagonalize_hermitian(H)
    assert herm == 0.0
    assert np.allclose(vals, [-0.5, -0.5, -0.5, 0.5])
    assert [d for _, d in degs] == [3, 1]


def test_diagonalize_guards():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        diagonalize_hermitian(chain_from_dense(bad))
    # two Hermitian blocks linked by a lone entry whose mirror is missing:
    # the symmetrized pattern joins them, so the per-block check sees it
    linked = np.zeros((4, 4), dtype=complex)
    linked[:2, :2] = [[1.0, 1j], [-1j, 2.0]]
    linked[2:, 2:] = [[0.0, 3.0], [3.0, 1.0]]
    linked[0, 3] = 1e-3
    with pytest.raises(ValueError):
        diagonalize_hermitian(chain_from_dense(linked))
    # a non-real diagonal entry is a one-by-one block of its own
    with pytest.raises(ValueError):
        diagonalize_hermitian(chain_from_dense(np.diag([1.0, 2.0 + 1e-6j, 3.0])))
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals, degs, herm = diagonalize_hermitian(chain_from_dense(good))
    assert np.allclose(vals, [-1.0, 1.0]) and herm == 0.0


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(1)
    B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = B + B.conj().T
    vals, _, _ = diagonalize_hermitian(chain_from_dense(H))
    w, v = np.linalg.eigh(H)
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - H)) < 1e-8


def _rational_spectrum_matrix():
    """S = U D U^H, exact over Q(i), with D = diag(2, -1/2, 2, 3) and U the
    product of the rational unitaries [[3/5, 4i/5], [4i/5, 3/5]] on the
    coordinate planes (0, 1), (1, 2) and (2, 3): a dense Hermitian matrix
    whose levels are -1/2, 2 (twice) and 3."""
    dim, order = 4, 4
    zero, one = CycloScalar.zero(order), CycloScalar.one(order)
    i = CycloScalar.root_of_unity(order)

    def matmul(A, B):
        return [[sum((A[r][k] * B[k][c] for k in range(dim)), zero) for c in range(dim)]
                for r in range(dim)]

    U = [[one if r == c else zero for c in range(dim)] for r in range(dim)]
    for p, q in ((0, 1), (1, 2), (2, 3)):
        G = [[one if r == c else zero for c in range(dim)] for r in range(dim)]
        G[p][p] = G[q][q] = CycloScalar.rational(Fraction(3, 5), order)
        G[p][q] = G[q][p] = i * CycloScalar.rational(Fraction(4, 5), order)
        U = matmul(U, G)
    levels = [Fraction(2), Fraction(-1, 2), Fraction(2), Fraction(3)]
    D = [[CycloScalar.rational(levels[r], order) if r == c else zero for c in range(dim)]
         for r in range(dim)]
    Uh = [[U[c][r].conj() for c in range(dim)] for r in range(dim)]
    M = matmul(matmul(U, D), Uh)
    return dim, order, {(r, c): v for r, row in enumerate(M) for c, v in enumerate(row) if v}


def test_exact_levels_match_eigensolvers():
    dim, order, S = _rational_spectrum_matrix()
    assert len(S) == dim * dim
    # exact Hermiticity: S equals its conjugate transpose entry by entry
    assert S == {(j, i): v.conj() for (i, j), v in S.items()}
    H = sparse_to_numpy(dim, S)
    vals, _, _ = diagonalize_hermitian(chain_from_dense(H))
    oracle = brute_force_eigvals(H)
    assert np.max(np.abs(vals - oracle)) < 1e-10
    coeffs = char_poly_exact(dim, order, S)
    want = [(Fraction(-1, 2), 1), (Fraction(2), 2), (Fraction(3), 1)]
    assert exact_levels(coeffs, vals, 1e-8) == want
    assert exact_levels(coeffs, oracle, 1e-8) == want


def test_exact_levels_refuse_an_irrational_level():
    """[[1, 1], [1, 0]] has the levels (1 +- sqrt 5) / 2.  Rounding moves
    them by more than 1e-8; within a loose tolerance they round, and the
    product of the roundings is not the polynomial."""
    one = CycloScalar.one(1)
    S = {(0, 0): one, (0, 1): one, (1, 0): one}
    coeffs = char_poly_exact(2, 1, S)
    vals = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert exact_levels(coeffs, vals, 1e-8) is None
    assert all(abs(float(Fraction(v).limit_denominator(1000)) - v) < 1e-3 for v in vals)
    assert exact_levels(coeffs, vals, 1e-3) is None


def test_exact_levels_refuse_a_float_level_beyond_the_tolerance():
    """A level moved by 1e-6 still rounds to the exact level, and is
    certified only when the tolerance admits the move."""
    dim, order, S = _rational_spectrum_matrix()
    coeffs = char_poly_exact(dim, order, S)
    vals = np.array([-0.5, 2.0, 2.0 + 1e-6, 3.0])
    assert exact_levels(coeffs, vals, 1e-8) is None
    assert exact_levels(coeffs, vals, 1e-5) == [
        (Fraction(-1, 2), 1), (Fraction(2), 2), (Fraction(3), 1)
    ]


# the nine chains of dimension 16 or less in the spectrum benchmark workload
WORKLOAD_SMALL_CHAINS = [
    ("cyclic", 2, 1), ("cyclic", 3, 1), ("cyclic", 4, 1), ("cyclic", 3, 2),
    ("cyclic", 4, 2), ("cyclic", 3, 3),
    ("dihedral-odd", 2, 1), ("dihedral-odd", 3, 1), ("dihedral-odd", 2, 3),
]


@pytest.mark.parametrize(
    "family,N,m",
    WORKLOAD_SMALL_CHAINS + [
        ("cyclic", 1, 2), ("dihedral-odd", 4, 1), ("dihedral-even", 2, 2),
        ("dihedral-even", 2, 4),
    ],
)
def test_block_char_poly_equals_whole_matrix_recursion(family, N, m):
    """On the sparse chain, against the recursion on the whole dense matrix
    built from the definition of the spin images; cyclic N = 1 is the
    all-zero chain and dihedral-odd N = 4 one dense dim-16 block."""
    rep = SpinRepData(2, m, N)
    terms = build_frozen_hamiltonian(build_lattice(family, N, m)).terms
    order, S = spin_sum(rep, terms)
    dense = dense_spin_sum(rep, terms)
    assert S == nonzero_entries(dense)
    assert char_poly_exact(rep.dim, order, S) == char_poly_by_trace_recursion(dense)


def test_block_char_poly_with_a_one_sided_entry():
    """Two blocks joined only by M[3][0]: the polynomial is the whole
    matrix's.  The pattern is symmetrized before its components are taken,
    so the lone entries (0, 1) and (3, 0) alone join 0, 1 and 3."""
    z3 = CycloScalar.root_of_unity(3)
    one = CycloScalar.one(3)
    M = {
        (0, 0): one, (0, 1): z3, (1, 0): z3.conj(), (1, 1): -one,
        (2, 2): one * 2, (2, 3): one, (3, 2): one,
        (3, 0): z3 * 5,
        (4, 4): one * 3,
    }
    assert [b.tolist() for b in pattern_blocks(5, np.array([0, 3]), np.array([1, 0]))] == [
        [0, 1, 3], [2], [4]
    ]
    dense = [[M.get((r, t), CycloScalar.zero(3)) for t in range(5)] for r in range(5)]
    assert char_poly_exact(5, 3, M) == char_poly_by_trace_recursion(dense)


# -- the Hessenberg reduction against the trace recursion -------------------------

FIELD_ORDERS = (1, 2, 3, 4, 5, 12)
# entries each shape keeps; "no_subdiagonal" leaves every column's pivot
# below the subdiagonal, so the reduction swaps it up
SHAPES = {
    "sparse": lambda r, c: True,
    "zero": lambda r, c: False,
    "upper": lambda r, c: r <= c,
    "lower": lambda r, c: r >= c,
    "no_subdiagonal": lambda r, c: r != c + 1,
}


@st.composite
def field_entries(draw, order):
    """Zero, or a + b zeta^k in Q(zeta_order) with small a and b."""
    if draw(st.booleans()):
        return CycloScalar.zero(order)
    a = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    zk = CycloScalar.root_of_unity(order, draw(st.integers(0, order - 1)))
    return CycloScalar.rational(a, order) + zk * draw(st.integers(-2, 2))


@st.composite
def exact_matrices(draw, order, max_dim=7):
    """Dense rows of a square matrix over Q(zeta_order), about half its
    entries zero, in one of the ``SHAPES``."""
    dim = draw(st.integers(1, max_dim))
    keep = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    zero = CycloScalar.zero(order)
    return [
        [draw(field_entries(order)) if keep(r, c) else zero for c in range(dim)]
        for r in range(dim)
    ]


def _swap_example():
    """Column 0 of a 3 x 3 matrix has its only nonzero below the
    subdiagonal."""
    z3, zero = CycloScalar.root_of_unity(3), CycloScalar.zero(3)
    return [[zero, z3, zero], [zero, zero, z3 + 1], [z3 * 2, zero, zero]]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELD_ORDERS).flatmap(
    lambda order: st.tuples(st.just(order), exact_matrices(order))))
@example((3, _swap_example()))
def test_hessenberg_char_poly_equals_trace_recursion(case):
    order, M = case
    want = char_poly_by_trace_recursion(M)
    got = spinrep._hessenberg_char_poly([row[:] for row in M], order)
    assert [c.to_json() for c in got] == [c.to_json() for c in want]


def _poly_product(a, b):
    out = [CycloScalar.zero(a[0].order)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELD_ORDERS).flatmap(lambda order: st.tuples(
    st.just(order), exact_matrices(order, 5), exact_matrices(order, 5),
    st.randoms(use_true_random=False))))
def test_char_poly_of_permuted_blocks(case):
    """Two blocks on a shuffled basis: ``char_poly_exact`` takes them apart
    again, and the polynomial is the product of the blocks' references."""
    order, A, B, rnd = case
    dim = len(A) + len(B)
    place = list(range(dim))
    rnd.shuffle(place)
    S = {}
    for offset, block in ((0, A), (len(A), B)):
        for r, row in enumerate(block):
            for c, v in enumerate(row):
                if not v.is_zero():
                    S[(place[offset + r], place[offset + c])] = v
    want = _poly_product(char_poly_by_trace_recursion(A), char_poly_by_trace_recursion(B))
    assert char_poly_exact(dim, order, S) == want


def test_hessenberg_char_poly_is_cubic(monkeypatch):
    """On a dense dim-16 block the reduction and the recurrence make at
    most dim^3 + dim^2 field multiplications; the trace recursion, about
    dim^4, makes more."""
    rng = random.Random(0)
    dim, order = 16, 3
    z3 = CycloScalar.root_of_unity(order)
    M = [[CycloScalar.rational(rng.randint(1, 3), order) + z3 * rng.randint(-2, 2)
          for _ in range(dim)] for _ in range(dim)]
    S = {(r, c): v for r, row in enumerate(M) for c, v in enumerate(row)}
    assert [len(b) for b in pattern_blocks(dim, *np.array(list(S)).T)] == [dim]
    calls = []
    mul = CycloScalar.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(CycloScalar, "__mul__", counted)
    monkeypatch.setattr(CycloScalar, "__rmul__", counted)
    got = char_poly_exact(dim, order, S)
    hessenberg = len(calls)
    calls.clear()
    assert got == char_poly_by_trace_recursion(M)
    assert hessenberg <= dim**3 + dim**2 < len(calls)


def test_jacobi_oracle_on_degenerate_spectra():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    d = np.array([2.0, 2.0, 2.0, -1.0, -1.0, 5.0])
    H = Q @ np.diag(d) @ Q.conj().T
    H = (H + H.conj().T) / 2
    vals = brute_force_eigvals(H)
    assert np.max(np.abs(vals - np.sort(d))) < 1e-10
