"""Dunkl operators, charges, Hamiltonians and the relation suites."""

import random
from fractions import Fraction

import pytest

from helpers import apply
from wreathdunkl.dunkl import (
    ModelParams,
    build_charge,
    build_dunkl,
    build_hamiltonian,
    build_reflection_dunkl,
    build_symmetric_dunkl,
    charge_commutation_check,
    check_hecke_relations,
    check_recursion,
    exchange_element,
    hamiltonian_check,
    hamiltonian_x_display,
    reduction_check,
    rotation_average_check,
)
from wreathdunkl.groups import GroupSpec, generator
from wreathdunkl.opalg import (
    MixedOperator,
    numeric_residual,
    op_commutator,
)
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient


def test_single_copy_collapse():
    """At rotation order one the operator reduces to one exchange term."""
    p = ModelParams("cyclic", 2, 1, Fraction(1))
    d1 = build_dunkl(p, 1)
    q1 = LaurentPoly.variable(1, 2, 1)
    q2 = LaurentPoly.variable(2, 2, 1)
    P12 = generator(GroupSpec("G(m,1,N)", 2, 1), "P", i=1, j=2)
    expected = MixedOperator.euler(2, 1, 1, 1) + MixedOperator.term(
        RationalCoefficient.ratio(q2, q1 - q2), P12
    )
    assert d1 == expected
    # applied to the constant function
    out = apply(d1, RationalCoefficient.one(2, 1))
    assert out == RationalCoefficient.ratio(q2, q1 - q2)


@pytest.mark.parametrize("N,m", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(1)])
def test_cyclic_commutativity(N, m, lam):
    p = ModelParams("cyclic", N, m, lam)
    ds = [build_dunkl(p, i) for i in range(1, N + 1)]
    for i in range(N):
        for j in range(i + 1, N):
            c = op_commutator(ds[i], ds[j])
            assert c.is_zero()


def test_first_charge_collapses_to_euler_sum():
    p = ModelParams("cyclic", 2, 3, Fraction(1))
    i1 = build_charge(p, 1)
    expected = MixedOperator.euler(2, 1, 3, 3) + MixedOperator.euler(2, 2, 3, 3)
    assert i1 == expected


@pytest.mark.parametrize("N,m", [(2, 2), (2, 3)])
def test_hamiltonian_equals_second_charge_cyclic(N, m):
    p = ModelParams("cyclic", N, m, Fraction(1))
    assert hamiltonian_check(p).passed


def test_recursion_and_negative_control():
    for (N, m) in [(3, 2), (2, 3)]:
        p = ModelParams("cyclic", N, m, Fraction(1))
        assert check_recursion(p).passed
    bad = check_recursion(ModelParams("cyclic", 3, 2, Fraction(1)), corrupt=True)
    assert not bad.passed
    assert bad.failures()[0].witness is not None


def test_hecke_suite_cyclic():
    p = ModelParams("cyclic", 2, 3, Fraction(1, 2))
    suite = check_hecke_relations(p)
    assert suite.passed, [i.relation for i in suite.failures()]
    assert not check_hecke_relations(p, corrupt="drels").passed


def test_hecke_suite_cyclic_three_sites():
    p = ModelParams("cyclic", 3, 2, Fraction(1))
    suite = check_hecke_relations(p)
    assert suite.passed, [i.relation for i in suite.failures()]


@pytest.mark.parametrize(
    "lam,mu,rho",
    [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(1), Fraction(1, 2)),
    ],
)
def test_hecke_suite_dihedral(lam, mu, rho):
    p = ModelParams("dihedral", 2, 2, lam, mu, rho)
    suite = check_hecke_relations(p)
    assert suite.passed, [i.relation for i in suite.failures()]
    assert check_recursion(p).passed


def test_dihedral_forms_agree():
    for (N, m) in [(2, 2), (2, 3)]:
        p = ModelParams("dihedral", N, m, Fraction(1), Fraction(1, 2), Fraction(1, 3))
        for i in range(1, N + 1):
            assert build_dunkl(p, i, "image") == build_dunkl(p, i, "split")


def test_dihedral_hamiltonians():
    # even m
    p = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1))
    assert hamiltonian_check(p).passed
    # odd m with the simplified boundary at rho = 0
    p3 = ModelParams("dihedral", 2, 3, Fraction(1), Fraction(1), Fraction(0))
    assert hamiltonian_check(p3).passed
    with pytest.raises(ValueError):
        build_hamiltonian(p, "odd")
    with pytest.raises(ValueError):
        build_hamiltonian(p3, "even")
    with pytest.raises(ValueError):
        build_hamiltonian(
            ModelParams("dihedral", 2, 3, Fraction(1), Fraction(1), Fraction(1)),
            "odd_simplified",
        )


def test_rotation_average_reproduces_wreath_operators():
    for family, N, m in [("cyclic", 2, 2), ("cyclic", 2, 3), ("dihedral", 2, 2), ("dihedral", 2, 3)]:
        p = ModelParams(family, N, m, Fraction(1, 2), Fraction(1), Fraction(1, 2))
        suite = rotation_average_check(p)
        assert suite.passed, (family, N, m, [i.relation for i in suite.failures()])


def test_reduction_at_unit_order():
    for family in ("cyclic", "dihedral"):
        p = ModelParams(family, 2, 1, Fraction(1), Fraction(1, 2), Fraction(1, 3))
        assert reduction_check(p).passed
    # away from m=1 the operators genuinely differ; the suite records that
    assert reduction_check(ModelParams("cyclic", 2, 2, Fraction(1))).passed


@pytest.mark.parametrize("family,m", [("cyclic", 2), ("cyclic", 3), ("dihedral", 2),
                                      ("dihedral", 3), ("dihedral", 4)])
def test_reduction_away_from_unit_order(family, m):
    """At m > 1 the operators agree exactly when no coupling sees the rotations.

    Each verdict is asserted both ways (equal or different), so the suite
    passing at every grid point pins the condition, including the dihedral
    m = 2 point where mu alone lands on K_i in both operators.
    """
    equal = []
    for lam in (0, 1):
        for mu in (0, 1):
            for rho in (0, Fraction(1, 2)):
                p = ModelParams(family, 2, m, Fraction(lam), Fraction(mu), rho)
                suite = reduction_check(p)
                assert suite.passed, (p, [i.relation for i in suite.failures()])
                if not suite.items[0].expected_nonzero:
                    equal.append((lam, mu, rho))
    if family == "cyclic":
        assert equal == [(0, 0, 0), (0, 0, Fraction(1, 2)), (0, 1, 0), (0, 1, Fraction(1, 2))]
    else:
        assert equal == ([(0, 0, 0), (0, 1, 0)] if m == 2 else [(0, 0, 0)])


def test_charge_commutation_and_symmetries():
    p = ModelParams("cyclic", 2, 2, Fraction(1, 2))
    suite = charge_commutation_check(p, kmax=3)
    assert suite.passed, [i.relation for i in suite.failures()]
    pd = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
    suite = charge_commutation_check(pd, kmax=2)
    assert suite.passed, [i.relation for i in suite.failures()]


def test_decomposition_into_barred_part():
    from wreathdunkl.static import build_barred

    p = ModelParams("cyclic", 2, 2, Fraction(1))
    for i in (1, 2):
        d = build_dunkl(p, i)
        barred = build_barred(p, i)
        euler = MixedOperator.euler(2, i, order=2, group_order=2)
        assert d == euler + barred.scale(p.lam)
        # the barred operator carries no coupling at all
        p2 = ModelParams("cyclic", 2, 2, Fraction(7, 3))
        assert build_barred(p2, i) == barred


def test_couplings_must_be_exact():
    with pytest.raises(TypeError):
        ModelParams("cyclic", 2, 2, 0.3)


def test_numeric_backend_agrees_on_zero():
    p = ModelParams("cyclic", 2, 3, Fraction(1, 2))
    c = op_commutator(build_dunkl(p, 1), build_dunkl(p, 2))
    assert c.is_zero()
    assert numeric_residual(c, seed=4) < 1e-10


def test_x_display_renders():
    p = ModelParams("dihedral", 2, 3, Fraction(1), Fraction(1), Fraction(0))
    text = hamiltonian_x_display(p)
    assert "sin^2" in text and "cos^2" in text


def test_exchange_element_normal_form():
    g = exchange_element(3, 4, 1, 3, 1)
    assert g.rot == (3, 0, 1)
    assert g.perm == (2, 1, 0)
    # swapping the pair and negating the offset gives the same element
    assert exchange_element(3, 4, 3, 1, -1) == g
    assert exchange_element(3, 4, 3, 1, 1) == exchange_element(3, 4, 1, 3, -1)
