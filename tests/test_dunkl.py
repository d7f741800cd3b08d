"""Dunkl operators, charges, Hamiltonians and the relation suites."""

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply,
    charge_commutator_by_products,
    hamiltonian_by_linear_kernels,
    hecke_cross_by_products,
    is_reduced,
    numeric_residual,
    power_sum_by_products,
)
from wreathdunkl import dunkl, opalg
from wreathdunkl.cli import DEFAULT_GRID, _verify_case
from wreathdunkl.dunkl import (
    ModelParams,
    _dihedral_dunkl_split,
    build_charge,
    build_dunkl,
    build_hamiltonian,
    build_reflection_dunkl,
    build_symmetric_dunkl,
    charge_commutation_check,
    charge_dunkl_commutator,
    charge_rotation_commutator,
    charges_commutator,
    check_hecke_relations,
    check_recursion,
    dunkl_commutator,
    dunkl_rotation_commutator,
    exchange_element,
    hamiltonian_check,
    hamiltonian_images,
    hamiltonian_x_display,
    reduction_check,
    rotation_average_check,
)
from wreathdunkl.cyclotomic import CycloScalar
from wreathdunkl.groups import GroupSpec, generator
from wreathdunkl.opalg import (
    MixedOperator,
    first_term_witness,
    op_commutator,
    op_compose,
)
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient


def test_single_copy_collapse():
    """At rotation order one the operator reduces to one exchange term."""
    p = ModelParams("cyclic", 2, 1, Fraction(1))
    d1 = build_dunkl(p, 1)
    q1 = LaurentPoly.variable(1, 2, 1)
    q2 = LaurentPoly.variable(2, 2, 1)
    P12 = generator(GroupSpec("G(m,1,N)", 2, 1), "P", i=1, j=2)
    expected = MixedOperator.euler(2, 1, 1) + MixedOperator.term(
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
    expected = MixedOperator.euler(2, 1, 3) + MixedOperator.euler(2, 2, 3)
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


CROSS = "d e1 d e1 + lam d T = e1 d e1 d + lam T d"
DIHEDRAL_CROSS = "D (e1 D e1 + lam T) = (e1 D e1 + lam T) D"
_CROSS_POINTS = [
    ModelParams("cyclic", 2, 2, Fraction(1, 2)),
    ModelParams("cyclic", 3, 2, Fraction(1)),
    ModelParams("dihedral", 2, 2, Fraction(1, 2), Fraction(1), Fraction(1, 2)),
    ModelParams("dihedral", 2, 3, Fraction(1), Fraction(1), Fraction(1, 2)),
]


def _hecke_items(params, monkeypatch, corrupt=None):
    """The Hecke suite and the operator of each of its items, by relation
    (the first instance of each)."""
    ops = {}
    real = dunkl._is_zero_item

    def capture(suite, name, indices, op, expect_zero=True):
        ops.setdefault(name, op)
        return real(suite, name, indices, op, expect_zero)

    with monkeypatch.context() as patched:
        patched.setattr(dunkl, "_is_zero_item", capture)
        suite = check_hecke_relations(params, corrupt=corrupt)
    return suite, ops


@pytest.mark.parametrize("corrupt", [None, "drels"])
@pytest.mark.parametrize("p", _CROSS_POINTS, ids=lambda p: str(p.to_json()))
def test_hecke_cross_relation_equals_the_four_products(p, corrupt, monkeypatch):
    """The cross item, read from the cached [d_1, d_2], is lhs - rhs of the
    four products, and the dihedral item [D, e1 D e1 + lam T] is the same
    difference at the uncorrupted coupling."""
    suite, ops = _hecke_items(p, monkeypatch, corrupt)
    want = hecke_cross_by_products(p, corrupt)
    assert want.is_zero() == (corrupt is None) == suite.passed
    assert ops[CROSS] == want and ops[CROSS].to_json() == want.to_json()
    if p.family == "dihedral":
        assert ops[DIHEDRAL_CROSS] == hecke_cross_by_products(p)


def test_hecke_cross_relation_with_a_recursion_residual(monkeypatch):
    """With d_2 replaced by d_2 + e1 the residual R = e1 d1 e1 + lam T - d_2
    is -e1, and [d_1, d_2] no longer vanishes; the cross items add
    [d1, R] and still equal the products, which never read d_2."""
    p = _CROSS_POINTS[2]
    e1 = MixedOperator.from_group(generator(p.group_spec, "e", i=1))
    real = build_dunkl
    monkeypatch.setattr(
        dunkl, "build_dunkl", lambda params, i: real(params, i) + e1 if i == 2 else real(params, i)
    )
    dunkl_commutator.cache_clear()
    try:
        suite, ops = _hecke_items(p, monkeypatch)
    finally:
        dunkl_commutator.cache_clear()
    assert not ops["[d_i, d_j] = 0"].is_zero()
    assert ops[CROSS] == ops[DIHEDRAL_CROSS] == hecke_cross_by_products(p)
    assert ops[CROSS].is_zero()


def test_dihedral_forms_agree():
    for (N, m) in [(2, 2), (2, 3)]:
        p = ModelParams("dihedral", N, m, Fraction(1), Fraction(1, 2), Fraction(1, 3))
        for i in range(1, N + 1):
            assert build_dunkl(p, i) == _dihedral_dunkl_split(p, i)


SIMPLIFIED = "simplified boundary form agrees"


def test_dihedral_hamiltonians():
    """Both Hamiltonian items pass; the simplified boundary is checked only
    at odd m and rho = 0."""
    even = hamiltonian_check(ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1)))
    odd = hamiltonian_check(ModelParams("dihedral", 2, 3, Fraction(1), Fraction(1), Fraction(0)))
    assert even.passed and odd.passed
    assert [i.relation for i in even.items] == ["H = sum_i d_i^2"]
    assert [i.relation for i in odd.items] == ["H = sum_i d_i^2", SIMPLIFIED]


def _simplified_rows(p):
    """x = zeta_2m^s q_i, c = beta, g = Q_i^s K_i for s < 2m, with g a
    product of generators."""
    spec = p.group_spec
    rows = []
    for i in range(1, p.size + 1):
        Q, K = generator(spec, "Q", i=i), generator(spec, "K", i=i)
        g = K
        for s in range(2 * p.order):
            phase = CycloScalar.root_of_unity(2 * p.order, s)
            rows.append((LaurentPoly.variable(i, p.size, 2 * p.order) * phase, p.beta, g))
            g = Q * g
    return rows


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 3, 5])
def test_simplified_boundary_is_the_table_boundary(N, m):
    """At odd m and rho = 0 the 2m-phase boundary rows are, as a multiset
    over Q(zeta_2m), the single-site rows of the image table, also at
    mu = 0; at rho != 0 the two boundaries differ."""
    for lam, mu in ((1, 1), (Fraction(1, 2), 0), (0, Fraction(2, 3)), (2, -1)):
        p = ModelParams("dihedral", N, m, Fraction(lam), Fraction(mu))
        table = Counter(
            (x.lift(2 * m), c, g)
            for x, c, g in hamiltonian_images(p)
            if sum(1 for a in next(iter(x.terms)) if a) == 1
        )
        assert table == Counter(_simplified_rows(p))
        assert dunkl.simplified_boundary_mismatch(p) is None
    p = ModelParams("dihedral", N, m, Fraction(1), Fraction(1), Fraction(1, 2))
    assert dunkl.simplified_boundary_mismatch(p) is not None


def test_simplified_boundary_item_names_a_perturbed_row(monkeypatch):
    """Negative control: one boundary row with its coupling moved fails the
    item, and the witness is that row."""
    p = ModelParams("dihedral", 2, 1, Fraction(1), Fraction(1))
    table = hamiltonian_images(p)
    x, c, g = table[-1]
    perturbed = table[:-1] + ((x, c + 1, g),)
    monkeypatch.setattr(dunkl, "hamiltonian_images", lambda params: perturbed)
    (item,) = [i for i in hamiltonian_check(p).items if i.relation == SIMPLIFIED]
    assert not item.passed
    assert item.witness == {
        "image": x.lift(2).to_json(), "coupling": str(c + 1), "group": g.to_json(),
        "table": 1, "simplified": 0,
    }


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


_CYCLIC = ModelParams("cyclic", 3, 2, Fraction(1, 2))
_DIHEDRAL = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))


def _element(p, name, **kw):
    return MixedOperator.from_group(generator(p.group_spec, name, **kw))


def _K1(p):
    return _element(p, "K", i=1)


def _leibniz_charge_commutator(A, p, l):
    """[A, I^(l)] = sum_j sum_{s<l} d_j^s [A, d_j] d_j^(l-1-s)."""
    total = MixedOperator.zero(p.size, p.order)
    for j in range(1, p.size + 1):
        d = build_dunkl(p, j)
        total = total + dunkl.power_commutator(d, op_commutator(A, d), l)
    return total


_OPERANDS = {
    "I1": lambda p: build_charge(p, 1),
    "I2": lambda p: build_charge(p, 2),
    "K1": _K1,
    "I1+K1": lambda p: build_charge(p, 1) + _K1(p),
}


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize(
    "p,operand",
    [(_CYCLIC, "I1"), (_CYCLIC, "I2"), (_DIHEDRAL, "I1"), (_DIHEDRAL, "K1"),
     (_DIHEDRAL, "I1+K1")],
    ids=lambda v: v if isinstance(v, str) else v.family,
)
def test_charge_commutator_equals_direct_products(p, operand, l):
    """The Leibniz sum over sites is the direct commutator [A, I^(l)] in
    normal form, including where it does not vanish."""
    A = _OPERANDS[operand](p)
    got = _leibniz_charge_commutator(A, p, l)
    want = charge_commutator_by_products(A, p, l)
    assert got == want
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("operand", ["K1", "I1+K1"])
def test_charge_commutator_does_not_vanish_off_the_charges(operand):
    A = _OPERANDS[operand](_DIHEDRAL)
    assert len(_leibniz_charge_commutator(A, _DIHEDRAL, 3).terms) == 46


# (model, operators that do not commute, largest charge index)
_NONCOMMUTING = {
    "d_i + e_1 cyclic(2,2)": (
        ModelParams("cyclic", 2, 2, Fraction(1, 2)),
        lambda p, i: build_dunkl(p, i) + _element(p, "e", i=1),
        3,
    ),
    "d_i + K_i dihedral(2,2)": (
        ModelParams("dihedral", 2, 2, Fraction(1)),
        lambda p, i: build_dunkl(p, i) + _element(p, "K", i=i),
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(_NONCOMMUTING))
def test_charge_expansions_equal_direct_products_off_commuting_operators(case, monkeypatch):
    """[I^(k), d_j] and [I^(k), I^(l)] from the [d_i, d_j] equal the direct
    products in normal form for operators that do not commute, where the
    Leibniz sums do not vanish term by term."""
    p, build, kmax = _NONCOMMUTING[case]
    N = p.size
    ds = {i: build(p, i) for i in range(1, N + 1)}
    monkeypatch.setattr(dunkl, "build_dunkl", lambda params, i: ds[i])
    monkeypatch.setattr(
        dunkl, "dunkl_commutator", lambda params, i, j: op_commutator(ds[i], ds[j])
    )
    assert not op_commutator(ds[1], ds[2]).is_zero()
    ks = range(1, kmax + 1)
    sums = {k: power_sum_by_products(list(ds.values()), k) for k in ks}
    for k in ks:
        for j in range(1, N + 1):
            got = charge_dunkl_commutator(p, k, j)
            want = op_commutator(sums[k], ds[j])
            assert not want.is_zero()
            assert got == want, (k, j)
            assert got.to_json() == want.to_json(), (k, j)
        for l in ks:
            got = charges_commutator(p, k, l)
            want = op_commutator(sums[k], sums[l])
            assert got == want, (k, l)
            assert got.to_json() == want.to_json(), (k, l)


def test_charge_items_make_no_product_when_the_dunkl_operators_commute(monkeypatch):
    """At a default-grid point the [I^(k), I^(l)] items read the Hecke
    suite's [d_i, d_j], all zero, and compose no operators."""
    p = ModelParams("dihedral", 2, 3, Fraction(1, 2), Fraction(1), Fraction(1, 2))
    assert check_hecke_relations(p).passed
    calls, inside = [], []

    def counting(A, B):
        if inside:
            calls.append((A, B))
        return op_compose(A, B)

    def items(*args):
        inside.append(args)
        try:
            return charges_commutator(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(opalg, "op_compose", counting)
    monkeypatch.setattr(dunkl, "op_compose", counting)
    monkeypatch.setattr(dunkl, "charges_commutator", items)
    suite = charge_commutation_check(p, kmax=3)
    assert suite.passed
    assert sum(i.relation == "[I^(k), I^(l)] = 0" for i in suite.items) == 3
    assert calls == []


def test_dunkl_commutators_are_computed_once_per_pair():
    """One verify case fills one ``dunkl_commutator`` entry per pair i < j,
    shared by the Hecke and the charge items."""
    p = ModelParams("cyclic", 3, 2, Fraction(1, 2))
    dunkl_commutator.cache_clear()
    assert _verify_case(p, None, 3, None).passed
    info = dunkl_commutator.cache_info()
    assert info.currsize == info.misses == 3
    assert info.hits > 0
    with pytest.raises(ValueError):
        dunkl_commutator(p, 2, 1)


@pytest.mark.parametrize(
    "p", [_DIHEDRAL, ModelParams("cyclic", 3, 2, Fraction(1, 2))], ids=lambda p: p.family
)
def test_charge_rotation_commutator_equals_the_direct_commutator(p):
    """[I^(k), Q_i] from the [d_j, Q_i] is op_commutator(I^(k), Q_i)."""
    for k in (1, 2, 3):
        for i in range(1, p.size + 1):
            want = op_commutator(build_charge(p, k), _element(p, "Q", i=i))
            got = charge_rotation_commutator(p, k, i)
            assert got == want and got.to_json() == want.to_json(), (k, i)


_NONCOMMUTING_ROTATIONS = {
    "d_i + e_1 cyclic(2,2)": _NONCOMMUTING["d_i + e_1 cyclic(2,2)"],
    "d_i + e_1 dihedral(2,3)": (
        ModelParams("dihedral", 2, 3, Fraction(1), Fraction(1), Fraction(1, 2)),
        lambda p, i: build_dunkl(p, i) + _element(p, "e", i=1),
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(_NONCOMMUTING_ROTATIONS))
def test_charge_rotation_commutator_off_commuting_operators(case, monkeypatch):
    """The Leibniz sum over [d_j, Q_i] is the direct commutator also where
    the [d_j, Q_i] do not vanish."""
    p, build, kmax = _NONCOMMUTING_ROTATIONS[case]
    N = p.size
    ds = {i: build(p, i) for i in range(1, N + 1)}
    monkeypatch.setattr(dunkl, "build_dunkl", lambda params, i: ds[i])
    monkeypatch.setattr(
        dunkl, "dunkl_rotation_commutator", dunkl.dunkl_rotation_commutator.__wrapped__
    )
    for k in range(1, kmax + 1):
        charge = power_sum_by_products(list(ds.values()), k)
        for i in range(1, N + 1):
            want = op_commutator(charge, _element(p, "Q", i=i))
            got = charge_rotation_commutator(p, k, i)
            assert not want.is_zero()
            assert got == want and got.to_json() == want.to_json(), (k, i)


def test_charge_rotation_items_make_no_product_when_rotations_commute(monkeypatch):
    """With every [d_j, Q_i] read as zero from the Hecke suite's cache, the
    "[I^(k), Q_i] = 0" items compose no operators."""
    p = ModelParams("dihedral", 2, 3, Fraction(1, 2), Fraction(1), Fraction(1, 2))
    assert check_hecke_relations(p).passed
    calls = []

    def counting(A, B):
        calls.append((A, B))
        return op_compose(A, B)

    monkeypatch.setattr(opalg, "op_compose", counting)
    monkeypatch.setattr(dunkl, "op_compose", counting)
    for k in (1, 2, 3):
        for i in range(1, p.size + 1):
            assert charge_rotation_commutator(p, k, i).is_zero()
    assert calls == []


def test_dunkl_rotation_commutators_are_computed_once_per_pair():
    """One verify case fills one ``dunkl_rotation_commutator`` entry per
    (j, i), shared by the Hecke and the charge items."""
    p = ModelParams("cyclic", 3, 2, Fraction(1, 2))
    dunkl_rotation_commutator.cache_clear()
    assert _verify_case(p, None, 3, None).passed
    info = dunkl_rotation_commutator.cache_info()
    assert info.currsize == info.misses == 9
    assert info.hits > 0


_FACTORIZATION_POINTS = [
    ModelParams("dihedral", 2, 3, Fraction(1), Fraction(1), Fraction(0)),
    ModelParams("dihedral", 2, 3, Fraction(1, 2), Fraction(1), Fraction(1, 2)),
    ModelParams("dihedral", 2, 3, Fraction(1, 2), Fraction(1), Fraction(1)),
    ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(0)),
    ModelParams("dihedral", 2, 2, Fraction(1, 2), Fraction(1), Fraction(1, 2)),
]


@pytest.mark.parametrize("p", _FACTORIZATION_POINTS, ids=lambda p: str(p.to_json()))
def test_hamiltonian_has_the_factorization_of_the_second_charge(p):
    """Every coefficient of H has the denominator of the same key of
    sum_i d_i^2, so H - J2 adds over equal denominators; H equals the
    route that writes every kernel over its linear binomial."""
    h = build_hamiltonian(p)
    j2 = build_charge(p, 2)
    for key, c in h.terms.items():
        assert c.den == j2.terms[key].den, key
    assert h == hamiltonian_by_linear_kernels(p)


def test_decomposition_into_barred_part():
    from wreathdunkl.static import build_barred

    p = ModelParams("cyclic", 2, 2, Fraction(1))
    for i in (1, 2):
        d = build_dunkl(p, i)
        barred = build_barred(p, i)
        euler = MixedOperator.euler(2, i, 2)
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


def _grid_points():
    for family, grid in DEFAULT_GRID.items():
        for N, m in grid["cases"]:
            for lam, mu, rho in grid["couplings"]:
                yield ModelParams(family, N, m, Fraction(lam), Fraction(mu), Fraction(rho))


def test_charges_and_hamiltonians_are_reduced():
    """Every coefficient of the charges (k <= 3) and of the Hamiltonian is in
    reduced form at the 15 default-grid points: the invariant under which
    ``RationalCoefficient.act`` and ``__add__`` skip trial divisions."""
    points = list(_grid_points())
    assert len(points) == 15
    for p in points:
        ops = [build_charge(p, k) for k in (1, 2, 3)] + [build_hamiltonian(p)]
        for op in ops:
            for key, c in op.terms.items():
                assert is_reduced(c), (p, key)


def test_charges_are_built_once_and_never_mutated():
    p = ModelParams("cyclic", 2, 2, Fraction(1, 2))
    j2 = build_charge(p, 2)
    assert build_charge(p, 2) is j2
    assert build_dunkl(p, 1) is build_dunkl(p, 1)
    before = j2.to_json()
    suite = _verify_case(p, 2, 3, None)
    assert suite.passed
    assert build_charge(p, 2) is j2
    assert j2.to_json() == before


@pytest.mark.parametrize("family", ["cyclic", "dihedral"])
def test_hamiltonian_image_elements_are_involutions(family):
    """Every group element of the image table is a reflection, so it
    squares to the identity; the frozen chains rely on it."""
    for N in range(1, 5):
        for m in range(1, 5):
            p = ModelParams(family, N, m, Fraction(1), Fraction(1), Fraction(1, 2))
            for _, _, g in hamiltonian_images(p):
                assert (g * g).is_identity(), (N, m, g)


# -- the coupling-coefficient route against the direct route ----------------------


def _clear_point_caches():
    """Drop the operators kept per point, which a rebound ``build_dunkl``
    would otherwise not reach."""
    for cached in (build_charge, dunkl_commutator, dunkl_rotation_commutator):
        cached.cache_clear()


def _suites(p):
    """Every suite with a coefficient route, as report items."""
    _clear_point_caches()
    suites = [check_hecke_relations(p), rotation_average_check(p), hamiltonian_check(p),
              charge_commutation_check(p, kmax=2)]
    return [item.to_json() for suite in suites for item in suite.items]


def _direct_suites(p):
    """``_suites`` with every decomposition refused, so each item runs the
    direct computation at p."""
    with mock.patch.object(dunkl, "_site_decomposes", lambda build, params, i: False):
        try:
            return _suites(p)
        finally:
            _clear_point_caches()


_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([("cyclic", 2, 2), ("cyclic", 2, 3), ("cyclic", 3, 2),
                     ("dihedral", 2, 2), ("dihedral", 2, 3)]),
    _FRACTIONS, _FRACTIONS, _FRACTIONS,
)
def test_coefficient_route_equals_direct_route(case, lam, mu, rho):
    """At random rational couplings every item of the Hecke, rotation-average,
    Hamiltonian and charge suites has the verdict and witness of the direct
    computation at that point."""
    p = ModelParams(*case, lam, mu, rho)
    assert all(dunkl._site_decomposes(build_dunkl, p, i) for i in range(1, p.size + 1))
    got = _suites(p)
    assert got == _direct_suites(p)
    assert all(item["pass"] for item in got)


@pytest.mark.parametrize("order", [0, 1, 2], ids=["constant", "linear", "quadratic"])
def test_a_perturbed_dunkl_operator_keeps_the_direct_witnesses(order, monkeypatch):
    """d_i + lambda^order e1.  Up to order 1 it stays affine in the
    couplings: every d_i decomposes, but the coefficients no longer
    commute.  With a lambda^2 term no decomposition holds at lambda = 1/2.
    Either way every item has the verdict and witness of the direct
    computation, the commutator of the perturbed d_1, d_2 and H minus
    their J2 among them."""
    p = ModelParams("dihedral", 2, 3, Fraction(1, 2), Fraction(1), Fraction(1, 2))
    e1 = _element(p, "e", i=1)
    real = build_dunkl
    monkeypatch.setattr(dunkl, "build_dunkl",
                        lambda params, i: real(params, i) + e1.scale(params.lam**order))
    patched = dunkl.build_dunkl
    assert all(dunkl._site_decomposes(patched, p, i) for i in (1, 2)) == (order < 2)
    try:
        items = _suites(p)
        assert items == _direct_suites(p)
    finally:
        _clear_point_caches()
    witness = {item["relation"]: item["witness"] for item in items if not item["pass"]}
    d1, d2 = patched(p, 1), patched(p, 2)
    assert witness["[d_i, d_j] = 0"] == first_term_witness(op_commutator(d1, d2))
    j2 = op_compose(d1, d1) + op_compose(d2, d2)
    assert witness["H = sum_i d_i^2"] == first_term_witness(build_hamiltonian(p) - j2)


def test_image_rows_off_the_unit_tables_take_the_direct_route(monkeypatch):
    """Rows whose coupling gains lambda (lambda - 1) agree with the unit
    tables at lambda = 0 and 1 but not at 1/2: the Hamiltonian item builds
    H from them at that point and fails, as the direct computation does."""
    p = ModelParams("dihedral", 2, 3, Fraction(1, 2), Fraction(1), Fraction(1, 2))
    real = hamiltonian_images
    monkeypatch.setattr(dunkl, "hamiltonian_images", lambda params: tuple(
        (x, c + params.lam * (params.lam - 1), g) for x, c, g in real(params)))
    assert not dunkl._linear_images(p)
    (item,) = [i for i in hamiltonian_check(p).items if i.relation == "H = sum_i d_i^2"]
    want = build_hamiltonian(p) - build_charge(p, 2)
    assert not item.passed and item.witness == first_term_witness(want)


def test_coupling_coefficients_group_by_monomial():
    """(1 + 2 c1 + 3 c2)(4 + 5 c1 + 6 c2) term by term: every monomial of
    the couplings keeps its own coefficient."""
    got = dunkl._coefficients(lambda a, b: a * b, (1, 2, 3), (4, 5, 6))
    assert got == {(): 4, (1,): 13, (2,): 18, (1, 1): 10, (1, 2): 27, (2, 2): 18}
