"""Freezing layer: barred operators, lattice conditions, frozen chains."""

import cmath
from fractions import Fraction

import pytest
from helpers import (
    eval_exact,
    extracted_chain,
    extracted_static,
    static_from_dunkl,
    freezing_identities_by_products,
    lattice_residuals,
    lattice_table_check,
    scalar_potential,
)

from wreathdunkl import static
from wreathdunkl.cli import DEFAULT_GRID, main
from wreathdunkl.cyclotomic import CycloScalar
from wreathdunkl.dunkl import ModelParams, build_charge, exchange_element
from wreathdunkl.groups import WreathElement
from wreathdunkl.opalg import MixedOperator, op_commutator
from wreathdunkl.polyalg import LaurentPoly, RationalCoefficient
from wreathdunkl.static import (
    LATTICE_LABELS,
    _unit_freezing,
    build_barred,
    build_frozen_hamiltonian,
    build_lattice,
    build_static_hamiltonian,
    equidistant_lattice,
    freezing_identity_check,
    rational_sqrt,
    scan_equidistant,
    potential_euler,
    static_display_check,
)


def test_barred_operators_commute():
    p = ModelParams("cyclic", 2, 3, Fraction(1))
    b1, b2 = build_barred(p, 1), build_barred(p, 2)
    assert op_commutator(b1, b2).is_zero()


@pytest.mark.parametrize("N,m", [(2, 2), (2, 3), (3, 2)])
def test_freezing_identities(N, m):
    p = ModelParams("cyclic", N, m, Fraction(1))
    suite = freezing_identity_check(p)
    assert suite.passed, [i.relation for i in suite.failures()]


def _cyclic_grid_points():
    grid = DEFAULT_GRID["cyclic"]
    return [
        ModelParams("cyclic", N, m, Fraction(lam), Fraction(mu), Fraction(rho))
        for N, m in grid["cases"]
        for lam, mu, rho in grid["couplings"]
    ]


@pytest.mark.parametrize(
    "p", _cyclic_grid_points(), ids=lambda p: f"N{p.size}-m{p.order}-lambda{p.lam}".replace("/", "_")
)
def test_freezing_identities_equal_direct_products(p):
    """The (N, m)-keyed verdicts give the same items, in the same order,
    as recomputing every commutator at the point's coupling."""
    assert freezing_identity_check(p).to_json() == (
        freezing_identities_by_products(p).to_json()
    )


@pytest.mark.parametrize("N, m", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_potential_euler_equals_derivative_of_the_sum(N, m):
    """The term-by-term right side of [static H, barred_i] equals euler_i of
    the summed potential at every site."""
    v = scalar_potential(ModelParams("cyclic", N, m, Fraction(1)))
    for i in range(1, N + 1):
        assert potential_euler(N, m, i) == v.euler(i)


def test_freezing_verdicts_are_computed_once_per_size(tmp_path):
    _unit_freezing.cache_clear()
    assert main(["verify", "--output", str(tmp_path / "grid.json")]) == 0
    info = _unit_freezing.cache_info()
    assert info.currsize == 3
    for N, m in ((2, 2), (2, 3), (3, 2)):
        _unit_freezing(N, m)
    assert _unit_freezing.cache_info().misses == info.misses


@pytest.mark.parametrize("perturbed", [False, True], ids=["commuting", "perturbed"])
def test_barred_commutators_are_read_from_the_dunkl_coefficients(perturbed, monkeypatch):
    """barred_i is d_i(1) - euler_i, and [barred_i, barred_j] is read from
    the lambda^2 coefficient of [d_i, d_j], with no product of two barred
    operators.  With lambda P_12 added to d_1 the coefficient of the pair
    (1, 2) no longer vanishes, and the verdicts are still those of the
    direct products."""
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return op_commutator(a, b)

    extra = MixedOperator.from_group(exchange_element(3, 2, 1, 2, 0))
    real = static.build_dunkl
    if perturbed:
        monkeypatch.setattr(static, "build_dunkl", lambda p, i: real(p, i) + extra.scale(p.lam)
                            if i == 1 else real(p, i))
    monkeypatch.setattr(static, "op_commutator", spy)
    _unit_freezing.cache_clear()
    try:
        barred, commuting, _ = _unit_freezing(3, 2)
    finally:
        _unit_freezing.cache_clear()
    unit = ModelParams("cyclic", 3, 2, Fraction(1))
    direct = [static.build_dunkl(unit, i) - MixedOperator.euler(3, i, 2) for i in (1, 2, 3)]
    assert list(barred) == direct
    assert commuting == tuple((i + 1, j + 1, op_commutator(direct[i], direct[j]).is_zero())
                              for i in range(3) for j in range(i + 1, 3))
    assert [ok for *_, ok in commuting] == [not perturbed, True, True]
    assert not [(a, b) for a, b in calls if any(a is x for x in barred)
                and any(b is y for y in barred)]


def test_static_hamiltonian_is_the_two_body_sum():
    N, m = 2, 3
    p = ModelParams("cyclic", N, m, Fraction(1))
    hbar = build_static_hamiltonian(p)
    direct = MixedOperator.zero(N, m)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            qi = LaurentPoly.variable(i, N, m)
            qj = LaurentPoly.variable(j, N, m)
            for s in range(m):
                tau = CycloScalar.root_of_unity(m, s)
                v = RationalCoefficient.ratio(tau * qi * qj, qi - tau * qj, 2)
                direct = direct + MixedOperator.term(v, exchange_element(N, m, i, j, s))
    assert hbar == direct


@pytest.mark.parametrize(
    "family,N,m,lam,mu,rho",
    [
        (family, N, m, *couplings)
        for family, grid in DEFAULT_GRID.items()
        for N, m in grid["cases"]
        for couplings in grid["couplings"]
    ]
    + [("dihedral", 3, 2, "1/2", "1", "1/2"), ("dihedral", 2, 5, "1/2", "1", "1/2")],
)
def test_static_hamiltonian_equals_extraction(family, N, m, lam, mu, rho):
    """The static Hamiltonian read off the image table equals the symbolic
    extraction from the Hamiltonian at coupling scale +1 and -1, exactly and
    in its exported layout; that extraction equals the chains' reference,
    minus the coupling-linear part of sum_i d_i^2."""
    p = ModelParams(family, N, m, Fraction(lam), Fraction(mu), Fraction(rho))
    hbar, reference = build_static_hamiltonian(p), extracted_static(p)
    assert hbar == reference
    assert hbar.to_json() == reference.to_json()
    assert static_from_dunkl(p) == reference


def test_static_display_orientation():
    for family, N, m, mu, rho in [
        ("cyclic", 2, 3, 0, 0),
        ("dihedral", 2, 2, 1, Fraction(1, 2)),
        ("dihedral", 2, 3, 2, 1),
    ]:
        p = ModelParams(family, N, m, Fraction(1), Fraction(mu), Fraction(rho))
        suite = static_display_check(p)
        assert suite.passed, (family, m)


@pytest.mark.parametrize(
    "N,m",
    [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4), (3, 3), (5, 2), (2, 5), (6, 2), (4, 3), (3, 4), (2, 6), (12, 1)],
)
def test_cyclic_residual_exactly_zero(N, m):
    if m * N > 12:
        pytest.skip("beyond the exact grid")
    lat = build_lattice("cyclic", N, m)
    assert all(r.is_zero() for r in lat.residuals())


def test_cyclic_residual_perturbed():
    pos = [cmath.exp(2j * cmath.pi * k / 6) for k in range(1, 3)]
    pos[0] *= 1.001
    res = lattice_residuals("cyclic", pos, 3)
    assert max(abs(r) for r in res) > 1e-4


def test_single_site_residual_is_empty_sum():
    lat = build_lattice("cyclic", 1, 4)
    assert [r.is_zero() for r in lat.residuals()] == [True]


def test_residual_raises_on_coincidence():
    z = CycloScalar.root_of_unity(6)
    with pytest.raises(ZeroDivisionError):
        lattice_residuals("cyclic", [z, z], 1)
    with pytest.raises(ZeroDivisionError):
        # a site sitting at +1 collides with its boundary image
        lattice_residuals(
            "dihedral-even", [CycloScalar.one(1), z], 2, {"mu2": Fraction(1)}
        )


def test_residuals_lift_mixed_fields():
    """Positions in Q(zeta_8) against sixth roots of unity meet in Q(zeta_24)."""
    z8 = CycloScalar.root_of_unity(8)
    res = lattice_residuals("dihedral-even", [z8, z8**2], 6, {"mu2": Fraction(4)})
    assert [r.is_zero() for r in res] == [True, True]
    assert all(r.order == 24 for r in res)
    res = lattice_residuals("cyclic", [z8, z8**3], 3)
    lifted = lattice_residuals("cyclic", [z8.lift(24), (z8**3).lift(24)], 3)
    assert res == lifted and all(r.order == 24 for r in res)


@pytest.mark.parametrize(
    "family,params,couplings,sites",
    [
        ("cyclic", ModelParams("cyclic", 3, 2, Fraction(1)), {}, (1, 2, 4)),
        (
            "dihedral-odd",
            ModelParams("dihedral", 2, 3, Fraction(1), Fraction(2), Fraction(-1)),
            {"beta2": Fraction(1, 4), "gamma2": Fraction(9, 4)},
            (1, 3),
        ),
        (
            "dihedral-even",
            ModelParams("dihedral", 2, 2, Fraction(1), Fraction(3, 2)),
            {"mu2": Fraction(9, 4)},
            (1, 3),
        ),
    ],
    ids=["cyclic", "dihedral-odd", "dihedral-even"],
)
def test_lattice_residuals_are_the_gradient_of_the_charge_potential(
    family, params, couplings, sites
):
    """Off every equilibrium the residual at site l is q_l^-1 euler_l(W2),
    with W2 the identity coefficient of the second charge sum_i d_i^2.  The
    charge is built from the Dunkl operators, which never read the image
    table the residuals sum over."""
    N = params.size
    charge = build_charge(params, 2)
    w2 = charge.terms[((0,) * N, WreathElement.identity(N, params.order))]
    q = [CycloScalar.root_of_unity(14, k) for k in sites]
    res = lattice_residuals(family, q, params.order, couplings)
    assert not any(r.is_zero() for r in res)
    grad = [eval_exact(w2.euler(l), q) for l in range(1, N + 1)]
    assert res == [g / p.lift(g.order) for g, p in zip(grad, q)]


@pytest.mark.parametrize("m,N", [(3, 2), (3, 3), (5, 2)])
def test_lattice_table_rows_exactly_zero(m, N):
    suite = lattice_table_check(m, [N])
    assert suite.passed, [(i.relation, i.params) for i in suite.failures()]


def test_lattice_table_values():
    lat = build_lattice("dihedral-odd", 2, 3, "L2Nm")
    assert lat.L == 12
    assert lat.couplings == {"beta2": Fraction(1, 4), "gamma2": Fraction(1, 4)}
    # half-shifted positions live at odd powers of the doubled root
    assert lat.positions[0] == CycloScalar.root_of_unity(24, 1)
    lat = build_lattice("dihedral-odd", 2, 3, "L2NmPlusM_integer")
    assert lat.L == 15
    assert lat.positions[0] == CycloScalar.root_of_unity(15, 1)
    assert lat.couplings == {"beta2": Fraction(1, 4), "gamma2": Fraction(9, 4)}


def test_lattice_table_rejects_even_m():
    with pytest.raises(ValueError):
        build_lattice("dihedral-odd", 2, 2, "L2Nm")


def test_table_reduces_at_unit_order():
    suite = lattice_table_check(1, [2, 3])
    assert suite.passed


@pytest.mark.parametrize("N,m", [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (6, 2), (2, 3), (3, 3)])
def test_frozen_cyclic_chain_matches_closed_form(N, m):
    """The chain evaluated from the image table equals the extraction from
    the Dunkl operators, term by term and exactly."""
    lat = build_lattice("cyclic", N, m)
    frozen = build_frozen_hamiltonian(lat)
    assert frozen.warning is None and frozen.lattice.residual_max == "0"
    assert frozen.terms == extracted_chain(lat)


@pytest.mark.parametrize(
    "family,N,m,lattice",
    [
        ("dihedral-odd", N, m, label)
        for N, m in [(1, 1), (2, 1), (3, 1), (4, 1), (1, 3), (2, 3)]
        for label in LATTICE_LABELS
    ]
    + [("dihedral-odd", 2, 5, "L2Nm")]
    + [
        pytest.param("dihedral-even", N, 2, (L, mu2), id=f"dihedral-even-{N}-2-L{L}-mu2_{mu2}")
        for N, L, mu2 in [(2, 8, 4), (2, 10, 1), (3, 11, 1)]
    ],
)
def test_frozen_dihedral_chain_matches_extraction(family, N, m, lattice):
    """The same on every table row, exactly, and on numeric even-m lattices
    (the second and third have nonzero residuals) within 1e-12."""
    if family == "dihedral-odd":
        lat = build_lattice(family, N, m, lattice)
    else:
        L, mu2 = lattice
        lat = equidistant_lattice(family, N, m, L, couplings={"mu2": Fraction(mu2)})
    terms, reference = build_frozen_hamiltonian(lat).terms, extracted_chain(lat)
    if lat.exact:
        assert terms == reference
    else:
        assert [g for _, g in terms] == [g for _, g in reference]
        assert max(abs(a - b) for (a, _), (b, _) in zip(terms, reference)) < 1e-12


def test_rational_sqrt_is_exact_beyond_float_precision():
    r = 10**16 + 3
    assert rational_sqrt(Fraction(r * r, (r - 2) ** 2)) == Fraction(r, r - 2)
    assert rational_sqrt(10**400) == 10**200
    for x in (r * r + 1, Fraction(1, r * r - 1), -4):
        with pytest.raises(ValueError):
            rational_sqrt(x)


def test_frozen_chain_couplings_are_inverse_square_sines():
    # u/(u-1)^2 = -(1/4) / sin^2(pi a / L) at u = exp(2 pi i a / L)
    import math

    L = 6
    for a in range(1, L):
        u = CycloScalar.root_of_unity(L, a)
        coeff = (u / ((u - 1) ** 2)).to_complex()
        target = -0.25 / math.sin(math.pi * a / L) ** 2
        assert abs(coeff - target) < 1e-12


def test_frozen_build_with_nonzero_residual_warns():
    lat = equidistant_lattice("dihedral-even", 2, 2, 10, couplings={"mu2": Fraction(1)})
    frozen = build_frozen_hamiltonian(lat)
    assert lat.residual_max > 1e-12
    assert frozen.warning is not None


def test_scan_rediscovers_table_rows():
    records = scan_equidistant("dihedral-odd", 2, 3, range(3, 19))
    hits = [r for r in records if r["residual"] < 1e-12]
    found = {(r["L"], r["offset"], r["couplings"]["beta2"], r["couplings"]["gamma2"]) for r in hits}
    assert (12, "1/2", "1/4", "1/4") in found
    assert (15, "1/2", "9/4", "1/4") in found
    assert (15, "0", "1/4", "9/4") in found
    assert (18, "0", "9/4", "9/4") in found


def test_scan_cyclic_rediscovers_root_lattice():
    """L = 6 and L = 3 give the same six image points (the sixth roots of
    unity), both exact; their round-off residuals tie, so they lead in L order."""
    records = scan_equidistant("cyclic", 3, 2, range(3, 13), offsets=(Fraction(0),))
    exact = [r["L"] for r in records if r["residual"] < 1e-12]
    assert exact == [r["L"] for r in records[:2]] == [3, 6]
    for L in exact:
        positions = [CycloScalar.root_of_unity(L, k).lift(6) for k in range(1, 4)]
        assert all(r.is_zero() for r in lattice_residuals("cyclic", positions, 2))


def test_even_m_scan_finds_the_doubled_coupling_solution():
    """The even-m condition does admit an equidistant solution at two sites.

    At mu^2 = 4 the integer lattice with L = 2 N m satisfies the condition
    exactly; it exists for N = 2 (any even m tested) and disappears for
    N >= 3.
    """
    records = scan_equidistant("dihedral-even", 2, 2, range(2, 21))
    best = records[0]
    assert best["residual"] < 1e-12
    assert best["L"] == 8 and best["couplings"] == {"mu2": "4"}
    # exact confirmation
    q = [CycloScalar.root_of_unity(8, k) for k in range(1, 3)]
    res = lattice_residuals("dihedral-even", q, 2, {"mu2": Fraction(4)})
    assert all(r.is_zero() for r in res)
    # and the three-site analogue does not vanish
    q3 = [CycloScalar.root_of_unity(12, k) for k in range(1, 4)]
    res3 = lattice_residuals("dihedral-even", q3, 2, {"mu2": Fraction(4)})
    assert not all(r.is_zero() for r in res3)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_even_m_exact_row(m):
    """The two-site equilibrium as a table row: the first two (4m)-th roots
    of unity at mu^2 = 4, residuals exactly zero; no row at N = 3 or odd m."""
    lat = build_lattice("dihedral-even", 2, m)
    assert (lat.L, lat.couplings, lat.exact) == (4 * m, {"mu2": Fraction(4)}, True)
    assert lat.positions == [CycloScalar.root_of_unity(4 * m, k) for k in (1, 2)]
    assert lat.residual_max == "0"
    for N, order in ((3, m), (2, m + 1)):
        with pytest.raises(ValueError):
            build_lattice("dihedral-even", N, order)


def test_even_m_scan_excluding_doubled_coupling():
    grid = [{"mu2": v} for v in (Fraction(1, 4), Fraction(1), Fraction(9, 4))]
    records = scan_equidistant("dihedral-even", 2, 2, range(2, 41), coupling_grid=grid)
    assert records[0]["residual"] > 1e-6


def test_lattice_json_schema():
    lat = build_lattice("dihedral-odd", 2, 3, "L2Nm")
    data = lat.to_json()
    assert data["residual_max"] == "0"
    assert len(data["positions"]) == 2
    assert set(data["couplings"]) == {"beta2", "gamma2"}
