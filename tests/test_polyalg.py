"""Laurent polynomials and factored rational functions over the root fields."""

import cmath
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eval_complex, eval_exact, is_reduced, lift_coefficient, random_torus_point
from wreathdunkl import polyalg
from wreathdunkl.cyclotomic import CycloScalar, CyclotomicField, FieldMismatchError
from wreathdunkl.dunkl import ModelParams, build_dunkl
from wreathdunkl.groups import GroupSpec, WreathElement, enumerate_subgroup, generator
from wreathdunkl.polyalg import (
    LaurentPoly,
    RationalCoefficient,
    _cancel,
    _coprime,
    _unit_normalized,
    result_table,
)


def q(i, nvars=2, order=3, power=1):
    return LaurentPoly.variable(i, nvars, order, power)


def test_poly_arithmetic_basics():
    q1, q2 = q(1), q(2)
    assert (q1 - q2) * (q1 + q2) == q1 * q1 - q2 * q2
    assert q1 * q(1, power=-1) == LaurentPoly.constant(2, 1, 3)
    z3 = CycloScalar.root_of_unity(3)
    total = LaurentPoly.zero(2, 3)
    for s in range(3):
        total = total + LaurentPoly.constant(2, z3**s, 3)
    assert total.is_zero()


def test_group_action_on_polynomials():
    z3 = CycloScalar.root_of_unity(3)
    spec = GroupSpec("G(m,1,N)", 2, 3)
    wspec = GroupSpec("W(m,N)", 2, 3)
    Q1 = generator(spec, "Q", i=1)
    p = q(1) * q(1)
    assert p.act(Q1) == p * (z3**2)
    K1 = generator(wspec, "K", i=1)
    p = LaurentPoly.monomial(2, (3, 1), 1, 3)
    assert p.act(K1) == LaurentPoly.monomial(2, (-3, 1), 1, 3)
    P12 = generator(spec, "P", i=1, j=2)
    assert (q(1) - q(2)).act(P12) == q(2) - q(1)


def test_euler_derivative():
    assert (q(1) * q(1) * q(2)).euler(1) == q(1) * q(1) * q(2) * 2
    inv = q(1, power=-1)
    assert inv.euler(1) == -inv
    assert q(1).euler(2).is_zero()


def test_quotient_rule_exact_and_numeric():
    q1, q2 = q(1), q(2)
    r = RationalCoefficient.ratio(q1, q1 - q2)
    rr = r.euler(1)
    assert rr == RationalCoefficient.ratio(-q1 * q2, q1 - q2, 2)
    # finite-difference oracle in the angle variable at a few random points
    rng = random.Random(0)
    h = 1e-7
    for _ in range(5):
        pt = random_torus_point(rng, 2)
        while abs(pt[0] - pt[1]) < 1e-2:
            pt = random_torus_point(rng, 2)
        up = eval_complex(r, (pt[0] * cmath.exp(1j * h), pt[1]))
        dn = eval_complex(r, (pt[0] * cmath.exp(-1j * h), pt[1]))
        fd = (up - dn) / (2j * h)
        assert abs(eval_complex(rr, pt) - fd) < 1e-5


def test_partial_fraction_identities():
    q1, q2 = q(1), q(2)
    one = RationalCoefficient.one(2, 3)
    a = RationalCoefficient.ratio(q1, q1 - q2)
    b = RationalCoefficient.ratio(q2, q2 - q1)
    assert a + b == one
    # geometric sum over the rotation phases collapses to the m-th powers
    z3 = CycloScalar.root_of_unity(3)
    acc = RationalCoefficient.zero(2, 3)
    for s in range(3):
        acc = acc + RationalCoefficient.ratio(q1, q1 - q2 * (z3**s))
    target = RationalCoefficient.ratio(q1**3 * 3, q1**3 - q2**3)
    assert acc == target
    # sign matters
    c = RationalCoefficient.ratio(LaurentPoly.constant(2, 1, 3), q1 - q2)
    d = RationalCoefficient.ratio(LaurentPoly.constant(2, 1, 3), q2 - q1)
    assert c != d
    assert c == -d


def test_action_homomorphism_on_rationals():
    rng = random.Random(7)
    els = enumerate_subgroup(GroupSpec("W(m,N)", 2, 3))
    r = RationalCoefficient.ratio(q(1), q(1) - q(2))
    for _ in range(500):
        g, h = rng.choice(els), rng.choice(els)
        assert r.act(g * h) == r.act(h).act(g)


def test_euler_anticommutes_with_flip():
    rng = random.Random(3)
    K1 = generator(GroupSpec("W(m,N)", 2, 3), "K", i=1)
    z3 = CycloScalar.root_of_unity(3)
    for _ in range(30):
        e = (rng.randint(-3, 3), rng.randint(-3, 3))
        p = LaurentPoly.monomial(2, e, z3, 3)
        assert p.act(K1).euler(1) == -(p.euler(1).act(K1))


def test_numeric_oracle_agreement():
    """Exact arithmetic and complex evaluation commute on random data."""
    rng = random.Random(11)
    q1, q2 = q(1), q(2)
    z3 = CycloScalar.root_of_unity(3)
    pool = [
        RationalCoefficient.ratio(q1, q1 - q2),
        RationalCoefficient.ratio(q2 * z3, q1 - q2 * z3, 2),
        RationalCoefficient.from_poly(q1 * q2 + q2 * 2),
        RationalCoefficient.ratio(q1 * q2, q1 * q2 - LaurentPoly.constant(2, 1, 3)),
    ]
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        combined = a * b + a - b
        pt = random_torus_point(rng, 2)
        while min((abs(eval_complex(f, pt)) for f, _ in combined.den), default=1) < 1e-6:
            pt = random_torus_point(rng, 2)
        direct = (
            eval_complex(a, pt) * eval_complex(b, pt)
            + eval_complex(a, pt)
            - eval_complex(b, pt)
        )
        assert abs(eval_complex(combined, pt) - direct) <= 1e-9 * max(1, abs(direct))


def test_exact_evaluation_at_roots_of_unity():
    r = RationalCoefficient.ratio(q(1), q(1) - q(2))
    z6 = CycloScalar.root_of_unity(6)
    v = eval_exact(r, [z6, z6**5])
    num = z6.to_complex()
    den = num - (z6**5).to_complex()
    assert abs(v.to_complex() - num / den) < 1e-12
    with pytest.raises(ZeroDivisionError):
        eval_exact(r, [z6, z6])


def test_division_and_cancellation():
    q1, q2 = q(1), q(2)
    p = (q1 - q2) * (q1 + q2) * q1
    assert p.divide_exact(q1 - q2) == (q1 + q2) * q1
    assert p.divide_exact(q1 * q1 - q2) is None
    r = RationalCoefficient.ratio(p, q1 - q2)
    assert not r.den  # the factor cancels against the numerator
    assert r.num == (q1 + q2) * q1


def test_only_binomials_divide():
    """Every denominator factor is a binomial: a trinomial divisor, a
    trinomial denominator factor and a negative power are refused."""
    q1, q2 = q(1), q(2)
    square = (q1 - q2) ** 2
    with pytest.raises(ValueError):
        (square * q1).divide_exact(square)
    with pytest.raises(ValueError):
        RationalCoefficient.ratio(q1, square)
    r = RationalCoefficient.ratio(q1, q1 - q2, 2)
    assert [(f, k) for f, k in r.den] == [(q1 - q2, 2)]
    with pytest.raises(ValueError):
        r ** -1


def test_one_term_numerators_make_no_trial_division(monkeypatch):
    """No binomial divides a unit c q**e, so a one-term numerator keeps its
    factors untested; a longer one is trial-divided."""
    divisions = []
    divide = LaurentPoly.divide_exact
    monkeypatch.setattr(
        LaurentPoly, "divide_exact", lambda p, f: divisions.append(f) or divide(p, f)
    )
    q1, q2 = q(1), q(2)
    r = RationalCoefficient.ratio(q1 * 3, (q1 - q2) * q2, 2)
    assert divisions == []
    assert [(f, k) for f, k in r.den] == [(q1 - q2, 2)]
    assert RationalCoefficient.ratio(q1 * q1 - q2 * q2, q1 - q2).den == ()
    assert divisions


def test_json_round_trip():
    p = q(1) * q(2, power=-2) * CycloScalar.root_of_unity(3) + q(2) * Fraction(3, 7)
    data = p.to_json()
    assert sorted((d["exp"], d["coeff"]) for d in data) == [
        ([0, 1], {"order": 3, "coeffs": ["3/7", "0"]}),
        ([1, -2], {"order": 3, "coeffs": ["0", "1"]}),
    ]
    r = RationalCoefficient.ratio(q(1), q(1) - q(2))
    rd = r.to_json()
    assert set(rd) == {"num", "den"}


def test_hash_ignores_coefficients_not_exponents():
    q1, q2 = q(1), q(2)
    z3 = CycloScalar.root_of_unity(3)
    assert hash(q1 - q2) == hash(q1 - q2 * z3)
    assert (q1 - q2) != (q1 - q2 * z3)
    assert hash(q1 - q2) != hash(q1 * q2 - LaurentPoly.constant(2, 1, 3))


def test_binomial_rule_applies_to_content_free_binomials():
    q1, q2 = q(1), q(2)
    one = LaurentPoly.constant(2, 1, 3)
    for f in (q1 - q2, q1 * q2 - one, one + q1, q2 * 2 - one, q1 * q1 - q2 * q2):
        assert f.binomial_rule() is not None
    for f in (q1 * (q1 - q2), q1 - q2 + one, q1, q(1, power=-1) - one):
        assert f.binomial_rule() is None
    rule = (q1**3 - q2 * q2).binomial_rule()  # q2**2 = q1**3
    assert (rule.v, rule.d, rule.mu) == (1, 2, (3, -2))


# -- property tests: binomial reduction against long division -------------------

NVARS = 3
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def laurent(draw, order, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(-2, 2)) for _ in range(NVARS))
        c = CycloScalar.root_of_unity(order, draw(st.integers(0, order - 1)))
        terms[e] = c * Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    p = LaurentPoly.zero(NVARS, order)
    for e, c in terms.items():
        p = p + LaurentPoly.monomial(NVARS, e, c, order)
    return p


@st.composite
def binomial(draw, order):
    """A denominator shape: q_i - tau q_j, q_i q_j - tau, 1 +- tau q_i, or a
    nonlinear one, q_i**2 - tau or q_i**k - tau q_j**k; tau an order-th root."""
    tau = CycloScalar.root_of_unity(order, draw(st.integers(0, order - 1)))
    i, j = draw(st.permutations(range(1, NVARS + 1)))[:2]
    qi, qj = q(i, NVARS, order), q(j, NVARS, order)
    one = LaurentPoly.constant(NVARS, 1, order)
    shape = draw(st.sampled_from(("exchange", "mirror", "plus", "minus", "boundary", "power")))
    if shape == "exchange":
        return qi - qj * tau
    if shape == "mirror":
        return qi * qj - one * tau
    if shape == "boundary":
        return qi * qi - one * tau
    if shape == "power":
        k = draw(st.integers(2, 3))
        return qi**k - qj**k * tau
    return one + qi * tau if shape == "plus" else one - qi * tau


@st.composite
def field_case(draw):
    order = draw(st.integers(1, 6))
    return order, draw(laurent(order)), draw(binomial(order))


def divides_by_long_division(p, f):
    """Reference quotient p/f by lex-leading-term division on the
    LaurentPoly API, or None when f does not divide p."""
    if p.is_zero():
        return p
    shift = p.min_exps()
    p = p.shifted(tuple(-x for x in shift))
    lead_f = max(f.terms)
    quo = LaurentPoly.zero(NVARS, p.order)
    while not p.is_zero():
        lead = max(p.terms)
        diff = tuple(a - b for a, b in zip(lead, lead_f))
        if min(diff) < 0:
            return None
        t = LaurentPoly.monomial(NVARS, diff, p.coeff(lead) / f.coeff(lead_f), p.order)
        quo = quo + t
        p = p - t * f
    return quo.shifted(shift)


@PROPERTY
@given(field_case())
def test_product_divides_back_exactly(case):
    _, a, f = case
    assert f.binomial_rule() is not None
    assert (a * f).divide_exact(f) == a


@PROPERTY
@given(field_case(), st.data())
def test_reduction_verdict_matches_long_division(case, data):
    order, a, f = case
    _, _, monic = f.unit_normalize()
    c = data.draw(st.one_of(laurent(order, max_terms=1), binomial(order)))
    p = a * monic + c
    expected = divides_by_long_division(p, monic)
    assert p.divide_exact(monic) == expected
    assert p.divide_exact(f) == divides_by_long_division(p, f)
    assert (p.divide_exact(f) is None) == (expected is None)


@PROPERTY
@given(field_case(), st.integers(1, 4))
def test_hash_consistent_with_cross_order_equality(case, k):
    """A lift is a ring embedding: the lift of a product is the product of
    the lifts, two lifts in a row are one lift, and equal lifts hash
    alike."""
    order, a, f = case
    n = order * k
    assert (a * f).lift(n) == a.lift(n) * f.lift(n)
    for p in (a, f, a * f):
        twice, once = p.lift(n).lift(2 * n), p.lift(2 * n)
        assert twice == once
        assert hash(twice) == hash(once)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4), st.data())
def test_lift_eq_and_hash_agree_across_orders(d, ka, kb, data):
    """A value of Q(zeta_d), as a CycloScalar and as a RationalCoefficient,
    lifted to orders a = d ka and b = d kb, which need not divide one
    another, gives one value of Q(zeta_lcm(a, b)) with one hash; a
    coefficient built at order a, lifted on, equals the lift of the one
    built at d.  Against a second value at order b, ``==`` raises unless
    a = b, and values equal in the lcm field hash alike."""
    a, b = d * ka, d * kb
    top = lcm(a, b)

    def lift(x, order):
        return x.lift(order) if isinstance(x, CycloScalar) else lift_coefficient(x, order)

    # an unreduced coefficient, as the engine makes at mu = +-rho
    for order in (d, a):
        q = LaurentPoly.variable(1, NVARS, order)
        unreduced = RationalCoefficient.ratio(q + q * q, q * q - 1)
        reduced = RationalCoefficient.ratio(q, q - 1)
        assert unreduced == reduced and len({unreduced, reduced}) == 1
    phi = CyclotomicField.get(d).phi
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    s = CycloScalar(d, coeffs, data.draw(st.integers(1, 4)))
    num, den = data.draw(laurent(d)), data.draw(binomial(d))
    r = RationalCoefficient.ratio(num, den)
    built = RationalCoefficient.ratio(num.lift(a), den.lift(a))
    assert lift(built, top) == lift(lift(r, b), top)
    shift = CycloScalar.root_of_unity(b, data.draw(st.integers(0, b - 1)))
    shift = shift * Fraction(data.draw(st.sampled_from([0, 1, -1, 2])), 2)
    others = (s.lift(b) + shift, lift(r, b) + RationalCoefficient.from_scalar(NVARS, shift, b))
    for x, y in zip((s, r), others):
        xa, xb = lift(x, a), lift(x, b)
        assert lift(xa, top) == lift(xb, top) == lift(x, top)
        assert hash(lift(xa, top)) == hash(lift(xb, top)) == hash(lift(x, top))
        if a != b:
            with pytest.raises(FieldMismatchError):
                _ = xa == y
        same = lift(xa, top) == lift(y, top)
        assert same == (lift(y, top) == lift(xa, top)) == (xb == y)
        if same:
            assert hash(lift(xa, top)) == hash(lift(y, top))


@PROPERTY
@given(field_case(), st.data())
def test_unit_product_equals_reduced_product(case, data):
    """A unit c * q**e times a reduced coefficient skips cancellation; the
    result must be exactly the one _reduced gives, also across a lift.  A
    denominator factor as the multiplier must still cancel."""
    order, a, f = case
    g = data.draw(binomial(order))
    r = RationalCoefficient(a, ((f, data.draw(st.integers(1, 2))), (g, 1)))
    unit_order = order * data.draw(st.integers(1, 3))
    r = lift_coefficient(r, unit_order)
    factor = st.just(f.lift(unit_order))
    u = RationalCoefficient.from_poly(
        data.draw(st.one_of(laurent(unit_order, max_terms=1), factor))
    )
    for left, right in ((u, r), (r, u)):
        den = dict(left.den)
        for h, k in right.den:
            den[h] = den.get(h, 0) + k
        expected = RationalCoefficient._reduced(left.num * right.num, den)
        got = left * right
        assert got.num.order == expected.num.order
        assert got.num.terms == expected.num.terms
        assert [(h.key(), k) for h, k in got.den] == [(h.key(), k) for h, k in expected.den]


# -- property tests: cancellation without impossible trial divisions ------------


def _structure(num, den):
    return num.order, num.terms, [(f.key(), k) for f, k in den]


def _sum_by_trial_division(a, b):
    """a + b by the route that trial-divides the sum by every factor of the
    common denominator."""
    if a.is_zero():
        return b.num, b.den
    if b.is_zero():
        return a.num, a.den
    return _cancel(*_unreduced_sum(a, b))


def _unreduced_sum(a, b):
    """(n_a L/D_a + n_b L/D_b, L) for the factor-wise lcm L of the
    denominators D_a and D_b."""
    da, db = dict(a.den), dict(b.den)
    lcm = dict(da)
    for f, k in db.items():
        lcm[f] = max(lcm.get(f, 0), k)
    na, nb = a.num, b.num
    for f, k in lcm.items():
        if k > da.get(f, 0):
            na = na * f ** (k - da.get(f, 0))
        if k > db.get(f, 0):
            nb = nb * f ** (k - db.get(f, 0))
    return na + nb, lcm


def linear_factor(order):
    """A prime binomial: a ``binomial`` shape with d = 1."""
    return binomial(order).filter(lambda f: f.binomial_rule().d == 1)


@st.composite
def divisible_pair(draw, order):
    """(f, h): a linear f and a nonlinear h that f divides, such as q_i - tau
    and q_i**k - tau**k, or q_i - tau q_j and q_i**k - tau**k q_j**k."""
    tau = CycloScalar.root_of_unity(order, draw(st.integers(0, order - 1)))
    k = draw(st.integers(2, 3))
    i, j = draw(st.permutations(range(1, NVARS + 1)))[:2]
    qi, qj = q(i, NVARS, order), q(j, NVARS, order)
    one = LaurentPoly.constant(NVARS, 1, order)
    if draw(st.booleans()):
        return qi - one * tau, qi**k - one * tau**k
    return qi - qj * tau, qi**k - qj**k * tau**k


@st.composite
def reduced_over(draw, order, factors, listed=()):
    """A reduced coefficient over a random selection of the given factors,
    and over every ``listed`` one."""
    picked = draw(st.lists(st.sampled_from(factors), max_size=3)) + list(listed)
    den = [(f, draw(st.integers(1, 2))) for f in picked]
    return RationalCoefficient(draw(laurent(order, max_terms=4)), tuple(den))


@st.composite
def addends(draw, nonlinear):
    """(a, b) over a shared pool of factors.  b is either independent of a,
    or (-a) + s summed by full trial division, so that a + b = s needs
    factors of equal multiplicity to cancel.  With ``nonlinear`` the pool
    holds a pair f | h, and a lists f where b lists h."""
    order = draw(st.integers(1, 4))
    pool = draw(st.lists(linear_factor(order), min_size=1, max_size=3))
    if nonlinear:
        f, h = draw(divisible_pair(order))
        return draw(reduced_over(order, pool, [f])), draw(reduced_over(order, pool, [h]))
    a = draw(reduced_over(order, pool))
    if draw(st.booleans()):
        b = draw(reduced_over(order, pool))
    else:
        s = draw(reduced_over(order, pool))
        b = RationalCoefficient(*_sum_by_trial_division(-a, s), _trusted=True)
    return a, b


@PROPERTY
@given(addends(nonlinear=False))
def test_sum_over_linear_factors_equals_trial_division(pair):
    """All factors prime: a factor whose multiplicities differ is kept
    untested, and the result is still the fully cancelled one."""
    a, b = pair
    assert is_reduced(a) and is_reduced(b)
    got = a + b
    assert _structure(got.num, got.den) == _structure(*_sum_by_trial_division(a, b))
    assert is_reduced(got)


@PROPERTY
@given(addends(nonlinear=True))
def test_sum_with_nonlinear_factor_equals_trial_division(pair):
    """A nonlinear factor h next to a linear f | h, of parallel direction
    and with a root in common, keeps the trial division of both: f may
    cancel although its multiplicities differ.  Parallel factors without a
    common root are coprime, and kept untested (see the next tests)."""
    a, b = pair
    got = a + b
    assert _structure(got.num, got.den) == _structure(*_sum_by_trial_division(a, b))
    assert is_reduced(got)


@st.composite
def mixed_addends(draw):
    """(a, b) over a shared pool of binomials of every shape that also holds
    a pair f | h; b is independent of a, or (-a) + s summed by full trial
    division, so that factors of equal multiplicity cancel."""
    order = draw(st.integers(1, 4))
    pool = draw(st.lists(binomial(order), min_size=1, max_size=3))
    pool += list(draw(divisible_pair(order)))
    a = draw(reduced_over(order, pool))
    if draw(st.booleans()):
        return a, draw(reduced_over(order, pool))
    s = draw(reduced_over(order, pool))
    return a, RationalCoefficient(*_sum_by_trial_division(-a, s), _trusted=True)


@PROPERTY
@given(mixed_addends())
def test_factors_kept_untested_never_divide_the_sum(pair):
    """A factor whose multiplicities differ and which is coprime to every
    other factor of the common denominator is kept without a trial
    division; a forced trial division of the unreduced sum by it always
    fails, and the sum is the fully cancelled one."""
    a, b = pair
    got = a + b
    assert _structure(got.num, got.den) == _structure(*_sum_by_trial_division(a, b))
    assert is_reduced(got)
    if a.is_zero() or b.is_zero():
        return
    total, lcm = _unreduced_sum(a, b)
    da, db = dict(a.den), dict(b.den)
    for f in lcm:
        if da.get(f, 0) != db.get(f, 0) and all(h is f or _coprime(f, h) for h in lcm):
            assert total.divide_exact(f) is None


def test_coprime_factors():
    """Distinct d = 1 binomials are coprime, and so are binomials whose
    directions are not parallel; parallel nonlinear pairs are not known
    coprime, and q1 - 1 does divide q1**2 - 1."""
    q1, q2, q3 = q(1, 3), q(2, 3), q(3, 3)
    one = LaurentPoly.constant(3, 1, 3)
    assert _coprime(q1 - q2, q1 - q2 * CycloScalar.root_of_unity(3))
    assert _coprime(q1 * q1 - one, q2 - q3)
    assert _coprime(q1 * q1 - one, q1 * q2 - one)
    assert not _coprime(q1 * q1 - one, q1 - one)
    assert not _coprime(q1**3 - q2**3, q1 - q2)
    # parallel, without a common root: q1**2 = tau and q1 = 1 exclude each other
    tau = CycloScalar.root_of_unity(3)
    assert _coprime(q1 * q1 - one * tau, q1 - one)
    assert not _coprime(q1 * q1 - one * tau, q1 - one * tau**2)
    assert _coprime(q1**3 - q2**3 * tau, q1 - q2)


@pytest.mark.parametrize("m", [3, 5])
def test_parallel_factors_are_coprime_exactly_without_a_common_root(m):
    """The dihedral boundary factors q1 -+ tau^s and q1**2 - tau^(2s), and
    their mirror analogues in q1 q2, at odd m: every root is a 2m-th root of
    unity, which Q(zeta_m) holds, so two of them share a factor exactly when
    a forced trial division finds a common linear one.  ``_coprime`` says
    coprime exactly then, also for the parallel pairs it used to leave
    undecided."""
    one = LaurentPoly.constant(2, 1, m)
    roots = [CycloScalar.root_of_unity(m, s) * sign for s in range(m) for sign in (1, -1)]
    factors, linear = {}, []
    for w in (q(1, 2, m), q(1, 2, m) * q(2, 2, m)):
        linear += [w - one * z for z in roots]
        for f in [w - one * z for z in roots] + [w * w - one * z * z for z in roots]:
            monic = f.unit_normalize()[2]
            factors[monic.key()] = monic
    outcomes = set()
    for f in factors.values():
        for h in factors.values():
            if h is f:
                continue
            shared = any(f.divide_exact(l) is not None and h.divide_exact(l) is not None
                         for l in linear)
            assert _coprime(f, h) == (not shared), (f, h)
            (a, b), (c, d) = f.binomial_rule().mu, h.binomial_rule().mu
            if f.binomial_rule().d == 2 and a * d == b * c:  # parallel, f nonlinear
                outcomes.add(shared)
    assert outcomes == {True, False}


def test_values_equal_to_numbers_hash_like_them():
    """A constant polynomial or coefficient and a multiple of the identity
    equal their number and hash like it; so do the three zeros."""
    from wreathdunkl.opalg import MixedOperator

    w = CycloScalar.root_of_unity(3)
    for value in (1, Fraction(-2, 3), w, w + 2):
        for obj in (LaurentPoly.constant(2, value, 3), RationalCoefficient.from_scalar(2, value, 3),
                    MixedOperator.identity(2, 3) * value):
            assert obj == value and hash(obj) == hash(value), (obj, value)
    for zero in (LaurentPoly.zero(2, 3), RationalCoefficient.zero(2, 3), MixedOperator.zero(2, 3)):
        assert zero == 0 and hash(zero) == hash(0)
    assert len({MixedOperator.identity(2, 3), 1}) == 1
    assert len({RationalCoefficient.from_scalar(2, 1, 3), Fraction(1), 1}) == 1
    # values that are no number keep hashing consistently with ==
    a = RationalCoefficient.ratio(q(1), q(1) - q(2))
    b = RationalCoefficient.ratio(q(1) * 2, (q(1) - q(2)) * 2)
    assert a == b and hash(a) == hash(b)


def test_linear_factor_cancels_against_nonlinear_one():
    """1/(q1 - 1) + q2/(q1**2 - 1) = (q1 + 1 + q2)/(q1**2 - 1)."""
    q1, q2 = q(1), q(2)
    one = LaurentPoly.constant(2, 1, 3)
    got = RationalCoefficient.ratio(one, q1 - one) + RationalCoefficient.ratio(
        q2, q1 * q1 - one
    )
    assert got.num == q1 + one + q2
    assert [(f, k) for f, k in got.den] == [(q1 * q1 - one, 1)]


@st.composite
def wreath_element(draw, m):
    perm = tuple(draw(st.permutations(range(NVARS))))
    rot = tuple(draw(st.integers(0, m - 1)) for _ in range(NVARS))
    flip = tuple(draw(st.integers(0, 1)) for _ in range(NVARS))
    return WreathElement(NVARS, m, perm, rot, flip)


@PROPERTY
@given(st.data())
def test_automorphic_images_equal_trial_division(data):
    """c.act(g) unit-normalizes the moved factors and makes no trial
    division; the result is the one full cancellation gives."""
    order = data.draw(st.integers(1, 4))
    f, h = data.draw(divisible_pair(order))
    pool = data.draw(st.lists(linear_factor(order), min_size=1, max_size=2)) + [h]
    m = data.draw(st.integers(1, 3))
    c = lift_coefficient(data.draw(reduced_over(order, pool)), lcm(order, m))
    g = data.draw(wreath_element(m))
    got = c.act(g)
    num, den = c.num.act(g), [(x.act(g), k) for x, k in c.den]
    assert _structure(got.num, got.den) == _structure(*_cancel(*_unit_normalized(num, den)))
    assert is_reduced(got)


@PROPERTY
@given(st.sampled_from((1, 2, 3, 4, 6)), st.data())
def test_act_in_a_table_equals_act_outside(m, data):
    """Inside a table each factor's normalized image is stored once and
    serves every later act; a first and a repeated act of each coefficient
    give what act outside a table gives, rotations and flips alike."""
    f, h = data.draw(divisible_pair(m))
    pool = data.draw(st.lists(binomial(m), min_size=1, max_size=3)) + [f, h]
    coeffs = [data.draw(reduced_over(m, pool)) for _ in range(3)]
    elements = data.draw(st.lists(wreath_element(m), min_size=1, max_size=3))
    def acts():
        return [c.act(g) for c in coeffs for g in elements]

    plain = [_structure(x.num, x.den) for x in acts()]
    with result_table():
        for _ in range(2):
            got = acts()
            assert [_structure(x.num, x.den) for x in got] == plain
        assert bool(polyalg._LIVE[0].images) == any(c.den for c in coeffs)
    assert all(is_reduced(x) for x in got)


# -- the result table ---------------------------------------------------------


def _dunkl_operands():
    """The coefficients of d_1 and d_2 at a dihedral point, and every group
    element that occurs in those operators."""
    p = ModelParams("dihedral", 2, 3, Fraction(1, 2), Fraction(1), Fraction(1, 2))
    coeffs, elements = [], set()
    for i in (1, 2):
        for (_, g), c in build_dunkl(p, i).terms.items():
            coeffs.append(c)
            elements.add(g)
    return coeffs, sorted(elements, key=WreathElement.sort_key)


def _table_operations(coeffs, elements):
    """Every act, euler, sum and product of the operands, in one order."""
    out = []
    for a in coeffs:
        out += [a.act(g) for g in elements]
        out += [a.euler(v) for v in (1, 2)]
        for b in coeffs:
            out += [a + b, a * b]
    return out


def _exact(c):
    return c.nvars, c.order, c.num.key(), c.den


def test_table_results_equal_computed_results():
    coeffs, elements = _dunkl_operands()
    plain = _table_operations(coeffs, elements)
    with result_table():
        first = _table_operations(coeffs, elements)
        again = _table_operations(coeffs, elements)
    assert [_exact(c) for c in first] == [_exact(c) for c in plain]
    assert all(x is y for x, y in zip(first, again))


def test_table_keys_tell_equal_terms_apart():
    """Values that differ only in a multiplicity, the field order or the
    variable count have different keys."""
    f = LaurentPoly.constant(2, 1, 3) - q(1)
    one3 = RationalCoefficient.one(2, 3)
    with result_table():
        for k in (1, 2):
            c = RationalCoefficient(LaurentPoly.constant(2, 1, 3), ((f, k),))
            ((_, k1),) = c.euler(1).den
            assert k1 == k + 1
        for order in (3, 6):
            one = RationalCoefficient.one(2, order)
            assert (one * one).order == (one + one).order == order
        for nvars in (2, 3):
            zero = RationalCoefficient.zero(nvars, 3)
            assert (zero + zero).nvars == (zero * zero).nvars == nvars
        assert (one3 + one3) is (one3 + one3)
        assert (one3 + 1) is not (one3 + 1)  # scalars stay out


def test_repeated_operations_share_one_result_only_inside_a_scope():
    coeffs, elements = _dunkl_operands()
    a, b, g = coeffs[0], coeffs[1], elements[-1]
    ops = (lambda: a.act(g), lambda: a.euler(1), lambda: a + b, lambda: a * b)
    assert all(op() is not op() for op in ops)
    with result_table():
        assert all(op() is op() for op in ops)
    assert all(op() is not op() for op in ops)


def test_no_table_is_left_after_a_scope():
    a = RationalCoefficient.ratio(q(1), q(1) - q(2))
    assert polyalg._LIVE == [None]
    with result_table():
        assert polyalg._LIVE[0] is not None
        a.euler(1)
    assert polyalg._LIVE == [None]
    with pytest.raises(RuntimeError, match="inside"):
        with result_table():
            a.euler(2)
            raise RuntimeError("inside")
    assert polyalg._LIVE == [None]
