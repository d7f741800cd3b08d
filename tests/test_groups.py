"""Wreath group layer: normal form, generators, enumeration, relations."""

import itertools
import math
import random

import pytest

from wreathdunkl.groups import (
    GroupSpec,
    WreathElement,
    compose,
    corrupted_compose,
    enumerate_subgroup,
    generator,
    relation_suite,
)


@pytest.mark.parametrize(
    "family,N,m,p,size",
    [
        ("G(m,1,N)", 3, 1, 1, 6),
        ("G(m,1,N)", 2, 2, 1, 8),
        ("G(m,1,N)", 2, 3, 1, 18),
        ("G(m,p,N)", 2, 2, 2, 4),
        ("G(m,p,N)", 2, 4, 2, 16),
        ("W(m,N)", 2, 2, 1, 32),
        ("W(m,N)", 2, 3, 1, 72),
    ],
)
def test_enumeration_counts(family, N, m, p, size):
    spec = GroupSpec(family, N, m, p)
    els = enumerate_subgroup(spec)
    assert len(els) == size == spec.cardinality()
    assert len(set(els)) == size  # each element exactly once


def test_m_equal_one_is_the_symmetric_group():
    """G(m,1,N) at m = 1 holds the N! permutations and no rotation or flip."""
    for N in (1, 2, 3, 4):
        els = enumerate_subgroup(GroupSpec("G(m,1,N)", N, 1))
        assert len(els) == math.factorial(N)
        assert sorted(g.perm for g in els) == sorted(itertools.permutations(range(N)))
        assert not any(any(g.rot) or any(g.flip) for g in els)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_subgroup(GroupSpec("W(m,N)", 4, 6), cap=100)


def test_group_axioms_random():
    rng = random.Random(1)
    spec = GroupSpec("W(m,N)", 3, 3)
    els = enumerate_subgroup(spec)
    ident = WreathElement.identity(3, 3)
    for _ in range(10_000):
        g, h, f = rng.choice(els), rng.choice(els), rng.choice(els)
        assert (g * h) * f == g * (h * f)
        assert g * g.inverse() == ident
        assert g.inverse() * g == ident


def test_products_and_inverses_are_valid_elements():
    """compose and inverse skip the constructor's checks; what they build
    passes them and equals, and hashes as, the checked element."""
    els = enumerate_subgroup(GroupSpec("W(m,N)", 2, 3))
    for g in els:
        for x in [g.inverse()] + [g * h for h in els[::7]]:
            checked = WreathElement(x.size, x.order, x.perm, x.rot, x.flip)
            assert checked == x and hash(checked) == hash(x)


def test_subgroup_closure():
    spec = GroupSpec("G(m,p,N)", 2, 4, 2)
    els = set(enumerate_subgroup(spec))
    for g in els:
        assert g.inverse() in els
        for h in els:
            assert g * h in els


def test_membership_examples():
    # the rotation generator is in the full family but not the balanced one
    full = GroupSpec("G(m,1,N)", 2, 2)
    a = generator(full, "a")
    assert full.contains(a)
    assert not GroupSpec("G(m,p,N)", 2, 2, 2).contains(a)


def test_exchange_rules():
    spec = GroupSpec("G(m,1,N)", 3, 3)
    P12 = generator(spec, "P", i=1, j=2)
    Q1 = generator(spec, "Q", i=1)
    Q2 = generator(spec, "Q", i=2)
    assert P12 * Q1 == Q2 * P12
    wspec = GroupSpec("W(m,N)", 2, 3)
    K1 = generator(wspec, "K", i=1)
    Q1w = generator(wspec, "Q", i=1)
    assert K1 * Q1w == Q1w.inverse() * K1


def test_generator_words_normalize():
    spec = GroupSpec("G(m,1,N)", 3, 2)
    P13 = generator(spec, "P", i=1, j=3)
    perm = (2, 1, 0)
    assert P13 == WreathElement(3, 2, perm, (0, 0, 0), (0, 0, 0))
    assert generator(spec, "Q", i=3).rot == (0, 0, 1)
    wspec = GroupSpec("W(m,N)", 3, 2)
    assert generator(wspec, "K", i=2).flip == (0, 1, 0)


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec("G(m,1,N)", 4, 1),
        GroupSpec("G(m,1,N)", 3, 3),
        GroupSpec("G(m,p,N)", 3, 4, 2),
        GroupSpec("W(m,N)", 3, 2),
        GroupSpec("W(m,N)", 2, 3),
    ],
)
def test_relation_suite_passes(spec):
    rep = relation_suite(spec)
    assert rep.passed, [c.relation for c in rep.failures()]


def test_relation_suite_negative_control():
    rep = relation_suite(GroupSpec("G(m,1,N)", 3, 2), compose_fn=corrupted_compose)
    assert not rep.passed
    failing = {c.relation for c in rep.failures()}
    assert any("braid" in name or "P_ij P_jk" in name for name in failing)
    witness = rep.failures()[0].witness
    assert witness is not None and "lhs" in witness and "rhs" in witness


def test_action_homomorphism_on_monomials():
    rng = random.Random(7)
    els = enumerate_subgroup(GroupSpec("W(m,N)", 3, 3))
    for _ in range(500):
        g, h = rng.choice(els), rng.choice(els)
        e = tuple(rng.randint(-3, 3) for _ in range(3))
        e1, t1 = (g * h).act_on_exponents(e)
        eh, th = h.act_on_exponents(e)
        eg, tg = g.act_on_exponents(eh)
        assert e1 == eg
        assert t1 == (tg + th) % 3


def test_json_round_trip():
    g = WreathElement(3, 4, (2, 0, 1), (1, 0, 3), (0, 1, 0))
    data = g.to_json()
    assert data == {"perm": [3, 1, 2], "rot": [1, 0, 3], "flip": [0, 1, 0]}


def test_exceeds_agrees_with_the_cardinality():
    """``exceeds`` decides cardinality() > cap without forming it, also at
    the cap itself, for every family, and at once for a huge group."""
    for spec in (GroupSpec("G(m,1,N)", 3, 2), GroupSpec("G(m,p,N)", 4, 6, p=3),
                 GroupSpec("G(m,p,N)", 1, 2, p=2), GroupSpec("W(m,N)", 3, 1)):
        size = spec.cardinality()
        for cap in (size - 1, size, size + 1, 1):
            assert spec.exceeds(cap) == (size > cap), (spec, cap)
    assert GroupSpec("W(m,N)", 10**7, 2).exceeds(10**6)
