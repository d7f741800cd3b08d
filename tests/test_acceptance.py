"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints one PASS/FAIL line (run pytest with -s or check the
captured output on failure).  Criterion 6 is split: 6a checks the exact
lattice tables; 6b checks the even-order equidistant scan.  The even-order
clause was first stated as "the scan finds no solution".  The engine
refutes that at two sites: with the doubled boundary coupling (mu^2 = 4)
the integer lattice L = 2 N m is an exact equilibrium.  Three independent
confirmations hold: the residual vanishes in exact cyclotomic arithmetic;
q_l times the residual is the Euler derivative of the scalar potential of
the dynamical Hamiltonian, so the sites sit at a critical point of the
classical potential, as the freezing trick requires; and at m = 2 the
equilibria of that potential are the zeros of (1 + t) P_{N-1}^{(mu-1, 1)}(t)
in t = cos 2x, which at N = 2 and mu = 2 puts the sites at x = pi/4 and
pi/2, exactly the L = 8 lattice.  6b therefore asserts that one hit, and
asserts "no solution" where it is true: at three and four sites.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import dense_iota, random_operator
from wreathdunkl.cyclotomic import CycloScalar, CyclotomicField
from wreathdunkl.dunkl import (
    ModelParams,
    build_charge,
    build_dunkl,
    build_hamiltonian,
    check_hecke_relations,
    check_recursion,
    exchange_element,
    hamiltonian_check,
    rotation_average_check,
)
from wreathdunkl.groups import (
    GroupSpec,
    WreathElement,
    enumerate_subgroup,
    relation_suite,
)
from wreathdunkl.opalg import (
    MixedOperator,
    ad_projector,
    numeric_residual,
    op_commutator,
)
from wreathdunkl.spinrep import (
    SpinMatrix,
    SpinRepData,
    brute_force_eigvals,
    build_projector,
    convolve,
    diagonalize_hermitian,
    global_rotation_element,
    projector_check,
    spin_matrix_of_element,
    twisted_translation_element,
    verify_agreement,
)
from wreathdunkl.static import (
    build_frozen_hamiltonian,
    build_lattice,
    lattice_table_check,
    residual_cyclic,
    residual_dihedral,
    scan_equidistant,
)


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_1_group_layer():
    t0 = time.time()
    ok = True
    for (N, m) in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        spec = GroupSpec("G(m,1,N)", N, m)
        ok &= relation_suite(spec).passed
        ok &= len(enumerate_subgroup(spec)) == m**N * math.factorial(N)
    for (N, m) in [(2, 2), (2, 3), (3, 2)]:
        spec = GroupSpec("W(m,N)", N, m)
        ok &= relation_suite(spec).passed
        ok &= len(enumerate_subgroup(spec)) == (2 * m) ** N * math.factorial(N)
    for (N, m, p) in [(2, 2, 2), (2, 4, 2), (3, 3, 3)]:
        spec = GroupSpec("G(m,p,N)", N, m, p)
        ok &= len(enumerate_subgroup(spec)) == (m**N // p) * math.factorial(N)
    elapsed = time.time() - t0
    ok &= elapsed < 10
    assert _report("1 group layer", ok, f"{elapsed:.1f}s")


def test_criterion_2_theorem_one():
    t0 = time.time()
    ok = True
    for (N, m) in [(2, 2), (2, 3), (3, 2)]:
        for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
            case = time.time()
            p = ModelParams("cyclic", N, m, lam)
            ok &= check_hecke_relations(p).passed  # includes [d,d], [d,Q], drels
            ok &= check_recursion(p).passed
            ok &= hamiltonian_check(p).passed  # H - I^(2) = 0
            ok &= (time.time() - case) < 300
    assert _report("2 commuting family (cyclic)", ok, f"{time.time() - t0:.1f}s")


def test_criterion_3_theorem_two():
    t0 = time.time()
    ok = True
    combos = [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(1, 2), Fraction(1), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 2), Fraction(1)),
    ]
    for (N, m) in [(2, 2), (2, 3)]:
        for (lam, mu, rho) in combos:
            case = time.time()
            p = ModelParams("dihedral", N, m, lam, mu, rho)
            ok &= check_hecke_relations(p).passed  # incl. [D,D]=0, image=split
            ok &= check_recursion(p).passed
            ok &= hamiltonian_check(p).passed  # J^(2) = parity Hamiltonian
            ok &= (time.time() - case) < 900
    assert _report("3 commuting family (dihedral)", ok, f"{time.time() - t0:.1f}s")


def test_criterion_4_proof_machinery():
    t0 = time.time()
    ok = True
    for (N, m) in [(2, 2), (2, 3)]:
        ok &= rotation_average_check(ModelParams("cyclic", N, m, Fraction(1, 2))).passed
        ok &= rotation_average_check(
            ModelParams("dihedral", N, m, Fraction(1, 2), Fraction(1), Fraction(1, 2))
        ).passed
    import random

    rng = random.Random(42)
    m = 3
    for _ in range(50):
        A = random_operator(rng, N=2, m=m, nterms=1)
        r = rng.randrange(m)
        t = rng.randrange(m)
        P_r = ad_projector(1, r, A)
        ok &= ad_projector(1, r, P_r) == P_r
        if t != r:
            ok &= ad_projector(1, t, P_r).is_zero()
    elapsed = time.time() - t0
    ok &= elapsed < 120
    assert _report("4 rotation-average machinery", ok, f"{elapsed:.1f}s")


def test_criterion_5_spin_layer():
    t0 = time.time()
    ok = True
    rep = SpinRepData(2, 2, 2)
    cyc = ModelParams("cyclic", 2, 2, Fraction(1, 2))
    dih = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
    ok &= projector_check(cyc, rep).passed  # Lambda^2 = Lambda + exchange action
    ok &= projector_check(dih, rep).passed  # Lambda_b, product idempotent
    for k in (1, 2, 3):
        ok &= verify_agreement(cyc, rep, k, expect="zero").passed
    ok &= verify_agreement(dih, rep, 2, expect="zero").passed
    # no theorem covers odd k; the first power where agreement fails is 3
    ok &= verify_agreement(dih, rep, 3, expect="nonzero").passed
    k1 = verify_agreement(dih, rep, 1, expect="report")
    detail = f"odd-k nonzero at k=3; k=1 recorded zero={k1.items[0].witness['zero']}"
    elapsed = time.time() - t0
    ok &= elapsed < 600
    assert _report("5 spin layer", ok, f"{elapsed:.1f}s, {detail}")


def test_criterion_6a_lattice_tables_exact():
    t0 = time.time()
    ok = True
    for (N, m) in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3),
                   (5, 2), (2, 5), (6, 2), (4, 3), (3, 4), (2, 6), (12, 1)]:
        if m * N <= 12:
            lat = build_lattice("cyclic", N, m)
            ok &= all(r.is_zero() for r in lat.residuals())
    for (m, N) in [(3, 2), (3, 3), (5, 2)]:
        ok &= lattice_table_check(m, [N]).passed
    elapsed = time.time() - t0
    ok &= elapsed < 120
    assert _report("6a lattice tables exact", ok, f"{elapsed:.1f}s")


def test_criterion_6b_even_order_scan_clause():
    """The even-order scan finds exactly the N = 2 equilibrium, none at N = 3, 4.

    At (N, m) = (2, 2) the default grid holds one candidate below 1e-6:
    L = 8, integer positions, mu^2 = 4.  Its residual is exactly zero, and
    it is tied to the dynamical Hamiltonian: with W the scalar (identity)
    coefficient of H at lam = 1, mu = 2, rho = 0, q_l * residual_l equals
    euler_l(W), checked at the hit (both sides zero) and at L = 10 (both
    nonzero).
    The "no equidistant solution" part of the clause holds at three and
    four sites and is asserted there.
    """
    records = scan_equidistant("dihedral-even", 2, 2, range(2, 41))
    hits = [
        (r["L"], r["offset"], r["couplings"])
        for r in records
        if r["residual"] < 1e-6
    ]
    ok = hits == [(8, "0", {"mu2": "4"})]
    ok &= records[0]["residual"] < 1e-12 and records[1]["residual"] > 1e-6

    ham = build_hamiltonian(ModelParams("dihedral", 2, 2, Fraction(1), Fraction(2)))
    potential = ham.terms[((0, 0), WreathElement.identity(2, 2))]
    for L, at_equilibrium in ((8, True), (10, False)):
        q = [CycloScalar.root_of_unity(L, k) for k in (1, 2)]
        res = residual_dihedral(q, 2, mu2=Fraction(4))
        for l in (1, 2):
            gradient = potential.euler(l).eval_exact(q)
            ok &= res[l - 1].is_zero() == at_equilibrium
            ok &= q[l - 1] * res[l - 1] == gradient

    minima = {
        N: scan_equidistant("dihedral-even", N, 2, range(2, 41))[0]["residual"]
        for N in (3, 4)
    }
    ok &= all(v > 1e-6 for v in minima.values())
    assert _report(
        "6b even-order scan clause",
        ok,
        f"N=2 hits {hits} (best {records[0]['residual']:.2e}, "
        f"next {records[1]['residual']:.2e}); min residual N=3 "
        f"{minima[3]:.2e}, N=4 {minima[4]:.2e}",
    )


def test_criterion_7_frozen_chains():
    t0 = time.time()
    ok = True
    details = []
    for (m, N, n) in [(1, 2, 2), (1, 3, 2), (3, 2, 2)]:
        rep = SpinRepData(n, m, N)
        frozen = build_frozen_hamiltonian(build_lattice("cyclic", N, m))
        Hx = SpinMatrix.from_terms(rep, frozen.terms)
        # exact hermiticity: Hx equals its conjugate transpose entry by entry
        ok &= all(
            Hx.rows[i][j] == Hx.rows[j][i].conj()
            for i in range(rep.dim)
            for j in range(rep.dim)
        )
        H = Hx.to_numpy()
        herm = float(np.max(np.abs(H - H.conj().T)))
        ok &= herm < 1e-12
        vals, _, _ = diagonalize_hermitian(H)
        oracle = brute_force_eigvals(H)
        ok &= float(np.max(np.abs(vals - oracle))) < 1e-8
        # symmetries inherited from the construction lattice
        for name, g in (
            ("translation", twisted_translation_element(N, m)),
            ("rotation", global_rotation_element(N, m)),
        ):
            M = spin_matrix_of_element(rep, g).to_numpy()
            ok &= float(np.max(np.abs(H @ M - M @ H))) < 1e-10
        # exchange images: commute for one rotation copy at these sizes;
        # for m = 3 they do not, and the norms are reported, not asserted
        worst_exchange = 0.0
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                for s in range(m):
                    M = spin_matrix_of_element(
                        rep, exchange_element(N, m, i, j, s)
                    ).to_numpy()
                    worst_exchange = max(
                        worst_exchange, float(np.max(np.abs(H @ M - M @ H)))
                    )
        if m == 1:
            ok &= worst_exchange < 1e-10
        details.append(f"(m={m},N={N}): exchange-image commutator {worst_exchange:.1e}")
    elapsed = time.time() - t0
    assert _report("7 frozen chains", ok, f"{elapsed:.1f}s; " + "; ".join(details))


def test_criterion_8_backend_consistency():
    t0 = time.time()
    ok = True
    # exactly-zero operators evaluate to numeric residuals below 1e-10
    zeros = []
    p = ModelParams("cyclic", 2, 3, Fraction(1, 2))
    zeros.append(op_commutator(build_dunkl(p, 1), build_dunkl(p, 2)))
    zeros.append(build_hamiltonian(p) - build_charge(p, 2))
    pd = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
    zeros.append(build_dunkl(pd, 1, "image") - build_dunkl(pd, 1, "split"))
    zeros.append(op_commutator(build_dunkl(pd, 1), build_dunkl(pd, 2)))
    for idx, z in enumerate(zeros):
        ok &= z.is_zero()
        ok &= numeric_residual(z, seed=idx, npoints=5) < 1e-10
    # the fifth, Lambda^2 - Lambda: an empty weight difference, and a dense
    # residual in the faithful representation L (x) rho
    rep = SpinRepData(2, 2, 2)
    lam = build_projector(ModelParams("cyclic", 2, 2, Fraction(1)), "exchange")
    square = convolve(lam, lam)
    ok &= not {g for g in square.keys() | lam.keys() if square.get(g, 0) != lam.get(g, 0)}
    dense = dense_iota(lam, rep, enumerate_subgroup(GroupSpec("W(m,N)", 2, 2)))
    ok &= np.max(np.abs(dense @ dense - dense)) < 1e-10
    # 1000 random scalars match the reference evaluation at 53-bit precision
    import random

    rng = random.Random(8)
    for _ in range(1000):
        order = rng.choice((1, 2, 3, 4, 6, 8, 12))
        phi = CyclotomicField.get(order).phi
        s = CycloScalar(
            order,
            [rng.randint(-9, 9) for _ in range(phi)],
            rng.randint(1, 9),
        )
        got = s.to_complex()
        with mpmath.workprec(120):
            z = mpmath.expjpi(mpmath.mpf(2) / order)
            ref = sum(c * z**j for j, c in enumerate(s.num)) / s.den
            bound = 2.0 ** (-52) * (1 + sum(abs(c) for c in s.num) / s.den)
            ok &= abs(got - complex(ref)) <= bound
    elapsed = time.time() - t0
    assert _report("8 backend consistency", ok, f"{elapsed:.1f}s")
