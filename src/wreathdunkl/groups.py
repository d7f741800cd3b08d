"""Wreath-product group layer.

Elements of the full dihedral wreath group W(m,N) on N sites with rotation
order m, together with its subgroups: the rotation wreath family G(m,1,N)
and its index-p subfamily G(m,p,N).  An element is kept in the normal form

    (product over sites i of  Q_i**r_i * K_i**eps_i) * P_sigma

with all local factors to the left of the permutation.  The multiplication
law is derived from the exchange rules (permutations relabel sites, a flip
inverts the rotation it passes) and is pinned down by ``relation_suite``,
which instantiates every defining relation of the family and checks it on
concrete elements.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .reports import CheckSuite

FAMILIES = ("G(m,1,N)", "G(m,p,N)", "W(m,N)")


@dataclass(frozen=True)
class WreathElement:
    """Group element in normal form; equality and hashing are field-wise."""

    size: int
    order: int
    perm: tuple[int, ...]  # 0-based: site i moves to perm[i], so q_i -> q_{perm[i]}
    rot: tuple[int, ...]
    flip: tuple[int, ...]

    def __post_init__(self):
        n, m = self.size, self.order
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{n-1}")
        if len(self.rot) != n or len(self.flip) != n:
            raise ValueError("rot/flip length mismatch")
        if any(not 0 <= r < m for r in self.rot):
            raise ValueError("rotation residues out of range")
        if any(e not in (0, 1) for e in self.flip):
            raise ValueError("flip entries must be bits")

    @staticmethod
    def identity(size: int, order: int) -> "WreathElement":
        return WreathElement(
            size, order, tuple(range(size)), (0,) * size, (0,) * size
        )

    def is_identity(self) -> bool:
        return (
            self.perm == tuple(range(self.size))
            and not any(self.rot)
            and not any(self.flip)
        )

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        return compose(self, other)

    def inverse(self) -> "WreathElement":
        n, m = self.size, self.order
        inv_perm = [0] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        rot = [0] * n
        flip = [0] * n
        for i in range(n):
            j = self.perm[i]
            e = self.flip[j]
            flip[i] = e
            rot[i] = (self.rot[j] if e else -self.rot[j]) % m
        return _valid_element(n, m, tuple(inv_perm), tuple(rot), tuple(flip))

    def act_on_exponents(self, exps: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Image of the monomial q**exps under this element.

        Returns the new exponent vector together with the power t such that
        the scalar picked up is tau**t, tau the primitive order-th root.
        """
        n, m = self.size, self.order
        inv = [0] * n
        for i, p in enumerate(self.perm):
            inv[p] = i
        new = [0] * n
        t = 0
        for j in range(n):
            b = exps[inv[j]]
            if self.flip[j]:
                b = -b
            new[j] = b
            t += self.rot[j] * b
        return tuple(new), t % m

    def sort_key(self):
        return (self.perm, self.rot, self.flip)

    def to_json(self) -> dict:
        return {
            "perm": [p + 1 for p in self.perm],
            "rot": list(self.rot),
            "flip": list(self.flip),
        }

    def __repr__(self):
        if self.is_identity():
            return "id"
        parts = []
        for i in range(self.size):
            if self.rot[i]:
                parts.append(f"Q{i+1}^{self.rot[i]}" if self.rot[i] != 1 else f"Q{i+1}")
            if self.flip[i]:
                parts.append(f"K{i+1}")
        if self.perm != tuple(range(self.size)):
            parts.append("P" + "".join(str(p + 1) for p in self.perm))
        return "*".join(parts)


def compose(g: WreathElement, h: WreathElement) -> WreathElement:
    """Product g*h in normal form (g acts after h on wavefunctions)."""
    if g.size != h.size or g.order != h.order:
        raise ValueError("cannot compose elements of different wreath groups")
    n, m = g.size, g.order
    ginv = [0] * n
    for i, p in enumerate(g.perm):
        ginv[p] = i
    rot = [0] * n
    flip = [0] * n
    for j in range(n):
        i = ginv[j]  # conjugating h's site-i factor through P_{sigma_g}
        rh, eh = h.rot[i], h.flip[i]
        rg, eg = g.rot[j], g.flip[j]
        rot[j] = (rg - rh if eg else rg + rh) % m
        flip[j] = eg ^ eh
    perm = tuple(g.perm[h.perm[i]] for i in range(n))
    return _valid_element(n, m, perm, tuple(rot), tuple(flip))


def _valid_element(size, order, perm, rot, flip) -> WreathElement:
    """The element with these fields, built without ``__post_init__``: only
    for fields derived from valid elements, as products and inverses are.
    Elements built from outside input go through the checked constructor."""
    g = object.__new__(WreathElement)
    g.__dict__.update(size=size, order=order, perm=perm, rot=rot, flip=flip)
    return g


def compose_word(word, compose_fn=compose) -> WreathElement:
    out = word[0]
    for g in word[1:]:
        out = compose_fn(out, g)
    return out


@dataclass(frozen=True)
class GroupSpec:
    """Which group: family name, number of sites N, rotation order m.

    ``p`` is the divisor index for the G(m,p,N) family and ignored
    elsewhere.
    """

    family: str
    size: int
    order: int = 1
    p: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.size < 1 or self.order < 1:
            raise ValueError("size and order must be positive")
        if self.family == "G(m,p,N)" and self.order % self.p:
            raise ValueError("p must divide m for G(m,p,N)")

    def cardinality(self) -> int:
        n, m = self.size, self.order
        fact = math.factorial(n)
        if self.family == "G(m,1,N)":
            return m**n * fact
        if self.family == "G(m,p,N)":
            return (m**n // self.p) * fact
        return (2 * m) ** n * fact

    def exceeds(self, cap: int) -> bool:
        """Whether cardinality() > cap, without forming it: p |G| is the
        product over sites k of k times the phases per site, accumulated
        only until it passes p cap."""
        per_site = 2 * self.order if self.family == "W(m,N)" else self.order
        bound = cap * (self.p if self.family == "G(m,p,N)" else 1)
        factors = (per_site * k for k in range(1, self.size + 1))
        return any(t > bound for t in itertools.accumulate(factors, operator.mul))

    def contains(self, g: WreathElement) -> bool:
        if g.size != self.size:
            return False
        if g.order != self.order:
            return False
        if self.family == "G(m,1,N)":
            return not any(g.flip)
        if self.family == "G(m,p,N)":
            return not any(g.flip) and sum(g.rot) % self.p == 0
        return True


def generator(spec: GroupSpec, which: str, i: int = 1, j: int = 2) -> WreathElement:
    """Named generators; sites are 1-based as in the algebra.

    ``e_i`` is the adjacent transposition (i, i+1); ``a`` the rotation at
    site 1; ``k`` the reflection at site 1; ``P``, ``Q``, ``K`` the general
    transposition and site operators, built from their words in the
    elementary generators and cross-checked against the direct normal form.
    """
    n, m = spec.size, spec.order
    if which in ("k", "K") and spec.family != "W(m,N)":
        raise ValueError(f"generator {which!r} requires the full dihedral family")
    if which == "e":
        if not 1 <= i <= n - 1:
            raise ValueError(f"e_{i} out of range for N={n}")
        perm = list(range(n))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return WreathElement(n, m, tuple(perm), (0,) * n, (0,) * n)
    if which == "a":
        if m == 1:
            return WreathElement.identity(n, m)
        rot = [0] * n
        rot[0] = 1
        return WreathElement(n, m, tuple(range(n)), tuple(rot), (0,) * n)
    if which == "k":
        flip = [0] * n
        flip[0] = 1
        return WreathElement(n, m, tuple(range(n)), (0,) * n, tuple(flip))
    if which == "Q":
        if not 1 <= i <= n:
            raise ValueError(f"Q_{i} out of range")
        if i == 1:
            return generator(spec, "a")
        p1 = generator(spec, "P", i=1, j=i)
        out = compose_word([p1, generator(spec, "a"), p1])
        rot = [0] * n
        rot[i - 1] = 1 % m
        direct = WreathElement(n, m, tuple(range(n)), tuple(rot), (0,) * n)
        if out != direct:
            raise AssertionError("Q word does not normalize to the direct element")
        return out
    if which == "K":
        if i == 1:
            return generator(spec, "k")
        p1 = generator(spec, "P", i=1, j=i)
        out = compose_word([p1, generator(spec, "k"), p1])
        flip = [0] * n
        flip[i - 1] = 1
        direct = WreathElement(n, m, tuple(range(n)), (0,) * n, tuple(flip))
        if out != direct:
            raise AssertionError("K word does not normalize to the direct element")
        return out
    if which == "P":
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"P_{i}{j} out of range")
        a, b = min(i, j), max(i, j)
        word = [generator(spec, "e", i=t) for t in range(a, b)]
        word = word + word[-2::-1]
        out = compose_word(word)
        perm = list(range(n))
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
        direct = WreathElement(n, m, tuple(perm), (0,) * n, (0,) * n)
        if out != direct:
            raise AssertionError("P word does not normalize to the transposition")
        return out
    raise ValueError(f"unknown generator {which!r}")


# The largest groups enumerated element by element: the model's group in a
# verify case, and the groups of the spin checks and the exchange projector.
ENUMERATION_CAP = 10**6
SPIN_GROUP_CAP = 10**5
# The most spin-image entries held at once, |W(m, N)| n^N: the homomorphism
# item stacks the image of every element of W(m, N), about 50 bytes an entry.
SPIN_IMAGE_CAP = 4 * 10**6


def enumerate_subgroup(spec: GroupSpec, cap: int = ENUMERATION_CAP) -> list[WreathElement]:
    """All elements of the group, each exactly once."""
    n, m = spec.size, spec.order
    if spec.exceeds(cap):
        raise ValueError(f"{spec.family} at N = {n}, m = {m} has more than {cap} elements")
    perms = list(itertools.permutations(range(n)))
    out = []
    if spec.family in ("G(m,1,N)", "G(m,p,N)"):
        rots = [
            r
            for r in itertools.product(range(m), repeat=n)
            if spec.family == "G(m,1,N)" or sum(r) % spec.p == 0
        ]
        flips = [(0,) * n]
    else:
        rots = list(itertools.product(range(m), repeat=n))
        flips = list(itertools.product((0, 1), repeat=n))
    for perm in perms:
        for rot in rots:
            for flip in flips:
                out.append(WreathElement(n, m, perm, rot, flip))
    if len(out) != spec.cardinality():
        raise AssertionError("enumeration does not match the family cardinality")
    return out


def generated_subgroup(identity: WreathElement, gens, within=None) -> list | None:
    """The subgroup generated by ``gens``, in breadth-first order.

    The search starts at ``identity`` and multiplies every element found on
    the right by every generator: O(|<gens>| |gens|) products.  It finds
    the words in the generators, the monoid they generate, which in a
    finite group is the subgroup: t^{-1} = t^{ord(t) - 1}.  With ``within``
    given (a container), the search stops and returns None at the first
    element outside it, the identity included.
    """
    if within is not None and identity not in within:
        return None
    found = {identity: None}  # insertion-ordered
    frontier = [identity]
    while frontier:
        step = []
        for g in frontier:
            for t in gens:
                h = g * t
                if h not in found:
                    if within is not None and h not in within:
                        return None
                    found[h] = None
                    step.append(h)
        frontier = step
    return list(found)


def _record(suite, name, indices, lhs_word, rhs_word, compose_fn):
    lhs = compose_word(lhs_word, compose_fn)
    rhs = compose_word(rhs_word, compose_fn)
    ok = lhs == rhs
    witness = None
    if not ok:
        witness = {"lhs": lhs.to_json(), "rhs": rhs.to_json()}
    suite.add(name, indices, ok, witness)


def relation_suite(spec: GroupSpec, compose_fn=compose) -> CheckSuite:
    """Instantiate every defining relation of the family and check it.

    ``compose_fn`` is injectable so that a deliberately corrupted
    multiplication can be shown to fail (negative control).

    The braid-commutation relation is applied for |i-j| >= 2, which is what
    the realization on positions forces.
    """
    n, m = spec.size, spec.order
    rep = CheckSuite(f"group-relations[{spec.family} N={spec.size} m={spec.order}]")
    e = [None] + [generator(spec, "e", i=t) for t in range(1, n)]
    ident = WreathElement.identity(n, m)

    for i in range(1, n):
        _record(rep, "e_i^2 = 1", {"i": i}, [e[i], e[i]], [ident], compose_fn)
    for i in range(1, n - 1):
        _record(
            rep,
            "braid e_i e_{i+1} e_i = e_{i+1} e_i e_{i+1}",
            {"i": i},
            [e[i], e[i + 1], e[i]],
            [e[i + 1], e[i], e[i + 1]],
            compose_fn,
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            _record(
                rep,
                "e_i e_j = e_j e_i",
                {"i": i, "j": j},
                [e[i], e[j]],
                [e[j], e[i]],
                compose_fn,
            )

    a = generator(spec, "a")
    _record(rep, "a^m = 1", {"m": m}, [a] * m, [ident], compose_fn)
    if n >= 2:
        _record(
            rep,
            "a e_1 a e_1 = e_1 a e_1 a",
            {},
            [a, e[1], a, e[1]],
            [e[1], a, e[1], a],
            compose_fn,
        )
    for j in range(2, n):
        _record(rep, "a e_j = e_j a", {"j": j}, [a, e[j]], [e[j], a], compose_fn)

    # derived presentation on transpositions and site rotations
    P = {
        (i, j): generator(spec, "P", i=i, j=j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }
    Q = {i: generator(spec, "Q", i=i) for i in range(1, n + 1)}
    for (i, j), pij in P.items():
        if i < j:
            _record(rep, "P_ij^2 = 1", {"i": i, "j": j}, [pij, pij], [ident], compose_fn)
        _record(
            rep,
            "P_ij Q_i = Q_j P_ij",
            {"i": i, "j": j},
            [pij, Q[i]],
            [Q[j], pij],
            compose_fn,
        )
        for k in range(1, n + 1):
            if k not in (i, j):
                _record(
                    rep,
                    "P_ij Q_k = Q_k P_ij",
                    {"i": i, "j": j, "k": k},
                    [pij, Q[k]],
                    [Q[k], pij],
                    compose_fn,
                )
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        _record(
            rep,
            "P_ij P_jk = P_ik P_ij",
            {"i": i, "j": j, "k": k},
            [P[i, j], P[j, k]],
            [P[i, k], P[i, j]],
            compose_fn,
        )
        _record(
            rep,
            "P_ij P_jk = P_jk P_ik",
            {"i": i, "j": j, "k": k},
            [P[i, j], P[j, k]],
            [P[j, k], P[i, k]],
            compose_fn,
        )
    for i in range(1, n + 1):
        _record(rep, "Q_i^m = 1", {"i": i}, [Q[i]] * m, [ident], compose_fn)
        for j in range(i + 1, n + 1):
            _record(
                rep,
                "Q_i Q_j = Q_j Q_i",
                {"i": i, "j": j},
                [Q[i], Q[j]],
                [Q[j], Q[i]],
                compose_fn,
            )

    if spec.family == "W(m,N)":
        a = generator(spec, "a")
        k = generator(spec, "k")
        am1 = compose_word([a] * (m - 1)) if m > 1 else ident
        _record(rep, "k a = a^{-1} k", {}, [k, a], [am1, k], compose_fn)
        _record(rep, "k^2 = 1", {}, [k, k], [ident], compose_fn)
        if n >= 2:
            _record(
                rep,
                "k e_1 k e_1 = e_1 k e_1 k",
                {},
                [k, e[1], k, e[1]],
                [e[1], k, e[1], k],
                compose_fn,
            )
        for j in range(2, n):
            _record(rep, "k e_j = e_j k", {"j": j}, [k, e[j]], [e[j], k], compose_fn)
        for i in range(1, n + 1):
            Ki = generator(spec, "K", i=i)
            Qi = generator(spec, "Q", i=i)
            Qinv = Qi.inverse()
            _record(rep, "K_i^2 = 1", {"i": i}, [Ki, Ki], [ident], compose_fn)
            _record(
                rep,
                "K_i Q_i = Q_i^{-1} K_i",
                {"i": i},
                [Ki, Qi],
                [Qinv, Ki],
                compose_fn,
            )

    if spec.family == "G(m,p,N)":
        # the generating set of the subfamily must satisfy membership
        full = GroupSpec("G(m,1,N)", n, m)
        a = generator(full, "a")
        ap = compose_word([a] * spec.p)
        gens = [ap] + ([compose_word([a.inverse(), generator(full, "e", i=1), a])] if n >= 2 else [])
        gens += [generator(full, "e", i=t) for t in range(1, n)]
        for idx, g in enumerate(gens):
            rep.add(
                "generator membership in G(m,p,N)",
                {"generator": idx},
                spec.contains(g),
                None if spec.contains(g) else {"element": g.to_json()},
            )
    return rep


def corrupted_compose(g: WreathElement, h: WreathElement) -> WreathElement:
    """Deliberately wrong multiplication, used as a negative control.

    Whenever the correct product has a non-involutive permutation part, the
    images of its first two moved points are swapped.  Squares of
    generators still hold, braid-type relations break with a witness.
    """
    out = compose(g, h)
    p = list(out.perm)
    moved = [i for i in range(len(p)) if p[i] != i]
    if moved and any(p[p[i]] != i for i in range(len(p))):
        i0, i1 = moved[0], moved[1]
        p[i0], p[i1] = p[i1], p[i0]
        return WreathElement(out.size, out.order, tuple(p), out.rot, out.flip)
    return out
