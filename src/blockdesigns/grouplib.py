"""PSL(2,q) and its field-automorphism extension as permutation groups.

The projective line over GF(q) is labeled [infinity, e_0, ..., e_{q-1}] where
e_i is the field element whose coefficient vector encodes i in base p. Groups
are generated by Mobius maps (translation, primitive scaling, negated
inversion) plus the Frobenius map for the "full" variant; pair_action then
induces the degree-n(n-1)/2 action on unordered point pairs.

builtin() exposes two fixed degree-36 generator sets. They are constants:
the golden classification tables in this package are tied to this exact
36-point labeling, which need not match the lexicographic pair labeling that
pair_action(projective_group(8, ...)) produces. Cross-checks between the two
constructions compare invariants or isomorphism certificates, never indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .kcombs import block_permutation
from .numth import factorize, prime_power, smallest_primitive_root
from .permcore import PermGroup, Permutation, parse_cycles

# sentinel for the point at infinity; field elements are coefficient tuples,
# so a bare string can never collide with one
INFINITY = "oo"


class FiniteField:
    """GF(p^f) with elements as length-f coefficient tuples, low degree first.

    For f >= 2 arithmetic is polynomial arithmetic modulo a monic primitive
    polynomial x^f + a_{f-1} x^{f-1} + ... + a0 over GF(p): the one whose
    coefficient vector (a0, ..., a_{f-1}), read as a base-p number, is
    smallest. Its root x = (0,1,0,...) is a primitive element; the choice
    fixes the element labeling, so it must never change. For f = 1 the
    primitive element is the smallest primitive root mod p.
    """

    def __init__(self, q: int):
        pf = prime_power(q)
        if pf is None:
            raise ValueError(f"{q} is not a prime power")
        self.p, self.f = pf
        self.q = q
        self.zero = (0,) * self.f
        self.one = (1,) + (0,) * (self.f - 1)
        self.modulus = None
        if self.f > 1:
            self.modulus = self._smallest_primitive_modulus()

    def _smallest_primitive_modulus(self) -> tuple[int, ...]:
        # x has order q-1 modulo m iff x^(q-1) = 1 and x^((q-1)/r) != 1 for
        # every prime r | q-1. A reducible m has fewer than q-1 units, so
        # this also proves m irreducible.
        x = self.primitive_element()
        cofactors = [(self.q - 1) // r for r in factorize(self.q - 1)]
        for code in range(1, self.q):
            if code % self.p == 0:  # a0 = 0: x divides the polynomial
                continue
            self.modulus = self.from_index(code) + (1,)
            if self.pow(x, self.q - 1) == self.one and all(
                self.pow(x, c) != self.one for c in cofactors
            ):
                return self.modulus
        raise AssertionError(f"no primitive polynomial of degree {self.f} over GF({self.p})")

    def elements(self) -> list[tuple[int, ...]]:
        return [self.from_index(i) for i in range(self.q)]

    def from_index(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.q:
            raise ValueError(f"element index {i} out of range")
        digits = []
        for _ in range(self.f):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def primitive_element(self) -> tuple[int, ...]:
        if self.f == 1:
            return (smallest_primitive_root(self.p),)
        return (0, 1) + (0,) * (self.f - 2)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.f == 1:
            return ((a[0] * b[0]) % self.p,)
        out = [0] * (2 * self.f - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % self.p
        mod = self.modulus
        for i in range(len(out) - 1, self.f - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(self.f + 1):
                    out[i - self.f + j] = (out[i - self.f + j] - c * mod[j]) % self.p
        return tuple(out[: self.f])

    def pow(self, a, e: int):
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("field inverse of zero")
        return self.pow(a, self.q - 2)

    def frobenius(self, a):
        return self.pow(a, self.p)

    def __repr__(self):
        return f"FiniteField(q={self.q})"


@dataclass(frozen=True, eq=False)
class ActionLabeling:
    """Bijection between structured action points and dense indices 0..n-1."""

    forward: dict
    inverse: tuple

    def __post_init__(self):
        # forward and inverse must be mutually inverse bijections
        if len(self.forward) != len(self.inverse):
            raise ValueError("labeling maps disagree in size")
        for i, pt in enumerate(self.inverse):
            if self.forward[pt] != i:
                raise ValueError("labeling maps are not mutually inverse")

    def index(self, pt) -> int:
        return self.forward[pt]

    def point(self, i: int):
        return self.inverse[i]

    def __len__(self) -> int:
        return len(self.inverse)


def _labeling(points) -> ActionLabeling:
    pts = tuple(points)
    return ActionLabeling({pt: i for i, pt in enumerate(pts)}, pts)


def _perm_from_point_map(labeling: ActionLabeling, fn) -> Permutation:
    return Permutation([labeling.forward[fn(pt)] for pt in labeling.inverse])


def projective_order(q: int, variant: str = "socle") -> int:
    """|projective_group(q, variant)| = q(q^2-1)/gcd(2,q-1), times f for
    "full"; ValueError for an unknown variant or a q with no simple socle."""
    if variant not in ("socle", "full"):
        raise ValueError(f"unknown variant {variant!r}")
    pf = prime_power(q)
    if pf is None:
        raise ValueError(f"{q} is not a prime power")
    if q < 4:
        raise ValueError("q >= 4 required for a simple socle")
    return q * (q * q - 1) // gcd(2, q - 1) * (pf[1] if variant == "full" else 1)


def projective_group(q: int, variant: str = "socle") -> tuple[PermGroup, ActionLabeling]:
    """PSL(2,q) ("socle") or PSL(2,q) extended by Frobenius ("full"), acting
    on the q+1 points of the projective line.

    Generators: x -> x+1, x -> c^e x with c primitive and e = gcd(2, q-1) so
    the scaling stays inside PSL for odd q, and x -> -1/x (equal to x -> 1/x
    in characteristic 2); "full" adds the Frobenius x -> x^p. The constructed
    order is checked against projective_order(q, variant).
    """
    expected = projective_order(q, variant)
    F = FiniteField(q)
    labeling = _labeling([INFINITY] + F.elements())

    def translation(x):
        return x if x == INFINITY else F.add(x, F.one)

    c = F.primitive_element()
    scale = F.mul(c, c) if q % 2 else c

    def scaling(x):
        return x if x == INFINITY else F.mul(scale, x)

    def neg_inversion(x):
        if x == INFINITY:
            return F.zero
        if x == F.zero:
            return INFINITY
        return F.neg(F.inv(x))

    def frobenius(x):
        return x if x == INFINITY else F.frobenius(x)

    maps = [translation, scaling, neg_inversion]
    if variant == "full":
        maps.append(frobenius)
    G = PermGroup([_perm_from_point_map(labeling, fn) for fn in maps])
    if G.order() != expected:
        raise AssertionError(
            f"projective_group({q}, {variant}) has order {G.order()}, expected {expected}"
        )
    return G, labeling


def pair_action(G: PermGroup, labeling: ActionLabeling | None = None) -> tuple[PermGroup, ActionLabeling]:
    """Induced action on unordered point pairs, labeled lexicographically by
    (min, max). The input action must be faithful on pairs; the construction
    asserts the order is preserved.
    """
    n = G.degree
    if n < 3:
        raise ValueError("pair action needs degree >= 3")
    rows = np.stack(np.triu_indices(n, 1), axis=1)  # the pairs i < j in lex order
    H = PermGroup([Permutation(block_permutation(g.images, rows).tolist())
                   for g in G.generators])
    pairs = rows.tolist()
    if H.order() != G.order():
        raise AssertionError("pair action is not faithful; order changed")
    if labeling is None:
        structured = [frozenset(pair) for pair in pairs]
    else:
        structured = [frozenset({labeling.inverse[i], labeling.inverse[j]}) for i, j in pairs]
    return H, _labeling(structured)


# Fixed 36-point generator sets (1-based cycle text). Degree 36 is the action
# on unordered pairs of the 9-point projective line over GF(8); the labeling
# is the one the golden classification tables are written in.
_PSL28_GEN_TEXT = (
    "(2,3,5,8,13,20,29)(4,7,12,19,11,18,23)(6,10,16,25,28,14,22)"
    "(9,15,24,33,26,17,27)(21,31,32,34,36,35,30)",
    "(1,2,4)(3,6,11)(5,9,7)(8,14,23)(10,17,28)(12,13,21)(15,24,34)"
    "(16,26,31)(18,29,33)(19,20,30)(22,32,36)(25,35,27)",
)

_PGAMMAL28_GEN_TEXT = (
    "(1,2,4,9,16,24,10)(3,7,6,13,11,19,18)(5,12,20,8,15,14,23)"
    "(17,25,22,28,21,29,27)(26,33,30,34,36,35,31)",
    "(1,3,8)(2,5,6)(4,10,7)(9,17,26)(11,19,14)(12,21,30)(13,22,31)"
    "(15,23,16)(18,27,34)(20,28,33)(24,29,35)(25,32,36)",
    "(1,3,8)(2,6,5)(4,11,15)(7,14,16)(9,18,12)(10,19,23)(13,20,24)"
    "(17,27,21)(22,28,29)(26,34,30)(31,33,35)",
)

BUILTIN_NAMES = ("psl28_paper36", "pgammal28_paper36")


def builtin(name: str) -> PermGroup:
    """The two fixed degree-36 groups by name: psl28_paper36 has order 504,
    pgammal28_paper36 order 1512."""
    if name == "psl28_paper36":
        texts = _PSL28_GEN_TEXT
    elif name == "pgammal28_paper36":
        texts = _PGAMMAL28_GEN_TEXT
    else:
        raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    return PermGroup([parse_cycles(t, 36) for t in texts])
