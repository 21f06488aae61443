"""PSL(2,q) and its field-automorphism extension as permutation groups.

The projective line over GF(q) is labeled [infinity, e_0, ..., e_{q-1}] where
e_i is the field element whose coefficient vector encodes i in base p. Groups
are generated by Mobius maps (translation, primitive scaling, negated
inversion) plus the Frobenius map for the "full" variant; pair_action then
induces the degree-n(n-1)/2 action on unordered point pairs, each pair
labeled by its lex rank, the rank the orbit scan gives its images
(kcombs.image_ranks()). FiniteField tabulates the powers of one primitive
element, so products, inverses and Frobenius images add or scale exponents
instead of multiplying polynomials.

builtin() builds the two fixed degree-36 generator sets of
golden.BUILTIN_GENERATORS. They are constants: the golden classification
tables in this package are tied to this exact 36-point labeling, which need
not match the lexicographic pair labeling that
pair_action(projective_group(8, ...)) produces. Cross-checks between the two
constructions compare invariants or isomorphism certificates, never indices.
"""

from __future__ import annotations

from math import gcd

from .golden import BUILTIN_GENERATORS, BUILTIN_NAMES
from .kcombs import image_ranks, lex_combinations
from .numth import prime_power
from .permcore import PermGroup, Permutation, parse_cycles

# sentinel for the point at infinity; field elements are coefficient tuples,
# so a bare string can never collide with one
INFINITY = "oo"


class FiniteField:
    """GF(p^f) with elements as length-f coefficient tuples, low degree first.

    The nonzero elements are kept as the powers of one primitive element c:
    exp[i] = c^i and log[c^i] = i, so a product, inverse or Frobenius image
    is a sum or multiple of exponents mod q-1. The constructor finds c by
    walking a candidate's powers until the walk returns to 1; the first
    walk of q-1 steps is the exp table. For f = 1 the candidates are
    multiplication by c = 1, 2, ..., so c is the smallest primitive root
    mod p. For f >= 2 they are multiplication by x modulo each monic
    x^f + a_{f-1} x^{f-1} + ... + a0 with a0 != 0, in ascending base-p
    order of (a0, ..., a_{f-1}); a reducible modulus has fewer than q-1
    units, so the first walk of q-1 steps also proves the modulus
    irreducible. The choice fixes the element labeling, so it must never
    change.
    """

    def __init__(self, q: int):
        pf = prime_power(q)
        if pf is None:
            raise ValueError(f"{q} is not a prime power")
        self.p, self.f = p, f = pf
        self.q = q
        self.zero = (0,) * f
        self.one = (1,) + (0,) * (f - 1)
        self.modulus = None
        for code in range(1, q):
            if f == 1:
                step = lambda a, c=code: (a[0] * c % p,)
            elif code % p == 0:  # a0 = 0: x divides the polynomial
                continue
            else:
                self.modulus = mod = self.from_index(code) + (1,)
                # x * a, reduced by x^f = -(a0 + ... + a_{f-1} x^{f-1})
                step = lambda a: tuple((lo - a[-1] * m) % p
                                       for lo, m in zip((0,) + a[:-1], mod))
            powers = [self.one]
            a = step(self.one)
            while a != self.one:
                powers.append(a)
                a = step(a)
            if len(powers) == q - 1:
                break
        self._exp = powers
        self._log = {a: i for i, a in enumerate(powers)}

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
        return self._exp[1 % (self.q - 1)]  # GF(2)* is {1}

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if a == self.zero or b == self.zero:
            return self.zero
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("field inverse of zero")
        return self._exp[-self._log[a] % (self.q - 1)]

    def frobenius(self, a):
        return a if a == self.zero else self._exp[self._log[a] * self.p % (self.q - 1)]

    def __repr__(self):
        return f"FiniteField(q={self.q})"


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


def projective_group(q: int, variant: str = "socle") -> tuple[PermGroup, tuple]:
    """PSL(2,q) ("socle") or PSL(2,q) extended by Frobenius ("full"), acting
    on the q+1 points of the projective line, and those points in label
    order: INFINITY, then the field elements.

    Generators: x -> x+1, x -> c^e x with c primitive and e = gcd(2, q-1) so
    the scaling stays inside PSL for odd q, and x -> -1/x (equal to x -> 1/x
    in characteristic 2); "full" adds the Frobenius x -> x^p. The constructed
    order is checked against projective_order(q, variant).
    """
    expected = projective_order(q, variant)
    F = FiniteField(q)
    points = (INFINITY, *F.elements())
    index = {pt: i for i, pt in enumerate(points)}

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
    G = PermGroup([Permutation([index[fn(pt)] for pt in points]) for fn in maps])
    if G.order() != expected:
        raise AssertionError(
            f"projective_group({q}, {variant}) has order {G.order()}, expected {expected}"
        )
    return G, points


def pair_action(G: PermGroup, points=None) -> tuple[PermGroup, tuple]:
    """Induced action on unordered point pairs, and the pairs in label order
    as frozensets of two points, taken from points if given, else labels.
    A pair's label is its lex rank by (min, max), its row in
    kcombs.lex_combinations(n, 2), so a generator's image of each pair is
    the lex rank kcombs.image_ranks() gives that row's image. The input
    action must be faithful on pairs; the construction asserts the order is
    preserved.
    """
    n = G.degree
    if n < 3:
        raise ValueError("pair action needs degree >= 3")
    rows = lex_combinations(n, 2)  # the pairs i < j; row index = label
    H = PermGroup([Permutation(r.tolist()) for r in image_ranks(G, rows)])
    if H.order() != G.order():
        raise AssertionError("pair action is not faithful; order changed")
    if points is None:
        points = range(n)
    return H, tuple(frozenset({points[i], points[j]}) for i, j in rows.tolist())


def builtin(name: str) -> PermGroup:
    """The two fixed degree-36 groups by name (golden.BUILTIN_GENERATORS):
    psl28_paper36 has order 504, pgammal28_paper36 order 1512."""
    texts = BUILTIN_GENERATORS.get(name)
    if texts is None:
        raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    return PermGroup([parse_cycles(t, 36) for t in texts])
