"""Finite fields, projective line actions, and the degree-36 builtins."""

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from blockdesigns.grouplib import (
    BUILTIN_NAMES,
    INFINITY,
    FiniteField,
    builtin,
    pair_action,
    projective_group,
    projective_order,
)
from blockdesigns.numth import prime_power, prime_powers_upto
from blockdesigns.permcore import PermGroup, Permutation
from oracles import field_index, pair_images

SMALL_Q = [4, 5, 7, 8, 9, 11, 13, 16, 25, 27]

# (p, f) -> (a0, ..., a_{f-1}) of the modulus x^f + a_{f-1} x^{f-1} + ... + a0
# for every q = p^f <= 1024 with f >= 2. The moduli fix the element labeling,
# so FiniteField's search must reproduce them exactly.
PRIMITIVE_POLY = {
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (3, 2): (2, 1),
    (2, 4): (1, 1, 0, 0),
    (5, 2): (2, 1),
    (3, 3): (1, 2, 0),
    (2, 5): (1, 0, 1, 0, 0),
    (7, 2): (3, 1),
    (2, 6): (1, 1, 0, 0, 0, 0),
    (3, 4): (2, 1, 0, 0),
    (11, 2): (7, 1),
    (5, 3): (2, 3, 0),
    (2, 7): (1, 1, 0, 0, 0, 0, 0),
    (13, 2): (2, 1),
    (3, 5): (1, 2, 0, 0, 0),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0),
    (17, 2): (3, 1),
    (7, 3): (2, 3, 0),
    (19, 2): (2, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0),
    (23, 2): (7, 1),
    (5, 4): (2, 2, 1, 0),
    (3, 6): (2, 1, 0, 0, 0, 0),
    (29, 2): (3, 1),
    (31, 2): (12, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),
}


def field_elems(q):
    F = FiniteField(q)
    return st.integers(min_value=0, max_value=q - 1).map(F.from_index)


class TestPolynomialTable:
    def test_keys_cover_prime_powers(self):
        for (p, f), coeffs in PRIMITIVE_POLY.items():
            assert f >= 2 and len(coeffs) == f
            assert prime_power(p ** f) == (p, f)
        assert {p ** f for p, f in PRIMITIVE_POLY} == {
            q for q in prime_powers_upto(4, 1024) if prime_power(q)[1] >= 2
        }

    def test_search_reproduces_table(self):
        for (p, f), coeffs in PRIMITIVE_POLY.items():
            assert FiniteField(p ** f).modulus == coeffs + (1,), (p, f)

    def test_table_polynomials_are_irreducible(self):
        # independent oracle: sympy factorization over GF(p)
        x = sympy.Symbol("x")
        for (p, f), coeffs in PRIMITIVE_POLY.items():
            poly = x ** f + sum(int(c) * x ** i for i, c in enumerate(coeffs))
            assert sympy.Poly(poly, x, modulus=p).is_irreducible, (p, f)

    def test_root_is_primitive(self):
        # x generates the unit group: ord(x) = q-1, checked via field powers
        for q in [4, 8, 9, 16, 27, 25, 64, 2048]:
            F = FiniteField(q)
            seen = set()
            a = F.one
            for _ in range(q - 1):
                a = F.mul(a, F.primitive_element())
                seen.add(a)
            assert len(seen) == q - 1


class TestFieldArithmetic:
    @pytest.mark.parametrize("q", SMALL_Q)
    def test_structure_constants(self, q):
        F = FiniteField(q)
        elems = F.elements()
        assert len(elems) == q
        assert len(set(elems)) == q

    @given(st.sampled_from(SMALL_Q), st.data())
    def test_field_axioms(self, q, data):
        F = FiniteField(q)
        a = data.draw(field_elems(q))
        b = data.draw(field_elems(q))
        c = data.draw(field_elems(q))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one

    @given(st.sampled_from(SMALL_Q), st.data())
    def test_frobenius_is_additive(self, q, data):
        F = FiniteField(q)
        a = data.draw(field_elems(q))
        b = data.draw(field_elems(q))
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
        assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))

    @pytest.mark.parametrize("q", SMALL_Q)
    def test_index_roundtrip(self, q):
        F = FiniteField(q)
        for i in range(q):
            assert field_index(F, F.from_index(i)) == i


class TestProjectiveGroup:
    @pytest.mark.parametrize(
        "q,variant,order",
        [
            (5, "socle", 60),
            (7, "socle", 168),
            (8, "socle", 504),
            (8, "full", 1512),
            (9, "socle", 360),
            (9, "full", 720),
            (11, "socle", 660),
            (16, "socle", 4080),
        ],
    )
    def test_orders(self, q, variant, order):
        G, points = projective_group(q, variant)
        assert G.degree == len(points) == q + 1
        assert G.order() == order == projective_order(q, variant)
        assert len(G.orbit(0)) == q + 1  # transitive

    def test_labeling_starts_at_infinity(self):
        _, points = projective_group(5, "socle")
        assert points == (INFINITY, *FiniteField(5).elements())
        assert len(set(points)) == 6

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            projective_group(5, "frobenius")

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            projective_group(6, "socle")


class TestPairAction:
    def test_s3_on_pairs_of_three(self):
        G = PermGroup([Permutation((1, 0, 2)), Permutation((1, 2, 0))])
        H, pairs = pair_action(G)
        assert H.degree == 3
        assert H.order() == 6
        assert pairs == (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))

    def test_psl28_pair_action(self):
        G, points = projective_group(8, "socle")
        H, pairs = pair_action(G, points)
        assert pairs[0] == frozenset({INFINITY, points[1]})
        assert len(set(pairs)) == H.degree == 36
        assert H.order() == 504
        assert H.pointwise_stabilizer((0,)).order() == 14

    def test_full_pair_action(self):
        G, points = projective_group(8, "full")
        H, _ = pair_action(G, points)
        assert H.degree == 36
        assert H.order() == 1512
        assert H.pointwise_stabilizer((0,)).order() == 42

    @given(st.integers(3, 8).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
    def test_generators_match_dict_oracle(self, images):
        G = PermGroup([Permutation(im) for im in images])
        H, pairs = pair_action(G)
        assert [h.images for h in H.generators] == pair_images(G)
        n = G.degree
        assert list(pairs) == [frozenset({i, j}) for i in range(n) for j in range(i + 1, n)]


class TestBuiltins:
    def test_names(self):
        assert BUILTIN_NAMES == ("psl28_paper36", "pgammal28_paper36")
        with pytest.raises(ValueError):
            builtin("nonesuch")

    def test_psl_invariants(self):
        G = builtin("psl28_paper36")
        assert G.degree == 36
        assert G.order() == 504
        assert G.pointwise_stabilizer((0,)).order() == 14
        assert sorted(G.subdegrees(0)) == [1, 7, 7, 7, 14]
        assert G.is_primitive()

    def test_pgammal_invariants(self):
        G = builtin("pgammal28_paper36")
        assert G.degree == 36
        assert G.order() == 1512
        assert G.pointwise_stabilizer((0,)).order() == 42
        assert sorted(G.subdegrees(0)) == [1, 14, 21]
        assert G.is_primitive()

    def test_pgammal_socle_order(self):
        G = builtin("pgammal28_paper36")
        assert G.derived_subgroup().order() == 504

    def test_psl_is_the_socle_action_in_another_labeling(self):
        # the order-504 builtin is not the socle of the order-1512 one as a
        # set of permutations: the same PSL(2,8) action, labeled otherwise
        psl, pgl = builtin("psl28_paper36"), builtin("pgammal28_paper36")
        socle = pgl.derived_subgroup()
        assert socle.order() == 504
        assert not any(pgl.contains(g) for g in psl.generators)
        assert psl.subdegrees(0) == socle.subdegrees(0) == (1, 7, 7, 7, 14)

    def test_psl_element_orders(self):
        G = builtin("psl28_paper36")
        hist: dict[int, int] = {}
        for g in G.elements():
            hist[g.order()] = hist.get(g.order(), 0) + 1
        assert hist == {1: 1, 2: 63, 3: 56, 7: 216, 9: 168}
