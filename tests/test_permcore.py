"""Permutation and stabilizer-chain unit tests."""

import pickle
import random
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockdesigns.permcore import (
    PermGroup,
    Permutation,
    compose,
    format_cycles,
    group,
    inverse,
    parse_cycles,
)

from oracles import brute_force_elements


def perms(degree):
    return st.permutations(range(degree)).map(lambda t: Permutation(tuple(t)))


class TestPermutation:
    def test_identity(self):
        e = Permutation.identity(5)
        assert e.images == (0, 1, 2, 3, 4)
        assert e.order() == 1

    def test_invalid_images(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_compose_applies_left_factor_first(self):
        p = parse_cycles("(1,2)", 3)
        q = parse_cycles("(2,3)", 3)
        # point 1 -> p -> 2 -> q -> 3
        assert compose(p, q).images[0] == 2

    @given(perms(7), perms(7))
    def test_compose_via_images(self, p, q):
        r = compose(p, q)
        assert all(r.images[i] == q.images[p.images[i]] for i in range(7))

    @given(perms(8))
    def test_inverse_roundtrip(self, p):
        assert compose(p, inverse(p)) == Permutation.identity(8)
        assert compose(inverse(p), p) == Permutation.identity(8)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_kernels_at_small_degrees(self, degree):
        # itemgetter with one index returns a scalar and with none raises
        for images in permutations(range(degree)):
            p = Permutation(images)
            for q in map(Permutation, permutations(range(degree))):
                r = compose(p, q)
                assert isinstance(r.images, tuple)
                assert r.images == tuple(q.images[x] for x in p.images)
            inv = inverse(p)
            assert isinstance(inv.images, tuple) and len(inv.images) == degree
            assert compose(p, inv) == Permutation.identity(degree)
            assert p.is_identity() == (images == tuple(range(degree)))

    @given(perms(6))
    def test_is_identity(self, p):
        assert p.is_identity() == all(p.images[i] == i for i in range(6))

    @given(perms(8))
    def test_order_annihilates(self, p):
        n = p.order()
        acc = Permutation.identity(8)
        for _ in range(n):
            acc = compose(acc, p)
        assert acc == Permutation.identity(8)
        assert n >= 1


class TestCycleText:
    def test_parse_one_based(self):
        p = parse_cycles("(1,2,3)(5,6)", 6)
        assert p.images == (1, 2, 0, 3, 5, 4)

    def test_parse_fixed_points_implicit(self):
        p = parse_cycles("(2,4)", 5)
        assert p.images == (0, 3, 2, 1, 4)

    def test_identity_text(self):
        assert parse_cycles("()", 4) == Permutation.identity(4)
        assert format_cycles(Permutation.identity(4)) == "()"

    def test_zero_based_io(self):
        p = parse_cycles("(0,1)", 3, index_base=0)
        assert p.images == (1, 0, 2)
        assert format_cycles(p, index_base=0) == "(0,1)"

    def test_reject_out_of_range(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,9)", 4)

    def test_reject_repeated_point(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 4)

    @given(perms(9))
    def test_roundtrip(self, p):
        assert parse_cycles(format_cycles(p), 9) == p


def symmetric(n):
    gens = [parse_cycles("(1,2)", n)]
    cycle = Permutation(tuple(range(1, n)) + (0,))
    gens.append(cycle)
    return PermGroup(gens)


class TestPermGroup:
    def test_symmetric_orders(self):
        for n in range(2, 8):
            assert symmetric(n).order() == factorial(n)

    def test_group_helper(self):
        G = group([parse_cycles("(1,2,3)", 3)])
        assert G.order() == 3

    def test_contains(self):
        G = symmetric(4)
        assert G.contains(parse_cycles("(1,4)(2,3)", 4))
        A4_gens = [parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)]
        A4 = PermGroup(A4_gens)
        assert A4.order() == 12
        assert not A4.contains(parse_cycles("(1,2)", 4))

    def test_elements_match_brute_force(self):
        gens = [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)]
        G = PermGroup(gens)  # dihedral of order 8
        assert G.order() == 8
        assert set(G.elements()) == brute_force_elements(gens)

    def test_elements_bound(self):
        G = symmetric(12)
        with pytest.raises(ValueError):
            list(G.elements())

    def test_orbit_and_stabilizer(self):
        G = PermGroup([parse_cycles("(1,2,3,4,5)", 7), parse_cycles("(6,7)", 7)])
        assert G.orbit(0) == (0, 1, 2, 3, 4)
        assert G.orbit(5) == (5, 6)
        S = G.point_stabilizer(0)
        assert S.order() * len(G.orbit(0)) == G.order()

    def test_pointwise_stabilizer(self):
        G = symmetric(6)
        S = G.pointwise_stabilizer((0, 1))
        assert S.order() == factorial(4)
        for g in S.generators:
            assert g.images[0] == 0 and g.images[1] == 1

    def test_pointwise_stabilizer_all_points(self):
        G = symmetric(5)
        S = G.pointwise_stabilizer(range(5))
        assert S.order() == 1

    def test_subdegrees(self):
        # S4 acting on the 6 unordered pairs has subdegrees 1, 4, 1
        a = parse_cycles("(1,2,3,4)", 4)
        b = parse_cycles("(1,2)", 4)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        idx = {pq: i for i, pq in enumerate(pairs)}

        def on_pairs(g):
            imgs = [0] * 6
            for (i, j), r in idx.items():
                imgs[r] = idx[tuple(sorted((g.images[i], g.images[j])))]
            return Permutation(tuple(imgs))

        G = PermGroup([on_pairs(a), on_pairs(b)])
        assert G.order() == 24
        assert sorted(G.subdegrees(0)) == [1, 1, 4]

    def test_primitivity(self):
        assert symmetric(5).is_primitive()
        # C4 acting regularly is transitive but imprimitive
        C4 = PermGroup([parse_cycles("(1,2,3,4)", 4)])
        assert not C4.is_primitive()
        blk = C4.minimal_block(0, 2)
        assert set(blk) == {0, 2}

    def test_intransitive_not_primitive(self):
        G = PermGroup([parse_cycles("(1,2)", 4)])
        assert not G.is_primitive()

    def test_derived_subgroup(self):
        assert symmetric(4).derived_subgroup().order() == 12
        assert symmetric(5).derived_subgroup().order() == 60
        C3 = PermGroup([parse_cycles("(1,2,3)", 3)])
        assert C3.derived_subgroup().order() == 1


class TestOrbitStabilizerRandom:
    def test_orbit_stabilizer_identity_holds(self):
        rng = random.Random(20260819)
        for _ in range(60):
            n = rng.randrange(5, 10)
            gens = []
            for _ in range(rng.randrange(1, 4)):
                images = list(range(n))
                rng.shuffle(images)
                gens.append(Permutation(tuple(images)))
            G = PermGroup(gens)
            x = rng.randrange(n)
            S = G.point_stabilizer(x)
            assert len(G.orbit(x)) * S.order() == G.order()
            assert all(g.images[x] == x for g in S.generators)


@st.composite
def group_perm_prefix(draw):
    n = draw(st.integers(3, 6))
    gens = draw(st.lists(perms(n), min_size=1, max_size=3))
    prefix = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return PermGroup(gens), draw(perms(n)), prefix


class TestChainPaths:
    """extend and pointwise_stabilizer read their chains off existing ones;
    check both against closure by multiplication, which uses no chain."""

    @given(group_perm_prefix())
    def test_extend_matches_rebuild(self, args):
        G, g, _ = args
        E = G.extend(g)
        if G.contains(g):
            assert E is G
        else:
            assert E.generators == G.generators + (g,)
        rebuilt = PermGroup(G.generators + (g,))
        elems = brute_force_elements(rebuilt.generators)
        assert E.order() == rebuilt.order() == len(elems)
        assert set(E.elements()) == elems
        for images in permutations(range(G.degree)):
            p = Permutation(images)
            assert E.contains(p) == (p in elems)

    @given(group_perm_prefix())
    def test_pointwise_stabilizer(self, args):
        G, _, prefix = args
        # a fresh chain; G's own chain; a fresh one whose base starts like G's
        for pts in (prefix, G.base[: len(prefix)], G.base[:1] + tuple(prefix)):
            pts = list(dict.fromkeys(pts))
            S = G.pointwise_stabilizer(pts)
            assert all(s.images[p] == p for s in S.generators for p in pts)
            fixing = {
                g for g in brute_force_elements(G.generators) if all(g.images[p] == p for p in pts)
            }
            assert set(S.elements()) == fixing
            orbit_lengths = 1
            for i, p in enumerate(pts):
                orbit_lengths *= len(G.pointwise_stabilizer(pts[:i]).orbit(p))
            assert S.order() * orbit_lengths == G.order()


    @given(group_perm_prefix())
    def test_prefix_stabilizer_is_memoized_per_group(self, args):
        G, g, prefix = args
        prefix = tuple(prefix)
        S = G.prefix_stabilizer(prefix)
        fixing = {
            h for h in brute_force_elements(G.generators) if all(h.images[p] == p for p in prefix)
        }
        assert set(S.elements()) == fixing
        assert G.prefix_stabilizer(prefix) is S
        # a larger group has its own memo, never the smaller group's stabilizers
        E = G.extend(g)
        if E is not G and prefix:
            T = E.prefix_stabilizer(prefix)
            assert T is not S
            assert set(T.elements()) == {
                h for h in brute_force_elements(E.generators)
                if all(h.images[p] == p for p in prefix)
            }


def random_groups(seed: int, count: int, max_degree: int = 9):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(3, max_degree + 1)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        yield PermGroup(gens)


def assert_inverse_transversals(G):
    chain = G._chain
    assert len(chain.inv) == len(chain.trans) == len(chain.base)
    for trans, inv in zip(chain.trans, chain.inv):
        assert list(inv) == list(trans)
        for a, u in trans.items():
            assert inv[a] == u.inverse()


class TestChainInvariants:
    def test_inverse_transversals(self):
        # every chain path: a build, an extension, a stabilizer read off the
        # group's own chain and one on a fresh chain
        rng = random.Random(20261018)
        for G in random_groups(20261018, 40):
            n = G.degree
            images = list(range(n))
            rng.shuffle(images)
            pts = rng.sample(range(n), rng.randrange(1, 3))
            for H in (G, G.extend(Permutation(tuple(images))), G.pointwise_stabilizer(G.base[:1]),
                      G.pointwise_stabilizer(pts)):
                assert_inverse_transversals(H)


class TestPickle:
    """A permutation pickles as its images and is checked again on load, so a
    group crosses to a worker process with its stabilizer chain."""

    def test_permutation_round_trip(self):
        p = parse_cycles("(1,2,3)(4,5)", 6)
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        assert q.order() == 6

    def test_group_round_trip(self):
        G = symmetric(5)
        for H in (G, G.point_stabilizer(2)):
            loaded = pickle.loads(pickle.dumps(H))
            assert loaded.order() == H.order()
            assert loaded.generators == H.generators
            assert loaded.base == H.base
            for images in permutations(range(5)):
                p = Permutation(images)
                assert loaded.contains(p) == H.contains(p)

    def test_chain_with_inverse_transversals_round_trip(self):
        rng = random.Random(7)
        for H in random_groups(7, 10, max_degree=6):  # elements() lists up to 720
            loaded = pickle.loads(pickle.dumps(H))
            assert_inverse_transversals(loaded)
            assert loaded._chain.inv == H._chain.inv
            assert list(loaded.elements()) == list(H.elements())
            for _ in range(30):
                images = list(range(H.degree))
                rng.shuffle(images)
                p = Permutation(tuple(images))
                assert loaded.sift(p) == H.sift(p)

    def test_bad_images_raise_on_load(self):
        data = pickle.dumps(Permutation._unsafe((0, 0, 2)))
        with pytest.raises(ValueError, match="bijection"):
            pickle.loads(data)
