"""Permutation and stabilizer-chain unit tests."""

import pickle
import random
from contextlib import contextmanager
from itertools import permutations
from math import factorial
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockdesigns import kcombs, permcore
from blockdesigns.design import classify
from blockdesigns.grouplib import pair_action, projective_group
from blockdesigns.permcore import (
    PermGroup,
    Permutation,
    compose,
    format_cycles,
    parse_cycles,
)

import oracles
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
        assert compose(p, p.inverse()) == Permutation.identity(8)
        assert compose(p.inverse(), p) == Permutation.identity(8)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_kernels_at_small_degrees(self, degree):
        # itemgetter with one index returns a scalar and with none raises
        for images in permutations(range(degree)):
            p = Permutation(images)
            for q in map(Permutation, permutations(range(degree))):
                r = compose(p, q)
                assert isinstance(r.images, tuple)
                assert r.images == tuple(q.images[x] for x in p.images)
            inv = p.inverse()
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

    def test_cyclic_order(self):
        G = PermGroup([parse_cycles("(1,2,3)", 3)])
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
        S = G.pointwise_stabilizer((0,))
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

    def test_intransitive_not_primitive(self):
        G = PermGroup([parse_cycles("(1,2)", 4)])
        assert not G.is_primitive()

    def test_derived_subgroup(self):
        assert symmetric(4).derived_subgroup().order() == 12
        assert symmetric(5).derived_subgroup().order() == 60
        C3 = PermGroup([parse_cycles("(1,2,3)", 3)])
        assert C3.derived_subgroup().order() == 1


@st.composite
def primitivity_cases(draw):
    """Generators of degree <= 9 and whether to add all but the first by
    extend(): random permutations (mostly primitive groups), permutations
    that keep a partition into equal parts (imprimitive, unless the parts
    are points or everything), or permutations that fix every point past a
    prefix (intransitive, unless the prefix is everything), each kind
    hidden by one random relabeling."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("random", "parts", "parts", "prefix")))
    count = draw(st.integers(1, 3))
    gens = []
    for _ in range(count):
        if kind == "random":
            g = draw(st.permutations(range(n)))
        elif kind == "parts":
            m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
            outer = draw(st.permutations(range(n // m)))
            inner = [draw(st.permutations(range(m))) for _ in range(n // m)]
            g = [outer[i // m] * m + inner[i // m][i % m] for i in range(n)]
        else:
            r = draw(st.integers(1, n))
            g = [*draw(st.permutations(range(r))), *range(r, n)]
        gens.append(g)
    relabel = draw(st.permutations(range(n)))
    conjugated = []
    for g in gens:
        images = [0] * n
        for i in range(n):
            images[relabel[i]] = relabel[g[i]]
        conjugated.append(Permutation(images))
    return conjugated, draw(st.booleans())


class TestPrimitivity:
    """is_primitive reads the least block through {0, d} as the orbit of 0
    under <G_0, g> for a g taking 0 to d; the oracle searches every subset
    through 0 for a block."""

    @given(primitivity_cases())
    def test_matches_brute_force(self, case):
        gens, extended = case
        if extended:
            G = PermGroup(gens[:1])
            for g in gens[1:]:
                G = G.extend(g)
        else:
            G = PermGroup(gens)
        assert G.is_primitive() == oracles.is_primitive(gens)

    @pytest.mark.parametrize("text,degree,primitive", [
        ("(1,2,3,4,5,6)", 6, False),  # blocks {1,4}, and {1,3,5}
        ("(1,2,3,4,5,6,7)", 7, True),  # prime degree
        ("(1,2)(3,4)(5,6)(7,8)", 8, False),  # intransitive
        ("(1,2,3)(4,5,6)(7,8,9);(1,4,7)(2,5,8)(3,6,9)", 9, False),  # C3 x C3 on 3 x 3 rows
        ("(1,2,3,4,5);(1,2)", 5, True),
    ])
    def test_named_groups(self, text, degree, primitive):
        G = PermGroup([parse_cycles(t, degree) for t in text.split(";")])
        assert G.is_primitive() is primitive
        assert oracles.is_primitive(G.generators) is primitive


class TestBoundError:
    """BoundError lives in numpy-free permcore; kcombs re-exports it."""

    def test_one_class(self):
        assert permcore.BoundError is kcombs.BoundError
        assert issubclass(permcore.BoundError, ValueError)

    def test_elements_past_the_bound(self):
        G = symmetric(11)  # order 39,916,800 > MAX_ELEMENTS
        with pytest.raises(permcore.BoundError, match="iteration bound 10000000"):
            G.elements()


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
            S = G.pointwise_stabilizer((x,))
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
    def test_pointwise_stabilizer_is_memoized_per_group(self, args):
        G, g, prefix = args
        prefix = tuple(prefix)  # may repeat points
        S = G.pointwise_stabilizer(prefix)
        fixing = {
            h for h in brute_force_elements(G.generators) if all(h.images[p] == p for p in prefix)
        }
        assert set(S.elements()) == fixing
        assert G.pointwise_stabilizer(prefix) is S
        assert G.pointwise_stabilizer(tuple(dict.fromkeys(prefix))) is S
        # a larger group has its own memo, never the smaller group's stabilizers
        E = G.extend(g)
        if E is not G and prefix:
            T = E.pointwise_stabilizer(prefix)
            assert T is not S
            assert set(T.elements()) == {
                h for h in brute_force_elements(E.generators)
                if all(h.images[p] == p for p in prefix)
            }


@contextmanager
def chain_work_refused():
    """Fail on any _Chain construction or addition inside the block."""
    def refuse(*args, **kwargs):
        raise AssertionError("a stabilizer chain was built or added to")

    with mock.patch.object(permcore._Chain, "__init__", refuse), \
            mock.patch.object(permcore._Chain, "add", refuse):
        yield


@st.composite
def extension_lineages(draw):
    """A group on at most 6 points, then a few extend() steps: per step a
    permutation and the points (maybe none) whose pointwise stabilizer is
    asked of the extended group before the next step."""
    n = draw(st.integers(2, 6))
    gens = draw(st.lists(perms(n), min_size=1, max_size=2))
    steps = draw(st.lists(st.tuples(perms(n), st.lists(st.integers(0, n - 1), max_size=3)),
                          min_size=1, max_size=4))
    return gens, steps


class TestLazyExtension:
    """extend() builds no chain; an extended group builds one on first need,
    at the base its first stabilizer question names. Whatever was asked, and
    in whatever order, it is the group of all its generators."""

    @given(extension_lineages(), st.booleans(), st.data())
    def test_matches_group_of_all_generators(self, args, order_first, data):
        gens, steps = args
        G = PermGroup(gens)
        for g, asked in steps:
            with chain_work_refused():
                G = G.extend(g)
            G.pointwise_stabilizer(asked)
        rebuilt = PermGroup(gens + [g for g, _ in steps])
        n = G.degree
        if order_first:  # the chain is then a copy of the nearest built one
            assert G.order() == rebuilt.order()
        for pts in [(a,) for a in range(n)] + list(permutations(range(n), 2)):
            assert (G.pointwise_stabilizer(pts).orbit_labels()
                    == rebuilt.pointwise_stabilizer(pts).orbit_labels())
        assert G.order() == rebuilt.order()
        assert G.orbit_labels() == rebuilt.orbit_labels()
        words = data.draw(st.lists(st.lists(st.sampled_from(rebuilt.generators), max_size=6),
                                   max_size=4))
        for word in words:
            product = Permutation.identity(n)
            for s in word:
                product = compose(product, s)
            assert G.contains(product)
        for p in data.draw(st.lists(perms(n), max_size=4)):
            assert G.contains(p) == rebuilt.contains(p)
        assert_inverse_transversals(G)

    def test_chain_built_at_the_first_question(self, monkeypatch):
        G = PermGroup([parse_cycles("(1,2,3)", 5)])  # base (0,)
        g = parse_cycles("(4,5)", 5)
        added = []
        add = permcore._Chain.add

        def counted(chain, h):
            added.append(h)
            return add(chain, h)

        monkeypatch.setattr(permcore._Chain, "add", counted)
        # asked at G's first base point, or with no point: G's chain copied, g added
        for question in (lambda E: E.pointwise_stabilizer((0,)), lambda E: E.order()):
            added.clear()
            E = G.extend(g)
            question(E)
            assert added == [g] and E.base == (0, 3)
        # asked elsewhere: one chain based at the named points, from every generator
        added.clear()
        F = G.extend(g)
        F.pointwise_stabilizer((4, 1))
        assert added == list(F.generators) and F.base[:2] == (4, 1)
        assert F.order() == 6


class TestOneChainRule:
    """_chain_at is the one place a group gets a chain after __init__. A
    chain it must build is based at every point the question names, so the
    deeper levels of one stabilizer question read that chain instead of
    building again."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []  # the base of each _Chain built from generators
        init = permcore._Chain.__init__

        def counted(chain, degree, base=(), gens=()):
            init(chain, degree, base, gens)
            if gens:
                built.append(tuple(base))

        monkeypatch.setattr(permcore._Chain, "__init__", counted)
        return built

    def test_one_build_for_a_prefix_off_the_base(self, builds):
        G = PermGroup([parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)])
        assert G.base == (0, 1, 3, 2)
        held = G._held
        builds.clear()
        S = G.pointwise_stabilizer((4, 3))
        assert builds == [(4, 3)]
        assert S.order() == 6 and S.orbits() == [(0, 1, 2), (3,), (4,)]
        assert G._held is held  # a group keeps the first chain it gets

    def test_pair_action_certificates(self, monkeypatch):
        # PSL(2,5) on the 15 pairs of the projective line: each certificate's
        # prefix stabilizers sit off the group's base
        P = pair_action(projective_group(5)[0])[0]
        added = []
        add = permcore._Chain.add

        def counted(chain, g):
            added.append(g)
            return add(chain, g)

        monkeypatch.setattr(permcore._Chain, "add", counted)
        classes = classify(P, 3, 1)
        assert [c.certificate.hexdigest for c in classes] == [
            "e0746c39b2ebdc48435bc9061af6a4b9a5208acb5bf79e09a07fa55a8f72c686",
            "7dcaaf77a379b889c911dbd454e55bedc40cb62724a56fea7499bdb8265c04ac",
            "148e604b102ad6fd2d48779af55e2fa0274ee7cf7598d024e2483df870adc9e1",
            "24a1309efdcdb6e547a542f7256b48d51d35e2ab5934832f11086a891757fe33",
            "8e07d30d22e3a1e5ebcea6f0b76dece29ddb5fb503a8c4154dee105141039531",
        ]
        assert len(added) <= 30


class TestOrbitLabels:
    """orbit_labels() is the one orbit computation; orbit(), orbits() and
    is_transitive() read it. Checked against closure by multiplication."""

    @staticmethod
    def least_mates(G):
        elems = brute_force_elements(G.generators)
        return tuple(min(g.images[p] for g in elems) for p in range(G.degree))

    @given(group_perm_prefix())
    def test_labels_are_least_orbit_mates(self, args):
        G, _, _ = args
        assert G.orbit_labels() == self.least_mates(G)
        assert G.orbit_labels() is G.orbit_labels()

    @given(group_perm_prefix())
    def test_orbits_read_the_labels(self, args):
        G, _, _ = args
        elems = brute_force_elements(G.generators)
        for p in range(G.degree):
            assert G.orbit(p) == tuple(sorted({g.images[p] for g in elems}))
        orbits = G.orbits()
        assert [o[0] for o in orbits] == sorted(set(G.orbit_labels()))
        assert orbits == [G.orbit(o[0]) for o in orbits]
        assert sorted(p for o in orbits for p in o) == list(range(G.degree))

    @given(group_perm_prefix())
    def test_is_transitive(self, args):
        G, _, _ = args
        assert G.is_transitive() == (len({g.images[0] for g in brute_force_elements(G.generators)})
                                     == G.degree)

    @pytest.mark.parametrize("degree", [0, 1])
    def test_is_transitive_at_degrees_0_and_1(self, degree):
        G = PermGroup([Permutation.identity(degree)])
        assert G.is_transitive()
        assert G.orbit_labels() == tuple(range(degree))
        assert G.orbits() == [(p,) for p in range(degree)]

    @given(group_perm_prefix(), st.data())
    def test_stabilizer_walks_one_point_memos(self, args, data):
        G, _, _ = args
        a, b = data.draw(st.lists(st.integers(0, G.degree - 1), min_size=2, max_size=2,
                                  unique=True))
        S = G.pointwise_stabilizer((a,))
        assert G.pointwise_stabilizer((a, b)) is S.pointwise_stabilizer((b,))
        assert G.pointwise_stabilizer(()) is G


class TestOneConstructor:
    """Every group the chain routines make, read off a chain or not, goes
    through PermGroup.__init__ once, handed the chain already built."""

    @pytest.fixture
    def inits(self, monkeypatch):
        chains = []  # per __init__ call, whether it was handed a chain
        init = PermGroup.__init__

        def counted(self, generators, **kwargs):
            chains.append(kwargs.get("_chain") is not None)
            init(self, generators, **kwargs)

        monkeypatch.setattr(PermGroup, "__init__", counted)
        return chains

    def test_stabilizer_read_off_the_chain(self, inits):
        G = symmetric(5)
        inits.clear()
        S = G.pointwise_stabilizer(G.base[:1])
        assert inits == [True]
        assert S.order() == factorial(4)

    def test_stabilizer_on_a_rebuilt_chain(self, inits):
        G = symmetric(5)
        point = (G.base[0] + 1) % 5
        inits.clear()
        S = G.pointwise_stabilizer((point,))
        assert inits == [True]
        assert S.order() == factorial(4) and S.base[0] != point

    def test_extend(self, monkeypatch):
        # one __init__, handed the parent; the chain waits for a question
        G = PermGroup([parse_cycles("(1,2,3)", 4)])
        handed = []
        init = PermGroup.__init__

        def counted(self, generators, **kwargs):
            handed.append(kwargs)
            init(self, generators, **kwargs)

        monkeypatch.setattr(PermGroup, "__init__", counted)
        E = G.extend(parse_cycles("(1,2)", 4))
        assert handed == [{"_parent": G}] and E._held is None
        assert E.order() == 6
        assert len(handed) == 1 and E._held is not None

    def test_derived_subgroup(self, inits):
        G = symmetric(4)
        inits.clear()
        D = G.derived_subgroup()
        assert inits == [True]
        assert D.order() == 12


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


    def test_transversals_factor_every_element_once(self):
        # one element per level, applied deepest level first, gives each
        # group element exactly once; level i's elements move base[i] to
        # distinct points and fix the base points before it
        for G in random_groups(20261019, 30, max_degree=7):
            levels = G.transversals()
            assert [len(t) for t in levels] == [len(t) for t in G._chain.trans]
            products = [Permutation.identity(G.degree)]
            for i, level in enumerate(levels):
                assert level[0].is_identity()
                assert len({u(G.base[i]) for u in level}) == len(level)
                assert all(u(b) == b for u in level for b in G.base[:i])
                products = [compose(u, p) for p in products for u in level]
            assert len(products) == len(set(products)) == G.order()
            assert set(products) == brute_force_elements(G.generators)


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
        for H in (G, G.pointwise_stabilizer((2,))):
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
