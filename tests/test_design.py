"""Design construction, lambda computation, transitivity, orbit counting."""

import pickle
import random
import tracemalloc
from collections import Counter
from hashlib import sha256
from itertools import combinations, count
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockdesigns import design, golden, kcombs, permcore
from blockdesigns.design import (
    Design,
    block_count_step,
    classify,
    count_orbits_burnside,
    fixed_k_subsets,
    is_flag_transitive,
    lambda_of,
    no_orbit_design,
    orbit_design,
)
from blockdesigns.grouplib import BUILTIN_NAMES, builtin, pair_action, projective_group
from blockdesigns.isomorph import certificate
from blockdesigns.kcombs import BoundError, subset_orbits, subset_ranks
from blockdesigns.permcore import PermGroup, Permutation, parse_cycles

import oracles
from oracles import block_orbit, representatives


def cyclic(n):
    return PermGroup([Permutation(tuple(range(1, n)) + (0,))])


FANO_BASE = (0, 1, 3)  # difference set mod 7


class TestBlock:
    """A block is stored as a sorted point tuple; Design checks each one."""

    def test_roundtrip(self):
        d = Design(64, [[5, 0, 63]])
        assert d.block_rows() == ((0, 5, 63),)
        assert d.k == 3

    def test_rejects_repeats(self):
        with pytest.raises(ValueError, match="repeated"):
            Design(4, [(1, 1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Design(64, [(0, 64)])
        with pytest.raises(ValueError, match="outside"):
            Design(64, [(-1, 2)])

    def test_design_block_rows_are_lex_sorted(self):
        d = Design(4, [(1, 2), (0, 3), (0, 1)])
        assert d.block_rows() == ((0, 1), (0, 3), (1, 2))


class TestDesign:
    def test_sorts_blocks(self):
        d = Design(4, [(2, 3), (0, 1)])
        assert d.block_rows() == ((0, 1), (2, 3))
        assert (d.v, d.k, d.b) == (4, 2, 2)

    def test_rejects_duplicate_blocks(self):
        with pytest.raises(ValueError, match="duplicate"):
            Design(4, [(0, 1), (1, 0)])

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="one size"):
            Design(4, [(0, 1), (0, 1, 2)])

    def test_rejects_point_outside_v(self):
        with pytest.raises(ValueError, match="outside"):
            Design(4, [(3, 4)])

    def test_rejects_non_integer_v(self):
        for v in (4.5, 4.0, "4", None):
            with pytest.raises(ValueError, match="v must be an integer"):
                Design(v, [(0, 1)])
        d = Design(np.int16(4), [(0, 1)])
        assert type(d.v) is int and d == Design(4, [(0, 1)])

    def test_rejects_empty_design_and_empty_block(self):
        with pytest.raises(ValueError):
            Design(4, [])
        with pytest.raises(ValueError):
            Design(4, [()])

    def test_more_than_64_points(self):
        d = Design(200, [(0, 199), (64, 130)])
        assert d.block_rows() == ((0, 199), (64, 130))

    def test_relabel_permutes_points(self):
        d = Design(4, [(0, 1), (0, 2)])
        sigma = Permutation((3, 2, 1, 0))
        r = d.relabel(sigma)
        assert r.block_rows() == ((1, 3), (2, 3))

    def test_relabel_rejects_degree_mismatch(self):
        d = Design(4, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="degree"):
            d.relabel(Permutation((1, 0, 2)))


@st.composite
def block_lists(draw):
    """v and equal-size blocks, some with points outside 0..v-1, repeated
    points or repeated blocks; possibly no blocks or blocks of width 0."""
    v = draw(st.integers(1, 8))
    width = draw(st.integers(0, 4))
    block = st.lists(st.integers(-2, v + 1), min_size=width, max_size=width)
    blocks = draw(st.lists(block, max_size=6))
    if blocks and draw(st.booleans()):
        blocks.append(list(reversed(blocks[0])))  # the same block again
    return v, width, blocks


def design_outcome(v, blocks):
    try:
        d = Design(v, blocks)
    except ValueError as exc:
        return str(exc)
    assert d.blocks.dtype == np.int64 and not d.blocks.flags.writeable
    assert d.block_rows() == tuple(map(tuple, d.blocks.tolist()))
    return d.block_rows()


class TestDesignFromArray:
    """Design takes a 2-d array as well as lists, with the same checks."""

    @given(block_lists())
    def test_array_and_lists_give_the_same_design_or_error(self, case):
        v, width, blocks = case
        as_lists = design_outcome(v, blocks)
        rows = np.array(blocks, dtype=np.int64).reshape(len(blocks), width)
        assert design_outcome(v, rows) == as_lists
        assert design_outcome(v, rows.astype(np.int16)) == as_lists
        # which check fails, in the order Design makes them
        if not blocks:
            assert "at least one block" in as_lists
        elif width == 0:
            assert "must not be empty" in as_lists
        elif any(not 0 <= p < v for blk in blocks for p in blk):
            assert "outside" in as_lists
        elif any(len(set(blk)) < width for blk in blocks):
            assert "repeated" in as_lists
        elif len({tuple(sorted(blk)) for blk in blocks}) < len(blocks):
            assert as_lists == "duplicate blocks"
        else:
            assert as_lists == tuple(sorted(tuple(sorted(blk)) for blk in blocks))

    def test_range_checked_before_any_sort_key(self, monkeypatch):
        def no_key(rows, bound):
            raise AssertionError("sort key built for an out-of-range point")

        monkeypatch.setattr(design, "row_keys", no_key)
        for rows in ([[0, 2**40]], [[-1, 0]], [[0, 4]]):
            with pytest.raises(ValueError, match="outside"):
                Design(4, np.array(rows))

    def test_non_integer_points_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            Design(4, np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match="integers"):
            Design(4, [(0.5, 1)])

    def test_uint64_points_past_int64_rejected(self):
        # stored as int64, 2**64 - 1 would wrap to -1; 2**63 - 1 still fits
        with pytest.raises(ValueError, match="at most 2\\*\\*63"):
            Design(2**64, np.array([[0, 2**64 - 1]], dtype=np.uint64))
        top = np.array([[2**63 - 1, 0]], dtype=np.uint64)
        assert Design(2**63, top).block_rows() == ((0, 2**63 - 1),)

    def test_v_past_2_to_63_rejected_before_any_sort_key(self):
        # no row key fits points past 8 bytes
        with pytest.raises(ValueError, match="at most 2\\*\\*63"):
            Design(2**65, [(0, 1)])


class TestDesignValue:
    """A Design is a value: one read-only block array, compared, hashed
    and pickled by v and its contents."""

    ROWS = [(3, 0, 1), (2, 4, 0), (1, 2, 3), (0, 1, 2)]

    def test_equal_and_equally_hashed_whatever_the_input_form(self):
        rng = random.Random(7)
        forms = []
        for _ in range(3):
            rows = [list(blk) for blk in self.ROWS]
            rng.shuffle(rows)
            for blk in rows:
                rng.shuffle(blk)
            forms += [rows, [tuple(blk) for blk in rows],
                      np.array(rows, dtype=np.uint8), np.array(rows, dtype=np.int64)]
        designs = [Design(5, form) for form in forms]
        assert all(d == designs[0] for d in designs)
        assert len({hash(d) for d in designs}) == 1
        assert len(set(designs)) == 1
        assert designs[0].block_rows() == ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 3))

    def test_another_v_is_another_design(self):
        assert Design(5, self.ROWS) != Design(6, self.ROWS)
        assert Design(5, self.ROWS) != Design(5, self.ROWS[:3])
        assert Design(5, self.ROWS) != self.ROWS

    def test_pickle_round_trip_stays_equal_and_read_only(self):
        # points past 255 travel as uint16, past 65535 as uint32
        for d in (Design(5, self.ROWS), Design(300, [(0, 299, 256)]),
                  Design(70000, [(0, 69999), (1, 65536)])):
            loaded = pickle.loads(pickle.dumps(d))
            assert loaded == d and hash(loaded) == hash(d)
            assert loaded.blocks.dtype == np.int64 and not loaded.blocks.flags.writeable

    def test_blocks_cannot_be_written(self):
        d = Design(5, self.ROWS)
        with pytest.raises(ValueError, match="read-only"):
            d.blocks[0, 0] = 4

    def test_input_array_is_not_aliased(self):
        rows = np.array([(0, 1, 2), (1, 2, 3)], dtype=np.int64)
        d = Design(5, rows)
        rows[0, 0] = 4
        assert d.block_rows() == ((0, 1, 2), (1, 2, 3))


@st.composite
def distinct_blocks(draw):
    """v and distinct k-subsets of 0..v-1 as lex-sorted tuples of sorted
    points; at v = 300 the blocks have 8 or 9 points, so their row keys
    are np.void (300**8 > 2**63)."""
    v = draw(st.sampled_from([5, 9, 40, 300]))
    k = draw(st.integers(8, 9) if v == 300 else st.integers(1, min(v, 6)))
    blocks = draw(st.sets(st.frozensets(st.integers(0, v - 1), min_size=k, max_size=k),
                          min_size=1, max_size=12))
    return v, sorted(tuple(sorted(blk)) for blk in blocks)


class TestCanonicalRows:
    """Canonical rows (each strictly increasing, their keys strictly
    increasing) take Design's short path and every other form the full one:
    both give the same design and keys, and each fault the same error."""

    @staticmethod
    def forms(rows, rng):
        """The rows as given, then shuffled with their points shuffled."""
        unsorted = [rng.sample(blk, len(blk)) for blk in rows]
        rng.shuffle(unsorted)
        return [np.array(rows), np.array(unsorted)]

    @given(distinct_blocks(), st.randoms(use_true_random=False))
    def test_every_form_gives_the_same_blocks_and_keys(self, case, rng):
        v, rows = case
        want = Design(v, rows)
        keys = want.keys.tolist()  # ints, or bytes for np.void keys
        assert keys == sorted(set(keys)) and not want.keys.flags.writeable
        assert np.array_equal(want.keys, kcombs.row_keys(want.blocks, v))
        assert want.block_rows() == tuple(rows)
        for form in self.forms(rows, rng) + [pickle.loads(pickle.dumps(want))]:
            d = Design(v, form) if isinstance(form, np.ndarray) else form
            assert d == want
            assert d.keys.dtype == want.keys.dtype and np.array_equal(d.keys, want.keys)

    @given(distinct_blocks(), st.randoms(use_true_random=False),
           st.sampled_from(["duplicate", "repeated", "outside"]))
    def test_every_form_raises_the_same_error(self, case, rng, fault):
        v, rows = case
        rows = [list(blk) for blk in rows]
        bad = rows[-1]
        if fault == "duplicate":
            rows.append(list(bad))  # lex order kept, keys no longer strictly increasing
            message = "duplicate blocks"
        elif fault == "repeated" and len(bad) > 1:
            bad[1] = bad[0]
            message = f"point repeated in block {tuple(sorted(bad))}"
        else:
            bad[-1] = v
            message = f"block {tuple(sorted(bad))} has a point outside 0..{v - 1}"
        for form in self.forms(rows, rng):
            with pytest.raises(ValueError) as raised:
                Design(v, form)
            assert str(raised.value) == message


class TestOrbitDesign:
    def test_fano_from_cyclic_difference_set(self):
        d = orbit_design(cyclic(7), FANO_BASE)
        assert (d.v, d.k, d.b) == (7, 3, 7)
        assert lambda_of(d, 2) == 1
        assert lambda_of(d, 1) == 3

    def test_non_design_orbit(self):
        d = orbit_design(cyclic(7), (0, 1, 2))
        assert d.b == 7
        assert lambda_of(d, 2) is None

    def test_base_block_is_validated(self):
        with pytest.raises(ValueError):
            orbit_design(cyclic(7), (0, 7))
        with pytest.raises(ValueError):
            orbit_design(cyclic(7), (2, 2))

    def test_degree_above_64(self):
        d = orbit_design(cyclic(100), (0, 1, 3))
        assert (d.v, d.k, d.b) == (100, 3, 100)
        assert d.block_rows()[0] == (0, 1, 3)
        assert lambda_of(d, 1) == 3

    def test_complete_design(self):
        G = PermGroup([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)])
        d = orbit_design(G, (0, 1))
        assert d.b == comb(5, 2)
        assert lambda_of(d, 2) == 1


class TestLambdaOf:
    @given(st.integers(3, 9), st.data())
    def test_matches_python_count(self, v, data):
        k = data.draw(st.integers(1, v - 1))
        t = data.draw(st.integers(1, k))
        blocks = data.draw(
            st.sets(st.sets(st.integers(0, v - 1), min_size=k, max_size=k).map(frozenset),
                    min_size=1, max_size=8)
        )
        d = Design(v, blocks)
        counts = Counter(sub for blk in d.block_rows() for sub in combinations(blk, t))
        uniform = len(counts) == comb(v, t) and len(set(counts.values())) == 1
        assert lambda_of(d, t) == (next(iter(counts.values())) if uniform else None)

    def test_nothing_ranked_unless_c_v_t_divides_b_c_k_t(self, monkeypatch):
        # counting all C(v, t) subsets would take 33.5 GiB at v = 3000, t = 3,
        # and the weight table alone about 0.5 s at v = 10**6, t = 2
        def no_ranks(rows, n, t):
            raise AssertionError("t-subsets ranked though lambda cannot be uniform")

        monkeypatch.setattr(kcombs, "subset_ranks", no_ranks)
        assert lambda_of(Design(3000, [(0, 1, 2)]), 3) is None
        assert lambda_of(Design(10**6, [(0, 1)]), 2) is None
        assert lambda_of(orbit_design(cyclic(7), (0, 1, 2, 4)), 3) is None  # 7*4 % 35

    @pytest.mark.parametrize("blocks_per_chunk", [1, 2, 7])
    def test_counted_a_chunk_of_blocks_at_a_time(self, monkeypatch, blocks_per_chunk):
        # PSL(2,8) is 3-transitive on its 9 points, so its orbits are 3-designs;
        # the 7 translates of {0, 1, 2} cover the pair {0, 1} twice, {0, 3} never
        G8, _ = projective_group(8)
        designs = [orbit_design(G8, (0, 1, 2, 3)), orbit_design(G8, (0, 1, 2, 4, 5)),
                   orbit_design(cyclic(7), FANO_BASE), orbit_design(cyclic(7), (0, 1, 2))]
        ranked = []

        def spy(rows, n, t):
            ranked.append(len(rows))
            return subset_ranks(rows, n, t)

        monkeypatch.setattr(kcombs, "subset_ranks", spy)
        for d in designs:
            for t in (1, 2, 3):
                monkeypatch.setattr(kcombs, "MAX_SUBSETS", comb(d.k, t) * blocks_per_chunk)
                ranked.clear()
                counts = Counter(sub for blk in d.block_rows() for sub in combinations(blk, t))
                uniform = len(counts) == comb(d.v, t) and len(set(counts.values())) == 1
                assert lambda_of(d, t) == (next(iter(counts.values())) if uniform else None)
                assert sum(ranked) in (0, d.b) and max(ranked, default=0) <= blocks_per_chunk

    def test_is_the_uniformity_of_coverage(self, monkeypatch):
        d = orbit_design(cyclic(7), FANO_BASE)
        monkeypatch.setattr(kcombs, "coverage", lambda rows, n, t: np.full(comb(n, t), 3))
        assert lambda_of(d, 2) == 3
        monkeypatch.setattr(kcombs, "coverage", lambda rows, n, t: np.arange(comb(n, t)))
        assert lambda_of(d, 2) is None

    def test_t_outside_1_to_k_rejected(self):
        d = orbit_design(cyclic(7), FANO_BASE)
        for t in (0, 4):
            with pytest.raises(ValueError):
                lambda_of(d, t)

    def test_blocks_of_more_than_255_points(self):
        assert lambda_of(Design(256, [tuple(range(256))]), 1) == 1
        # the complete 2-(257, 256, 255) design: every 256-subset of 257 points
        complete = Design(257, [tuple(p for p in range(257) if p != x) for x in range(257)])
        assert lambda_of(complete, 2) == 255

    def test_one_block_bound_is_checked_before_the_counter(self):
        # each of the 314 blocks of 313 points holds C(313, 3) > MAX_SUBSETS
        # triples; a counter over all C(314, 3) triples would take 39 MB
        complete = Design(314, [tuple(p for p in range(314) if p != x) for x in range(314)])
        tracemalloc.start()
        try:
            with pytest.raises(BoundError, match="block of 313 points"):
                lambda_of(complete, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_block_with_too_many_t_subsets_is_refused(self):
        with pytest.raises(BoundError, match=r"block of 256 points has 174792640 4-subsets"):
            lambda_of(Design(256, [tuple(range(256))]), 4)


class TestFlagTransitivity:
    def test_fano_under_cyclic_group_is_not_ft(self):
        d = orbit_design(cyclic(7), FANO_BASE)
        assert not is_flag_transitive(cyclic(7), d)

    def test_fano_under_full_automorphisms_is_ft(self):
        # generators of the order-168 collineation group of the Fano plane
        g1 = parse_cycles("(1,2,3,4,5,6,7)", 7)
        g2 = parse_cycles("(2,3)(4,7)", 7)
        G = PermGroup([g1, g2])
        assert G.order() == 168
        d = orbit_design(cyclic(7), FANO_BASE)
        assert is_flag_transitive(G, d)

    def test_flag_at_the_first_base_point_builds_no_chain(self, monkeypatch):
        # PSL(2,13)'s base starts at 1, off the first point of the first
        # block {0}: the flag is taken at 1, whose stabilizer is the tail of
        # the chain the group holds, so no Schreier-Sims step runs
        G, _ = projective_group(13)
        assert G.base[0] == 1
        d = orbit_design(G, [0])
        adds = []
        add = permcore._Chain.add
        monkeypatch.setattr(permcore._Chain, "add", lambda chain, g: adds.append(g) or add(chain, g))
        assert is_flag_transitive(G, d)
        assert adds == []

    def test_non_invariant_group_rejected(self):
        # every generator is checked: a transposition alone, or after the
        # rotation that preserves the plane
        d = orbit_design(cyclic(7), FANO_BASE)
        rotation, swap = parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(1,2)", 7)
        for H in (PermGroup([swap]), PermGroup([rotation, swap])):
            with pytest.raises(ValueError, match="does not preserve the block set"):
                is_flag_transitive(H, d)


@st.composite
def group_and_base(draw):
    """A group on 2..8 points from 1-3 random generators, and a base block in
    no particular order."""
    n = draw(st.integers(2, 8))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    base = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return PermGroup([Permutation(g) for g in gens]), tuple(base)


@pytest.fixture(scope="class", params=["chain", "closure"])
def enumeration(request):
    """Block orbits enumerated down the stabilizer chain, as every group in
    these tests allows, or by generator closure, forced by a subset bound
    that no |G| * k meets."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "closure":
            mp.setattr(kcombs, "MAX_SUBSETS", 0)
        yield request.param


class TestAgainstOracles:
    """The numpy orbit design and flag orbits against the breadth-first
    walks in tests/oracles.py, by either enumeration of a block orbit."""

    @given(group_and_base())
    def test_orbit_design(self, enumeration, case):
        G, base = case
        assert orbit_design(G, base) == oracles.orbit_design(G, base)

    @pytest.mark.parametrize("gens,degree,base,b", [
        ((), 5, (3, 1), 1),  # the identity: no chain levels, the base block alone
        (("(1,2,3)", "(4,5)"), 6, (0, 3), 6),  # intransitive: orbits {0,1,2}, {3,4}, {5}
        (("(1,2,3)", "(4,5)"), 6, (0, 1, 5), 3),
        (("(1,2,3)", "(4,5)"), 6, (5,), 1),
    ], ids=["identity", "intransitive-6", "intransitive-3", "intransitive-fixed"])
    def test_small_groups(self, enumeration, gens, degree, base, b):
        G = PermGroup([parse_cycles(g, degree) for g in gens]
                      or [Permutation.identity(degree)])
        d = orbit_design(G, base)
        assert d.b == b and d == oracles.orbit_design(G, base)
        assert is_flag_transitive(G, d) == oracles.is_flag_transitive(G, d)
        how = design._orbit_rows(G, d.blocks[:1])[1]
        assert how.startswith({"chain": "chain levels", "closure": "generator closure"}[enumeration])
        if not gens and enumeration == "chain":
            assert how == "chain levels with transversals []"

    def test_base_block_off_the_chain_base(self, enumeration):
        # PSL(2,13) on 14 points, base (1, 2, 0): a block meeting no base
        # point is still carried along every level
        G, _ = projective_group(13)
        base = tuple(p for p in range(14) if p not in G.base)[:5]
        d = orbit_design(G, base)
        assert d == oracles.orbit_design(G, base)
        assert d.b == 182  # the 5-set (3..7) is stabilized by 6 of the 1092 elements
        assert is_flag_transitive(G, d) == oracles.is_flag_transitive(G, d)

    @given(group_and_base(), st.data())
    def test_flag_transitivity(self, enumeration, case, data):
        H, base = case
        d = orbit_design(H, base)
        # the design's own group, or a random one that need not preserve it
        G = H
        if data.draw(st.booleans()):
            gens = data.draw(st.lists(st.permutations(range(H.degree)), min_size=1, max_size=3))
            G = PermGroup([Permutation(g) for g in gens])
        try:
            want = oracles.is_flag_transitive(G, d)
        except ValueError:
            with pytest.raises(ValueError, match="does not preserve"):
                is_flag_transitive(G, d)
        else:
            assert is_flag_transitive(G, d) == want


class TestRepresentatives:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_subset_orbits(self, k):
        G = PermGroup([parse_cycles("(1,2,3)(4,5)", 6), parse_cycles("(1,4)", 6)])
        reps = list(representatives(G, k))
        so = subset_orbits(G, k)
        expect = [tuple(so.rows[r]) for r in so.rep_ranks]
        assert reps == expect

    def test_reps_are_lex_least_and_sorted(self):
        G = cyclic(9)
        reps = list(representatives(G, 3))
        assert reps == sorted(reps)
        all_seen = set()
        for rep in reps:
            orb = block_orbit(G, rep)
            assert rep == min(orb)
            all_seen |= orb
        assert len(all_seen) == comb(9, 3)

    def test_capacity_guard(self):
        G = PermGroup([Permutation(tuple(range(1, 60)) + (0,))])
        with pytest.raises(ValueError):
            next(representatives(G, 20))


class TestBurnside:
    @given(st.permutations(range(8)), st.integers(1, 4))
    def test_fixed_k_subsets_counts_fixed_sets(self, images, k):
        p = Permutation(tuple(images))
        brute = sum(
            1
            for sub in combinations(range(8), k)
            if tuple(sorted(p.images[x] for x in sub)) == sub
        )
        assert fixed_k_subsets(p, k) == brute

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_burnside_matches_scan(self, k):
        G = PermGroup([parse_cycles("(1,2,3,4,5,6)", 8), parse_cycles("(7,8)", 8)])
        assert count_orbits_burnside(G, k) == subset_orbits(G, k).orbit_count


class TestClassify:
    def test_fano_classification_merges_mirror(self):
        # C7 has 5 orbits of 3-subsets; the two difference sets give
        # isomorphic Fano planes and must merge into a single class
        classes = classify(cyclic(7), 3, 2)
        assert len(classes) == 1
        cls = classes[0]
        assert cls.lam == 1
        assert cls.b == 7
        assert cls.base == FANO_BASE
        assert len(cls.orbit_reps) == 2
        assert set(cls.orbit_reps) == {(0, 1, 3), (0, 1, 5)}

    def test_trivial_parameters_yield_no_classes(self):
        assert classify(cyclic(7), 7, 2) == []  # k = v
        assert classify(cyclic(7), 2, 2) == []  # t = k

    def test_t_below_1_rejected(self):
        for t in (0, -1):
            with pytest.raises(ValueError, match="t must be >= 1"):
                classify(cyclic(7), 3, t)

    def test_complete_design_excluded(self):
        # S5 on 2-subsets: single orbit = complete design, excluded as trivial
        G = PermGroup([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)])
        assert classify(G, 2, 1) == []

    def test_classes_sorted_by_lambda_then_base(self):
        G = cyclic(13)
        classes = classify(G, 4, 2)
        keys = [(c.lam, c.base) for c in classes]
        assert keys == sorted(keys)

    def test_t3_on_small_3_homogeneous_group(self):
        # PGL(2,5) on the projective line is 3-homogeneous: every 4-subset
        # orbit that forms a 3-design shows a valid lambda_3
        from blockdesigns.grouplib import projective_group

        G, _ = projective_group(5, "socle")
        classes = classify(G, 4, 3)
        for cls in classes:
            d = orbit_design(G, cls.base)
            assert lambda_of(d, 3) == cls.lam

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_no_3_designs_on_36_points(self, name, monkeypatch, six_subset_orbits):
        # the paper's t = 3 claim: no orbit of 6-subsets is a 3-design.
        # Divisibility answers it without a scan: a 3-(36,6,lambda) design
        # has a multiple of 714 blocks, and 504 and 1512 are not multiples
        def no_scan(*args):
            raise AssertionError("classify scanned k-subsets")

        with monkeypatch.context() as m:
            m.setattr(design, "subset_orbits", no_scan)
            assert classify(builtin(name), 6, 3) == []

        # and exhaustively: lambda_3 is not uniform on any orbit
        so = six_subset_orbits(name)
        triples = np.array(list(combinations(range(6), 3)))
        for i in range(so.orbit_count):
            a, b, c = np.moveaxis(so.orbit_rows(i).astype(np.int64)[:, triples], 2, 0)
            colex = a + b * (b - 1) // 2 + c * (c - 1) * (c - 2) // 6
            counts = np.bincount(colex.ravel(), minlength=comb(36, 3))
            assert counts.min() < counts.max()

    def test_block_count_step_is_least_integral_block_count(self):
        for v in range(2, 16):
            for k in range(1, v):
                for t in range(1, k + 1):
                    least = next(
                        b for b in count(1)
                        if all(b * comb(k, s) % comb(v, s) == 0 for s in range(1, t + 1))
                    )
                    assert block_count_step(v, k, t) == least, (v, k, t)
        # the cases named in this class and in the paper's t = 3 question
        assert [block_count_step(*c) for c in ((12, 5, 4), (14, 5, 2), (36, 5, 3), (36, 6, 3))] == [
            396, 182, 4284, 714]

    @pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_gate_against_ungated_oracle(self, q, k):
        # the gate fires at (q, k, t) = (11, 5, 4): a 4-(12,5,lambda) design
        # has a multiple of 396 blocks and |PSL(2,11)| = 660; at (13, 5, 2)
        # it does not (182 divides 1092) and three classes are found. Beside
        # the transitive group, two intransitive ones: one fixed point added,
        # so no t-subset orbit gets a whole share of a block, and for q <= 7
        # the group on two copies of the line, whose 1-designs take k/2
        # points from each copy
        G, _ = projective_group(q)
        n = G.degree
        groups = [G, PermGroup([Permutation(g.images + (n,)) for g in G.generators])]
        if q <= 7:
            groups.append(PermGroup([Permutation(g.images + tuple(n + x for x in g.images))
                                     for g in G.generators]))
        for H in groups:
            for t in range(1, k):
                got = sorted(rep for c in classify(H, k, t) for rep in c.orbit_reps)
                assert got == oracles.ungated_classify(H, k, t), (H.degree, t)

    def test_no_scan_when_t_is_at_least_v_minus_k(self, monkeypatch):
        # then only the complete design is a t-design, whatever the group.
        # Divisibility rules out none of these; at v = 26, t = 10 a scan of
        # the C(26, 10) 10-subsets would pass kcombs.MAX_SUBSETS
        scanned = []

        def counted(G, k):
            scanned.append(k)
            return subset_orbits(G, k)

        monkeypatch.setattr(design, "subset_orbits", counted)
        for q, k, t in ((7, 5, 3), (7, 6, 2), (8, 6, 3), (8, 7, 2), (25, 23, 10)):
            G, _ = projective_group(q)
            assert G.order() % block_count_step(q + 1, k, t) == 0
            assert classify(G, k, t) == []
        assert scanned == []

    def test_vertex_bound_refused_before_any_scan(self, monkeypatch):
        # PSL(2,101) on 102 points, k = 4: every 2-design has a multiple of
        # 5151 blocks, and 102 + 5151 passes the certificate search's bound
        def unscanned(G, k):
            raise AssertionError("subset_orbits called")

        monkeypatch.setattr(design, "subset_orbits", unscanned)
        G, _ = projective_group(101)
        assert block_count_step(102, 4, 2) == 5151
        assert G.order() == 515_100 and G.order() % 5151 == 0
        message = (r"^102 points \+ 5151 blocks \(the least block count of a 2-design with "
                   r"blocks of 4 points\) exceeds the 5000-vertex bound$")
        with pytest.raises(BoundError, match=message):
            classify(G, 4, 2)
        # the same refusal from the group order alone, as the command line asks
        with pytest.raises(BoundError, match=message):
            no_orbit_design(515_100, 102, 4, 2)

    def test_subset_bound_refused_from_the_order_alone(self):
        # |PSL(2,251)| = 7,906,500 is a multiple of 10,542, the least block
        # count of a 2-(252,6,lambda) design, so divisibility rules nothing
        # out; C(252, 6) passes the scan's bound, which comes before the
        # vertex bound that 252 + 10,542 passes too
        assert 7_906_500 % block_count_step(252, 6, 2) == 0
        with pytest.raises(BoundError, match=rf"^the {comb(252, 6)} 6-subsets of 252 points "
                                             r"exceed the 5000000-subset bound of the orbit scan$"):
            no_orbit_design(7_906_500, 252, 6, 2)

    def test_builds_no_group(self, monkeypatch):
        # the group classified is the pruning group of every certificate;
        # stabilizers read off its chain and groups it is extended to are
        # groups, but no group is built from generators alone
        G = builtin("psl28_paper36")
        built = []
        init = PermGroup.__init__

        def counted(self, generators, *, _chain=None, _parent=None):
            if _chain is None and _parent is None:
                built.append(generators)
            init(self, generators, _chain=_chain, _parent=_parent)

        monkeypatch.setattr(PermGroup, "__init__", counted)
        assert len(classify(G, 6, 2, workers=1)) == 46
        assert built == []


class TestDeterminism:
    def test_worker_count_does_not_change_result(self):
        G = cyclic(13)
        one = classify(G, 4, 2, workers=1)
        two = classify(G, 4, 2, workers=2)
        assert [(c.base, c.lam, c.b, c.certificate.data, c.orbit_reps) for c in one] == [
            (c.base, c.lam, c.b, c.certificate.data, c.orbit_reps) for c in two
        ]

    @pytest.mark.parametrize("workers,cpus,pool", [
        (10**6, 3, [3]),  # capped by the CPUs
        (10**6, 64, [4]),  # by the 4 orbit designs to certify
        (2, 64, [2]),
        (10**6, None, []),  # one CPU: no pool at all
    ])
    def test_pool_size_is_capped(self, monkeypatch, workers, cpus, pool):
        sizes = []

        class SerialPool:
            """Records the pool size asked for; maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(design, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(design.os, "cpu_count", lambda: cpus)
        G = cyclic(13)
        assert classify(G, 4, 2, workers=workers) == classify(G, 4, 2)
        assert sizes == pool


class TestHeadlineCertificates:
    """The certificates of the 46 and 330 classes, in class order, pinned as
    one sha256 each: any change to the canonical form or to the merging
    shows here."""

    @staticmethod
    def digest(classes):
        return sha256("\n".join(c.certificate.hexdigest for c in classes).encode()).hexdigest()

    def test_psl_classes(self, psl_classes):
        assert len(psl_classes) == 46
        assert self.digest(psl_classes) == (
            "e459f92e4f133334f99c744c2a2772a7785e4c77441d33743cddd590a3fe58fe"
        )

    def test_pgl_classes(self, pgl_classes):
        assert len(pgl_classes) == 330
        assert self.digest(pgl_classes) == (
            "fb3d8095c95b35e1228771e681c44e0b9dd2140ea143a86b692033bc89cd18a6"
        )

    def test_table2_labelings(self, psl_group):
        # the 46 Table 2 rows at the paper's labels, searched with no group:
        # the labeling (the first least leaf in depth-first order) depends
        # on how the search prunes and backjumps, the data only on the tree
        certs = [
            certificate(orbit_design(psl_group, tuple(p - 1 for p in base)))
            for base, _ in golden.TABLE2
        ]
        assert sha256(b"".join(c.data + bytes(c.labeling) for c in certs)).hexdigest() == (
            "66984ab1acc59a761ee10b580aa45414c00e98839b2c4a5dcdf63ebb9a38dbf3"
        )


class TestFieldBuiltGroups:
    """PSL(2,8) and PGammaL(2,8) built from the field, acting on the 36
    pairs of the projective line, give the classes of the hand-entered
    builtins: the same certificates, though the chains, generators and
    pruning stabilizers differ."""

    @pytest.mark.parametrize("variant,fixture,count", [
        ("socle", "psl_classes", 46),
        ("full", "pgl_classes", 330),
    ])
    def test_same_certificates_as_builtin(self, request, variant, fixture, count):
        G = pair_action(*projective_group(8, variant))[0]
        classes = classify(G, 6, 2, workers=1)
        assert len(classes) == count
        builtin_classes = request.getfixturevalue(fixture)
        assert sorted(c.certificate.data for c in classes) == sorted(
            c.certificate.data for c in builtin_classes
        )
