"""Subset ranking and the vectorized k-subset orbit scan."""

import tracemalloc
from functools import partial
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdesigns.kcombs import (
    BoundError,
    block_permutation,
    dense_ranks,
    digit_ranks,
    lex_combinations,
    orbit_labels,
    row_keys,
    subset_orbits,
    subset_ranks,
    unique_rows,
)
from blockdesigns.permcore import PermGroup, Permutation, parse_cycles
from oracles import block_orbit, rank_colex, rank_lex, unrank_lex
from oracles import subset_orbits as sorting_scan


@st.composite
def subset_cases(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    k = draw(st.integers(min_value=1, max_value=min(n, 6)))
    sub = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))))
    return n, k, sub


class TestRanking:
    @given(subset_cases())
    def test_lex_rank_roundtrip(self, case):
        n, k, sub = case
        r = rank_lex(n, k, sub)
        assert 0 <= r < comb(n, k)
        assert unrank_lex(n, k, r) == sub

    def test_lex_rank_is_lex_order(self):
        subs = list(combinations(range(7), 3))
        assert [rank_lex(7, 3, s) for s in subs] == list(range(len(subs)))

    def test_colex_rank_is_colex_order(self):
        subs = sorted(combinations(range(7), 3), key=lambda s: s[::-1])
        assert [rank_colex(s) for s in subs] == list(range(len(subs)))

    @given(subset_cases())
    def test_colex_rank_independent_of_n(self, case):
        _n, _k, sub = case
        assert rank_colex(sub) == sum(comb(x, i + 1) for i, x in enumerate(sub))

    def test_unrank_validates(self):
        with pytest.raises(ValueError):
            unrank_lex(6, 3, comb(6, 3))

    @given(st.integers(3, 12), st.data())
    def test_subset_ranks_match_oracle(self, n, data):
        k = data.draw(st.integers(1, n))
        t = data.draw(st.integers(0, k))
        blocks = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k),
                                    min_size=1, max_size=5))
        rows = np.array([sorted(b) for b in blocks], dtype=np.int64)
        ranks = subset_ranks(rows, n, t)
        assert ranks.shape == (len(rows), comb(k, t))
        assert ranks.tolist() == [[rank_lex(n, t, sub) for sub in combinations(row, t)]
                                  for row in rows.tolist()]

    @pytest.mark.parametrize("n, k", [(68, 66), (70, 67)])
    def test_ranks_where_unread_weights_would_pass_int64(self, n, k):
        # C(n-1-x, k-i) for a point x that no sorted subset has at position i
        # can pass 2**63 (C(67, 33) at n = 68); the rank never reads it
        rows = lex_combinations(n, k)
        sample = np.arange(0, len(rows), 37)  # all 54,740 rows at n = 70 take about 1 s
        assert (subset_ranks(rows[sample], n, k)[:, 0] == sample).all()
        # the orbit scan's ranks, under the trivial group: every subset alone
        so = subset_orbits(PermGroup([Permutation(tuple(range(n)))]), k)
        assert (so.labels == np.arange(len(rows))).all()

    @pytest.mark.parametrize("t", [2, 3])
    def test_subset_ranks_hold_one_column(self, t):
        # the rank array plus one gathered weight column; gathering all t
        # (b, C(k,t)) point columns before ranking would peak near t + 2
        # rank arrays
        rng = np.random.default_rng(7)
        n, k = 100, 40 if t == 2 else 16
        rows = np.sort(np.array([rng.choice(n, k, replace=False) for _ in range(60)]), axis=1)
        tracemalloc.start()
        ranks = subset_ranks(rows, n, t)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2.5 * ranks.nbytes
        assert ranks[0].tolist() == [rank_lex(n, t, sub) for sub in combinations(rows[0], t)]


class TestLexCombinations:
    @pytest.mark.parametrize(
        "n,k",
        [(5, 2), (8, 3), (10, 4), (6, 6), (9, 1), (9, 8), (9, 9), (1, 1), (4, 0), (3, 4)],
    )
    def test_rows_match_itertools(self, n, k):
        rows = lex_combinations(n, k)
        assert rows.shape == (comb(n, k), k)
        assert rows.dtype == np.uint8
        expect = np.array(list(combinations(range(n), k)), dtype=np.uint8)
        assert np.array_equal(rows, expect.reshape(comb(n, k), k))

    def test_no_intermediate_blowup(self):
        # C(40, 20) partial rows would be 1.4e11; only C(n-k+j, j) per size j
        # may be built, here j + 1 rows
        tracemalloc.start()
        rows = lex_combinations(40, 39)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20
        assert rows.shape == (40, 39)
        for r in range(40):
            assert rows[r].tolist() == [x for x in range(40) if x != 39 - r]

    def test_degree_limit(self):
        # the orbit scan stores points as uint8; the rows themselves do not
        # need to, since the t-subset positions of a block of 256 or more
        # points are rows of lex_combinations too
        with pytest.raises(BoundError):
            subset_orbits(PermGroup([Permutation(tuple(range(1, 256)) + (0,))]), 2)
        rows = lex_combinations(300, 2)
        assert rows.dtype == np.uint16
        assert rows.tolist() == [list(c) for c in combinations(range(300), 2)]


def brute_orbits(G, k):
    """Reference orbit partition: the lex-least member and size of each
    orbit, walked by the block-orbit oracle."""
    seen = set()
    orbits = []
    for sub in combinations(range(G.degree), k):
        if sub not in seen:
            orbit = block_orbit(G, sub)
            seen |= orbit
            orbits.append((sub, len(orbit)))
    return orbits


@st.composite
def blocks_and_map(draw):
    """Distinct lex-sorted blocks of one size on n points, and a point
    permutation; half the time the blocks are closed under it, so both
    preserved and moved block sets occur."""
    n = draw(st.integers(min_value=2, max_value=8))
    k = draw(st.integers(min_value=1, max_value=n))
    images = draw(st.permutations(range(n)))
    blocks = draw(st.sets(st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(frozenset),
                          min_size=1, max_size=comb(n, k)))
    if draw(st.booleans()):
        blocks = set().union(*(block_orbit(PermGroup([Permutation(images)]), b) for b in blocks))
    rows = np.array(sorted(tuple(sorted(b)) for b in blocks), dtype=np.int64).reshape(-1, k)
    return rows, np.array(images)


@st.composite
def rows_near_int64_edge(draw):
    """Rows with entries in 0..bound-1 and a width within two of the largest
    one whose base-bound value fits an int64, so both key kinds occur; rows
    repeat, so ties show whether the order is stable."""
    bound = draw(st.one_of(st.integers(1, 300), st.integers(2**8, 2**17),
                           st.integers(2**31, 2**40)))
    edge = 63 if bound == 1 else next(w for w in range(1, 64) if bound ** (w + 1) >= 2**63)
    width = draw(st.integers(max(1, edge - 2), edge + 2))
    row = st.lists(st.integers(0, bound - 1), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return np.array([pool[i] for i in picks], dtype=np.int64), bound


def lex_order(rows, bound):
    """The stable row order every lexicographic sort in the package uses."""
    return np.argsort(row_keys(rows, bound), kind="stable")


class TestLexOrder:
    @given(rows_near_int64_edge())
    def test_matches_lexsort(self, case):
        rows, bound = case
        assert np.array_equal(lex_order(rows, bound), np.lexsort(rows.T[::-1]))

    @pytest.mark.parametrize("width", [62, 63])  # 2**62 fits an int64 key, 2**63 does not
    def test_both_key_kinds_at_the_edge(self, width):
        rng = np.random.default_rng(width)
        rows = rng.integers(0, 2, size=(200, width))
        rows[100:] = rows[:100]  # every row twice
        assert np.array_equal(lex_order(rows, 2), np.lexsort(rows.T[::-1]))
        assert np.array_equal(lex_order(rows.astype(np.uint8), 2), np.lexsort(rows.T[::-1]))

    def test_numpy_bound_does_not_wrap(self):
        rows = np.array([[1] * 20, [0] * 19 + [255]])
        assert lex_order(rows, np.int64(256)).tolist() == [1, 0]


@st.composite
def label_multisets(draw):
    """Rows of points and a labeling of the points, for digit_ranks(): with
    most = 1 the labeling is a permutation of up to 200 points (past the 63
    labels of one key word), else any coloring of up to 60 points, most the
    row width (up to 8: a word holds 22 labels at width 6). Rows repeat, so
    equal multisets occur, and are unsorted."""
    if draw(st.booleans()):
        most = 1
        v = draw(st.integers(1, 200))
        labels = draw(st.permutations(range(v)))
        width = draw(st.integers(1, min(v, 8)))
        row = st.lists(st.integers(0, v - 1), min_size=width, max_size=width, unique=True)
    else:
        most = width = draw(st.integers(1, 8))
        v = draw(st.integers(1, 60))
        labels = draw(st.lists(st.integers(0, v - 1), min_size=v, max_size=v))
        row = st.lists(st.integers(0, v - 1), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    rows = np.array([pool[i] for i in picks], dtype=np.int64).reshape(-1, width)
    labels = np.array(labels, dtype=np.int64)
    return rows, labels, int(labels.max()) + 1, most


def sorted_row_ranks(rows):
    """Lex rank of each row among the distinct rows, by sorting them."""
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


class TestDigitRanks:
    @given(label_multisets())
    def test_ranks_match_sorted_rows(self, case):
        rows, labels, count, most = case
        keys, ranks, distinct = digit_ranks(rows.T, labels, count, most)
        want = sorted_row_ranks(np.sort(labels[rows], axis=1))
        assert np.array_equal(ranks, want)
        assert distinct == want.max() + 1
        # one word per 63 labels at most = 1, per 22 at most = 6
        digits = next(d for d in range(63, 0, -1) if (most + 1) ** d <= 2**63)
        assert keys.shape == (-(-count // digits), len(rows))

    @pytest.mark.parametrize("count, most", [(64, 1), (130, 1), (23, 6), (45, 6)])
    def test_ranks_across_key_words(self, count, most):
        rng = np.random.default_rng(count)
        width = most if most > 1 else 5
        labels = np.arange(count)
        if most == 1:
            rows = np.array([rng.choice(count, width, replace=False) for _ in range(300)])
        else:
            rows = rng.integers(0, count, size=(300, width))
            rows[:, 1:] = np.where(rng.random((300, width - 1)) < 0.5, rows[:, :1], rows[:, 1:])
        rows[150:] = rows[:150]  # every multiset twice
        keys, ranks, _ = digit_ranks(rows.T, labels, count, most)
        assert len(keys) > 1
        assert np.array_equal(ranks, sorted_row_ranks(np.sort(rows, axis=1)))

    @given(rows_near_int64_edge())
    def test_dense_ranks_on_wide_keys(self, case):
        # the first column leads, the rest compared by its row key: an int64
        # or, past an int64, a byte string
        rows, bound = case
        ranks, distinct = dense_ranks([rows[:, 0], row_keys(rows[:, 1:], bound)])
        want = sorted_row_ranks(rows)
        assert np.array_equal(ranks, want)
        assert distinct == want.max() + 1


@st.composite
def wide_blocks_and_map(draw, sizes=st.integers(2, 150), max_k=4):
    """Distinct lex-sorted blocks of at most max_k points on n points, n
    drawn from sizes, and a permutation of order dividing 6, made of cycles
    of at most 3 points; half the time the blocks are closed under it. Over
    150 points the cycles come from a Random seeded by one draw, since a
    draw per point is slow there (about 5 s a test at n = 998)."""
    n = draw(sizes)
    if n <= 150:
        points = draw(st.permutations(range(n)))
        length = partial(draw, st.integers(1, 3))
    else:
        rnd = draw(st.randoms(use_true_random=True))
        points = rnd.sample(range(n), n)
        length = partial(rnd.randint, 1, 3)
    images = list(range(n))
    i = 0
    while i < n:
        cycle = points[i:i + length()]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        i += len(cycle)
    k = draw(st.integers(1, min(n, max_k)))
    blocks = draw(st.sets(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)
                          .map(frozenset), min_size=1, max_size=20))
    if draw(st.booleans()):
        blocks = set().union(*(block_orbit(PermGroup([Permutation(images)]), b) for b in blocks))
    rows = np.array(sorted(tuple(sorted(b)) for b in blocks), dtype=np.int64).reshape(-1, k)
    return rows, np.array(images)


def _check_block_permutation(rows, images):
    # against a lookup of each sorted image row among the blocks
    index = {tuple(r): j for j, r in enumerate(rows.tolist())}
    want = [index.get(tuple(sorted(images[r].tolist()))) for r in rows]
    perm = block_permutation(images, rows)
    if None in want:
        assert perm is None
    else:
        assert perm.tolist() == want


def _check_unique_rows(rows, bound):
    # against the sorted set of rows and a scan for each one's first copy
    distinct, first = unique_rows(rows, bound)
    listed = [tuple(r) for r in rows.tolist()]
    want = sorted(set(listed))
    assert [tuple(r) for r in distinct.tolist()] == want
    assert first.tolist() == [listed.index(r) for r in want]


def _images_then_blocks(rows, images):
    """The row-sorted images of the blocks, then the blocks: a block whose
    preimage is a block occurs twice, its first copy an image."""
    return np.concatenate([np.sort(images[rows], axis=1), rows]), len(images)


class TestUniqueRows:
    @given(blocks_and_map())
    def test_int_keys(self, case):
        _check_unique_rows(*_images_then_blocks(*case))

    # one int64 key while n**k < 2**63, else np.void keys: from k = 11, 10
    # and 7 at these n
    @given(wide_blocks_and_map(st.sampled_from([64, 100, 998]), max_k=12))
    def test_void_keys(self, case):
        _check_unique_rows(*_images_then_blocks(*case))

    @given(rows_near_int64_edge())
    def test_repeated_rows_at_the_key_edge(self, case):
        _check_unique_rows(*case)


class TestBlockImageKernel:
    @given(st.one_of(blocks_and_map(), wide_blocks_and_map()))
    def test_block_permutation_matches_lookup(self, case):
        _check_block_permutation(*case)

    # row keys of the images: one int64 word while n**k < 2**63, bytes from
    # k = 11, 10 and 7 at these n
    @given(wide_blocks_and_map(st.sampled_from([64, 100, 998]), max_k=12))
    def test_block_permutation_matches_lookup_over_many_points(self, case):
        _check_block_permutation(*case)

    @pytest.mark.parametrize("n,k", [(64, 2), (100, 10), (998, 2), (998, 7)])
    def test_block_permutation_over_many_points_on_a_cycle(self, n, k):
        # the blocks {i, ..., i+k-1} mod n: a rotation preserves them, the
        # transposition (0 1) moves {1, ..., k} onto a non-block
        rows = np.sort([[(i + j) % n for j in range(k)] for i in range(n)], axis=1)
        rows = rows[np.lexsort(rows.T[::-1])]
        rotation = np.roll(np.arange(n), -1)
        blocks = [tuple(r) for r in rows.tolist()]
        assert block_permutation(rotation, rows).tolist() == [
            blocks.index(tuple(sorted(rotation[r].tolist()))) for r in rows]
        swap = np.arange(n)
        swap[[0, 1]] = [1, 0]
        assert block_permutation(swap, rows) is None

    @given(st.integers(1, 30).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=0, max_size=3)
        .map(lambda maps: (n, maps))))
    def test_orbit_labels_are_orbit_minima(self, case):
        count, maps = case
        labels = orbit_labels([np.array(m, dtype=np.int64) for m in maps], count)
        for i in range(count):
            orbit, frontier = {i}, [i]
            while frontier:
                frontier = {m[x] for x in frontier for m in maps} - orbit
                orbit |= frontier
            assert labels[i] == min(orbit)

    def test_orbit_labels_wait_for_every_map(self):
        # after the first round the labels are equal along the first map's
        # edges but not yet along the second's
        maps = [np.array([1, 3, 2, 5, 4, 0, 6]), np.array([0, 5, 6, 4, 2, 1, 3])]
        assert orbit_labels(maps, 7).tolist() == [0] * 7


@st.composite
def generator_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=1, max_value=3))
    return [Permutation(draw(st.permutations(range(n)))) for _ in range(count)]


def assert_same_scan(got, want):
    """Equal orbit scans: the same values in all six arrays (labels may be a
    narrower integer type)."""
    assert (got.n, got.k) == (want.n, want.k)
    for field in ("rows", "labels", "rep_ranks", "sizes", "_order", "_starts"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape, field
        assert np.array_equal(a, b), field
    assert got.rows.dtype == np.uint8


SMALL_GROUPS = [
    PermGroup([parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)]),
    PermGroup([parse_cycles("(1,2,3,4,5,6,7)", 7)]),
    PermGroup([parse_cycles("(1,2,3,4)", 6), parse_cycles("(5,6)", 6)]),
    PermGroup([parse_cycles("(1,2)(3,4)", 8), parse_cycles("(1,3)(2,4)", 8),
               parse_cycles("(5,6,7,8)", 8)]),
]


class TestSubsetOrbits:
    @pytest.mark.parametrize("G", SMALL_GROUPS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, G, k):
        so = subset_orbits(G, k)
        ref = brute_orbits(G, k)
        assert so.orbit_count == len(ref)
        got = sorted(
            (tuple(so.orbit_rows(i)[0]), so.sizes[i]) for i in range(so.orbit_count)
        )
        assert got == sorted(ref)

    @pytest.mark.parametrize("G", SMALL_GROUPS)
    def test_sizes_partition_total(self, G):
        so = subset_orbits(G, 2)
        assert int(so.sizes.sum()) == comb(G.degree, 2)

    def test_members_are_lex_sorted_blocks(self):
        G = SMALL_GROUPS[2]
        so = subset_orbits(G, 3)
        for i in range(so.orbit_count):
            rows = [tuple(r) for r in so.orbit_rows(i)]
            assert rows == sorted(rows)
            assert rows[0] == tuple(so.rows[so.rep_ranks[i]])

    def test_image_ranks_use_int64_weights(self, psl_group):
        # at k = 34 the weight table holds C(35, 17) > 2**31
        assert_same_scan(subset_orbits(psl_group, 34), sorting_scan(psl_group, 34))

    def test_degree36_k5_matches_oracle(self, psl_group):
        assert_same_scan(subset_orbits(psl_group, 5), sorting_scan(psl_group, 5))

    @settings(max_examples=60, deadline=None)
    @given(generator_sets(), st.data())
    def test_matches_sort_based_oracle(self, gens, data):
        n = gens[0].degree
        k = data.draw(st.integers(min_value=1, max_value=n))
        G = PermGroup(gens)
        assert_same_scan(subset_orbits(G, k), sorting_scan(G, k))

    def test_degree36_orbit_count(self, psl_group):
        so = subset_orbits(psl_group, 2)
        # rank 5 action: four pair orbits
        assert so.orbit_count == 4
        assert sorted(int(s) for s in so.sizes) == [126, 126, 126, 252]
