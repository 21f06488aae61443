"""Canonical certificates and isomorphism decisions."""

import logging
import random
from collections import Counter, defaultdict
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdesigns import golden, isomorph, kcombs
from blockdesigns.design import Design, orbit_design
from blockdesigns.isomorph import (
    _coverage_spectrum,
    are_isomorphic,
    certificate,
    isomorphism_witness,
)
from blockdesigns.permcore import PermGroup, Permutation, parse_cycles

from oracles import (
    brute_force_isomorphic,
    fixpoint_refine,
    leaf_bytes,
    two_certificate_witness,
    unpruned_certificate,
)

# Table 2 rows of b = 504, 252 and 84 blocks, some reaching 9 search nodes, some 7
TABLE2_ROWS = (0, 11, 32, 37, 42, 43)


def table2_design(G, row):
    base, _ = golden.TABLE2[row]
    return orbit_design(G, tuple(p - 1 for p in base))


FANO = Design(7, [((0 + i) % 7, (1 + i) % 7, (3 + i) % 7) for i in range(7)])
# the affine plane AG(2,3): point (x, y) is 3x + y; lines y = mx + c and x = c
AG23 = Design(
    9,
    [[3 * x + (m * x + c) % 3 for x in range(3)] for m in range(3) for c in range(3)]
    + [[3 * c + y for y in range(3)] for c in range(3)],
)
K63 = Design(6, combinations(range(6), 3))


def relabeled(d, rng):
    images = list(range(d.v))
    rng.shuffle(images)
    return d.relabel(Permutation(images))


def restricted(images, v):
    """A permutation of 0..v-1 from a sampled permutation of a larger range:
    the points in the order the sample ranks them."""
    return Permutation(tuple(sorted(range(v), key=lambda i: images[i])))


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the
    one-entry list that holds the count."""
    count, fn = [0], getattr(owner, name)

    def wrapper(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return count


@st.composite
def random_designs(draw):
    v = draw(st.integers(4, 8))
    k = draw(st.integers(2, v - 1))
    nblocks = draw(st.integers(2, 6))
    blocks = draw(
        st.sets(
            st.sets(st.integers(0, v - 1), min_size=k, max_size=k).map(
                lambda s: tuple(sorted(s))
            ),
            min_size=nblocks,
            max_size=nblocks,
        )
    )
    return Design(v, blocks)


@st.composite
def small_designs(draw):
    """Designs on at most 9 points: a few random blocks, or the union of the
    orbits of up to two of them under one random permutation, which gives
    the design symmetry for the search to find."""
    v = draw(st.integers(4, 9))
    k = draw(st.integers(2, v - 2))
    subsets = st.sets(st.integers(0, v - 1), min_size=k, max_size=k).map(
        lambda s: tuple(sorted(s))
    )
    blocks = draw(st.lists(subsets, min_size=2, max_size=6, unique=True))
    if draw(st.booleans()):
        g = draw(st.permutations(range(v)))
        orbits = set()
        for blk in blocks[:2]:
            while blk not in orbits:
                orbits.add(blk)
                blk = tuple(sorted(g[p] for p in blk))
        blocks = orbits
    return Design(v, blocks)


class TestCertificate:
    def test_equal_for_relabelings(self):
        sigma = parse_cycles("(1,3,5)(2,7)", 7)
        assert certificate(FANO).data == certificate(FANO.relabel(sigma)).data

    @given(random_designs(), st.permutations(range(8)))
    def test_relabeling_invariance(self, d, images):
        sigma = restricted(images, d.v)
        assert certificate(d).data == certificate(d.relabel(sigma)).data

    def test_labeling_is_a_valid_witness(self):
        cert = certificate(FANO)
        lab = cert.labeling
        assert sorted(lab) == list(range(7))
        relabeled = FANO.relabel(Permutation(lab))
        assert certificate(relabeled).data == cert.data

    def test_distinguishes_fano_from_near_miss(self):
        rows = list(FANO.block_rows())
        rows[-1] = (0, 1, 2)  # break the plane structure
        other = Design(7, set(rows))
        assert certificate(other).data != certificate(FANO).data

    def test_hexdigest_shape(self):
        h = certificate(FANO).hexdigest
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")

    def test_duplicate_blocks_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Design(4, ((0, 1), (1, 0)))

    def test_unequal_block_sizes_rejected(self):
        with pytest.raises(ValueError, match="one size"):
            Design(4, ((0, 1), (0, 1, 2)))

    def test_vertex_bound(self):
        from itertools import combinations

        big = Design(36, combinations(range(36), 3))  # 7140 blocks
        with pytest.raises(ValueError):
            certificate(big)

    def test_seeded_automorphisms_do_not_change_certificate(self):
        rot = parse_cycles("(1,2,3,4,5,6,7)", 7)
        assert certificate(FANO, PermGroup([rot])).data == certificate(FANO).data

    def test_non_automorphism_seed_rejected(self):
        swap = parse_cycles("(1,2)", 7)
        with pytest.raises(ValueError):
            certificate(FANO, PermGroup([swap]))

    def test_prebuilt_group_with_non_automorphism_rejected(self):
        rot = parse_cycles("(1,2,3,4,5,6,7)", 7)
        swap = parse_cycles("(1,2)", 7)
        with pytest.raises(ValueError, match="not an automorphism"):
            certificate(FANO, PermGroup([rot, swap]))

    def test_prebuilt_group_of_other_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            certificate(FANO, PermGroup([parse_cycles("(1,2,3,4,5,6,7)", 8)]))


class TestWitness:
    def test_witness_maps_blocks(self):
        sigma = parse_cycles("(1,7)(2,4,3)", 7)
        other = FANO.relabel(sigma)
        w = isomorphism_witness(FANO, other)
        assert w is not None
        assert FANO.relabel(w).block_rows() == other.block_rows()

    def test_no_witness_between_different_designs(self):
        other = Design(7, [(i, (i + 1) % 7, (i + 2) % 7) for i in range(7)])
        assert isomorphism_witness(FANO, other) is None

    def test_are_isomorphic_reflexive(self):
        assert are_isomorphic(FANO, FANO)

    def test_map_that_is_not_an_isomorphism_raises(self, monkeypatch):
        # a d2 labeling with two canonical labels swapped recovers a
        # transposition, which is no automorphism of the Fano plane
        labeling = list(certificate(FANO).labeling)
        labeling[0], labeling[1] = labeling[1], labeling[0]
        search = isomorph._search

        def wrong_leaf(design, group, goal=None):
            if goal is None:
                return search(design, group)
            return isomorph.Certificate(goal, tuple(labeling))

        monkeypatch.setattr(isomorph, "_search", wrong_leaf)
        with pytest.raises(AssertionError, match="not an isomorphism"):
            isomorphism_witness(FANO, FANO)


class TestGoalSearch:
    """isomorphism_witness stops d2's search at the first leaf that encodes
    like d1's certificate; the witness stays the one the two full
    certificates give."""

    @pytest.mark.parametrize("row", TABLE2_ROWS)
    def test_table2_relabelings_match_oracle(self, psl_group, row):
        rng = random.Random(row)
        d = table2_design(psl_group, row)
        for _ in range(2):
            d1, d2 = relabeled(d, rng), relabeled(d, rng)
            w = isomorphism_witness(d1, d2)
            assert w is not None
            assert w == two_certificate_witness(d1, d2)

    @pytest.mark.parametrize("d", [FANO, AG23], ids=["fano", "ag23"])
    @settings(max_examples=10)
    @given(images=st.permutations(range(9)), other=st.permutations(range(9)))
    def test_symmetric_relabelings_match_oracle(self, d, images, other):
        d1, d2 = d.relabel(restricted(images, d.v)), d.relabel(restricted(other, d.v))
        w = isomorphism_witness(d1, d2)
        assert w is not None
        assert w == two_certificate_witness(d1, d2)

    @given(small_designs(), small_designs(), st.permutations(range(9)))
    def test_small_designs_match_oracle(self, d, other, images):
        for d2 in (d.relabel(restricted(images, d.v)), other):
            assert isomorphism_witness(d, d2) == two_certificate_witness(d, d2)

    def test_rows_37_and_2_are_not_isomorphic(self, psl_group):
        # same parameters (b = 504) but unequal lambda_3 spectra, so
        # isomorphism_witness answers before any search
        d37, d2 = table2_design(psl_group, 36), table2_design(psl_group, 1)
        assert two_certificate_witness(d37, d2) is None
        assert isomorphism_witness(d37, d2) is None
        assert isomorphism_witness(d2, d37) is None

    @pytest.mark.parametrize("rows", [(r, r) for r in TABLE2_ROWS] + [(36, 1)])
    def test_no_more_leaves_than_certificate(self, psl_group, rows, monkeypatch):
        rng = random.Random(sum(rows))
        d1 = table2_design(psl_group, rows[0])
        d2 = relabeled(table2_design(psl_group, rows[1]), rng)
        goal = certificate(d1).data
        leaves = counting(monkeypatch, isomorph, "_leaf_bytes")
        found = isomorph._search(d2, None, goal)
        goal_leaves = leaves[0]
        full = certificate(d2)
        # the first leaf encoding like the goal is the certificate's leaf;
        # with no such leaf the search ran to the end
        assert found == full
        assert (found.data == goal) == (rows[0] == rows[1])
        assert 0 < goal_leaves <= leaves[0] - goal_leaves


class TestCoverageSpectrum:
    """isomorphism_witness answers "not isomorphic" from unequal lambda_3
    spectra before any search; every other pair gets the same witness as
    the two full certificates give."""

    @given(small_designs(), st.permutations(range(9)))
    def test_invariant_under_relabeling(self, d, images):
        assert _coverage_spectrum(d.relabel(restricted(images, d.v))) == _coverage_spectrum(d)

    @given(small_designs())
    def test_matches_python_count(self, d):
        if d.k < 3:
            assert _coverage_spectrum(d) is None
            return
        covered = Counter(sub for blk in d.block_rows() for sub in combinations(blk, 3))
        spectrum = Counter(covered.values())
        spectrum[0] = comb(d.v, 3) - len(covered)
        assert _coverage_spectrum(d) == tuple(spectrum[c] for c in range(max(spectrum) + 1))

    def test_matches_python_count_past_16_bit_ranks(self):
        # C(v,3) > 2**16 from v = 75 on: the ranks sort as 32-bit keys
        rng = random.Random(90)
        for d in (Design(76, combinations(range(76), 3)),
                  Design(90, {tuple(sorted(rng.sample(range(90), 5))) for _ in range(300)})):
            covered = Counter(sub for blk in d.block_rows() for sub in combinations(blk, 3))
            spectrum = Counter(covered.values())
            spectrum[0] = comb(d.v, 3) - len(covered)
            assert _coverage_spectrum(d) == tuple(spectrum[c] for c in range(max(spectrum) + 1))

    def test_rows_37_and_2_decided_without_search(self, psl_group, monkeypatch):
        d37, d2 = table2_design(psl_group, 36), table2_design(psl_group, 1)
        searches = counting(monkeypatch, isomorph, "_search")
        assert isomorphism_witness(d37, d2) is None
        assert isomorphism_witness(d2, d37) is None
        assert searches[0] == 0

    def test_rows_2_and_42_equal_spectra_go_to_search(self, psl_group, monkeypatch):
        d2, d42 = table2_design(psl_group, 1), table2_design(psl_group, 41)
        assert _coverage_spectrum(d2) == _coverage_spectrum(d42)
        searches = counting(monkeypatch, isomorph, "_search")
        assert isomorphism_witness(d2, d42) is None
        assert searches[0] >= 1

    @pytest.mark.parametrize("rows", [(36, 36), (36, 1)])
    def test_skipped_over_subset_bound(self, psl_group, rows, monkeypatch):
        rng = random.Random(sum(rows))
        d1 = table2_design(psl_group, rows[0])
        d2 = relabeled(table2_design(psl_group, rows[1]), rng)
        monkeypatch.setattr(kcombs, "MAX_SUBSETS", 1)
        assert _coverage_spectrum(d1) is None
        searches = counting(monkeypatch, isomorph, "_search")
        assert isomorphism_witness(d1, d2) == two_certificate_witness(d1, d2)
        assert searches[0] >= 1

    def test_skipped_for_blocks_past_uint8_positions(self):
        # the positions of a block's 3-subsets are uint8
        d = Design(260, [tuple(range(256)), tuple(range(1, 257))])
        assert _coverage_spectrum(d) is None

    def test_vertex_bound_refused_before_spectra(self, monkeypatch):
        d1 = Design(6, [(0, 1, 2, 3), (0, 1, 2, 4)])
        d2 = Design(6, [(0, 1, 2, 3), (0, 1, 4, 5)])
        assert _coverage_spectrum(d1) != _coverage_spectrum(d2)
        monkeypatch.setattr(isomorph, "MAX_VERTICES", 7)
        with pytest.raises(kcombs.BoundError):
            isomorphism_witness(d1, d2)

    def test_table2_grouping(self, psl_group):
        # the Table 2 rows (1-based) that share (b, spectrum); the other 41
        # rows are told apart with no canonical form
        groups = defaultdict(list)
        for row in range(len(golden.TABLE2)):
            d = table2_design(psl_group, row)
            groups[d.b, _coverage_spectrum(d)].append(row + 1)
        shared = sorted(rows for rows in groups.values() if len(rows) > 1)
        assert shared == [[2, 42], [3, 4, 27], [15, 16, 32], [18, 19], [24, 34]]
        assert sum(len(rows) == 1 for rows in groups.values()) == 46 - 12


class TestBruteForceAgreement:
    def test_battery_of_random_pairs(self):
        rng = random.Random(1747)
        disagreements = 0
        designs_seen = 0
        for trial in range(60):
            v = rng.randrange(4, 8)
            k = rng.randrange(2, min(v, 5))
            nb = rng.randrange(2, min(6, comb(v, k) + 1))

            def rand_design():
                blocks = set()
                while len(blocks) < nb:
                    blocks.add(tuple(sorted(rng.sample(range(v), k))))
                return Design(v, blocks)

            d1 = rand_design()
            if trial % 2:
                images = list(range(v))
                rng.shuffle(images)
                d2 = d1.relabel(Permutation(tuple(images)))
            else:
                d2 = rand_design()
            designs_seen += 2
            if are_isomorphic(d1, d2) != brute_force_isomorphic(d1, d2):
                disagreements += 1
        assert designs_seen >= 120
        assert disagreements == 0


class TestSearchPruning:
    @pytest.mark.parametrize("row", TABLE2_ROWS)
    def test_seeding_does_not_change_data_or_labeling(self, psl_group, row):
        # the result is the first lex-least leaf in full traversal order, so
        # how much of the tree the seeded group prunes must not show
        d = table2_design(psl_group, row)
        seeded = certificate(d, PermGroup(psl_group.generators))
        plain = certificate(d)
        assert seeded.data == plain.data
        assert seeded.labeling == plain.labeling

    @pytest.mark.parametrize("row", TABLE2_ROWS)
    def test_prebuilt_group_seed_matches_generators_and_none(self, psl_group, row):
        # the group itself prunes exactly as a group built from its generators
        d = table2_design(psl_group, row)
        by_group = certificate(d, psl_group)
        by_generators = certificate(d, PermGroup(psl_group.generators))
        plain = certificate(d)
        assert by_group.data == by_generators.data == plain.data
        assert by_group.labeling == by_generators.labeling == plain.labeling

    @pytest.mark.parametrize("row", TABLE2_ROWS[::2])
    def test_at_most_one_stabilizer_build_per_search_node(self, psl_group, row, monkeypatch):
        stabilizers = counting(monkeypatch, PermGroup, "pointwise_stabilizer")
        nodes = counting(monkeypatch, isomorph._Refiner, "refine")  # once per search node
        certificate(table2_design(psl_group, row), PermGroup(psl_group.generators))
        assert nodes[0] > 1
        assert 0 < stabilizers[0] <= nodes[0]

    @pytest.mark.parametrize("row", (2, 10, 37))
    def test_backjump_cuts_leaves(self, psl_group, row, monkeypatch):
        # paper Table 2 rows 2, 10 and 37 (1-based), searched with no group:
        # 7 leaves each; 12, 12 and 20 when only leaves like the best one
        # gave automorphisms, 10 with both tests but no backjump
        leaves = counting(monkeypatch, isomorph, "_leaf_bytes")
        extends = counting(monkeypatch, PermGroup, "extend")
        certificate(table2_design(psl_group, row - 1))
        assert 0 < leaves[0] <= 7
        assert extends[0] <= 3

    def test_only_discovered_automorphisms_verified(self, psl_group, monkeypatch):
        # paper Table 2 row 37 with no group: the identity group is not
        # checked, and each discovered automorphism is, once
        checks = counting(monkeypatch, isomorph, "block_permutation")
        extends = counting(monkeypatch, PermGroup, "extend")
        certificate(table2_design(psl_group, 36))
        assert checks[0] == extends[0] == 3

    @staticmethod
    def refinement_rank_calls(d, monkeypatch):
        """Rank calls in the refinements of certificate(d): one per block
        side and one per point side of each round (a leaf ranks its blocks
        once too, and is not counted)."""
        blocks = counting(monkeypatch, isomorph, "digit_ranks")
        points = counting(monkeypatch, isomorph, "dense_ranks")
        leaves = counting(monkeypatch, isomorph, "_leaf_bytes")
        certificate(d)
        return blocks[0] - leaves[0] + points[0]

    def test_refinement_stops_early_on_row_37(self, psl_group, monkeypatch):
        # paper Table 2 row 37 at the paper's labels, no group: 46 rank
        # calls; 60 when every refinement ran one more round to confirm no
        # cell split (108 and 148 before the search backjumped on leaves
        # like the first one)
        assert self.refinement_rank_calls(table2_design(psl_group, 36), monkeypatch) == 46

    def test_block_stable_stop_on_row_38(self, psl_group, monkeypatch):
        # row 37's refinements all end discrete or with a point count that
        # stops growing; row 38 (1-based) reaches a block-stable coloring:
        # 67 rank calls, 68 if refinement built that round's point signatures
        assert self.refinement_rank_calls(table2_design(psl_group, 37), monkeypatch) == 67

    def test_search_logs_its_counts(self, psl_group, caplog):
        # paper Table 2 row 37: with no group, three discovered
        # automorphisms generate the whole order-504 group; seeded with it,
        # the search discovers none
        d = table2_design(psl_group, 36)
        with caplog.at_level(logging.DEBUG, logger="blockdesigns.isomorph"):
            certificate(d)
            certificate(d, psl_group)
        assert [r.getMessage() for r in caplog.records] == [
            "search: 13 nodes, 7 leaves; 3 discovered automorphisms grew the "
            "pruning group, now of order 504",
            "search: 9 nodes, 4 leaves; 0 discovered automorphisms grew the "
            "pruning group, now of order 504",
        ]

    @pytest.mark.parametrize("row", TABLE2_ROWS[::2])
    def test_each_stabilizer_orbit_computed_once(self, psl_group, row, monkeypatch):
        # the search reads the orbit labels of its prefix stabilizers; each
        # group computes them on its first read only
        computed = []  # holding the groups keeps their ids unique
        orbit_labels = PermGroup.orbit_labels

        def counted(self):
            if self._labels is None:
                computed.append(self)
            return orbit_labels(self)

        monkeypatch.setattr(PermGroup, "orbit_labels", counted)
        certificate(table2_design(psl_group, row), PermGroup(psl_group.generators))
        ids = [id(group) for group in computed]
        assert ids and len(set(ids)) == len(ids)

    def test_table2_search_tree_sizes(self, psl_group, monkeypatch):
        # over all 46 paper Table 2 rows: 606 search nodes and 314 leaves
        # with no group, 398 and 176 pruned by the order-504 group
        nodes = counting(monkeypatch, isomorph._Refiner, "refine")  # once per search node
        leaves = counting(monkeypatch, isomorph, "_leaf_bytes")
        totals = []
        for group in (None, psl_group):
            for row in range(len(golden.TABLE2)):
                certificate(table2_design(psl_group, row), group)
            totals.append((nodes[0], leaves[0]))
        assert totals == [(606, 314), (606 + 398, 314 + 176)]


class TestUnprunedOracle:
    """The pruned search keeps what the unpruned one finds: the least leaf
    encoding and the first leaf in depth-first order that attains it,
    whatever group prunes it and whatever automorphisms it discovers."""

    @staticmethod
    def assert_matches_oracle(d):
        data, labeling, automorphisms = unpruned_certificate(d)
        # no group, the whole automorphism group, and the cyclic group of the
        # last automorphism found, which the search must extend
        for group in (None, PermGroup(automorphisms), PermGroup(automorphisms[-1:])):
            cert = certificate(d, group)
            assert cert.data == data
            assert cert.labeling == labeling

    @given(small_designs())
    def test_random_small_designs(self, d):
        self.assert_matches_oracle(d)

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (0, 4), (0, 5), (1, 7), (1, 8), (2, 4), (2, 5), (2, 8), (3, 4), (3, 7),
             (3, 9), (5, 6), (6, 7), (6, 9), (8, 9)],
            [(0, 2), (0, 4), (0, 8), (1, 4), (1, 6), (1, 9), (2, 3), (2, 4), (3, 7), (3, 9),
             (5, 7), (5, 8), (5, 9), (6, 7), (6, 8)],
        ],
        ids=["aut8", "aut2"],
    )
    def test_cubic_graphs(self, edges):
        # 3-regular graphs on 10 points, as designs with blocks of size 2:
        # refinement leaves inequivalent points in one cell, and the first
        # leaf is not the least, so a backjump measured from the first leaf
        # instead of the best one skips the least leaf
        self.assert_matches_oracle(Design(10, edges))

    @pytest.mark.parametrize("d", [FANO, AG23, K63], ids=["fano", "ag23", "k63"])
    @settings(max_examples=8)
    @given(images=st.permutations(range(9)))
    def test_symmetric_designs(self, d, images):
        # the designs where discovered automorphisms make the search backjump
        sigma = restricted(images, d.v)
        self.assert_matches_oracle(d.relabel(sigma))


class TestKernels:
    @given(small_designs(), st.data())
    def test_refine_matches_fixpoint_oracle(self, d, data):
        # uniform, one point individualized after refinement, and discrete
        refiner = isomorph._Refiner(d)
        uniform = np.zeros(d.v, dtype=np.int64)
        point = data.draw(st.integers(0, d.v - 1))
        individualized = isomorph._individualize(fixpoint_refine(refiner, uniform), point)
        discrete = np.array(data.draw(st.permutations(range(d.v))), dtype=np.int64)
        for pcol in (uniform, individualized, discrete):
            assert np.array_equal(refiner.refine(pcol), fixpoint_refine(refiner, pcol))

    @given(st.data())
    def test_refine_matches_fixpoint_oracle_on_unequal_degrees(self, data):
        # random blocks on 23..40 points avoiding the last one, so point
        # degrees differ (one is 0); a discrete coloring needs two block key
        # words for every k >= 3 (a word holds 22 colors at k = 6)
        v = data.draw(st.integers(23, 40))
        k = data.draw(st.integers(2, 7))
        subsets = st.sets(st.integers(0, v - 2), min_size=k, max_size=k).map(
            lambda s: tuple(sorted(s))
        )
        d = Design(v, data.draw(st.sets(subsets, min_size=1, max_size=40)))
        refiner = isomorph._Refiner(d)
        uniform = np.zeros(v, dtype=np.int64)
        cells = data.draw(st.integers(1, v))
        drawn = data.draw(st.lists(st.integers(0, cells - 1), min_size=v, max_size=v))
        colored = np.unique(drawn, return_inverse=True)[1].astype(np.int64)
        discrete = np.array(data.draw(st.permutations(range(v))), dtype=np.int64)
        for pcol in (uniform, colored, discrete):
            assert np.array_equal(refiner.refine(pcol), fixpoint_refine(refiner, pcol))

    @given(random_designs())
    def test_refiner_incidence_matches_loop(self, d):
        refiner = isomorph._Refiner(d)
        incident = [[j for j, blk in enumerate(d.block_rows()) if p in blk] for p in range(d.v)]
        width = max(map(len, incident))
        padded = [pb + [d.b] * (width - len(pb)) for pb in incident]
        assert refiner.pb_arr.tolist() == padded

    def test_leaf_bytes_matches_loop(self):
        rng = random.Random(2025)
        for b in range(1, 41):  # every residue of b mod 8, several times
            v = rng.randrange(8, 13)
            k = rng.randrange(3, v - 2)  # C(v, k) >= C(8, 3) = 56 > 40 distinct blocks
            blocks = set()
            while len(blocks) < b:
                blocks.add(tuple(sorted(rng.sample(range(v), k))))
            d = Design(v, blocks)
            labeling = list(range(v))
            rng.shuffle(labeling)
            got = isomorph._leaf_bytes(v, b, k, d.blocks.T, np.asarray(labeling))
            assert got == leaf_bytes(v, b, k, d.block_rows(), labeling)
