"""Canonical certificates and isomorphism decisions."""

import random
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from blockdesigns import golden, isomorph
from blockdesigns.design import Design, orbit_design
from blockdesigns.isomorph import (
    are_isomorphic,
    certificate,
    isomorphism_witness,
)
from blockdesigns.permcore import PermGroup, Permutation, parse_cycles

from oracles import brute_force_isomorphic, leaf_bytes

# Table 2 rows of b = 504, 252 and 84 blocks, some reaching 9 search nodes, some 7
TABLE2_ROWS = (0, 11, 32, 37, 42, 43)


def table2_design(G, row):
    base, _ = golden.TABLE2[row]
    return orbit_design(G, tuple(p - 1 for p in base))


FANO = Design(7, [((0 + i) % 7, (1 + i) % 7, (3 + i) % 7) for i in range(7)])


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


class TestCertificate:
    def test_equal_for_relabelings(self):
        sigma = parse_cycles("(1,3,5)(2,7)", 7)
        assert certificate(FANO).data == certificate(FANO.relabel(sigma)).data

    @given(random_designs(), st.permutations(range(8)))
    def test_relabeling_invariance(self, d, images):
        # restrict the sampled permutation of 0..7 to a permutation of 0..v-1
        sigma = Permutation(tuple(sorted(range(d.v), key=lambda i: images[i])))
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
        assert certificate(FANO, known_automorphisms=(rot,)).data == certificate(FANO).data

    def test_non_automorphism_seed_rejected(self):
        swap = parse_cycles("(1,2)", 7)
        with pytest.raises(ValueError):
            certificate(FANO, known_automorphisms=(swap,))

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
        seeded = certificate(d, psl_group.generators)
        plain = certificate(d)
        assert seeded.data == plain.data
        assert seeded.labeling == plain.labeling

    @pytest.mark.parametrize("row", TABLE2_ROWS)
    def test_prebuilt_group_seed_matches_generators_and_none(self, psl_group, row):
        # the group itself prunes exactly as a group built from its generators
        d = table2_design(psl_group, row)
        by_group = certificate(d, psl_group)
        by_generators = certificate(d, psl_group.generators)
        plain = certificate(d)
        assert by_group.data == by_generators.data == plain.data
        assert by_group.labeling == by_generators.labeling == plain.labeling

    @pytest.mark.parametrize("row", TABLE2_ROWS[::2])
    def test_at_most_one_stabilizer_build_per_search_node(self, psl_group, row, monkeypatch):
        counts = {"stabilizers": 0, "nodes": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            PermGroup,
            "pointwise_stabilizer",
            counted("stabilizers", PermGroup.pointwise_stabilizer),
        )
        # refine runs exactly once per search node
        monkeypatch.setattr(
            isomorph._Refiner, "refine", counted("nodes", isomorph._Refiner.refine)
        )
        certificate(table2_design(psl_group, row), psl_group.generators)
        assert counts["nodes"] > 1
        assert 0 < counts["stabilizers"] <= counts["nodes"]

    @pytest.mark.parametrize("row", TABLE2_ROWS[::2])
    def test_each_stabilizer_orbit_computed_once(self, psl_group, row, monkeypatch):
        calls = []  # (group, point); holding the groups keeps their ids unique
        orbit = PermGroup.orbit

        def counted(self, point):
            calls.append((self, point))
            return orbit(self, point)

        monkeypatch.setattr(PermGroup, "orbit", counted)
        certificate(table2_design(psl_group, row), psl_group.generators)
        keys = [(id(group), point) for group, point in calls]
        assert keys and len(set(keys)) == len(keys)


class TestKernels:
    @given(
        arrays(
            np.int64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.integers(0, 4),
        )
    )
    def test_unique_rows_inverse_matches_np_unique(self, arr):
        expected = np.unique(arr, axis=0, return_inverse=True)[1].reshape(-1)
        assert np.array_equal(isomorph._unique_rows_inverse(arr), expected)

    @given(
        arrays(
            np.int64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.sampled_from([0, 1, 2**20, 2**40]),
        )
    )
    def test_unique_rows_inverse_on_wide_keys(self, arr):
        # entries up to 2**40 give keys past int64 from width 2 on
        expected = np.unique(arr, axis=0, return_inverse=True)[1].reshape(-1)
        assert np.array_equal(isomorph._unique_rows_inverse(arr), expected)

    @given(random_designs())
    def test_refiner_incidence_matches_loop(self, d):
        refiner = isomorph._Refiner(d.v, d.blocks)
        incident = [[j for j, blk in enumerate(d.blocks) if p in blk] for p in range(d.v)]
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
            got = isomorph._leaf_bytes(
                v, b, k, np.asarray(d.blocks, dtype=np.int64), np.asarray(labeling)
            )
            assert got == leaf_bytes(v, b, k, d.blocks, labeling)
