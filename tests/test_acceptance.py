"""Acceptance criteria, one test per criterion.

Each test asserts the exact published values and prints a single
"ACCEPTANCE n: PASS" line with the measured quantities (visible with
pytest -s or -rA). A failed criterion fails its test.
"""

import json
import random
import time
from math import comb

from blockdesigns import golden
from blockdesigns.design import (
    Design,
    classify,
    count_orbits_burnside,
    is_flag_transitive,
    orbit_design,
)
from blockdesigns.isomorph import are_isomorphic
from blockdesigns.kcombs import subset_orbits
from blockdesigns.permcore import PermGroup, Permutation
from blockdesigns.sieve import run as sieve_run

from conftest import TIMINGS
from oracles import brute_force_isomorphic

# flag-transitive classes among the 330, under the full group (1-based bases)
EXPECTED_FT_FULL = {
    ((1, 2, 3, 5, 6, 8), 2),
    ((1, 2, 3, 4, 27, 30), 6),
    ((1, 2, 3, 5, 9, 29), 6),
    ((1, 2, 3, 10, 27, 28), 6),
}
# the single flag-transitive class under the socle of the larger builtin
EXPECTED_FT_SOCLE = {((1, 2, 3, 5, 6, 8), 2)}
# classes of the 46 that are isomorphic to a class of the 330
EXPECTED_CROSS_ISO = {
    ((1, 2, 4, 16, 26, 31), 2),
    ((1, 2, 3, 16, 28, 36), 6),
    ((1, 2, 3, 25, 27, 32), 6),
    ((1, 2, 6, 16, 18, 36), 6),
    ((1, 2, 3, 6, 15, 23), 12),
    ((1, 2, 3, 12, 14, 22), 12),
    ((1, 2, 3, 17, 24, 35), 12),
    ((1, 2, 3, 18, 30, 31), 12),
}


def one_based(block):
    return tuple(p + 1 for p in block)


def lam_histogram(classes):
    hist: dict[int, int] = {}
    for c in classes:
        hist[c.lam] = hist.get(c.lam, 0) + 1
    return hist


def test_criterion_1_46_classes(psl_classes):
    assert len(psl_classes) == 46
    assert lam_histogram(psl_classes) == {2: 1, 6: 3, 12: 42}
    got = {}
    for c in psl_classes:
        key = (one_based(c.base), c.lam)
        got[key] = got.get(key, 0) + 1
    assert got == golden.table2_multiset()
    elapsed = TIMINGS["classify_psl"]
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 1: PASS - 46 classes, lambda counts {{2:1, 6:3, 12:42}}, "
        f"all (base block, lambda) rows match the reference table "
        f"({elapsed:.1f}s < 120s)"
    )


def test_criterion_2_330_classes(pgl_classes):
    assert len(pgl_classes) == 330
    hist = lam_histogram(pgl_classes)
    assert set(hist) == {2, 6, 9, 12, 18, 36}
    assert hist == golden.PGAMMAL28_LAMBDA_COUNTS
    elapsed = TIMINGS["classify_pgl"]
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 2: PASS - 330 classes, lambda set {{2,6,9,12,18,36}}, "
        f"per-lambda counts match the frozen regression data ({elapsed:.1f}s < 300s)"
    )


def test_criterion_3_flag_transitivity(
    psl_group, psl_classes, pgl_group, pgl_classes, psl_flag_transitive, pgl_flag_transitive
):
    # unique flag-transitive class among the 46
    assert len(psl_flag_transitive) == 1
    ft = psl_classes[psl_flag_transitive[0]]
    assert one_based(ft.base) == (1, 2, 4, 16, 26, 31)
    assert ft.lam == 2

    # exactly 4 among the 330 under the full group
    got_full = {
        (one_based(pgl_classes[i].base), pgl_classes[i].lam) for i in pgl_flag_transitive
    }
    assert got_full == EXPECTED_FT_FULL

    # under the socle itself the count drops to 1 (the image of the unique
    # flag-transitive class of the 46)
    socle = pgl_group.derived_subgroup()
    assert socle.order() == 504
    got_socle = set()
    for cls in pgl_classes:
        d = orbit_design(pgl_group, cls.base)
        if is_flag_transitive(socle, d):
            got_socle.add((one_based(cls.base), cls.lam))
    assert got_socle == EXPECTED_FT_SOCLE

    print(
        "\nACCEPTANCE 3: PASS - unique flag-transitive class of the 46 is "
        "base (1,2,4,16,26,31) with lambda=2; exactly 4 of the 330 are "
        "flag-transitive under the full group (lambda 2,6,6,6); exactly 1 "
        "under the socle"
    )


def test_criterion_4_group_invariants(psl_group, pgl_group):
    t0 = time.perf_counter()
    assert psl_group.order() == 504
    assert pgl_group.order() == 1512
    assert psl_group.pointwise_stabilizer((0,)).order() == 14
    assert pgl_group.pointwise_stabilizer((0,)).order() == 42
    assert sorted(psl_group.subdegrees(0)) == [1, 7, 7, 7, 14]
    assert psl_group.is_primitive()
    assert pgl_group.is_primitive()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 4: PASS - orders 504/1512, point stabilizers 14/42, "
        f"subdegrees (1,7,7,7,14), both primitive ({elapsed * 1000:.0f}ms)"
    )


def test_criterion_5_sieve():
    t0 = time.perf_counter()
    report = sieve_run(1024)
    elapsed = time.perf_counter() - t0

    surv = report.survivors
    assert len(surv) == 1
    assert (surv[0].q, surv[0].case_id, surv[0].v, surv[0].k) == (8, "even-3", 36, 6)

    by_case = {(x.q, x.case_id): x for x in report.verdicts}
    line10_11 = by_case[(11, "table1-line-10")]
    assert line10_11.failed == "square" and line10_11.v == 55
    line10_19 = by_case[(19, "table1-line-10")]
    assert line10_19.failed == "square" and line10_19.v == 285
    pgl29 = by_case[(9, "table1-line-3")]
    assert pgl29.failed == "block_count" and pgl29.v == 36  # m = 42 does not divide 720
    assert by_case[(7, "table1-line-1")].failed == "square"
    assert by_case[(7, "table1-line-2")].failed == "square"
    assert by_case[(9, "table1-line-4")].failed == "square"
    assert by_case[(49, "odd-2")].failed == "subdegree"
    assert by_case[(289, "odd-3")].failed == "subdegree"

    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 5: PASS - run(1024): unique nontrivial survivor q=8 "
        f"(v=36, k=6), named eliminations reproduced at q=7,9,11,19,49,289 "
        f"({elapsed:.2f}s < 10s)"
    )


def test_criterion_6a_orbit_stabilizer():
    rng = random.Random(36)
    for trial in range(200):
        n = rng.randrange(5, 12)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        G = PermGroup(gens)
        x = rng.randrange(n)
        assert len(G.orbit(x)) * G.pointwise_stabilizer((x,)).order() == G.order()
    print("\nACCEPTANCE 6a: PASS - orbit-stabilizer identity on 200 random subgroups")


def test_criterion_6b_burnside(psl_group, pgl_group):
    for G, k6_expected in ((psl_group, 4034), (pgl_group, 1354)):
        for k in range(1, 7):
            scan = subset_orbits(G, k).orbit_count
            assert count_orbits_burnside(G, k) == scan
            if k == 6:
                assert scan == k6_expected
    print(
        "\nACCEPTANCE 6b: PASS - Burnside count equals orbit scan for k=1..6 "
        "on both degree-36 builtins (4034 and 1354 orbits at k=6)"
    )


def test_criterion_6c_certificate_vs_brute_force():
    rng = random.Random(20260819)
    designs_checked = 0
    disagreements = 0
    while designs_checked < 200:
        v = rng.randrange(4, 9)
        k = rng.randrange(2, min(v, 5))
        nb = rng.randrange(2, min(7, comb(v, k) + 1))

        def rand_design():
            blocks = set()
            while len(blocks) < nb:
                blocks.add(tuple(sorted(rng.sample(range(v), k))))
            return Design(v, blocks)

        d1 = rand_design()
        if designs_checked % 4 == 0:
            images = list(range(v))
            rng.shuffle(images)
            d2 = d1.relabel(Permutation(tuple(images)))
        else:
            d2 = rand_design()
        designs_checked += 2
        if are_isomorphic(d1, d2) != brute_force_isomorphic(d1, d2):
            disagreements += 1
    assert disagreements == 0
    print(
        f"\nACCEPTANCE 6c: PASS - certificate and brute-force oracles agree on "
        f"{designs_checked} random designs with v <= 8"
    )


def test_criterion_6d_divisibility_identities(psl_group, psl_classes, pgl_group, pgl_classes):
    checked = 0
    for G, classes in ((psl_group, psl_classes), (pgl_group, pgl_classes)):
        v = G.degree
        for cls in classes:
            k = len(cls.base)
            lam = cls.lam
            assert (lam * (v - 1)) % (k - 1) == 0
            r = lam * (v - 1) // (k - 1)
            assert cls.b * k == v * r
            checked += 1
    assert checked == 46 + 330
    print(
        "\nACCEPTANCE 6d: PASS - r(k-1) = lambda(v-1) and bk = vr hold on all "
        "376 emitted designs"
    )


def test_criterion_6e_worker_byte_equality(psl_group, psl_classes):
    def serialize(classes):
        return json.dumps(
            [
                {
                    "base": list(c.base),
                    "lambda": c.lam,
                    "b": c.b,
                    "certificate": c.certificate.hexdigest,
                    "orbit_reps": [list(r) for r in c.orbit_reps],
                }
                for c in classes
            ]
        ).encode()

    two = classify(psl_group, 6, 2, workers=2)
    assert serialize(psl_classes) == serialize(two)
    print(
        "\nACCEPTANCE 6e: PASS - 1-worker and 2-worker classification outputs "
        "are byte-identical"
    )


def test_criterion_7_cross_group_isomorphisms(psl_classes, pgl_classes):
    pgl_certs = {c.certificate.data for c in pgl_classes}
    matched = {
        (one_based(c.base), c.lam)
        for c in psl_classes
        if c.certificate.data in pgl_certs
    }
    assert len(matched) == 8
    assert matched == EXPECTED_CROSS_ISO
    print(
        "\nACCEPTANCE 7: PASS - exactly 8 of the 46 classes are isomorphic to "
        "a class of the 330"
    )
