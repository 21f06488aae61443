"""Elimination sieve: catalog gating, constraint order, survivors."""

import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blockdesigns.numth import prime_power, prime_powers_upto
from blockdesigns.sieve import CONSTRAINT_ORDER, case_catalog, evaluate, run


@pytest.fixture(scope="module")
def report():
    return run(1024)


class TestPrimePowers:
    @given(st.integers(-5, 5000), st.integers(-5, 5000))
    @example(4, 5000)
    @example(-3, 5000)
    @example(0, 1)
    @example(1, 2)
    @example(9, 8)
    @example(5000, 2)
    def test_table_matches_trial_division(self, lo, hi):
        assert prime_powers_upto(lo, hi) == [q for q in range(lo, hi + 1) if prime_power(q)]


class TestCatalog:
    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            case_catalog(6)
        with pytest.raises(ValueError):
            case_catalog(3)

    def test_even_q_has_even_cases_only(self):
        ids = [c.case_id for c in case_catalog(32)]
        assert ids == ["even-1", "even-2", "even-3"]

    def test_even_subfield_case_present(self):
        ids = [c.case_id for c in case_catalog(64)]
        # 64 = 4^3 = 8^2, both with q0 != 2
        assert ids.count("even-4") == 2

    def test_odd_prime_gets_exactly_one_small_stabilizer_case(self):
        for q in (5, 13, 37, 43):
            ids = [c.case_id for c in case_catalog(q)]
            small = [x for x in ids if x in ("odd-6", "odd-7", "odd-8")]
            assert len(small) <= 1, (q, ids)

    def test_dihedral_case_gates(self):
        assert "odd-2" not in [c.case_id for c in case_catalog(5)]  # q < 13
        assert "odd-3" not in [c.case_id for c in case_catalog(7)]
        assert "odd-3" not in [c.case_id for c in case_catalog(9)]
        assert "odd-3" in [c.case_id for c in case_catalog(13)]

    def test_subfield_cases(self):
        ids49 = [c.case_id for c in case_catalog(49)]
        assert "odd-4" in ids49 and "odd-5" not in ids49
        ids27 = [c.case_id for c in case_catalog(27)]
        assert "odd-5" in ids27 and "odd-4" not in ids27

    def test_explicit_lines_gated_to_quoted_q(self):
        assert [c.case_id for c in case_catalog(7) if c.case_id.startswith("table1-")] == [
            "table1-line-1",
            "table1-line-2",
        ]
        nine = [c.case_id for c in case_catalog(9) if c.case_id.startswith("table1-")]
        assert nine == [f"table1-line-{i}" for i in range(3, 9)]
        eleven = [c.case_id for c in case_catalog(11) if c.case_id.startswith("table1-")]
        assert eleven == ["table1-line-9", "table1-line-10"]
        assert "table1-line-10" in [c.case_id for c in case_catalog(19)]
        assert "table1-line-10" not in [c.case_id for c in case_catalog(13)]

    def test_point_counts_are_exact_integers(self):
        for q in prime_powers_upto(4, 128):
            for c in case_catalog(q):
                assert c.v > 0
                if c.case_id == "odd-2":
                    assert 2 * c.v == q * (q + 1)
                if c.case_id == "even-3":
                    assert 2 * c.v == q * (q + 1)


class TestVerdicts:
    def test_unique_nontrivial_survivor(self, report):
        surv = report.survivors
        assert len(surv) == 1
        x = surv[0]
        assert (x.q, x.case_id, x.v, x.k) == (8, "even-3", 36, 6)
        assert x.failed is None and not x.trivial

    def test_borel_survivor_is_trivial(self, report):
        triv = report.trivial_survivors
        assert len(triv) == 1
        x = triv[0]
        assert (x.q, x.case_id, x.v, x.k) == (8, "even-1", 9, 3)

    @pytest.mark.parametrize(
        "q,case_id,failed,v",
        [
            (7, "table1-line-1", "square", 28),
            (7, "table1-line-2", "square", 21),
            (9, "table1-line-3", "block_count", 36),
            (9, "table1-line-4", "square", 45),
            (9, "table1-line-5", "block_count", 36),
            (9, "table1-line-6", "square", 45),
            (9, "table1-line-7", "block_count", 36),
            (9, "table1-line-8", "square", 45),
            (11, "table1-line-9", "square", 66),
            (11, "table1-line-10", "square", 55),
            (19, "table1-line-10", "square", 285),
            (49, "odd-2", "subdegree", 1225),
            (289, "odd-3", "subdegree", 41616),
        ],
    )
    def test_named_eliminations(self, report, q, case_id, failed, v):
        x = {(y.q, y.case_id): y for y in report.verdicts}[(q, case_id)]
        assert x.failed == failed
        assert x.v == v

    def test_prime_field_note_on_odd3_with_f_above_1(self, report):
        x = {(y.q, y.case_id): y for y in report.verdicts}[(289, "odd-3")]
        assert any("f > 1" in note for note in x.notes)
        y = {(z.q, z.case_id): z for z in report.verdicts}[(13, "odd-3")]
        assert y.notes == ()

    def test_failed_constraint_names_are_known(self, report):
        for x in report.verdicts:
            assert x.failed is None or x.failed in CONSTRAINT_ORDER

    def test_square_failures_have_no_k(self, report):
        for x in report.verdicts:
            if x.failed == "square":
                assert x.k is None and not x.square
            elif x.survivor:
                assert x.square and x.k is not None and x.k * x.k == x.v


class TestRun:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            run(3)

    def test_q4_has_no_survivors(self):
        rep = run(4)
        assert rep.survivors == () and rep.trivial_survivors == ()
        assert sorted(x.v for x in rep.verdicts) == [5, 6, 10]

    def test_monotone_coverage(self, report):
        small = run(64)
        small_surv = {(x.q, x.case_id) for x in small.survivors}
        big_surv = {(x.q, x.case_id) for x in report.survivors}
        assert small_surv <= big_surv

    def test_verdicts_cover_all_prime_powers(self, report):
        qs = {x.q for x in report.verdicts}
        assert qs == set(prime_powers_upto(4, 1024))

    def test_json_lines_parse(self, report):
        lines = report.json_lines().splitlines()
        assert len(lines) == len(report.verdicts)
        first = json.loads(lines[0])
        assert set(first) == {
            "q", "case", "v", "square", "k", "failed", "survivor", "trivial", "notes",
        }
        # each line is written with its keys in sorted order
        assert all(json.dumps(json.loads(x), sort_keys=True) == x for x in lines)

    def test_json_lines_pinned_to_100000(self):
        # every verdict line over 4 <= q <= 100000, byte for byte
        digest = hashlib.sha256(run(100000).json_lines().encode()).hexdigest()
        assert digest == "3cb20938c06d93981508ea0db876005545469a927a62af3dcc887a911919671f"

    def test_summary_states_range(self, report):
        text = report.summary_text()
        assert "4 <= q <= 1024" in text
        assert "NONTRIVIAL SURVIVOR: q=8 case=even-3 v=36 k=6" in text
        assert "not checked by this run" in text
