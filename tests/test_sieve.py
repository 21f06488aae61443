"""Elimination sieve: catalog gating, constraint order, survivors."""

import hashlib
import json
from itertools import product
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from blockdesigns import sieve
from blockdesigns.numth import prime_power, prime_powers_upto
from blockdesigns.sieve import (
    CONSTRAINT_ORDER,
    MAX_QMAX,
    CaseSpec,
    SieveReport,
    SieveVerdict,
    case_catalog,
    evaluate,
    run,
)


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

    def test_summary_pinned_to_1024(self, report):
        assert report.summary_text() == (
            "sieve over prime powers 4 <= q <= 1024: 872 case evaluations\n"
            "eliminations by first failed constraint: square=865, k_guard=0, subdegree=2, "
            "block_count=3, stabilizer=0\n"
            "trivial survivor: q=8 case=even-1 v=9 k=3 (sharply multiply transitive action "
            "forces a complete block set)\n"
            "NONTRIVIAL SURVIVOR: q=8 case=even-3 v=36 k=6\n"
            "range verified exhaustively by exact integer arithmetic; "
            "q > 1024 is not checked by this run\n"
        )

    def test_evaluate_runs_for_square_v_only(self, monkeypatch):
        # a case whose v is not a square gets its verdict without evaluate()
        cases = []
        evaluate_all = sieve.evaluate

        def counted(case):
            cases.append(case)
            return evaluate_all(case)

        monkeypatch.setattr(sieve, "evaluate", counted)
        report = run(100000)
        assert len(cases) == sum(x.square for x in report.verdicts) >= 8
        assert all(isqrt(c[2]) ** 2 == c[2] for c in cases)

    def test_q_max_above_bound_refused_before_any_table(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("prime_powers_upto called")

        monkeypatch.setattr(sieve, "prime_powers_upto", unbuilt)
        for q_max in (MAX_QMAX + 1, 10**12):
            with pytest.raises(ValueError, match="q_max"):
                run(q_max)

    def test_summary_states_range(self, report):
        text = report.summary_text()
        assert "4 <= q <= 1024" in text
        assert "NONTRIVIAL SURVIVOR: q=8 case=even-3 v=36 k=6" in text
        assert "not checked by this run" in text


class TestFastPath:
    """run() derives (p, f) from the ascending prime-power list and builds
    the cases without case_catalog's validation; the results must be those
    of the public path."""

    def test_run_matches_public_path(self):
        assert list(run(5000).verdicts) == [
            evaluate(c) for q in prime_powers_upto(4, 5000) for c in case_catalog(q)
        ]

    @given(st.integers(4, 3000), st.data())
    @example(4, None)
    @example(7, None)
    @example(8, None)
    @example(9, None)
    @example(11, None)
    @example(64, None)
    def test_columns_read_as_the_public_verdicts(self, q_max, data):
        # run() keeps (q, v, code) columns; a report built from the public
        # path's SieveVerdicts must read the same everywhere
        public = [evaluate(c) for q in prime_powers_upto(4, q_max) for c in case_catalog(q)]
        report, expect = run(q_max), SieveReport(4, q_max, public)
        assert report.summary_text() == expect.summary_text()
        assert report.survivors == expect.survivors
        assert report.trivial_survivors == expect.trivial_survivors
        verdicts, want = report.verdicts, tuple(public)
        n = len(want)
        assert len(verdicts) == len(expect.verdicts) == n
        assert tuple(verdicts) == tuple(expect.verdicts) == want
        assert [verdicts[i] for i in (0, n // 2, -1, -n)] == [want[i] for i in (0, n // 2, -1, -n)]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                verdicts[i]
        slices = [slice(None), slice(-5, None), slice(None, None, -7), slice(3, -2, 2)]
        if data is not None:
            index = st.integers(-n - 3, n + 3) | st.none()
            step = st.integers(-9, 9).filter(bool) | st.none()
            slices.append(slice(data.draw(index), data.draw(index), data.draw(step)))
        for s in slices:
            assert verdicts[s] == want[s]

    @given(st.integers(4, 5000))
    @example(4)
    @example(8)
    @example(9)
    @example(4096)
    def test_derived_p_f_is_the_factorization(self, q_max):
        assert list(sieve._prime_powers_with_pf(q_max)) == [
            (q, *prime_power(q)) for q in prime_powers_upto(4, q_max)
        ]

    def test_records_are_immutable_hashable_tuples(self):
        assert CaseSpec._fields == (
            "case_id", "q", "v", "ambient_order", "stabilizer_order", "out_order",
            "subdegrees", "trivial_if_survivor", "notes",
        )
        assert CaseSpec._field_defaults == {
            "subdegrees": (), "trivial_if_survivor": False, "notes": (),
        }
        assert SieveVerdict._fields == (
            "case_id", "q", "v", "square", "k", "failed", "survivor", "trivial", "notes",
        )
        assert SieveVerdict._field_defaults == {"trivial": False, "notes": ()}
        for record in (case_catalog(8)[0], evaluate(case_catalog(8)[0])):
            assert hash(record) == hash(tuple(record))
            with pytest.raises(AttributeError):
                record.q = 9


class TestReference:
    """The plain-tuple catalog and the early-exit evaluate against the
    keyword-built catalog and attribute-reading evaluate in tests/oracles.py."""

    @pytest.fixture(scope="class")
    def catalogs(self):
        return [(case_catalog(q), oracles.case_catalog(q)) for q in prime_powers_upto(4, 20_000)]

    def test_catalog_matches_reference(self, catalogs):
        for cases, expect in catalogs:
            assert cases == expect
            assert all(type(c) is CaseSpec for c in cases)

    def test_evaluate_matches_reference_on_tuples(self, catalogs):
        for cases, _ in catalogs:
            for c in cases:
                verdict = evaluate(c)
                assert type(verdict) is SieveVerdict
                assert evaluate(tuple(c)) == verdict == oracles.evaluate(c)

    @pytest.mark.parametrize("v", [9, 16, 25, 36, 49, 64, 100])
    def test_every_constraint_matches_reference_on_squares(self, v):
        # the catalog's squares reach few constraints; vary every field here
        fields = product((1, 720, 1512, 4 * 3 * 5 * 7 * 9 * 11), (1, 4, 12, 60), (1, 2, 3),
                         ((), (12,), (11, 77)), (False, True))
        for ambient, stabilizer, out, subdegrees, trivial in fields:
            c = CaseSpec("x", 8, v, ambient, stabilizer, out, subdegrees, trivial, ("n",))
            assert evaluate(tuple(c)) == evaluate(c) == oracles.evaluate(c)


    @pytest.mark.parametrize("v", [1, 4])
    def test_k_guard_matches_reference(self, v):
        # no catalog case has v = 1 or 4; k = 1 or 2 is below the guard
        c = CaseSpec("x", 8, v, 1512, 42, 3, (14, 21), True, ("n",))
        verdict = evaluate(c)
        assert (verdict.failed, verdict.k, verdict.survivor) == ("k_guard", isqrt(v), False)
        assert evaluate(tuple(c)) == verdict == oracles.evaluate(c)


def _encoded(x: SieveVerdict) -> str:
    """The json.dumps line that SieveReport.json_chunks() writes per verdict."""
    return json.dumps(
        {
            "case": x.case_id, "q": x.q, "v": x.v, "square": x.square, "k": x.k,
            "failed": x.failed, "survivor": x.survivor, "trivial": x.trivial,
            "notes": list(x.notes),
        },
        sort_keys=True,
    )


_HAND_BUILT = [
    SieveVerdict("odd-3", 289, 41616, True, 204, "subdegree", False,
                 notes=("first note", 'quote " and backslash \\', "q = p\u00b2, \u2265 3")),
    SieveVerdict('line "1" \u00e9', 7, 28, False, None, "square", False),
    SieveVerdict("even-3", 8, 36, True, 6, None, True),
    SieveVerdict("even-1", 8, 9, True, 3, None, True, trivial=True),
]


class TestJsonLine:
    def test_every_line_to_10000_matches_json_dumps(self):
        report = run(10000)
        assert report.json_lines().splitlines() == [_encoded(x) for x in report.verdicts]

    @given(st.integers(4, 3000), st.integers(1, 3000))
    @example(289, 7)  # odd-3 at 289 = 17^2: a square v with notes
    @example(289, 1)
    @example(49, 2)  # odd-3 at 49: a square failure with notes
    @example(3000, 4095)
    def test_memoized_lines_match_json_dumps(self, q_max, chunk):
        # json_chunks() writes all of a line but q and v once per code of
        # the report's table; chunks of a drawn size put boundaries anywhere
        report = run(q_max)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "JSON_CHUNK", chunk)
            chunks = list(report.json_chunks())
            lines = report.json_lines()
        assert len(chunks) == -(-len(report.verdicts) // chunk)
        assert lines == "".join(chunks)
        assert lines.splitlines() == [_encoded(x) for x in report.verdicts]

    def test_verdicts_one_field_apart_get_their_own_lines(self):
        # each of the seven memoized fields changed alone, so a memo key that
        # missed one would give two of these the same text around q and v
        base = SieveVerdict("odd-1", 13, 14, False, None, "square", False)
        changed = [base._replace(**{field: value}) for field, value in [
            ("case_id", "odd-2"), ("failed", "subdegree"), ("k", 3), ("notes", ("n",)),
            ("square", True), ("survivor", True), ("trivial", True)]]
        verdicts = (base, *changed, *_HAND_BUILT, base)
        lines = SieveReport(4, 289, verdicts).json_lines()
        assert lines.splitlines() == [_encoded(x) for x in verdicts]
