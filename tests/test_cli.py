"""End-to-end CLI behavior: flags, formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockdesigns
from blockdesigns import golden, sieve
from blockdesigns.cli import MAX_CONSTRUCT_BLOCKS, main
from blockdesigns.golden import BUILTIN_NAMES
from blockdesigns.kcombs import MAX_SUBSETS
from blockdesigns.sieve import MAX_QMAX


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unbuilt(*args, **kwargs):
    """Stands in for grouplib.projective_group where a refusal must come first."""
    raise AssertionError("projective_group called")


class TestConstruct:
    def test_flag_transitive_case(self, tmp_path, capsys):
        out = tmp_path / "d44.json"
        code, _, _ = run_cli(
            ["construct", "--group", "psl28_paper36",
             "--base", "1,2,4,16,26,31", "--t", "2", "-o", str(out)],
            capsys,
        )
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["v"] == 36 and rec["k"] == 6 and rec["t"] == 2
        assert rec["lambda"] == 2 and rec["b"] == 84
        assert rec["flag_transitive"] is True and rec["block_transitive"] is True
        assert rec["base_block"] == [1, 2, 4, 16, 26, 31]
        assert rec["group"] == "psl28_paper36"
        assert len(rec["blocks"]) == 84
        assert rec["blocks"] == sorted(rec["blocks"])
        points = {p for blk in rec["blocks"] for p in blk}
        assert min(points) >= 1 and max(points) <= 36

    def test_non_design_orbit_is_reported_not_errored(self, tmp_path, capsys):
        out = tmp_path / "d3.json"
        code, _, _ = run_cli(
            ["construct", "--group", "psl28_paper36", "--base", "1,2,3", "-o", str(out)],
            capsys,
        )
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["lambda"] is None
        assert rec["status"] == "not a 2-design"
        assert rec["k"] == 3

    @pytest.mark.parametrize("args,b,lam", [
        (["--group", "psl28_paper36", "--base", "1,2,4,16,26,31"], 84, 2),
        (["--q", "5", "--base", "1,2,3,4,5,6"], 1, 1),  # one block: the whole point set
        (["--group", "psl28_paper36", "--base", "1,2,3"], 504, None),
    ], ids=["builtin", "one-block", "lambda-null"])
    def test_record_bytes_are_json_dumps_indent_1(self, args, b, lam, capsys):
        # the block list is joined outside json.dumps; the bytes must not change
        code, out, _ = run_cli(["construct", *args], capsys)
        assert code == 0
        rec = json.loads(out)
        assert (rec["b"], rec["lambda"]) == (b, lam)
        assert out == json.dumps(rec, indent=1) + "\n"

    def test_construct_under_larger_builtin(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run_cli(
            ["construct", "--group", "pgammal28_paper36",
             "--base", "1,2,3,4,27,30", "-o", str(out)],
            capsys,
        )
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["lambda"] == 6 and rec["b"] == 252

    def test_out_of_range_point_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["construct", "--group", "psl28_paper36", "--base", "1,2,99"], capsys
        )
        assert code == 2
        assert "out of range" in err

    def test_repeated_point_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["construct", "--group", "psl28_paper36", "--base", "1,2,2"], capsys
        )
        assert code == 2

    def test_malformed_base_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["construct", "--group", "psl28_paper36", "--base", "1,x,3"], capsys
        )
        assert code == 2

    def test_empty_base_is_usage_error(self, capsys):
        # "".split(",") is [""], which int() refuses like any other token
        code, out, err = run_cli(["construct", "--group", "psl28_paper36", "--base", ""], capsys)
        assert (code, out) == (2, "")
        assert err == "error: base block '' is not a comma-separated integer list\n"

    def test_unknown_group_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["construct", "--group", "nonesuch", "--base", "1,2,3"], capsys
        )
        assert code == 2
        assert "unknown builtin" in err

    def test_group_and_q_conflict(self, capsys):
        code, _, _ = run_cli(
            ["construct", "--group", "psl28_paper36", "--q", "8", "--base", "1,2"],
            capsys,
        )
        assert code == 2

    def test_missing_group_selector(self, capsys):
        code, _, _ = run_cli(["construct", "--base", "1,2"], capsys)
        assert code == 2

    def test_q_selector(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        code, _, _ = run_cli(
            ["construct", "--q", "5", "--variant", "socle", "--action", "pairs",
             "--base", "1,12", "--t", "1", "-o", str(out)],
            capsys,
        )
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["v"] == 15 and rec["lambda"] == 2 and rec["b"] == 15
        assert rec["group"] == "projective(q=5,variant=socle,action=pairs)"

    def test_orbit_bound_above_limit_is_usage_error(self, capsys):
        # min(|PSL(2,256)|, C(257, 3)) = 2,796,160 blocks, refused before any is built
        code, out, err = run_cli(["construct", "--q", "256", "--base", "1,2,3"], capsys)
        assert code == 2 and out == ""
        assert err == (
            "error: the orbit of a 3-subset of 257 points under a group of order 16776960 "
            f"may have 2796160 blocks; construct builds at most {MAX_CONSTRUCT_BLOCKS}\n"
        )

    def test_block_with_too_many_t_subsets_is_usage_error(self, capsys):
        # a 256-point block is fine, C(256, 4) of its 4-subsets are not
        base = ",".join(map(str, range(1, 257)))
        code, out, err = run_cli(["construct", "--q", "256", "--base", base, "--t", "4"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: a block of 256 points has 174792640 4-subsets, more than the "
                       "5000000-subset bound\n")

    def test_block_t_subset_bound_refused_before_group_is_built(self, capsys, monkeypatch):
        # the refusal needs only |base| and --t; building PSL(2,2048) took seconds
        monkeypatch.setattr("blockdesigns.grouplib.projective_group", unbuilt)
        base = ",".join(map(str, range(1, 2049)))
        code, out, err = run_cli(["construct", "--q", "2048", "--base", base, "--t", "3"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: a block of 2048 points has 1429559296 3-subsets, more than the "
                       "5000000-subset bound\n")

    def test_orbit_bound_refused_before_group_is_built(self, capsys, monkeypatch):
        # |PSL(2,2048)| comes from its closed form; building its chain takes seconds
        monkeypatch.setattr("blockdesigns.grouplib.projective_group", unbuilt)
        code, out, err = run_cli(["construct", "--q", "2048", "--base", "1,2"], capsys)
        assert code == 2 and out == ""
        assert err == (
            "error: the orbit of a 2-subset of 2049 points under a group of order 8589932544 "
            f"may have 2098176 blocks; construct builds at most {MAX_CONSTRUCT_BLOCKS}\n"
        )

    @pytest.mark.parametrize("q,action,degree", [(4096, "line", 4097), (67, "pairs", 2278)])
    def test_degree_past_the_chain_bound_refused_before_group_is_built(
            self, capsys, monkeypatch, q, action, degree):
        # the orbit of one point passes the orbit bound, but the first chain
        # level of a transitive group holds degree images of degree points:
        # for PSL(2,4096) it ran out of memory after 23 s under a 3 GB cap
        monkeypatch.setattr("blockdesigns.grouplib.projective_group", unbuilt)
        code, out, err = run_cli(["construct", "--q", str(q), "--action", action,
                                  "--base", "1", "--t", "1"], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: --q {q} gives degree {degree}; the first level of its "
                       f"stabilizer chain would hold {degree}^2 = {degree**2} points, "
                       "more than the 5000000 bound\n")


class TestBadParameters:
    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "--q", "6"],  # not a prime power
            ["classify", "--q", "3"],  # socle not simple
            ["construct", "--group", "psl28_paper36", "--base", "1,2,3", "--t", "9"],  # t > k
            ["classify", "--group", "psl28_paper36", "--k", "40"],  # k > degree
            ["classify", "--q", "256", "--k", "3", "--t", "2"],  # 257 points + 32896 blocks > 5000
            ["classify", "--q", "257", "--k", "3", "--t", "2"],  # 258 points + 22102 blocks > 5000
            ["classify", "--q", "2048", "--k", "3", "--t", "2"],  # C(2049, 3) subsets to scan
            ["classify", "--q", "13", "--action", "pairs"],  # C(91, 6) subsets to scan
            ["construct", "--q", "6", "--base", "1,2"],  # not a prime power
            ["construct", "--q", "3", "--base", "1,2"],  # socle not simple
            ["classify", "--q", "32", "--k", "4"],  # 33 points + 8184 blocks > 5000
            ["classify", "--q", "251", "--k", "6"],  # C(252, 6) subsets to scan
            ["classify", "--q", "101", "--k", "4"],  # 102 points + at least 5151 blocks
        ],
    )
    def test_usage_error_without_traceback(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert any(line.startswith("error:") for line in err.splitlines())
        assert "Traceback" not in err


@st.composite
def classify_or_construct_args(draw):
    """A classify or construct argument vector, valid about two times in
    three per argument: a group by --q (pair action only up to q = 5), by
    builtin name, by both --q and --group, by an unknown name or by
    neither; q, k, t, base points, lambda and --workers in and out of range.
    Every vector runs in well under a second: classify takes k <= 3 under a
    builtin group."""
    command = draw(st.sampled_from(("classify", "construct")))
    selector = draw(st.sampled_from(("q", "builtin") * 3 + ("both", "unknown", "none")))
    args = [command]
    if selector in ("q", "both"):
        q = draw(st.sampled_from((4, 5, 7, 8, 9) * 2 + (-1, 0, 1, 2, 3, 6)))
        args += ["--q", str(q), "--variant", draw(st.sampled_from(("socle", "full"))),
                 "--action", draw(st.sampled_from(("line", "pairs") if q <= 5 else ("line",)))]
    if selector in ("builtin", "both"):
        args += ["--group", draw(st.sampled_from(BUILTIN_NAMES))]
    elif selector == "unknown":
        args += ["--group", draw(st.sampled_from(("psl28", "")))]
    t = draw(st.sampled_from((1, 2, 3) * 2 + (-1, 0, 4)))
    if command == "classify":
        kmax = 3 if selector == "builtin" else 8
        k = draw(st.sampled_from(tuple(range(t + 1, kmax + 1)) * 2 + (-1, 0, t, kmax + 1)))
        args += ["--k", str(k), "--format", draw(st.sampled_from(("json", "csv", "text")))]
        if draw(st.booleans()):
            args += ["--lambda", str(draw(st.integers(0, 12)))]
    else:
        points = draw(st.one_of(st.lists(st.integers(1, 10), min_size=max(t, 1), max_size=6,
                                         unique=True),
                                st.lists(st.integers(-1, 40), max_size=6)))
        args += ["--base", ",".join(map(str, points))]
    args += ["--t", str(t)]
    workers = draw(st.sampled_from((None, 1, 2) * 2 + (0, -1)))
    return args if workers is None else args + ["--workers", str(workers)]


class TestGeneratedArguments:
    """The exit-code contract on generated input: 0 for an answer, 2 for a
    usage error, 3 never for these commands, and 1 (an internal fault, its
    traceback on stderr) for no generated vector. No input here must exit 1:
    every vector is either answered or refused as a usage error. argparse
    refuses some vectors itself, e.g. `--base -1,0`, whose value it reads
    as an option; it exits 2 through SystemExit, as the process would."""

    @settings(max_examples=40)
    @given(classify_or_construct_args())
    def test_exit_code_and_no_traceback(self, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert "error: " in err.getvalue().splitlines()[-1]
        else:
            assert out.getvalue()


class TestMoreThan64Points:
    """PSL(2,16) on the 136 unordered pairs of projective points."""

    def construct(self, path, capsys):
        code, _, _ = run_cli(
            ["construct", "--q", "16", "--action", "pairs", "--base", "1,2,3,4", "-o", str(path)],
            capsys,
        )
        assert code == 0
        return json.loads(path.read_text())

    def test_construct(self, tmp_path, capsys):
        rec = self.construct(tmp_path / "q16.json", capsys)
        assert rec["v"] == 136 and rec["b"] == 1020
        assert rec["flag_transitive"] is True

    def test_iso_relabeled_copy(self, tmp_path, capsys):
        a = tmp_path / "q16.json"
        rec = self.construct(a, capsys)
        images = list(range(1, rec["v"] + 1))
        random.Random(16).shuffle(images)
        relabeled = {
            "v": rec["v"],
            "blocks": [sorted(images[p - 1] for p in blk) for blk in rec["blocks"]],
        }
        c = tmp_path / "c.json"
        c.write_text(json.dumps(relabeled))
        code, out, _ = run_cli(["iso", str(a), str(c)], capsys)
        assert code == 0
        assert out.strip() == "isomorphic"


class TestClassify:
    @pytest.mark.parametrize("args", [
        # PSL(2,67) is 2-homogeneous, so its one orbit of 66-subsets is the
        # complete design; the rank weights of C(68, 66) passed int64
        ["--q", "67", "--k", "66", "--t", "1"],
        # t >= v - k leaves only the complete design, before any scan
        ["--q", "25", "--k", "23", "--t", "10"],
    ])
    def test_no_classes_near_the_complete_design(self, args, capsys):
        code, out, err = run_cli(["classify", *args], capsys)
        assert (code, err) == (0, "")
        assert out.endswith("\n0 classes\n")

    def test_one_worker_classify_imports_no_process_pool(self):
        # a fresh interpreter: this one has loaded the pool module already
        env = dict(os.environ)
        src = str(Path(blockdesigns.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys; from blockdesigns.cli import main; "
            "assert main(['classify', '--q', '13', '--k', '5', '--workers', '1']) == 0; "
            "assert 'concurrent.futures.process' not in sys.modules, 'pool imported'"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("\n3 classes\n")

    @pytest.mark.parametrize("q,action,k,degree", [
        (2048, "line", 3, 2049),
        (13, "pairs", 6, 91),
        # past the chain bound too, whose refusal comes second
        (4096, "line", 3, 4097),
    ])
    def test_too_many_k_subsets_refused_before_group_is_built(
            self, capsys, monkeypatch, q, action, k, degree):
        monkeypatch.setattr("blockdesigns.grouplib.projective_group", unbuilt)
        code, out, err = run_cli(["classify", "--q", str(q), "--action", action,
                                  "--k", str(k)], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: the {comb(degree, k)} {k}-subsets of {degree} points exceed "
                       "the 5000000-subset bound of the orbit scan\n")

    @pytest.mark.parametrize("args,degree,k", [
        (["--q", "31", "--k", "20", "--t", "12"], 32, 20),  # t >= v - k
        # |PSL(2,9)| = 360 is no multiple of 330, the least block count
        (["--q", "9", "--action", "pairs", "--k", "6"], 45, 6),
    ])
    def test_no_classes_before_the_subset_bound(self, capsys, monkeypatch, args, degree, k):
        # the two rules that answer before any scan also come before the
        # C(degree, k) refusal, and need no group
        assert comb(degree, k) > MAX_SUBSETS
        monkeypatch.setattr("blockdesigns.grouplib.projective_group", unbuilt)
        code, out, err = run_cli(["classify", *args], capsys)
        assert (code, err) == (0, "")
        assert out.endswith("\n0 classes\n")

    def test_degree_past_255_is_scanned(self, capsys):
        # PSL(2,256) is 2-transitive on 257 points: its one orbit of pairs is
        # the complete design, which is trivial
        code, out, err = run_cli(["classify", "--q", "256", "--k", "2", "--t", "1"], capsys)
        assert code == 0 and err == ""
        assert out.endswith("\n0 classes\n")

    def test_json_format(self, capsys, memo_classify):
        code, out, _ = run_cli(
            ["classify", "--group", "psl28_paper36", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == "psl28_paper36"
        assert len(payload["classes"]) == 46
        cases = [row["case"] for row in payload["classes"]]
        assert cases == list(range(1, 47))
        lams = [row["lambda"] for row in payload["classes"]]
        assert lams == sorted(lams)

    def test_lambda_filter_keeps_case_indices(self, capsys, memo_classify):
        code, out, _ = run_cli(
            ["classify", "--group", "psl28_paper36", "--lambda", "6",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["case"] for row in payload["classes"]] == [2, 3, 4]
        assert all(row["lambda"] == 6 for row in payload["classes"])

    @pytest.mark.parametrize("lam", ["0", "-3"])
    def test_lambda_below_1_is_usage_error_before_any_group(self, lam, capsys, monkeypatch):
        # no t-design has lambda < 1: an empty answer would pass for a result
        def unbuilt(*args, **kwargs):
            raise AssertionError("group built")

        monkeypatch.setattr("blockdesigns.grouplib.builtin", unbuilt)
        monkeypatch.setattr("blockdesigns.grouplib.projective_group", unbuilt)
        for selector in (["--group", "psl28_paper36"], ["--q", "13"]):
            code, out, err = run_cli(["classify", *selector, "--k", "5", "--lambda", lam], capsys)
            assert code == 2 and out == ""
            assert err == f"error: --lambda must be at least 1, as for every t-design; got {lam}\n"

    def test_csv_format(self, capsys, memo_classify):
        code, out, _ = run_cli(
            ["classify", "--group", "psl28_paper36", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["case", "base_block", "lambda"]
        assert len(rows) == 47
        assert rows[1] == ["1", "1 2 4 16 26 31", "2"]

    def test_text_format_row_count(self, capsys, memo_classify):
        code, out, _ = run_cli(["classify", "--group", "psl28_paper36"], capsys)
        assert code == 0
        assert "46 classes" in out

    def test_worker_count_gives_identical_bytes(self, tmp_path, capsys):
        f1 = tmp_path / "w1.json"
        f2 = tmp_path / "w2.json"
        base = ["classify", "--q", "5", "--action", "pairs", "--k", "3", "--t", "1",
                "--format", "json"]
        assert run_cli(base + ["--workers", "1", "-o", str(f1)], capsys)[0] == 0
        assert run_cli(base + ["--workers", "2", "-o", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_invalid_worker_count(self, capsys):
        code, _, _ = run_cli(
            ["classify", "--q", "5", "--action", "pairs", "--workers", "0"], capsys
        )
        assert code == 2

    def test_worker_env_var_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKDESIGNS_WORKERS", "many")
        code, _, _ = run_cli(["sieve", "--qmax", "8"], capsys)
        assert code == 2

    def test_worker_env_var_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKDESIGNS_WORKERS", "2")
        code, out, _ = run_cli(["sieve", "--qmax", "32"], capsys)
        assert code == 0
        assert "no nontrivial survivors" not in out  # q=8 survivor inside range


class TestVerboseStages:
    """-v logs one line per classify stage to stderr, one for the orbit
    construct enumerates and one for what decided iso; stdout is unchanged.
    Run in a fresh interpreter: logging is configured once per process."""

    ARGS = ["classify", "--q", "13", "--k", "5", "--t", "2", "--format", "json"]

    @staticmethod
    def run(args, code=0):
        env = dict(os.environ)
        src = str(Path(blockdesigns.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["BLOCKDESIGNS_WORKERS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "blockdesigns", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == code, proc.stderr
        return proc.stdout, proc.stderr

    def test_one_line_per_stage(self):
        quiet_out, quiet_err = self.run(self.ARGS)
        out, err = self.run(self.ARGS + ["-v"])
        assert out == quiet_out
        assert quiet_err == ""
        lines = err.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("INFO blockdesigns.design: orbit scan: 5 orbits of 5-subsets in ")
        assert re.fullmatch(
            r"INFO blockdesigns\.design: filter: 5 of 5 orbits give 2-designs in \d+\.\d\d s",
            lines[1],
        )
        assert lines[2].startswith("INFO blockdesigns.design: certificates: 5 in ")
        assert lines[3] == "INFO blockdesigns.design: merging: 3 classes"
        assert lines[0].endswith(" s") and lines[2].endswith(" s")
        assert len(json.loads(out)["classes"]) == 3

    def test_divisibility_gate_skips_the_scan(self):
        args = ["classify", "--group", "pgammal28_paper36", "--k", "6", "--t", "3"]
        quiet_out, _ = self.run(args)
        out, err = self.run(args + ["-v"])
        assert out == quiet_out and out.endswith("\n0 classes\n")
        assert err.splitlines() == [
            "INFO blockdesigns.design: orbit scan skipped: |G| = 1512 is not a multiple "
            "of 714, the least block count of a 3-design"
        ]


    def test_construct_names_the_orbit_enumeration(self):
        # |PSL(2,13)| * 5 = 5460 points to gather: down the chain; |PSL(2,181)|
        # * 2 = 5,929,560 is past kcombs.MAX_SUBSETS: closed under generators
        line = r"INFO blockdesigns\.design: orbit design: {} blocks by {}, in \d+\.\d\d s"
        cases = ((["--q", "13", "--base", "1,2,3,5,8"], 546,
                  r"chain levels with transversals \[14, 13, 6\]"),
                 (["--q", "181", "--base", "1,2"], 16471, "generator closure in 16 rounds"))
        for args, b, how in cases:
            quiet_out, quiet_err = self.run(["construct", *args])
            out, err = self.run(["construct", *args, "-v"])
            assert out == quiet_out and quiet_err == ""
            assert json.loads(out)["b"] == b
            assert re.fullmatch(line.format(b, how), err.strip()), err

    def test_iso_names_what_decided(self, tmp_path, capsys):
        # rows 37 and 2 differ in their lambda_3 spectra; rows 2 and 42 share
        # theirs, so only the certificate search tells them apart
        files = {}
        for row, base in (("37", "1,2,3,16,24,32"), ("2", "1,2,3,4,15,27"),
                          ("42", "1,2,3,18,30,31")):
            files[row] = str(tmp_path / f"row{row}.json")
            run_cli(["construct", "--group", "psl28_paper36", "--base", base,
                     "-o", files[row]], capsys)
        decided = r"INFO blockdesigns\.isomorph: iso: the {} decided: {}, in \d+\.\d{{4}} s"
        cases = (("37", "2", 3, "lambda_3 spectra", "not isomorphic"),
                 ("2", "42", 3, "certificate search", "not isomorphic"),
                 ("37", "37", 0, "certificate search", "isomorphic"))
        for a, b, code, by, answer in cases:
            quiet_out, quiet_err = self.run(["iso", files[a], files[b]], code)
            out, err = self.run(["iso", files[a], files[b], "-v"], code)
            assert out == quiet_out == f"{answer}\n"
            assert quiet_err == ""
            assert re.fullmatch(decided.format(by, answer), err.strip()), err

    def test_iso_debug_logs_both_searches(self, tmp_path, capsys):
        # row 37 against a copy with its points reversed: -vv adds one line
        # per certificate search before the line that says what decided
        row37 = tmp_path / "row37.json"
        run_cli(["construct", "--group", "psl28_paper36", "--base", "1,2,3,16,24,32",
                 "-o", str(row37)], capsys)
        record = json.loads(row37.read_text())
        reversed_points = tmp_path / "reversed.json"
        reversed_points.write_text(json.dumps(
            {"v": 36, "blocks": [[37 - p for p in blk] for blk in record["blocks"]]}))
        out, err = self.run(["iso", str(row37), str(reversed_points), "-vv"])
        assert out == "isomorphic\n"
        search = (r"DEBUG blockdesigns\.isomorph: search: \d+ nodes, \d+ leaves; \d+ "
                  r"discovered automorphisms grew the pruning group, now of order \d+")
        lines = err.splitlines()
        assert len(lines) == 3, err
        assert all(re.fullmatch(search, line) for line in lines[:2]), err
        assert lines[2].startswith("INFO blockdesigns.isomorph: iso: the certificate search")


class TestSieve:
    def test_text_summary(self, capsys):
        code, out, _ = run_cli(["sieve", "--qmax", "64"], capsys)
        assert code == 0
        assert "NONTRIVIAL SURVIVOR: q=8 case=even-3 v=36 k=6" in out
        assert "4 <= q <= 64" in out

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(["sieve", "--qmax", "16", "--format", "json"], capsys)
        assert code == 0
        parsed = [json.loads(line) for line in out.splitlines()]
        assert any(rec["survivor"] and not rec["trivial"] for rec in parsed)

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(["sieve", "--qmax", "3"], capsys)
        assert code == 2

    def test_qmax_above_bound_is_usage_error(self, capsys, monkeypatch):
        # refused before the prime-power table, whose memory is linear in qmax
        def unbuilt(*args):
            raise AssertionError("prime_powers_upto called")

        monkeypatch.setattr("blockdesigns.sieve.prime_powers_upto", unbuilt)
        for qmax in (MAX_QMAX + 1, 10**12):
            code, out, err = run_cli(["sieve", "--qmax", str(qmax)], capsys)
            assert code == 2 and out == ""
            assert err == f"error: --qmax must be in 4..{MAX_QMAX}\n"

    def test_starts_without_numpy(self):
        # a fresh interpreter: this one has numpy loaded already
        env = dict(os.environ)
        src = str(Path(blockdesigns.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys; import blockdesigns; from blockdesigns.cli import main; "
            "assert main(['sieve', '--qmax', '64']) == 0; "
            "assert 'numpy' not in sys.modules, 'numpy imported'"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "NONTRIVIAL SURVIVOR: q=8 case=even-3 v=36 k=6" in proc.stdout

    def test_json_to_1e6_in_bounded_memory_without_numpy(self, tmp_path):
        # the 354,232 verdicts are kept as columns and written a chunk at a
        # time. The child reads its own peak RSS as VmHWM: on Linux its
        # ru_maxrss would start at this process's peak, carried over the exec
        env = dict(os.environ)
        src = str(Path(blockdesigns.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / "sieve-1e6.jsonl"
        args = ["sieve", "--qmax", "1000000", "--format", "json", "-o", str(path)]
        code = (
            "import sys\n"
            "from blockdesigns.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "if sys.platform.startswith('linux'):\n"
            "    print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "               if line.startswith('VmHWM:')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "a936bd20f6dd826afbb797002d64c483098eb6c42b5c564e2463410766de6805"
        if sys.platform.startswith("linux"):
            peak_kib = int(proc.stdout)
            assert peak_kib < 50 * 1024, f"peak RSS {peak_kib / 1024:.1f} MB"

    def test_bound_error_is_usage_error_without_numpy(self):
        # BoundError is caught as a usage error even where no module that
        # needs numpy has been imported
        env = dict(os.environ)
        src = str(Path(blockdesigns.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from blockdesigns import permcore, sieve\n"
            "def refuse(qmax):\n"
            "    raise permcore.BoundError('refused')\n"
            "sieve.run = refuse\n"
            "from blockdesigns.cli import main\n"
            "assert main(['sieve', '--qmax', '64']) == 2\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "error: refused\n"

    def test_package_names_resolve_lazily(self):
        from blockdesigns import design, sieve

        assert blockdesigns.sieve_run is sieve.run
        assert blockdesigns.Design is design.Design
        for name in blockdesigns.__all__:
            assert getattr(blockdesigns, name) is not None
        with pytest.raises(AttributeError):
            blockdesigns.no_such_name

    def test_streamed_json_is_json_lines(self, tmp_path, capsys, monkeypatch):
        # 5,735 verdicts: one full chunk and a partial one
        report = sieve.run(10_000)
        assert len(report.verdicts) > sieve.JSON_CHUNK
        assert len(report.verdicts) % sieve.JSON_CHUNK
        text = report.json_lines()

        # the CLI writes chunk by chunk and never builds the whole text
        def whole_text(self):
            raise AssertionError("json_lines called")

        monkeypatch.setattr(sieve.SieveReport, "json_lines", whole_text)
        out_file = tmp_path / "sieve.jsonl"
        code, out, _ = run_cli(["sieve", "--qmax", "10000", "--format", "json"], capsys)
        assert code == 0
        code, file_out, _ = run_cli(["sieve", "--qmax", "10000", "--format", "json",
                                     "-o", str(out_file)], capsys)
        assert code == 0 and file_out == ""
        assert out.encode() == out_file.read_bytes() == text.encode()

    def test_worker_count_gives_identical_bytes(self, capsys):
        # --workers is accepted on sieve; it runs in one process regardless
        base = ["sieve", "--qmax", "300", "--format", "json"]
        code1, out1, _ = run_cli(base + ["--workers", "1"], capsys)
        code2, out2, _ = run_cli(base + ["--workers", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 and out1 == out2


@pytest.mark.parametrize("subcommand,workers", [
    ("construct", "checked (>= 1) but unused: construct runs in one process"),
    ("sieve", "checked (>= 1) but unused: sieve runs in one process"),
    ("classify", "worker processes (>= 1)"),
    ("verify", "worker processes (>= 1)"),
])
def test_workers_help_says_what_the_option_does(subcommand, workers, capsys):
    # classify and verify spread their certificates over --workers
    # processes; construct and sieve only check the value
    with pytest.raises(SystemExit) as exit_info:
        main([subcommand, "--help"])
    assert exit_info.value.code == 0
    assert f"--workers WORKERS {workers}" in " ".join(capsys.readouterr().out.split())


class TestVerify:
    def test_table2_passes(self, capsys, memo_classify):
        code, out, _ = run_cli(["verify", "--table2"], capsys)
        assert code == 0
        assert "PASS" in out and "46" in out

    def test_table2_mismatch_fails_with_exit_3(self, capsys, memo_classify, monkeypatch):
        # the golden multiset without row 44 and with a row no class has
        want = golden.table2_multiset()
        del want[((1, 2, 4, 16, 26, 31), 2)]
        want[((1, 2, 3, 4, 5, 6), 12)] += 1
        monkeypatch.setattr(golden, "table2_multiset", lambda: want)
        code, out, _ = run_cli(["verify", "--table2"], capsys)
        assert code == 3
        assert out == (
            "table2 verification: FAIL\n"
            "  missing: base=1,2,3,4,5,6 lambda=12\n"
            "  unexpected: base=1,2,4,16,26,31 lambda=2\n"
        )

    def test_requires_table2_flag(self, capsys):
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 2


class TestIso:
    @pytest.fixture()
    def design_files(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(["construct", "--group", "psl28_paper36",
                 "--base", "1,2,4,16,26,31", "-o", str(a)], capsys)
        run_cli(["construct", "--group", "psl28_paper36",
                 "--base", "1,2,3,16,28,36", "-o", str(b)], capsys)
        return a, b

    def test_same_file_isomorphic(self, design_files, capsys):
        a, _ = design_files
        code, out, _ = run_cli(["iso", str(a), str(a)], capsys)
        assert code == 0
        assert out.strip() == "isomorphic"

    def test_relabeled_copy_isomorphic(self, design_files, tmp_path, capsys):
        a, _ = design_files
        rec = json.loads(a.read_text())
        relabeled = {
            "v": rec["v"],
            "blocks": [sorted(p % 36 + 1 for p in blk) for blk in rec["blocks"]],
        }
        c = tmp_path / "c.json"
        c.write_text(json.dumps(relabeled))
        code, out, _ = run_cli(["iso", str(a), str(c)], capsys)
        assert code == 0

    def test_different_designs_not_isomorphic(self, design_files, capsys):
        a, b = design_files
        code, out, _ = run_cli(["iso", str(a), str(b)], capsys)
        assert code == 3
        assert out.strip() == "not isomorphic"

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(["iso", str(bad), str(bad)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "record",
        [
            {"v": 7.9, "blocks": [[1, 2, 4]]},
            {"v": 7, "blocks": [[1.2, 2, 4]]},
            {"v": 7, "blocks": [[True, 2, 4]]},
            {"v": 7, "blocks": ["124"]},
        ],
    )
    def test_non_integer_json_is_usage_error(self, record, tmp_path, capsys):
        # int() would read every one of these as the block {1, 2, 4}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        code, out, err = run_cli(["iso", str(bad), str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "is not an integer" in err

    @pytest.mark.parametrize("record", [[36, [[1, 2, 3]]], 36, "design", None])
    def test_non_object_json_is_usage_error(self, record, tmp_path, capsys):
        # valid JSON that is no design record: a list, a number, a string, null
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        code, out, err = run_cli(["iso", str(bad), str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert 'must hold a JSON object with "v" and "blocks"' in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["iso", str(tmp_path / "absent.json"), str(tmp_path / "absent.json")],
            capsys,
        )
        assert code == 2

    def test_search_past_the_recursion_limit_is_usage_error(self, tmp_path, capsys):
        # a perfect matching of 2,000 points: 1,000 blocks, inside the
        # vertex bound, and one search level per block
        path = tmp_path / "matching.json"
        path.write_text(json.dumps({"v": 2000, "blocks": [[i, i + 1] for i in range(1, 2000, 2)]}))
        code, out, err = run_cli(["iso", str(path), str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: the certificate search of 2000 points")
        assert "recursion limit" in err and "Traceback" not in err
