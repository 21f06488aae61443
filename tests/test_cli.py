"""End-to-end CLI behavior: flags, formats, exit codes, determinism."""

import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import blockdesigns
from blockdesigns.cli import MAX_CONSTRUCT_BLOCKS, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_flag_transitive_case(self, tmp_path, capsys, psl_classes):
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

    def test_orbit_bound_refused_before_group_is_built(self, capsys, monkeypatch):
        # |PSL(2,2048)| comes from its closed form; building its chain takes seconds
        def unbuilt(*args, **kwargs):
            raise AssertionError("projective_group called")

        monkeypatch.setattr("blockdesigns.cli.projective_group", unbuilt)
        code, out, err = run_cli(["construct", "--q", "2048", "--base", "1,2"], capsys)
        assert code == 2 and out == ""
        assert err == (
            "error: the orbit of a 2-subset of 2049 points under a group of order 8589932544 "
            f"may have 2098176 blocks; construct builds at most {MAX_CONSTRUCT_BLOCKS}\n"
        )


class TestBadParameters:
    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "--q", "6"],  # not a prime power
            ["classify", "--q", "3"],  # socle not simple
            ["construct", "--group", "psl28_paper36", "--base", "1,2,3", "--t", "9"],  # t > k
            ["classify", "--group", "psl28_paper36", "--k", "40"],  # k > degree
            ["classify", "--q", "256", "--k", "3", "--t", "2"],  # degree 257 > 255
            ["classify", "--q", "257", "--k", "3", "--t", "2"],  # degree 258 > 255
            ["classify", "--q", "2048", "--k", "3", "--t", "2"],  # degree 2049
            ["classify", "--q", "23", "--action", "pairs"],  # degree 276 > 255
            ["construct", "--q", "6", "--base", "1,2"],  # not a prime power
            ["construct", "--q", "3", "--base", "1,2"],  # socle not simple
            ["classify", "--q", "32", "--k", "4"],  # 33 points + 8184 blocks > 5000
            ["classify", "--q", "251", "--k", "6"],  # C(252, 6) subsets to scan
        ],
    )
    def test_usage_error_without_traceback(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert any(line.startswith("error:") for line in err.splitlines())
        assert "Traceback" not in err


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
    def test_json_format(self, capsys, psl_classes):
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

    def test_lambda_filter_keeps_case_indices(self, capsys, psl_classes):
        code, out, _ = run_cli(
            ["classify", "--group", "psl28_paper36", "--lambda", "6",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["case"] for row in payload["classes"]] == [2, 3, 4]
        assert all(row["lambda"] == 6 for row in payload["classes"])

    def test_csv_format(self, capsys, psl_classes):
        code, out, _ = run_cli(
            ["classify", "--group", "psl28_paper36", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["case", "base_block", "lambda"]
        assert len(rows) == 47
        assert rows[1] == ["1", "1 2 4 16 26 31", "2"]

    def test_text_format_row_count(self, capsys, psl_classes):
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
    """-v logs one line per classify stage to stderr; stdout is unchanged.
    Run in a fresh interpreter: logging is configured once per process."""

    ARGS = ["classify", "--q", "13", "--k", "5", "--t", "2", "--format", "json"]

    @staticmethod
    def run(args):
        env = dict(os.environ)
        src = str(Path(blockdesigns.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["BLOCKDESIGNS_WORKERS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "blockdesigns", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
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

    def test_worker_count_gives_identical_bytes(self, capsys):
        # --workers is accepted on sieve; it runs in one process regardless
        base = ["sieve", "--qmax", "300", "--format", "json"]
        code1, out1, _ = run_cli(base + ["--workers", "1"], capsys)
        code2, out2, _ = run_cli(base + ["--workers", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 and out1 == out2


class TestVerify:
    def test_table2_passes(self, capsys, psl_classes):
        code, out, _ = run_cli(["verify", "--table2"], capsys)
        assert code == 0
        assert "PASS" in out and "46" in out

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

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["iso", str(tmp_path / "absent.json"), str(tmp_path / "absent.json")],
            capsys,
        )
        assert code == 2
