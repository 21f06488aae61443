"""Tests of the benchmark harness on tiny inputs: PSL(2,7) on the 8 points of
its projective line, where classify(G, 4, 2) finds two classes in well under
a second. Run with `python3 -m pytest perfbench/tests` from the repo root.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from blockdesigns import projective_group  # noqa: E402
from perfbench import inputs, run  # noqa: E402
from perfbench.make_reference import _classification  # noqa: E402
from perfbench.workloads import WORKLOADS, Checks, Classification, IsoPairs  # noqa: E402


def _psl27():
    return projective_group(7, "socle")[0]


TINY = Classification("tiny", _psl27, k=4, t=2, workers=2, socle=True)


@pytest.fixture(scope="module")
def reference():
    entry, classes, _ = _classification(TINY)
    return {"tiny": entry}, classes


def _tiny_table(classes):
    return tuple((tuple(p + 1 for p in c.base), c.lam) for c in classes)


def test_seed_changes_labels_not_invariants(reference):
    _, classes = reference
    base = TINY.setup()
    a, b = TINY.inputs_for(base, 1, 0)["G"], TINY.inputs_for(base, 2, 0)["G"]
    assert a.generators != b.generators
    assert TINY.inputs_for(base, 1, 1)["G"].generators != a.generators
    assert a.order() == b.order() == _psl27().order()
    from blockdesigns import design

    ca, cb = design.classify(a, 4, 2), design.classify(b, 4, 2)
    assert sorted(c.certificate.hexdigest for c in ca) == sorted(
        c.certificate.hexdigest for c in cb
    ) == sorted(c.certificate.hexdigest for c in classes)
    assert sorted(c.lam for c in ca) == sorted(c.lam for c in cb)
    assert TINY.inputs_for(base, 0, 0)["G"].generators == _psl27().generators
    assert not TINY.inputs_for(base, 0, 1)["identity"]


def test_measure_smoke(reference):
    ref, _ = reference
    raw, checks = run.measure(TINY, seed=3, seconds=0, reference=ref,
                              probe=lambda: 0.5, probes=2)
    assert len(raw["walls"]) == 1 and raw["setups"] == [0.5, 0.5]
    assert checks.attempted > 0 and checks.failed == 0


def test_measure_repeats_until_seconds(reference):
    ref, _ = reference
    raw, checks = run.measure(TINY, seed=3, seconds=0.5, reference=ref,
                              probe=lambda: 0.0, probes=3)
    assert len(raw["walls"]) >= 2 and len(raw["setups"]) == 3
    assert checks.failed == 0


def test_traced_smoke_includes_worker_spans(reference, tmp_path, monkeypatch):
    ref, _ = reference
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    metrics, spans, checks = run.traced(TINY, seed=4, seconds=0, reference=ref)
    assert checks.failed == 0
    assert any(name.startswith("burnside") for name, _ in checks.results)
    workers = {s["pid"] for s in spans if s["name"] == "isomorph.certificate"}
    assert workers and os.getpid() not in workers
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert metrics["isomorph.certificate.calls"] == metrics["design.filter.hits"] > 0
    assert metrics["permcore.PermGroup.calls"] > 0
    assert "trace.overhead_s" in metrics and metrics["pair_p50_s"] == 0.0
    assert not list(tmp_path.glob("workers/*.json"))


def test_corrupt_digest_fails(reference):
    ref, _ = reference
    bad = copy.deepcopy(ref)
    bad["tiny"]["digests"][0] = "0" * 64
    _, checks = run.measure(TINY, seed=0, seconds=0, reference=bad)
    assert checks.failed > 0
    assert 1 - checks.failed / checks.attempted < 1


def test_iso_pairs_and_corrupt_answer(reference):
    _, classes = reference
    table = _tiny_table(classes)
    cases = ((1, 1), (1, 2), (2, 2), (2, 1))
    good = IsoPairs(name="tiny-pairs", group=_psl27, table=table, cases=cases)
    inp = good.inputs_for(good.setup(), 5, 0)
    checks = Checks()
    out = good.body(inp)
    good.check(inp, out, {}, checks)
    assert checks.attempted == len(cases) and checks.failed == 0
    assert len(out["pair_times"]) == len(cases)

    # a repeated row makes "different" rows isomorphic, so the expected
    # answers of the pairs (1, 2) and (2, 1) are wrong
    bad = IsoPairs(name="tiny-pairs", group=_psl27, table=(table[0],) * 2, cases=cases)
    inp = bad.inputs_for(bad.setup(), 5, 0)
    checks = Checks()
    bad.check(inp, bad.body(inp), {}, checks)
    assert checks.failed == 2


def test_pairs_depend_on_seed_and_repetition_only():
    G = _psl27()
    from blockdesigns import design

    designs = {1: design.orbit_design(G, (0, 1, 2, 4)), 2: design.orbit_design(G, (0, 1, 2, 3))}
    cases = ((1, 1), (1, 2))
    a, b = inputs.iso_pairs(designs, cases, 7, 0), inputs.iso_pairs(designs, cases, 7, 0)
    assert [(p.first, p.second) for p in a] == [(p.first, p.second) for p in b]
    assert [p.isomorphic for p in a] == [True, False]
    for other in (inputs.iso_pairs(designs, cases, 8, 0), inputs.iso_pairs(designs, cases, 7, 1)):
        assert [(p.first, p.second) for p in other] != [(p.first, p.second) for p in a]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "existence", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    from collections import Counter

    from perfbench import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = spans.layer_metrics([], Counter(), [])
    layer["trace.overhead_s"] = 0.0
    layer.update(run.pair_latency([1.0, 2.0]))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._layer_unit(name) for name in layer
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
