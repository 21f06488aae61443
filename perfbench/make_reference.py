"""Re-derive perfbench/reference.json from the library at the identity labeling.

    python3 perfbench/make_reference.py [--out perfbench/reference.json]

Runs the workload bodies at seed 0 and records what the checks compare
against: sorted certificate digests and per-lambda counts of the three
classifications, their flag-transitive counts, the digests the two
degree-36 ones share, and the sieve's survivors, verdict count and JSON
sha256. Before writing, it checks the derived data against golden.TABLE2
and golden.PGAMMAL28_LAMBDA_COUNTS, so a reference cannot drift from the
paper's tables, and that classify-q13 gives the same digests under another
relabeling. Takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, seed: int = 0) -> dict:
    return workload.body(workload.inputs_for(workload.setup(), seed, 0))


def _classification(workload, seed: int = 0) -> tuple:
    out = _run(workload, seed)
    classes, flags = out["classes"], out["flags"]
    entry = {
        "classes": len(classes),
        "lambda_counts": {str(lam): n for lam, n in sorted(Counter(c.lam for c in classes).items())},
        "flag_transitive": sum(flags),
        "flag_transitive_lambdas": sorted(c.lam for c, f in zip(classes, flags) if f),
        "digests": sorted(c.certificate.hexdigest for c in classes),
    }
    if "socle_flags" in out:
        entry["flag_transitive_socle"] = sum(out["socle_flags"])
    return entry, classes, flags


def derive() -> dict:
    from blockdesigns import golden
    from perfbench.workloads import WORKLOADS

    t504, classes504, flags504 = _classification(WORKLOADS["table2-504"])
    rows = [(tuple(p + 1 for p in c.base), c.lam) for c in classes504]
    if Counter(rows) != Counter(golden.table2_multiset()):
        raise SystemExit("order-504 classification does not match golden.TABLE2")
    flagged = [golden.TABLE2.index(row) + 1 for row, f in zip(rows, flags504) if f]
    if flagged != [golden.TABLE2_FLAG_TRANSITIVE_CASE]:
        raise SystemExit("order-504 flag transitivity does not match the table")

    t1512, _, _ = _classification(WORKLOADS["table-1512"])
    if {int(k): n for k, n in t1512["lambda_counts"].items()} != golden.PGAMMAL28_LAMBDA_COUNTS:
        raise SystemExit("order-1512 lambda counts do not match golden.PGAMMAL28_LAMBDA_COUNTS")
    t1512["shared_digests"] = len(set(t1512["digests"]) & set(t504["digests"]))

    q13, _, _ = _classification(WORKLOADS["classify-q13"])
    if _classification(WORKLOADS["classify-q13"], seed=1)[0] != q13:
        raise SystemExit("classify-q13 depends on the relabeling")

    out = _run(WORKLOADS["existence"])
    if any(out["found"]):
        raise SystemExit("a t=3 design was found where the paper has none")
    report = out["report"]
    return {
        "classify-q13": q13,
        "table2-504": t504,
        "table-1512": t1512,
        "existence": {
            "survivors": [[x.q, x.case_id, x.v, x.k] for x in report.survivors],
            "verdicts": len(report.verdicts),
            "json_sha256": hashlib.sha256(out["json"].encode()).hexdigest(),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "perfbench" / "reference.json")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    ref = derive()
    args.out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
