#!/usr/bin/env python3
"""Recompute every headline result of the package from scratch.

Runs the full classification of block-transitive 2-(36, 6, lambda)
designs under both degree-36 builtin groups, flags the flag-transitive
classes (under the full group and under its socle), matches isomorphic
classes across the two classifications, and finishes with the parameter
sieve. Prints everything as text; the classifications as JSON come from
`python -m blockdesigns classify --group NAME --format json`.

It takes about 2.5 s on one core of a 2-vCPU Intel Xeon VM (Python 3.11),
most of it the two classifications. Use --workers N to spread
the certificate computations of each classification over N processes; the
orbit scans and the sieve stay single-process.
"""

import argparse
import sys
import time

from blockdesigns.design import classify, is_flag_transitive, orbit_design
from blockdesigns.grouplib import builtin
from blockdesigns.sieve import run as sieve_run


def fmt_block(block):
    return " ".join(str(p + 1) for p in block)


def show_group_facts(name, G):
    sub = sorted(G.subdegrees(0))
    print(f"{name}: order {G.order()}, point stabilizer {G.pointwise_stabilizer((0,)).order()}, "
          f"subdegrees {sub}, primitive={G.is_primitive()}")


def classify_and_report(name, G, workers, ft_groups):
    """Classify k=6, t=2 orbit designs under G and print a summary.

    ft_groups maps a label to a group used for the flag-transitivity
    check (the classifying group itself, and optionally its socle).
    """
    t0 = time.perf_counter()
    classes = classify(G, 6, 2, workers=workers)
    elapsed = time.perf_counter() - t0
    print(f"\n{name}: {len(classes)} classes in {elapsed:.1f}s")

    hist = {}
    for c in classes:
        hist[c.lam] = hist.get(c.lam, 0) + 1
    print("  lambda histogram: " + ", ".join(f"{lam}:{n}" for lam, n in sorted(hist.items())))

    ft = {label: [] for label in ft_groups}
    for i, c in enumerate(classes, start=1):
        d = orbit_design(G, c.base)
        for label, H in ft_groups.items():
            if is_flag_transitive(H, d):
                ft[label].append((i, c))
    for label, rows in ft.items():
        print(f"  flag-transitive under {label}: {len(rows)}")
        for i, c in rows:
            print(f"    case {i}: base {fmt_block(c.base)}  lambda={c.lam}  b={c.b}")
    return classes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--qmax", type=int, default=1024, help="sieve upper bound")
    args = ap.parse_args(argv)

    psl = builtin("psl28_paper36")
    pgl = builtin("pgammal28_paper36")
    socle = pgl.derived_subgroup()

    print("== group invariants ==")
    show_group_facts("psl28_paper36", psl)
    show_group_facts("pgammal28_paper36", pgl)
    print(f"socle of pgammal28_paper36: order {socle.order()}")

    print("\n== classification ==")
    psl_classes = classify_and_report(
        "psl28_paper36", psl, args.workers, {"the group itself": psl}
    )
    print("\n  full table (case, base block, lambda, b):")
    for i, c in enumerate(psl_classes, start=1):
        print(f"    {i:3d}  {fmt_block(c.base)}  lambda={c.lam:2d}  b={c.b}")

    pgl_classes = classify_and_report(
        "pgammal28_paper36", pgl, args.workers,
        {"the full group": pgl, "its socle": socle},
    )

    print("\n== cross-classification isomorphisms ==")
    by_cert = {}
    for j, c in enumerate(pgl_classes, start=1):
        by_cert.setdefault(c.certificate.data, []).append(j)
    matched = 0
    for i, c in enumerate(psl_classes, start=1):
        hits = by_cert.get(c.certificate.data, [])
        if hits:
            matched += 1
            print(f"  case {i} (base {fmt_block(c.base)}, lambda={c.lam}) "
                  f"~ case {hits[0]} of the larger classification")
    print(f"  {matched} of {len(psl_classes)} classes also occur in the larger classification")

    print("\n== parameter sieve ==")
    report = sieve_run(args.qmax)
    print(report.summary_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
