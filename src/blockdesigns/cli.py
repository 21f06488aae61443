"""Command line entry point.

Subcommands: construct, classify, sieve, verify, iso. All point input and
output is 1-based; conversion to the 0-based internal labels happens here
and nowhere else. Exit codes: 0 success (or "true" for iso/verify), 3 false
(non-isomorphic, verification mismatch), 2 usage error, 1 internal error.
A usage error is a UsageError raised here or a permcore.BoundError raised
by a size bound anywhere in the package.

construct and classify get their group one way, from _group(): its order,
degree and name, and a build() that makes it. A --q group is sized by
closed forms, so every size refusal comes before its chain is built.

Output files are written with "\n" newlines and deterministic content, so
repeated runs with any worker count are byte-identical.

The modules that need numpy (design, grouplib, isomorph, kcombs) are
imported by the subcommands that use them, so `sieve` starts without numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from collections import Counter
from collections.abc import Callable
from math import comb
from typing import TYPE_CHECKING

from . import golden
from .golden import BUILTIN_NAMES
from .permcore import BoundError, PermGroup
from .sieve import MAX_QMAX
from .sieve import run as sieve_run

if TYPE_CHECKING:
    from .design import Design

log = logging.getLogger("blockdesigns")

# construct refuses a base block whose orbit may exceed this many blocks; the
# orbit of a 2-subset of 2049 points under PSL(2,2048), 2,098,176 blocks,
# takes over a minute and more than 1 GB
MAX_CONSTRUCT_BLOCKS = 500_000


class UsageError(Exception):
    pass


def _group(args) -> tuple[int, int, str, Callable[[], PermGroup]]:
    """The group selector, --group BUILTIN or --q with --variant/--action:
    the group's order, degree and name, and build() to make it. A builtin is
    built here; a --q group is sized by closed forms, so a caller can refuse
    an input before build() spends seconds on a large group's chain."""
    if args.group is not None:
        if args.q is not None:
            raise UsageError("give either --group or --q, not both")
        if args.group not in BUILTIN_NAMES:
            raise UsageError(
                f"unknown builtin {args.group!r}; choices: {', '.join(BUILTIN_NAMES)}"
            )
        from .grouplib import builtin

        G = builtin(args.group)
        return G.order(), G.degree, args.group, lambda: G
    if args.q is None:
        raise UsageError("a group is required: --group NAME or --q Q [--variant V] [--action A]")
    from .grouplib import pair_action, projective_group, projective_order
    from .kcombs import MAX_SUBSETS

    try:
        order = projective_order(args.q, args.variant)
    except ValueError as exc:
        raise UsageError(f"--q {args.q}: {exc}")
    degree = args.q + 1 if args.action == "line" else comb(args.q + 1, 2)

    def build() -> PermGroup:
        if degree * degree > MAX_SUBSETS:
            # the first chain level of a transitive group: degree images of degree points
            raise UsageError(f"--q {args.q} gives degree {degree}; the first level of its "
                             f"stabilizer chain would hold {degree}^2 = {degree * degree} "
                             f"points, more than the {MAX_SUBSETS} bound")
        G, _ = projective_group(args.q, args.variant)
        return pair_action(G)[0] if args.action == "pairs" else G

    name = f"projective(q={args.q},variant={args.variant},action={args.action})"
    return order, degree, name, build


def _parse_base(text: str, degree: int) -> tuple[int, ...]:
    try:
        pts = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"base block {text!r} is not a comma-separated integer list")
    for p in pts:
        if not 1 <= p <= degree:
            raise UsageError(f"point {p} out of range 1..{degree}")
    if len(set(pts)) != len(pts):
        raise UsageError("base block has repeated points")
    return tuple(sorted(p - 1 for p in pts))


def _emit(chunks, path: str | None) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(chunks)


def _one_based(block: tuple[int, ...]) -> list[int]:
    return [p + 1 for p in block]


def _record_json(record: dict) -> list[str]:
    """The text json.dumps(record, indent=1) + "\n", in pieces, for a record
    whose "blocks" is a non-empty list of non-empty integer lists. indent
    turns off json's C encoder, so only the other fields go through
    json.dumps and the block list is joined here."""
    head, tail = json.dumps({**record, "blocks": None}, indent=1).split('"blocks": null')
    blocks = ",\n".join(["  [\n   " + ",\n   ".join(map(str, blk)) + "\n  ]"
                         for blk in record["blocks"]])
    return [head, '"blocks": [\n', blocks, "\n ]", tail, "\n"]


def cmd_construct(args) -> int:
    from .design import is_flag_transitive, lambda_of, orbit_design
    from .kcombs import subset_positions

    order, degree, name, build = _group(args)
    base = _parse_base(args.base, degree)
    if not 1 <= args.t <= len(base):
        raise UsageError(f"--t must be in 1..{len(base)}, the base block size")
    # lambda_of's bound on one block's t-subsets, checked before any group is built
    subset_positions(len(base), args.t)
    # the orbit of the base block has at most |G| blocks, and at most C(v, k)
    bound = min(order, comb(degree, len(base)))
    if bound > MAX_CONSTRUCT_BLOCKS:
        raise UsageError(
            f"the orbit of a {len(base)}-subset of {degree} points under a group of order "
            f"{order} may have {bound} blocks; construct builds at most {MAX_CONSTRUCT_BLOCKS}"
        )
    G = build()
    design = orbit_design(G, base)
    lam = lambda_of(design, args.t)
    record = {
        "v": design.v,
        "k": design.k,
        "t": args.t,
        "lambda": lam,
        "base_block": _one_based(base),
        "group": name,
        "blocks": (design.blocks + 1).tolist(),
        "b": design.b,
        "block_transitive": True,
        "flag_transitive": is_flag_transitive(G, design),
        "status": "ok" if lam is not None else f"not a {args.t}-design",
    }
    _emit(_record_json(record), args.output)
    if lam is None:
        log.info("orbit of size %d is not a %d-design", design.b, args.t)
    return 0


def cmd_classify(args) -> int:
    if args.lam is not None and args.lam < 1:
        raise UsageError(f"--lambda must be at least 1, as for every t-design; got {args.lam}")
    from .design import classify, no_orbit_design
    from .kcombs import MAX_SUBSETS

    order, degree, name, build = _group(args)
    if not 1 <= args.t < args.k < degree:
        raise UsageError(f"need 1 <= t < k < {degree} (the degree); got t={args.t}, k={args.k}")
    if no_orbit_design(order, degree, args.k, args.t):
        classes = []  # classify()'s answer, before build() makes the group
    elif comb(degree, args.k) > MAX_SUBSETS:
        raise UsageError(f"the {comb(degree, args.k)} {args.k}-subsets of {degree} points "
                         f"exceed the {MAX_SUBSETS}-subset bound of the orbit scan")
    else:
        classes = classify(build(), args.k, args.t, workers=args.workers)
    rows = [
        (i + 1, _one_based(c.base), c.lam, c.b, c.certificate.hexdigest)
        for i, c in enumerate(classes)
    ]
    if args.lam is not None:
        rows = [r for r in rows if r[2] == args.lam]
    if args.format == "json":
        payload = {
            "group": name,
            "k": args.k,
            "t": args.t,
            "classes": [
                {"case": i, "base_block": base, "lambda": lam, "b": b, "certificate": cert}
                for i, base, lam, b, cert in rows
            ],
        }
        text = json.dumps(payload, indent=1) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["case", "base_block", "lambda"])
        for i, base, lam, _b, _cert in rows:
            writer.writerow([i, " ".join(map(str, base)), lam])
        text = buf.getvalue()
    else:
        lines = [f"{'case':>4}  {'base block':<24} {'lambda':>6}  {'b':>5}  certificate"]
        for i, base, lam, b, cert in rows:
            base_s = ",".join(map(str, base))
            lines.append(f"{i:>4}  {base_s:<24} {lam:>6}  {b:>5}  {cert[:16]}")
        lines.append(f"{len(rows)} classes")
        text = "\n".join(lines) + "\n"
    _emit((text,), args.output)
    return 0


def cmd_sieve(args) -> int:
    if not 4 <= args.qmax <= MAX_QMAX:
        raise UsageError(f"--qmax must be in 4..{MAX_QMAX}")
    report = sieve_run(args.qmax)
    if args.format == "json":
        # written a chunk at a time: at --qmax 10**6 the whole text is 52 MB
        _emit(report.json_chunks(), args.output)
    else:
        _emit((report.summary_text(),), args.output)
    return 0


def cmd_verify(args) -> int:
    if not args.table2:
        raise UsageError("verify requires --table2")
    from .design import classify
    from .grouplib import builtin

    classes = classify(builtin("psl28_paper36"), 6, 2, workers=args.workers)
    got = Counter((tuple(_one_based(c.base)), c.lam) for c in classes)
    want = golden.table2_multiset()
    if got == want:
        _emit((f"table2 verification: PASS ({len(classes)} classes match)\n",), args.output)
        return 0
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    lines = ["table2 verification: FAIL"]
    for base, lam in missing:
        lines.append(f"  missing: base={','.join(map(str, base))} lambda={lam}")
    for base, lam in extra:
        lines.append(f"  unexpected: base={','.join(map(str, base))} lambda={lam}")
    _emit(("\n".join(lines) + "\n",), args.output)
    return 3


def _load_design(path: str) -> Design:
    from .design import Design

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError(f'{path} must hold a JSON object with "v" and "blocks", '
                         f"not {json.dumps(data)[:40]}")

    def integer(x):
        # JSON true is a Python int, but not a point
        if type(x) is not int:
            raise UsageError(f"{path}: {json.dumps(x)} is not an integer")
        return x

    try:
        return Design(integer(data["v"]), [[integer(p) - 1 for p in blk] for blk in data["blocks"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} lacks a valid design record: {exc}")


def cmd_iso(args) -> int:
    from .isomorph import are_isomorphic

    d1 = _load_design(args.file_a)
    d2 = _load_design(args.file_b)
    if are_isomorphic(d1, d2):
        sys.stdout.write("isomorphic\n")
        return 0
    sys.stdout.write("not isomorphic\n")
    return 3


def _add_group_args(sub) -> None:
    sub.add_argument("--group", help="builtin group name (%s)" % "|".join(BUILTIN_NAMES))
    sub.add_argument("--q", type=int, help="prime power for a projective group")
    sub.add_argument("--variant", choices=("socle", "full"), default="socle")
    sub.add_argument(
        "--action",
        choices=("line", "pairs"),
        default="line",
        help="natural action on the projective line, or the induced action on unordered point pairs",
    )


def _add_common(sub, workers_help: str = "worker processes (>= 1)") -> None:
    sub.add_argument("-o", "--output", help="output file (default: stdout)")
    sub.add_argument("--workers", type=int, default=None, help=workers_help)
    sub.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdesigns",
        description="block-transitive design construction, classification and sieving",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("construct", help="build the block orbit of a base block")
    _add_group_args(p)
    p.add_argument(
        "--base",
        required=True,
        help="comma-separated 1-based points; refused when min(|G|, C(v, k)), the most "
        f"blocks its orbit can have, exceeds {MAX_CONSTRUCT_BLOCKS}",
    )
    p.add_argument("--t", type=int, default=2)
    _add_common(p, "checked (>= 1) but unused: construct runs in one process")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("classify", help="classify k-subset orbit designs up to isomorphism")
    _add_group_args(p)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=int, default=None,
                   help="keep only this lambda (at least 1)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("sieve", help="numeric elimination over a prime power range")
    p.add_argument("--qmax", type=int, default=1024, help=f"largest q, at most {MAX_QMAX}")
    p.add_argument("--format", choices=("json", "text"), default="text")
    _add_common(p, "checked (>= 1) but unused: sieve runs in one process")
    p.set_defaults(func=cmd_sieve)

    p = subs.add_parser("verify", help="check classification output against embedded reference data")
    p.add_argument("--table2", action="store_true", help="verify the 46-class table")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("iso", help="decide isomorphism of two design JSON files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-v", "--verbose", action="count", default=0)
    p.set_defaults(func=cmd_iso)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if getattr(args, "verbose", 0) == 1:
        level = logging.INFO
    elif getattr(args, "verbose", 0) >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        if hasattr(args, "workers"):  # iso takes no --workers
            if args.workers is None:
                raw = os.environ.get("BLOCKDESIGNS_WORKERS", "1")
                try:
                    args.workers = int(raw)
                except ValueError:
                    raise UsageError(f"BLOCKDESIGNS_WORKERS={raw!r} is not an integer")
            if args.workers < 1:
                raise UsageError("worker count must be >= 1")
        return args.func(args)
    except (UsageError, BoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception:  # internal failure contract: exit 1, never a traceback-free silent pass
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
