"""Command line entry point.

Subcommands: construct, classify, sieve, verify, iso. All point input and
output is 1-based; conversion to the 0-based internal labels happens here
and nowhere else. Exit codes: 0 success (or "true" for iso/verify), 3 false
(non-isomorphic, verification mismatch), 2 usage error, 1 internal error.

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
from math import comb
from typing import TYPE_CHECKING

from . import golden
from .golden import BUILTIN_NAMES
from .permcore import PermGroup
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


def _usage_errors() -> tuple[type[Exception], ...]:
    """The exceptions main() reports as usage errors: kcombs.BoundError is
    one once a subcommand has imported kcombs, and none can raise it before."""
    kcombs = sys.modules.get(f"{__package__}.kcombs")
    return (UsageError,) if kcombs is None else (UsageError, kcombs.BoundError)


def _default_workers() -> int:
    raw = os.environ.get("BLOCKDESIGNS_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"BLOCKDESIGNS_WORKERS={raw!r} is not an integer")
    if n < 1:
        raise UsageError("worker count must be >= 1")
    return n


def _resolve_group(args) -> tuple[PermGroup, str]:
    """Group selector: --group BUILTIN, or --q with --variant/--action."""
    from .grouplib import builtin, pair_action, projective_group
    from .kcombs import MAX_SUBSETS

    if args.group is not None:
        if args.q is not None:
            raise UsageError("give either --group or --q, not both")
        if args.group not in BUILTIN_NAMES:
            raise UsageError(
                f"unknown builtin {args.group!r}; choices: {', '.join(BUILTIN_NAMES)}"
            )
        return builtin(args.group), args.group
    if args.q is None:
        raise UsageError("a group is required: --group NAME or --q Q [--variant V] [--action A]")
    # a bad --q is a usage error before any group is built
    _, degree = _projective_size(args)
    if degree * degree > MAX_SUBSETS:
        # the first chain level of a transitive group: degree images of degree points
        raise UsageError(f"--q {args.q} gives degree {degree}; the first level of its "
                         f"stabilizer chain would hold {degree}^2 = {degree * degree} "
                         f"points, more than the {MAX_SUBSETS} bound")
    G, _ = projective_group(args.q, args.variant)
    if args.action == "pairs":
        G, _ = pair_action(G)
    return G, f"projective(q={args.q},variant={args.variant},action={args.action})"


def _parse_base(text: str, degree: int) -> tuple[int, ...]:
    try:
        pts = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"base block {text!r} is not a comma-separated integer list")
    if not pts:
        raise UsageError("base block is empty")
    for p in pts:
        if not 1 <= p <= degree:
            raise UsageError(f"point {p} out of range 1..{degree}")
    if len(set(pts)) != len(pts):
        raise UsageError("base block has repeated points")
    return tuple(sorted(p - 1 for p in pts))


def _emit(text: str, path: str | None) -> None:
    _emit_chunks((text,), path)


def _emit_chunks(chunks, path: str | None) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(chunks)


def _one_based(block: tuple[int, ...]) -> list[int]:
    return [p + 1 for p in block]


def _projective_size(args) -> tuple[int, int]:
    """|G| and the degree of the --q group, without building its slow chain."""
    from .grouplib import projective_order

    try:
        order = projective_order(args.q, args.variant)
    except ValueError as exc:
        raise UsageError(f"--q {args.q}: {exc}")
    return order, args.q + 1 if args.action == "line" else comb(args.q + 1, 2)


def cmd_construct(args) -> int:
    from .design import is_flag_transitive, lambda_of, orbit_design

    sized = args.group is None and args.q is not None
    if sized:
        order, degree = _projective_size(args)
    else:
        G, name = _resolve_group(args)
        order, degree = G.order(), G.degree
    base = _parse_base(args.base, degree)
    if not 1 <= args.t <= len(base):
        raise UsageError(f"--t must be in 1..{len(base)}, the base block size")
    # the orbit of the base block has at most |G| blocks, and at most C(v, k)
    bound = min(order, comb(degree, len(base)))
    if bound > MAX_CONSTRUCT_BLOCKS:
        raise UsageError(
            f"the orbit of a {len(base)}-subset of {degree} points under a group of order "
            f"{order} may have {bound} blocks; construct builds at most {MAX_CONSTRUCT_BLOCKS}"
        )
    if sized:
        G, name = _resolve_group(args)
    design = orbit_design(G, base)
    lam = lambda_of(design, args.t)
    record = {
        "v": design.v,
        "k": design.k,
        "t": args.t,
        "lambda": lam,
        "base_block": _one_based(base),
        "group": name,
        "blocks": [_one_based(blk) for blk in design.block_rows()],
        "b": design.b,
        "block_transitive": True,
        "flag_transitive": is_flag_transitive(G, design),
        "status": "ok" if lam is not None else f"not a {args.t}-design",
    }
    _emit(json.dumps(record, indent=1) + "\n", args.output)
    if lam is None:
        log.info("orbit of size %d is not a %d-design", design.b, args.t)
    return 0


def _classification(args) -> tuple[list, str]:
    from .design import classify
    from .kcombs import MAX_POINTS

    if args.group is None and args.q is not None:
        _, degree = _projective_size(args)
        if degree > MAX_POINTS:
            raise UsageError(
                f"--q {args.q} gives degree {degree}; classify takes at most {MAX_POINTS}"
            )
    G, name = _resolve_group(args)
    if not 1 <= args.t < args.k < G.degree:
        raise UsageError(f"need 1 <= t < k < {G.degree} (the degree); got t={args.t}, k={args.k}")
    return classify(G, args.k, args.t, workers=args.workers), name


def cmd_classify(args) -> int:
    if args.lam is not None and args.lam < 1:
        raise UsageError(f"--lambda must be at least 1, as for every t-design; got {args.lam}")
    classes, name = _classification(args)
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
    _emit(text, args.output)
    return 0


def cmd_sieve(args) -> int:
    if not 4 <= args.qmax <= MAX_QMAX:
        raise UsageError(f"--qmax must be in 4..{MAX_QMAX}")
    report = sieve_run(args.qmax)
    if args.format == "json":
        # written a chunk at a time: at --qmax 10**6 the whole text is 52 MB
        _emit_chunks(report.json_chunks(), args.output)
    else:
        _emit(report.summary_text(), args.output)
    return 0


def cmd_verify(args) -> int:
    if not args.table2:
        raise UsageError("verify requires --table2")
    from .design import classify
    from .grouplib import builtin

    classes = classify(builtin("psl28_paper36"), 6, 2, workers=args.workers)
    got: dict[tuple[tuple[int, ...], int], int] = {}
    for c in classes:
        key = (tuple(_one_based(c.base)), c.lam)
        got[key] = got.get(key, 0) + 1
    want = golden.table2_multiset()
    if got == want:
        _emit(f"table2 verification: PASS ({len(classes)} classes match)\n", args.output)
        return 0
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    lines = ["table2 verification: FAIL"]
    for base, lam in missing:
        lines.append(f"  missing: base={','.join(map(str, base))} lambda={lam}")
    for base, lam in extra:
        lines.append(f"  unexpected: base={','.join(map(str, base))} lambda={lam}")
    _emit("\n".join(lines) + "\n", args.output)
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


def _add_common(sub) -> None:
    sub.add_argument("-o", "--output", help="output file (default: stdout)")
    sub.add_argument("--workers", type=int, default=None, help="worker processes (>= 1)")
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
    _add_common(p)
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
    _add_common(p)
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
        if getattr(args, "workers", None) is None and hasattr(args, "workers"):
            args.workers = _default_workers()
        if getattr(args, "workers", 1) < 1:
            raise UsageError("worker count must be >= 1")
        return args.func(args)
    except _usage_errors() as exc:
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
