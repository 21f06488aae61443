"""Numeric elimination sieve for block-transitive t-(k^2, k, lambda) designs
with socle PSL(2,q).

For every prime power q in range, each maximal-subgroup case yields a point
count v. A case survives only if v is a perfect square k^2 with k >= 3 and
the divisibility constraints hold:

  square      v = k^2 exactly (integer square root certified)
  subdegree   k+1 divides every known nontrivial subdegree value
  block_count m = v(v-1)/(k(k-1)) = k(k+1) must divide the ambient group
              order, because the block count b is a multiple of m and b
              divides |G|
  stabilizer  (k+1)/gcd(k+1, out_order) divides the stabilizer order: one
              rule for every case. A socle-maximal case has stabilizer
              X_alpha in X = PSL(2,q) and out_order |Out(X)|, f for q = 2^f
              and 2f for odd q = p^f. A table-1 line quotes G and its point
              stabilizer M; k+1 divides every nontrivial subdegree and the
              subdegrees divide |M|, so k+1 divides |M|. That is the same
              rule with out_order 1, as (k+1)/gcd(k+1, 1) = k+1.

The first violated constraint is recorded. Everything is exact integer
arithmetic; no floating point. The run report states the verified range:
the sieve checks a finite range numerically, it does not prove anything
beyond it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import gcd

from .numth import factorize, is_perfect_square, prime_power, prime_powers_upto

CONSTRAINT_ORDER = ("square", "k_guard", "subdegree", "block_count", "stabilizer")


@dataclass(frozen=True)
class CaseSpec:
    """One maximal-subgroup case instantiated at a concrete q. It passes the
    stabilizer constraint when (k+1)/gcd(k+1, out_order) divides
    stabilizer_order: |X_alpha| with out_order |Out(X)| for a socle-maximal
    case, |M| with out_order 1 for a table-1 line, whose rule is "k+1
    divides |M|". subdegrees are the known nontrivial subdegree values."""

    case_id: str
    q: int
    v: int
    ambient_order: int
    stabilizer_order: int
    out_order: int
    subdegrees: tuple[int, ...] = ()
    trivial_if_survivor: bool = False
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SieveVerdict:
    case_id: str
    q: int
    v: int
    square: bool
    k: int | None
    failed: str | None  # first violated constraint, None for survivors
    survivor: bool
    trivial: bool = False
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        # keys already in sorted order, so the default (cached) encoder serves
        return json.dumps(
            {
                "case": self.case_id,
                "failed": self.failed,
                "k": self.k,
                "notes": list(self.notes),
                "q": self.q,
                "square": self.square,
                "survivor": self.survivor,
                "trivial": self.trivial,
                "v": self.v,
            }
        )


@dataclass(frozen=True)
class SieveReport:
    q_min: int
    q_max: int
    verdicts: tuple[SieveVerdict, ...]

    @property
    def survivors(self) -> tuple[SieveVerdict, ...]:
        return tuple(x for x in self.verdicts if x.survivor and not x.trivial)

    @property
    def trivial_survivors(self) -> tuple[SieveVerdict, ...]:
        return tuple(x for x in self.verdicts if x.survivor and x.trivial)

    def json_lines(self) -> str:
        return "\n".join(x.to_json() for x in self.verdicts) + "\n"

    def summary_text(self) -> str:
        fails = Counter(x.failed for x in self.verdicts)
        lines = [
            f"sieve over prime powers {self.q_min} <= q <= {self.q_max}: "
            f"{len(self.verdicts)} case evaluations",
            "eliminations by first failed constraint: "
            + ", ".join(f"{name}={fails[name]}" for name in CONSTRAINT_ORDER),
        ]
        for x in self.trivial_survivors:
            lines.append(
                f"trivial survivor: q={x.q} case={x.case_id} v={x.v} k={x.k} "
                "(sharply multiply transitive action forces a complete block set)"
            )
        lines += [f"NONTRIVIAL SURVIVOR: q={x.q} case={x.case_id} v={x.v} k={x.k}"
                  for x in self.survivors] or ["no nontrivial survivors"]
        lines.append(
            "range verified exhaustively by exact integer arithmetic; "
            f"q > {self.q_max} is not checked by this run"
        )
        return "\n".join(lines) + "\n"


# the explicit normalizer lines of table 1 quoted for a single q: (line, |G|, |M|, v)
_TABLE1_ROWS = {
    7: [(1, 336, 12, 28), (2, 336, 16, 21)],
    9: [(3, 720, 20, 36), (4, 720, 16, 45), (5, 720, 20, 36), (6, 720, 16, 45),
        (7, 1440, 40, 36), (8, 1440, 32, 45)],
    11: [(9, 1320, 20, 66)],
}


def _odd_cases(case, q: int, p: int, f: int) -> list[CaseSpec]:
    cases = [case("odd-1", v=q + 1, stabilizer_order=q * (q - 1) // 2)]
    if q >= 13:
        cases.append(case("odd-2", v=q * (q + 1) // 2, stabilizer_order=q - 1,
                          subdegrees=((q - 1) // 2, 2 * (q - 1), q - 1)))
    if q not in (7, 9):
        notes = ()
        if f > 1:
            notes = ("subdegree pattern stated for prime q; applied here with q = p^f, f > 1",)
        cases.append(case("odd-3", v=q * (q - 1) // 2, stabilizer_order=q + 1,
                          subdegrees=((q + 1) // 2, q + 1), notes=notes))
    if f % 2 == 0:
        q0 = p ** (f // 2)
        cases.append(case("odd-4", v=q0 * (q0 * q0 + 1) // 2, stabilizer_order=q0 * (q0 * q0 - 1)))
    for r in sorted(r for r in factorize(f) if r % 2 == 1):
        q0 = p ** (f // r)
        v = q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1)
        cases.append(case("odd-5", v=v, stabilizer_order=q0 * (q0 * q0 - 1) // 2))
    if q % 10 in (1, 9) and (f == 1 or (f == 2 and p % 10 in (3, 7))):
        cases.append(case("odd-6", v=q * (q * q - 1) // 120, stabilizer_order=60))
    if f == 1 and q % 8 in (3, 5) and q % 10 not in (1, 9):
        cases.append(case("odd-7", v=q * (q * q - 1) // 24, stabilizer_order=12))
    if f == 1 and q % 8 in (1, 7):
        cases.append(case("odd-8", v=q * (q * q - 1) // 48, stabilizer_order=24))
    return cases


def _even_cases(case, q: int, f: int) -> list[CaseSpec]:
    # the Borel survivor at q = 8 sits inside a 3-transitive degree-9 action,
    # which forces the complete 3-subset design: flag it trivial
    cases = [
        case("even-1", v=q + 1, stabilizer_order=q * (q - 1), trivial_if_survivor=(q == 8)),
        case("even-2", v=q * (q - 1) // 2, stabilizer_order=2 * (q + 1), subdegrees=(q + 1,)),
        case("even-3", v=q * (q + 1) // 2, stabilizer_order=2 * (q - 1),
             subdegrees=(2 * (q - 1), q - 1)),
    ]
    for r in sorted(factorize(f)):
        if f // r < 2:
            continue  # q0 = 2 is excluded
        q0 = 2 ** (f // r)
        v = q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1)
        cases.append(case("even-4", v=v, stabilizer_order=q0 * (q0 * q0 - 1)))
    return cases


def case_catalog(q: int) -> list[CaseSpec]:
    """All applicable maximal-subgroup cases at q, in a fixed order."""
    pf = prime_power(q)
    if pf is None or q < 4:
        raise ValueError(f"{q} is not a prime power >= 4")
    p, f = pf
    out = f if p == 2 else 2 * f
    # the per-q fields of a socle-maximal case; a table-1 line overrides both
    ambient = q * (q * q - 1) // gcd(2, q - 1) * out
    case = partial(CaseSpec, q=q, ambient_order=ambient, out_order=out)
    cases = _even_cases(case, q, f) if p == 2 else _odd_cases(case, q, p, f)
    rows = list(_TABLE1_ROWS.get(q, ()))
    if f == 1 and q % 40 in (11, 19, 21, 29):
        g = q * (q * q - 1)
        rows.append((10, g, 24, g // 24))
    return cases + [
        case(f"table1-line-{line}", v=v, ambient_order=g, stabilizer_order=m, out_order=1)
        for line, g, m, v in rows
    ]


def evaluate(case: CaseSpec) -> SieveVerdict:
    """Apply the constraints in order; record the first violation."""
    square, k = is_perfect_square(case.v)
    if not square:
        failed, k = "square", None
    elif k < 3:
        failed = "k_guard"
    elif any(s % (k + 1) for s in case.subdegrees):
        failed = "subdegree"
    elif case.ambient_order % (k * (k + 1)):
        failed = "block_count"
    elif case.stabilizer_order % ((k + 1) // gcd(k + 1, case.out_order)):
        failed = "stabilizer"
    else:
        failed = None
    survivor = failed is None
    return SieveVerdict(case.case_id, case.q, case.v, square, k, failed, survivor,
                        trivial=survivor and case.trivial_if_survivor, notes=case.notes)


def run(q_max: int) -> SieveReport:
    """Evaluate every case for every prime power 4 <= q <= q_max."""
    if q_max < 4:
        raise ValueError("q_max must be >= 4")
    verdicts = [evaluate(case) for q in prime_powers_upto(4, q_max) for case in case_catalog(q)]
    return SieveReport(q_min=4, q_max=q_max, verdicts=tuple(verdicts))
