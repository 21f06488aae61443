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
  stabilizer  (k+1)/gcd(k+1, |Out(X)|) divides |X_alpha| (socle-maximal
              cases), or k+1 divides |M| (explicit-normalizer cases, since
              k+1 divides every nontrivial subdegree and subdegrees divide
              the point stabilizer order)

The first violated constraint is recorded. Everything is exact integer
arithmetic; no floating point. The run report states the verified range:
the sieve checks a finite range numerically, it does not prove anything
beyond it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .numth import factorize, is_perfect_square, prime_power, prime_powers_upto

CONSTRAINT_ORDER = ("square", "k_guard", "subdegree", "block_count", "stabilizer")


@dataclass(frozen=True)
class CaseSpec:
    """One maximal-subgroup case instantiated at a concrete q."""

    case_id: str
    q: int
    p: int
    f: int
    v: int
    ambient_order: int  # |G| when explicit, else |X| * |Out(X)|
    stab_kind: str  # "socle" -> use x_alpha_order and out_order; "explicit" -> m_order
    x_alpha_order: int | None = None
    out_order: int | None = None
    m_order: int | None = None
    subdegrees: tuple[int, ...] | None = None  # distinct nontrivial values, if known
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
        return json.dumps(
            {
                "q": self.q,
                "case": self.case_id,
                "v": self.v,
                "square": self.square,
                "k": self.k,
                "failed": self.failed,
                "survivor": self.survivor,
                "trivial": self.trivial,
                "notes": list(self.notes),
            },
            sort_keys=True,
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
        fails: dict[str, int] = {}
        for x in self.verdicts:
            if x.failed:
                fails[x.failed] = fails.get(x.failed, 0) + 1
        lines = [
            f"sieve over prime powers {self.q_min} <= q <= {self.q_max}: "
            f"{len(self.verdicts)} case evaluations",
            "eliminations by first failed constraint: "
            + ", ".join(f"{name}={fails.get(name, 0)}" for name in CONSTRAINT_ORDER),
        ]
        for x in self.trivial_survivors:
            lines.append(
                f"trivial survivor: q={x.q} case={x.case_id} v={x.v} k={x.k} "
                "(sharply multiply transitive action forces a complete block set)"
            )
        if self.survivors:
            for x in self.survivors:
                lines.append(f"NONTRIVIAL SURVIVOR: q={x.q} case={x.case_id} v={x.v} k={x.k}")
        else:
            lines.append("no nontrivial survivors")
        lines.append(
            "range verified exhaustively by exact integer arithmetic; "
            f"q > {self.q_max} is not checked by this run"
        )
        return "\n".join(lines) + "\n"


def _odd_cases(q: int, p: int, f: int) -> list[CaseSpec]:
    x_order = q * (q * q - 1) // 2
    out = 2 * f
    ambient = x_order * out
    cases: list[CaseSpec] = []

    def socle(case_id, v, x_alpha, subdegrees=None, notes=()):
        cases.append(
            CaseSpec(
                case_id=case_id,
                q=q,
                p=p,
                f=f,
                v=v,
                ambient_order=ambient,
                stab_kind="socle",
                x_alpha_order=x_alpha,
                out_order=out,
                subdegrees=subdegrees,
                notes=tuple(notes),
            )
        )

    socle("odd-1", q + 1, q * (q - 1) // 2)
    if q >= 13:
        socle(
            "odd-2",
            q * (q + 1) // 2,
            q - 1,
            subdegrees=((q - 1) // 2, 2 * (q - 1), q - 1),
        )
    if q not in (7, 9):
        notes = ()
        if f > 1:
            notes = ("subdegree pattern stated for prime q; applied here with q = p^f, f > 1",)
        socle(
            "odd-3",
            q * (q - 1) // 2,
            q + 1,
            subdegrees=((q + 1) // 2, q + 1),
            notes=notes,
        )
    if f % 2 == 0:
        q0 = p ** (f // 2)
        socle("odd-4", q0 * (q0 * q0 + 1) // 2, q0 * (q0 * q0 - 1))
    for r in sorted(r for r in factorize(f) if r % 2 == 1):
        q0 = p ** (f // r)
        v = q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1)
        socle("odd-5", v, q0 * (q0 * q0 - 1) // 2)
    if q % 10 in (1, 9) and (f == 1 or (f == 2 and p % 10 in (3, 7))):
        socle("odd-6", q * (q * q - 1) // 120, 60)
    if f == 1 and q % 8 in (3, 5) and q % 10 not in (1, 9):
        socle("odd-7", q * (q * q - 1) // 24, 12)
    if f == 1 and q % 8 in (1, 7):
        socle("odd-8", q * (q * q - 1) // 48, 24)
    return cases


def _even_cases(q: int, p: int, f: int) -> list[CaseSpec]:
    x_order = q * (q * q - 1)
    out = f
    ambient = x_order * out
    cases: list[CaseSpec] = []

    def socle(case_id, v, x_alpha, subdegrees=None, trivial_if_survivor=False):
        cases.append(
            CaseSpec(
                case_id=case_id,
                q=q,
                p=p,
                f=f,
                v=v,
                ambient_order=ambient,
                stab_kind="socle",
                x_alpha_order=x_alpha,
                out_order=out,
                subdegrees=subdegrees,
                trivial_if_survivor=trivial_if_survivor,
            )
        )

    # the Borel survivor at q = 8 sits inside a 3-transitive degree-9 action,
    # which forces the complete 3-subset design: flag it trivial
    socle("even-1", q + 1, q * (q - 1), trivial_if_survivor=(q == 8))
    socle("even-2", q * (q - 1) // 2, 2 * (q + 1), subdegrees=(q + 1,))
    socle("even-3", q * (q + 1) // 2, 2 * (q - 1), subdegrees=(2 * (q - 1), q - 1))
    for r in sorted(factorize(f)):
        if f // r < 2:
            continue  # q0 = 2 is excluded
        q0 = 2 ** (f // r)
        v = q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1)
        socle("even-4", v, q0 * (q0 * q0 - 1))
    return cases


# explicit normalizer cases: (line, gate, ambient |G|, |M|, v formula)
def _table1_cases(q: int, p: int, f: int) -> list[CaseSpec]:
    rows: list[tuple[int, int, int, int]] = []
    if q == 7:
        rows += [(1, 336, 12, 28), (2, 336, 16, 21)]
    if q == 9:
        rows += [
            (3, 720, 20, 36),
            (4, 720, 16, 45),
            (5, 720, 20, 36),
            (6, 720, 16, 45),
            (7, 1440, 40, 36),
            (8, 1440, 32, 45),
        ]
    if q == 11:
        rows += [(9, 1320, 20, 66)]
    if f == 1 and q % 40 in (11, 19, 21, 29):
        g = q * (q * q - 1)
        rows += [(10, g, 24, g // 24)]
    return [
        CaseSpec(
            case_id=f"table1-line-{line}",
            q=q,
            p=p,
            f=f,
            v=v,
            ambient_order=g_order,
            stab_kind="explicit",
            m_order=m_order,
        )
        for line, g_order, m_order, v in rows
    ]


def case_catalog(q: int) -> list[CaseSpec]:
    """All applicable maximal-subgroup cases at q, in a fixed order."""
    pf = prime_power(q)
    if pf is None or q < 4:
        raise ValueError(f"{q} is not a prime power >= 4")
    p, f = pf
    if p == 2:
        cases = _even_cases(q, p, f)
    else:
        cases = _odd_cases(q, p, f)
    return cases + _table1_cases(q, p, f)


def evaluate(case: CaseSpec) -> SieveVerdict:
    """Apply the constraints in order; record the first violation."""
    square, root = is_perfect_square(case.v)

    def fail(name: str, k=None) -> SieveVerdict:
        return SieveVerdict(
            case_id=case.case_id,
            q=case.q,
            v=case.v,
            square=square,
            k=k,
            failed=name,
            survivor=False,
            notes=case.notes,
        )

    if not square:
        return fail("square")
    k = root
    if k < 3:
        return fail("k_guard", k)
    if case.subdegrees is not None and any(s % (k + 1) for s in case.subdegrees):
        return fail("subdegree", k)
    m = k * (k + 1)
    if case.ambient_order % m:
        return fail("block_count", k)
    if case.stab_kind == "socle":
        need = (k + 1) // gcd(k + 1, case.out_order)
        if case.x_alpha_order % need:
            return fail("stabilizer", k)
    else:
        if case.m_order % (k + 1):
            return fail("stabilizer", k)
    return SieveVerdict(
        case_id=case.case_id,
        q=case.q,
        v=case.v,
        square=True,
        k=k,
        failed=None,
        survivor=True,
        trivial=case.trivial_if_survivor,
        notes=case.notes,
    )


def run(q_max: int) -> SieveReport:
    """Evaluate every case for every prime power 4 <= q <= q_max."""
    if q_max < 4:
        raise ValueError("q_max must be >= 4")
    verdicts = [evaluate(case) for q in prime_powers_upto(4, q_max) for case in case_catalog(q)]
    return SieveReport(q_min=4, q_max=q_max, verdicts=tuple(verdicts))
