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

A run evaluates up to 354,232 cases (q <= 10^6), and almost every case
fails the square test, so a case costs only what its verdict needs. Each case
is written once, in two stages. _point_counts() gives stage one: case id, v,
notes, and the parameter stage two needs beyond q (the subfield order q0, or
the |G| and |M| a table-1 line quotes). _constraints() gives stage two:
ambient, stabilizer and out orders, subdegrees and the trivial flag. run()
tests isqrt(v)**2 == v first. A square failure builds no record at all, and
only a square v gets stage two and evaluate(). case_catalog() joins
both stages into CaseSpec records; evaluate() takes a CaseSpec or a plain
tuple of its fields. CaseSpec and SieveVerdict are typing.NamedTuple classes,
immutable and hashable. run() does not factorize each q: it walks the
ascending list of prime powers up to q_max, in which every power p^(f+1)
comes after p^f, and carries (p, f+1) forward from q = p^f to q*p; a q that
nothing carried to is a prime, (q, 1). Each exponent f is factorized once.
run() refuses q_max above MAX_QMAX before building that list.

A report keeps its verdicts as VerdictColumns: three flat array columns, q,
v and a small integer code per verdict. A code indexes the report's table of
the distinct keys, a verdict's seven fields other than q and v; a run to
q = 10^4 has 28 of them. run() fills the columns straight from stage one,
and the square failures of one case id and notes share one code.
VerdictColumns is a read-only Sequence: len() reads a column, and indexing
or iterating builds each SieveVerdict on demand. The survivor lists and the
summary's elimination counts read the codes, not the verdicts. A report made
from any iterable of SieveVerdicts stores it in the same columns.

The JSON line format is fixed: one object per verdict with its keys sorted
and json.dumps' default separators, the bytes of json.dumps(record,
sort_keys=True). _json_parts() writes a key's text before q and between q
and v; SieveVerdict.to_json() calls it per verdict, and
SieveReport.json_chunks() once per code of the table, then writes each line
as that pair around the verdict's q and v, JSON_CHUNK verdicts at a time.
The CLI writes the chunks as they come, and json_lines() joins the same
chunks.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .numth import factorize, prime_power, prime_powers_upto

CONSTRAINT_ORDER = ("square", "k_guard", "subdegree", "block_count", "stabilizer")

# run() refuses a larger q_max before allocating anything: the prime-power
# table and the verdict columns take memory linear in q_max. run(10**6)
# peaks at 25 MB in 0.27-0.37 s, and 138 MB in 0.44-0.54 s with json_lines()
# (2-vCPU x86 VM, Python 3.11); `sieve --qmax 1000000 --format json` streams
# its chunks at a 28 MB peak in 0.50-0.54 s
MAX_QMAX = 10**6


class CaseSpec(NamedTuple):
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


class SieveVerdict(NamedTuple):
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
        """One JSON object with sorted keys and the default separators: the
        bytes json.dumps(..., sort_keys=True) gives for the same record."""
        case_id, q, v, square, k, failed, survivor, trivial, notes = self
        head, tail = _json_parts(case_id, failed, k, notes, square, survivor, trivial)
        return f"{head}{q}{tail}{v}}}"


def _json_parts(case_id: str, failed: str | None, k: int | None, notes: tuple[str, ...],
                square: bool, survivor: bool, trivial: bool) -> tuple[str, str]:
    """A verdict's JSON line up to its q, and from its q to its v."""
    k = "null" if k is None else k
    square, survivor, trivial = ("true" if x else "false" for x in (square, survivor, trivial))
    return (f'{{"case": {json.dumps(case_id)}, "failed": {json.dumps(failed)}, "k": {k}, '
            f'"notes": {json.dumps(notes)}, "q": ',
            f', "square": {square}, "survivor": {survivor}, "trivial": {trivial}, "v": ')


# a SieveVerdict from one tuple of its nine fields, without the keyword-aware
# constructor NamedTuple generates (half the cost per verdict)
_new = tuple.__new__

# the verdict lines per chunk that SieveReport.json_chunks joins
JSON_CHUNK = 4096


class VerdictColumns(Sequence):
    """SieveVerdicts kept as three flat columns: q, v, and a code per
    verdict. A code numbers a key, a verdict's fields other than q and v in
    their SieveVerdict order; `keys` maps each distinct key to its code, so
    its order is the code table. The sequence is read-only, and reading an
    entry builds its SieveVerdict."""

    def __init__(self, verdicts: Iterable[SieveVerdict] = ()):
        self.q, self.v, self.code = array("q"), array("q"), array("I")
        self.keys: dict[tuple, int] = {}
        for case_id, q, v, *rest in verdicts:
            self.q.append(q)
            self.v.append(v)
            self.code.append(self.keys.setdefault((case_id, *rest), len(self.keys)))

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        key = self.table()[self.code[i]]
        return _new(SieveVerdict, (key[0], self.q[i], self.v[i], *key[1:]))

    def __iter__(self):
        table = self.table()
        for q, v, c in zip(self.q, self.v, self.code):
            key = table[c]
            yield _new(SieveVerdict, (key[0], q, v, *key[1:]))

    def table(self) -> list[tuple]:
        """The keys, indexed by code."""
        return list(self.keys)


class SieveReport:
    """The verdicts of a run over q_min <= q <= q_max. verdicts is a
    VerdictColumns; any other iterable of SieveVerdicts is stored as one."""

    def __init__(self, q_min: int, q_max: int, verdicts: Iterable[SieveVerdict] = ()):
        self.q_min = q_min
        self.q_max = q_max
        self.verdicts = (verdicts if isinstance(verdicts, VerdictColumns)
                         else VerdictColumns(verdicts))

    def _survivors(self, trivial: bool) -> tuple[SieveVerdict, ...]:
        # key[4] is the survivor flag and key[5] the trivial one
        cols = self.verdicts
        codes = {c for c, key in enumerate(cols.table()) if key[4] and bool(key[5]) == trivial}
        return tuple(cols[i] for i, c in enumerate(cols.code) if c in codes)

    @property
    def survivors(self) -> tuple[SieveVerdict, ...]:
        return self._survivors(False)

    @property
    def trivial_survivors(self) -> tuple[SieveVerdict, ...]:
        return self._survivors(True)

    def json_chunks(self):
        """The JSON lines, newline-terminated, joined JSON_CHUNK verdicts at a
        time: a writer holds one chunk of text, not the whole output. Each
        code's text around q and v is written once."""
        cols = self.verdicts
        parts = [_json_parts(case_id, failed, k, notes, square, survivor, trivial)
                 for case_id, square, k, failed, survivor, trivial, notes in cols.keys]
        heads = [head for head, _ in parts]
        tails = [tail for _, tail in parts]
        for i in range(0, len(cols), JSON_CHUNK):
            j = i + JSON_CHUNK
            yield "\n".join([f"{heads[c]}{q}{tails[c]}{v}}}" for q, v, c
                             in zip(cols.q[i:j], cols.v[i:j], cols.code[i:j])]) + "\n"

    def json_lines(self) -> str:
        return "".join(self.json_chunks())

    def summary_text(self) -> str:
        cols = self.verdicts
        table = cols.table()
        fails = Counter()
        for c, n in Counter(cols.code).items():
            fails[table[c][3]] += n  # key[3] is the first failed constraint
        lines = [
            f"sieve over prime powers {self.q_min} <= q <= {self.q_max}: "
            f"{len(cols)} case evaluations",
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

_PRIME_Q_NOTE = ("subdegree pattern stated for prime q; applied here with q = p^f, f > 1",)


@lru_cache(maxsize=64)
def _prime_factors(f: int) -> tuple[int, ...]:
    """The primes dividing f, ascending: factorized once per f (f <= 19 for
    q <= MAX_QMAX), not once per q."""
    return tuple(sorted(factorize(f)))


def _subfield_v(q0: int, r: int) -> int:
    """The point count of the subfield case PSL(2, q0) in PSL(2, q0**r)."""
    return q0 ** (r - 1) * (q0 ** (2 * r) - 1) // (q0 * q0 - 1)


def _point_counts(q: int, p: int, f: int) -> list[tuple]:
    """Stage one of the cases at q = p**f >= 4, in case_catalog's order:
    (case id, v, notes, parameter). The parameter is what _constraints needs
    beyond q: the subfield order q0 of a subfield case, (|G|, |M|) of a
    table-1 line, else None."""
    if p == 2:
        counts = [("even-1", q + 1, (), None), ("even-2", q * (q - 1) // 2, (), None),
                  ("even-3", q * (q + 1) // 2, (), None)]
        for r in _prime_factors(f):
            if f // r >= 2:  # q0 = 2 is excluded
                q0 = 2 ** (f // r)
                counts.append(("even-4", _subfield_v(q0, r), (), q0))
    else:
        counts = [("odd-1", q + 1, (), None)]
        if q >= 13:
            counts.append(("odd-2", q * (q + 1) // 2, (), None))
        if q not in (7, 9):
            counts.append(("odd-3", q * (q - 1) // 2, _PRIME_Q_NOTE if f > 1 else (), None))
        if f > 1:
            if f % 2 == 0:
                q0 = p ** (f // 2)
                counts.append(("odd-4", q0 * (q0 * q0 + 1) // 2, (), q0))
            for r in _prime_factors(f):
                if r % 2:
                    q0 = p ** (f // r)
                    counts.append(("odd-5", _subfield_v(q0, r), (), q0))
        if q % 10 in (1, 9) and (f == 1 or (f == 2 and p % 10 in (3, 7))):
            counts.append(("odd-6", q * (q * q - 1) // 120, (), None))
        if f == 1:
            if q % 8 in (3, 5) and q % 10 not in (1, 9):
                counts.append(("odd-7", q * (q * q - 1) // 24, (), None))
            if q % 8 in (1, 7):
                counts.append(("odd-8", q * (q * q - 1) // 48, (), None))
    if q in _TABLE1_ROWS:
        counts += [(f"table1-line-{line}", v, (), (g, m)) for line, g, m, v in _TABLE1_ROWS[q]]
    if f == 1 and q % 40 in (11, 19, 21, 29):
        g = q * (q * q - 1)
        counts.append(("table1-line-10", g // 24, (), (g, 24)))
    return counts


# stage two of a socle-maximal case: its stabilizer order and its known
# nontrivial subdegrees, from q and the case's parameter
_STABILIZERS = {
    "odd-1": lambda q, q0: (q * (q - 1) // 2, ()),
    "odd-2": lambda q, q0: (q - 1, ((q - 1) // 2, 2 * (q - 1), q - 1)),
    "odd-3": lambda q, q0: (q + 1, ((q + 1) // 2, q + 1)),
    "odd-4": lambda q, q0: (q0 * (q0 * q0 - 1), ()),
    "odd-5": lambda q, q0: (q0 * (q0 * q0 - 1) // 2, ()),
    "odd-6": lambda q, q0: (60, ()),
    "odd-7": lambda q, q0: (12, ()),
    "odd-8": lambda q, q0: (24, ()),
    "even-1": lambda q, q0: (q * (q - 1), ()),
    "even-2": lambda q, q0: (2 * (q + 1), (q + 1,)),
    "even-3": lambda q, q0: (2 * (q - 1), (2 * (q - 1), q - 1)),
    "even-4": lambda q, q0: (q0 * (q0 * q0 - 1), ()),
}


def _constraints(case_id: str, q: int, p: int, f: int, param) -> tuple:
    """Stage two of a case from stage one: CaseSpec's fields from
    ambient_order to trivial_if_survivor."""
    if case_id.startswith("table1-"):
        g, m = param  # the line quotes G and its point stabilizer M
        return g, m, 1, (), False
    out = f if p == 2 else 2 * f
    stabilizer, subdegrees = _STABILIZERS[case_id](q, param)
    # the Borel survivor at q = 8 sits inside a 3-transitive degree-9 action,
    # which forces the complete 3-subset design: flag it trivial
    return (q * (q * q - 1) // gcd(2, q - 1) * out, stabilizer, out, subdegrees,
            case_id == "even-1" and q == 8)


def case_catalog(q: int) -> list[CaseSpec]:
    """All applicable maximal-subgroup cases at q, in a fixed order."""
    pf = prime_power(q)
    if pf is None or q < 4:
        raise ValueError(f"{q} is not a prime power >= 4")
    return [CaseSpec(case_id, q, v, *_constraints(case_id, q, *pf, param), notes)
            for case_id, v, notes, param in _point_counts(q, *pf)]


def evaluate(case: CaseSpec | tuple) -> SieveVerdict:
    """Apply the constraints in order; record the first violation. The case
    is a CaseSpec or a plain tuple of its nine fields."""
    case_id, q, v, ambient, stabilizer, out, subdegrees, trivial, notes = case
    k = isqrt(v)
    if k * k != v:
        return _new(SieveVerdict, (case_id, q, v, False, None, "square", False, False, notes))
    if k < 3:
        failed = "k_guard"
    elif any(s % (k + 1) for s in subdegrees):
        failed = "subdegree"
    elif ambient % (k * (k + 1)):
        failed = "block_count"
    elif stabilizer % ((k + 1) // gcd(k + 1, out)):
        failed = "stabilizer"
    else:
        return _new(SieveVerdict, (case_id, q, v, True, k, None, True, trivial, notes))
    return _new(SieveVerdict, (case_id, q, v, True, k, failed, False, False, notes))


def _prime_powers_with_pf(q_max: int):
    """(q, p, f) with q = p**f for every prime power 4 <= q <= q_max,
    ascending, without factorizing: each q registers its next power q*p, so
    a q that no smaller power registered is a prime."""
    upcoming: dict[int, tuple[int, int]] = {}
    for q in prime_powers_upto(2, q_max):
        p, f = upcoming.pop(q, (q, 1))
        if q * p <= q_max:
            upcoming[q * p] = (p, f + 1)
        if q >= 4:
            yield q, p, f


def run(q_max: int) -> SieveReport:
    """Evaluate every case for every prime power 4 <= q <= q_max."""
    if not 4 <= q_max <= MAX_QMAX:
        raise ValueError(f"q_max must be in 4..{MAX_QMAX}")
    cols = VerdictColumns()
    add_q, add_v, add_code, keys = cols.q.append, cols.v.append, cols.code.append, cols.keys
    square_failures: dict[tuple, int] = {}  # (case id, notes) -> code
    for q, p, f in _prime_powers_with_pf(q_max):
        for case_id, v, notes, param in _point_counts(q, p, f):
            if isqrt(v) ** 2 == v:
                x = evaluate((case_id, q, v, *_constraints(case_id, q, p, f, param), notes))
                code = keys.setdefault((case_id, *x[3:]), len(keys))
            else:
                code = square_failures.get((case_id, notes))
                if code is None:
                    key = (case_id, False, None, "square", False, False, notes)
                    code = square_failures[case_id, notes] = keys.setdefault(key, len(keys))
            add_q(q)
            add_v(v)
            add_code(code)
    return SieveReport(4, q_max, cols)
