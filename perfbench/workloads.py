"""The benchmark workloads: set-up, per-repetition inputs, the timed body,
and the output checks.

Every workload is a closed loop with one client: its body is a sequence of
calls into the library's public API, each starting only after the previous
one has returned. A run sets up once, then for each repetition builds that
repetition's relabeled inputs (untimed, see inputs.py) and times the body on
them. The library is always called through its module attributes
(design.classify, sieve.run, ...) so that the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from blockdesigns import design, golden, grouplib, isomorph, sieve
from blockdesigns.permcore import PermGroup

from . import inputs


class Checks:
    """Named pass/fail checks of one run's outputs."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def expect(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    def multiset(self, name: str, got, want) -> None:
        """One check per expected item, plus one that nothing extra came out."""
        missing = Counter(want) - Counter(got)
        n_missing = sum(missing.values())
        self.results.extend((name, True) for _ in range(len(want) - n_missing))
        self.results.extend((name, False) for _ in range(n_missing))
        self.expect(f"{name}.count", len(got) == len(want))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.results)

    def failures(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


@dataclass(frozen=True)
class Classification:
    """classify() under a relabeled group, then flag transitivity of each
    class's orbit design, under the group and optionally under its socle."""

    name: str
    group: Callable[[], PermGroup]
    k: int = 6
    t: int = 2
    workers: int = 1
    socle: bool = False
    golden_table2: bool = False  # compare bases with golden.TABLE2 at the paper's labels
    shared_with: str | None = None  # reference entry whose digests some classes share

    def setup(self) -> dict:
        return {"G": self.group()}

    def inputs_for(self, base: dict, seed: int, rep: int) -> dict:
        G = base["G"]
        sigma = inputs.relabeling(seed, G.degree, rep)
        return {"identity": sigma.is_identity(), "G": inputs.conjugate(G, sigma)}

    def body(self, inp: dict) -> dict:
        G = inp["G"]
        classes = design.classify(G, self.k, self.t, workers=self.workers)
        designs = [design.orbit_design(G, c.base) for c in classes]
        out = {"classes": classes, "flags": [design.is_flag_transitive(G, d) for d in designs]}
        if self.socle:
            S = G.derived_subgroup()
            out["socle_flags"] = [design.is_flag_transitive(S, d) for d in designs]
        return out

    def check(self, inp: dict, out: dict, ref: dict, checks: Checks) -> None:
        want = ref[self.name]
        classes = out["classes"]
        checks.expect("classes", len(classes) == want["classes"])
        lam_counts = Counter(str(c.lam) for c in classes)
        checks.expect("lambda_counts", lam_counts == Counter(want["lambda_counts"]))
        digests = [c.certificate.hexdigest for c in classes]
        checks.multiset("digests", digests, want["digests"])
        checks.expect("flag_transitive", sum(out["flags"]) == want["flag_transitive"])
        checks.expect(
            "flag_transitive_lambdas",
            sorted(c.lam for c, f in zip(classes, out["flags"]) if f)
            == want["flag_transitive_lambdas"],
        )
        if self.socle:
            checks.expect("flag_transitive_socle",
                          sum(out["socle_flags"]) == want["flag_transitive_socle"])
        if self.shared_with is not None:
            other = set(ref[self.shared_with]["digests"])
            checks.expect("shared_digests",
                          sum(d in other for d in digests) == want["shared_digests"])
        if self.golden_table2 and inp["identity"]:
            got = Counter((tuple(p + 1 for p in c.base), c.lam) for c in classes)
            checks.expect("golden_table2", got == Counter(golden.table2_multiset()))


@dataclass(frozen=True)
class IsoPairs:
    """isomorphism_witness on pairs of table rows with no seeded
    automorphisms: (case, partner) with 1-based rows of `table`."""

    name: str = "iso-pairs"
    group: Callable[[], PermGroup] = lambda: grouplib.builtin("psl28_paper36")
    table: tuple = golden.TABLE2
    cases: tuple[tuple[int, int], ...] = ((37, 37), (37, 2))
    workers: int = 1

    def setup(self) -> dict:
        G = self.group()
        rows = sorted({row for pair in self.cases for row in pair})
        return {"designs": {row: design.orbit_design(G, [p - 1 for p in self.table[row - 1][0]])
                            for row in rows}}

    def inputs_for(self, base: dict, seed: int, rep: int) -> dict:
        return {"pairs": inputs.iso_pairs(base["designs"], self.cases, seed, rep)}

    def body(self, inp: dict) -> dict:
        """Also returns each pair's time, for the pair latency metrics."""
        witnesses, times = [], []
        for pair in inp["pairs"]:
            start = time.perf_counter()
            witnesses.append(isomorph.isomorphism_witness(pair.first, pair.second))
            times.append(time.perf_counter() - start)
        return {"witnesses": witnesses, "pair_times": times}

    def check(self, inp: dict, out: dict, ref: dict, checks: Checks) -> None:
        for pair, sigma in zip(inp["pairs"], out["witnesses"]):
            name = f"pair-{pair.case}-{pair.partner}"
            if sigma is None:
                checks.expect(name, not pair.isomorphic)
                continue
            second = set(pair.second.block_rows())
            maps = all(
                tuple(sorted(sigma(p) for p in row)) in second
                for row in pair.first.block_rows()
            )
            checks.expect(name, pair.isomorphic and maps)


@dataclass(frozen=True)
class Existence:
    """The paper's negative results: no 3-(36,k,lambda) design at k = 5
    under the order-504 group, and the t-(k^2,k,lambda) sieve up to q_max.
    The sieve's input does not depend on the seed."""

    name: str = "existence"
    groups: tuple[str, ...] = ("psl28_paper36",)
    k: int = 5
    t: int = 3
    q_max: int = 10_000
    workers: int = 1

    def setup(self) -> dict:
        return {"groups": [grouplib.builtin(name) for name in self.groups]}

    def inputs_for(self, base: dict, seed: int, rep: int) -> dict:
        return {"groups": [inputs.conjugate(G, inputs.relabeling(seed, G.degree, rep))
                           for G in base["groups"]]}

    def body(self, inp: dict) -> dict:
        found = [design.classify(G, self.k, self.t, workers=self.workers) for G in inp["groups"]]
        report = sieve.run(self.q_max)
        lines = report.json_lines()
        return {"found": found, "report": report, "json": lines}

    def check(self, inp: dict, out: dict, ref: dict, checks: Checks) -> None:
        want = ref[self.name]
        for i, classes in enumerate(out["found"]):
            checks.expect(f"empty-{i}", classes == [])
        report = out["report"]
        survivors = [[x.q, x.case_id, x.v, x.k] for x in report.survivors]
        checks.expect("survivors", survivors == want["survivors"])
        checks.expect("verdicts", len(report.verdicts) == want["verdicts"])
        checks.expect("json_sha256",
                      hashlib.sha256(out["json"].encode()).hexdigest() == want["json_sha256"])


def _builtin(name: str) -> Callable[[], PermGroup]:
    return lambda: grouplib.builtin(name)


def _projective(q: int) -> Callable[[], PermGroup]:
    return lambda: grouplib.projective_group(q)[0]


# BENCHMARK.json lists classify-q13, iso-pairs and existence. The paper-scale
# classifications table2-504 (about 25 s a body on one core) and table-1512
# (about 75 s on two) run on request only: a run measures the fastest of many
# bodies, and these are too long to repeat within one.
WORKLOADS = {
    w.name: w
    for w in (
        Classification("classify-q13", _projective(13), k=5),
        Classification("table2-504", _builtin("psl28_paper36"), golden_table2=True),
        Classification("table-1512", _builtin("pgammal28_paper36"), workers=2, socle=True,
                       shared_with="table2-504"),
        IsoPairs(),
        Existence(),
    )
}
