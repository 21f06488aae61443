"""Trace spans recorded around the library's public functions, from the
benchmark's own files: nothing under src/ is changed.

Each target function is replaced, at the name its callers look it up by,
with a wrapper that records one span: (id, parent id, name, start, end).
Spans are kept in memory and written once when the run ends. Certificate
tasks that classify() sends to a process pool are traced too: the pool is
created with an initializer that installs a fresh tracer in each worker,
and each worker writes its spans to a file when it exits, which the parent
merges into its own trace.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util as mp_util
from pathlib import Path

from blockdesigns import design, grouplib, isomorph, permcore, sieve

# The tracer installed in this process, if any. A forked pool worker inherits
# its parent's and replaces it with a fresh one (see _worker_init).
_ACTIVE: "Tracer | None" = None


def _count_orbits(tracer: "Tracer", args, kwargs, result) -> None:
    group, k = args[0], args[1]
    tracer.counters["kcombs.orbits"] += result.orbit_count
    # computed, not measured: the sizes of the arrays subset_orbits returns
    arrays = (result.rows, result.labels, result.rep_ranks, result.sizes,
              result._order, result._starts)
    tracer.counters["kcombs.bytes_computed"] += sum(a.nbytes for a in arrays)
    tracer.scans.append((group, k, result.orbit_count))


def _count_classes(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["design.classes"] += len(result)
    tracer.counters["design.filter.hits"] += sum(len(c.orbit_reps) for c in result)


def _count_verdicts(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["sieve.cases"] += len(result.verdicts)


# (owner, attribute, span name, hook on the returned value)
TARGETS = (
    (grouplib, "builtin", "grouplib.builtin", None),
    (design, "subset_orbits", "kcombs.subset_orbits", _count_orbits),
    (design, "classify", "design.classify", _count_classes),
    (design, "orbit_design", "design.orbit_design", None),
    (design, "is_flag_transitive", "design.is_flag_transitive", None),
    (isomorph, "certificate", "isomorph.certificate", None),
    (isomorph, "isomorphism_witness", "isomorph.isomorphism_witness", None),
    (permcore.PermGroup, "__init__", "permcore.PermGroup", None),
    (permcore.PermGroup, "pointwise_stabilizer", "permcore.pointwise_stabilizer", None),
    (permcore.PermGroup, "orbit", "permcore.orbit", None),
    (permcore.PermGroup, "contains", "permcore.contains", None),
    (sieve, "run", "sieve.run", _count_verdicts),
    (sieve, "prime_powers_upto", "numth.prime_powers_upto", None),
    (sieve, "case_catalog", "sieve.case_catalog", None),
    (sieve, "evaluate", "sieve.evaluate", None),
    (sieve.SieveReport, "json_lines", "sieve.json_lines", None),
)


class Tracer:
    """Span recorder for one process. Span ids are unique within the process;
    (pid, id) is unique across the run. A worker's root spans point at the
    parent-process span that created its pool (`origin`)."""

    def __init__(self, worker_dir: Path, origin: tuple[int, int] | None = None):
        self.pid = os.getpid()
        self.worker_dir = Path(worker_dir)
        self.origin = origin
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self.scans: list = []  # (group, k, orbit count) per subset_orbits call
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, opened: tuple[int, int, float], name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, start = opened
        self.spans.append((sid, parent, name, start, end))

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(opened, name)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _pool(self, *args, **kwargs):
        current = self._stack[-1] if self._stack else -1
        return ProcessPoolExecutor(
            *args, initializer=_worker_init,
            initargs=(str(self.worker_dir), (self.pid, current)), **kwargs,
        )

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed in this process")
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        self._originals.append((design, "ProcessPoolExecutor", design.ProcessPoolExecutor))
        design.ProcessPoolExecutor = self._pool
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        _ACTIVE = None

    # -- output ------------------------------------------------------------

    def records(self) -> list[dict]:
        """This process's spans with run-wide ids "pid.id"."""
        root = None
        if self.origin is not None and self.origin[1] >= 0:
            root = f"{self.origin[0]}.{self.origin[1]}"
        return [
            {"id": f"{self.pid}.{sid}", "parent": f"{self.pid}.{parent}" if parent >= 0 else root,
             "name": name, "pid": self.pid, "start": start, "end": end}
            for sid, parent, name, start, end in self.spans
        ]

    def _dump_worker(self) -> None:
        path = self.worker_dir / f"spans-{self.origin[0]}-{self.pid}.json"
        path.write_text(json.dumps(self.records()))

    def collect(self) -> list[dict]:
        """Own spans plus those of every pool worker this process started;
        worker files are consumed."""
        spans = self.records()
        for path in sorted(self.worker_dir.glob(f"spans-{self.pid}-*.json")):
            spans.extend(json.loads(path.read_text()))
            path.unlink()
        return spans


def _worker_init(worker_dir: str, origin: tuple[int, int]) -> None:
    if _ACTIVE is not None:  # inherited through fork
        _ACTIVE.uninstall()
    tracer = Tracer(Path(worker_dir), origin)
    tracer.install()
    mp_util.Finalize(None, tracer._dump_worker, exitpriority=10)


# -- per-layer metrics -------------------------------------------------------

PERMCORE = ("permcore.PermGroup", "permcore.pointwise_stabilizer", "permcore.orbit",
            "permcore.contains")


def _self_times(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span id: its duration minus the part of it covered by its direct
    children in the same process, and the covered part itself."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    self_s, covered_s = {}, {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        kids = sorted((c for c in children.get(s["id"], ()) if c["pid"] == s["pid"]),
                      key=lambda c: c["start"])
        for c in kids:
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        covered_s[s["id"]] = covered
        self_s[s["id"]] = s["end"] - s["start"] - covered
    return self_s, covered_s


def layer_metrics(spans: list[dict], counters: Counter,
                  setup_spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced body, from its spans and counters,
    and grouplib.builtin.s from the spans of a separately traced set-up.
    Metrics of a layer the workload does not reach read 0."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    self_s, covered_s = _self_times(spans)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def quantile(name, q):
        durations = sorted(s["end"] - s["start"] for s in by_name.get(name, ()))
        if len(durations) < 2:
            return durations[0] if durations else 0.0
        return statistics.quantiles(durations, n=100, method="inclusive")[q - 1]

    certs = by_name.get("isomorph.certificate", ())
    cert_s = total("isomorph.certificate")
    cert_permcore_s = sum(covered_s[s["id"]] for s in certs)
    orbits = counters["kcombs.orbits"]
    hits = counters["design.filter.hits"]
    classes = counters["design.classes"]

    m = {
        "kcombs.subset_orbits.s": total("kcombs.subset_orbits"),
        "kcombs.subset_orbits.calls": calls("kcombs.subset_orbits"),
        "kcombs.orbits": orbits,
        "kcombs.bytes_computed": counters["kcombs.bytes_computed"],
        "design.classify.s": total("design.classify"),
        "design.classify.self_s": sum(self_s[s["id"]] for s in by_name.get("design.classify", ())),
        "design.filter.hits": hits,
        "design.filter.hit_ratio": hits / orbits if orbits else 0.0,
        "design.certs_per_class": hits / classes if classes else 0.0,
        "design.is_flag_transitive.s": total("design.is_flag_transitive"),
        "design.is_flag_transitive.calls": calls("design.is_flag_transitive"),
        "design.orbit_design.s": total("design.orbit_design"),
        "isomorph.certificate.s": cert_s,
        "isomorph.certificate.calls": calls("isomorph.certificate"),
        "isomorph.certificate.p50_s": quantile("isomorph.certificate", 50),
        "isomorph.certificate.p90_s": quantile("isomorph.certificate", 90),
        "isomorph.certificate.self_s": sum(self_s[s["id"]] for s in certs),
        "isomorph.isomorphism_witness.s": total("isomorph.isomorphism_witness"),
        "isomorph.isomorphism_witness.calls": calls("isomorph.isomorphism_witness"),
        "permcore.share_of_certificate": cert_permcore_s / cert_s if cert_s else 0.0,
        "grouplib.builtin.s": sum(s["end"] - s["start"] for s in setup_spans
                                  if s["name"] == "grouplib.builtin"),
        "numth.prime_powers_upto.s": total("numth.prime_powers_upto"),
        "sieve.case_catalog.s": total("sieve.case_catalog"),
        "sieve.case_catalog.calls": calls("sieve.case_catalog"),
        "sieve.evaluate.s": total("sieve.evaluate"),
        "sieve.evaluate.calls": calls("sieve.evaluate"),
        "sieve.cases": counters["sieve.cases"],
        "sieve.json_lines.s": total("sieve.json_lines"),
    }
    for name in PERMCORE:
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = calls(name)
    return m
