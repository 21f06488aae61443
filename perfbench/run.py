"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload classify-q13 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from src/.
Each run is one fresh process: it sets up once, then repeats the workload
body, each repetition on its own relabeled inputs (perfbench/inputs.py),
until --seconds have passed (at least once), and checks every output
against perfbench/reference.json.

--trace 0 prints the end-to-end metrics, measured with tracing off. wall_s
is the mean body time of the run: tens of short bodies, each on fresh
inputs. On a shared 2-vCPU VM (Intel Xeon, Python 3.11) the speed of one
vCPU often fell to about half for seconds to tens of seconds at a time,
independently of the other vCPU. There the mean of many short bodies varied
least from run to run and from one hour to the next; the median and the
fastest body followed the timing of the slow periods more. For the same
reason a single-process workload pins its successive bodies to each allowed
CPU in turn, so that its mean covers both. The set-up is timed in
SETUP_PROBES fresh child processes spread over the run, so setup_s includes
interpreter start and imports.

--trace 1 traces the set-up, then runs each repetition's body once untraced
and once traced, for --seconds, and prints the per-layer metrics of the
fastest traced body (grouplib.builtin.s from the traced set-up), the pair
latencies of the untraced bodies, and the difference of the mean traced and
untraced body times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (environment at start and
end, every body time, every check, and in traced runs the spans of the
fastest traced body) goes to .perfbench-out/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_PROBES = 7  # set-up timings in fresh processes, spread over the run

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over all CPUs
    since boot (the steal column of /proc/stat); None where not reported."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def pair_latency(times: list[float]) -> dict[str, float]:
    """Median and 75th percentile of iso-pairs' per-pair times, two a body;
    the sample count goes to the run record. 0 for the workloads without
    pairs."""
    if not times:
        return {"pair_p50_s": 0.0, "pair_p75_s": 0.0}
    q = statistics.quantiles(times, n=4, method="inclusive")
    return {"pair_p50_s": q[1], "pair_p75_s": q[2]}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of the largest child waited for
    so far (the pool workers, when this is read before any set-up probe)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _setup_probe(workload: str) -> float:
    """Wall time of one fresh process that only sets up and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _pin_sets(workload) -> list[set[int]]:
    """CPU sets to pin successive bodies to: each allowed CPU in turn for a
    single-process workload, otherwise all of them (pool workers inherit
    the parent's affinity)."""
    allowed = os.sched_getaffinity(0)
    if workload.workers > 1:
        return [allowed]
    return [{cpu} for cpu in sorted(allowed)]


def measure(workload, seed: int, seconds: float, reference: dict,
            probe=None, probes: int = 0) -> tuple[dict, "Checks"]:
    """Untraced: repeat the body, each repetition on its own inputs, until
    `seconds` have passed (at least once), checking every output. `probe`
    (a set-up timing) is called `probes` times, spread evenly over the run.
    Returns the body times, the set-up times, the peak RSS after the first
    body (probes are children too), and the checks."""
    from perfbench.workloads import Checks

    base = workload.setup()
    checks = Checks()
    walls, setups = [], []
    allowed, pins = os.sched_getaffinity(0), _pin_sets(workload)
    start = time.perf_counter()
    try:
        while not walls or time.perf_counter() - start < seconds:
            inp = workload.inputs_for(base, seed, len(walls))
            os.sched_setaffinity(0, pins[len(walls) % len(pins)])
            t0 = time.perf_counter()
            out = workload.body(inp)
            walls.append(time.perf_counter() - t0)
            if len(walls) == 1:
                peak = _peak_rss_mb()
            workload.check(inp, out, reference, checks)
            while len(setups) < probes and time.perf_counter() - start >= seconds * len(setups) / probes:
                setups.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    setups.extend(probe() for _ in range(probes - len(setups)))
    return {"walls": walls, "setups": setups, "peak_rss_mb": peak}, checks


def traced(workload, seed: int, seconds: float,
           reference: dict) -> tuple[dict, list[dict], "Checks"]:
    """A traced set-up, then for each repetition one untraced and one traced
    body on its inputs, until `seconds` have passed (at least once).
    Per-layer metrics and spans of the fastest traced body, the tracing
    overhead over all of them, and the checks of all of them."""
    from perfbench import spans
    from perfbench.workloads import Checks
    from blockdesigns import design

    worker_dir = OUT_DIR / "workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    setup_tracer = spans.Tracer(worker_dir)
    setup_tracer.install()
    try:
        base = workload.setup()
    finally:
        setup_tracer.uninstall()

    checks = Checks()
    untraced_walls, traced_walls, pair_times = [], [], []
    best = None  # (wall, spans, tracer) of the fastest traced body
    allowed, pins = os.sched_getaffinity(0), _pin_sets(workload)
    start = time.perf_counter()
    try:
        while not untraced_walls or time.perf_counter() - start < seconds:
            inp = workload.inputs_for(base, seed, len(untraced_walls))
            os.sched_setaffinity(0, pins[len(untraced_walls) % len(pins)])
            t0 = time.perf_counter()
            untraced = workload.body(inp)
            untraced_walls.append(time.perf_counter() - t0)
            pair_times.extend(untraced.get("pair_times", []))

            tracer = spans.Tracer(worker_dir)
            tracer.install()
            try:
                t0 = time.perf_counter()
                out = workload.body(inp)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            records = tracer.collect()
            workload.check(inp, out, reference, checks)
            if best is None:  # the scans are the same in every repetition
                for group, k, orbit_count in tracer.scans:
                    checks.expect(f"burnside-k{k}",
                                  orbit_count == design.count_orbits_burnside(group, k))
            if best is None or wall < best[0]:
                best = (wall, records, tracer)
    finally:
        os.sched_setaffinity(0, allowed)

    _, records, tracer = best
    metrics = spans.layer_metrics(records, tracer.counters, setup_tracer.collect())
    metrics["trace.overhead_s"] = statistics.mean(traced_walls) - statistics.mean(untraced_walls)
    metrics.update(pair_latency(pair_times))
    return metrics, records, checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "blockdesigns").is_dir():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    env = environment()
    steal_start = _steal_seconds()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    if args.setup_only:
        workload.setup()
        return 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "workers": workload.workers, "env": env}
    if args.trace:
        metrics, records, checks = traced(workload, args.seed, args.seconds, reference)
        units = {name: _layer_unit(name) for name in metrics}
        record["spans"] = records
    else:
        raw, checks = measure(workload, args.seed, args.seconds, reference,
                              lambda: _setup_probe(args.workload), SETUP_PROBES)
        metrics = {
            "wall_s": statistics.mean(raw["walls"]),
            "setup_s": statistics.median(raw["setups"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "pass_ratio": 1 - checks.failed / checks.attempted,
        }
        units = END_TO_END_UNITS
        record.update(walls=raw["walls"], setups=raw["setups"])
    env["loadavg_1m_end"] = os.getloadavg()[0]
    steal_end = _steal_seconds()
    env["steal_s"] = None if None in (steal_start, steal_end) else steal_end - steal_start
    record["checks"] = checks.results
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print("env " + json.dumps(env))
    if checks.failed:
        print("failed checks: " + ", ".join(checks.failures()))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "kcombs.bytes_computed":
        return "B"
    if name.endswith("ratio") or name.endswith("share_of_certificate") or name.endswith("imbalance"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
