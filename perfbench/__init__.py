"""Benchmark harness for blockdesigns: seeded workloads, reference checks,
end-to-end metrics and a traced per-layer run. Entry point: perfbench/run.py."""
