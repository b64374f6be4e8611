"""Benchmark of the spinscatter CLI: seeded workloads, output checks,
end-to-end metrics and per-layer spans.  Entry point: ``bench/run.py``."""
