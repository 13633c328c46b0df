"""Benchmark of polydet: four workloads, benchmark-owned references, traced per-layer runs."""
