"""Benchmark harness for frkan: workloads, statistics and call tracing."""
