"""Benchmark for permsnake: codec, verify and search workloads."""
