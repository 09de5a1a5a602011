"""Benchmark harness for normset-lab; see README.md."""
