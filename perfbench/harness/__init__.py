"""Benchmark harness for the GreenFPGA reproduction (see ../README.md)."""
