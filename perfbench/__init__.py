"""Benchmark harness for cpreg; the entry point is ``perfbench/run.py``."""
