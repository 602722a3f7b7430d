"""Benchmark of the ballsep library and CLI; run perfbench/run.py."""
