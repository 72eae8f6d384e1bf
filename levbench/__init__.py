"""Benchmark of the levamp package; ``run.py`` is the entry point."""
