"""Helpers of the tailormatch benchmark (perfbench/run.py)."""
