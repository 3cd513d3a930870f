"""Layered benchmark of the DataLinks reproduction (see README.md here).

Four named workloads drive the system from outside through its public API;
every run reports end-to-end metrics (speed-normalised host time, exact
simulated time) and, in a separate traced run, per-layer metrics.
"""
