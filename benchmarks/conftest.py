"""Shared fixtures for the pytest-benchmark suite.

Each benchmark measures the wall-clock cost of one code path the paper's
evaluation talks about; the simulated-latency tables (what ``BENCH_smoke.json``
and ``BENCH_large.json`` record) come from ``python -m repro.bench`` instead.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import FILES_TABLE, build_microsystem
from repro.datalinks.control_modes import ControlMode


@pytest.fixture(scope="module")
def plain_setup():
    """A system with one unlinked 64 KiB file."""

    return build_microsystem(None, size=64 * 1024)


@pytest.fixture(scope="module")
def rdb_setup():
    """A system with ten rdb-linked files (full control, read-only)."""

    return build_microsystem(ControlMode.RDB, size=4096, files=10)


@pytest.fixture(scope="module")
def rfd_setup():
    """A system with one rfd-linked file (database-managed update)."""

    return build_microsystem(ControlMode.RFD, size=8192)


@pytest.fixture(scope="module")
def rdd_setup():
    """A system with one rdd-linked file (full control with update)."""

    return build_microsystem(ControlMode.RDD, size=8192)


def read_token_url(setup, ttl: float = 1e9) -> str:
    """A long-lived read token URL for file_id 0 of *setup*."""

    _, owner, _ = setup
    return owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc",
                              access="read", ttl=ttl)


def write_token_url(setup, ttl: float = 1e9) -> str:
    """A long-lived write token URL for file_id 0 of *setup*."""

    _, owner, _ = setup
    return owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc",
                              access="write", ttl=ttl)
