"""Simulated inter-process communication between DLFS, DLFM and the DBMS.

In the real system DLFS lives in the kernel and reaches the DLFM's upcall
daemon through an IPC "upcall", while the DataLinks engine inside the DBMS
talks to a per-connection child agent spawned by the DLFM main daemon.  Here
daemons are plain objects and messages are method calls, but every message
still crosses a :class:`~repro.ipc.channel.Channel` that charges the
calibrated IPC latency, so message *counts* and their cost remain visible in
the benchmarks (e.g. "one extra upcall per read open under full control").
"""

from repro.ipc.channel import Channel
from repro.ipc.daemon import Daemon

__all__ = ["Channel", "Daemon"]
