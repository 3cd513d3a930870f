"""Reproduction of *Database Managed External File Update* (Mittal & Hsiao, ICDE 2001).

The package implements IBM's DataLinks architecture extended with the paper's
update-in-place (UIP) mechanism, together with every substrate it relies on:

* :mod:`repro.storage`   -- a small relational database engine (the host DBMS
  and each DLFM repository): WAL, 2PL, ARIES-style recovery, 2PC, backup.
* :mod:`repro.fs`        -- a simulated UNIX file-system stack with a
  stackable VFS so DLFS can interpose on lookup/open/close/remove/rename.
* :mod:`repro.ipc`       -- daemons and latency-charging channels.
* :mod:`repro.datalinks` -- the DataLinks engine, DLFM, DLFS, tokens, control
  modes, update-in-place, coordinated backup/restore, and the Section 3
  baselines (check-in/check-out, copy-and-update, BLOBs).
* :mod:`repro.api`       -- :class:`~repro.api.system.DataLinksSystem` and
  :class:`~repro.api.session.Session`, the public entry points.
* :mod:`repro.workloads` / :mod:`repro.bench` -- workload generators and the
  experiment harness reproducing the paper's evaluation claims.

Quickstart::

    from repro.api import DataLinksSystem
    from repro.storage.schema import Column, TableSchema
    from repro.storage.values import DataType
    from repro.datalinks import ControlMode
    from repro.datalinks.datalink_type import DatalinkOptions, datalink_column

    system = DataLinksSystem()
    system.add_file_server("fs1")
    system.create_table(TableSchema("docs", [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFD)),
    ], primary_key=("doc_id",)))

    user = system.session("alice", uid=1001)
    url = user.put_file("fs1", "/docs/page.html", b"<html>v1</html>")
    user.insert("docs", {"doc_id": 1, "body": url})

    write_url = user.get_datalink("docs", {"doc_id": 1}, "body", access="write")
    with user.update_file(write_url, truncate=True) as update:
        update.replace(b"<html>v2</html>")
"""

from repro.api import DataLinksSystem, Session
from repro.datalinks import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, OnUnlink, datalink_column
from repro.simclock import ClockDomain, ClockDomainGroup, CostModel, SimClock
from repro.storage import Column, DataType, Database, TableSchema

__version__ = "1.0.0"

__all__ = [
    "DataLinksSystem",
    "Session",
    "ControlMode",
    "DatalinkOptions",
    "OnUnlink",
    "datalink_column",
    "CostModel",
    "SimClock",
    "ClockDomain",
    "ClockDomainGroup",
    "Column",
    "DataType",
    "Database",
    "TableSchema",
    "__version__",
]
