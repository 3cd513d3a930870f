#!/usr/bin/env python3
"""Atomic file update, crash recovery and coordinated point-in-time restore.

This example exercises the guarantees of Sections 4.2 and 4.4:

* an update that fails mid-way leaves no trace -- the last committed version
  is restored from the archive;
* a file-server crash during an update rolls the file back when the
  server restarts (``system.crash(node)`` / ``system.restart(node)``);
* a coordinated backup captures the database and the file versions together,
  and restoring it brings metadata and file content back in sync.

Run with:  python examples/backup_restore.py
"""

from repro import (
    Column,
    ControlMode,
    DataLinksSystem,
    DatalinkOptions,
    DataType,
    TableSchema,
    datalink_column,
)


def build() -> tuple:
    system = DataLinksSystem()
    system.add_file_server("fs1")
    system.create_table(TableSchema("reports", [
        Column("report_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFD)),
        Column("body_size", DataType.INTEGER),
        Column("body_mtime", DataType.TIMESTAMP),
    ], primary_key=("report_id",)))
    system.register_metadata_columns("reports", "body", "body_size", "body_mtime")
    analyst = system.session("analyst", uid=1401)
    url = analyst.put_file("fs1", "/reports/q1.txt", b"Q1 report: draft v1")
    analyst.insert("reports", {"report_id": 1, "body": url,
                               "body_size": 0, "body_mtime": 0.0})
    system.run_archiver()
    return system, analyst


def update(system, analyst, content: bytes) -> None:
    url = analyst.get_datalink("reports", {"report_id": 1}, "body", access="write")
    with analyst.update_file(url, truncate=True) as txn:
        txn.replace(content)
    system.run_archiver()


def main() -> None:
    system, analyst = build()
    fs = analyst.fs("fs1")

    # --- 1. a failed update rolls back ------------------------------------------
    before = fs.read_file("/reports/q1.txt")
    url = analyst.get_datalink("reports", {"report_id": 1}, "body", access="write")
    try:
        with analyst.update_file(url, truncate=True) as txn:
            txn.write(b"half-written numbers...")
            raise RuntimeError("spreadsheet crashed")
    except RuntimeError:
        pass
    after = fs.read_file("/reports/q1.txt")
    print(f"failed update rolled back: content unchanged = {before == after}")

    # --- 2. a crash during an update rolls back on restart -----------------------
    url = analyst.get_datalink("reports", {"report_id": 1}, "body", access="write")
    in_flight = analyst.update_file(url, truncate=True)
    in_flight.begin()
    in_flight.write(b"power went out right about here")
    system.crash("fs1")
    summary = system.restart("fs1")
    print(f"crash recovery rolled back in-flight updates: {summary['rolled_back_updates']}")
    print(f"content intact after recovery = {fs.read_file('/reports/q1.txt') == before}")

    # --- 3. coordinated backup and point-in-time restore -------------------------
    update(system, analyst, b"Q1 report: final v2")
    backup = system.backup("quarter-end")
    print(f"\ncoordinated backup taken at database state id {backup.state_id}")

    update(system, analyst, b"Q1 report: post-audit restatement v3")
    row = system.host_db.select_one("reports", {"report_id": 1}, lock=False)
    print(f"after further edits: file says {fs.read_file('/reports/q1.txt')!r}, "
          f"metadata size {row['body_size']}")

    restored = system.restore(backup)
    row = system.host_db.select_one("reports", {"report_id": 1}, lock=False)
    print(f"restored {restored} to state {backup.state_id}")
    print(f"file content back to the backed-up version: "
          f"{fs.read_file('/reports/q1.txt')!r}")
    print(f"metadata consistent with the file again: size={row['body_size']}")


if __name__ == "__main__":
    main()
