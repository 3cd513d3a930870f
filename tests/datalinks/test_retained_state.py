"""What one tokenized read leaves behind in the DLFM, pinned.

A read under ``rdd`` control is three upcalls (Section 4): the lookup
registers the token, the open checks it and records a Sync entry, the close
removes the entry.  Both are node-local soft state
(:mod:`repro.datalinks.dlfm.soft_state`), so a read writes no repository
log record.  What the *simulator* retains for an operation is ours to keep
small, because it is what checkpoints, witness mirrors and the benchmark's
``peak_rss_mb`` grow by (ROADMAP direction 4).  After the reads, with every
transaction finished:

* a read wrote no log record, and the registry holds one entry per file
  read (the token upsert) and no open Sync entry;
* the log remembers no finished transaction (its open-transaction table is
  empty: a transaction's records are linked, not indexed for ever);
* every row image exists once -- heap rows and log images together are no
  more distinct dicts than there were INSERT and UPDATE records;
* a hash index wraps nothing: a one-column key is the bare value and a
  one-row bucket the bare row id, so a unique index holds ints only;
* the bytes allocated under ``storage/`` and still live, per read, are
  under a twentieth of the 638.5 a read retained once the log folded
  while each read inserted a token row (ROADMAP direction 4's bar).

The folded regime is driven by logged work: an update opened and closed
without a change, whose update-tracking row goes in and out of the
repository in two single-statement transactions (six records) and touches
nothing else.  ``4 * L`` of them on a second system fold the repository
log into its checkpoint base at least four times: the log retains at most
``FOLD_AT`` records after ``L`` operations and after ``4 * L``, ``len`` of
the log still grows by exactly six per operation, and the live
``storage/`` bytes per operation -- measured over one fold cycle, from the
operation that folded to the one that folded next, so the bounded log's
sawtooth cancels -- are at most a twentieth of what the same operation
retained while the log still grew (about 1 330 B against 11.5 B on
CPython 3.11.7).

A superseded file version retains nothing (ROADMAP direction 4(a), its
steady-state slice for version chains).  ``WebServerWorkload`` (200 pages of
16 KiB, 2 % in-place updates) runs ``WEB_L`` operations and then
``3 * WEB_L`` more on the same site, with no backup taken: at both sizes the DLFM holds one ``file_versions`` row
and the archive one object per linked page, so the archive bytes retained
per superseded update are 0.  Before version retention this run held 220
and 280 rows, and 16 384 archive bytes (one page) per superseded update.
"""

from __future__ import annotations

import gc
import os
import tracemalloc
from dataclasses import replace

import pytest

import repro.storage
from repro.bench.runner import FILES_TABLE, RunContext
from repro.datalinks.control_modes import ControlMode
from repro.storage.index import HashIndex
from repro.storage.wal import FOLD_AT, LogRecordType
from repro.workloads.webserver import WebServerWorkload, WebSiteConfig

WARM_UP, READS, FILES = 100, 300, 4
#: Operations per stage of the folded regime (six log records each).
L = 700
#: Operations measured while the log still grows, after ``WARM_UP``.
UNFOLDED = 300
#: Operations of the smaller web-site run (the larger runs four times as
#: many); the pages and their size are the ROADMAP's measurement's.
WEB_L, WEB_PAGES, WEB_PAGE_SIZE = 1000, 200, 16 * 1024

#: Live bytes allocated under ``storage/`` per tokenized read once the log
#: folded, while each read inserted a token-registry row and wrote nine log
#: records (CPython 3.11.7): ROADMAP direction 4's bar.
TOKEN_ROW_STORAGE_BYTES_PER_READ = 638.5


def _microsystem():
    """``(DLFM, owner session)`` of a small rdd system."""

    system, owner, _ = RunContext().build_microsystem(
        ControlMode.RDD, size=512, files=FILES)
    return system.file_server("fs1").dlfm, owner


def _read(owner, at: int) -> None:
    url = owner.get_datalink(FILES_TABLE, {"file_id": at % FILES}, "doc",
                             access="read")
    owner.read_url(url)


def _open_unchanged(owner, at: int) -> None:
    """Open a file for update and close it unchanged: the DLFM inserts and
    deletes its update-tracking row; the host writes nothing."""

    url = owner.get_datalink(FILES_TABLE, {"file_id": at % FILES}, "doc",
                             access="write")
    update = owner.update_file(url)
    update.begin()
    update.commit()


def _storage_bytes_per_read(reads) -> float | None:
    """Live bytes allocated under ``storage/`` per operation while
    ``reads()`` (which returns how many operations it made) runs, or
    ``None`` when ``tracemalloc`` was already tracing (no clean
    baseline)."""

    if tracemalloc.is_tracing():
        reads()
        return None
    storage = os.path.join(os.path.dirname(repro.storage.__file__), "")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        count = reads()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Grouped by file first: one prefix test per file, not a pattern
    # match per allocation.
    return sum(stat.size_diff for stat in after.compare_to(before, "filename")
               if stat.traceback[0].filename.startswith(storage)) / count


@pytest.fixture(scope="module")
def after_reads():
    """``(DLFM, log records written by the reads, storage bytes retained
    per read or None)`` after ``WARM_UP`` + ``READS`` tokenized reads on a
    small rdd system."""

    dlfm, owner = _microsystem()
    for at in range(WARM_UP):
        _read(owner, at)
    wal = dlfm.repository.db.wal
    start = len(wal)

    def reads() -> int:
        for at in range(READS):
            _read(owner, at)
        return READS

    per_read = _storage_bytes_per_read(reads)
    return dlfm, len(wal) - start, per_read


@pytest.fixture(scope="module")
def folded_ops():
    """The folded regime: ``4 * L`` unchanged update opens after the
    warm-up.  Returns the retained record counts after ``L`` and ``4 * L``
    operations, the log's growth per operation, how many records folded,
    and the storage bytes per operation while the log grew and over one
    fold cycle (each ``None`` without a clean baseline)."""

    dlfm, owner = _microsystem()
    wal = dlfm.repository.db.wal
    start = len(wal)

    def folded() -> int:
        return len(wal) - len(wal.records())

    done = 0

    def run_until(condition) -> int:
        nonlocal done
        count = 0
        while not condition():
            _open_unchanged(owner, done)
            done += 1
            count += 1
        return count

    run_until(lambda: done == WARM_UP)
    unfolded = _storage_bytes_per_read(
        lambda: run_until(lambda: done == WARM_UP + UNFOLDED))
    assert folded() == 0
    run_until(lambda: done == L)
    retained = [len(wal.records())]
    mark = folded()
    run_until(lambda: folded() != mark)
    mark = folded()
    per_op = _storage_bytes_per_read(
        lambda: run_until(lambda: folded() != mark))
    run_until(lambda: done == 4 * L)
    retained.append(len(wal.records()))
    return {"retained": retained, "records_per_op": (len(wal) - start) / done,
            "folded_records": folded(), "unfolded_bytes_per_op": unfolded,
            "bytes_per_op": per_op}


def test_a_read_writes_no_log_record(after_reads):
    dlfm, records, _ = after_reads
    assert records == 0
    paths = {path for path, _userid, _type in dlfm.soft.tokens}
    assert len(dlfm.soft.tokens) == len(paths) == FILES
    assert dlfm.soft.sync == {}


def test_the_log_retains_no_finished_transaction(after_reads):
    db = after_reads[0].repository.db
    assert not db.active_transactions() and not db.in_doubt_transactions()
    assert db.wal._open == {}


def test_every_row_image_exists_once(after_reads):
    db = after_reads[0].repository.db
    records = db.wal.records()
    images = {id(image) for record in records
              for image in (record.before, record.after) if image is not None}
    for table in db.catalog.table_names():
        images.update(map(id, db.catalog.heap(table)._rows.values()))
    written = sum(record.type in (LogRecordType.INSERT, LogRecordType.UPDATE)
                  for record in records)
    assert len(images) <= written


def test_a_unique_bucket_is_a_bare_rid(after_reads):
    """No wrapper in a hash index: a one-column key is the bare value and
    a one-row bucket the bare row id, so a unique index holds ints only."""

    db = after_reads[0].repository.db
    indexes = [index for table in db.catalog.table_names()
               for index in db.catalog.iter_indexes(table)
               if isinstance(index, HashIndex) and index.derive is None]
    unique = [index for index in indexes if index.unique]
    assert unique and sum(map(len, unique))
    for index in indexes:
        for key, bucket in index.raw_entries.items():
            assert (type(key) is tuple) == (len(index.columns) > 1), key
            assert type(bucket) is int \
                or (not index.unique and type(bucket) is set
                    and len(bucket) > 1), bucket


def test_storage_bytes_retained_per_read(after_reads):
    per_read = after_reads[2]
    if per_read is None:
        pytest.skip("tracemalloc was already tracing: no clean baseline")
    assert per_read < 0.05 * TOKEN_ROW_STORAGE_BYTES_PER_READ, per_read


def test_the_folded_log_retains_at_most_fold_at_records(folded_ops):
    assert all(count <= FOLD_AT for count in folded_ops["retained"])
    assert folded_ops["folded_records"] >= 4 * FOLD_AT


def test_the_log_still_counts_six_records_per_operation(folded_ops):
    assert folded_ops["records_per_op"] == 6


def test_storage_bytes_retained_per_operation_once_the_log_folds(folded_ops):
    unfolded, per_op = folded_ops["unfolded_bytes_per_op"], \
        folded_ops["bytes_per_op"]
    if unfolded is None or per_op is None:
        pytest.skip("tracemalloc was already tracing: no clean baseline")
    assert per_op <= 0.05 * unfolded, (per_op, unfolded)
    assert per_op < TOKEN_ROW_STORAGE_BYTES_PER_READ, per_op


@pytest.fixture(scope="module")
def web_sites():
    """``{operations: (version rows, archive objects, archive bytes,
    superseded updates)}`` after ``WEB_L`` and ``4 * WEB_L`` operations:
    one site, read after a run of ``WEB_L`` and again after a second run
    of ``3 * WEB_L``."""

    retained = {}
    workload = WebServerWorkload(WebSiteConfig(
        pages=WEB_PAGES, page_size=WEB_PAGE_SIZE)).setup()
    system = workload.system
    for operations, run in ((WEB_L, WEB_L), (4 * WEB_L, 3 * WEB_L)):
        workload.config = replace(workload.config, operations=run)
        workload.run()
        rows = system.file_server("web0").dlfm.repository.db.select(
            "file_versions", lock=False)
        retained[operations] = (
            len(rows), len(system.archive),
            sum(len(obj.content) for obj in system.archive._objects.values()),
            sum(row["version_no"] - 1 for row in rows))
    return retained


def test_one_version_and_one_archive_object_per_linked_page(web_sites):
    for rows, objects, _, _ in web_sites.values():
        assert rows == objects == WEB_PAGES


def test_archive_bytes_retained_per_superseded_update_are_zero(web_sites):
    (_, _, small, small_updates), (_, _, large, large_updates) = \
        web_sites[WEB_L], web_sites[4 * WEB_L]
    assert large_updates > small_updates > 0
    assert (large - small) / (large_updates - small_updates) == 0
    assert small == WEB_PAGES * WEB_PAGE_SIZE
