"""What one tokenized read leaves behind in the DLFM repository, pinned.

A read under ``rdd`` control is three upcalls, each a repository
transaction (Section 4): 9 log records, two inserted rows, one deleted row.
The operations are the paper's; what the *simulator* retains for them is
ours to keep small, because it is what checkpoints, witness mirrors and the
benchmark's ``peak_rss_mb`` grow by (ROADMAP direction 4).  After the reads,
with every transaction finished:

* the log remembers no finished transaction (its open-transaction table is
  empty: a transaction's records are linked, not indexed for ever);
* every row image exists once -- heap rows and log images together are no
  more distinct dicts than there were INSERT and UPDATE records;
* a unique index holds a key's one row id as a 1-tuple;
* the bytes allocated under ``storage/`` and still live, per read, stay
  under three quarters of what PR 23 retained.

Those reads stay below ``FOLD_AT``.  The folded regime runs ``4 * L`` reads
on a second system, so the repository log folds into its checkpoint base
at least four times: the log retains at most ``FOLD_AT`` records after
``L`` reads and after ``4 * L``, ``len`` of the log still grows by exactly
nine per read, and the live ``storage/`` bytes per read -- measured over
one fold cycle, from the read that folded to the read that folded next, so
the bounded log's sawtooth cancels -- are at most half of what the
unfolded log retained (2 220.0).  This tree reads 734.9 (CPython 3.11.7):
what is left is the token registry's growth, one row per read, and the
checkpoint base's reference to it.

A superseded file version retains nothing (ROADMAP direction 4(a), its
steady-state slice for version chains).  ``WebServerWorkload`` (200 pages of
16 KiB, 2 % in-place updates) runs ``WEB_L`` and ``4 * WEB_L`` operations
with no backup taken: at both sizes the DLFM holds one ``file_versions`` row
and the archive one object per linked page, so the archive bytes retained
per superseded update are 0.  Before version retention this run held 220
and 280 rows, and 16 384 archive bytes (one page) per superseded update.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

import repro.storage
from repro.bench.runner import FILES_TABLE, RunContext
from repro.datalinks.control_modes import ControlMode
from repro.storage.index import HashIndex
from repro.storage.wal import FOLD_AT, LogRecordType
from repro.workloads.webserver import WebServerWorkload, WebSiteConfig

WARM_UP, READS, FILES = 100, 300, 4
#: Reads per stage of the folded regime.
L = 500
#: Operations of the smaller web-site run (the larger runs four times as
#: many); the pages and their size are the ROADMAP's measurement's.
WEB_L, WEB_PAGES, WEB_PAGE_SIZE = 1000, 200, 16 * 1024

#: Live bytes allocated under ``storage/`` per tokenized read at PR 23
#: (this fixture's own procedure on that tree, CPython 3.11.7): 3 286.4.
#: This tree reads 2 220.0 (68 %: nine 104-byte records and their nine
#: 48-byte LSNs are 1 368 of it); the bound is 75 % of the old figure so
#: that allocator and patch-release differences cannot trip it.
PARENT_STORAGE_BYTES_PER_READ = 3286
#: What this fixture's procedure read before the log folded (CPython
#: 3.11.7), the base of the folded regime's bound.
UNFOLDED_STORAGE_BYTES_PER_READ = 2220


def _reader():
    """``(repository database, read(at))`` on a small rdd system, warmed."""

    system, owner, _ = RunContext().build_microsystem(
        ControlMode.RDD, size=512, files=FILES)

    def read(at: int) -> None:
        url = owner.get_datalink(FILES_TABLE, {"file_id": at % FILES}, "doc",
                                 access="read")
        owner.read_url(url)

    for at in range(WARM_UP):
        read(at)
    return system.file_server("fs1").dlfm.repository.db, read


def _storage_bytes_per_read(reads) -> float | None:
    """Live bytes allocated under ``storage/`` per read while ``reads()``
    (which returns how many reads it made) runs, or ``None`` when
    ``tracemalloc`` was already tracing (no clean baseline)."""

    if tracemalloc.is_tracing():
        reads()
        return None
    under_storage = [tracemalloc.Filter(
        True, os.path.join(os.path.dirname(repro.storage.__file__), "*"))]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(under_storage)
        count = reads()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(under_storage)
    finally:
        tracemalloc.stop()
    return sum(stat.size_diff for stat in
               after.compare_to(before, "filename")) / count


@pytest.fixture(scope="module")
def after_reads():
    """``(repository database, storage bytes retained per read or None)``
    after ``WARM_UP`` + ``READS`` tokenized reads on a small rdd system."""

    db, read = _reader()

    def reads() -> int:
        for at in range(READS):
            read(at)
        return READS

    return db, _storage_bytes_per_read(reads)


@pytest.fixture(scope="module")
def folded_reads():
    """The folded regime: ``4 * L`` reads after the warm-up.  Returns the
    retained record counts after ``L`` and ``4 * L`` reads, the log's
    growth per read, how many folds happened and the storage bytes per read
    over one fold cycle (or ``None``)."""

    db, read = _reader()
    wal = db.wal
    start = len(wal)

    def folded() -> int:
        return len(wal) - len(wal.records())

    done = 0

    def read_until(condition) -> int:
        nonlocal done
        count = 0
        while not condition():
            read(done)
            done += 1
            count += 1
        return count

    read_until(lambda: done == L)
    retained = [len(wal.records())]
    mark = folded()
    read_until(lambda: folded() != mark)
    mark = folded()
    per_read = _storage_bytes_per_read(
        lambda: read_until(lambda: folded() != mark))
    read_until(lambda: done == 4 * L)
    retained.append(len(wal.records()))
    return {"retained": retained, "records_per_read": (len(wal) - start) / done,
            "folded_records": folded(), "bytes_per_read": per_read}


def test_a_read_is_three_transactions_of_nine_records(after_reads):
    db, _ = after_reads
    tail = db.wal.records()[-9 * READS:]
    assert [record.type for record in tail].count(LogRecordType.BEGIN) \
        == 3 * READS
    assert tail[0].type is LogRecordType.BEGIN
    assert tail[-1].type is LogRecordType.COMMIT


def test_the_log_retains_no_finished_transaction(after_reads):
    db, _ = after_reads
    assert not db.active_transactions() and not db.in_doubt_transactions()
    assert db.wal._open == {}


def test_every_row_image_exists_once(after_reads):
    db, _ = after_reads
    records = db.wal.records()
    images = {id(image) for record in records
              for image in (record.before, record.after) if image is not None}
    for table in db.catalog.table_names():
        images.update(map(id, db.catalog.heap(table)._rows.values()))
    written = sum(record.type in (LogRecordType.INSERT, LogRecordType.UPDATE)
                  for record in records)
    assert len(images) <= written


def test_a_unique_bucket_is_a_tuple(after_reads):
    db, _ = after_reads
    unique = [index for table in db.catalog.table_names()
              for index in db.catalog.indexes_of(table)
              if isinstance(index, HashIndex) and index.unique]
    assert unique and sum(map(len, unique))
    for index in unique:
        for bucket in index._entries.values():
            assert type(bucket) is tuple and len(bucket) == 1


def test_storage_bytes_retained_per_read(after_reads):
    _, per_read = after_reads
    if per_read is None:
        pytest.skip("tracemalloc was already tracing: no clean baseline")
    assert per_read <= 0.75 * PARENT_STORAGE_BYTES_PER_READ, per_read


def test_the_folded_log_retains_at_most_fold_at_records(folded_reads):
    assert all(count <= FOLD_AT for count in folded_reads["retained"])
    assert folded_reads["folded_records"] >= 4 * FOLD_AT


def test_the_log_still_counts_nine_records_per_read(folded_reads):
    assert folded_reads["records_per_read"] == 9


def test_storage_bytes_retained_per_read_once_the_log_folds(folded_reads):
    per_read = folded_reads["bytes_per_read"]
    if per_read is None:
        pytest.skip("tracemalloc was already tracing: no clean baseline")
    assert per_read <= 0.5 * UNFOLDED_STORAGE_BYTES_PER_READ, per_read


@pytest.fixture(scope="module")
def web_sites():
    """``{operations: (version rows, archive objects, archive bytes,
    superseded updates)}`` after ``WEB_L`` and ``4 * WEB_L`` operations."""

    retained = {}
    for operations in (WEB_L, 4 * WEB_L):
        workload = WebServerWorkload(WebSiteConfig(
            pages=WEB_PAGES, page_size=WEB_PAGE_SIZE,
            operations=operations)).setup()
        workload.run()
        system = workload.system
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
