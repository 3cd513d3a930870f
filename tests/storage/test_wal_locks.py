"""Unit tests for the write-ahead log and the lock manager."""

import random

import pytest

from repro.errors import DeadlockError, LockConflictError
from repro.storage.lock_manager import LockManager, LockMode
from repro.storage.wal import LogRecordType, WriteAheadLog


class TestWriteAheadLog:
    def test_lsns_are_monotonic(self):
        wal = WriteAheadLog()
        first = wal.append(1, LogRecordType.BEGIN)
        second = wal.append(1, LogRecordType.COMMIT)
        assert second.lsn > first.lsn

    def test_flush_marks_durable_prefix(self):
        wal = WriteAheadLog()
        wal.append(1, LogRecordType.BEGIN)
        wal.flush()
        wal.append(1, LogRecordType.COMMIT)
        durable = wal.records(durable_only=True)
        assert [r.type for r in durable] == [LogRecordType.BEGIN]
        assert len(wal.records()) == 2

    def test_lose_unflushed_discards_tail(self):
        wal = WriteAheadLog()
        wal.append(1, LogRecordType.BEGIN)
        wal.flush()
        wal.append(1, LogRecordType.INSERT, table="t", rid=1, after={"a": 1})
        lost = wal.lose_unflushed()
        assert lost == 1
        assert len(wal) == 1
        # LSN sequence resumes after the surviving records
        record = wal.append(2, LogRecordType.BEGIN)
        assert record.lsn.value == 2

    def test_records_from_filters_by_lsn(self):
        wal = WriteAheadLog()
        first = wal.append(1, LogRecordType.BEGIN)
        wal.append(1, LogRecordType.COMMIT)
        wal.flush()
        later = wal.records_from(first.lsn)
        assert [r.type for r in later] == [LogRecordType.COMMIT]

    @pytest.mark.parametrize("seed", [2, 99, 20261002])
    def test_records_from_is_the_lsn_filter_because_lsns_are_dense(self, seed):
        """``records_from`` takes the suffix by position.  The reference is
        the filter it stands for, over every cursor a shipper could hold,
        after each step of a seeded mix of appends, flushes, crashes and
        group-commit windows -- and position ``i`` holds LSN ``i + 1``
        throughout, which is what lets a position stand for an LSN."""

        rng = random.Random(seed)
        wal = WriteAheadLog(flush_policy=rng.choice(["immediate", "group"]),
                            group_window=rng.randint(2, 5))
        for step in range(120):
            action = rng.randrange(10)
            if action < 5:
                wal.append(rng.randrange(1, 6), LogRecordType.INSERT,
                           table="t", rid=step, after={"a": step})
            elif action < 7:
                wal.append(rng.randrange(1, 6), LogRecordType.COMMIT)
                wal.note_commit()
            elif action == 7:
                wal.flush()
            elif action == 8:
                wal.lose_unflushed()
            else:
                wal.set_flush_policy(rng.choice(["immediate", "group"]),
                                     rng.randint(1, 4))
            everything = wal.records()
            assert [int(r.lsn) for r in everything] == \
                list(range(1, len(everything) + 1))
            for durable_only in (True, False):
                visible = wal.records(durable_only=durable_only)
                for lsn in range(-1, int(wal.tail_lsn()) + 2):
                    assert wal.records_from(lsn, durable_only=durable_only) \
                        == [r for r in visible if r.lsn > lsn], (step, lsn)

    def test_records_of_transaction(self):
        wal = WriteAheadLog()
        wal.append(1, LogRecordType.BEGIN)
        wal.append(2, LogRecordType.BEGIN)
        wal.append(1, LogRecordType.COMMIT)
        assert len(wal.records_of(1)) == 2
        assert len(wal.records_of(2)) == 1

    def test_tail_and_flushed_lsn_defaults(self):
        wal = WriteAheadLog()
        assert int(wal.tail_lsn()) == 0
        assert int(wal.flushed_lsn) == 0


class TestLockManager:
    def test_shared_locks_are_compatible(self):
        locks = LockManager()
        assert locks.acquire(1, "r", LockMode.SHARED)
        assert locks.acquire(2, "r", LockMode.SHARED)

    def test_exclusive_conflicts_with_shared(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        with pytest.raises(LockConflictError) as info:
            locks.acquire(2, "r", LockMode.EXCLUSIVE)
        assert 1 in info.value.holders

    def test_reacquire_same_mode_is_idempotent(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.acquire(1, "r", LockMode.SHARED)  # X covers S

    def test_upgrade_when_sole_holder(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        assert locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.holds(1, "r", LockMode.EXCLUSIVE)

    def test_upgrade_blocked_by_other_sharer(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        with pytest.raises(LockConflictError):
            locks.acquire(1, "r", LockMode.EXCLUSIVE)

    def test_release_all_frees_resources(self):
        locks = LockManager()
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(1, "b", LockMode.SHARED)
        locks.release_all(1)
        assert locks.acquire(2, "a", LockMode.EXCLUSIVE)
        assert locks.acquire(2, "b", LockMode.EXCLUSIVE)

    def test_deadlock_detected_on_cycle(self):
        locks = LockManager()
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        locks.acquire(2, "b", LockMode.EXCLUSIVE)
        # txn 1 waits for b (held by 2)
        with pytest.raises(LockConflictError):
            locks.acquire(1, "b", LockMode.EXCLUSIVE)
        # txn 2 waiting for a (held by 1) would close the cycle
        with pytest.raises(DeadlockError):
            locks.acquire(2, "a", LockMode.EXCLUSIVE)

    def test_try_acquire_returns_false_on_conflict(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.EXCLUSIVE)
        assert locks.try_acquire(2, "r", LockMode.SHARED) is False
        assert locks.try_acquire(1, "r", LockMode.EXCLUSIVE) is True

    def test_holders_of_reports_modes(self):
        locks = LockManager()
        locks.acquire(1, "r", LockMode.SHARED)
        locks.acquire(2, "r", LockMode.SHARED)
        holders = locks.holders_of("r")
        assert holders == {1: LockMode.SHARED, 2: LockMode.SHARED}

    def test_wait_edges_cleared_after_release(self):
        locks = LockManager()
        locks.acquire(1, "a", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(2, "a", LockMode.EXCLUSIVE)
        locks.release_all(1)
        # no stale wait-for edge: acquiring in the other direction is fine
        assert locks.acquire(2, "a", LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(1, "a", LockMode.EXCLUSIVE)
