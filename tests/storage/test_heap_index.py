"""Unit tests for heap tables and secondary indexes."""

import pytest

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.storage.heap import HeapTable
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType


def simple_schema() -> TableSchema:
    return TableSchema("t", [Column("k", DataType.INTEGER), Column("v", DataType.TEXT)])


class TestHeapTable:
    def test_insert_assigns_increasing_rids(self):
        heap = HeapTable(simple_schema())
        rids = [heap.insert({"k": i, "v": "x"}) for i in range(5)]
        assert rids == [1, 2, 3, 4, 5]

    def test_get_returns_copy(self):
        heap = HeapTable(simple_schema())
        rid = heap.insert({"k": 1, "v": "a"})
        row = heap.get(rid)
        row["v"] = "mutated"
        assert heap.get(rid)["v"] == "a"

    def test_update_and_delete(self):
        heap = HeapTable(simple_schema())
        rid = heap.insert({"k": 1, "v": "a"})
        heap.update(rid, {"k": 1, "v": "b"})
        assert heap.get(rid)["v"] == "b"
        removed = heap.delete(rid)
        assert removed["v"] == "b"
        assert not heap.exists(rid)

    def test_missing_row_errors(self):
        heap = HeapTable(simple_schema())
        with pytest.raises(NoSuchRowError):
            heap.get(99)
        with pytest.raises(NoSuchRowError):
            heap.update(99, {"k": 1, "v": "a"})
        with pytest.raises(NoSuchRowError):
            heap.delete(99)

    def test_forced_rid_used_by_recovery(self):
        heap = HeapTable(simple_schema())
        heap.insert({"k": 1, "v": "a"}, rid=10)
        assert heap.get(10)["k"] == 1
        # subsequent inserts continue past the forced rid
        assert heap.insert({"k": 2, "v": "b"}) == 11

    def test_scan_is_sorted_by_rid(self):
        heap = HeapTable(simple_schema())
        heap.insert({"k": 2, "v": "b"}, rid=7)
        heap.insert({"k": 1, "v": "a"}, rid=3)
        assert [rid for rid, _ in heap.scan()] == [3, 7]

    def test_snapshot_roundtrip(self):
        heap = HeapTable(simple_schema())
        heap.insert({"k": 1, "v": "a"})
        snapshot = heap.snapshot()
        heap.insert({"k": 2, "v": "b"})
        heap.load_snapshot(snapshot)
        assert len(heap) == 1
        # the snapshot is deep: mutating it later does not affect the heap
        snapshot["rows"][1]["v"] = "hacked"
        assert heap.get(1)["v"] == "a"


class TestHashIndex:
    def test_lookup_after_insert_and_remove(self):
        index = HashIndex("idx", "t", ("k",))
        index.insert({"k": 5, "v": "a"}, 1)
        index.insert({"k": 5, "v": "b"}, 2)
        assert index.lookup((5,)) == {1, 2}
        index.remove({"k": 5, "v": "a"}, 1)
        assert index.lookup((5,)) == {2}

    def test_unique_violation(self):
        index = HashIndex("idx", "t", ("k",), unique=True)
        index.insert({"k": 5}, 1)
        with pytest.raises(DuplicateKeyError):
            index.insert({"k": 5}, 2)

    def test_unique_reinsert_same_rid_is_idempotent(self):
        index = HashIndex("idx", "t", ("k",), unique=True)
        index.insert({"k": 5}, 1)
        index.insert({"k": 5}, 1)
        assert index.lookup((5,)) == {1}

    def test_remove_unknown_key_is_noop(self):
        index = HashIndex("idx", "t", ("k",))
        index.remove({"k": 1}, 1)
        assert len(index) == 0


class TestOrderedIndex:
    def test_range_scan_inclusive(self):
        index = OrderedIndex("idx", "t", ("k",))
        for value, rid in ((10, 1), (20, 2), (30, 3), (20, 4)):
            index.insert({"k": value}, rid)
        hits = list(index.range_scan(low=(20,), high=(30,)))
        assert sorted(rid for key, rid in hits if key == (20,)) == [2, 4]
        assert [rid for key, rid in hits if key == (30,)] == [3]
        assert [key for key, _ in hits] == sorted(key for key, _ in hits)

    def test_range_scan_exclusive_bounds(self):
        index = OrderedIndex("idx", "t", ("k",))
        for value, rid in ((10, 1), (20, 2), (30, 3)):
            index.insert({"k": value}, rid)
        hits = list(index.range_scan(low=(10,), high=(30,),
                                     include_low=False, include_high=False))
        assert [rid for _, rid in hits] == [2]

    def test_unique_violation(self):
        index = OrderedIndex("idx", "t", ("k",), unique=True)
        index.insert({"k": 1}, 1)
        with pytest.raises(DuplicateKeyError):
            index.insert({"k": 1}, 2)

    def test_remove_specific_rid_among_duplicates(self):
        index = OrderedIndex("idx", "t", ("k",))
        index.insert({"k": 1}, 1)
        index.insert({"k": 1}, 2)
        index.remove({"k": 1}, 1)
        assert index.lookup((1,)) == {2}


class TestDatalinkIndexes:
    """An index over a DATALINK column is keyed by the referenced file."""

    def _db(self, primary_key):
        from repro.simclock import SimClock
        from repro.storage.database import Database

        db = Database("links", SimClock())
        db.create_table(TableSchema("links", [
            Column("k", DataType.INTEGER, nullable=False),
            Column("url", DataType.DATALINK),
        ], primary_key=primary_key))
        if primary_key != ("url",):
            db.create_index("links_url", "links", ("url",))
        return db

    URLS = ("dlfs://a/x", "http://b/x", "dlfs://a/x;token=t", "dlfs://a/y",
            None)

    @pytest.mark.parametrize("index_cls", [HashIndex, OrderedIndex])
    def test_spellings_of_one_path_share_a_bucket(self, index_cls):
        from repro.storage.index import referenced_file

        index = index_cls("idx", "t", ("k", "url"),
                          derive=(None, referenced_file))
        # (The ordered index cannot sort NULL keys, derived or not.)
        urls = self.URLS if index_cls is HashIndex else self.URLS[:-1]
        for rid, url in enumerate(urls, 1):
            index.insert({"k": 0, "url": url}, rid)
        assert index.lookup((0, "/x")) == {1, 2, 3}
        assert index.lookup((0, "dlfs://elsewhere/x")) == {1, 2, 3}
        assert index.lookup((0, "dlfs://a/y")) == {4}
        if index_cls is HashIndex:
            assert index.lookup((0, None)) == {5}
        assert index.lookup((1, "/x")) == set()
        index.remove({"k": 0, "url": "http://b/x"}, 2)
        assert index.lookup((0, "/x")) == {1, 3}

    def test_the_catalog_derives_from_the_column_type(self):
        db = self._db(("k",))
        index = db.catalog.index_by_name("links", "links_url")
        assert index.derive is not None and index.raw_entries is None
        assert db.catalog.index_by_name("links", "links_pk").derive is None

    def test_equality_select_still_compares_the_whole_value(self):
        db = self._db(("k",))
        for k, url in enumerate(self.URLS):
            db.insert("links", {"k": k, "url": url})
        assert [row["k"] for row in
                db.select("links", {"url": "http://b/x"}, lock=False)] == [1]
        assert db.select("links", {"url": "http://nowhere/x"},
                         lock=False) == []

    def test_a_datalink_primary_key_admits_one_row_per_file(self):
        db = self._db(("url",))
        db.insert("links", {"k": 1, "url": "dlfs://a/x"})
        db.insert("links", {"k": 2, "url": "dlfs://a/y"})
        with pytest.raises(DuplicateKeyError):
            db.insert("links", {"k": 3, "url": "http://b/x"})
        # The point SELECT must not hand back the other spelling's row.
        assert db.select("links", {"url": "http://b/x"}, lock=False) == []
        assert [row["k"] for row in
                db.select("links", {"url": "dlfs://a/x"}, lock=False)] == [1]
