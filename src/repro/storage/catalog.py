"""The catalog: table schemas, heaps, and their indexes."""

from __future__ import annotations

from repro.errors import NoSuchTableError, TableExistsError
from repro.storage.heap import HeapTable
from repro.storage.index import HashIndex, referenced_file
from repro.storage.schema import TableSchema
from repro.storage.values import DataType


class Catalog:
    """Owns every table's schema, heap storage and index set."""

    def __init__(self):
        self._schemas: dict[str, TableSchema] = {}
        self._heaps: dict[str, HeapTable] = {}
        self._indexes: dict[str, list] = {}
        self._index_by_name: dict[tuple[str, str], object] = {}
        #: Bumped on every DDL change (create table, create index,
        #: snapshot load).  Callers holding derived per-table plans (the
        #: database's extended plan cache) validate against this counter
        #: instead of re-probing the catalog per statement.
        self.version = 0

    # -- tables -----------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> HeapTable:
        if schema.name in self._schemas:
            raise TableExistsError(f"table {schema.name!r} already exists")
        self.version += 1
        self._schemas[schema.name] = schema
        heap = HeapTable(schema)
        self._heaps[schema.name] = heap
        self._indexes[schema.name] = []
        if schema.primary_key:
            self.create_index(f"{schema.name}_pk", schema.name,
                              schema.primary_key, unique=True)
        return heap

    def has_table(self, name: str) -> bool:
        return name in self._schemas

    def schema(self, name: str) -> TableSchema:
        self._require(name)
        return self._schemas[name]

    def heap(self, name: str) -> HeapTable:
        self._require(name)
        return self._heaps[name]

    def table_names(self) -> list[str]:
        return sorted(self._schemas)

    def _require(self, name: str) -> None:
        if name not in self._schemas:
            raise NoSuchTableError(f"no such table: {name!r}")

    # -- indexes ------------------------------------------------------------------
    def create_index(self, index_name: str, table: str, columns, *,
                     unique: bool = False):
        self._require(table)
        self.version += 1
        columns = tuple(columns)
        # DATALINK columns are keyed by the file they reference (see
        # repro.storage.index); the schema decides, so index definitions in
        # snapshots stay plain column lists and rebuild the same index.
        schema = self._schemas[table]
        derive = tuple(
            referenced_file
            if schema.column(column).dtype is DataType.DATALINK else None
            for column in columns)
        index = HashIndex(index_name, table, columns, unique=unique,
                          derive=derive if any(derive) else None)
        for rid, row in self._heaps[table].scan_live():
            index.insert(row, rid)
        self._indexes[table].append(index)
        self._index_by_name[(table, index_name)] = index
        return index

    def iter_indexes(self, table: str):
        """The internal index list for *table* (no copy; do not mutate)."""

        return self._indexes.get(table, ())

    def index_by_name(self, table: str, index_name: str):
        return self._index_by_name.get((table, index_name))

    def plan_info(self, table: str) -> tuple:
        """``(schema, heap, pk_index, indexes)`` for *table*: what the
        database's plan cache builds a table's plan from."""

        self._require(table)
        return (self._schemas[table], self._heaps[table],
                self._index_by_name.get((table, f"{table}_pk")),
                tuple(self._indexes[table]))

    # -- maintenance hooks ----------------------------------------------------------
    def index_insert(self, table: str, row: dict, rid: int) -> None:
        for index in self._indexes.get(table, ()):
            index.insert(row, rid)

    def index_remove(self, table: str, row: dict, rid: int) -> None:
        for index in self._indexes.get(table, ()):
            index.remove(row, rid)

    def rebuild_indexes(self, table: str | None = None) -> None:
        """Rebuild indexes from heap contents (after restore or recovery)."""

        tables = [table] if table else list(self._schemas)
        for name in tables:
            for index in self._indexes.get(name, ()):
                index.clear()
                for rid, row in self._heaps[name].scan_live():
                    index.insert(row, rid)

    # -- checkpoint / backup ------------------------------------------------------
    def index_defs(self) -> dict:
        """``{table: [index definition, ...]}`` -- the index DDL, replayable
        through :meth:`ensure_indexes`."""

        return {
            name: [
                {
                    "name": index.name,
                    "columns": index.columns,
                    "unique": index.unique,
                }
                for index in indexes
            ]
            for name, indexes in self._indexes.items()
        }

    def ensure_indexes(self, index_defs: dict) -> None:
        """Create every defined index its (existing) table does not have."""

        for table, definitions in index_defs.items():
            if table not in self._schemas:
                continue
            for definition in definitions:
                if (table, definition["name"]) not in self._index_by_name:
                    self.create_index(definition["name"], table,
                                      definition["columns"],
                                      unique=definition["unique"])

    def snapshot(self) -> dict:
        """Schemas, heap contents and index definitions -- the checkpoint
        base's and a backup's image of the catalog.  Schemas are copied;
        heap rows are the shared images (:meth:`HeapTable.snapshot`)."""

        return {
            "schemas": {name: schema.copy() for name, schema in self._schemas.items()},
            "heaps": {name: heap.snapshot() for name, heap in self._heaps.items()},
            "index_defs": self.index_defs(),
        }

    def load_snapshot(self, snapshot: dict) -> None:
        """Replace the whole catalog with *snapshot* (restore / recovery)."""

        self.version += 1
        self._schemas = {}
        self._heaps = {}
        self._indexes = {}
        self._index_by_name = {}
        for name, schema in snapshot["schemas"].items():
            self._schemas[name] = schema.copy()
            heap = HeapTable(self._schemas[name])
            heap.load_snapshot(snapshot["heaps"][name])
            self._heaps[name] = heap
            self._indexes[name] = []
        self.ensure_indexes(snapshot["index_defs"])
