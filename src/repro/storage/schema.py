"""Table schemas: column definitions, defaults and row validation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NoSuchColumnError, NullViolationError, SchemaError
from repro.storage.values import DataType, validate_value


@dataclass(frozen=True)
class Column:
    """One column of a table.

    ``options`` is an opaque mapping used by higher layers; the DataLinks
    engine stores the per-column DATALINK control options (control mode,
    recovery, on-unlink behaviour) here.
    """

    name: str
    dtype: DataType
    nullable: bool = True
    default: object = None
    options: dict = field(default_factory=dict)


#: Exact runtime type accepted without coercion per data type: when a value's
#: ``type()`` matches, ``validate_value`` would return it unchanged, so the
#: compiled validator below skips the call entirely.  DATALINK always takes
#: the slow path (URL well-formedness must be checked).  ``bool`` being an
#: ``int`` subclass is handled naturally: ``type(True) is int`` is False.
_EXACT_TYPES = {
    DataType.INTEGER: int,
    DataType.REAL: float,
    DataType.TEXT: str,
    DataType.BOOLEAN: bool,
    DataType.TIMESTAMP: float,
    DataType.BLOB: bytes,
}


class TableSchema:
    """An ordered collection of columns plus an optional primary key."""

    def __init__(self, name: str, columns: list[Column],
                 primary_key: tuple[str, ...] | list[str] = ()):
        if not name:
            raise SchemaError("table name must be non-empty")
        if not columns:
            raise SchemaError(f"table {name}: at least one column is required")
        seen: set[str] = set()
        for column in columns:
            if column.name in seen:
                raise SchemaError(f"table {name}: duplicate column {column.name!r}")
            seen.add(column.name)
        self.name = name
        self.columns = list(columns)
        self._by_name = {column.name: column for column in columns}
        self.primary_key = tuple(primary_key)
        for key_column in self.primary_key:
            if key_column not in self._by_name:
                raise SchemaError(
                    f"table {name}: primary key column {key_column!r} is not defined")
        # Pre-resolved per-column validation plan: (name, dtype, nullable,
        # default, exact_type).  Columns are immutable, so this is built once.
        self._validate_plan = tuple(
            (column.name, column.dtype, column.nullable, column.default,
             _EXACT_TYPES.get(column.dtype))
            for column in self.columns)

    # -- lookup ---------------------------------------------------------------
    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise NoSuchColumnError(f"table {self.name}: no column {name!r}") from None

    def datalink_columns(self) -> list[Column]:
        """Columns declared with the DATALINK type."""

        return [column for column in self.columns if column.dtype is DataType.DATALINK]

    # -- validation -----------------------------------------------------------
    def validate_row(self, row: dict) -> dict:
        """Validate and normalize *row*.

        Unknown keys are rejected -- bar internal ("_"-prefixed) ones such
        as the ``_rid`` a select attaches, which are dropped -- missing
        columns receive their default, values are type-checked, and NOT
        NULL constraints are enforced.  Returns a new dict laid out in
        column order.
        """

        by_name = self._by_name
        for key in row:
            if key not in by_name and key[:1] != "_":
                raise NoSuchColumnError(f"table {self.name}: no column {key!r}")
        normalized: dict = {}
        # The compiled plan makes the common case (value already of the
        # exact storage type) a zero-call check; only coercions, None values
        # and DATALINK URLs take the ``validate_value`` slow path, which
        # keeps semantics (and error messages) identical.
        for name, dtype, nullable, default, exact in self._validate_plan:
            value = row[name] if name in row else default
            if type(value) is exact:
                normalized[name] = value
                continue
            value = validate_value(dtype, value, name)
            if value is None and not nullable:
                raise NullViolationError(
                    f"table {self.name}: column {name!r} may not be null")
            normalized[name] = value
        return normalized

    def primary_key_of(self, row: dict) -> tuple:
        """Extract the primary-key tuple of a (validated) row."""

        return tuple(row[name] for name in self.primary_key)

    def copy(self) -> "TableSchema":
        """A structural copy of this schema (columns are immutable)."""

        return TableSchema(self.name, list(self.columns), self.primary_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.dtype.value}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"
