"""Predicate helpers for the query interface.

The database exposes a programmatic query API (``select``/``update``/``delete``
take a *where* argument) rather than a SQL text parser.  A *where* may be:

* ``None`` -- match every row;
* a ``dict`` -- column-equality conjunction (the common case);
* a callable ``row -> bool``;
* a :class:`Condition` tree built from the combinators below, which is also
  introspectable so the planner can use an index for equality conjuncts.
"""

from __future__ import annotations

from dataclasses import dataclass


class Condition:
    """Base class for composable row predicates."""

    def matches(self, row: dict) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)

    def equality_bindings(self) -> dict:
        """Column -> value bindings implied by this condition (for index use)."""

        return {}


@dataclass(frozen=True)
class Eq(Condition):
    column: str
    value: object

    def matches(self, row: dict) -> bool:
        return row.get(self.column) == self.value

    def equality_bindings(self) -> dict:
        return {self.column: self.value}


@dataclass(frozen=True)
class Ne(Condition):
    column: str
    value: object

    def matches(self, row: dict) -> bool:
        return row.get(self.column) != self.value


@dataclass(frozen=True)
class Gt(Condition):
    column: str
    value: object

    def matches(self, row: dict) -> bool:
        value = row.get(self.column)
        return value is not None and value > self.value


@dataclass(frozen=True)
class Ge(Condition):
    column: str
    value: object

    def matches(self, row: dict) -> bool:
        value = row.get(self.column)
        return value is not None and value >= self.value


@dataclass(frozen=True)
class Lt(Condition):
    column: str
    value: object

    def matches(self, row: dict) -> bool:
        value = row.get(self.column)
        return value is not None and value < self.value


@dataclass(frozen=True)
class Le(Condition):
    column: str
    value: object

    def matches(self, row: dict) -> bool:
        value = row.get(self.column)
        return value is not None and value <= self.value


@dataclass(frozen=True)
class Like(Condition):
    """Substring match (no wildcards beyond 'contains')."""

    column: str
    needle: str

    def matches(self, row: dict) -> bool:
        value = row.get(self.column)
        return isinstance(value, str) and self.needle in value


class And(Condition):
    def __init__(self, *parts: Condition):
        self.parts = parts

    def matches(self, row: dict) -> bool:
        return all(part.matches(row) for part in self.parts)

    def equality_bindings(self) -> dict:
        bindings: dict = {}
        for part in self.parts:
            bindings.update(part.equality_bindings())
        return bindings


class Or(Condition):
    def __init__(self, *parts: Condition):
        self.parts = parts

    def matches(self, row: dict) -> bool:
        return any(part.matches(row) for part in self.parts)


class Not(Condition):
    def __init__(self, part: Condition):
        self.part = part

    def matches(self, row: dict) -> bool:
        return not self.part.matches(row)


def compile_where(where) -> tuple:
    """Normalize a *where* argument.

    Returns ``(predicate, equality_bindings)``: the columns the statement
    binds by equality (which select its prepared shape and access path, see
    :mod:`repro.storage.database`) and the row predicate to apply to the
    candidates -- ``None`` when the bindings are the whole condition (a
    dict, or no condition at all).
    """

    if where is None:
        return None, {}
    if isinstance(where, dict):
        return None, where
    if isinstance(where, Condition):
        return where.matches, where.equality_bindings()
    if callable(where):
        return where, {}
    raise TypeError(f"unsupported where clause: {where!r}")
