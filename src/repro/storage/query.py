"""The *where* argument of the query interface.

The database exposes a programmatic query API (``select``/``update``/``delete``
take a *where* argument) rather than a SQL text parser.  A *where* is one of
three shapes:

* ``None`` -- match every row;
* a ``dict`` -- column-equality conjunction (the common case), whose columns
  select the statement's prepared shape and access path;
* a callable ``row -> bool`` -- a predicate over the full scan.

Anything else is refused with :class:`TypeError`.
"""

from __future__ import annotations


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
    if callable(where):
        return where, {}
    raise TypeError(f"unsupported where clause: {where!r}")
