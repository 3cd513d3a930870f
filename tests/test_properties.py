"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalinks.tokens import TokenManager, TokenType
from repro.errors import (
    DuplicateKeyError,
    FileSystemError,
    InvalidTokenError,
    LockConflictError,
)
from repro.fs.physical import PhysicalFileSystem
from repro.fs.vfs import Credentials
from repro.simclock import SimClock
from repro.storage.database import Database
from repro.storage.lock_manager import LockManager, LockMode
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import format_url, parse_url
from tests.conftest import examples

SETTINGS = settings(examples(60),
                    suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# URL round-trips
# ---------------------------------------------------------------------------

_name_alphabet = string.ascii_lowercase + string.digits + "_-."
_names = st.text(alphabet=_name_alphabet, min_size=1, max_size=12).filter(
    lambda s: s not in (".", "..") and not s.startswith("."))
_paths = st.lists(_names, min_size=1, max_size=4).map(lambda parts: "/" + "/".join(parts))
_servers = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=10)


class TestURLProperties:
    @SETTINGS
    @given(server=_servers, path=_paths)
    def test_format_parse_roundtrip(self, server, path):
        url = format_url(server, path)
        parsed = parse_url(url)
        assert parsed.server == server
        assert parsed.path == path
        assert parsed.token is None

    @SETTINGS
    @given(server=_servers, path=_paths,
           token=st.text(alphabet=string.ascii_letters + string.digits + "-.",
                         min_size=1, max_size=30))
    def test_token_roundtrip(self, server, path, token):
        url = parse_url(format_url(server, path)).with_token(token)
        parsed = parse_url(url.render())
        assert parsed.token == token
        assert parsed.path == path


# ---------------------------------------------------------------------------
# Token manager
# ---------------------------------------------------------------------------

class TestTokenProperties:
    @SETTINGS
    @given(path=_paths, ttl=st.floats(min_value=0.1, max_value=1000.0),
           token_type=st.sampled_from(list(TokenType)))
    def test_generated_tokens_always_validate_for_their_path(self, path, ttl, token_type):
        manager = TokenManager("secret", SimClock())
        token = manager.generate(path, token_type, ttl)
        assert manager.validate(token, path).token_type is token_type

    @SETTINGS
    @given(path=_paths, other=_paths)
    def test_tokens_never_validate_for_a_different_path(self, path, other):
        if path == other:
            return
        manager = TokenManager("secret", SimClock())
        token = manager.generate(path, TokenType.READ)
        with pytest.raises(InvalidTokenError):
            manager.validate(token, other)


# ---------------------------------------------------------------------------
# Lock manager invariant: at most one exclusive holder, X excludes S
# ---------------------------------------------------------------------------

class TestLockManagerProperties:
    @SETTINGS
    @given(ops=st.lists(st.tuples(st.integers(1, 4),           # transaction
                                  st.integers(0, 2),           # resource
                                  st.sampled_from(list(LockMode)),
                                  st.booleans()),              # release_all after
                        min_size=1, max_size=40))
    def test_no_conflicting_holders_ever(self, ops):
        locks = LockManager()
        for txn, resource, mode, release in ops:
            try:
                locks.acquire(txn, resource, mode)
            except LockConflictError:
                pass
            except Exception:
                pass
            if release:
                locks.release_all(txn)
            holders = locks.holders_of(resource)
            exclusive = [t for t, m in holders.items() if m is LockMode.EXCLUSIVE]
            assert len(exclusive) <= 1
            if exclusive:
                assert len(holders) == 1


# ---------------------------------------------------------------------------
# Storage engine vs a model dict
# ---------------------------------------------------------------------------

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 20), st.integers(0, 100)),
        st.tuples(st.just("update"), st.integers(0, 20), st.integers(0, 100)),
        st.tuples(st.just("delete"), st.integers(0, 20), st.just(0)),
    ),
    min_size=1, max_size=40,
)


class TestDatabaseMatchesModel:
    def _new_db(self) -> Database:
        db = Database("prop", SimClock())
        db.create_table(TableSchema("kv", [
            Column("key", DataType.INTEGER, nullable=False),
            Column("value", DataType.INTEGER),
        ], primary_key=("key",)))
        return db

    @SETTINGS
    @given(ops=_operations)
    def test_committed_operations_match_model(self, ops):
        db = self._new_db()
        model: dict[int, int] = {}
        for kind, key, value in ops:
            if kind == "insert":
                try:
                    db.insert("kv", {"key": key, "value": value})
                    model[key] = value
                except DuplicateKeyError:
                    assert key in model
            elif kind == "update":
                touched = db.update("kv", {"key": key}, {"value": value})
                assert touched == (1 if key in model else 0)
                if key in model:
                    model[key] = value
            else:
                removed = db.delete("kv", {"key": key})
                assert removed == (1 if key in model else 0)
                model.pop(key, None)
        stored = {row["key"]: row["value"] for row in db.select("kv", lock=False)}
        assert stored == model

    @SETTINGS
    @given(ops=_operations, crash_after=st.integers(0, 39))
    def test_recovery_preserves_exactly_the_committed_prefix(self, ops, crash_after):
        db = self._new_db()
        model: dict[int, int] = {}
        for index, (kind, key, value) in enumerate(ops):
            if index == crash_after:
                break
            if kind == "insert":
                try:
                    db.insert("kv", {"key": key, "value": value})
                    model[key] = value
                except DuplicateKeyError:
                    pass
            elif kind == "update":
                if db.update("kv", {"key": key}, {"value": value}) and key in model:
                    model[key] = value
            else:
                db.delete("kv", {"key": key})
                model.pop(key, None)
        # one uncommitted transaction in flight at the crash
        txn = db.begin()
        db.insert("kv", {"key": 999, "value": 1}, txn)
        db.wal.flush()
        db.crash()
        db.recover()
        stored = {row["key"]: row["value"] for row in db.select("kv", lock=False)}
        assert stored == model

    @SETTINGS
    @given(ops=_operations)
    def test_abort_leaves_no_trace(self, ops):
        db = self._new_db()
        db.insert("kv", {"key": 1, "value": 10})
        before = {row["key"]: row["value"] for row in db.select("kv", lock=False)}
        txn = db.begin()
        for kind, key, value in ops:
            try:
                if kind == "insert":
                    db.insert("kv", {"key": key, "value": value}, txn)
                elif kind == "update":
                    db.update("kv", {"key": key}, {"value": value}, txn)
                else:
                    db.delete("kv", {"key": key}, txn)
            except DuplicateKeyError:
                continue
        db.abort(txn)
        after = {row["key"]: row["value"] for row in db.select("kv", lock=False)}
        assert after == before


# ---------------------------------------------------------------------------
# File system: random writes behave like a bytearray
# ---------------------------------------------------------------------------

class TestFileSystemProperties:
    @SETTINGS
    @given(writes=st.lists(
        st.tuples(st.integers(0, 3000), st.binary(min_size=1, max_size=500)),
        min_size=1, max_size=12))
    def test_writes_match_bytearray_model(self, writes):
        pfs = PhysicalFileSystem("prop", clock=SimClock())
        root = Credentials(uid=0)
        vnode = pfs.fs_create(pfs.root_vnode(), "f.bin", 0o644, root)
        model = bytearray()
        for offset, data in writes:
            pfs.fs_readwrite(vnode, offset, data=data, write=True, cred=root)
            if len(model) < offset:
                model.extend(bytes(offset - len(model)))
            end = offset + len(data)
            if len(model) < end:
                model.extend(bytes(end - len(model)))
            model[offset:end] = data
        stored = pfs.fs_readwrite(vnode, 0, write=False, cred=root)
        assert stored == bytes(model)
        assert pfs.fs_getattr(vnode, root).size == len(model)

    @SETTINGS
    @given(names=st.lists(_names, min_size=1, max_size=8, unique=True))
    def test_each_created_name_looks_up_to_its_own_file(self, names):
        pfs = PhysicalFileSystem("prop", clock=SimClock())
        root = Credentials(uid=0)
        created = [pfs.fs_create(pfs.root_vnode(), name, 0o644, root)
                   for name in names]
        assert [pfs.fs_lookup(pfs.root_vnode(), name, root)
                for name in names] == created
        assert len(set(created)) == len(names)
        with pytest.raises(FileSystemError):
            pfs.fs_create(pfs.root_vnode(), names[0], 0o644, root)


# ---------------------------------------------------------------------------
# Replication router: round-robin read fairness
# ---------------------------------------------------------------------------

class TestRoundRobinFairness:
    """The follower-read round-robin must stay fair and bounded.

    The position counter wraps at the candidate count and resets whenever
    the candidate set changes (e.g. a witness crash shrinking it), so no
    node is skipped or double-served because of a phase inherited from an
    older membership.
    """

    _pool = ["n0", "n1", "n2", "n3"]

    def _router(self):
        from repro.datalinks.routing import ReplicationRouter, ShardRouter

        return ReplicationRouter(ShardRouter(["shard0"]))

    @SETTINGS
    @given(phases=st.lists(
        st.tuples(
            st.lists(st.sampled_from(["n0", "n1", "n2", "n3"]),
                     min_size=1, max_size=4, unique=True),
            st.integers(min_value=1, max_value=12),
        ),
        min_size=1, max_size=6))
    def test_reads_within_a_stable_membership_are_fair(self, phases):
        from types import SimpleNamespace

        router = self._router()
        membership: list = []
        router.read_candidates = lambda shard, path=None: list(membership)
        router.serving_node = lambda shard: membership[0].name

        previous_names: tuple = ()
        for names, reads in phases:
            membership = [SimpleNamespace(name=name) for name in names]
            counts: dict[str, int] = {}
            first_pick = None
            for _ in range(reads):
                chosen = router.route_read("shard0")
                if first_pick is None:
                    first_pick = chosen.name
                counts[chosen.name] = counts.get(chosen.name, 0) + 1
                # The stored position always stays wrapped in range.
                assert 0 <= router._round_robin["shard0"] < len(names)
            # Fairness: under stable membership the spread between the
            # most- and least-served candidate is at most one read.
            served = [counts.get(name, 0) for name in names]
            assert max(served) - min(served) <= 1
            # A membership change restarts the rotation at the first
            # candidate instead of inheriting the old phase.
            if tuple(names) != previous_names:
                assert first_pick == names[0]
            previous_names = tuple(names)
