"""Node-local soft state: the token registry and the Sync table.

Every tokenized open validates its token at lookup, which registers a token
entry (Section 4.1), and records an open in the Sync table (Section 4.5),
which the close removes again.  Neither has to outlive the node: a crash
ends every open, recovery rolls back every update that was in progress, and
a lost token entry costs the next lookup one validation.  So each DLFM keeps
both in one volatile store beside its repository, on every node in every
role -- serving node, witness or a plain file server.  Nothing here is
logged, locked or forced, nothing enters the repository's WAL and nothing
ships to a witness; :meth:`SoftState.clear` empties the store when the node
crashes, recovers or restores a backup.

Each operation is charged on the DLFM's clock at the repository's cost scale
and under its ``dlfm.`` labels, as the repository charges an equality-keyed
statement, without the transaction around it: one ``sql_statement_base``,
an ``index_probe`` per keyed probe, a ``row_read`` per row a lookup
examines and a ``row_write`` per row written (a keyed write, like the
repository's UPDATE and DELETE, reads no row to find the one it writes).

The registry holds one entry per ``(path, userid, token_type)``, keyed by
user id rather than process id as Section 4.1 argues.  Validating a token
the registry already holds for that triple moves the entry's expiry to the
later of the two (the *token upsert*), so the registry is bounded by the
live triples and an open examines at most one entry per token type.

An open is admitted by one statement, :meth:`SoftState.admit`: it checks
the user's token entry, for a write open the path's conflicting opens, and
inserts the open's Sync entry.  A read open's update check stays its own
statement (a witness reads the replicated tracking row for it instead),
and a read close removes its entry on the path its open was admitted on.
"""

from __future__ import annotations

from repro.errors import AccessDeniedError, UpdateInProgressError


class SoftState:
    """One DLFM's token registry and Sync table."""

    def __init__(self, clock, cost_scale: float):
        self.clock = clock
        self._stmt, self._probe, self._read, self._write = (
            clock.meter(primitive, cost_scale, "dlfm." + primitive)
            for primitive in ("sql_statement_base", "index_probe",
                              "row_read", "row_write"))
        #: ``(path, userid, token_type) -> expires_at``.
        self.tokens: dict[tuple, float] = {}
        #: ``path -> [(access, userid), ...]`` in open order.
        self.sync: dict[str, list[tuple]] = {}

    def _charge(self, probes: int = 1, reads: int = 0, writes: int = 0) -> None:
        """One statement: its base, *probes* keyed probes, *reads* rows
        examined and *writes* rows written."""

        (stmt, stmt_meter), (probe, probe_meter) = self._stmt, self._probe
        (read, read_meter), (write, write_meter) = self._read, self._write
        self.clock.ticks += stmt + probe * probes + read * reads \
            + write * writes
        stmt_meter[0] += 1
        probe_meter[0] += probes
        read_meter[0] += reads
        write_meter[0] += writes

    # ----------------------------------------------------------------- tokens --
    def add_token_entry(self, path: str, userid: int, token_type: str,
                        expires_at: float) -> None:
        """Register a validated token: one keyed write that inserts the
        triple's entry or moves its expiry to the later of the two."""

        key = (path, userid, token_type)
        held = self.tokens.get(key)
        if held is None or held < expires_at:
            self.tokens[key] = expires_at
        self._charge(writes=1)

    def purge_expired_tokens(self, now: float) -> int:
        """Drop every entry whose expiry has passed (a scan)."""

        expired = [key for key, expires_at in self.tokens.items()
                   if expires_at < now]
        self._charge(0, len(self.tokens), len(expired))
        for key in expired:
            del self.tokens[key]
        return len(expired)

    # ------------------------------------------------------------ sync entries --
    def sync_entries(self, path: str) -> list[tuple]:
        """The ``(access, userid)`` opens of *path*, in open order."""

        entries = self.sync.get(path, ())
        self._charge(reads=len(entries))
        return list(entries)

    def admit(self, path: str, access: str, userid: int, token_types: str,
              now: float, *, exclusive: bool = False,
              refusal: Exception | None = None) -> None:
        """The admission statement: admit an open of *path* and insert its
        ``(access, userid)`` Sync entry, or raise why not.

        Refusals come in this order: no live token entry of one of
        *token_types* (tried in order; an empty string needs none); for a
        write open, the path's write entry, then its read entries when the
        write is *exclusive* of readers; last, *refusal*, what the caller's
        own check found (a read's update check, a write's pending archive
        job).  One keyed statement: a probe per token type tried and one
        for the path, a row read per entry examined and the inserted row.
        """

        probes = reads = 0
        if token_types:
            for token_type in token_types:
                probes += 1
                expires_at = self.tokens.get((path, userid, token_type))
                if expires_at is not None:
                    reads += 1
                    if expires_at >= now:
                        break
            else:
                self._charge(probes, reads)
                raise AccessDeniedError(f"no valid {access} token registered "
                                        f"for user {userid} on {path!r}")
        probes += 1
        if access == "write":
            entries = self.sync.get(path, ())
            reads += len(entries)
            writers = [user for kind, user in entries if kind == "write"]
            if writers:
                refusal = UpdateInProgressError(
                    f"{path!r} is already being updated by user {writers[0]}")
            elif entries and exclusive:
                refusal = UpdateInProgressError(
                    f"{path!r} is open for read by {len(entries)} "
                    f"application(s); write access is serialized at open time")
        if refusal is not None:
            self._charge(probes, reads)
            raise refusal
        self.sync.setdefault(path, []).append((access, userid))
        self._charge(probes, reads, 1)

    def remove_sync_entry(self, path: str, access: str, userid: int) -> int:
        """Remove the first matching open of *path* (opens and closes pair
        up); returns how many were removed."""

        entries = self.sync.get(path, [])
        try:
            entries.remove((access, userid))
        except ValueError:
            self._charge()
            return 0
        if not entries:
            del self.sync[path]
        self._charge(writes=1)
        return 1

    def clear_sync_entries(self, path: str) -> int:
        """Remove every open of *path*; returns how many."""

        removed = len(self.sync.pop(path, ()))
        self._charge(writes=removed)
        return removed

    def clear(self) -> None:
        """Lose everything: the node crashed, recovered or restored."""

        self.tokens.clear()
        self.sync.clear()
