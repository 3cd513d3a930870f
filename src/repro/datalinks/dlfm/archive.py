"""The archive server and asynchronous archive jobs.

"A copy of the file is saved to an archive device/server after update to a
file has completed and committed ... Any new update request to the file is
blocked until the archiving completes" (Sections 4.2 and 4.4).  The archive
server is shared by all file servers of a system (an ADSM-style store); each
archived object is immutable and addressed by an integer archive id.

The archive mover is its own simulated node on the ``archive`` clock
domain, so archive bandwidth is attributed to the archive device, not to the
file servers.  A store is a send: the mover starts the transfer no earlier
than the sender sent it and charges it on its own domain, and the sender
waits for it only before it commits the version row naming the object.  So
no row names an object not yet stored, and a file server reads its next
job's file while the mover stores the last one.  The archiver runs each
server's jobs as one actor of :func:`repro.simclock.interleave`
(:meth:`DataLinksSystem.run_archiver
<repro.api.system.DataLinksSystem.run_archiver>`); the mover serialises
transfers in the order they are sent.  A retrieve is synchronous: both
domains rendezvous around it.

The archive keeps only what a restore can still read.  A DLFM keeps, per
linked file, its newest committed version and every superseded version some
retained backup would pick (:mod:`repro.datalinks.backup_coordinator`), and
frees the object of each version it drops (:meth:`ArchiveServer.release`)
once the transaction that dropped the version's row is durable and shipped
to every witness (``WriteAheadLog.shipped_lsn``), so no promoted witness can
still hold a row naming a freed object.  The queue of releases waiting for
that is volatile, so a restarting DLFM re-derives it: it queues every
object stored under its name that none of its version rows names
(:meth:`ArchiveServer.stored_by`), which also frees the object of a job
that crashed before its version committed.  Where another node's rows may
name those objects (a witness, an epoched deployment, retained backups) it
queues nothing, and what a crash lost stays held: that costs space and
never leaves a dangling reference.  Ids are never reused: a stale
reference finds no object rather than someone else's bytes.  Release is a
metadata operation -- an ADSM-style store marks the object deleted and
reclaims its space offline -- so it charges nothing and there is no cost
primitive for it; the bandwidth model covers store and retrieve only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simclock import SimClock, rendezvous


@dataclass
class ArchiveObject:
    """One immutable archived file version."""

    archive_id: int
    server: str
    path: str
    content: bytes
    created_at: float


@dataclass
class ArchiveServer:
    """Stores archived file versions and accounts for archive bandwidth."""

    clock: SimClock
    _objects: dict[int, ArchiveObject] = field(default_factory=dict)
    _next_id: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.clock, SimClock):
            raise TypeError(f"ArchiveServer needs a SimClock, got {self.clock!r}")

    def store(self, server: str, path: str, content: bytes,
              caller_clock: SimClock) -> tuple[int, int]:
        """Send *content* to the mover; returns the archive id and the tick
        the transfer completes at, which the sender (``caller_clock``)
        waits for before anything names the id."""

        self.clock.sync_ticks(caller_clock.send_ticks())
        self.clock.charge("archive_job_overhead")
        self.clock.charge("archive_per_byte", nbytes=len(content))
        obj = ArchiveObject(
            archive_id=self._next_id,
            server=server,
            path=path,
            content=bytes(content),
            created_at=self.clock.now(),
        )
        self._objects[obj.archive_id] = obj
        self._next_id += 1
        return obj.archive_id, self.clock.ticks

    def retrieve(self, archive_id: int, caller_clock: SimClock) -> bytes:
        """Fetch the archived content for *archive_id*."""

        obj = self._objects[archive_id]
        rendezvous(self.clock, caller_clock)
        self.clock.charge("archive_per_byte", nbytes=len(obj.content))
        rendezvous(self.clock, caller_clock)
        return obj.content

    def release(self, archive_id: int) -> None:
        """Free the object *archive_id* (module docstring: uncharged, and
        the id is never handed out again)."""

        del self._objects[archive_id]

    def stored_by(self, server: str) -> list[int]:
        """The ids of the objects *server* stored and nobody has released:
        a metadata query, uncharged like :meth:`release`."""

        return [archive_id for archive_id, obj in self._objects.items()
                if obj.server == server]

    def exists(self, archive_id: int) -> bool:
        return archive_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)
