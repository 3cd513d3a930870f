"""The archive server and asynchronous archive jobs.

"A copy of the file is saved to an archive device/server after update to a
file has completed and committed ... Any new update request to the file is
blocked until the archiving completes" (Sections 4.2 and 4.4).  The archive
server is shared by all file servers of a system (an ADSM-style store); each
archived object is immutable and addressed by an integer archive id.

The archive mover is its own simulated node: it runs on the ``archive``
clock domain, and each store/retrieve rendezvouses with the calling file
server's domain (the transfer occupies both ends), so archive bandwidth is
attributed to the archive device rather than smeared over the file servers.
The archiver runs each file server's jobs as one actor of
:func:`repro.simclock.interleave` (:meth:`DataLinksSystem.run_archiver
<repro.api.system.DataLinksSystem.run_archiver>`), so every job starts on
the server whose clock is earliest, and the mover serves jobs in job-start
order and is where they serialise: a server waiting for it idles on its own
domain -- the rendezvous moves its clock forward -- and is charged nothing
for the wait.

The archive keeps only what a restore can still read.  A DLFM keeps, per
linked file, its newest committed version and every superseded version some
retained backup would pick (:mod:`repro.datalinks.backup_coordinator`), and
frees the object of each version it drops (:meth:`ArchiveServer.release`)
once the transaction that dropped the version's row is durable and shipped
to every witness (``WriteAheadLog.shipped_lsn``), so no promoted witness can
still hold a row naming a freed object.  The queue of releases waiting for
that is volatile: a DLFM crash leaks the objects on it, which costs space
and never leaves a dangling reference.  Ids are never reused: a stale
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
              caller_clock: SimClock) -> int:
        """Archive *content*; returns the archive id.

        ``caller_clock`` is the storing node's clock domain: the transfer is
        synchronous, so both domains rendezvous around it.
        """

        rendezvous(self.clock, caller_clock)
        self.clock.charge("archive_job_overhead")
        self.clock.charge("archive_per_byte", nbytes=len(content))
        rendezvous(self.clock, caller_clock)
        obj = ArchiveObject(
            archive_id=self._next_id,
            server=server,
            path=path,
            content=bytes(content),
            created_at=self.clock.now(),
        )
        self._objects[obj.archive_id] = obj
        self._next_id += 1
        return obj.archive_id

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

    def exists(self, archive_id: int) -> bool:
        return archive_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)
