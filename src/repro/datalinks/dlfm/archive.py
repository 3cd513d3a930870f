"""The archive server and asynchronous archive jobs.

"A copy of the file is saved to an archive device/server after update to a
file has completed and committed ... Any new update request to the file is
blocked until the archiving completes" (Sections 4.2 and 4.4).  The archive
server is shared by all file servers of a system (an ADSM-style store); each
archived object is immutable and addressed by an integer archive id.

The archive mover is its own simulated node on the ``archive`` clock
domain, so archive bandwidth is attributed to the archive device, not to the
file servers.  A store is a send: the mover starts the transfer no earlier
than the sender sent it and charges it on its own domain; the sender
writes the version row naming the object during the transfer and waits
for it only to commit that row.  So no committed row names an object not
yet stored, and a file server reads its next job's file while the mover
stores the last one.  The archiver runs each
server's jobs as one actor of :func:`repro.simclock.interleave`
(:meth:`DataLinksSystem.run_archiver
<repro.api.system.DataLinksSystem.run_archiver>`); the mover serialises
transfers in the order they are sent.  A retrieve is synchronous: both
domains rendezvous around it.

The archive keeps what a rollback or a restore can still read: an object
is freed once no version row, retained backup image or transfer in flight
of any DLFM names it (reachability, as a tracing collector frees what no
root reaches); each DLFM registers in :attr:`ArchiveServer.namers`.  A
store marks its path *unsettled* for the storing server, and a serving
node drops a version row only in the job that stores the path's next
object (:meth:`~repro.datalinks.dlfm.repository.DLFMRepository.
add_version`), so the mark exists before the drop and no crash loses it.
Each archiver run ends, after its closing log force, with
:meth:`ArchiveServer.sweep`: it frees every object of the server's
unsettled paths that nothing names, and settles a path once a serving
node's rows or a backup name each object left.  A witness drops a row
only when it applies its primary's drop, so an object only a witness
still names keeps the path for a later sweep: the shipped-LSN horizon is
the rule's, not a check beside it.  While a DLFM is down or holds commits
a crash could undo, a sweep frees nothing.  Ids are never reused: a stale
reference finds no object rather than someone else's bytes.  Freeing is a
metadata operation -- an ADSM-style store marks the object deleted and
reclaims its space offline -- and the names are read without a charge, so
there is no cost primitive for it; the bandwidth model covers store and
retrieve only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simclock import SimClock, rendezvous


@dataclass
class ArchiveObject:
    """One immutable archived file version."""

    archive_id: int
    content: bytes


@dataclass
class ArchiveServer:
    """Stores archived file versions and accounts for archive bandwidth."""

    clock: SimClock
    #: The DLFMs whose names keep objects held (module docstring).
    namers: list = field(default_factory=list)
    _objects: dict[int, ArchiveObject] = field(default_factory=dict)
    #: ``path -> ids`` of the held objects archived from *path*.
    _by_path: dict[str, list[int]] = field(default_factory=dict)
    #: ``server -> paths`` it stored and no sweep of its has settled.
    _unsettled: dict[str, set[str]] = field(default_factory=dict)
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
        archive_id = self._next_id
        self._next_id += 1
        self._objects[archive_id] = ArchiveObject(archive_id, bytes(content))
        self._by_path.setdefault(path, []).append(archive_id)
        self._unsettled.setdefault(server, set()).add(path)
        return archive_id, self.clock.ticks

    def retrieve(self, archive_id: int, caller_clock: SimClock) -> bytes:
        """Fetch the archived content for *archive_id*."""

        obj = self._objects[archive_id]
        rendezvous(self.clock, caller_clock)
        self.clock.charge("archive_per_byte", nbytes=len(obj.content))
        rendezvous(self.clock, caller_clock)
        return obj.content

    def sweep(self, sweeper) -> None:
        """Free what nothing names on the paths *sweeper* left unsettled,
        and settle those a serving node or a backup covers (module
        docstring).  Uncharged."""

        paths = self._unsettled.get(sweeper.server_name)
        if not paths:
            return
        serving, witnesses = [sweeper], []
        for namer in self.namers:
            if not namer.running or namer.repository.db.wal.pending_commits:
                return
            if namer.replica is not None:
                witnesses.append(namer)
            elif namer is not sweeper:
                serving.append(namer)
        # A fresh set: one emptied by discards keeps its table, and
        # iterating it costs what it once held.
        kept = self._unsettled[sweeper.server_name] = set()
        for path in paths:
            held = self._by_path[path]
            loose = _unnamed(path, held, serving)
            unnamed = _unnamed(path, loose, witnesses)
            for archive_id in unnamed:
                del self._objects[archive_id]
                held.remove(archive_id)
            if len(unnamed) != len(loose):
                kept.add(path)

    def exists(self, archive_id: int) -> bool:
        return archive_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)


def _unnamed(path: str, ids: list[int], namers: list) -> list[int]:
    """Those of *ids* (of *path*) that none of *namers* names."""

    for namer in namers:
        if not ids:
            break
        names = namer.archive_names(path)
        ids = [archive_id for archive_id in ids if archive_id not in names]
    return ids
