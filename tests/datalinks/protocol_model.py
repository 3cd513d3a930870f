"""A reference model of Section 4 of the paper, for exhaustive checking.

The model knows nothing of the implementation: :func:`step` maps a
:class:`State` and a :class:`Step` to what the client sees and the next
state, as the paper's guarantees say it must.

* Two-phase commit with the host as coordinator (Section 4): a transaction
  commits if and only if the host's COMMIT is durable, which happens after
  every vote is in and before any participant commits.  A file server that
  crashes before it voted makes the host abort.
* E6 (Section 4.2): "either all changes to a file between open and close
  calls are made persistent, or none of them."  A close's vote rides its
  request, so a crash of its file server does not stop the host, and the
  host's refusal (a lock on the row it must update) rolls the update back.
* A file linked with recovery owes an archive job for its link and for
  every close that changed it, and a write open waits while one is owed
  (Section 4.4).  The archiver turns each job into the next version, once
  even if it crashes (with no backup taken the chain keeps the newest); a
  crash before the version commits leaves the job owed.
* One writer at a time (Section 4.2).  rdd refuses a reader while a writer
  holds the file, rfd takes the file over so the file system refuses a new
  reader, and rdb refuses write tokens.  An unlink waits for every open, a
  rolled-back link or unlink changes nothing, and the file system refuses
  to remove a linked file.
* A host transaction may hold several statements, and what it owes is
  their net effect: a relink (unlink ``f``, then link it again) leaves
  ``f`` linked, and a link then unlink of ``f`` leaves it unlinked; each
  link owes its archive job all the same.

Two files exist, unlinked, before the first step: ``f`` on fs1 (row 0) and
``g`` on fs2 (row 1).  Only the host and fs1 crash.  The users are
``alice``, who created both files, and ``bob``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.datalinks.control_modes import ControlMode

#: The nodes a crash takes down, by victim name.
VICTIMS = {"host": ("host",), "fs1": ("fs1",), "both": ("host", "fs1")}
#: The failpoints of a commit in protocol order; ``{}`` is a server.
POINTS = ("commit:begin", "commit:prepared:{}", "commit:before_host_commit",
          "commit:after_host_commit", "commit:committed:{}")
#: The servers of each step's commit (an unlink's: of the files it unlinks).
COMMITS = {"link": ("fs1",), "link2": ("fs1", "fs2"),
           "unlink": ("fs1", "fs2"), "close": ("fs1",), "relink": ("fs1",),
           "link_unlink": ("fs1",)}
#: The bytes each file holds when it is created.
INITIAL = {"f": b"f00", "g": b"g00"}
#: The crash points of an archiver run: fs1 crashes while the run's first
#: version is staged (its object sent, its row not committed), or once
#: that version is durable.
STAGED, VERSION = "a version is staged", "a version is durable"


class Step(NamedTuple):
    """One client step, and the crash of *victims* inside its commit at
    *point* (kind ``"crash"``: right after the previous step)."""

    kind: str
    user: str = "alice"
    point: str | None = None
    victims: str = ""


@dataclass(frozen=True)
class File:
    linked: bool = False
    content: bytes = b""        # the last committed bytes
    versions: int = 0           # the newest version's number, 0 for none
    archived: bytes | None = None
    owed: int = 0               # archive jobs queued


@dataclass(frozen=True)
class Update:
    user: str
    written: bytes | None = None


@dataclass(frozen=True)
class State:
    mode: ControlMode
    f: File = File(content=INITIAL["f"])
    g: File = File(content=INITIAL["g"])
    update: Update | None = None
    writes: int = 0


def refused(error: str, errno: str | None = None) -> tuple:
    return ("refused", error, errno)


OK, NO_ROW, CRASHED = ("ok",), ("no row",), ("crashed",)


def written(count: int) -> bytes:
    """The bytes of a run's *count*-th write: longer each time, so each
    write changes the size the host's metadata column holds."""

    return b"w" * (3 + count)


def commits(kind: str, point: str, victims: str) -> bool:
    """Whether a *kind* commit that crashes *victims* at *point* commits."""

    if "host" in VICTIMS[victims]:
        return point.startswith(("commit:after_host_commit",
                                 "commit:committed"))
    # fs1 alone: a close's vote came with its request; any other is asked
    # for after the begin point, and a down server cannot give it.
    return kind == "close" or point != "commit:begin"


def crash_points(kind: str) -> list[tuple[str, str]]:
    """Every ``(point, victims)`` of a crash inside a *kind* commit."""

    servers = COMMITS[kind]
    points = [point.format(server) for point in POINTS
              for server in (servers if "{}" in point else servers[:1])]
    return [(point, victims) for point in points for victims in VICTIMS]


def _archived(file: File) -> File:
    return replace(file, versions=file.versions + file.owed,
                   archived=file.content, owed=0) if file.owed else file


def step(state: State, move: Step) -> tuple[tuple, State]:
    """``(what the client sees, the next state)`` of *move* in *state*."""

    kind, f, g, update = move.kind, state.f, state.g, state.update
    after = state
    if kind == "archive" and move.point == STAGED:  # before f's 1st version
        return CRASHED, replace(state, update=None)
    if kind == "archive" and move.point:    # fs1 crashes at f's 1st version
        return CRASHED, replace(state, update=None, f=replace(
            f, versions=f.versions + 1, archived=f.content, owed=f.owed - 1))
    if kind == "archive":
        return ("archived", f.owed + g.owed), replace(
            state, f=_archived(f), g=_archived(g))
    if kind in ("link", "link2", "link_unlink"):
        if f.linked or kind == "link2" and g.linked:
            return refused("DuplicateKeyError"), state
        after = replace(state, f=replace(f, linked=kind != "link_unlink",
                                         owed=f.owed + 1))
        if kind == "link2":
            after = replace(after, g=replace(g, linked=True, owed=g.owed + 1))
    elif kind == "relink":              # unlink f, then link it again
        if update is not None:
            return refused("LinkConflictError"), state
        after = replace(state, f=replace(f, linked=True, owed=f.owed + 1))
    elif kind in ("unlink", "rollback"):
        if update is not None and (f.linked or kind == "unlink"):
            return refused("LinkConflictError"), state
        if kind == "unlink":
            after = replace(state, f=replace(f, linked=False),
                            g=replace(g, linked=False))
    elif kind == "remove":
        assert f.linked, "the model keeps every file: remove a linked one"
        return refused("FileSystemError", "EBUSY"), state
    elif kind == "read":
        if not f.linked:
            return NO_ROW, state
        if update is not None:
            return refused("FileSystemError", "EACCES" if state.mode is
                           ControlMode.RFD else "EBUSY"), state
        return ("bytes", f.content), state
    elif kind == "open":
        if not f.linked:
            return NO_ROW, state
        if not state.mode.supports_update:
            return refused("ControlModeError"), state
        if update is not None or f.owed:
            return refused("FileSystemError", "EBUSY"), state
        after = replace(state, update=Update(move.user))
    elif kind == "write":
        count = state.writes + 1
        after = replace(state, writes=count,
                        update=replace(update, written=written(count)))
    elif kind in ("close", "abort", "refused_close"):
        after = replace(state, update=None)
        if kind == "refused_close":     # the host refuses what was voted
            return refused("LockConflictError"), after
        if kind == "close" and update.written is not None:
            after = replace(after, f=replace(f, content=update.written,
                                             owed=f.owed + 1))
    nodes = VICTIMS.get(move.victims, ())
    if "fs1" in nodes:                  # an update open there rolls back
        after = replace(after, update=None)
    if move.point is None:
        return OK, after
    if not commits(kind, move.point, move.victims):
        after = replace(state, update=None) if kind == "close" else state
    if "host" in nodes:
        return CRASHED, after
    return (OK if move.point.startswith("commit:committed") else
            refused("DaemonUnavailableError")), after
