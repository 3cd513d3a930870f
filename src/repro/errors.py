"""Exception hierarchy shared by every subsystem of the reproduction.

The original DataLinks prototype spans three failure domains -- the host
DBMS, the DataLinks File Manager (DLFM) and the file system (DLFS + native
file system).  Each domain gets its own branch of the hierarchy so callers
can catch precisely the class of failure they can handle.
"""

from __future__ import annotations

import enum


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Storage / mini-RDBMS errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for errors raised by the relational storage engine."""


class NoSuchTableError(StorageError):
    """A statement referenced a table that is not in the catalog."""


class TableExistsError(StorageError):
    """``CREATE TABLE`` was issued for a table that already exists."""


class NoSuchColumnError(StorageError):
    """A statement referenced a column that the table does not define."""


class SchemaError(StorageError):
    """A table schema is malformed (duplicate column, bad type, ...)."""


class TypeMismatchError(StorageError):
    """A value does not match the declared column type."""


class NullViolationError(StorageError):
    """A NOT NULL column received a null value."""


class DuplicateKeyError(StorageError):
    """A unique constraint (primary key or unique index) was violated."""


class NoSuchRowError(StorageError):
    """A row id does not name a live row."""


class TransactionError(StorageError):
    """Base class for transaction-state errors."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back (explicitly or by the system)."""


class TransactionNotActive(TransactionError):
    """An operation was attempted on a finished or unknown transaction."""


class LockError(StorageError):
    """Base class for lock-manager failures."""


class LockConflictError(LockError):
    """A lock could not be granted: the lock manager never waits (no-wait
    strict 2PL), so a conflict raises at once.

    ``holders`` lists the transaction ids currently holding the resource in
    a conflicting mode so that simulated schedulers can decide what to do.
    """

    def __init__(self, resource: object, mode: object, holders: tuple = ()):
        super().__init__(f"lock conflict on {resource!r} for mode {mode}")
        self.resource = resource
        self.mode = mode
        self.holders = tuple(holders)


class RecoveryError(StorageError):
    """Crash recovery could not be completed."""


class BackupError(StorageError):
    """Backup or restore of the database failed."""


class PreparedStateError(TransactionError):
    """An operation conflicts with the two-phase-commit state of a branch."""


class LogFoldedError(StorageError):
    """The log records asked for were folded into the checkpoint base."""


# ---------------------------------------------------------------------------
# File system errors (errno-styled)
# ---------------------------------------------------------------------------


class Errno(enum.Enum):
    """POSIX-flavoured error codes used by the simulated file system."""

    ENOENT = "ENOENT"        # no such file or directory
    EEXIST = "EEXIST"        # file exists
    EACCES = "EACCES"        # permission denied
    EROFS = "EROFS"          # read-only file (system)
    EISDIR = "EISDIR"        # is a directory
    ENOTDIR = "ENOTDIR"      # not a directory
    EBADF = "EBADF"          # bad file descriptor
    EBUSY = "EBUSY"          # resource busy (e.g. linked file)
    EINVAL = "EINVAL"        # invalid argument
    ENOSPC = "ENOSPC"        # no space left on device
    EPERM = "EPERM"          # operation not permitted
    EAGAIN = "EAGAIN"        # resource temporarily unavailable (locks)
    EXDEV = "EXDEV"          # cross-device link


class FileSystemError(ReproError):
    """Base class for simulated file-system errors, carrying an errno."""

    def __init__(self, errno: Errno, message: str = ""):
        # ``_value_`` is the plain attribute behind the ``value`` property;
        # reading it skips the enum descriptor (hot: raised per failed open).
        code = errno._value_
        detail = f"[{code}] {message}" if message else f"[{code}]"
        super().__init__(detail)
        self.errno = errno


def fs_error(errno: Errno, message: str = "") -> FileSystemError:
    """Build a :class:`FileSystemError` for *errno* with an optional message."""

    return FileSystemError(errno, message)


# ---------------------------------------------------------------------------
# IPC / daemon errors
# ---------------------------------------------------------------------------


class IPCError(ReproError):
    """Base class for simulated inter-process-communication failures."""


class DaemonUnavailableError(IPCError):
    """The target daemon is not running (simulated crash or shutdown)."""


class ProtocolError(IPCError):
    """A daemon received a request it does not understand."""


# ---------------------------------------------------------------------------
# DataLinks errors
# ---------------------------------------------------------------------------


class DataLinksError(ReproError):
    """Base class for DataLinks-specific failures."""


class MalformedURLError(DataLinksError, ValueError):
    """Text handed in as a DATALINK URL is not ``scheme://server/path``.

    Also a :class:`ValueError`: the column-value check
    (:mod:`repro.storage.values`) catches it as one to report a
    ``TypeMismatchError`` on the write side.
    """


class InvalidTokenError(DataLinksError):
    """An access token failed validation (bad signature or wrong type)."""


class TokenExpiredError(InvalidTokenError):
    """An access token was syntactically valid but past its expiry time."""


class FileNotLinkedError(DataLinksError):
    """An operation required the file to be linked but it is not."""


class FileAlreadyLinkedError(DataLinksError):
    """A link operation targeted a file that is already linked."""


class LinkConflictError(DataLinksError):
    """Link/unlink conflicts with a concurrent open (Sync table entry)."""


class UpdateInProgressError(DataLinksError):
    """The file has an uncommitted or un-archived update pending."""


class AccessDeniedError(DataLinksError):
    """The DBMS refused the requested access to a linked file."""


class ControlModeError(DataLinksError):
    """The requested operation is not allowed under the file's control mode."""


class ReferentialIntegrityError(DataLinksError):
    """An operation would leave a dangling DATALINK reference."""


class ReplicationError(DataLinksError):
    """Shard replication failed (shipping, apply, promotion or resync)."""


class PlacementError(DataLinksError):
    """A placement operation was invalid or cannot run right now.

    Raised by ``rebalance_prefix`` for unknown prefixes, destinations that
    cannot take the hand-off (unknown shard, no witness replica) and
    retryable conditions (in-flight opens or updates under the prefix, a
    concurrent move of the same prefix)."""


class PlacementEpochError(PlacementError):
    """A request carried (or implied) a stale placement epoch.

    The cure is a redirect-and-retry: refresh the placement map and re-send
    to the prefix's current owner.  ``owner`` names that owner when the
    refusing node knows it, ``prefix`` the affected URL prefix, ``epoch``
    the current map epoch and ``observed`` the stale epoch the request
    carried (``None`` when the request was rejected by a per-prefix fence
    rather than an envelope epoch check).
    """

    def __init__(self, message: str, *, prefix: str | None = None,
                 owner: str | None = None, epoch: int = 0,
                 observed: int | None = None):
        super().__init__(message)
        self.prefix = prefix
        self.owner = owner
        self.epoch = epoch
        self.observed = observed


class LeaseMovedError(ReplicationError):
    """The serving lease (or prefix placement) moved mid-file-update.

    The in-flight update was rolled back to the last committed version;
    the caller should re-fetch a write token and retry against the node
    now serving the file -- a retryable error, not data loss.
    """


class FencedNodeError(DataLinksError):
    """A node whose epoch lease was revoked tried to serve traffic.

    Raised by a DLFM that was fenced during a failover: a recovered
    ex-primary must refuse token validation and open processing so that no
    stale token is ever accepted by a node that no longer owns the shard.
    """


class CheckoutConflictError(DataLinksError):
    """A CICO check-out conflicts with an existing check-out."""


class MergeConflictError(DataLinksError):
    """A CAU check-in could not be merged with intervening changes."""
