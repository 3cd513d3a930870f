"""The DataLinks File System layer.

DLFS sits between the logical file system and the native file system as a
stackable VFS filter.  It intercepts ``fs_lookup``, ``fs_open``, ``fs_close``,
``fs_remove`` and ``fs_rename`` (Section 2.3); read and write calls are *not*
intercepted, which is the key performance property of the DataLinks design
("it is only involved in open and close of the file and does not interfere in
read/write accesses").

The interception logic implements Section 4 of the paper:

* ``fs_lookup`` strips the embedded access token and asks the upcall daemon
  to validate it, which registers a token entry keyed by user id at the DLFM;
* ``fs_open`` of a file owned by the DBMS user (full control, or taken over
  during an rfd update) asks the DLFM to check the token entry and Sync
  table; approved opens are performed with the DBMS credentials;
* a *failed* write open of a file not owned by the DBMS triggers the rfd
  fallback: the DLFM verifies the mode and write token, takes the file over,
  and DLFS retries the open (Section 4.2);
* ``fs_close`` notifies the DLFM so it can update metadata, trigger archiving
  and release the take-over;
* ``fs_remove``/``fs_rename`` of a linked file are rejected so the database
  never holds a dangling reference.
"""

from __future__ import annotations

from repro.errors import (
    AccessDeniedError,
    ControlModeError,
    DaemonUnavailableError,
    DataLinksError,
    Errno,
    FencedNodeError,
    FileSystemError,
    InvalidTokenError,
    LinkConflictError,
    PlacementEpochError,
    UpdateInProgressError,
    fs_error,
)
from repro.fs.vfs import (
    WRITE_MASK,
    Credentials,
    FilterVFS,
    LockKind,
    LockRequest,
    OpenFlags,
    OpenHandle,
    Vnode,
)
from repro.simclock import SimClock
from repro.util.urls import TOKEN_SEPARATOR, split_token_from_name

_TOKEN_SEPARATOR = TOKEN_SEPARATOR
_TOKEN_SEPARATOR_LEN = len(TOKEN_SEPARATOR)

LAYER_KEY = "dlfs"


def _translate(error: DataLinksError) -> FileSystemError:
    """Map a DataLinks refusal onto the errno an application would see.

    Fencing and placement refusals pass through *untranslated*: they are
    cluster-routing conditions (the node lost its lease, or the prefix
    moved to another shard), and the session layer above must see them to
    drive its redirect/retry -- no errno captures that, and flattening
    them to EACCES would make a retryable failover indistinguishable from
    a real permission error.
    """

    if isinstance(error, (FencedNodeError, PlacementEpochError)):
        return error
    if isinstance(error, (UpdateInProgressError, LinkConflictError)):
        return fs_error(Errno.EBUSY, str(error))
    if isinstance(error, (AccessDeniedError, InvalidTokenError, ControlModeError)):
        return fs_error(Errno.EACCES, str(error))
    if isinstance(error, DaemonUnavailableError):
        return fs_error(Errno.EAGAIN, str(error))
    return fs_error(Errno.EACCES, str(error))


class DataLinksFileSystem(FilterVFS):
    """The DLFS interposition layer for one file server."""

    def __init__(self, lower, upcall_client, dbms_uid: int, clock: SimClock,
                 dbms_cred: Credentials | None = None,
                 strict_read_upcalls: bool = False):
        super().__init__(lower, fs_id=f"dlfs({lower.fs_id})")
        self.upcall = upcall_client
        self.dbms_uid = dbms_uid
        self.clock = clock
        # Credentials DLFS uses when it performs an open on behalf of the
        # DBMS after approval (kernel code is not subject to the mode bits).
        self.dbms_cred = dbms_cred if dbms_cred is not None else Credentials(
            uid=0, gid=0, username="dlfs")
        # The paper's sketched future-work fix for the rfd window: make an
        # upcall on *every* read open so the DLFM can record Sync entries for
        # files linked with strict_read_sync.  Off by default because of the
        # per-open cost (quantified by experiment E10).
        self.strict_read_upcalls = strict_read_upcalls
        # Meter of the per-interception charge (see fs_lookup).
        self._filter = clock.meter("dlfs_filter")

    # ------------------------------------------------------------------ helpers --
    def _upcall(self, call):
        try:
            return call()
        except DataLinksError as error:
            raise _translate(error) from error

    def _lock_owner(self, vnode: Vnode, cred: Credentials) -> tuple:
        return ("dlfs", vnode.ino, cred.uid)

    def walk_profile(self):
        # A token-free lookup through DLFS is the filter charge plus the
        # lower layer's fixed sequence; token-carrying components make
        # upcalls, so the logical layer only replays token-free walks
        # (it checks each component for the ``;token=`` marker).
        lower = self.lower.walk_profile()
        if lower is None:
            return None
        lower_clock, lower_events, anchor = lower
        if lower_clock is not self.clock:
            # Split-clock stacks cannot replay as one pattern; resolve live.
            return None
        return (self.clock, (("dlfs_filter", 1.0, None), *lower_events), anchor)

    # ------------------------------------------------------------------- lookup --
    def fs_lookup(self, dir_vnode, name, cred):
        # The hot interception points (lookup/open/close) write both the
        # ``_upcall`` try/except and the ``dlfs_filter`` charge out inline:
        # the lambda, dispatcher and charge frames per interception were
        # measurable on the million-link tier.
        amount, meter = self._filter
        self.clock.ticks += amount
        meter[0] += 1
        # split_token_from_name written out inline -- every pathname
        # resolution passes through here and most names carry no token.
        index = name.rfind(_TOKEN_SEPARATOR)
        if index != -1:
            bare = name[:index]
            token = name[index + _TOKEN_SEPARATOR_LEN:]
        else:
            bare = name
            token = None
        vnode = self.lower.fs_lookup(dir_vnode, bare, cred)
        if token is not None:
            try:
                self.upcall.validate_token(vnode.ino, token, cred.uid)
            except DataLinksError as error:
                raise _translate(error) from error
        return vnode

    def fs_create(self, dir_vnode, name, mode, cred):
        self.clock.charge("dlfs_filter")
        bare, _ = split_token_from_name(name)
        return self.lower.fs_create(dir_vnode, bare, mode, cred)

    # --------------------------------------------------------------------- open --
    def fs_open(self, vnode, flags, cred):
        amount, meter = self._filter
        self.clock.ticks += amount
        meter[0] += 1
        attrs = self.lower.fs_getattr(vnode, self.dbms_cred)
        wants_write = (flags._value_ & WRITE_MASK) != 0
        state = {"linked": False, "write": wants_write, "userid": cred.uid}

        if attrs.is_regular and attrs.uid == self.dbms_uid:
            try:
                reply = self.upcall.check_open(vnode.ino, wants_write,
                                               cred.uid)
            except DataLinksError as error:
                raise _translate(error) from error
            if reply.get("linked"):
                return self._open_as_dbms(vnode, flags, cred, state, reply)
        elif (self.strict_read_upcalls and attrs.is_regular
              and not wants_write):
            reply = self._upcall(
                lambda: self.upcall.check_open(vnode.ino, False, cred.uid))
            if reply.get("linked"):
                handle = self.lower.fs_open(vnode, flags, cred)
                state.update(linked=True, open_as_dbms=False, mode=reply.get("mode"))
                handle.layer_state[LAYER_KEY] = state
                return handle

        try:
            handle = self.lower.fs_open(vnode, flags, cred)
        except FileSystemError as error:
            if not wants_write or error.errno not in (Errno.EACCES, Errno.EROFS):
                raise
            try:
                reply = self.upcall.write_open_fallback(vnode.ino, cred.uid)
            except DataLinksError as fallback_error:
                raise _translate(fallback_error) from fallback_error
            if not reply.get("linked"):
                raise
            return self._open_as_dbms(vnode, flags, cred, state, reply)
        handle.layer_state[LAYER_KEY] = state
        return handle

    def _open_as_dbms(self, vnode, flags, cred, state, reply) -> OpenHandle:
        handle = self.lower.fs_open(vnode, flags, self.dbms_cred)
        state.update(linked=True, open_as_dbms=True, mode=reply.get("mode"))
        handle.layer_state[LAYER_KEY] = state
        if flags.wants_write:
            # Belt and braces: the Sync table already serializes writers, but
            # the prototype also locks the file through fs_lockctl.
            request = LockRequest(kind=LockKind.EXCLUSIVE,
                                  owner=self._lock_owner(vnode, cred))
            self.lower.fs_lockctl(vnode, request, self.dbms_cred)
            state["locked"] = True
        return handle

    # --------------------------------------------------------------------- close --
    def fs_close(self, handle, cred):
        amount, meter = self._filter
        self.clock.ticks += amount
        meter[0] += 1
        state = handle.layer_state.get(LAYER_KEY, {})
        self.lower.fs_close(handle, cred)
        if not state.get("linked"):
            return
        if state.get("locked"):
            request = LockRequest(kind=LockKind.UNLOCK,
                                  owner=self._lock_owner(handle.vnode, cred))
            self.lower.fs_lockctl(handle.vnode, request, self.dbms_cred)
        try:
            self.upcall.file_closed(handle.vnode.ino, state.get("write", False),
                                    state.get("userid", cred.uid))
        except DataLinksError as error:
            raise _translate(error) from error

    # ----------------------------------------------------------- remove / rename --
    def _protects_namespace(self, vnode: Vnode) -> bool:
        """True when the file is linked in a mode that guarantees integrity.

        ``nff`` links carry no referential-integrity guarantee (Table 1), so
        the file system remains free to remove or rename such files.
        """

        from repro.datalinks.control_modes import ControlMode

        reply = self._upcall(lambda: self.upcall.is_linked(vnode.ino))
        if not reply.get("linked"):
            return False
        return ControlMode.from_string(reply["mode"]).referential_integrity

    def fs_remove(self, dir_vnode, name, cred):
        self.clock.charge("dlfs_filter")
        bare, _ = split_token_from_name(name)
        vnode = self.lower.fs_lookup(dir_vnode, bare, self.dbms_cred)
        if self._protects_namespace(vnode):
            raise fs_error(Errno.EBUSY,
                           f"{bare!r} is linked to the database; removing it would "
                           f"leave a dangling DATALINK reference")
        return self.lower.fs_remove(dir_vnode, bare, cred)

    def fs_rename(self, src_dir, src_name, dst_dir, dst_name, cred):
        self.clock.charge("dlfs_filter")
        bare_src, _ = split_token_from_name(src_name)
        bare_dst, _ = split_token_from_name(dst_name)
        vnode = self.lower.fs_lookup(src_dir, bare_src, self.dbms_cred)
        if self._protects_namespace(vnode):
            raise fs_error(Errno.EBUSY,
                           f"{bare_src!r} is linked to the database; renaming it would "
                           f"leave a dangling DATALINK reference")
        return self.lower.fs_rename(src_dir, bare_src, dst_dir, bare_dst, cred)

    # fs_readwrite is intentionally *not* overridden: DataLinks does not
    # interfere in the read/write data path (Section 1).
