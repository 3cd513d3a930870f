"""Update-in-place file update sessions.

The paper's transaction boundary for an external file update is the pair of
``open`` and ``close`` calls: open corresponds to *begin transaction* and
close to *end transaction* (Section 3.1).  :class:`FileUpdateTransaction`
wraps that boundary as a context manager over the plain file-system API:

* entering the context opens the file for write using a tokenized name, which
  drives the DLFM's access checks, Sync-table entry and update tracking;
* leaving the context normally closes the file, which commits the update
  (metadata update + asynchronous archiving);
* leaving the context with an exception first asks the DLFM to roll the
  update back (restore the last committed version, park the in-flight
  content) and then closes the descriptor, so the failed update leaves no
  trace -- the paper's atomicity guarantee.
"""

from __future__ import annotations

from repro.errors import (
    DataLinksError,
    FencedNodeError,
    LeaseMovedError,
    PlacementEpochError,
    ReproError,
)
from repro.fs.logical import LogicalFileSystem
from repro.fs.vfs import Credentials, OpenFlags
from repro.util.urls import DatalinkURL, embed_token_in_name, parse_url


def tokenized_path(url: str | DatalinkURL) -> str:
    """Turn a tokenized DATALINK URL into the path an application opens."""

    parsed = parse_url(url) if isinstance(url, str) else url
    name = embed_token_in_name(parsed.filename, parsed.token)
    directory = parsed.directory.rstrip("/")
    return f"{directory}/{name}"


class FileUpdateTransaction:
    """One in-place update of a database-managed file."""

    def __init__(self, lfs: LogicalFileSystem, url: str, cred: Credentials,
                 abort_callback=None, truncate: bool = False,
                 flags: OpenFlags | None = None):
        self._lfs = lfs
        self._cred = cred
        self._url = parse_url(url)
        if flags is None:
            flags = OpenFlags.READ | OpenFlags.WRITE
            if truncate:
                flags |= OpenFlags.TRUNCATE
        self._flags = flags
        self._fresh = OpenFlags.TRUNCATE in flags
        self._abort_callback = abort_callback
        self._fd: int | None = None
        self.committed = False
        self.aborted = False

    # -- context management -----------------------------------------------------
    def __enter__(self) -> "FileUpdateTransaction":
        self.begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False

    # -- explicit control ----------------------------------------------------------
    def begin(self) -> "FileUpdateTransaction":
        """Open the file for update (begin transaction)."""

        if self._fd is not None:
            raise DataLinksError("file update already begun")
        self._fd = self._lfs.open(tokenized_path(self._url), self._flags, self._cred)
        return self

    def commit(self) -> None:
        """Close the file (end transaction); the DLFM commits the update.

        If the node holding the file lost its serving lease (failover) or
        its prefix ownership (rebalance) while the update was open, the
        close-side commit is refused by the fence: the update rolls back
        to the last committed version and :class:`~repro.errors.LeaseMovedError`
        tells the caller to re-fetch a write token and retry against the
        node now serving the file.
        """

        if self._fd is None or self.committed or self.aborted:
            return
        try:
            self._lfs.close(self._fd)
        except (FencedNodeError, PlacementEpochError) as error:
            self.abort()
            raise LeaseMovedError(
                f"the node serving {self._url.path!r} was fenced while the "
                f"update was in flight; the update was rolled back -- "
                f"re-fetch a write token and retry ({error})") from error
        self._fd = None
        self.committed = True

    def abort(self) -> None:
        """Roll back the update: restore the last committed version."""

        if self.committed or self.aborted:
            return
        if self._abort_callback is not None:
            self._abort_callback(self._url.server, self._url.path)
        if self._fd is not None:
            # Closing after the rollback is harmless: the tracking entry is
            # gone, so close processing sees an unmodified file.  On a node
            # fenced mid-update even the close upcall is refused -- the
            # descriptor is abandoned (its DLFM state was volatile anyway).
            try:
                self._lfs.close(self._fd)
            except ReproError:
                pass
            self._fd = None
        self.aborted = True

    # -- file operations -------------------------------------------------------------
    @property
    def fd(self) -> int:
        if self._fd is None:
            raise DataLinksError("file update is not open")
        return self._fd

    def read(self, length: int = -1) -> bytes:
        return self._lfs.read(self.fd, length)

    def write(self, data: bytes) -> int:
        self._fresh = False
        return self._lfs.write(self.fd, data)

    def seek(self, offset: int) -> int:
        return self._lfs.lseek(self.fd, offset)

    def replace(self, data: bytes) -> int:
        """Overwrite the whole file with *data*.

        The file must have been opened with ``truncate=True`` when the new
        content may be shorter than the old; otherwise a stale tail would
        survive the rewrite and this method refuses to guess (an ``fstat``)
        unless the file was empty: truncated at the open, not written since.
        """

        fresh = self._fresh
        self.seek(0)
        written = self.write(data)
        if not fresh and self._lfs.fstat(self.fd).size > len(data):
            raise DataLinksError(
                "replace() with shorter content requires opening the update "
                "with truncate=True")
        return written


def open_for_read(lfs: LogicalFileSystem, url: str, cred: Credentials) -> int:
    """Open a (possibly tokenized) DATALINK URL for reading; returns the fd."""

    return lfs.open(tokenized_path(url), OpenFlags.READ, cred)
