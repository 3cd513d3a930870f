"""DATALINK URL parsing and formatting.

A DATALINK value "contains a pointer to the external file in the format of a
URL: protocol://server-name/pathname/filename" (Section 2.1).  Access tokens
handed out by the host database are embedded in the file name so that
applications keep using the ordinary file-system API; DLFS strips and
validates the token during ``fs_lookup``.

Parsing and formatting are memoized: the engine re-parses the same URL text
on every operation (token minting, routing, open, update, unlink all start
from the URL), and :class:`DatalinkURL` is immutable (a named tuple, see
:mod:`repro.fs.inode`), so cached instances are safely shared between call
sites.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from repro.errors import MalformedURLError

TOKEN_SEPARATOR = ";token="
DEFAULT_SCHEME = "dlfs"


class DatalinkURL(NamedTuple):
    """A parsed DATALINK reference.

    ``path`` is always absolute (leading ``/``) and never carries a token;
    the token, if any, is held separately in ``token``.
    """

    scheme: str
    server: str
    path: str
    token: str | None = None

    def with_token(self, token: str | None) -> "DatalinkURL":
        """Return a copy of this URL carrying *token* (or none)."""

        return DatalinkURL(self.scheme, self.server, self.path, token)

    @property
    def filename(self) -> str:
        """The final path component."""

        return self.path.rsplit("/", 1)[-1]

    @property
    def directory(self) -> str:
        """The directory part of the path (always at least ``/``)."""

        head = self.path.rsplit("/", 1)[0]
        return head if head else "/"

    def render(self) -> str:
        """Format back into URL text, embedding the token if present."""

        path = self.path
        if self.token:
            path = f"{path}{TOKEN_SEPARATOR}{self.token}"
        return f"{self.scheme}://{self.server}{path}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@functools.lru_cache(maxsize=8192)
def parse_url(text: str) -> DatalinkURL:
    """Parse ``scheme://server/path[;token=...]`` into a :class:`DatalinkURL`.

    The token marker is only recognized in the *final* path segment, at its
    *last* occurrence: a directory component that legitimately contains the
    ``;token=`` substring (e.g. ``/a;token=x/b``) is part of the path, not a
    token, and must round-trip through :func:`format_url` untouched.
    """

    if "://" not in text:
        raise MalformedURLError(f"not a DATALINK URL: {text!r}")
    scheme, rest = text.split("://", 1)
    if "/" not in rest:
        raise MalformedURLError(f"DATALINK URL is missing a path: {text!r}")
    server, path = rest.split("/", 1)
    path = "/" + path
    token = None
    slash = path.rfind("/")
    segment = path[slash + 1:]
    index = segment.rfind(TOKEN_SEPARATOR)
    if index != -1:
        token = segment[index + len(TOKEN_SEPARATOR):]
        path = path[:slash + 1] + segment[:index]
    if not server:
        raise MalformedURLError(
            f"DATALINK URL is missing a server: {text!r}")
    return DatalinkURL(scheme, server, path, token)


@functools.lru_cache(maxsize=8192)
def format_url(server: str, path: str, *, scheme: str = DEFAULT_SCHEME,
               token: str | None = None) -> str:
    """Build DATALINK URL text from components."""

    if not path.startswith("/"):
        path = "/" + path
    return DatalinkURL(scheme, server, path, token).render()


def split_token_from_name(name: str) -> tuple[str, str | None]:
    """Split a (possibly token-carrying) file name into (name, token).

    Splits at the *last* occurrence, mirroring :func:`parse_url`: the token
    is always the suffix the database appended most recently.
    """

    index = name.rfind(TOKEN_SEPARATOR)
    if index != -1:
        return name[:index], name[index + len(TOKEN_SEPARATOR):]
    return name, None


def embed_token_in_name(name: str, token: str | None) -> str:
    """Append *token* to a bare file name (no-op when token is ``None``)."""

    if token is None:
        return name
    return f"{name}{TOKEN_SEPARATOR}{token}"
