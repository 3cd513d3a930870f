"""The DLFS side of the upcall interface to the DLFM upcall daemon."""

from __future__ import annotations

from repro.fs.inode import FileAttributes
from repro.ipc.channel import Channel
from repro.simclock import SimClock


class UpcallClient:
    """Typed wrapper over the upcall channel (one per DLFS instance).

    Every method is one IPC round trip to the upcall daemon and therefore
    charges ``upcall_round_trip`` simulated latency.  DLFS and its upcall
    daemon live on the same file-server node, so both ends share one clock
    domain and the round trip is serial on that node's timeline (an upcall
    never overlaps the open that issued it).  DataLinks errors raised by
    the DLFM propagate out of these calls; the DLFS layer translates them
    into file-system errors.
    """

    def __init__(self, upcall_daemon, clock: SimClock):
        self._channel = Channel(upcall_daemon, clock,
                                latency_primitive="upcall_round_trip")

    def validate_token(self, ino: int, token: str, userid: int) -> dict:
        return self._channel.request("validate_token", ino=ino, token=token,
                                     userid=userid)

    def check_open(self, ino: int, wants_write: bool, userid: int,
                   attrs: FileAttributes) -> dict:
        return self._channel.request("check_open", ino=ino, wants_write=wants_write,
                                     userid=userid, attrs=attrs)

    def write_open_fallback(self, ino: int, userid: int,
                            attrs: FileAttributes) -> dict:
        return self._channel.request("write_open_fallback", ino=ino, userid=userid,
                                     attrs=attrs)

    def file_closed(self, ino: int, was_write: bool, userid: int,
                    path: str | None, attrs: FileAttributes | None,
                    opened: FileAttributes | None) -> dict:
        return self._channel.request("file_closed", ino=ino, was_write=was_write,
                                     userid=userid, path=path, attrs=attrs,
                                     opened=opened)

    def is_linked(self, ino: int) -> dict:
        return self._channel.request("is_linked", ino=ino)
