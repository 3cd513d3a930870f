"""Every component has a clock: the constructor contract.

The clock is a required constructor argument of every component that
charges or reads simulated time.  Leaving it out is the ``TypeError``
Python raises for a missing argument; handing in ``None`` is refused before
the object exists -- a component that resolves its meters in ``__init__``
fails on the first touch, one that only stores the clock checks its type.
There is no clockless twin to fall into: the old one answered "what time is
it" with ``0.0``, so its tokens never expired and every inode was born at
the epoch.  The last two tests pin what it got wrong.
"""

import pytest

from repro.datalinks.baselines.blob_store import BlobFileStore
from repro.datalinks.baselines.cico import CheckInCheckOutManager
from repro.datalinks.dlfm.archive import ArchiveServer
from repro.datalinks.dlfm.daemons import (
    ChildAgent,
    DLFMConnection,
    MainDaemon,
    ReplicaDaemon,
    UpcallDaemon,
)
from repro.datalinks.dlfm.manager import DataLinksFileManager
from repro.datalinks.dlfs.layer import DataLinksFileSystem
from repro.datalinks.dlfs.upcall_client import UpcallClient
from repro.datalinks.engine import DataLinksEngine
from repro.datalinks.replication import EpochRegistry, ReplicatedShard
from repro.datalinks.tokens import TokenCache, TokenManager, TokenType
from repro.errors import TokenExpiredError
from repro.fs.logical import LogicalFileSystem
from repro.fs.physical import PhysicalFileSystem
from repro.fs.vfs import Credentials
from repro.ipc.channel import Channel
from repro.ipc.daemon import Daemon
from repro.simclock import CostModel, SimClock
from repro.storage.database import Database
from tests.conftest import build_system

#: ``{class: build(parts, **clock)}`` -- every other argument is a working
#: part of a real one-server system, so only the clock can be at fault.
COMPONENTS = {
    Database: lambda p, **clock: Database("db", **clock),
    PhysicalFileSystem: lambda p, **clock: PhysicalFileSystem("pfs", **clock),
    LogicalFileSystem: lambda p, **clock: LogicalFileSystem(**clock),
    DataLinksFileSystem: lambda p, **clock: DataLinksFileSystem(
        p.server.physical, p.server.upcall_client, 77, **clock),
    UpcallClient: lambda p, **clock: UpcallClient(
        p.server.upcall_daemon, **clock),
    Daemon: lambda p, **clock: Daemon("d", **clock),
    UpcallDaemon: lambda p, **clock: UpcallDaemon(p.server.dlfm, **clock),
    ChildAgent: lambda p, **clock: ChildAgent(p.server.dlfm, 9, **clock),
    ReplicaDaemon: lambda p, **clock: ReplicaDaemon(p.server.dlfm, **clock),
    MainDaemon: lambda p, **clock: MainDaemon(p.server.dlfm, **clock),
    DLFMConnection: lambda p, **clock: DLFMConnection(
        p.server.main_daemon, **clock),
    TokenManager: lambda p, **clock: TokenManager("secret", **clock),
    TokenCache: lambda p, **clock: TokenCache(**clock),
    DataLinksEngine: lambda p, **clock: DataLinksEngine(
        p.system.host_db, **clock),
    DataLinksFileManager: lambda p, **clock: DataLinksFileManager(
        "fs9", p.server.files, p.system.archive, **clock),
    ArchiveServer: lambda p, **clock: ArchiveServer(**clock),
    ReplicatedShard: lambda p, **clock: ReplicatedShard(
        "fs1", p.server, [], EpochRegistry(), p.system.engine, **clock),
    BlobFileStore: lambda p, **clock: BlobFileStore(
        p.system.host_db, **clock),
    CheckInCheckOutManager: lambda p, **clock: CheckInCheckOutManager(
        p.system.host_db, **clock),
    Channel: lambda p, **clock: Channel(p.server.upcall_daemon, **clock),
}


class _Parts:
    def __init__(self):
        self.system = build_system(None)[0]
        self.server = self.system.file_server("fs1")


@pytest.mark.parametrize("component", COMPONENTS, ids=lambda cls: cls.__name__)
class TestEveryComponentNeedsItsClock:
    def test_a_clock_builds_it(self, component):
        parts = _Parts()
        assert isinstance(
            COMPONENTS[component](parts, clock=parts.server.clock), component)

    def test_omitting_the_clock_is_a_type_error(self, component):
        with pytest.raises(TypeError, match="clock"):
            COMPONENTS[component](_Parts())

    def test_none_is_refused_at_construction(self, component):
        with pytest.raises((TypeError, AttributeError)):
            COMPONENTS[component](_Parts(), clock=None)


class TestWhatTheClocklessTwinGotWrong:
    def test_a_token_expires_when_its_clock_passes_expires_at(self):
        clock = SimClock()
        manager = TokenManager("secret", clock, default_ttl=10.0)
        token = manager.generate("/f", TokenType.READ)
        expires_at = manager.validate(token, "/f").expires_at
        clock.advance(expires_at - clock.now() + 1.0)
        with pytest.raises(TokenExpiredError):
            manager.validate(token, "/f")

    def test_a_file_is_born_at_its_clocks_time_not_at_the_epoch(self):
        clock = SimClock(CostModel().scaled(0.0))
        pfs = PhysicalFileSystem("pfs", clock=clock)
        clock.advance(5)
        root = Credentials(uid=0, gid=0, username="root")
        vnode = pfs.fs_create(pfs.root_vnode(), "f", 0o644, root)
        attrs = pfs.fs_getattr(vnode, root)
        assert attrs.ctime == attrs.mtime == attrs.atime == 5.0
