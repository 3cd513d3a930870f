"""Contracts of the tuple value objects and of the one-slice range read.

``FileAttributes``, ``Vnode``, ``DatalinkURL`` and ``AccessToken`` are named
tuples built on every operation; what callers rely on is pinned here
(immutable, equal and hash-equal by value, keyword and positional
construction agree, text forms round-trip).  A file's bytes are one
immutable ``bytes`` on its inode over a device that only allocates and
counts: a random history of writes, truncates and reads is held to a
``bytearray`` model and to closed-form device counters, and a document that
is ingested, mirrored, archived and read back is the same object at every
stop.
"""

import os
from dataclasses import asdict

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.dlfs.layer import DataLinksFileSystem
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.datalinks.tokens import AccessToken, TokenType
from repro.errors import Errno, FileSystemError
from repro.fs.blockdev import BlockDevice
from repro.fs.inode import FileAttributes, FileType
from repro.fs.logical import LogicalFileSystem
from repro.fs.physical import PhysicalFileSystem
from repro.fs.vfs import Credentials, OpenFlags, Vnode
from repro.simclock import SimClock
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util.urls import DatalinkURL, parse_url
from tests.conftest import examples

ROOT = Credentials(uid=0, gid=0, username="root")

#: One sample of each value type, as keyword arguments in field order.
SAMPLES = [
    (FileAttributes, dict(ino=7, ftype=FileType.REGULAR, mode=0o640, uid=3,
                          gid=4, size=99, nlink=1, atime=1.5, mtime=2.5,
                          ctime=3.5)),
    (Vnode, dict(fs_id="pfs0", ino=12)),
    (DatalinkURL, dict(scheme="dlfs", server="fs1", path="/a/b.txt",
                       token="R-1.000000-abcd")),
    (AccessToken, dict(token_type=TokenType.WRITE, expires_at=125.0,
                       signature="1a2b3c4d5e6f7a8b")),
]


@pytest.mark.parametrize("cls, fields", SAMPLES,
                         ids=[cls.__name__ for cls, _ in SAMPLES])
class TestValueObjectContract:
    def test_is_an_immutable_tuple(self, cls, fields):
        value = cls(**fields)
        assert isinstance(value, tuple)
        assert not hasattr(value, "__dict__")
        for name, field_value in fields.items():
            assert getattr(value, name) == field_value
            with pytest.raises(AttributeError):
                setattr(value, name, field_value)
        with pytest.raises(AttributeError):
            value.brand_new_attribute = 1

    def test_equal_and_hash_equal_by_value(self, cls, fields):
        one, other = cls(**fields), cls(**fields)
        assert one is not other
        assert one == other and hash(one) == hash(other)
        assert len({one, other}) == 1
        # The last field of every sample is a number or a string.
        name, field_value = list(fields.items())[-1]
        assert cls(**{**fields, name: field_value * 2}) != one

    def test_keyword_and_positional_construction_agree(self, cls, fields):
        assert cls(*fields.values()) == cls(**fields)
        assert cls._fields == tuple(fields)


class TestVnodeIdentity:
    def test_vnode_through_the_dlfs_filter_is_the_physical_one(self):
        clock = SimClock()
        pfs = PhysicalFileSystem("pfs0", clock=clock)
        directory = pfs.fs_mkdir(pfs.root_vnode(), "d", 0o755, ROOT)
        created = pfs.fs_create(directory, "f.txt", 0o644, ROOT)
        dlfs = DataLinksFileSystem(pfs, upcall_client=None, dbms_uid=77,
                                   clock=clock)
        for layer in (pfs, dlfs):
            root = layer.root_vnode()
            assert root == pfs.root_vnode() == Vnode("pfs0", 1)
            found = layer.fs_lookup(layer.fs_lookup(root, "d", ROOT),
                                    "f.txt", ROOT)
            assert found == created == Vnode(fs_id="pfs0", ino=created.ino)
            # One vnode per inode: every lookup hands out the stored tuple.
            assert found is created is pfs.inode(created.ino).vnode
        assert pfs.fs_lookup(directory, ".", ROOT) is directory

    def test_lookup_of_a_missing_name_is_enoent(self):
        pfs = PhysicalFileSystem("pfs0", clock=SimClock())
        with pytest.raises(FileSystemError) as excinfo:
            pfs.fs_lookup(pfs.root_vnode(), "absent", ROOT)
        assert excinfo.value.errno is Errno.ENOENT
        assert "absent" in str(excinfo.value)

    def test_attribute_snapshot_does_not_follow_the_inode(self):
        pfs = PhysicalFileSystem("pfs0", clock=SimClock())
        vnode = pfs.fs_create(pfs.root_vnode(), "f", 0o600, ROOT)
        before = pfs.fs_getattr(vnode, ROOT)
        pfs.fs_readwrite(vnode, 0, data=b"12345", write=True, cred=ROOT)
        after = pfs.fs_getattr(vnode, ROOT)
        assert (before.size, after.size) == (0, 5)
        assert before.is_regular and not before.is_directory
        assert pfs.fs_getattr(pfs.root_vnode(), ROOT).is_directory


_SEGMENT = st.text("abcXYZ019._-", min_size=1, max_size=6)
#: Directory components may legitimately contain the token marker.
_DIRECTORY = st.one_of(_SEGMENT, st.just("a;token=x"))


class TestTextRoundTrips:
    @given(scheme=st.sampled_from(["dlfs", "http", "file"]),
           server=st.text("abc019.-", min_size=1, max_size=8),
           directories=st.lists(_DIRECTORY, max_size=3),
           name=_SEGMENT,
           token=st.one_of(st.none(), st.text("RW-.0123abcdef", min_size=1,
                                              max_size=30)))
    @examples(150)
    def test_datalink_url_round_trips(self, scheme, server, directories, name,
                                      token):
        path = "/" + "/".join([*directories, name])
        url = DatalinkURL(scheme, server, path, token)
        assert parse_url(url.render()) == url
        assert str(url) == url.render()
        assert url.with_token(None) == DatalinkURL(scheme, server, path)
        assert url.with_token("t").token == "t"
        assert url.filename == name
        assert url.directory == (path.rsplit("/", 1)[0] or "/")

    def test_parse_url_lru_returns_the_identical_object(self):
        text = "dlfs://fs9/lru/identity.bin;token=R-5.000000-00ff"
        first = parse_url(text)
        assert parse_url(text) is first
        assert parse_url(str(text)) is first
        assert first == DatalinkURL("dlfs", "fs9", "/lru/identity.bin",
                                    "R-5.000000-00ff")

    @given(token_type=st.sampled_from(list(TokenType)),
           millis=st.integers(0, 10 ** 12),
           signature=st.text("0123456789abcdef-", min_size=1, max_size=16))
    @examples(150)
    def test_access_token_round_trips(self, token_type, millis, signature):
        token = AccessToken(token_type, millis / 1000, signature)
        assert AccessToken.parse(token.render()) == token
        assert token.render().startswith(f"{token_type.value}-")


BLOCK = 16


def _span(start: int, stop: int) -> int:
    """How many blocks a request over bytes ``[start, stop)`` touches."""

    return 0 if stop <= start else (stop - 1) // BLOCK - start // BLOCK + 1


def _blocks_of(size: int) -> int:
    return -(-size // BLOCK)


_OFFSETS = st.integers(0, 100)
_PAYLOADS = st.binary(min_size=1, max_size=40)
_SIZES = st.one_of(st.integers(0, 100),
                   st.integers(0, 6).map(lambda k: k * BLOCK))
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("write"), _OFFSETS, _PAYLOADS),
    st.tuples(st.just("append"), _PAYLOADS),
    st.tuples(st.just("setattr_size"), _SIZES),
    st.tuples(st.just("open_truncating")),
    st.tuples(st.just("read"), st.integers(0, 150), st.integers(-2, 150)),
), min_size=1, max_size=12)


class TestReadRange:
    @given(steps=_STEPS)
    @example(steps=[("append", b"AB"), ("setattr_size", 1),
                    ("setattr_size", 3)])
    @example(steps=[("append", b"AB"), ("setattr_size", 1),
                    ("write", 2, b"C")])
    @examples(250)
    def test_a_history_matches_a_bytearray_and_closed_form_counters(
            self, steps):
        clock = SimClock()
        pfs = PhysicalFileSystem("pfs0", device=BlockDevice(block_size=BLOCK),
                                 clock=clock)
        lfs = LogicalFileSystem(clock)
        lfs.mount("/", pfs)
        lfs.write_file("/f", b"", ROOT)
        vnode = pfs.fs_lookup(pfs.root_vnode(), "f", ROOT)
        inode = pfs.inode(vnode.ino)
        model = bytearray()
        want = dict.fromkeys(asdict(pfs.device.stats), 0)

        def resized(old: int, new: int) -> None:
            change = _blocks_of(new) - _blocks_of(old)
            want["allocations" if change > 0 else "frees"] += abs(change)

        def touched(start: int, stop: int, write: bool = False) -> None:
            count = _span(start, stop)
            want["reads"] += count
            want["bytes_read"] += count * BLOCK
            if write:
                want["writes"] += count
                want["bytes_written"] += count * BLOCK

        def written(offset: int, payload: bytes) -> None:
            stop = offset + len(payload)
            resized(len(model), max(len(model), stop))
            touched(offset, stop, write=True)
            if offset > len(model):         # a sparse gap reads as zeros
                model.extend(bytes(offset - len(model)))
            model[offset:stop] = payload

        for step in steps:
            kind = step[0]
            if kind == "write":
                fd = lfs.open("/f", OpenFlags.WRITE, ROOT)
                lfs.lseek(fd, step[1])
                assert lfs.write(fd, step[2]) == len(step[2])
                lfs.close(fd)
                written(step[1], step[2])
            elif kind == "append":
                fd = lfs.open("/f", OpenFlags.WRITE | OpenFlags.APPEND, ROOT)
                lfs.write(fd, step[1])
                lfs.close(fd)
                written(len(model), step[1])
            elif kind in ("setattr_size", "open_truncating"):
                size = step[1] if len(step) > 1 else 0
                if kind == "setattr_size":
                    pfs.fs_setattr(vnode, ROOT, size=size)
                else:
                    lfs.close(lfs.open(
                        "/f", OpenFlags.WRITE | OpenFlags.TRUNCATE, ROOT))
                resized(len(model), size)
                del model[size:]
                model.extend(bytes(size - len(model)))
            else:
                _, offset, length = step
                fd = lfs.open("/f", OpenFlags.READ, ROOT)
                lfs.lseek(fd, offset)
                got = lfs.read(fd, length)
                lfs.close(fd)
                # ``fs_readwrite`` reads to end of file for a length <= 0.
                stop = len(model) if length <= 0 else offset + length
                assert got == bytes(model[offset:stop]), step
                touched(offset, min(stop, len(model)))
            # After every step: the whole file, its size, its block count.
            assert lfs.read_file("/f", ROOT) == bytes(model), step
            touched(0, len(model))
            assert inode.content == bytes(model)
            assert inode.size == len(model)
            assert len(inode.blocks) == _blocks_of(len(model)) \
                == pfs.device.allocated_blocks
            assert asdict(pfs.device.stats) == want, step

    def test_a_bad_block_is_einval_naming_it(self):
        pfs = PhysicalFileSystem("pfs0", device=BlockDevice(block_size=BLOCK),
                                 clock=SimClock())
        vnode = pfs.fs_create(pfs.root_vnode(), "f", 0o644, ROOT)
        pfs.fs_readwrite(vnode, 0, data=b"x" * (3 * BLOCK), write=True,
                         cred=ROOT)
        pfs.inode(vnode.ino).blocks[1] = 4242
        with pytest.raises(FileSystemError) as excinfo:
            pfs.fs_readwrite(vnode, 0, length=3 * BLOCK, write=False,
                             cred=ROOT)
        assert excinfo.value.errno is Errno.EINVAL
        assert "bad block 4242" in str(excinfo.value)
        with pytest.raises(FileSystemError) as excinfo:
            pfs.fs_readwrite(vnode, BLOCK, data=b"y", write=True, cred=ROOT)
        assert "bad block 4242" in str(excinfo.value)
        with pytest.raises(FileSystemError) as excinfo:
            pfs.device.touch_blocks([4242])
        assert "bad block 4242" in str(excinfo.value)


SHARED_TABLE = "shared_docs"


def _replicated_deployment():
    deployment = ShardedDataLinksDeployment(2, replication=True)
    deployment.create_table(TableSchema(SHARED_TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFF,
                                                recovery=True)),
    ], primary_key=("doc_id",)))
    return deployment, deployment.session("alice", uid=1001)


class TestContentIsStoredOnce:
    """Every hop hands the same immutable object on: the file, its archived
    version and its witness mirror are one ``bytes``, the caller's."""

    @pytest.mark.parametrize("size", [1, 4096, 4100, 16384])
    def test_ingest_mirror_archive_and_read_back_share_one_object(self, size):
        deployment, session = _replicated_deployment()
        content = os.urandom(size)
        path = "/shared/doc.dat"
        url = deployment.put_file(session, path, content)
        session.insert(SHARED_TABLE, {"doc_id": 0, "body": url})
        assert deployment.system.run_archiver() == 1
        replica = deployment.replicas[deployment.shard_of(path)]
        for node in (replica.serving, replica.witness):
            assert node.raw_lfs.read_file(path, node.files.dlfm_cred) \
                is content
            assert node.files.read(path) is content
        (archived,) = deployment.system.archive._objects.values()
        assert archived.content is content
        assert deployment.system.archive.retrieve(
            archived.archive_id, caller_clock=deployment.clock) is content
        read_url = session.get_datalink(SHARED_TABLE, {"doc_id": 0}, "body")
        assert session.read_url(read_url) is content
        # Restoring the committed version puts the same object back.
        replica.serving.files.overwrite(path, b"scribbled over")
        assert replica.serving.dlfm.restore_last_committed(path)
        assert replica.serving.files.read(path) is content

    def test_update_in_place_archives_and_rolls_back_to_the_same_objects(
            self, rfd_system):
        system, alice, paths, _ = rfd_system
        files = system.file_server("fs1").files
        new = os.urandom(5000)
        url = alice.get_datalink("docs", {"doc_id": 0}, "body", access="write")
        with alice.update_file(url, truncate=True) as update:
            update.replace(new)
        assert system.run_archiver() == 1
        assert files.read(paths[0]) is new
        newest = max(system.archive._objects.values(),
                     key=lambda version: version.archive_id)
        assert newest.content is new
        # An aborted update restores the committed version: that object.
        url = alice.get_datalink("docs", {"doc_id": 0}, "body", access="write")
        update = alice.update_file(url, truncate=True).begin()
        update.replace(b"abandoned draft")
        update.abort()
        assert files.read(paths[0]) is new

    def test_a_mutable_buffer_is_copied_once_on_the_way_in(self, fs_stack,
                                                           root_cred):
        physical, lfs = fs_stack
        buffer = bytearray(b"draft " * 100)
        lfs.write_file("/m.txt", buffer, root_cred)
        stored = lfs.read_file("/m.txt", root_cred)
        assert type(stored) is bytes and stored == bytes(buffer)
        buffer[:5] = b"FINAL"                       # the caller's, not the file's
        assert lfs.read_file("/m.txt", root_cred) is stored
        lfs.write_file("/v.txt", memoryview(stored)[6:12], root_cred)
        assert lfs.read_file("/v.txt", root_cred) == b"draft "
        assert type(lfs.read_file("/v.txt", root_cred)) is bytes

    def test_a_partial_write_leaves_earlier_readers_their_bytes(self, fs_stack,
                                                                root_cred):
        physical, lfs = fs_stack
        content = os.urandom(100)
        lfs.write_file("/p.bin", content, root_cred)
        before = lfs.read_file("/p.bin", root_cred)
        fd = lfs.open("/p.bin", OpenFlags.WRITE, root_cred)
        lfs.lseek(fd, 10)
        lfs.write(fd, b"patched")
        lfs.close(fd)
        assert before is content and before[10:17] != b"patched"
        assert lfs.read_file("/p.bin", root_cred) == \
            content[:10] + b"patched" + content[17:]
