"""Contracts of the tuple value objects and of the one-slice range read.

``FileAttributes``, ``Vnode``, ``DatalinkURL`` and ``AccessToken`` are named
tuples built on every operation; what callers rely on is pinned here
(immutable, equal and hash-equal by value, keyword and positional
construction agree, text forms round-trip).  ``_read_range`` takes its whole
block span in one device call; the per-block loop it replaced is kept here
as the reference for bytes and device counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalinks.dlfs.layer import DataLinksFileSystem
from repro.datalinks.tokens import AccessToken, TokenType
from repro.errors import Errno, FileSystemError
from repro.fs.blockdev import BlockDevice
from repro.fs.inode import FileAttributes, FileType
from repro.fs.physical import PhysicalFileSystem
from repro.fs.vfs import Credentials, FilterVFS, Vnode
from repro.util.urls import DatalinkURL, parse_url

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
        pfs = PhysicalFileSystem("pfs0")
        directory = pfs.fs_mkdir(pfs.root_vnode(), "d", 0o755, ROOT)
        created = pfs.fs_create(directory, "f.txt", 0o644, ROOT)
        dlfs = DataLinksFileSystem(pfs, upcall_client=None, dbms_uid=77)
        for layer in (pfs, FilterVFS(pfs), dlfs):
            root = layer.root_vnode()
            assert root == pfs.root_vnode() == Vnode("pfs0", 1)
            found = layer.fs_lookup(layer.fs_lookup(root, "d", ROOT),
                                    "f.txt", ROOT)
            assert found == created == Vnode(fs_id="pfs0", ino=created.ino)
            # One vnode per inode: every lookup hands out the stored tuple.
            assert found is created is pfs.inode(created.ino).vnode
        assert pfs.fs_lookup(directory, ".", ROOT) is directory

    def test_lookup_of_a_missing_name_is_enoent(self):
        pfs = PhysicalFileSystem("pfs0")
        with pytest.raises(FileSystemError) as excinfo:
            pfs.fs_lookup(pfs.root_vnode(), "absent", ROOT)
        assert excinfo.value.errno is Errno.ENOENT
        assert "absent" in str(excinfo.value)

    def test_attribute_snapshot_does_not_follow_the_inode(self):
        pfs = PhysicalFileSystem("pfs0")
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
    @settings(max_examples=150, deadline=None)
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
    @settings(max_examples=150, deadline=None)
    def test_access_token_round_trips(self, token_type, millis, signature):
        token = AccessToken(token_type, millis / 1000, signature)
        assert AccessToken.parse(token.render()) == token
        assert token.render().startswith(f"{token_type.value}-")


BLOCK = 16


def _per_block_read_range(pfs, inode, offset, length) -> bytes:
    """The loop ``_read_range`` replaced: one ``read_block`` per block."""

    if offset >= inode.size:
        return b""
    end = inode.size if length <= 0 else min(inode.size, offset + length)
    block_size = pfs.device.block_size
    chunks = []
    position = offset
    while position < end:
        block_index = position // block_size
        block_offset = position % block_size
        take = min(block_size - block_offset, end - position)
        block = pfs.device.read_block(inode.blocks[block_index])
        chunks.append(block[block_offset: block_offset + take])
        position += take
    return b"".join(chunks)


def _counted(pfs, read) -> tuple:
    stats = pfs.device.stats
    before = (stats.reads, stats.bytes_read)
    data = read()
    return data, stats.reads - before[0], stats.bytes_read - before[1]


class TestReadRange:
    @given(grown=st.one_of(st.just(0),
                           st.integers(0, 6).map(lambda k: k * BLOCK),
                           st.integers(0, 100)),
           write_at=st.integers(0, 100),
           payload=st.binary(max_size=40),
           reads=st.lists(st.tuples(st.integers(0, 150),
                                    st.integers(-2, 150)),
                          min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_bytes_and_device_counters_match_the_per_block_loop(
            self, grown, write_at, payload, reads):
        pfs = PhysicalFileSystem("pfs0", device=BlockDevice(block_size=BLOCK))
        vnode = pfs.fs_create(pfs.root_vnode(), "f", 0o644, ROOT)
        # Grown by truncate (zero-filled blocks), then partly written.
        pfs.fs_setattr(vnode, ROOT, size=grown)
        model = bytearray(grown)
        if payload:
            pfs.fs_readwrite(vnode, write_at, data=payload, write=True,
                             cred=ROOT)
            if write_at + len(payload) > len(model):
                model.extend(bytes(write_at + len(payload) - len(model)))
            model[write_at: write_at + len(payload)] = payload
        inode = pfs.inode(vnode.ino)
        assert inode.size == len(model)
        for offset, length in reads:
            got = _counted(pfs, lambda: pfs._read_range(inode, offset, length))
            want = _counted(pfs, lambda: _per_block_read_range(
                pfs, inode, offset, length))
            assert got == want, (offset, length)
            stop = len(model) if length <= 0 else offset + length
            assert got[0] == bytes(model[offset:stop])
        assert pfs.read_whole_file(vnode.ino) == bytes(model)

    def test_a_bad_block_is_einval_naming_it(self):
        pfs = PhysicalFileSystem("pfs0", device=BlockDevice(block_size=BLOCK))
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
            pfs.device.read_blocks([4242])
        assert "bad block 4242" in str(excinfo.value)
