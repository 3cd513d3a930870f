"""Unit tests for control modes, DATALINK URLs/options and access tokens."""

import pytest

from repro.datalinks.control_modes import AccessControl, ControlMode
from repro.datalinks.datalink_type import (
    DatalinkOptions,
    OnUnlink,
    datalink_column,
    options_of_column,
)
from repro.datalinks import tokens
from repro.datalinks.tokens import AccessToken, TokenManager, TokenType
from repro.errors import (
    AccessDeniedError,
    ControlModeError,
    FileSystemError,
    InvalidTokenError,
    TokenExpiredError,
)
from repro.simclock import SimClock
from repro.storage.values import DataType
from repro.util.urls import (
    embed_token_in_name,
    format_url,
    parse_url,
    split_token_from_name,
)


class TestControlModes:
    def test_parse_from_string(self):
        assert ControlMode.from_string("RFD") is ControlMode.RFD
        with pytest.raises(ControlModeError):
            ControlMode.from_string("zzz")

    # This table mirrors Table 1 of the paper plus the two new modes.
    @pytest.mark.parametrize("mode, integrity, read_ctl, write_ctl", [
        (ControlMode.NFF, False, AccessControl.FILE_SYSTEM, AccessControl.FILE_SYSTEM),
        (ControlMode.RFF, True, AccessControl.FILE_SYSTEM, AccessControl.FILE_SYSTEM),
        (ControlMode.RFB, True, AccessControl.FILE_SYSTEM, AccessControl.BLOCKED),
        (ControlMode.RDB, True, AccessControl.DBMS, AccessControl.BLOCKED),
        (ControlMode.RFD, True, AccessControl.FILE_SYSTEM, AccessControl.DBMS),
        (ControlMode.RDD, True, AccessControl.DBMS, AccessControl.DBMS),
    ])
    def test_attribute_decomposition(self, mode, integrity, read_ctl, write_ctl):
        assert mode.referential_integrity is integrity
        assert mode.read_control is read_ctl
        assert mode.write_control is write_ctl

    def test_full_control_modes(self):
        assert {m for m in ControlMode if m.full_control} == \
            {ControlMode.RDB, ControlMode.RDD}

    def test_update_modes_are_the_papers_new_ones(self):
        assert {m for m in ControlMode if m.supports_update} == \
            {ControlMode.RFD, ControlMode.RDD}

    def test_token_requirements(self):
        assert ControlMode.RDD.requires_read_token
        assert ControlMode.RDB.requires_read_token
        assert not ControlMode.RFD.requires_read_token
        assert ControlMode.RFD.requires_write_token
        assert not ControlMode.RFB.requires_write_token

    def test_read_write_serialization_only_under_full_control(self):
        assert ControlMode.RDD.reads_serialized_with_writes
        assert not ControlMode.RFD.reads_serialized_with_writes


class TestDatalinkURLs:
    def test_parse_and_render_roundtrip(self):
        url = parse_url("dlfs://fs1/movies/clip.mpg")
        assert url.server == "fs1"
        assert url.path == "/movies/clip.mpg"
        assert url.filename == "clip.mpg"
        assert url.directory == "/movies"
        assert url.render() == "dlfs://fs1/movies/clip.mpg"

    def test_token_embedding(self):
        url = parse_url("dlfs://fs1/a/b.txt").with_token("R-1-abc")
        assert url.render() == "dlfs://fs1/a/b.txt;token=R-1-abc"
        parsed = parse_url(url.render())
        assert parsed.token == "R-1-abc"
        assert parsed.path == "/a/b.txt"

    def test_format_url_normalizes_leading_slash(self):
        assert format_url("srv", "x/y.txt") == "dlfs://srv/x/y.txt"

    @pytest.mark.parametrize("bad", ["no-scheme", "dlfs://", "dlfs://serveronly"])
    def test_malformed_urls_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_url(bad)

    def test_name_token_split_and_embed(self):
        assert split_token_from_name("f.txt;token=abc") == ("f.txt", "abc")
        assert split_token_from_name("f.txt") == ("f.txt", None)
        assert embed_token_in_name("f.txt", "abc") == "f.txt;token=abc"
        assert embed_token_in_name("f.txt", None) == "f.txt"


class TestDatalinkOptions:
    def test_roundtrip_through_column_options(self):
        options = DatalinkOptions(control_mode=ControlMode.RDD, recovery=False,
                                  on_unlink=OnUnlink.DELETE, token_ttl=5.0)
        column = datalink_column("clip", options, nullable=False)
        assert column.dtype is DataType.DATALINK
        assert not column.nullable
        recovered = options_of_column(column)
        assert recovered == options

    def test_defaults(self):
        column = datalink_column("clip")
        options = options_of_column(column)
        assert options.control_mode is ControlMode.RFF
        assert options.recovery is True
        assert options.on_unlink is OnUnlink.RESTORE


class TestTokens:
    def test_generate_validate_roundtrip(self):
        clock = SimClock()
        manager = TokenManager("secret", clock)
        token = manager.generate("/a/b.txt", TokenType.WRITE)
        parsed = manager.validate(token, "/a/b.txt")
        assert parsed.token_type is TokenType.WRITE

    def test_token_bound_to_path(self):
        manager = TokenManager("secret", SimClock())
        token = manager.generate("/a/b.txt", TokenType.READ)
        with pytest.raises(InvalidTokenError):
            manager.validate(token, "/a/OTHER.txt")

    def test_token_expires(self):
        clock = SimClock()
        manager = TokenManager("secret", clock, default_ttl=1.0)
        token = manager.generate("/f", TokenType.READ)
        clock.advance(2.0)
        with pytest.raises(TokenExpiredError):
            manager.validate(token, "/f")

    def test_tampered_token_rejected(self):
        manager = TokenManager("secret", SimClock())
        token = manager.generate("/f", TokenType.READ)
        tampered = token.replace("R-", "W-")
        with pytest.raises(InvalidTokenError):
            manager.validate(tampered, "/f")

    def test_different_secrets_do_not_validate(self):
        clock = SimClock()
        token = TokenManager("secret-a", clock).generate("/f", TokenType.READ)
        with pytest.raises(InvalidTokenError):
            TokenManager("secret-b", clock).validate(token, "/f")

    def test_malformed_token_text(self):
        with pytest.raises(InvalidTokenError):
            AccessToken.parse("garbage")
        with pytest.raises(InvalidTokenError):
            AccessToken.parse("X-notanumber-sig")

    def test_write_token_subsumes_read(self):
        assert TokenType.WRITE.allows_read and TokenType.WRITE.allows_write
        assert TokenType.READ.allows_read and not TokenType.READ.allows_write

    def test_generation_charges_clock(self):
        clock = SimClock()
        manager = TokenManager("s", clock)
        manager.generate("/f", TokenType.READ)
        assert clock.stats.count("token_generate") == 1


class TestTokenExpiryEdges:
    """TTL boundary semantics under :class:`SimClock`.

    A token is valid up to and *including* its expiry instant (the paper's
    "valid till time t"); one simulated instant later it is rejected, and
    the DLFM's token registry applies the same closed-interval rule.
    """

    def test_token_valid_at_exact_ttl_boundary(self):
        # A zero-cost model keeps validation from advancing the clock, so
        # the boundary instant can be hit exactly.
        from repro.simclock import CostModel

        clock = SimClock(CostModel().scaled(0.0))
        manager = TokenManager("secret", clock, default_ttl=5.0)
        token = manager.generate("/f", TokenType.READ)
        clock.advance(5.0)  # now == expires_at exactly
        parsed = manager.validate(token, "/f")
        assert parsed.expires_at == pytest.approx(clock.now())
        clock.advance(1e-9)
        with pytest.raises(TokenExpiredError):
            manager.validate(token, "/f")

    def test_token_reusable_while_live_but_dead_after_expiry(self):
        clock = SimClock()
        manager = TokenManager("secret", clock, default_ttl=2.0)
        token = manager.generate("/f", TokenType.WRITE)
        # tokens are capabilities, not nonces: reuse before expiry is fine
        manager.validate(token, "/f")
        manager.validate(token, "/f")
        clock.advance(3.0)
        with pytest.raises(TokenExpiredError):
            manager.validate(token, "/f")

    def test_registry_entry_boundary_matches_token_boundary(self):
        from repro.datalinks.dlfm.soft_state import SoftState

        registry = SoftState(SimClock(), 1.0)
        registry.add_token_entry("/f", 1001, "R", expires_at=5.0)
        registry.admit("/f", "read", 1001, "RW", now=5.0)
        assert registry.sync["/f"] == [("read", 1001)]
        with pytest.raises(AccessDeniedError):
            registry.admit("/f", "read", 1001, "RW", now=5.0 + 1e-9)
        # housekeeping purges only strictly-expired entries
        assert registry.purge_expired_tokens(now=5.0) == 0
        assert registry.purge_expired_tokens(now=5.0 + 1e-9) == 1

    def test_clock_shared_across_shards_expires_tokens_everywhere(self):
        """One SimClock drives every shard: tokens minted against files on
        different shards all die when the shared clock passes their TTL."""

        from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.storage.schema import Column, TableSchema

        deployment = ShardedDataLinksDeployment(
            4, flush_policy="immediate", group_commit_window=1)
        deployment.create_table(TableSchema("vault", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RDB, token_ttl=1000.0)),
        ], primary_key=("doc_id",)))
        user = deployment.session("user", uid=1001)
        paths = [f"/area{letter}/doc.dat" for letter in "ABCDEF"]
        assert len({deployment.shard_of(path) for path in paths}) >= 2
        for doc_id, path in enumerate(paths):
            url = deployment.put_file(user, path, b"secret")
            user.insert("vault", {"doc_id": doc_id, "body": url})

        urls = [user.get_datalink("vault", {"doc_id": doc_id}, "body",
                                  access="read", ttl=1000.0)
                for doc_id in range(len(paths))]
        for url in urls:
            assert user.read_url(url) == b"secret"

        # The DLFS layer surfaces the expired token as EACCES at the
        # file-system boundary, with the DLFM's expiry detail chained.
        deployment.clock.advance(2000.0)
        for url in urls:
            with pytest.raises(FileSystemError, match="expired"):
                user.read_url(url)

        # a token minted after the advance is valid again on every shard
        fresh = user.get_datalink("vault", {"doc_id": 0}, "body",
                                  access="read", ttl=1000.0)
        assert user.read_url(fresh) == b"secret"


class TestTokenCache:
    """The host-side token cache: reuse of live tokens per
    (server, path, type, TTL)."""

    def _cache(self, default_ttl=60.0):
        from repro.datalinks.tokens import TokenCache, TokenManager

        clock = SimClock()
        manager = TokenManager("secret", clock, default_ttl=default_ttl)
        return TokenCache(clock), manager, clock

    def test_hit_skips_generation_and_returns_same_token(self):
        cache, manager, clock = self._cache()
        token = manager.generate("/f", TokenType.READ, 60.0)
        cache.store("fs1", "/f", TokenType.READ, 60.0, token)
        generated_before = clock.stats.count("token_generate")
        assert cache.lookup("fs1", "/f", TokenType.READ, 60.0) == token
        assert clock.stats.count("token_generate") == generated_before
        assert cache.stats()["hits"] == 1

    def test_stale_entry_missed_and_dropped(self):
        cache, manager, clock = self._cache()
        token = manager.generate("/f", TokenType.READ, 1.0)
        cache.store("fs1", "/f", TokenType.READ, 1.0, token)
        clock.advance(0.9)   # 0.1 s of life left < 0.5 * 1.0
        assert cache.lookup("fs1", "/f", TokenType.READ, 1.0) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 0,
                                 "hit_rate": 0.0, "evictions": 1,
                                 "max_entries": tokens.MAX_ENTRIES}

    def test_short_ttl_request_never_gets_long_lived_token(self):
        """A caller asking for a short-lived capability must not receive a
        cached token that outlives the requested TTL (TTL is in the key)."""

        cache, manager, clock = self._cache()
        long_lived = manager.generate("/f", TokenType.READ, 10_000.0)
        cache.store("fs1", "/f", TokenType.READ, 10_000.0, long_lived)
        assert cache.lookup("fs1", "/f", TokenType.READ, 60.0) is None
        # the long-lived entry stays cached for callers that do want it
        assert cache.lookup("fs1", "/f", TokenType.READ, 10_000.0) == long_lived

    def test_mixed_ttl_callers_do_not_thrash_each_other(self):
        """Each requested-TTL class caches independently: alternating long
        and short requests both hit after their first miss."""

        cache, manager, clock = self._cache()
        long_lived = manager.generate("/f", TokenType.READ, 10_000.0)
        short_lived = manager.generate("/f", TokenType.READ, 60.0)
        cache.store("fs1", "/f", TokenType.READ, 10_000.0, long_lived)
        cache.store("fs1", "/f", TokenType.READ, 60.0, short_lived)
        for _ in range(3):
            assert cache.lookup("fs1", "/f", TokenType.READ,
                                10_000.0) == long_lived
            assert cache.lookup("fs1", "/f", TokenType.READ,
                                60.0) == short_lived
        assert cache.stats()["hits"] == 6 and cache.stats()["misses"] == 0

    def test_a_full_cache_sweeps_expired_entries_before_dropping_the_oldest(
            self, monkeypatch):
        """A store into a full cache first drops every expired entry; only
        if none expired does it drop the oldest stored entry (FIFO)."""

        monkeypatch.setattr(tokens, "MAX_ENTRIES", 3)
        cache, manager, clock = self._cache()
        for path, ttl in (("/a", 1.0), ("/b", 100.0), ("/c", 1.0)):
            cache.store("fs1", path, TokenType.READ, ttl,
                        manager.generate(path, TokenType.READ, ttl))
        clock.advance(2.0)      # /a and /c expired, /b is live
        cache.store("fs1", "/d", TokenType.READ, 100.0,
                    manager.generate("/d", TokenType.READ, 100.0))
        assert cache.stats()["evictions"] == 2
        assert [key[1] for key in cache._entries] == ["/b", "/d"]

        cache.store("fs1", "/e", TokenType.READ, 100.0,
                    manager.generate("/e", TokenType.READ, 100.0))
        cache.store("fs1", "/f", TokenType.READ, 100.0,
                    manager.generate("/f", TokenType.READ, 100.0))
        assert cache.stats()["evictions"] == 3     # none expired: /b went
        assert [key[1] for key in cache._entries] == ["/d", "/e", "/f"]
        assert cache.lookup("fs1", "/b", TokenType.READ, 100.0) is None

    def test_engine_cache_respects_requested_ttl(self):
        from tests.conftest import FILES_TABLE, build_system

        system, alice, _, _ = build_system(ControlMode.RDB)
        system.engine.enable_token_cache()
        long_url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                      access="read", ttl=10_000.0)
        short_url = alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                       access="read", ttl=60.0)
        assert short_url != long_url   # fresh short-lived token generated
        # and a repeat of the short request now hits
        assert alice.get_datalink(FILES_TABLE, {"doc_id": 0}, "body",
                                  access="read", ttl=60.0) == short_url
