"""A sharded deployment hands out live tokens again.

``ShardedDataLinksDeployment`` always runs the host token cache: a repeat
handout of the same (path, access, TTL) returns the token already issued
instead of minting a new HMAC.  The cache key carries the prefix's owner
shard, so a rebalanced prefix gets a token signed for its destination,
while a failed-over shard keeps its cached tokens: the promoted witness
validates them with the secret it shares with its primary.
"""

from __future__ import annotations

import pytest

from repro.errors import FileSystemError
from tests.conftest import SHARD_TABLE, build_deployment, link_docs, prefix_on


def handout(session, doc_id: int, access: str = "read",
            ttl: float = 600.0) -> str:
    return session.get_datalink(SHARD_TABLE, {"doc_id": doc_id}, "body",
                                access=access, ttl=ttl)


def minted(deployment) -> int:
    return deployment.clock.stats.count("token_generate")


@pytest.fixture
def linked():
    """A 2-shard replicated deployment with doc 0 linked under a prefix
    on ``shard0``: ``(deployment, session, prefix)``."""

    deployment, session = build_deployment()
    prefix = prefix_on(deployment, "shard0")
    link_docs(deployment, session, prefix, [0])
    return deployment, session, prefix


def test_a_repeat_handout_returns_the_live_token_and_mints_nothing(linked):
    deployment, session, _ = linked
    first = handout(session, 0)
    before = minted(deployment)
    deployment.clock.advance(1.0)
    assert handout(session, 0) == first
    assert minted(deployment) == before
    assert deployment.read_url(session, first) == b"doc 0"
    assert deployment.stats()["token_cache"]["hits"] == 1


def test_a_rebalanced_prefix_gets_a_token_signed_for_its_destination(linked):
    deployment, session, prefix = linked
    cached = handout(session, 0)
    deployment.rebalance_prefix(prefix, "shard1")
    before = minted(deployment)
    fresh = handout(session, 0)
    assert fresh != cached
    assert minted(deployment) == before + 1
    dest = deployment.replicas["shard1"].serving.name
    assert session.read_url(fresh, server=dest) == b"doc 0"
    with pytest.raises(FileSystemError, match="bad token signature"):
        session.read_url(cached, server=dest)


def test_a_cached_token_reads_on_the_promoted_witness(linked):
    deployment, session, _ = linked
    cached = handout(session, 0)
    deployment.crash("shard0")
    deployment.fail_over("shard0")
    replica = deployment.replicas["shard0"]
    assert replica.serving is replica.witness
    before = minted(deployment)
    assert handout(session, 0) == cached
    assert minted(deployment) == before
    assert session.read_url(cached, server=replica.serving.name) == b"doc 0"


def test_access_types_and_ttl_classes_never_share_an_entry(linked):
    deployment, session, _ = linked
    keys = [(access, ttl) for access in ("read", "write")
            for ttl in (60.0, 600.0)]
    before = minted(deployment)
    tokens = {key: handout(session, 0, *key) for key in keys}
    assert len(set(tokens.values())) == len(keys)
    assert minted(deployment) == before + len(keys)
    for key in keys:
        assert handout(session, 0, *key) == tokens[key]
    assert minted(deployment) == before + len(keys)
    stats = deployment.stats()["token_cache"]
    assert (stats["entries"], stats["hits"]) == (len(keys), len(keys))
