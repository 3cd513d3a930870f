"""End-of-run committed-link audit, shared by the E13/E14 workloads.

The audit walks every committed DATALINK row and proves it still resolves
end to end: mint a fresh read token on the host, then read the URL through
the routing layer.  On the large tier this is one of the dominant phases,
so :data:`BATCHED_AUDIT` gates a bulk fast path.

The fast path keeps the *exact* scalar operation order -- mint row 0, read
row 0, mint row 1, ... -- because each routed read advances the host clock
through the synced file-system proxies, so row *i+1*'s token expiry depends
on read *i* having completed; a literal mint-all-then-read-all batch would
change the token stream.  What batching buys instead is hoisting the
per-row Python machinery out of the loop: the session/engine dispatch
frames, schema and datalink-option resolution, the router method lookups,
and the per-server synced proxy methods (resolved once per server, not once
per row).  Simulated charges and audit outcomes are bit-identical either
way (see tests/test_bulk_fastpaths.py).
"""

from __future__ import annotations

from repro.api.session import synced_lfs
from repro.datalinks.datalink_type import options_of_column
from repro.datalinks.tokens import TokenType
from repro.datalinks.uip import tokenized_path
from repro.errors import ControlModeError, DataLinksError, ReproError
from repro.fs.vfs import OpenFlags
from repro.storage.values import DataType
from repro.util.urls import parse_url

#: Gates the bulk audit fast path.  ``False`` replays the audit through the
#: scalar per-row ``get_datalink`` + ``read_url`` reference loop.
BATCHED_AUDIT = True


def audit_committed_links(deployment, session, table: str, key_column: str,
                          column: str, ttl: float) -> int:
    """Count committed DATALINK rows of *table* that no longer resolve.

    For every committed row the audit mints a fresh read token through the
    host engine and reads the resulting URL through the deployment's
    routing layer; a row whose mint or read fails with a
    :class:`~repro.errors.ReproError` counts as lost.
    """

    if not BATCHED_AUDIT:
        lost = 0
        for row in deployment.host_db.select(table, lock=False):
            url = row.get(column)
            if not url:
                continue
            try:
                tokenized = session.get_datalink(
                    table, {key_column: row[key_column]}, column,
                    access="read", ttl=ttl)
                deployment.read_url(session, tokenized)
            except ReproError:
                lost += 1
        return lost
    return _audit_batched(deployment, session, table, key_column, column, ttl)


def _audit_batched(deployment, session, table: str, key_column: str,
                   column: str, ttl: float) -> int:
    """The scalar audit with its per-row machinery hoisted out of the loop.

    Each row still runs mint -> routed read in the scalar order; only the
    Python-frame plumbing around those simulated operations is batched.
    """

    engine = deployment.engine
    db = engine.db
    clock = engine.clock
    router = engine.router
    servers = engine._servers
    token_cache = engine.token_cache
    system = session.system
    cred = session.cred
    host_txn = session._txn
    txn = host_txn.txn if host_txn is not None else None
    schema_column = db.catalog.schema(table).column(column)
    is_datalink = schema_column.dtype is DataType.DATALINK
    options = options_of_column(schema_column)
    mode = options.control_mode
    token_ttl = ttl if ttl is not None else options.token_ttl
    needs_token = mode.requires_read_token
    # Per-server (open, read, close) triplets through the clock-synced
    # proxies -- the attribute loads bind the ``synced_call`` methods
    # once per server instead of once per row.
    proxies: dict = {}
    lost = 0
    for row in deployment.host_db.select(table, lock=False):
        url = row.get(column)
        if not url:
            continue
        try:
            # -- mint (``session.get_datalink`` inlined) -------------------
            if clock is not None:
                clock.charge("datalink_engine_dispatch")
            matched = db.select(table, {key_column: row[key_column]}, txn)
            if not matched:
                tokenized = None
            else:
                if not is_datalink:
                    raise ControlModeError(
                        f"column {column!r} is not a DATALINK column")
                url_text = matched[0].get(column)
                if not url_text:
                    tokenized = None
                else:
                    parsed = parse_url(url_text)
                    server = parsed.server if router is None else \
                        router.owner_shard(parsed.server, parsed.path)
                    name = server if router is None else \
                        router.writable_node(server)
                    try:
                        entry = servers[name]
                    except KeyError:
                        raise DataLinksError(
                            f"no file server registered under "
                            f"{server!r}") from None
                    if needs_token:
                        path = parsed.path
                        if token_cache is not None:
                            token = token_cache.lookup(
                                server, path, TokenType.READ, token_ttl)
                            if token is None:
                                token = entry.tokens.generate(
                                    path, TokenType.READ, token_ttl)
                                token_cache.store(server, path,
                                                  TokenType.READ, token_ttl,
                                                  token)
                        else:
                            token = entry.tokens.generate(
                                path, TokenType.READ, token_ttl)
                    else:
                        token = None
                    tokenized = parsed.with_token(token).render()
            # -- routed read (``deployment.read_url`` inlined) -------------
            parsed = parse_url(tokenized)
            shard = router.owner_shard(parsed.server, parsed.path)
            node = router.route_read(shard, path=parsed.path)
            router.note_read(parsed.path)
            node_name = node.name
            methods = proxies.get(node_name)
            if methods is None:
                lfs = synced_lfs(system, node_name)
                methods = proxies[node_name] = (lfs.open, lfs.read, lfs.close)
            fd = methods[0](tokenized_path(tokenized), OpenFlags.READ, cred)
            try:
                methods[1](fd)
            finally:
                methods[2](fd)
        except ReproError:
            lost += 1
    return lost
