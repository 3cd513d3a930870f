"""End-of-run committed-link audit, shared by the E13/E14 workloads.

The audit walks every committed DATALINK row and proves it still resolves
end to end: mint a fresh read token on the host, then read the URL through
the routing layer.  Rows go strictly mint, read, mint, read: each routed
read advances the host clock through the synced file-system proxies, so
row *i+1*'s token expiry depends on read *i* having completed.
"""

from __future__ import annotations

from repro.errors import ReproError


def audit_committed_links(deployment, session, table: str, key_column: str,
                          column: str, ttl: float) -> int:
    """Count committed DATALINK rows of *table* that no longer resolve.

    For every committed row the audit mints a fresh read token through the
    host engine and reads the resulting URL through the deployment's
    routing layer; a row whose mint or read fails with a
    :class:`~repro.errors.ReproError` counts as lost.
    """

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
