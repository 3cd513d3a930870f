"""Crash-injection points: one registry, one table, one ``fire``.

The paper's guarantees are crash guarantees (two-phase commit between the
host and every DLFM, Section 4; all-or-nothing between open and close,
Section 4.2), so the tests stop the protocols at named steps.  Every such
step is registered in :data:`POINTS` with what has happened when it fires.
A name ending in ``:<server>`` or ``:<shard>`` is *scoped*: it is armed
once per file server or shard (``commit:prepared:shard0``) and fired with
that scope, so a hook crashes one victim and no other.

A close-time commit (Section 4.2) is the same protocol with one message: the
closing DLFM prepares before its request, which carries the vote, and
commits on the host's reply; ``commit:prepared`` fires for it as the
request's vote is counted and ``commit:committed`` as it commits, on the
DLFM, after the reply.

There is one table per deployment, the engine's
(:attr:`~repro.datalinks.engine.DataLinksEngine.failpoints`), and every
firing site -- the commit protocol, every WAL shipper and replica applier,
promotion and the rebalance hand-off -- fires into it.  A test arms a point
by assigning a hook, ``engine.failpoints["commit:after_host_commit"] =
hook``; a hook that raises simulates a crash at that step.  The table refuses a name
that is not registered, so a misspelled point cannot pass a test without
firing.
"""

from __future__ import annotations

POINTS: dict[str, str] = {
    "commit:begin": "a two-phase commit of a group of transactions "
                    "starts, nothing sent yet (a closing DLFM's branch is "
                    "prepared: its vote came with its request)",
    "commit:prepared:<server>": "the server's yes-votes are in (a closing "
                                "DLFM's, on its request)",
    "commit:before_host_commit": "every vote is in, the host has not "
                                 "committed",
    "commit:after_host_commit": "the host COMMITs are durable, no "
                                "participant committed",
    "commit:committed:<server>": "the server committed its branches (a "
                                 "closing DLFM, on the host's reply)",
    "replicate:ship:<shard>": "a durable WAL batch is about to ship to a "
                              "witness",
    "replicate:apply:<shard>": "a witness is about to apply a shipped batch",
    "replicate:promote:<shard>": "a promotion starts, streams still live",
    "replicate:catchup:<shard>": "streams are quiesced, catch-up not run",
    "replicate:fence:<shard>": "the target caught up, the epoch not bumped",
    "rebalance:prepare": "a hand-off passed its checks, the prefix is not "
                         "marked moving",
    "rebalance:export": "the hand-off transaction began, the source still "
                        "holds the rows",
    "rebalance:archive": "the source exported the rows, no content copied",
    "rebalance:import": "the content is copied, the destination has no rows",
    "rebalance:fence": "both branches are written, the hand-off not "
                       "committed",
    "rebalance:sweep": "the move committed, the source bytes not swept",
}

#: The scoped points, without their ``:<scope>`` suffix.
SCOPED = frozenset(n.rpartition(":")[0] for n in POINTS if n.endswith(">"))


def registered(name: str) -> bool:
    """Whether *name* is a point the table may arm: an unscoped point, or
    a scoped point followed by one ``:<scope>``."""

    point, _, scope = name.rpartition(":")
    return (name in POINTS or point in SCOPED and scope != "") and ">" not in name


class FailpointTable(dict):
    """``{point name: hook}``, refusing names :func:`registered` refuses."""

    def __setitem__(self, name: str, hook) -> None:
        if not registered(name):
            raise ValueError(f"unregistered failpoint {name!r} (see "
                             f"repro.util.failpoints.POINTS)")
        super().__setitem__(name, hook)

    def update(self, *args, **kwargs) -> None:
        for name, hook in dict(*args, **kwargs).items():
            self[name] = hook


def fire(table: dict, point: str, scope: str | None = None) -> None:
    """Run the hook armed at *point* (``point:scope`` when scoped), if any;
    an empty table returns before any name is built."""

    if not table:
        return
    hook = table.get(point if scope is None else f"{point}:{scope}")
    if hook is not None:
        hook()
