"""The node-local soft state: what the witness read gate relies on, and
what E2's loop leaves behind.

* On a serving node a Sync write entry exists exactly while the file's
  ``update_tracking`` row does -- through an update's begin, its close with
  and without a modification, ``abort_file_update``, and a DLFM crash
  followed by recovery -- in rdb, rdd and rfd.  That is the precondition of
  the witness's read gate, which reads the replicated tracking row instead
  of the serving node's Sync table; the witness's row agrees after every
  step, and a full-control read is refused on either node exactly while an
  update is open.
* E2's loop (ROADMAP direction 4(a)): every open charges the same ledger,
  the first one included (the token upsert is the same keyed write whether
  it inserts the entry or finds it), so rdb's and rdd's ``added_vs_unlinked_ms`` read the same at the smoke
  and the default tier; after ``L`` and ``4 * L`` opens the registry holds
  one entry per live (path, user, type) and the Sync table none.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.runner import FILES_TABLE, RunContext, run_experiment
from repro.datalinks.control_modes import ControlMode
from repro.errors import ReproError
from repro.fs.vfs import OpenFlags
from repro.util.urls import parse_url
from tests.datalinks.test_replication import (TABLE, build_deployment, link,
                                              path_on)


# ---------------------------------------------------------------------------
# Sync write entry <=> update_tracking row
# ---------------------------------------------------------------------------
def _check(replica, paths) -> None:
    serving = replica.serving.dlfm
    witness = replica.witness.dlfm
    assert replica.shipper.pending_lag() == 0
    for path in paths:
        writers = [user for access, user in serving.soft.sync.get(path, ())
                   if access == "write"]
        tracking = serving.repository.tracking(path)
        assert len(writers) == (tracking is not None), path
        if tracking is not None:
            assert writers == [tracking["userid"]]
        assert (witness.repository.tracking(path) is None) == \
            (tracking is None), path


class TestSyncWriteEntryIsTheTrackingRow:
    @pytest.mark.parametrize("seed", [1, 42])
    @pytest.mark.parametrize("mode", ["rdb", "rdd", "rfd"])
    def test_a_seeded_history(self, mode, seed):
        control = ControlMode.from_string(mode)
        deployment, session = build_deployment(mode=control, recovery=True)
        replica = deployment.replicas["shard0"]
        paths = [path_on(deployment, "shard0", f"t{index}x")
                 for index in range(2)]
        for doc_id, path in enumerate(paths):
            link(deployment, session, doc_id, path, b"version 0")
        deployment.system.run_archiver()
        rng = random.Random(seed)
        updates: dict[int, object] = {}
        seen = set()
        actions = ["begin"] * 3 + ["modified", "unmodified", "abort", "read",
                                   "crash"]
        for step in range(48):
            doc_id = rng.randrange(len(paths))
            action = rng.choice(actions)
            update = updates.pop(doc_id, None)
            if action == "begin" and update is None:
                try:
                    url = session.get_datalink(TABLE, {"doc_id": doc_id},
                                               "body", access="write",
                                               ttl=1e9)
                    update = session.update_file(url).begin()
                except ReproError:
                    # rdb blocks writes; an archive job may still be queued.
                    update = None
                    deployment.system.run_archiver()
            elif action == "modified" and update is not None:
                update.replace(f"version {step:03d}".encode())
                update.commit()
                deployment.system.run_archiver()
                update = None
            elif action == "unmodified" and update is not None:
                update.commit()
                update = None
            elif action == "abort" and update is not None:
                update.abort()
                update = None
            elif action == "read" and control.full_control:
                url = session.get_datalink(TABLE, {"doc_id": doc_id}, "body",
                                           access="read", ttl=1e9)
                for node in ("shard0", "shard0-r"):
                    if update is None:
                        if node == "shard0":
                            assert session.read_url(url, server=node) \
                                .startswith(b"version ")
                        continue
                    with pytest.raises(ReproError, match="being updated"):
                        session.read_url(url, server=node)
            elif action == "crash":
                deployment.crash_shard("shard0")
                deployment.recover_shard("shard0")
                updates.clear()
                update = None
            if update is not None:
                updates[doc_id] = update
            seen.add(action if update is None else "open")
            _check(replica, paths)
        if control.supports_update:
            assert {"open", "modified", "unmodified", "abort",
                    "crash"} <= seen


# ---------------------------------------------------------------------------
# E2's loop
# ---------------------------------------------------------------------------
#: Opens of the shorter loop; the longer one runs four times as many.
L = 200


def _e2_loop(mode: ControlMode, opens: int):
    """E2's loop: one rdb/rdd file, one read token of 10 000 s, opened and
    closed *opens* times on fs1.  Returns the DLFM and each open's ledger."""

    system, owner, paths = RunContext().build_microsystem(mode, size=4096)
    url = parse_url(owner.get_datalink(FILES_TABLE, {"file_id": 0}, "doc",
                                       access="read", ttl=10_000.0))
    path = f"{url.directory}/{url.filename};token={url.token}"
    server = system.file_server("fs1")
    stats = system.clocks.stats
    ledgers = []
    for _ in range(opens):
        before = stats.ledger()
        server.lfs.close(server.lfs.open(path, OpenFlags.READ, owner.cred))
        after = stats.ledger()
        ledgers.append({label: (count - before.get(label, (0, 0))[0],
                                ticks - before.get(label, (0, 0))[1])
                        for label, (count, ticks) in after.items()
                        if (count, ticks) != before.get(label)})
    return server.dlfm, paths[0], owner.cred.uid, ledgers


class TestE2LoopIsSteady:
    @pytest.mark.parametrize("mode", [ControlMode.RDB, ControlMode.RDD])
    def test_every_open_charges_the_same_ledger(self, mode):
        for opens in (L, 4 * L):
            dlfm, path, uid, ledgers = _e2_loop(mode, opens)
            assert all(ledger == ledgers[0] for ledger in ledgers)
            assert dlfm.soft.tokens.keys() == {(path, uid, "R")}
            assert dlfm.soft.sync == {}
            assert len(dlfm.repository.db.wal) == \
                len(_e2_loop(mode, 1)[0].repository.db.wal)

    def test_the_added_time_does_not_depend_on_repeats(self):
        added = {}
        for scale in ("smoke", "default"):
            for row in run_experiment("E2", scale).rows:
                if row["mode"] in ("rdb", "rdd"):
                    added[scale, row["mode"]] = row["added_vs_unlinked_ms"]
        assert max(added.values()) - min(added.values()) < 1e-12, added


# ---------------------------------------------------------------------------
# a demoted node keeps no stale writer
# ---------------------------------------------------------------------------
class TestADemotedNodeKeepsNoWriteEntry:
    def test_an_update_cut_off_by_fail_back_blocks_nothing_later(self):
        """An update open on the promoted witness when the lease goes back
        home is rolled back by the home primary, and its client never comes
        back to close it.  The witness, demoted, must not keep the update's
        write entry (its tracking row is gone), or the next time it serves
        it would refuse every update of the file as already in progress."""

        deployment, session = build_deployment(mode=ControlMode.RDD,
                                               recovery=True)
        replica = deployment.replicas["shard0"]
        path = path_on(deployment, "shard0", "cut")
        link(deployment, session, 0, path, b"version 0")
        deployment.system.run_archiver()
        deployment.crash_shard("shard0")
        deployment.fail_over("shard0")
        deployment.recover_shard("shard0")
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="write", ttl=1e9)
        session.update_file(url).begin()
        assert replica.witness.dlfm.soft.sync == {path: [("write", 1001)]}
        deployment.fail_back("shard0")
        assert replica.witness.dlfm.repository.tracking(path) is None
        assert replica.witness.dlfm.soft.sync == {}
        deployment.crash_shard("shard0")
        deployment.fail_over("shard0")
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="write", ttl=1e9)
        with session.update_file(url) as update:
            update.replace(b"version 1")
        assert replica.serving.files.read(path) == b"version 1"
