"""Version retention against a restore oracle, and release on a replicated shard.

A DLFM keeps, per linked file, its newest version and every superseded
version a retained backup would restore (Section 4.4: the newest version
whose state id does not exceed the backup's), and frees the archive object
of each version it drops.  Two oracles that are not the code hold it:

* a plain model of the committed bytes, recorded at each backup, against
  seeded histories of updates, archiver runs, backups and file-server
  crashes: every backup restores its own bytes, each chain is at most one
  longer than the number of backups picking one of its versions, and the
  archive holds exactly the objects the live repository or a backup image
  names;
* on a replicated shard, an object is freed only once its dropping
  transaction has reached the witness: a witness promoted before the drop
  shipped still restores its newest version.
"""

from __future__ import annotations

import random

import pytest

from repro.datalinks.control_modes import ControlMode
from tests.conftest import (FILES_TABLE, SHARD_TABLE, InjectedCrash, boom,
                            build_deployment, build_system, link_docs,
                            prefix_on)

FILES, STEPS = 3, 60


def _image_archive_ids(image) -> set:
    rows = image.catalog_snapshot["heaps"]["file_versions"]["rows"]
    return {row["archive_id"] for row in rows.values()}


class TestRestoreOracle:
    @pytest.mark.parametrize("seed", [3, 29, 20261016])
    def test_every_backup_restores_what_the_model_recorded(self, seed):
        rng = random.Random(seed)
        system, alice, paths, _ = build_system(ControlMode.RFD, files=FILES)
        dlfm = system.file_server("fs1").dlfm
        content = {path: system.file_server("fs1").files.read(path)
                   for path in paths}
        backups = []            # (SystemBackup, {path: bytes} at the backup)
        for step in range(STEPS):
            action = rng.random()
            if action < 0.6:
                doc_id = rng.randrange(FILES)
                path = paths[doc_id]
                if dlfm.has_pending_archives(path):
                    system.run_archiver()   # a queued job blocks the update
                url = alice.get_datalink(FILES_TABLE, {"doc_id": doc_id},
                                         "body", access="write")
                content[path] = f"{seed}:{step}:{doc_id}".encode()
                with alice.update_file(url, truncate=True) as update:
                    update.replace(content[path])
            elif action < 0.75:
                system.run_archiver()
            elif action < 0.9:
                backups.append((system.backup(f"b{step}"), dict(content)))
            else:
                system.crash("fs1")
                system.restart("fs1")
            self._check_chains(dlfm, paths, [backup for backup, _ in backups])
            self._check_archive(system, dlfm, [backup for backup, _ in backups])
        assert len(backups) >= 3
        for backup, recorded in rng.sample(backups, len(backups)):
            system.restore(backup)
            assert {path: system.file_server("fs1").files.read(path)
                    for path in paths} == recorded

    @staticmethod
    def _check_chains(dlfm, paths, backups) -> None:
        states = [backup.state_id for backup in backups]
        for path in paths:
            chain = dlfm.repository.versions(path)
            picking = sum(any(version["state_id"] <= state for version in chain)
                          for state in states)
            assert 1 <= len(chain) <= 1 + picking, (path, chain)
            # Each superseded version is some backup's pick.
            for version, successor in zip(chain, chain[1:]):
                assert any(version["state_id"] <= state < successor["state_id"]
                           for state in states), (path, version, states)

    @staticmethod
    def _check_archive(system, dlfm, backups) -> None:
        named = {row["archive_id"] for row in
                 dlfm.repository.db.select("file_versions", lock=False)}
        for backup in backups:
            named |= _image_archive_ids(backup.dlfm_images["fs1"])
        # Immediate commit and no witness: every release is due at once,
        # so nothing waits in the queue and nothing leaks.
        assert set(system.archive._objects) == named


def _update(session, content: bytes) -> None:
    url = session.get_datalink(SHARD_TABLE, {"doc_id": 0}, "body",
                               access="write", ttl=1e9)
    with session.update_file(url, truncate=True) as update:
        update.replace(content)


class TestReplicatedRelease:
    @staticmethod
    def _linked():
        deployment, session = build_deployment(flush_policy="group",
                                               group_commit_window=8)
        prefix = prefix_on(deployment, "shard0")
        link_docs(deployment, session, prefix, [0])
        primary = deployment.system.file_server("shard0").dlfm
        (initial,) = primary.repository.versions(f"{prefix}/doc000.dat")
        return deployment, session, primary, f"{prefix}/doc000.dat", initial

    def test_no_release_while_the_drop_is_not_durable_or_not_shipped(self):
        deployment, session, primary, path, initial = self._linked()
        archive, replica = deployment.system.archive, deployment.replicas["shard0"]
        wal = primary.repository.db.wal
        _update(session, b"first")
        # Step the archiver by hand: its one job has dropped version 1, and
        # the drop's commit waits in the group-commit window.
        steps = primary.archive_steps()
        assert next(steps) == 1
        assert wal.flushed_lsn < wal.tail_lsn()
        assert archive.exists(initial["archive_id"])
        # The run ends by forcing the log: durable now, but the paused
        # witness has not received it.
        replica.shipper.pause()
        assert list(steps) == []
        assert wal.flushed_lsn == wal.tail_lsn()
        assert wal.flushed_lsn > replica.shipper.cursor == wal.shipped_lsn()
        assert archive.exists(initial["archive_id"])
        assert [v["version_no"] for v in
                replica.witness.dlfm.repository.versions(path)] == [1]
        replica.shipper.resume()
        replica.shipper.ship()
        deployment.system.run_archiver()
        assert not archive.exists(initial["archive_id"])
        assert [v["version_no"] for v in
                replica.witness.dlfm.repository.versions(path)] == [2]

    def test_a_witness_promoted_before_the_drop_shipped_restores(self):
        deployment, session, primary, path, _ = self._linked()
        witness = deployment.replicas["shard0"].witness.dlfm
        _update(session, b"first")
        deployment.system.run_archiver()
        _update(session, b"second")
        deployment.system.flush_logs()          # the update and its job ship
        # Version 3 drops version 2; the run's closing log force is the
        # drop's shipment, and the primary crashes as it leaves.
        deployment.engine.failpoints["replicate:ship:shard0"] = boom(
            lambda: deployment.crash("shard0"))
        with pytest.raises(InjectedCrash):
            deployment.system.run_archiver()
        deployment.engine.failpoints.clear()
        deployment.fail_over("shard0")
        (newest,) = witness.repository.versions(path)
        assert newest["version_no"] == 2
        assert deployment.system.archive.retrieve(
            newest["archive_id"], witness.clock) == b"first"
        url = session.get_datalink(SHARD_TABLE, {"doc_id": 0}, "body",
                                   access="read", ttl=1e9)
        assert deployment.read_url(session, url) == b"first"
