"""Coordinated backup and restore of the host database and its file servers.

Section 4.4: every committed file version carries the database state
identifier current at its commit; when the database is restored to an earlier
point in time, each file server restores its linked files to the newest
archived version whose state identifier does not exceed the restored one, so
database metadata and external files come back mutually consistent.

That rule is also what a file server may forget: a superseded version whose
state-id interval ``[its state id, its successor's)`` holds no retained
backup's state id can never be picked, so its DLFM drops the version and
frees its archive object (:meth:`BackupCoordinator.state_ids`).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from repro.storage.backup import BackupImage
from repro.storage.database import Database


@dataclass
class SystemBackup:
    """One coordinated backup: the host image plus one image per file server."""

    backup_id: int
    state_id: int
    taken_at: float
    host_image: BackupImage
    dlfm_images: dict[str, BackupImage] = field(default_factory=dict)
    label: str = ""


class BackupCoordinator:
    """Drives coordinated backup/restore across the host DB and all DLFMs."""

    def __init__(self, host_db: Database, managers: dict):
        self._host_db = host_db
        self._managers: dict = {}
        #: ``state_id`` of every retained backup, ascending.
        self._state_ids: list[int] = []
        self._next_id = 1
        for name, manager in managers.items():
            self.register_manager(name, manager)

    def register_manager(self, name: str, manager) -> None:
        """Coordinate *manager*, and tell it which database states the
        retained backups can restore (its version retention reads them)."""

        self._managers[name] = manager
        manager.attach_backups(self.state_ids)

    def state_ids(self) -> list[int]:
        """The state ids of the retained backups, ascending.

        A restore to backup *b* reads, per file, the newest version whose
        state id is at most ``b.state_id``; a superseded version that no
        state id here picks is never read again, and its DLFM drops it.
        Backups are retained for the life of the coordinator, so the list
        only grows and a version kept once stays kept.
        """

        return self._state_ids

    # ------------------------------------------------------------------- backup --
    def backup(self, label: str = "") -> SystemBackup:
        """Quiesce archiving, back up every DLFM repository and the host DB."""

        dlfm_images = {}
        for name, manager in sorted(self._managers.items()):
            dlfm_images[name] = manager.backup(label=f"{label}:{name}" if label else name)
        host_image = self._host_db.backup(label)
        backup = SystemBackup(
            backup_id=self._next_id,
            state_id=int(host_image.state_id),
            taken_at=host_image.taken_at,
            host_image=host_image,
            dlfm_images=dlfm_images,
            label=label,
        )
        self._next_id += 1
        insort(self._state_ids, backup.state_id)
        return backup

    # ------------------------------------------------------------------ restore --
    def restore(self, backup: SystemBackup) -> dict:
        """Restore the host DB and every file server to *backup*.

        Returns a mapping of file-server name to the list of file paths whose
        content was rolled back to match the restored database state.
        """

        self._host_db.restore(backup.host_image)
        restored: dict[str, list[str]] = {}
        for name, manager in sorted(self._managers.items()):
            image = backup.dlfm_images.get(name)
            if image is None:
                continue
            restored[name] = manager.restore(image, host_state_id=backup.state_id)
        return restored
