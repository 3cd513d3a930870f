"""Point-in-time database backup and restore.

Section 4.4 of the paper keys each archived file version to a *database state
identifier* (for example the tail LSN) so that restoring the database to a
past point brings the linked files back to matching versions.  The backup
image therefore records the tail LSN at the time the backup was taken; the
DataLinks backup coordinator uses it to pick file versions on restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BackupError
from repro.util.lsn import LSN


@dataclass
class BackupImage:
    """A full, self-contained copy of the database at one point in time."""

    backup_id: int
    state_id: LSN
    taken_at: float
    catalog_snapshot: dict = field(repr=False, default_factory=dict)
    label: str = ""


class BackupManager:
    """Creates and restores full backups of one database."""

    def __init__(self, database):
        self._database = database
        self._images: dict[int, BackupImage] = {}
        self._next_id = 1

    def create_backup(self, label: str = "") -> BackupImage:
        """Take a full backup; the database must have no active transactions."""

        database = self._database
        if database.active_transactions():
            raise BackupError("cannot take a backup while transactions are active")
        database.clock.charge("backup_per_row", times=max(1, database.total_rows()))
        image = BackupImage(
            backup_id=self._next_id,
            state_id=database.state_identifier(),
            taken_at=database.now(),
            catalog_snapshot=database.catalog.snapshot(),
            label=label,
        )
        self._next_id += 1
        self._images[image.backup_id] = image
        return image

    def restore(self, image: BackupImage) -> LSN:
        """Restore the database to *image*; returns the restored state id."""

        database = self._database
        if image.backup_id not in self._images and image.catalog_snapshot is None:
            raise BackupError(f"unknown backup image {image.backup_id}")
        if database.active_transactions():
            raise BackupError("cannot restore while transactions are active")
        database.clock.charge("backup_per_row", times=max(1, database.total_rows()))
        database.catalog.load_snapshot(image.catalog_snapshot)
        return image.state_id

    def images(self) -> list[BackupImage]:
        return [self._images[key] for key in sorted(self._images)]

    def latest(self) -> BackupImage | None:
        if not self._images:
            return None
        return self._images[max(self._images)]
