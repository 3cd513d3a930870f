"""Concurrent editors: update-in-place vs. check-in/check-out vs. copy-and-update.

Section 3 motivates update-in-place by comparing it against CICO (long-lived
database locks, poor concurrency if applications hoard files) and CAU
(private copies, no locks, lost updates "believe it or not ... used by many
development labs").  This workload simulates a team of editors repeatedly
editing a shared set of files under each scheme and measures:

* completed edits and edits per simulated second,
* acquisition conflicts (a writer was turned away),
* lost updates (CAU with blind overwrite) / merge conflicts (CAU with detect),
* mean time a file stays unavailable to other writers.

Concurrency is simulated by interleaving editor state machines on a global
tick; every tick advances the simulated clock by ``think_seconds`` so lock
hold times reflect human think time, not just code path length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.api.system import DataLinksSystem
from repro.datalinks.baselines.cau import CopyAndUpdateManager
from repro.datalinks.baselines.cico import CheckInCheckOutManager
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.errors import CheckoutConflictError, FileSystemError, MergeConflictError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.generator import WorkloadMetrics, make_content

DOCUMENTS_TABLE = "documents"
FIRST_EDITOR_UID = 4000
SHARED_GID = 100
#: The file server holding the shared documents.
SERVER = "teamfs"
#: Seed of the editors' choice of file.
SEED = 11
#: A run that has not finished after this many ticks stops and counts
#: ``aborted_run``.
MAX_TICKS = 10_000

SCHEME_UIP = "uip"
SCHEME_CICO = "cico"
SCHEME_CAU_OVERWRITE = "cau-overwrite"
SCHEME_CAU_DETECT = "cau-detect"
ALL_SCHEMES = (SCHEME_UIP, SCHEME_CICO, SCHEME_CAU_OVERWRITE, SCHEME_CAU_DETECT)


@dataclass
class EditorConfig:
    editors: int = 4
    files: int = 2
    edits_per_editor: int = 5
    think_ticks: int = 3
    think_seconds: float = 0.5
    file_size: int = 4 * 1024
    scheme: str = SCHEME_UIP


@dataclass
class _Editor:
    userid: int
    session: object
    remaining: int
    state: str = "idle"                 # idle | editing
    ticks_left: int = 0
    target: int | None = None
    context: dict = field(default_factory=dict)
    acquired_at: float = 0.0


class ConcurrentEditorsWorkload:
    """Interleaved editors working on shared files under one update scheme."""

    def __init__(self, config: EditorConfig, system: DataLinksSystem | None = None):
        if config.scheme not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {config.scheme!r}")
        self.config = config
        self.system = system if system is not None else DataLinksSystem()
        self.paths: list[str] = []
        self.urls: list[str] = []
        self._editors: list[_Editor] = []
        self._rng = random.Random(SEED)
        self.cico: CheckInCheckOutManager | None = None
        self.cau: CopyAndUpdateManager | None = None
        self._versions = 0

    # -------------------------------------------------------------------- setup --
    def setup(self) -> "ConcurrentEditorsWorkload":
        config = self.config
        if SERVER not in self.system.file_servers:
            self.system.add_file_server(SERVER)
        file_server = self.system.file_server(SERVER)

        # With UIP the files are linked in rfd mode (database-managed update);
        # the baselines work on unlinked, group-writable files so that the
        # scheme itself is the only difference.
        link = config.scheme == SCHEME_UIP
        self.system.create_table(TableSchema(DOCUMENTS_TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFD)),
            Column("body_size", DataType.INTEGER),
            Column("body_mtime", DataType.TIMESTAMP),
        ], primary_key=("doc_id",)))
        self.system.register_metadata_columns(DOCUMENTS_TABLE, "body",
                                              "body_size", "body_mtime")

        owner = self.system.session("teamlead", uid=FIRST_EDITOR_UID - 1, gid=SHARED_GID)
        for doc_id in range(config.files):
            path = f"/team/doc{doc_id:04d}.txt"
            content = make_content(config.file_size, tag=f"doc{doc_id}", version=0)
            url = owner.put_file(SERVER, path, content)
            file_server.raw_lfs.chmod(path, 0o664, owner_cred(self.system))
            self.paths.append(path)
            self.urls.append(url)
            if link:
                owner.insert(DOCUMENTS_TABLE, {
                    "doc_id": doc_id, "body": url,
                    "body_size": len(content), "body_mtime": 0.0,
                })
        self.system.clocks.barrier()    # staged copies settle before the run
        if link:
            self.system.run_archiver()

        if config.scheme == SCHEME_CICO:
            self.cico = CheckInCheckOutManager(self.system.host_db, self.system.clock)
        if config.scheme in (SCHEME_CAU_OVERWRITE, SCHEME_CAU_DETECT):
            self.cau = CopyAndUpdateManager({SERVER: file_server.files})

        for index in range(config.editors):
            uid = FIRST_EDITOR_UID + index
            session = self.system.session(f"editor{index}", uid=uid, gid=SHARED_GID)
            self._editors.append(_Editor(userid=uid, session=session,
                                         remaining=config.edits_per_editor))
        return self

    # ---------------------------------------------------------------------- run --
    def run(self) -> WorkloadMetrics:
        config = self.config
        clock = self.system.clock
        metrics = WorkloadMetrics(started_at=clock.now())
        ticks = 0
        while any(e.remaining > 0 or e.state == "editing" for e in self._editors):
            ticks += 1
            if ticks > MAX_TICKS:
                metrics.bump("aborted_run")
                break
            clock.advance(config.think_seconds)
            for editor in self._editors:
                self._step(editor, metrics)
        metrics.finished_at = clock.now()
        metrics.bump("ticks", ticks)
        if self.cau is not None:
            metrics.counters["lost_updates"] = self.cau.lost_updates
            metrics.counters["merge_conflicts"] = self.cau.conflicts_detected
        if self.cico is not None:
            metrics.counters["checkout_conflicts"] = self.cico.conflicts
        self.system.run_archiver()
        return metrics

    # -------------------------------------------------------------- state machine --
    def _step(self, editor: _Editor, metrics: WorkloadMetrics) -> None:
        if editor.state == "idle":
            if editor.remaining <= 0:
                return
            target = self._rng.randrange(self.config.files)
            if self._try_acquire(editor, target, metrics):
                editor.state = "editing"
                editor.ticks_left = self.config.think_ticks
                editor.target = target
                editor.acquired_at = self.system.clock.now()
            return
        # editing
        editor.ticks_left -= 1
        if editor.ticks_left > 0:
            return
        self._finish_edit(editor, metrics)
        editor.state = "idle"
        editor.remaining -= 1
        editor.target = None
        editor.context = {}

    def _try_acquire(self, editor: _Editor, target: int, metrics: WorkloadMetrics) -> bool:
        scheme = self.config.scheme
        path = self.paths[target]
        try:
            if scheme == SCHEME_UIP:
                url = editor.session.get_datalink(DOCUMENTS_TABLE, {"doc_id": target},
                                                  "body", access="write")
                update = editor.session.update_file(url, truncate=True)
                update.begin()
                editor.context = {"update": update}
            elif scheme == SCHEME_CICO:
                self.cico.check_out(SERVER, path, editor.userid)
                editor.context = {}
            else:
                copy = self.cau.make_copy(SERVER, path, editor.userid)
                editor.context = {"copy": copy}
            metrics.bump("acquisitions")
            return True
        except (FileSystemError, CheckoutConflictError):
            metrics.bump("conflicts")
            return False

    def _finish_edit(self, editor: _Editor, metrics: WorkloadMetrics) -> None:
        scheme = self.config.scheme
        config = self.config
        path = self.paths[editor.target]
        self._versions += 1
        content = make_content(config.file_size, tag=f"edit{editor.userid}",
                               version=self._versions)
        clock = self.system.clock
        try:
            if scheme == SCHEME_UIP:
                update = editor.context["update"]
                update.replace(content)
                update.commit()
                self.system.run_archiver()
            elif scheme == SCHEME_CICO:
                self._write_shared(path, editor, content)
                self.cico.check_in(SERVER, path, editor.userid)
            else:
                copy = editor.context["copy"]
                self.cau.write_copy(copy, content)
                policy = "overwrite" if scheme == SCHEME_CAU_OVERWRITE else "detect"
                try:
                    self.cau.check_in(copy, policy=policy)
                except MergeConflictError:
                    metrics.bump("rejected_checkins")
                    return
            metrics.bump("completed_edits")
            metrics.record("edit_session", clock.now() - editor.acquired_at)
        except FileSystemError:
            metrics.bump("failed_edits")

    def _write_shared(self, path: str, editor: _Editor, content: bytes) -> None:
        file_server = self.system.file_server(SERVER)
        file_server.lfs.write_file(path, content, editor.session.cred, create=False)


def owner_cred(system: DataLinksSystem):
    """Superuser credentials used for one-off permission fixes during setup."""

    from repro.fs.vfs import Credentials

    return Credentials(uid=0, gid=0, username="root")


def compare_schemes(config: EditorConfig | None = None) -> dict[str, WorkloadMetrics]:
    """Run the same editor population under every scheme; returns per-scheme metrics."""

    base = config if config is not None else EditorConfig()
    results: dict[str, WorkloadMetrics] = {}
    for scheme in ALL_SCHEMES:
        scheme_config = EditorConfig(**{**base.__dict__, "scheme": scheme})
        workload = ConcurrentEditorsWorkload(scheme_config).setup()
        results[scheme] = workload.run()
    return results
