"""The system against the reference model of Section 4, exhaustively.

Every sequence of state-changing steps -- link, the group link of ``f`` and
``g`` across fs1 and fs2, unlink, archive, an update's open, write and
close, and the two-statement transactions relink (unlink ``f``, link it
again) and link_unlink (link ``f``, unlink it) -- runs on a fresh system
through :class:`~repro.api.session.Session`:
as it is, with each crash of the host, fs1 or both after its last step, and
with each crash inside its last step's commit at every ``commit:*``
failpoint; a close also with the host refusing it, and an archiver run also
with fs1 crashing while the run's first version is staged (its object sent,
its row written, not committed) and once it is durable.  Every crashed
node then restarts.  A step that changes nothing
in the model (a read, a refusal, a rolled-back link or unlink) is not
enumerated (a two-statement transaction is, though its second statement
undoes its first); every run ends with each of them instead
(:func:`probe`), then
aborts an open update, archives and lets bob take the next update, which
must succeed wherever the file is linked in an update mode.  After the run
and after the probe, what every node holds must be what the model says
(:func:`observed` against :func:`expected`), and so must each step's result.

The other prunings, which leave no sequence longer than eight steps:
users are interchangeable, so alice writes first; ``g`` on fs2 never
crashes, so the group link is a sequence's first step, followed by its
unlink at most; one update and one unlink per sequence, which ends at the
link after that unlink (the probe continues it); a two-statement
transaction only as a sequence's last step, link_unlink as its first and
relink right after its first link; a crash inside a commit only for a
close, a sequence's first link, an unlink of both files and a
two-statement transaction, and not for rfd's group link, which commits as
rdd's; rdb, which links and unlinks as rdd does, runs each sequence once,
without a crash; and the group flush policy, which differs only in what an
fs1 crash loses, only where fs1 crashes and not for a two-statement
transaction, whose branch a crash leaves in doubt under either policy.  A
two-statement transaction's refusals are its first statement's, which the
probe's link and unlink make.
"""

from __future__ import annotations

import pytest

from repro.api.system import DataLinksSystem
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.errors import FileSystemError, ReproError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from tests.conftest import (ALICE_UID, BOB_UID, assert_archive_reachable,
                            crash_once_a_version_is_durable,
                            crash_once_a_version_is_staged)
from tests.datalinks.protocol_model import (CRASHED, INITIAL, NO_ROW, OK,
                                            STAGED, VICTIMS, VERSION, State,
                                            Step, crash_points, refused, step,
                                            written)

TABLE = "docs"
#: Each file: its server, path and row.
FILES = {"f": ("fs1", "/data/f.dat", 0), "g": ("fs2", "/data/g.dat", 1)}
UIDS = {"alice": ALICE_UID, "bob": BOB_UID}
MODES = (ControlMode.RDD, ControlMode.RDB, ControlMode.RFD)
MOVES = tuple(Step(kind) for kind in ("link", "link2", "unlink", "archive",
                                      "open", "write", "close", "relink",
                                      "link_unlink"))
#: The steps of more than one statement in one host transaction.
MULTI = {"relink", "link_unlink"}
PROBES = tuple(Step(kind) for kind in ("read", "link", "unlink", "rollback",
                                       "open")) + (Step("open", "bob"),)
#: A file's owner and mode: as created, under full control (the DBMS's,
#: read-only), linked in rfd (read-only) and taken over for an rfd update.
CREATED, CONTROLLED, READ_ONLY, TAKEN_OVER = (
    (ALICE_UID, 0o644), ("dbms", 0o400), (ALICE_UID, 0o444), ("dbms", 0o600))


class ProcessDied(BaseException):
    """The host died at a failpoint: nothing on its stack runs again, not
    even an ``except Exception`` clause."""


def sequences(mode: ControlMode) -> list[tuple[list[Step], State]]:
    """Every sequence of steps that change the model's state, under the
    prunings of the module docstring, with the state before its last."""

    found = []

    def extend(state, prefix):
        kinds = [move.kind for move in prefix]
        for move in MOVES:
            kind = move.kind
            if "unlink" in kinds[:-1] or "link2" in kinds and kind != "unlink" \
                    or kind == "link2" and prefix or MULTI & set(kinds) \
                    or kind == "link_unlink" and prefix \
                    or kind == "relink" and kinds != ["link"] \
                    or kind in ("open", "unlink") and kind in kinds \
                    or kind in ("write", "close") and state.update is None \
                    or kind == "write" and state.update.written:
                continue
            after = step(state, move)[1]
            if after != state or kind in MULTI:
                found.append((prefix + [move], state))
                extend(after, prefix + [move])

    extend(State(mode), [])
    return found


def runs(mode: ControlMode, policy: str) -> dict[str, list[list[Step]]]:
    """``{sequence: its runs}``, each sequence as it is and with each crash
    after it or inside its last step's commit."""

    found = {}
    for sequence, before in sequences(mode):
        *prefix, last = sequence
        if mode is ControlMode.RDB:     # its crashes are rdd's
            if policy == "immediate":
                found[name(sequence)] = [sequence]
            continue
        if last.kind in MULTI and policy == "group":
            continue
        variants = [sequence] + [sequence + [Step("crash", victims=victims)]
                                 for victims in VICTIMS]
        if last.kind == "close" and before.update.written \
                or last.kind == "unlink" and before.g.linked \
                or last.kind == "link" and Step("link") not in prefix \
                or last.kind == "link2" and mode is ControlMode.RDD \
                or last.kind in MULTI:
            variants += [prefix + [last._replace(point=point, victims=victims)]
                         for point, victims in crash_points(last.kind)]
        if last.kind == "close" and before.update.written:
            variants.append(prefix + [Step("refused_close")])
        if last.kind == "archive" and before.f.owed and not before.g.linked:
            variants += [prefix + [Step("archive", point=point,
                                        victims="fs1")]
                         for point in (STAGED, VERSION)]
        found[name(sequence)] = [
            run for run in variants if policy == "immediate"
            or "fs1" in VICTIMS.get(run[-1].victims, ())]
    return found


def name(run: list[Step]) -> str:
    return " ".join(move.kind + f":{move.user}" * (move.user != "alice")
                    + f"@{move.point}" * bool(move.point)
                    + f"/{move.victims}" * bool(move.victims) for move in run)


class System:
    """The real system, driven step by step: one method per step kind, which
    returns what the client saw (``None``: ``OK``)."""

    def __init__(self, mode: ControlMode, policy: str, files: tuple):
        self.files = files
        system = self.system = DataLinksSystem(flush_policy=policy)
        for file in files:
            system.add_file_server(FILES[file][0])
        system.create_table(TableSchema(TABLE, [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(control_mode=mode,
                                                    recovery=True)),
            Column("body_size", DataType.INTEGER),
            Column("body_mtime", DataType.TIMESTAMP),
        ], primary_key=("doc_id",)))
        system.register_metadata_columns(TABLE, "body", "body_size",
                                         "body_mtime")
        self.sessions = {user: system.session(user, uid=uid)
                         for user, uid in UIDS.items()}
        self.urls = {file: self.sessions["alice"].put_file(
            *FILES[file][:2], INITIAL[file]) for file in files}
        system.flush_logs()         # the set-up is durable
        self.update, self.writes = None, 0

    def do(self, move: Step) -> tuple:
        """Run *move*, crashing and restarting what it names; returns what
        the client saw."""

        system, nodes = self.system, VICTIMS.get(move.victims, ())

        def crash():
            for node in nodes:
                system.crash(node)
            if "host" in nodes:
                raise ProcessDied

        if move.point not in (None, STAGED, VERSION):
            system.engine.failpoints[move.point] = crash
        try:
            seen = getattr(self, move.kind)(move) or OK
        except ProcessDied:
            seen = CRASHED
        except ReproError as error:
            seen = refused(type(error).__name__, error.errno.name
                           if isinstance(error, FileSystemError) else None)
        finally:
            system.engine.failpoints.clear()
        if move.kind in ("close", "abort", "refused_close") or "fs1" in nodes:
            self.update = None
        if move.kind == "crash":
            for node in nodes:
                system.crash(node)
        for node in nodes:
            system.restart(node)
        return seen

    def _row(self, file: str) -> dict:
        server, path, doc_id = FILES[file]
        attrs = self.system.file_server(server).files.stat(path)
        return {"doc_id": doc_id, "body": self.urls[file],
                "body_size": attrs.size, "body_mtime": attrs.mtime}

    def link(self, move):
        self.sessions["alice"].insert(TABLE, self._row("f"))

    def link2(self, move):
        """A commit group of two transactions, linking ``f`` and ``g``.  A
        failure aborts what the host did not commit and re-sends the
        commits of what it did."""

        engine = self.system.engine
        group = [engine.begin(), engine.begin()]
        try:
            for host_txn, file in zip(group, ("f", "g")):
                engine.insert(TABLE, self._row(file), host_txn)
            engine.commit(*group)
        except ReproError:
            committed = [host_txn for host_txn in group if self.system
                         .host_db.txn_outcome(host_txn.txn_id) == "committed"]
            for host_txn in group:
                if host_txn not in committed:
                    engine.abort(host_txn)
            engine.redrive_commit(*committed)
            raise

    def unlink(self, move):
        self.sessions["alice"].delete(TABLE, None)

    def relink(self, move):
        """Unlink ``f`` and link it again, in one host transaction."""

        self._transaction(("delete", "insert"))

    def link_unlink(self, move):
        """Link ``f`` and unlink it, in one host transaction."""

        self._transaction(("insert", "delete"))

    def _transaction(self, statements):
        """Run *statements* on ``f``'s row in one host transaction.  A
        failure aborts it if the host did not commit it, and re-sends its
        commits if it did."""

        engine = self.system.engine
        host_txn = engine.begin()
        try:
            for statement in statements:
                if statement == "insert":
                    engine.insert(TABLE, self._row("f"), host_txn)
                else:
                    engine.delete(TABLE, {"doc_id": 0}, host_txn)
            engine.commit(host_txn)
        except ReproError:
            if host_txn.txn.is_finished:
                engine.redrive_commit(host_txn)
            else:
                engine.abort(host_txn)
            raise

    def rollback(self, move):
        """Unlink every file, or link ``f`` when nothing is, and abort."""

        alice = self.sessions["alice"]
        alice.begin()
        try:
            if alice.select(TABLE):
                alice.delete(TABLE, None)
            else:
                alice.insert(TABLE, self._row("f"))
        finally:
            alice.abort()

    def remove(self, move):
        self.sessions["alice"].fs("fs1").unlink(FILES["f"][1])

    def read(self, move):
        alice = self.sessions["alice"]
        url = alice.get_datalink(TABLE, {"doc_id": 0}, "body")
        return NO_ROW if url is None else ("bytes", alice.read_url(url))

    def open(self, move):
        session = self.sessions[move.user]
        url = session.get_datalink(TABLE, {"doc_id": 0}, "body",
                                   access="write")
        if url is None:
            return NO_ROW
        self.update = session.update_file(url).begin()

    def write(self, move):
        self.writes += 1
        self.update.seek(0)
        self.update.write(written(self.writes))

    def close(self, move):
        self.update.commit()

    def abort(self, move):
        self.update.abort()

    def refused_close(self, move):
        """Close while another transaction holds the row the host must
        update."""

        engine = self.system.engine
        blocker = engine.begin()
        engine.select(TABLE, {"doc_id": 0}, blocker, for_update=True)
        try:
            self.update.commit()
        finally:
            engine.abort(blocker)

    def archive(self, move):
        if move.point == STAGED:
            crash_once_a_version_is_staged(self.system, "fs1")
            return CRASHED
        if move.point == VERSION:
            crash_once_a_version_is_durable(self.system, "fs1")
            return CRASHED
        return ("archived", self.system.run_archiver())

    def crash(self, move):
        """:meth:`do` crashes the nodes."""


def observed(real: System, settled: bool) -> dict:
    """What the nodes hold, in the shape of :func:`expected`; *settled*: an
    archiver run ended since the last crash."""

    system, held, mtimes = real.system, {}, {}
    for file in real.files:
        server_name, path, _ = FILES[file]
        server = system.file_server(server_name)
        repository, attrs = server.dlfm.repository, server.files.stat(path)
        links = repository.linked_files()
        mtimes.update((row["path"], row["last_mtime"]) for row in links)
        held[file] = {
            "links": [(row["path"], row["control_mode"], row["last_size"])
                      for row in links],
            "versions": [(version["version_no"], server.dlfm.archive.retrieve(
                version["archive_id"], server.clock))
                for version in repository.versions(path)],
            "jobs": len(repository.pending_archive_jobs(path)),
            "tracking": [row["path"] for row in repository.all_tracking()],
            "branches": server.dlfm.branches.active_host_transactions(),
            "sync": {key: list(entries)
                     for key, entries in server.dlfm.soft.sync.items()},
            "bytes": server.files.read(path),
            "owner": ("dbms" if attrs.uid == server.dbms_uid else attrs.uid,
                      attrs.mode & 0o777)}
    held["host"] = {"rows": {
        row["doc_id"]: (row["body_size"], row["body_mtime"] == mtimes.get(
            FILES["fg"[row["doc_id"]]][1]))
        for row in system.host_db.select(TABLE, lock=False)}}
    assert_archive_reachable(system, settled)
    return held


def expected(state: State, files: tuple) -> dict:
    """What the model says the nodes holding *files* hold in *state*."""

    held, update = {}, state.update
    for file in files:
        path, model = FILES[file][1], getattr(state, file)
        open_here = update if file == "f" else None
        held[file] = {
            "links": [(path, state.mode.value, len(model.content))]
            if model.linked else [],
            "versions": [(model.versions, model.archived)]
            if model.versions else [],
            "jobs": model.owed,
            "tracking": [path] if open_here else [],
            "branches": [],
            "sync": {path: [("write", UIDS[open_here.user])]}
            if open_here else {},
            "bytes": open_here.written if open_here and open_here.written
            else model.content,
            "owner": CREATED if not model.linked else CONTROLLED
            if state.mode.takes_over_on_link else TAKEN_OVER if open_here
            else READ_ONLY}
    held["host"] = {"rows": {
        FILES[file][2]: (len(getattr(state, file).content), True)
        for file in files if getattr(state, file).linked}}
    return held


def probe(state: State) -> list[Step]:
    """The steps every run ends with in *state*: each that changes nothing,
    a remove of a linked file, the abort of an open update, the archiver
    and bob's next update with its read back."""

    ending = [move for move in PROBES if step(state, move)[1] == state]
    ending += [Step("remove")] if state.f.linked else []
    ending += [Step("abort")] if state.update else []
    return ending + [Step("archive"), Step("open", "bob"), Step("write"),
                     Step("close"), Step("archive"), Step("read")]


def play(mode: ControlMode, policy: str, run: list[Step],
         ignore: frozenset = frozenset()) -> None:
    """Run *run* and its probe on a fresh system and on the model; what
    the client saw and what the nodes hold must agree, but for the
    ``(file, part)`` pairs in *ignore*."""

    # ``g`` and its server fs2 take part only in a group link's runs.
    files = ("f", "g") if any(move.kind == "link2" for move in run) \
        else ("f",)
    real, state = System(mode, policy, files), State(mode)
    for after, moves in (("the run", run), ("the probe", None)):
        for move in moves or probe(state):
            if move.kind in ("write", "close") and state.update is None:
                continue                    # the next update was refused
            seen, state = step(state, move)
            assert real.do(move) == seen, f"{after}: {name([move])}"
        held = observed(real, settled=moves is None)
        model = expected(state, files)
        differ = {f"{node}.{part}": {"held": held[node][part], "model": value}
                  for node, parts in model.items()
                  for part, value in parts.items()
                  if (node, part) not in ignore and held[node][part] != value}
        assert not differ, f"after {after}: {differ}"


def loses_compensation(run: list[Step]) -> bool:
    """Whether *run* ends in a link whose branch fs1 lost before it voted
    (a link_unlink's too): the file's owner is left out of such a run's
    comparison (see
    :func:`test_a_link_lost_before_its_vote_gives_its_file_back`)."""

    last = run[-1]
    return last.kind in ("link", "link2", "link_unlink") and \
        last.point == "commit:begin" and "fs1" in VICTIMS[last.victims]


@pytest.mark.parametrize("mode,policy,batch", [
    pytest.param(mode, policy, batch, id=f"{mode.value}-{policy}: {sequence}")
    for mode in MODES for policy in ("immediate", "group")
    for sequence, batch in runs(mode, policy).items()])
def test_the_system_does_what_the_model_says(mode, policy, batch):
    failed = {}
    for run in batch:
        try:
            play(mode, policy, run, frozenset(
                {("f", "owner")} if loses_compensation(run) else ()))
        except AssertionError as error:
            failed[name(run)] = str(error).split("\n")[0]
    assert not failed, failed


#: A link whose branch its file server loses before the vote leaves the
#: file taken over (ROADMAP 21(c)); a link_unlink's link does the same.
lost_before_the_vote = pytest.mark.xfail(strict=True, reason=(
    "a link whose branch its file server lost in a crash before the vote "
    "leaves the file taken over: nothing durable records the constraint "
    "the link applied, so no record of it survives for the restart to "
    "settle"))
taken_over_modes = pytest.mark.parametrize(
    "mode", [ControlMode.RDD, ControlMode.RFD], ids=lambda mode: mode.value)
fs1_victims = pytest.mark.parametrize("victims", ["fs1", "both"])


@lost_before_the_vote
@taken_over_modes
@fs1_victims
def test_a_link_lost_before_its_vote_gives_its_file_back(mode, victims):
    play(mode, "immediate",
         [Step("link", point="commit:begin", victims=victims)])


@lost_before_the_vote
@taken_over_modes
@fs1_victims
def test_a_link_unlink_lost_before_its_vote_gives_its_file_back(mode,
                                                                victims):
    play(mode, "immediate",
         [Step("link_unlink", point="commit:begin", victims=victims)])
