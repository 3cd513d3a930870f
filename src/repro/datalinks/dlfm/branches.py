"""Resource-manager branches: DLFM sub-transactions of host transactions.

"The operations done in DLFM are treated as a sub-transaction of the host
database transaction" (Section 2.2).  A *branch* pairs a host transaction id
with a local transaction in the DLFM repository; the DataLinks engine drives
the branch through prepare/commit/abort as the two-phase-commit coordinator.
The branch's file-system half follows its outcome: a commit or an abort
settles its records (:func:`~repro.datalinks.dlfm.link_manager.settle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datalinks.dlfm.files import FileServerFiles
from repro.datalinks.dlfm.link_manager import HANDOFF, settle
from repro.errors import TransactionNotActive
from repro.storage.database import Database
from repro.storage.transaction import Transaction


@dataclass
class Branch:
    """One DLFM sub-transaction."""

    host_txn_id: int
    local_txn: Transaction
    #: The archive jobs the branch wrote, job id by path; such a job is
    #: dated by the host commit the branch commits on.
    jobs: dict[str, int] = field(default_factory=dict)
    #: The prefix the branch hands off (a rebalance export), named in its
    #: vote so that every outcome path leaves the files to the sweep.
    handoff: str | None = None
    #: The link rows the branch deleted, by path: a link of one of them
    #: in the branch starts from the file its unlink gives back.
    unlinked: dict[str, dict] = field(default_factory=dict)


class BranchManager:
    """Tracks the branches the DLFM holds for host transactions."""

    def __init__(self, database: Database, files: FileServerFiles):
        self._db = database
        self._files = files
        self._branches: dict[int, Branch] = {}

    def branch_for(self, host_txn_id: int) -> Branch:
        """Return the branch for *host_txn_id*, starting one when needed."""

        branch = self._branches.get(host_txn_id)
        if branch is None:
            branch = Branch(host_txn_id=host_txn_id, local_txn=self._db.begin())
            self._branches[host_txn_id] = branch
        return branch

    def has_branch(self, host_txn_id: int) -> bool:
        return host_txn_id in self._branches

    def get(self, host_txn_id: int) -> Branch:
        try:
            return self._branches[host_txn_id]
        except KeyError:
            raise TransactionNotActive(
                f"no DLFM branch for host transaction {host_txn_id}") from None

    def prepare(self, host_txn_id: int) -> bool:
        """Vote on the branch; returns ``False`` when there is nothing to prepare.

        The host transaction id is written into the durable PREPARE record so
        an in-doubt branch found after a crash can be mapped back to its host
        transaction and resolved from the coordinator's durable outcome.
        """

        if host_txn_id not in self._branches:
            return False
        branch = self._branches[host_txn_id]
        vote = {"host_txn_id": host_txn_id}
        if branch.handoff is not None:
            vote[HANDOFF] = branch.handoff
        self._db.prepare(branch.local_txn, extra=vote)
        return True

    def commit(self, host_txn_id: int) -> Branch | None:
        """Commit the branch; returns it, or ``None`` when there is none."""

        if host_txn_id not in self._branches:
            return None
        branch = self._branches.pop(host_txn_id)
        if branch.local_txn.state.name == "PREPARED":
            self._db.commit_prepared(branch.local_txn)
        else:
            self._db.commit(branch.local_txn)
        settle(self._files, branch.local_txn.records, committed=True)
        return branch

    def abort(self, host_txn_id: int) -> None:
        if host_txn_id not in self._branches:
            return
        txn = self._branches.pop(host_txn_id).local_txn
        if txn.state.name == "PREPARED":
            self._db.abort_prepared(txn)
        elif txn.is_finished:
            return
        else:
            self._db.abort(txn)
        settle(self._files, txn.records, committed=False)

    def clear(self) -> None:
        """Forget all in-memory branch state (after a crash)."""

        self._branches.clear()

    def active_host_transactions(self) -> list[int]:
        return sorted(self._branches)

    def prepared_host_transactions(self) -> list[int]:
        """Host transaction ids whose live branch has voted PREPARE."""

        return sorted(host_txn_id for host_txn_id, branch in self._branches.items()
                      if branch.local_txn.state.name == "PREPARED")
