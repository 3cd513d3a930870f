"""Strict two-phase locking with deadlock detection.

The reproduction runs in a single Python thread: "concurrency" is simulated
by workload drivers that interleave operations of several logical
transactions.  Consequently the lock manager never blocks; an acquisition
that cannot be granted raises :class:`LockConflictError` (carrying the
current holders) and the caller decides whether to retry later, abort or
escalate.  Wait-for edges are recorded on conflict so cycles are detected and
reported as :class:`DeadlockError`, mirroring a conventional detector.
"""

from __future__ import annotations

import enum

from repro.errors import DeadlockError, LockConflictError


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class LockManager:
    """Tracks which transaction holds which resource in which mode."""

    def __init__(self):
        # Plain dicts (not defaultdicts): the hot paths below use
        # ``in``/``del``/try-except probes that must not materialize empty
        # entries as a side effect.
        # resource -> {txn_id: LockMode}
        self._holders: dict[object, dict[int, LockMode]] = {}
        # txn_id -> set of resources
        self._owned: dict[int, set[object]] = {}
        # waits-for edges recorded on conflict: waiter -> set of holders
        self._waits_for: dict[int, set[int]] = {}

    # -- acquisition -----------------------------------------------------------
    def acquire(self, txn_id: int, resource: object, mode: LockMode) -> bool:
        """Grant *resource* to *txn_id* in *mode* or raise.

        Returns ``True`` on success.  Raises :class:`DeadlockError` when the
        implied wait would close a cycle and :class:`LockConflictError` when
        the lock is simply unavailable.
        """

        holders_map = self._holders
        try:
            holders = holders_map[resource]
        except KeyError:
            holders = holders_map[resource] = {}
        if holders:
            try:
                current = holders[txn_id]
            except KeyError:
                current = None
            if current is not None:
                if current is LockMode.EXCLUSIVE or current is mode:
                    return True
                # upgrade S -> X: allowed only if we are the sole holder
                others = [other for other in holders if other != txn_id]
                if not others:
                    holders[txn_id] = LockMode.EXCLUSIVE
                    return True
                self._record_wait(txn_id, others)
                raise LockConflictError(resource, mode, others)

            conflicting = [other for other, held in holders.items()
                           if other != txn_id and not held.compatible_with(mode)]
            if conflicting:
                self._record_wait(txn_id, conflicting)
                raise LockConflictError(resource, mode, conflicting)

        holders[txn_id] = mode
        owned = self._owned
        try:
            owned[txn_id].add(resource)
        except KeyError:
            owned[txn_id] = {resource}
        if txn_id in self._waits_for:
            del self._waits_for[txn_id]
        return True

    def try_acquire(self, txn_id: int, resource: object, mode: LockMode) -> bool:
        """Like :meth:`acquire` but returns ``False`` instead of raising on conflict."""

        try:
            return self.acquire(txn_id, resource, mode)
        except (LockConflictError, DeadlockError):
            return False

    def _record_wait(self, waiter: int, holders: list[int]) -> None:
        waits = self._waits_for
        try:
            waits[waiter].update(holders)
        except KeyError:
            waits[waiter] = set(holders)
        if self._has_cycle(waiter):
            self._waits_for.pop(waiter, None)
            raise DeadlockError(
                f"transaction {waiter} would deadlock waiting for {sorted(holders)}")

    def _has_cycle(self, start: int) -> bool:
        seen: set[int] = set()
        stack = list(self._waits_for.get(start, ()))
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._waits_for.get(node, ()))
        return False

    # -- release ----------------------------------------------------------------
    def release_all(self, txn_id: int) -> None:
        """Release every lock held by *txn_id* (end of strict 2PL).

        Strict 2PL releases nothing earlier, so this is the one release:
        it drops *txn_id* from each owned resource's holders in one loop.
        ``acquire`` keeps ``_owned`` and ``_holders`` in lockstep, so every
        owned resource is guarded defensively but normally present.
        """

        owned = self._owned
        if txn_id in owned:
            resources = owned[txn_id]
            del owned[txn_id]
            holders_map = self._holders
            for resource in resources:
                if resource in holders_map:
                    holders = holders_map[resource]
                    if txn_id in holders:
                        del holders[txn_id]
                        if not holders:
                            del holders_map[resource]
        waits = self._waits_for
        if txn_id in waits:
            del waits[txn_id]
        if waits:
            for waiters in waits.values():
                waiters.discard(txn_id)

    # -- inspection ---------------------------------------------------------------
    def holders_of(self, resource: object) -> dict[int, LockMode]:
        return dict(self._holders.get(resource, {}))

    def locks_of(self, txn_id: int) -> set[object]:
        return set(self._owned.get(txn_id, ()))

    def holds(self, txn_id: int, resource: object, mode: LockMode | None = None) -> bool:
        held = self._holders.get(resource, {}).get(txn_id)
        if held is None:
            return False
        if mode is None:
            return True
        return held is mode or held is LockMode.EXCLUSIVE

    def clear(self) -> None:
        self._holders.clear()
        self._owned.clear()
        self._waits_for.clear()
