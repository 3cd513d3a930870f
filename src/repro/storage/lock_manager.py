"""Strict two-phase locking, no-wait.

The reproduction runs in a single Python thread: "concurrency" is simulated
by workload drivers that interleave operations of several logical
transactions.  Consequently the lock manager never blocks; an acquisition
that cannot be granted raises :class:`LockConflictError` (carrying the
current holders) and the caller decides whether to retry later or abort.
No transaction ever waits for a lock, so no waits-for cycle can form:
no-wait locking is deadlock-free by construction (Bernstein, Hadzilacos &
Goodman, *Concurrency Control and Recovery in Database Systems*, 1987,
ch. 3), and the manager keeps no waits-for graph.
"""

from __future__ import annotations

import enum

from repro.errors import LockConflictError


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

    # -- acquisition -----------------------------------------------------------
    def acquire(self, txn_id: int, resource: object, mode: LockMode) -> bool:
        """Grant *resource* to *txn_id* in *mode* or raise.

        Returns ``True`` on success.  Raises :class:`LockConflictError`
        when the lock is unavailable.
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
                raise LockConflictError(resource, mode, others)

            conflicting = [other for other, held in holders.items()
                           if other != txn_id and not held.compatible_with(mode)]
            if conflicting:
                raise LockConflictError(resource, mode, conflicting)

        holders[txn_id] = mode
        owned = self._owned
        try:
            owned[txn_id].add(resource)
        except KeyError:
            owned[txn_id] = {resource}
        return True

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
