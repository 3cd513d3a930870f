"""Host-side admission control for simulated client sessions.

The paper's testbed served every client through one host database with a
bounded agent pool; the reproduction models that stage explicitly so the
session sweep saturates for the honest reason -- queueing -- instead of
Python-side cache and table effects.  An :class:`AdmissionController`
owns ``limit`` connection slots.  A client acquires a slot before an
operation and releases it afterwards; when every slot is busy the client
*waits*, and the wait is charged to the client's own clock domain (its
timeline jumps forward to the instant a slot frees up), so measured
end-to-end latency includes queue delay.

Fairness is FIFO in simulated arrival time: the drivers
(:class:`repro.workloads.clients.ClientPool`) present operations in
non-decreasing client-clock order, and :meth:`acquire` always hands the
earliest-freeing slot to the caller, so no later arrival can overtake an
earlier one and queued clients drain round-robin.  The controller is
pure simulation bookkeeping -- a min-heap of slot free times, in clock
ticks so ordering is exact -- and adds O(log limit) work per operation
regardless of how many clients queue.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.simclock import TICKS_PER_SECOND


class AdmissionTicket:
    """One admitted operation: arrival, admission instant, queue delay.

    ``released_at`` is stamped by :meth:`AdmissionController.release`;
    the slot was held over the simulated interval ``[admitted_at,
    released_at)`` (what the connection-limit property test counts).
    """

    __slots__ = ("arrival", "admitted_at", "queue_delay", "released_at")

    def __init__(self, arrival: int, admitted_at: int):
        """Both instants are clock ticks; the ticket reports seconds."""

        self.arrival = arrival / TICKS_PER_SECOND
        self.admitted_at = admitted_at / TICKS_PER_SECOND
        self.queue_delay = (admitted_at - arrival) / TICKS_PER_SECOND
        self.released_at = None


class AdmissionController:
    """A ``limit``-slot connection gate with measured queue delay.

    ``acquire(clock)`` blocks (in simulated time) until a slot is free:
    the client's clock syncs forward to ``max(arrival, earliest slot free
    time)`` and the difference is the queue delay, recorded on the
    returned :class:`AdmissionTicket` and in the aggregate counters.
    ``release(ticket, clock)`` returns the slot, free from the client's
    *current* time -- so a slot held across think time and service models
    a persistent connection, which is what makes throughput flatten at
    the connection limit (the saturation knee) while latency keeps
    growing with the number of queued clients.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("admission limit must be at least 1")
        self.limit = limit
        #: Min-heap of slot free times (ticks); ``limit`` entries, always
        #: full -- acquire replaces the popped entry at release time.
        self._free: list[int] = [0] * limit
        self._held = 0
        self.admitted = 0
        self.queued = 0
        self._total_delay_ticks = 0
        self._max_delay_ticks = 0
        self.max_held = 0

    def acquire(self, clock) -> AdmissionTicket:
        """Admit *clock*'s client, charging any queue delay to its timeline."""

        if self._held >= self.limit:
            raise RuntimeError(
                f"admission controller over-committed: {self._held} slots "
                f"held with limit {self.limit}")
        arrival = clock.ticks
        free_at = heappop(self._free)
        start = free_at if free_at > arrival else arrival
        delay = start - arrival
        if delay > 0:
            clock.sync_ticks(start)
            self.queued += 1
            self._total_delay_ticks += delay
            if delay > self._max_delay_ticks:
                self._max_delay_ticks = delay
        self.admitted += 1
        self._held += 1
        if self._held > self.max_held:
            self.max_held = self._held
        return AdmissionTicket(arrival, start)

    def release(self, ticket: AdmissionTicket, clock) -> None:
        """Return *ticket*'s slot, free from the client's current time."""

        released = clock.ticks
        ticket.released_at = released / TICKS_PER_SECOND
        heappush(self._free, released)
        self._held -= 1

    def stats(self) -> dict:
        """Aggregate admission counters for reporting."""

        return {
            "limit": self.limit,
            "admitted": self.admitted,
            "queued": self.queued,
            "max_held": self.max_held,
            "total_queue_delay_ms":
                self._total_delay_ticks * 1000 / TICKS_PER_SECOND,
            "max_queue_delay_ms":
                self._max_delay_ticks * 1000 / TICKS_PER_SECOND,
        }
