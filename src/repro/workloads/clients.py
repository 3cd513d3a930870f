"""Concurrent client drivers: per-client clock domains behind admission.

:class:`ClientPool` is the shared engine under the E9/E11/E12 concurrency
sweeps.  It owns ``count`` simulated clients -- each a
:class:`~repro.api.session.Session` bound to its own clock domain (see
:meth:`repro.api.system.DataLinksSystem.client_domains`) -- and replays a
caller-supplied operation per client with honest closed-loop semantics:

1. the client *arrives* (its clock's current time);
2. it acquires a host admission slot -- when every slot is busy its clock
   waits (measured queue delay) for the earliest slot to free, FIFO in
   arrival order;
3. it *thinks* for ``think_s`` on its own timeline while holding the
   slot (a persistent connection: an idle-but-connected client still
   occupies its server slot, which is what pins the saturation knee
   exactly at the admission limit);
4. it runs the operation (file-system work syncs client <-> server
   domains, SQL work barriers through the host);
5. it releases the slot.  End-to-end latency is completion minus
   arrival: queue delay + think + service, the number a real client
   would measure.

Operations across clients are interleaved in simulated-arrival order via
a min-heap, so admission arrivals are non-decreasing (the FIFO-fairness
property the admission tests assert).  Pooled domains (``limit``) reuse
one domain for several clients; a popped entry whose domain has advanced
past it (a poolmate ran) is lazily re-pushed at the domain's current
time, preserving arrival order.  When every client rides one clock (a
serial-clock system, or ``limit=1``) the pool runs them round-robin on
it.  After the run the host :func:`~repro.simclock.gather`\\ s every
client domain in one aggregated merge, so elapsed cluster time is the
slowest client's completion.

:func:`closed_loop_sweep` is the one driver of those sweeps: a pool per
swept client count, all steps behind one admission gate.
"""

from __future__ import annotations

import heapq

from repro.simclock import TICKS_PER_SECOND, gather, to_ticks
from repro.workloads.generator import OperationStats


class ClientPool:
    """``count`` concurrent simulated clients with admission and think time.

    ``limit`` pools the client domains (``None`` gives every client its
    own); ``think_s`` is per-operation client think time;
    ``session_factory(username, uid, clock)`` overrides session creation
    (the default goes through ``system.session``).  Admission is whatever
    ``system.admission`` is configured to -- enable it with
    :meth:`~repro.api.system.DataLinksSystem.enable_admission`.
    """

    def __init__(self, system, count: int, *, limit: int | None = None,
                 think_s: float = 0.0, prefix: str = "client",
                 username: str = "client", uid_base: int = 5001,
                 session_factory=None):
        self.system = system
        self.count = count
        self.think_s = think_s
        self._think_ticks = to_ticks(think_s) if think_s > 0.0 else 0
        self.clocks = system.client_domains(count, limit=limit, prefix=prefix)
        if session_factory is None:
            def session_factory(name, uid, clock):
                return system.session(name, uid=uid, clock=clock)
        self.sessions = [session_factory(f"{username}{index}",
                                         uid_base + index, self.clocks[index])
                         for index in range(count)]
        #: Per-operation end-to-end latency / queue delay, simulated seconds.
        self.latency = OperationStats()
        self.queue_delay = OperationStats()
        self.elapsed_s = 0.0

    def sync_clients(self, instant: float | None = None) -> None:
        """Fast-forward every client domain to *instant* (default host now).

        Call before a run whose clients should arrive no earlier than
        the present -- e.g. when the pool outlives host-side work done
        between rounds; otherwise the first operations would measure the
        catch-up to the cluster's current time as latency.
        """

        ticks = self.system.clock.ticks if instant is None \
            else to_ticks(instant)
        for clock in self.clocks:
            clock.sync_ticks(ticks)

    def run(self, ops_per_client, op) -> float:
        """Run the given operations per client; returns elapsed sim-seconds.

        ``ops_per_client`` is an int (same count for every client) or a
        per-client sequence of counts.  ``op(session, client_index,
        op_index)`` performs one operation on the given client session
        (whose clock is ``session.clock``).  Elapsed is measured on the
        host domain across the final gather, so it is the slowest
        client's completion relative to the start.
        """

        host = self.system.clock
        start = host.ticks
        admission = self.system.admission
        if isinstance(ops_per_client, int):
            counts = [ops_per_client] * self.count
        else:
            counts = list(ops_per_client)
            if len(counts) != self.count:
                raise ValueError("one op count per client required")
        if self.count > 0 and any(counts):
            distinct = {id(clock) for clock in self.clocks}
            if len(distinct) == 1:
                self._run_serial(counts, op, admission)
            else:
                self._run_interleaved(counts, op, admission)
        gather(host, self.clocks)
        self.elapsed_s = (host.ticks - start) / TICKS_PER_SECOND
        return self.elapsed_s

    # ------------------------------------------------------------------ internals --
    def _run_one(self, index: int, op_index: int, op, admission) -> None:
        """One client operation: admit -> think -> op -> release."""

        clock = self.clocks[index]
        arrival = clock.ticks
        ticket = admission.acquire(clock) if admission is not None else None
        try:
            # ``clock.advance_local(self.think_s)``, converted once.
            clock.ticks += self._think_ticks
            op(self.sessions[index], index, op_index)
        finally:
            if ticket is not None:
                admission.release(ticket, clock)
        self.latency.record((clock.ticks - arrival) / TICKS_PER_SECOND)
        self.queue_delay.record(ticket.queue_delay if ticket is not None
                                else 0.0)

    def _run_interleaved(self, counts, op, admission) -> None:
        """Heap-ordered replay: always run the earliest-arriving client."""

        clocks = self.clocks
        heap = [(clocks[index].ticks, index, 0)
                for index in range(self.count) if counts[index] > 0]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            entry_time, index, op_index = pop(heap)
            clock = clocks[index]
            now = clock.ticks
            if now > entry_time:
                # A poolmate advanced this shared domain; this client's
                # turn actually starts now.  Re-enter in arrival order.
                push(heap, (now, index, op_index))
                continue
            self._run_one(index, op_index, op, admission)
            next_op = op_index + 1
            if next_op < counts[index]:
                push(heap, (clock.ticks, index, next_op))

    def _run_serial(self, counts, op, admission) -> None:
        """All clients share one clock: round-robin, no heap needed."""

        for op_index in range(max(counts)):
            for index in range(self.count):
                if op_index < counts[index]:
                    self._run_one(index, op_index, op, admission)

    # -------------------------------------------------------------------- results --
    def summary(self) -> dict:
        """Aggregate latency/queue percentiles (ms) and throughput."""

        operations = self.latency.count
        elapsed = self.elapsed_s
        return {
            "operations": operations,
            "elapsed_ms": elapsed * 1000.0,
            "ops_per_sim_s": operations / elapsed if elapsed > 0 else 0.0,
            "latency_p50_ms": self.latency.p50 * 1000.0,
            "latency_p99_ms": self.latency.p99 * 1000.0,
            "latency_mean_ms": self.latency.mean * 1000.0,
            "queue_p50_ms": self.queue_delay.p50 * 1000.0,
            "queue_p99_ms": self.queue_delay.p99 * 1000.0,
        }


def closed_loop_sweep(system, counts, stage, *,
                      admission_limit: int | None = None,
                      think_s: float = 0.0,
                      domain_pool: int | None = None):
    """Sweep closed-loop client counts over *system*: one record per count.

    Each step drives ``count`` clients through a fresh :class:`ClientPool`
    (``think_s`` of think time per operation, at most ``domain_pool``
    distinct clock domains) behind one host admission gate of
    ``admission_limit`` slots shared by all steps (``None``: no gate, no
    saturation knee); the gate comes off when the sweep ends, fails or is
    closed early.  ``stage(step_index, count)`` is a generator holding what
    differs between workloads, resumed at the three points where the driver
    acts: it stages what must exist before the clients do (a pool's domains
    start at the cluster time of its creation) and yields ``(username,
    uid_base)``; receives the new pool, hands out what needs its sessions
    and yields ``(ops_per_client, op)``, the arguments of
    :meth:`ClientPool.run`; and after the run yields its own columns.

    The record is ``clients``, ``operations``, ``ops_per_sim_s``, the
    end-to-end ``latency_{mean,p50,p99}_ms`` (queue delay + think +
    service) and the admission ``queue_{p50,p99}_ms``, rounded as the
    bench artifacts record them, plus the stage's columns.
    """

    if admission_limit is not None:
        system.enable_admission(admission_limit)
    try:
        for step_index, count in enumerate(counts):
            script = stage(step_index, count)
            username, uid_base = next(script)
            pool = ClientPool(system, count, limit=domain_pool,
                              think_s=think_s, username=username,
                              uid_base=uid_base)
            ops_per_client, op = script.send(pool)
            pool.run(ops_per_client, op)
            summary = pool.summary()
            record = {"clients": count,
                      "operations": summary["operations"],
                      "ops_per_sim_s": round(summary["ops_per_sim_s"], 1)}
            for column in ("latency_mean_ms", "latency_p50_ms",
                           "latency_p99_ms", "queue_p50_ms", "queue_p99_ms"):
                record[column] = round(summary[column], 3)
            record.update(next(script))
            yield record
    finally:
        if admission_limit is not None:
            system.disable_admission()
