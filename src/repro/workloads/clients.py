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

Each client is one actor of :func:`~repro.simclock.interleave`, one
operation per step, so operations across clients run in simulated-arrival
order and admission arrivals are non-decreasing (the FIFO-fairness
property the admission tests assert).  After the run the host
:func:`~repro.simclock.gather`\\ s every client domain in one aggregated
merge, so elapsed cluster time is the slowest client's completion.

:func:`closed_loop_sweep` is the one driver of those sweeps: a pool per
swept client count, all steps behind one admission gate.
"""

from __future__ import annotations

from repro.simclock import TICKS_PER_SECOND, gather, interleave, to_ticks
from repro.workloads.generator import OperationStats


class ClientPool:
    """``count`` concurrent simulated clients with admission and think time.

    Every client gets its own clock domain and a ``system.session`` on
    it; ``think_s`` is per-operation client think time.  Admission is
    whatever ``system.admission`` is configured to -- enable it with
    :meth:`~repro.api.system.DataLinksSystem.enable_admission`.
    """

    def __init__(self, system, count: int, *, think_s: float = 0.0,
                 prefix: str = "client", username: str = "client",
                 uid_base: int = 5001):
        self.system = system
        self.count = count
        self.think_s = think_s
        self._think_ticks = to_ticks(think_s) if think_s > 0.0 else 0
        self.clocks = system.client_domains(count, prefix=prefix)
        self.sessions = [system.session(f"{username}{index}",
                                        uid=uid_base + index, clock=clock)
                         for index, clock in enumerate(self.clocks)]
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
        interleave([(self.clocks[index],
                     _ClientSteps(self, index, count, op, admission))
                    for index, count in enumerate(counts) if count > 0])
        gather(host, self.clocks)
        self.elapsed_s = (host.ticks - start) / TICKS_PER_SECOND
        return self.elapsed_s

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


class _ClientSteps:
    """One client of a :meth:`ClientPool.run` as an
    :func:`~repro.simclock.interleave` actor: each ``next()`` is one
    operation, admit -> think -> op -> release.

    A slotted iterator rather than a generator: a suspended generator
    keeps its frame and its last ticket, about 500 bytes a client, and a
    3 000-client pool holds them all at once.
    """

    __slots__ = ("pool", "index", "count", "op", "admission", "op_index")

    def __init__(self, pool: ClientPool, index: int, count: int, op,
                 admission):
        self.pool, self.index, self.count = pool, index, count
        self.op, self.admission, self.op_index = op, admission, 0

    def __next__(self) -> None:
        op_index = self.op_index
        if op_index == self.count:
            raise StopIteration
        self.op_index = op_index + 1
        pool, index, admission = self.pool, self.index, self.admission
        clock = pool.clocks[index]
        arrival = clock.ticks
        ticket = admission.acquire(clock) if admission is not None else None
        try:
            # ``clock.advance_local(pool.think_s)``, converted once.
            clock.ticks += pool._think_ticks
            self.op(pool.sessions[index], index, op_index)
        finally:
            if ticket is not None:
                admission.release(ticket, clock)
        pool.latency.record((clock.ticks - arrival) / TICKS_PER_SECOND)
        pool.queue_delay.record(ticket.queue_delay if ticket is not None
                                else 0.0)


def closed_loop_sweep(system, counts, stage, *,
                      admission_limit: int | None = None,
                      think_s: float = 0.0):
    """Sweep closed-loop client counts over *system*: one record per count.

    Each step drives ``count`` clients through a fresh :class:`ClientPool`
    (``think_s`` of think time per operation) behind one host admission
    gate of ``admission_limit`` slots shared by all steps (``None``: no
    gate, no saturation knee); the gate comes off when the sweep ends,
    fails or is closed early.  ``stage(step_index, count)`` is a generator
    holding what differs between workloads, resumed at the three points
    where the driver acts: it stages what must exist before the clients
    do (a pool's domains start at the cluster time of its creation) and
    yields ``(username, uid_base)``; receives the new pool, hands out
    what needs its sessions and yields ``(ops_per_client, op)``, the
    arguments of :meth:`ClientPool.run`; and after the run yields its
    own columns.

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
            pool = ClientPool(system, count, think_s=think_s,
                              username=username, uid_base=uid_base)
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
