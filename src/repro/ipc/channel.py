"""Channels: the cost-charging path between two simulated processes.

A channel connects a caller's clock domain to a daemon's clock domain and is
where simulated time synchronizes (see :mod:`repro.simclock`):

* :meth:`Channel.request` is a synchronous round trip -- the callee's clock
  max-merges up to the message's send time, the wire latency and the
  handler's work accrue on the callee's timeline, and the caller's clock
  max-merges up to the reply.  Inside an overlap window on the caller
  (:meth:`repro.simclock.SimClock.overlap`) requests to several daemons all
  depart at the window's start and the caller gathers the max reply time,
  which is how a two-phase-commit fan-out overlaps across shards.
* :meth:`Channel.post` is a pipelined send -- the caller pays only the
  ``message_send`` cost and does *not* wait; the callee still syncs to the
  send time and does the work on its own timeline.  Link batches and WAL
  shipping use this, so shard work and replication overlap the sender; a
  file put is the same send to a file server's file system, inside a
  :meth:`~repro.simclock.SimClock.posted` window.

When caller and callee share one clock (an upcall within a file server)
both methods degrade to one latency charge plus the handler's work on the
shared timeline.
"""

from __future__ import annotations

from repro.errors import DaemonUnavailableError, ReproError
from repro.simclock import SimClock


class Channel:
    """A request/reply channel to one daemon.

    ``clock`` is the caller's clock (required, like the daemon's own): the
    channel crosses clock domains exactly when the two are different objects.

    ``latency_primitive`` names the :class:`~repro.simclock.CostModel` entry
    charged per round trip (``upcall_round_trip`` for DLFS-to-DLFM upcalls,
    ``db_dlfm_message`` for DBMS-agent-to-child-agent traffic).

    ``epoch_provider`` (optional) threads the sender's placement epoch
    through every message: the callable is sampled at send time and handed
    to :meth:`~repro.ipc.daemon.Daemon.dispatch`, so the receiving
    daemon's epoch gate can refuse requests routed by a stale placement
    map (see :mod:`repro.datalinks.placement`).
    """

    __slots__ = ("_daemon", "_clock", "_latency_primitive",
                 "_epoch_provider", "_dispatch", "_callee_clock", "_cross",
                 "_caller_lat", "_callee_lat", "_caller_send")

    def __init__(self, daemon, clock: SimClock,
                 latency_primitive: str = "upcall_round_trip",
                 epoch_provider=None):
        self._daemon = daemon
        self._clock = clock
        self._latency_primitive = latency_primitive
        self._epoch_provider = epoch_provider
        # Resolved once: the daemon's dispatch entry point, the callee's
        # clock, and whether this channel crosses clock domains.  Every
        # component assigns its clock in ``__init__`` and never rebinds it,
        # so sampling at channel construction is safe.
        self._dispatch = daemon.dispatch
        self._callee_clock = daemon.clock
        self._cross = clock is not self._callee_clock
        # Meters of the fixed per-message charges, resolved once per channel
        # (the clocks never rebind, see above): the exchange hot path writes
        # the latency/message_send charges out inline against these.
        self._caller_lat = clock.meter(latency_primitive)
        self._caller_send = clock.meter("message_send")
        if self._cross:
            self._callee_lat = self._callee_clock.meter(latency_primitive)

    def request(self, kind: str, **payload) -> dict:
        """Synchronous round trip: send, wait for the reply, merge clocks."""

        return self._exchange(kind, payload, wait=True)

    def post(self, kind: str, **payload) -> dict:
        """Pipelined send: the caller does not wait for the callee.

        The handler still runs (and its errors still raise -- the simulation
        executes synchronously), but only the callee's timeline bears the
        wire latency and the work; the caller pays the ``message_send``
        enqueue cost and keeps going.  Use for traffic whose completion is
        acknowledged at a later barrier (link batches before prepare, WAL
        shipping before promotion).  A handler *error* is not free, though:
        surfacing it at statement time means the caller waited for it, so
        the caller's clock merges up to the callee's completion exactly
        like a synchronous round trip.
        """

        return self._exchange(kind, payload, wait=False)

    def _exchange(self, kind: str, payload: dict, wait: bool) -> dict:
        caller = self._clock
        callee = self._callee_clock
        cross = self._cross
        if not self._daemon.running:
            # The attempt itself takes time on the caller's side (a dead
            # node's clock must not advance): a synchronous request waits a
            # full round trip for the failure, a pipelined send only pays
            # the enqueue cost.
            caller.charge(self._latency_primitive if wait or not cross
                          else "message_send")
            raise DaemonUnavailableError(
                f"daemon {self._daemon.name!r} is not running")
        if cross:
            # sync_ticks(send_ticks()) with both sides inlined: this pair
            # runs once per message and the attribute reads replace two
            # method frames (see SimClock.sync_ticks/send_ticks).
            frames = caller._overlap_frames
            sent = frames[-1][0] if frames else caller.ticks
            if sent > callee.ticks:
                callee.ticks = sent
            # The latency/message_send charges are written out inline too
            # (meters resolved at channel construction): one exchange is
            # two to three fixed charges, each a frame saved.
            amount, meter = self._callee_lat
            callee.ticks += amount
            meter[0] += 1
            if not wait:
                amount, meter = self._caller_send
                caller.ticks += amount
                meter[0] += 1
        else:
            amount, meter = self._caller_lat
            caller.ticks += amount
            meter[0] += 1
        epoch_provider = self._epoch_provider
        epoch = epoch_provider() if epoch_provider is not None else None
        try:
            result = self._dispatch(kind, payload, epoch)
        except ReproError:
            # A pipelined send whose handler failed surfaces the error at
            # statement time, which in real life means the caller waited
            # for the failure to come back: charge the round-trip sync
            # instead of handing the error over for free.
            if cross:
                caller.receive_ticks(callee.ticks)
            raise
        if cross and wait:
            # caller.receive_ticks(callee.ticks), inlined like the send
            # side.
            done = callee.ticks
            frames = caller._overlap_frames
            if frames:
                frame = frames[-1]
                if done > frame[1]:
                    frame[1] = done
            elif done > caller.ticks:
                caller.ticks = done
        return result
