"""Daemon framework: request demultiplexing with start/stop semantics."""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.simclock import SimClock


class Daemon:
    """A simulated daemon process.

    Subclasses register handlers with :meth:`register` (or by defining
    ``handle_<kind>`` methods).  A stopped daemon refuses requests, which is
    how DLFM crashes are simulated.
    """

    def __init__(self, name: str, clock: SimClock):
        self.name = name
        self.clock = clock
        self.running = True
        self._handlers: dict[str, callable] = {}
        self.requests_served = 0
        # Meter of the per-dispatch charge (see dispatch).
        self._dispatch_meter = clock.meter("daemon_dispatch")
        #: Optional placement-epoch validator: a callable taking the
        #: request's ``placement_epoch`` and raising
        #: :class:`~repro.errors.PlacementEpochError` when it is stale.
        #: DLFM-facing daemons wire this to their manager so a request
        #: routed by an outdated placement map is redirected, never applied.
        self.epoch_gate = None

    def register(self, kind: str, handler) -> None:
        self._handlers[kind] = handler

    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    def dispatch(self, kind: str, payload: dict,
                 placement_epoch: int | None = None) -> dict:
        """Run the handler registered for *kind* with *payload*.

        Charges ``daemon_dispatch``, applies the epoch gate (a ``None``
        epoch means the sender is placement-agnostic -- upcalls, WAL
        shipping -- and no check applies), counts the request and returns
        a fresh payload dict (never the handler's own).  Failures raise:
        an unknown *kind* is a :class:`~repro.errors.ProtocolError`, a
        handler's error propagates as it is.
        """

        # ``clock.charge("daemon_dispatch")`` written out inline: this
        # runs once per upcall/replication message.
        amount, meter = self._dispatch_meter
        self.clock.ticks += amount
        meter[0] += 1
        if self.epoch_gate is not None and placement_epoch is not None:
            self.epoch_gate(placement_epoch)
        try:
            handler = self._handlers[kind]
        except KeyError:
            handler = getattr(self, f"handle_{kind}", None)
            if handler is None:
                raise ProtocolError(
                    f"daemon {self.name!r} does not understand {kind!r}") from None
            # Cache the method-style handler so repeated dispatches of the
            # same kind skip the f-string + getattr probe.
            self._handlers[kind] = handler
        self.requests_served += 1
        result = handler(**payload)
        return dict(result) if result else {}
