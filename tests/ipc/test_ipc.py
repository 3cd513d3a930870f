"""Unit tests for the simulated IPC layer (daemons and channels)."""

import pytest

from repro.errors import DaemonUnavailableError, DataLinksError, ProtocolError
from repro.ipc.channel import Channel
from repro.ipc.daemon import Daemon
from repro.simclock import SimClock


class EchoDaemon(Daemon):
    def __init__(self, clock):
        super().__init__("echo", clock)
        self.register("echo", self._echo)
        self.register("fail", self._fail)

    def _echo(self, text: str) -> dict:
        return {"text": text}

    def _fail(self) -> dict:
        raise DataLinksError("boom")


class TestDaemon:
    def test_dispatch_to_registered_handler(self):
        daemon = EchoDaemon(SimClock())
        assert daemon.dispatch("echo", {"text": "hi"}) == {"text": "hi"}

    def test_unknown_request_kind(self):
        daemon = EchoDaemon(SimClock())
        with pytest.raises(ProtocolError):
            daemon.dispatch("nonsense", {})
        assert daemon.requests_served == 0

    def test_handler_errors_raise(self):
        daemon = EchoDaemon(SimClock())
        with pytest.raises(DataLinksError):
            daemon.dispatch("fail", {})

    def test_request_counter(self):
        daemon = EchoDaemon(SimClock())
        daemon.dispatch("echo", {"text": "a"})
        daemon.dispatch("echo", {"text": "b"})
        assert daemon.requests_served == 2

    def test_handle_method_fallback(self):
        class WithMethod(Daemon):
            def handle_ping(self) -> dict:
                return {"pong": True}

        assert WithMethod("m", SimClock()).dispatch("ping", {}) == {"pong": True}


class TestChannel:
    def test_request_charges_latency(self):
        clock = SimClock()
        daemon = EchoDaemon(clock)
        channel = Channel(daemon, clock, latency_primitive="upcall_round_trip")
        before = clock.now()
        payload = channel.request("echo", text="hello")
        assert payload == {"text": "hello"}
        assert clock.now() > before
        assert clock.stats.count("upcall_round_trip") == 1

    def test_request_to_stopped_daemon_fails(self):
        clock = SimClock()
        daemon = EchoDaemon(clock)
        daemon.stop()
        channel = Channel(daemon, clock)
        with pytest.raises(DaemonUnavailableError):
            channel.request("echo", text="x")
        daemon.start()
        assert channel.request("echo", text="x") == {"text": "x"}

    def test_request_propagates_daemon_error(self):
        clock = SimClock()
        channel = Channel(EchoDaemon(clock), clock)
        with pytest.raises(DataLinksError):
            channel.request("fail")
