"""Client clock domains, admission control, and the concurrency sweeps.

Three suites:

* seeded property tests for :class:`repro.api.admission.AdmissionController`
  -- FIFO fairness under random arrival interleavings, non-negative queue
  delay that grows with queue depth, and a connection limit that is never
  exceeded (counted over the simulated ``[admitted_at, released_at)``
  hold intervals, since the Python call stack itself never nests);
* equivalence tests for per-client clock domains -- a single-client
  sweep is byte-identical whether the client owns a domain or rides the
  host clock;
* invariant tests for multi-client runs -- per-domain monotonicity and
  ``global_now`` dominance, the same contract
  ``tests/test_clock_domains.py`` pins for the node domains.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.api.admission import AdmissionController
from repro.api.system import DataLinksSystem
from repro.errors import FileSystemError
from repro.simclock import ClockDomainGroup, SimClock, gather
from repro.workloads.clients import ClientPool, closed_loop_sweep
from repro.workloads.failover import FailoverConfig, FailoverWorkload
from repro.workloads.webserver import WebServerWorkload, WebSiteConfig


class TestAdmissionProperties:
    """Seeded property tests over random arrival interleavings."""

    @pytest.mark.parametrize("seed", [7, 41, 1999])
    def test_fifo_queue_delay_and_connection_limit(self, seed):
        rng = random.Random(seed)
        limit = rng.randint(1, 4)
        controller = AdmissionController(limit)
        arrivals = sorted(rng.uniform(0.0, 2.0)
                          for _ in range(rng.randint(20, 60)))
        tickets = []
        for arrival in arrivals:
            clock = SimClock(start=arrival)
            ticket = controller.acquire(clock)
            # Queue delay is exactly the jump charged to the client.
            assert ticket.queue_delay >= 0.0
            assert clock.now() == pytest.approx(ticket.admitted_at)
            assert ticket.admitted_at >= ticket.arrival
            clock.advance(rng.uniform(0.001, 0.2))   # service time
            controller.release(ticket, clock)
            assert ticket.released_at == pytest.approx(clock.now())
            tickets.append(ticket)

        # FIFO fairness: with arrivals presented in non-decreasing order
        # no later arrival is admitted before an earlier one.
        admitted = [ticket.admitted_at for ticket in tickets]
        assert all(later >= earlier
                   for earlier, later in zip(admitted, admitted[1:]))

        # The connection limit holds over simulated time: at no instant
        # do more than ``limit`` hold intervals overlap.
        events = []
        for ticket in tickets:
            events.append((ticket.admitted_at, 1))
            events.append((ticket.released_at, -1))
        held = max_held = 0
        for _, delta in sorted(events, key=lambda event: (event[0], event[1])):
            held += delta
            max_held = max(max_held, held)
        assert max_held <= limit
        stats = controller.stats()
        assert stats["admitted"] == len(tickets)
        assert stats["limit"] == limit

    def test_queue_delay_grows_with_queue_depth(self):
        """N same-instant arrivals with fixed service time: the k-th
        client waits ceil((k+1-limit)/limit) service slots -- delay is
        monotone non-decreasing in position."""

        limit, service, clients = 2, 0.1, 9
        controller = AdmissionController(limit)
        delays = []
        for _ in range(clients):
            clock = SimClock(start=1.0)
            ticket = controller.acquire(clock)
            clock.advance(service)
            controller.release(ticket, clock)
            delays.append(ticket.queue_delay)
        assert all(later >= earlier
                   for earlier, later in zip(delays, delays[1:]))
        assert delays[0] == 0.0
        assert delays[-1] == pytest.approx(
            service * ((clients - 1) // limit))

    def test_over_commit_is_rejected(self):
        controller = AdmissionController(1)
        clock = SimClock()
        controller.acquire(clock)
        with pytest.raises(RuntimeError):
            controller.acquire(clock)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


class TestSessionDomainShape:
    """session_domains() shape: one fresh domain per client."""

    def test_each_client_gets_its_own_domain(self):
        group = ClockDomainGroup()
        clocks = group.session_domains(5, prefix="c")
        assert len(clocks) == 5
        assert len({id(clock) for clock in clocks}) == 5

    def test_domains_start_at_the_base_time(self):
        group = ClockDomainGroup()
        base = group.domain("host")
        base.advance(1.5)
        clocks = group.session_domains(3, base, prefix="late")
        assert all(clock.now() == pytest.approx(1.5) for clock in clocks)

    def test_gather_merges_through_the_target(self):
        group = ClockDomainGroup()
        host = group.domain("host")
        clients = group.session_domains(3, host, prefix="g")
        clients[0].advance_local(0.5)
        clients[2].advance_local(1.25)
        instant = gather(host, clients)
        assert instant == pytest.approx(1.25)
        assert host.now() == pytest.approx(1.25)
        assert all(clock.now() == pytest.approx(1.25) for clock in clients)


class _ClosureProxy:
    """The proxy :class:`SyncedFileSystem` replaced -- one closure per
    method per instance, made on first use -- kept as the reference for
    the bracket's semantics."""

    def __init__(self, lfs, client_clock, server_clock):
        self._lfs = lfs
        self._client_clock = client_clock
        self._server_clock = server_clock

    def __getattr__(self, name):
        attribute = getattr(self._lfs, name)
        client, server = self._client_clock, self._server_clock

        def synced_call(*args, **kwargs):
            frames = client._overlap_frames
            instant = frames[-1][0] if frames else client.ticks
            if instant > server.ticks:
                server.ticks = instant
            try:
                return attribute(*args, **kwargs)
            finally:
                instant = server.ticks
                frames = client._overlap_frames
                if frames:
                    frame = frames[-1]
                    if instant > frame[1]:
                        frame[1] = instant
                elif instant > client.ticks:
                    client.ticks = instant

        self.__dict__[name] = synced_call
        return synced_call


class TestSyncedFileSystemProxy:
    BRACKETED = ("open", "close", "read", "write", "lseek", "stat", "fstat",
                 "exists", "unlink", "rename", "mkdir", "makedirs", "chmod",
                 "chown", "read_file", "write_file")

    def test_pooled_proxies_hold_three_references_and_no_functions(self):
        from repro.api.session import SyncedFileSystem, synced_lfs

        system = DataLinksSystem()
        servers = [system.add_file_server(f"fs{index}") for index in range(4)]
        clocks = system.client_domains(1000)
        proxies = [synced_lfs(system, server.name, clock)
                   for clock in clocks for server in servers]
        assert len({id(proxy) for proxy in proxies}) == 4000
        assert synced_lfs(system, "fs2", clocks[7]) is proxies[7 * 4 + 2]
        for proxy in proxies[::97]:
            assert type(proxy) is SyncedFileSystem
            for name in self.BRACKETED:
                # A bound method of the class, made on access and gone
                # after the call: nothing accumulates on the instance.
                assert getattr(proxy, name).__func__ \
                    is getattr(SyncedFileSystem, name)
            # No instance dict (``hasattr`` would be answered by the LFS).
            with pytest.raises(AttributeError):
                object.__getattribute__(proxy, "__dict__")
        assert SyncedFileSystem.__slots__ == \
            ("_lfs", "_client_clock", "_server_clock")
        # Everything else is the LFS's own.
        proxy = proxies[0]
        assert proxy.clock is servers[0].lfs.clock
        assert proxy._open_files == {}
        assert proxy.mounted_vfs.__self__ is servers[0].lfs
        with pytest.raises(AttributeError):
            proxy.no_such_syscall

    def test_host_clock_callers_share_one_proxy_per_server(self):
        from repro.api.session import synced_lfs

        system = DataLinksSystem()
        server = system.add_file_server("fs0")
        assert synced_lfs(system, "fs0") is synced_lfs(system, "fs0",
                                                       system.clock)
        # A caller on the server's own clock needs no bracket at all.
        assert synced_lfs(system, "fs0", server.clock) is server.lfs

    @pytest.mark.parametrize("seed", [4, 321, 20261002])
    def test_bracket_equals_the_closure_proxy_on_a_seeded_sequence(self,
                                                                   seed):
        from repro.api.session import SyncedFileSystem
        from repro.errors import FileSystemError
        from repro.fs.vfs import Credentials, OpenFlags

        cred = Credentials(uid=0, gid=0, username="root")

        def run(proxy_class):
            rng = random.Random(seed)
            system = DataLinksSystem()
            server = system.add_file_server("fs0")
            clients = system.client_domains(3)
            proxies = [proxy_class(server.lfs, client, server.clock)
                       for client in clients]
            written = []
            trail = []
            for step in range(160):
                index = rng.randrange(3)
                client, proxy = clients[index], proxies[index]
                client.advance_local(rng.uniform(0, 0.01))
                before = (client.ticks, server.clock.ticks)
                windowed = rng.random() < 0.25
                action = rng.randrange(5)
                if windowed:
                    client._overlap_frames.append([client.ticks,
                                                   client.ticks])
                sent = client.send_ticks()
                try:
                    if action == 0 or not written:
                        path = f"/f{step}.bin"
                        proxy.write_file(path, bytes(rng.randrange(1, 9000)),
                                         cred)
                        written.append(path)
                        outcome = path
                    elif action == 1:
                        outcome = len(proxy.read_file(rng.choice(written),
                                                      cred))
                    elif action == 2:
                        fd = proxy.open(rng.choice(written), OpenFlags.READ,
                                        cred)
                        outcome = (len(proxy.read(fd, 100)),
                                   proxy.fstat(fd).size)
                        proxy.close(fd)
                    elif action == 3:
                        outcome = proxy.stat("/missing", cred)   # raises
                    else:
                        outcome = proxy.exists(rng.choice(written), cred)
                except FileSystemError as error:
                    outcome = error.errno
                # The server never ran behind the client's send instant ...
                assert server.clock.ticks >= sent
                if windowed:
                    # ... inside a window the reply only raises its
                    # pending max; the client moves when it closes.
                    assert client.ticks == before[0]
                    fork, pending = client._overlap_frames.pop()
                    assert pending >= server.clock.ticks >= fork
                    client.receive_ticks(pending)
                # ... and the client is never behind the completion.
                assert client.ticks >= server.clock.ticks >= before[1]
                trail.append((outcome, [c.ticks for c in clients],
                              server.clock.ticks))
            return trail, system.clocks.stats.ledger()

        assert run(SyncedFileSystem) == run(_ClosureProxy)


class TestSessionDomainEquivalence:
    """A lone client measures the same on its own domain as on the host's."""

    @staticmethod
    def _webserver_steps():
        config = WebSiteConfig(pages=4, operations=10, page_size=4 * 1024)
        workload = WebServerWorkload(config).setup()
        return list(closed_loop_sweep(workload.system, (1,),
                                      workload.sweep_step,
                                      admission_limit=2, think_s=0.05))

    @staticmethod
    def _failover_steps():
        config = FailoverConfig(shards=2, files=8, file_size=512,
                                rows_per_transaction=4)
        workload = FailoverWorkload(config).setup()
        return list(closed_loop_sweep(
            workload.deployment.system, (1,),
            functools.partial(workload.sweep_step, reads_per_client=4),
            admission_limit=2))

    @pytest.mark.parametrize("steps", [_webserver_steps.__func__,
                                       _failover_steps.__func__],
                             ids=["webserver", "failover"])
    def test_single_client_is_byte_identical(self, monkeypatch, steps):
        with_domains = steps()
        # The reference: every client rides the host clock.
        monkeypatch.setattr(
            DataLinksSystem, "client_domains",
            lambda system, count, prefix="client": [system.clock] * count)
        on_the_host_clock = steps()
        assert with_domains == on_the_host_clock


class TestSweepAdmissionBracket:
    """The sweep's admission gate comes off however the sweep ends."""

    @staticmethod
    def _system_and_stage():
        system = DataLinksSystem()
        system.add_file_server("gate0")
        url = system.session("seed", uid=920).put_file(
            "gate0", "/gate/doc.dat", b"z" * 1024)

        def stage(step_index, count):
            yield f"gate{step_index}c", 921

            def read(session, client_index, op_index):
                if step_index == 1 and client_index == 1:
                    # A real read of a file that is not there: EACCES/ENOENT.
                    session.read_url(url.replace("doc.dat", "gone.dat"))
                session.read_url(url)

            yield 2, read
            yield {"step": step_index}

        return system, stage

    def test_a_step_that_raises_propagates_and_removes_the_gate(self):
        system, stage = self._system_and_stage()
        sweep = closed_loop_sweep(system, (2, 3), stage,
                                  admission_limit=2, think_s=0.01)
        first = next(sweep)
        assert (first["clients"], first["operations"], first["step"]) \
            == (2, 4, 0)
        gate = system.admission
        assert gate is not None and gate.limit == 2
        with pytest.raises(FileSystemError):
            next(sweep)
        assert system.admission is None
        # One gate served both steps, and the failing client gave its
        # slot back on the way out.
        assert gate.admitted > 4
        assert gate.stats()["max_held"] <= 2

    def test_closing_the_sweep_early_removes_the_gate(self):
        system, stage = self._system_and_stage()
        sweep = closed_loop_sweep(system, (2, 3), stage, admission_limit=2)
        next(sweep)
        assert system.admission is not None
        sweep.close()
        assert system.admission is None


class TestMultiClientInvariants:
    """Per-domain monotonicity and global_now dominance under a pool."""

    def test_client_timelines_are_monotone(self):
        system = DataLinksSystem()
        system.add_file_server("inv0")
        session = system.session("seed", uid=900)
        url = session.put_file("inv0", "/inv/doc.dat", b"x" * 2048)
        system.enable_admission(2)
        pool = ClientPool(system, 6, think_s=0.01, prefix="inv",
                          username="inv", uid_base=901)
        observed: dict[int, list[float]] = {index: [] for index in range(6)}

        def read(client_session, index, op_index):
            observed[index].append(client_session.clock.now())
            client_session.read_url(url)
            observed[index].append(client_session.clock.now())

        pool.run(3, read)
        system.disable_admission()
        for index, series in observed.items():
            assert series == sorted(series), \
                f"client {index} timeline went backwards: {series}"
        global_now = system.clocks.global_now()
        for clock in pool.clocks:
            assert clock.now() <= global_now + 1e-12
        # The final gather brought the host to the slowest client.
        assert system.clock.now() == pytest.approx(
            max(clock.now() for clock in pool.clocks))
        assert pool.latency.count == 18
        assert min(pool.queue_delay.samples) >= 0.0

    def test_admission_caps_concurrency_in_sim_time(self):
        """With a 1-slot gate and per-client domains the pool serializes:
        elapsed time is at least ops x (think + service)."""

        system = DataLinksSystem()
        system.add_file_server("cap0")
        session = system.session("seed", uid=910)
        url = session.put_file("cap0", "/cap/doc.dat", b"y" * 1024)
        system.clocks.barrier()     # the seed copy is staging, not load
        admission = system.enable_admission(1)
        pool = ClientPool(system, 4, think_s=0.05, prefix="cap",
                          username="cap", uid_base=911)
        pool.run(1, lambda s, i, o: s.read_url(url))
        system.disable_admission()
        assert admission.max_held == 1
        assert pool.elapsed_s >= 4 * 0.05
        # Three of the four waited, each at least one think+service slot.
        waited = [value for value in pool.queue_delay.samples if value > 0]
        assert len(waited) == 3
