"""Client clock domains, admission control, and the concurrency sweeps.

Three suites:

* seeded property tests for :class:`repro.api.admission.AdmissionController`
  -- FIFO fairness under random arrival interleavings, non-negative queue
  delay that grows with queue depth, and a connection limit that is never
  exceeded (counted over the simulated ``[admitted_at, released_at)``
  hold intervals, since the Python call stack itself never nests);
* equivalence tests for :data:`repro.simclock.SESSION_DOMAINS` -- a
  single-client sweep is byte-identical with the flag on or off, and the
  flag-off path degrades every pool to the serialized reference loop;
* invariant tests for multi-client runs -- per-domain monotonicity and
  ``global_now`` dominance, the same contract
  ``tests/test_clock_domains.py`` pins for the node domains.
"""

from __future__ import annotations

import random

import pytest

import repro.simclock as simclock
from repro.api.admission import AdmissionController
from repro.api.system import DataLinksSystem
from repro.simclock import ClockDomainGroup, SimClock, gather
from repro.workloads.clients import ClientPool
from repro.workloads.failover import FailoverConfig, FailoverWorkload
from repro.workloads.hotspot import HotspotConfig, HotspotWorkload
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


class TestSessionDomainPooling:
    """session_domains() shape: pooling, serial degradation, flag off."""

    def test_each_client_gets_its_own_domain(self):
        group = ClockDomainGroup()
        clocks = group.session_domains(5, prefix="c")
        assert len(clocks) == 5
        assert len({id(clock) for clock in clocks}) == 5

    def test_pooled_domains_cycle(self):
        group = ClockDomainGroup()
        clocks = group.session_domains(7, limit=3, prefix="p")
        assert len(clocks) == 7
        assert len({id(clock) for clock in clocks}) == 3
        assert clocks[0] is clocks[3] is clocks[6]

    def test_flag_off_degrades_to_the_base_clock(self, monkeypatch):
        monkeypatch.setattr(simclock, "SESSION_DOMAINS", False)
        group = ClockDomainGroup()
        base = group.domain("host")
        clocks = group.session_domains(4, base)
        assert clocks == [base] * 4

    def test_serial_group_degrades_to_the_base_clock(self):
        group = ClockDomainGroup(serial=True)
        base = group.domain("host")
        clocks = group.session_domains(4, base)
        assert clocks == [base] * 4

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


class TestSessionDomainEquivalence:
    """SESSION_DOMAINS on/off: single-client runs are byte-identical."""

    @staticmethod
    def _webserver_steps():
        config = WebSiteConfig(pages=4, operations=10, page_size=4 * 1024,
                               admission_limit=2, client_think_s=0.05)
        workload = WebServerWorkload(config).setup()
        return workload.run_session_sweep((1,))

    @staticmethod
    def _failover_steps():
        config = FailoverConfig(shards=2, files=8, file_size=512,
                                rows_per_transaction=4)
        workload = FailoverWorkload(config).setup()
        return workload.run_read_sweep((1,), reads_per_client=4,
                                       admission_limit=2)

    @pytest.mark.parametrize("steps", [_webserver_steps.__func__,
                                       _failover_steps.__func__],
                             ids=["webserver", "failover"])
    def test_single_client_is_byte_identical(self, monkeypatch, steps):
        monkeypatch.setattr(simclock, "SESSION_DOMAINS", True)
        with_domains = steps()
        monkeypatch.setattr(simclock, "SESSION_DOMAINS", False)
        serialized = steps()
        assert with_domains == serialized

    def test_flag_off_serializes_multi_client_runs(self, monkeypatch):
        """With the flag off every pool shares the host clock, so a
        multi-session sweep degrades to single-session throughput."""

        monkeypatch.setattr(simclock, "SESSION_DOMAINS", False)
        config = WebSiteConfig(pages=4, operations=10, page_size=4 * 1024)
        workload = WebServerWorkload(config).setup()
        one, four = workload.run_session_sweep((1, 4))
        assert four["ops_per_sim_s"] == pytest.approx(
            one["ops_per_sim_s"], rel=0.2)
        assert four["queue_p99_ms"] == 0.0


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

    def test_hotspot_reader_pool_round_trips(self):
        """The E14 per-client-domain read path serves every scheduled
        read and loses no committed links."""

        config = HotspotConfig(shards=2, witnesses=0, prefixes=4, rounds=2,
                               links_per_round=2, reads_per_round=6,
                               file_size=256, reader_sessions=3)
        workload = HotspotWorkload(config).setup()
        metrics = workload.run()
        assert metrics.counters.get("reads_failed", 0) == 0
        assert metrics.counters["reads_ok"] == 12
        assert metrics.counters["committed_links_lost"] == 0
