"""Clock-domain semantics: monotonicity, merge laws, global time.

Seeded property tests for the per-node simulated-time model
(:mod:`repro.simclock`): every domain's clock is monotone under any mix of
charges and merges, max-merge is commutative and idempotent, and the
cluster wall clock (``global_now``) never regresses -- including across
random shard interleavings of a real sharded deployment and across a
replicated shard's failover/fail-back cycle.
"""

import contextlib
import random

import pytest

from repro.simclock import (
    ClockDomainGroup,
    CostModel,
    SimClock,
    rendezvous,
)

PRIMITIVES = ["sql_statement_base", "row_write", "db_dlfm_message",
              "disk_seek", "token_generate", "log_write"]


class TestMergeLaws:
    def test_sync_to_never_moves_backwards(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.sync_to(1.0)
        assert clock.now() == pytest.approx(5.0)
        clock.sync_to(9.0)
        assert clock.now() == pytest.approx(9.0)

    def test_merge_commutativity(self):
        """merge(a, b) and merge(b, a) land both clocks on the same instant."""

        for first, second in [(1.0, 7.0), (7.0, 1.0), (3.0, 3.0)]:
            a1, b1 = SimClock(start=first), SimClock(start=second)
            a2, b2 = SimClock(start=first), SimClock(start=second)
            t_ab = rendezvous(a1, b1)
            t_ba = rendezvous(b2, a2)
            assert t_ab == pytest.approx(t_ba)
            assert a1.now() == b1.now() == pytest.approx(max(first, second))
            assert a2.now() == b2.now() == pytest.approx(max(first, second))

    def test_merge_idempotent_and_associative_to_max(self):
        rng = random.Random(1234)
        starts = [rng.uniform(0, 100) for _ in range(5)]
        clocks = [SimClock(start=value) for value in starts]
        rng.shuffle(clocks)
        instant = rendezvous(*clocks)
        assert instant == pytest.approx(max(starts))
        # a second merge is a no-op
        assert rendezvous(*clocks) == pytest.approx(instant)

    def test_rendezvous_of_no_clocks_is_zero(self):
        assert rendezvous() == 0.0

    def test_overlap_gathers_max_not_sum(self):
        clock = SimClock(start=10.0)
        with clock.overlap():
            assert clock.send_time() == pytest.approx(10.0)
            clock.receive(13.0)
            clock.receive(11.0)
            # send time stays anchored at the fork
            assert clock.send_time() == pytest.approx(10.0)
        assert clock.now() == pytest.approx(13.0)

    def test_nested_overlap_frames(self):
        clock = SimClock(start=1.0)
        with clock.overlap():
            clock.receive(4.0)
            with clock.overlap():
                clock.receive(9.0)
            # the inner gather feeds the outer frame, not now()
            assert clock.now() == pytest.approx(1.0)
        assert clock.now() == pytest.approx(9.0)


@contextlib.contextmanager
def _generator_synchronized_call(caller, callee):
    """The generator bracket the class replaced, kept as the reference for
    :class:`TestSynchronizedCallBracket`."""

    if caller is callee:
        yield
        return
    callee.sync_ticks(caller.send_ticks())
    try:
        yield
    finally:
        caller.receive_ticks(callee.ticks)


class TestSynchronizedCallBracket:
    def test_body_raising_still_merges_the_caller_forward(self):
        from repro.simclock import synchronized_call

        caller, callee = SimClock(start=2.0), SimClock(start=1.0)
        with pytest.raises(RuntimeError):
            with synchronized_call(caller, callee):
                assert callee.ticks == caller.ticks   # synced to the send
                callee.charge("disk_seek")
                raise RuntimeError("the call failed, after taking its time")
        assert caller.ticks == callee.ticks > SimClock(start=2.0).ticks

    def test_nested_brackets_and_a_reused_bracket(self):
        from repro.simclock import synchronized_call

        a, b, c = SimClock(start=3.0), SimClock(), SimClock()
        outer = synchronized_call(a, b)
        with outer:
            b.charge("row_read")
            with synchronized_call(b, c):
                c.charge("disk_seek")
                with outer:                       # stateless: re-enterable
                    b.charge("row_write")
            assert b.ticks >= c.ticks
        assert a.ticks == b.ticks >= c.ticks
        first = a.ticks
        with outer:
            b.charge("row_read")
        assert a.ticks == b.ticks > first

    def test_a_same_clock_bracket_touches_no_clock_and_leaves_nothing_behind(
            self):
        import sys

        from repro.simclock import synchronized_call

        clock, other = SimClock(start=1.0), SimClock(start=5.0)
        bracket = synchronized_call(clock, clock)
        assert not hasattr(bracket, "__dict__")
        with bracket, clock.overlap():
            pass                                   # warm every code path
        before = (clock.ticks, other.ticks)
        blocks = sys.getallocatedblocks()
        for _ in range(500):
            with bracket:
                pass
            with synchronized_call(clock, clock) as nothing:
                assert nothing is None
        assert sys.getallocatedblocks() - blocks < 10    # not 500
        assert (clock.ticks, other.ticks) == before
        assert clock.stats.ledger() == other.stats.ledger() == {}

    @pytest.mark.parametrize("seed", [1, 58, 20261002])
    def test_equals_the_generator_bracket_on_a_seeded_sequence(self, seed):
        from repro.simclock import synchronized_call

        def run(bracket):
            rng = random.Random(seed)
            clocks = [SimClock(start=rng.uniform(0, 2)) for _ in range(4)]
            trail = []
            for _ in range(300):
                caller, callee, inner = (rng.choice(clocks) for _ in range(3))
                windowed = rng.random() < 0.3
                fails = rng.random() < 0.25
                work = rng.randrange(1, 4)
                try:
                    with caller.overlap() if windowed \
                            else contextlib.nullcontext():
                        with bracket(caller, callee):
                            callee.charge("disk_seek", times=work)
                            with bracket(callee, inner):
                                inner.charge("row_read", times=work)
                                if fails:
                                    raise KeyError("body")
                except KeyError:
                    pass
                trail.append([clock.ticks for clock in clocks])
            return trail

        assert run(synchronized_call) == run(_generator_synchronized_call)


def _actor(clock, name, costs):
    """Steps that charge *clock* ``costs[i]`` ticks and yield ``name<i>``."""

    for index, cost in enumerate(costs):
        clock.ticks += cost
        yield f"{name}{index}"


class TestInterleave:
    """:func:`repro.simclock.interleave`, the one scheduler: earliest
    clock first, ties in list order, lazy re-entry of a moved clock."""

    def test_earliest_clock_first_and_ties_in_list_order(self):
        from repro.simclock import interleave

        a, b, c = SimClock(), SimClock(), SimClock()
        ran = interleave([(a, _actor(a, "a", [5, 5])),
                          (b, _actor(b, "b", [3, 9])),
                          (c, _actor(c, "c", [10]))])
        # All three start at 0 and run in list order; then b (at 3) runs
        # before a (at 5), and c (at 10) has no step left.
        assert ran == ["a0", "b0", "c0", "b1", "a1"]
        assert interleave([]) == []

    def test_a_clock_moved_by_advance_reenters_at_its_new_time(self):
        from repro.simclock import interleave

        group = ClockDomainGroup()
        a, b = group.domain("a"), group.domain("b")

        def idle_then_work():
            a.advance(0.005)            # cluster idle time: b moves too
            yield "a0"
            yield "a1"

        ran = interleave([(a, idle_then_work()), (b, _actor(b, "b", [0]))])
        # b was queued at 0 but its turn starts at 5 ms, where it ties a,
        # which is listed first.
        assert ran == ["a0", "a1", "b0"]

    def test_a_clock_moved_by_another_actors_step_reenters_too(self):
        from repro.simclock import interleave

        a, b = SimClock(), SimClock()

        def push_b_on():
            b.sync_ticks(10)            # e.g. a rendezvous b waits for
            a.ticks += 1
            yield "a0"
            a.ticks += 10
            yield "a1"

        ran = interleave([(a, push_b_on()), (b, _actor(b, "b", [0]))])
        # b was queued at 0, but a's step moved it to 10: a1 (at 1) runs
        # first, then b0 (10) before a's end (11).
        assert ran == ["a0", "a1", "b0"]

    def test_values_come_back_in_run_order_without_none(self):
        from repro.simclock import interleave

        a, b = SimClock(), SimClock()

        def mixed(clock, values):
            for value in values:
                clock.ticks += 2
                yield value

        ran = interleave([(a, mixed(a, [None, 1, None, 2])),
                          (b, mixed(b, ["x", None, "y"]))])
        # Run order: a None, b x, a 1, b None, a None, b y, a 2.
        assert ran == ["x", 1, "y", 2]

    def test_an_exhausted_actor_is_not_stepped_again(self):
        from repro.simclock import interleave

        class Steps:
            def __init__(self, clock, count):
                self.clock, self.left, self.calls = clock, count, 0

            def __iter__(self):
                return self

            def __next__(self):
                self.calls += 1
                if self.left == 0:
                    raise StopIteration
                self.left -= 1
                self.clock.ticks += 1
                return None

        clocks = [SimClock() for _ in range(3)]
        actors = [Steps(clock, count) for clock, count in zip(clocks, (0, 1, 4))]
        assert interleave(list(zip(clocks, actors))) == []
        assert [actor.calls for actor in actors] == [1, 2, 5]

    def test_an_exception_leaves_every_remaining_step_unrun(self):
        from repro.simclock import interleave

        a, b = SimClock(), SimClock()
        ran = []

        def failing():
            a.ticks += 2
            ran.append("a0")
            yield
            raise RuntimeError("step a1")

        def steady():
            for index in range(4):
                b.ticks += 1
                ran.append(f"b{index}")
                yield

        with pytest.raises(RuntimeError, match="step a1"):
            interleave([(a, failing()), (b, steady())])
        # a0 (0), b0 (0), b1 (1), then a1 at 2 ties b2 and is listed
        # first: it raises, and b2, b3 never run.
        assert ran == ["a0", "b0", "b1"]


class TestDomainGroupProperties:
    def test_random_interleaving_keeps_domains_monotone(self):
        """Charges, one-way syncs and barriers never move any clock back."""

        rng = random.Random(20260730)
        group = ClockDomainGroup(CostModel())
        domains = [group.domain(f"node{index}") for index in range(6)]
        last_seen = {domain.name: domain.now() for domain in domains}
        last_global = group.global_now()
        for _ in range(2000):
            action = rng.randrange(4)
            if action == 0:
                domain = rng.choice(domains)
                domain.charge(rng.choice(PRIMITIVES), times=rng.randrange(1, 4))
            elif action == 1:
                sender, receiver = rng.sample(domains, 2)
                receiver.sync_to(sender.send_time())
            elif action == 2:
                rendezvous(*rng.sample(domains, rng.randrange(2, 4)))
            else:
                group.barrier()
            for domain in domains:
                assert domain.now() >= last_seen[domain.name]
                last_seen[domain.name] = domain.now()
            assert group.global_now() >= last_global
            assert group.global_now() == pytest.approx(
                max(domain.now() for domain in domains))
            last_global = group.global_now()

    def test_group_advance_passes_idle_time_cluster_wide(self):
        group = ClockDomainGroup(CostModel())
        a, b = group.domain("a"), group.domain("b")
        b.charge("disk_seek")
        gap = b.now() - a.now()
        a.advance(2.0)
        assert a.now() == pytest.approx(2.0)
        assert b.now() - a.now() == pytest.approx(gap)

    def test_advance_local_moves_only_one_domain(self):
        group = ClockDomainGroup(CostModel())
        a, b = group.domain("a"), group.domain("b")
        a.advance_local(3.0)
        assert a.now() == pytest.approx(3.0)
        assert b.now() == 0.0

    def test_merged_stats_mirror_every_domain(self):
        group = ClockDomainGroup(CostModel())
        group.domain("a").charge("row_write")
        group.domain("b").charge("row_write", label="dlfm.row_write")
        assert group.stats.count("row_write") == 1
        assert group.stats.count("dlfm.row_write") == 1
        by_domain = group.stats_by_domain()
        assert by_domain["a"]["row_write"]["count"] == 1
        assert by_domain["b"]["dlfm.row_write"]["count"] == 1

    def test_a_window_diffs_every_domain_and_counts_a_new_one_from_zero(self):
        group = ClockDomainGroup(CostModel())
        a, b = group.domain("a"), group.domain("b")
        a.charge("row_write")
        with group.window() as window:
            a.charge("row_write", times=2)
            group.domain("c").charge("row_write")
        unit = a.unit_ticks("row_write")
        assert window.domains == {"a": {"row_write": (1, 2 * unit)}, "b": {},
                                  "c": {"row_write": (1, unit)}}
        assert window.merged == {"row_write": (2, 3 * unit)}
        assert window.elapsed == {"a": 2 * unit, "b": 0, "c": unit}
        with b.window() as alone:
            b.charge("row_write")
        assert (alone.merged, alone.elapsed) == (
            {"row_write": (1, unit)}, {"b": unit})


class TestShardedDeploymentTime:
    def test_global_now_never_regresses_across_random_shard_interleavings(self):
        """Random link/read/commit interleavings over a sharded deployment
        keep every domain monotone and the cluster wall clock non-decreasing."""

        from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType

        rng = random.Random(99)
        deployment = ShardedDataLinksDeployment(3, group_commit_window=2)
        deployment.create_table(TableSchema("docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(recovery=False)),
        ], primary_key=("doc_id",)))
        session = deployment.session("user", uid=4001)
        clocks = deployment.clocks
        last_global = clocks.global_now()
        last_local = {name: domain.now()
                      for name, domain in clocks.domains.items()}
        urls = []
        for step in range(40):
            action = rng.randrange(3) if urls else 0
            if action == 0:
                path = f"/dir{rng.randrange(6)}/doc{step:04d}.dat"
                url = deployment.put_file(session, path, b"x" * 256)
                host_txn = deployment.begin()
                deployment.engine.insert(
                    "docs", {"doc_id": step, "body": url}, host_txn)
                deployment.commit(host_txn)
                urls.append(url)
            elif action == 1:
                deployment.read_url(session, rng.choice(urls))
            else:
                deployment.drain()
            assert clocks.global_now() >= last_global
            last_global = clocks.global_now()
            for name, domain in clocks.domains.items():
                assert domain.now() >= last_local.get(name, 0.0)
                last_local[name] = domain.now()
        # host commits synchronize through every enlisted shard, so the host
        # domain can never be ahead of the cluster wall clock by definition
        assert deployment.clock.now() <= clocks.global_now() + 1e-12

    def test_stats_report_milliseconds_in_one_division(self):
        """``stats()["clock_domains"]`` converts the exact ticks once, like
        ``times_by_domain``: seconds times 1000.0 rounds twice, and reads
        differently for about a quarter of all tick values (11 is one)."""

        from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.simclock import TICKS_PER_MS
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType

        assert 11 / TICKS_PER_MS != 11 / 10 ** 12 * 1000.0
        deployment = ShardedDataLinksDeployment(2, group_commit_window=1)
        deployment.create_table(TableSchema("docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(recovery=False)),
        ], primary_key=("doc_id",)))
        session = deployment.session("user", uid=4002)
        clocks = deployment.clocks
        for step in range(12):
            url = deployment.put_file(session, f"/dir{step % 3}/d{step}.dat",
                                      b"y" * (100 + 37 * step))
            host_txn = deployment.begin()
            deployment.engine.insert("docs", {"doc_id": step, "body": url},
                                     host_txn)
            deployment.commit(host_txn)
            clocks.domain("host").ticks += 11   # an odd tick count
            reported = deployment.stats()["clock_domains"]
            assert reported["global_now_ms"] == clocks.ticks / TICKS_PER_MS
            assert reported["charged_ms_per_domain"] == {
                name: domain.stats.total_ticks() / TICKS_PER_MS
                for name, domain in sorted(clocks.domains.items())}

    def test_failover_merge_does_not_regress_time(self):
        """Promotion and fail-back (cross-domain merges) keep time monotone."""

        from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType

        deployment = ShardedDataLinksDeployment(2, replication=True,
                                                group_commit_window=1)
        deployment.create_table(TableSchema("docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(recovery=False)),
        ], primary_key=("doc_id",)))
        session = deployment.session("user", uid=4001)
        url = deployment.put_file(session, "/a/doc.dat", b"payload")
        host_txn = deployment.begin()
        deployment.engine.insert("docs", {"doc_id": 1, "body": url}, host_txn)
        deployment.commit(host_txn)
        shard = deployment.shard_of("/a/doc.dat")
        clocks = deployment.clocks
        before = {name: domain.now() for name, domain in clocks.domains.items()}
        global_before = clocks.global_now()
        deployment.crash(shard)
        deployment.fail_over(shard)
        assert deployment.read_url(session, url) == b"payload"
        deployment.fail_back(shard)
        assert deployment.read_url(session, url) == b"payload"
        assert clocks.global_now() >= global_before
        for name, domain in clocks.domains.items():
            assert domain.now() >= before.get(name, 0.0)


class TestChannelMergesAtSync:
    """``Channel._exchange`` writes its tick arithmetic out inline (no
    ``sync_ticks`` / ``charge`` / ``receive_ticks`` frames).  This holds it
    to the documented protocol: seeded random traffic -- synchronous
    requests, pipelined posts, handler failures, method-style handlers,
    dead-daemon refusals and scatter-gather windows, over three
    cross-domain channels and one same-domain channel -- must leave every
    domain's timestamp, every statistics cell, every payload and every
    ``requests_served`` exactly where :meth:`_model_exchange`, merge-at-sync
    spelled with the public clock calls only, leaves them."""

    @staticmethod
    def _model_exchange(caller, daemon, latency, kind, payload, wait):
        from repro.errors import DaemonUnavailableError, ReproError

        callee = daemon.clock
        cross = callee is not caller
        if not daemon.running:
            # The attempt costs the caller; the dead node's clock stands.
            caller.charge(latency if wait or not cross else "message_send")
            raise DaemonUnavailableError(daemon.name)
        if cross:
            callee.sync_ticks(caller.send_ticks())
            if not wait:
                caller.charge("message_send")
        callee.charge(latency)
        callee.charge("daemon_dispatch")
        handler = daemon._handlers.get(kind) or getattr(daemon,
                                                        f"handle_{kind}")
        daemon.requests_served += 1
        try:
            result = handler(**payload)
        except ReproError:
            # A failed post is a round trip: the caller waited for it.
            if cross:
                caller.receive_ticks(callee.ticks)
            raise
        if cross and wait:
            caller.receive_ticks(callee.ticks)
        return dict(result)

    def _run_traffic(self, seed: int, through_channels: bool) -> dict:
        from repro.errors import ReproError
        from repro.ipc.channel import Channel
        from repro.ipc.daemon import Daemon

        group = ClockDomainGroup(CostModel())
        host = group.domain("host")

        class Worker(Daemon):
            def __init__(self, name, clock):
                super().__init__(name, clock)
                self.register("work", self._work)
                self.register("boom", self._boom)

            def _work(self, cost=1):
                self.clock.charge("row_write", times=cost)
                return {"done": cost}

            def _boom(self):
                self.clock.charge("disk_seek")
                raise ReproError("statement-time failure")

            def handle_lazy(self, cost=1):
                # Method-style handler: resolved through the getattr
                # fallback and cached on first dispatch.
                self.clock.charge("row_read", times=cost)
                return {"lazy": cost}

        workers = [Worker(f"shard{index}", group.domain(f"shard{index}"))
                   for index in range(3)]
        workers.append(Worker("local", host))   # same domain: no merge
        latencies = ["db_dlfm_message"] * 3 + ["upcall_round_trip"]
        if through_channels:
            channels = [Channel(worker, host, latency_primitive=latency)
                        for worker, latency in zip(workers, latencies)]

            def exchange(index, kind, wait, **payload):
                channel = channels[index]
                return (channel.request if wait else channel.post)(
                    kind, **payload)
        else:
            def exchange(index, kind, wait, **payload):
                return self._model_exchange(host, workers[index],
                                            latencies[index], kind, payload,
                                            wait)

        rng = random.Random(seed)
        outcomes = []
        for _ in range(250):
            index = rng.randrange(4)
            action = rng.randrange(6)
            if action == 0:
                outcomes.append(exchange(index, "work", True,
                                         cost=rng.randrange(1, 3)))
            elif action == 1:
                outcomes.append(exchange(index, "work", False,
                                         cost=rng.randrange(1, 3)))
            elif action == 2:
                try:
                    exchange(index, "boom", bool(rng.randrange(2)))
                except ReproError as error:
                    outcomes.append(type(error).__name__)
            elif action == 3:
                outcomes.append(exchange(index, "lazy", True,
                                         cost=rng.randrange(1, 3)))
            elif action == 4:
                # A dead daemon refuses both exchange styles; the attempt
                # still costs the caller time.
                workers[index].stop()
                try:
                    exchange(index, "work", bool(rng.randrange(2)))
                except ReproError as error:
                    outcomes.append(type(error).__name__)
                workers[index].start()
            else:
                with host.overlap():
                    for fanned in rng.sample(range(4), 2):
                        outcomes.append(exchange(fanned, "work", True,
                                                 cost=1))
        return {
            "outcomes": outcomes,
            "global": group.ticks,
            "domains": {name: domain.ticks
                        for name, domain in group.domains.items()},
            "stats": group.stats.ledger(),
            "served": {worker.name: worker.requests_served
                       for worker in workers},
        }

    @pytest.mark.parametrize("seed", [11, 20260807, 987654])
    def test_channel_equals_the_public_call_model(self, seed):
        through = self._run_traffic(seed, through_channels=True)
        model = self._run_traffic(seed, through_channels=False)
        assert through == model
        # The traffic reached every branch the model spells out.
        assert {"DaemonUnavailableError", "ReproError"} <= \
            {outcome for outcome in through["outcomes"]
             if isinstance(outcome, str)}
        assert all(through["served"].values())


class TestPipelinedErrorLatency:
    """A pipelined (posted) message whose handler fails is not free: the
    error surfaces at statement time, which means the caller waited for it,
    so the caller's clock merges up to the callee's completion."""

    def test_posted_error_costs_a_round_trip_sync(self):
        from repro.errors import ReproError
        from repro.ipc.channel import Channel
        from repro.ipc.daemon import Daemon

        group = ClockDomainGroup(CostModel())
        host, shard = group.domain("host"), group.domain("shard")

        class Worker(Daemon):
            def __init__(self, clock):
                super().__init__("worker", clock)
                self.register("ok", self._ok)
                self.register("boom", self._boom)

            def _ok(self):
                self.clock.charge("disk_seek")
                return {}

            def _boom(self):
                self.clock.charge("disk_seek")
                raise ReproError("statement-time failure")

        worker = Worker(shard)
        channel = Channel(worker, host, latency_primitive="db_dlfm_message")

        # Success post: fire-and-forget -- the host pays only the enqueue
        # cost while the work accrues on the shard's own timeline.
        before = host.now()
        channel.post("ok")
        assert host.now() - before == pytest.approx(host.costs.message_send)
        assert shard.now() > host.now()

        # Error post: the host is charged the wait for the failure to come
        # back, exactly like a synchronous round trip.
        with pytest.raises(ReproError):
            channel.post("boom")
        assert host.now() == pytest.approx(shard.now())

    def test_failed_link_statement_syncs_host_to_shard_domain(self):
        """A link batch that fails at statement time charges the caller the
        round trip to the shard's clock domain (it used to be free)."""

        from repro.datalinks.control_modes import ControlMode
        from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
        from repro.datalinks.sharding import ShardedDataLinksDeployment
        from repro.errors import ReproError
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType

        deployment = ShardedDataLinksDeployment(2, group_commit_window=1)
        deployment.create_table(TableSchema("docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RFF, recovery=False)),
        ], primary_key=("doc_id",)))
        missing = "/nowhere/missing.dat"
        shard_clock = deployment.shard(deployment.shard_of(missing)).clock
        url = deployment.engine.make_url(deployment.shard_of(missing), missing)
        host_txn = deployment.begin()
        with pytest.raises(ReproError):
            deployment.engine.insert_many(
                "docs", [{"doc_id": 1, "body": url}], host_txn)
        # The statement-time error was not free: at the moment it surfaced
        # (before any abort round trip) the host domain had already merged
        # up to the shard's completion of the failed link batch.
        assert deployment.clock.now() >= shard_clock.now()
        deployment.abort(host_txn)


class TestSerialTicks:
    """The one-timeline time is read off the group ledger.

    A shared clock advances by exactly the charges it books; clock
    domains book the same charges plus one ``message_send`` per pipelined
    post.  Seeded traffic run twice -- every process on one
    :class:`SimClock`, then each daemon on its own domain -- pins the
    identity :meth:`ClockDomainGroup.serial_ticks` rests on, and the one
    place it does not hold: a post to a dead daemon."""

    @staticmethod
    def _workers(clocks):
        from repro.errors import ReproError
        from repro.ipc.daemon import Daemon

        class Worker(Daemon):
            def __init__(self, name, clock):
                super().__init__(name, clock)
                self.register("work", self._work)
                self.register("boom", self._boom)

            def _work(self, cost=1):
                self.clock.charge("row_write", times=cost)
                return {"done": cost}

            def _boom(self):
                self.clock.charge("disk_seek")
                raise ReproError("statement-time failure")

        return [Worker(f"shard{index}", clock)
                for index, clock in enumerate(clocks)]

    def _run_traffic(self, seed, host, clocks):
        """Requests, posts (some failing) and overlapped fan-outs from
        *host* to one daemon per entry of *clocks*; returns the posts."""

        from repro.errors import ReproError
        from repro.ipc.channel import Channel

        channels = [Channel(worker, host, latency_primitive="db_dlfm_message")
                    for worker in self._workers(clocks)]
        rng = random.Random(seed)
        posts = 0
        for _ in range(200):
            channel = rng.choice(channels)
            action = rng.randrange(4)
            if action == 0:
                channel.request("work", cost=rng.randrange(1, 4))
            elif action == 1:
                channel.post("work", cost=rng.randrange(1, 4))
                posts += 1
            elif action == 2:
                with pytest.raises(ReproError):
                    channel.post("boom")
                posts += 1
            else:
                with host.overlap():
                    for fanned in rng.sample(channels, 2):
                        fanned.request("work", cost=1)
        return posts

    @pytest.mark.parametrize("seed", [3, 41, 20261015])
    def test_serial_ticks_equal_one_shared_clock(self, seed):
        shared = SimClock(CostModel())
        posts = self._run_traffic(seed, shared, [shared] * 3)
        group = ClockDomainGroup(CostModel())
        assert self._run_traffic(
            seed, group.domain("host"),
            [group.domain(f"shard{index}") for index in range(3)]) == posts
        assert posts

        # Work conservation: one timeline advances by its charges.
        assert shared.ticks == shared.stats.total_ticks()
        # Charge equivalence: the domains book exactly message_send more.
        alone, split = shared.stats.ledger(), group.stats.ledger()
        send = shared.unit_ticks("message_send")
        assert "message_send" not in alone
        assert split.pop("message_send") == (posts, posts * send)
        assert split == alone
        assert group.serial_ticks() == shared.ticks
        # The domains overlapped, so the cluster is ahead of one timeline.
        assert group.ticks < shared.ticks

    def test_a_post_to_a_dead_daemon_breaks_the_identity(self):
        from repro.errors import DaemonUnavailableError
        from repro.ipc.channel import Channel

        shared = SimClock(CostModel())
        group = ClockDomainGroup(CostModel())
        host = group.domain("host")
        pairs = []
        for caller, callee in ((shared, shared),
                               (host, group.domain("shard0"))):
            worker, = self._workers([callee])
            worker.stop()
            pairs.append(Channel(worker, caller,
                                 latency_primitive="db_dlfm_message"))
        for channel in pairs:
            # A synchronous request waits out the round trip either way.
            with pytest.raises(DaemonUnavailableError):
                channel.request("work")
        assert group.serial_ticks() == shared.ticks
        for channel in pairs:
            # A post does not: one timeline waits out the round trip, a
            # domain pays only the enqueue cost that serial_ticks drops.
            with pytest.raises(DaemonUnavailableError):
                channel.post("work")
        assert shared.ticks - group.serial_ticks() == \
            shared.unit_ticks("db_dlfm_message")


class TestExactIntegerTime:
    """Simulated time is an exact integer tick count (1 tick = 1 ps).

    The oracles here are not the code under test: decimal/rational
    arithmetic from the calibrated constants, and sums recomputed from the
    per-domain ledgers.
    """

    def test_default_costs_are_integral_in_ticks(self):
        from dataclasses import fields
        from fractions import Fraction

        from repro.simclock import TICKS_PER_SECOND

        assert TICKS_PER_SECOND == 10 ** 12
        clock = SimClock()
        per_byte = {"disk_transfer_per_byte", "archive_per_byte",
                    "blob_db_per_byte"}
        for field in fields(CostModel):
            value = getattr(clock.costs, field.name)
            ticks = clock.unit_ticks(field.name)
            assert isinstance(ticks, int)
            if field.name in per_byte:
                # Not integral (114 440.917... ps); the unit is the nearest
                # tick and charges round per charge (next test).
                assert abs(ticks - value * 1e12) <= 0.5
                continue
            # The calibrated fixed costs are whole picoseconds.
            assert ticks == pytest.approx(value * 1e12, rel=1e-9)
            assert Fraction(repr(value)) * 10 ** 12 == ticks

    @pytest.mark.parametrize("primitive, ms_per_mib", [
        ("disk_transfer_per_byte", 120), ("archive_per_byte", 150)])
    def test_per_byte_rates_round_within_half_a_tick(self, primitive,
                                                     ms_per_mib):
        from fractions import Fraction

        rate = Fraction(ms_per_mib, 1000) / (1024 * 1024) * 10 ** 12
        rng = random.Random(20010402)
        sizes = [1, 2, 3, 255, 256, 257, 4096, 16 * 1024, 1 << 20,
                 (1 << 30) - 1, 1 << 30]
        sizes += [rng.randrange(1, 1 << 30) for _ in range(200)]
        for nbytes in sizes:
            clock = SimClock()
            clock.charge(primitive, nbytes=nbytes)
            assert isinstance(clock.ticks, int)
            assert abs(clock.ticks - nbytes * rate) <= Fraction(1, 2)

    def test_group_ledger_is_the_sum_of_the_domain_ledgers(self):
        """A seeded mixed workload with client domains."""

        from repro.api.system import DataLinksSystem
        from repro.datalinks.control_modes import ControlMode
        from repro.datalinks.datalink_type import (DatalinkOptions,
                                                   datalink_column)
        from repro.storage.schema import Column, TableSchema
        from repro.storage.values import DataType
        from repro.workloads.clients import ClientPool

        system = DataLinksSystem()
        for server in ("fs1", "fs2"):
            system.add_file_server(server)
        system.create_table(TableSchema("docs", [
            Column("doc_id", DataType.INTEGER, nullable=False),
            datalink_column("body", DatalinkOptions(
                control_mode=ControlMode.RDD)),
        ], primary_key=("doc_id",)))
        owner = system.session("owner", uid=2001)
        rng = random.Random(99)
        for index in range(6):
            url = owner.put_file(f"fs{1 + index % 2}", f"/d/doc{index}.dat",
                                 bytes(rng.randrange(256)
                                       for _ in range(300 + 97 * index)))
            owner.insert("docs", {"doc_id": index, "body": url})
        urls = owner.get_datalink_many(
            "docs", [{"doc_id": index} for index in range(6)], "body",
            access="read", ttl=10_000.0)
        pool = ClientPool(system, 9, think_s=0.25)
        picks = [[rng.randrange(6) for _ in range(3)] for _ in range(9)]
        pool.run(3, lambda session, client, op_index:
                 session.read_url(urls[picks[client][op_index]]))
        system.run_archiver()

        clocks = system.clocks
        expected: dict = {}
        for domain in clocks.domains.values():
            for label, (count, ticks) in domain.stats.ledger().items():
                assert isinstance(count, int) and isinstance(ticks, int)
                slot = expected.setdefault(label, [0, 0])
                slot[0] += count
                slot[1] += ticks
        merged = clocks.stats.ledger()
        assert merged == {label: tuple(slot)
                          for label, slot in expected.items()}
        assert merged       # the workload charged something
        assert clocks.stats.total_count() == sum(
            count for count, _ in merged.values())
        for label, (count, ticks) in merged.items():
            assert clocks.stats.count(label) == count
            assert clocks.stats.ticks(label) == ticks

    @pytest.mark.parametrize("seed", [5, 77, 20260927])
    def test_merges_never_move_a_clock_backwards_in_ticks(self, seed):
        from repro.simclock import gather, synchronized_call

        rng = random.Random(seed)
        group = ClockDomainGroup(CostModel())
        clocks = [group.domain(f"n{index}") for index in range(5)]
        bare = SimClock(start=rng.uniform(0, 3))
        everyone = clocks + [bare]
        for _ in range(600):
            before = [clock.ticks for clock in everyone]
            a, b = rng.sample(everyone, 2)
            action = rng.randrange(8)
            if action == 0:
                a.charge(rng.choice(PRIMITIVES), times=rng.randrange(1, 4))
            elif action == 1:
                a.sync_ticks(b.send_ticks())
            elif action == 2:
                a.receive_ticks(b.ticks)
            elif action == 3:
                with a.overlap():
                    a.receive_ticks(b.ticks)
                    assert a.send_ticks() == before[everyone.index(a)]
            elif action == 4:
                instant = rendezvous(a, b)
                assert a.ticks == b.ticks
                assert instant == a.now()
            elif action == 5:
                others = rng.sample(everyone, 3)
                gather(a, others)
                assert all(other.ticks == a.ticks for other in others)
            elif action == 6:
                with synchronized_call(a, b):
                    b.charge("disk_seek")
                assert a.ticks >= b.ticks
            else:
                a.advance(rng.uniform(0, 0.01))
            for clock, old in zip(everyone, before):
                assert isinstance(clock.ticks, int)
                assert clock.ticks >= old

    def test_merges_commute_in_ticks(self):
        rng = random.Random(8)
        for _ in range(50):
            starts = [rng.randrange(0, 10 ** 15) for _ in range(4)]

            def fresh():
                clocks = [SimClock() for _ in starts]
                for clock, ticks in zip(clocks, starts):
                    clock.ticks = ticks
                return clocks

            forward, backward = fresh(), fresh()
            rendezvous(*forward)
            rendezvous(*reversed(backward))
            assert [c.ticks for c in forward] == [max(starts)] * 4
            assert [c.ticks for c in backward] == [max(starts)] * 4
            # Two one-way merges into the same clock, in either order.
            x, y = fresh()[:2], fresh()[:2]
            target_a, target_b = SimClock(), SimClock()
            target_a.sync_ticks(x[0].ticks)
            target_a.sync_ticks(x[1].ticks)
            target_b.sync_ticks(y[1].ticks)
            target_b.sync_ticks(y[0].ticks)
            assert target_a.ticks == target_b.ticks == max(starts[:2])

    def test_float_edge_reproduces_tick_differences_on_a_long_run(self):
        """``now()`` differences over a 10^5-second run match the exact
        tick differences to 1e-12 relative."""

        from repro.simclock import TICKS_PER_SECOND

        rng = random.Random(4)
        clock = SimClock()
        start_ticks, start_now = clock.ticks, clock.now()
        checkpoints = []
        while clock.ticks < 10 ** 5 * TICKS_PER_SECOND:
            clock.charge("disk_seek", times=rng.randrange(1, 10 ** 6))
            clock.charge("disk_transfer_per_byte",
                         nbytes=rng.randrange(1, 1 << 30))
            checkpoints.append((clock.ticks, clock.now()))
        for ticks, now in checkpoints:
            exact = (ticks - start_ticks) / TICKS_PER_SECOND
            assert now - start_now == pytest.approx(exact, rel=1e-12)
        # Late in the run a stopwatch still resolves a single cheap charge.
        with clock.measure() as watch:
            clock.charge("row_read")
        assert watch.elapsed == 50_000_000 / TICKS_PER_SECOND
        assert watch.elapsed_ms == 0.05
