"""Seeded property tests for the autonomous placement balancer.

Five governance properties, each driven by deterministic (seeded)
traffic so failures replay exactly:

* the per-tick move budget is never exceeded -- co-location moves for a
  merge count against the same budget;
* a moved prefix is never moved again inside its cooldown window;
* on a *uniform* workload the balancer converges: once the load is
  within tolerance it issues no further moves, however long the traffic
  keeps running;
* a split followed by a merge round-trips: every committed link still
  resolves, and the placement epoch only ever moves forward;
* a split subtree that goes idle is merged back by the balancer itself,
  its scattered pieces brought home within the move budget first.
"""

import random
from types import SimpleNamespace

import pytest

from repro.datalinks.balancer import BalancerConfig
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.placement import path_under
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.errors import PlacementError
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.audit import audit_committed_links
from repro.workloads.generator import UniformChooser, ZipfChooser

TABLE = "balanced_docs"


class RoundRobinChooser:
    """Deterministically equal per-prefix traffic (zero sampling noise)."""

    def __init__(self, count):
        self.count = count
        self._next = 0

    def choose(self):
        index = self._next
        self._next = (self._next + 1) % self.count
        return index


def build_deployment(shards=3, prefixes=6, docs_per_prefix=2):
    """A replicated deployment with *docs_per_prefix* links per prefix."""

    deployment = ShardedDataLinksDeployment(
        shards, replication=True, witnesses=1,
        flush_policy="immediate", group_commit_window=1)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RDB,
                                                recovery=True)),
    ], primary_key=("doc_id",)))
    session = deployment.session("prop", uid=7001)
    urls = {}
    doc_id = 0
    for prefix_index in range(prefixes):
        for sub in range(docs_per_prefix):
            path = f"/b{prefix_index:02d}/d{sub}/doc{doc_id:04d}.dat"
            url = deployment.put_file(session, path, f"doc {doc_id}".encode())
            session.insert(TABLE, {"doc_id": doc_id, "body": url})
            urls[doc_id] = url
            doc_id += 1
    deployment.system.run_archiver()
    deployment.system.flush_logs()
    return deployment, session, urls


def drive_reads(deployment, session, chooser, prefixes, count,
                docs_per_prefix=2):
    """*count* routed reads whose prefix is picked by *chooser*."""

    for index in range(count):
        prefix_index = chooser.choose()
        doc_id = prefix_index * docs_per_prefix + index % docs_per_prefix
        url = session.get_datalink(TABLE, {"doc_id": doc_id}, "body",
                                   access="read", ttl=1e9)
        deployment.read_url(session, url)


def assert_all_readable(deployment, session, urls):
    for doc_id in urls:
        url = session.get_datalink(TABLE, {"doc_id": doc_id}, "body",
                                   access="read", ttl=1e9)
        assert deployment.read_url(session, url) == f"doc {doc_id}".encode()


class TestIncrementalWindows:
    """The router's per-window deltas partition the noted traffic.

    ``take_traffic_window`` must agree exactly with the reference the
    balancer used to compute -- diffing snapshots of the cumulative
    ``prefix_reads``/``prefix_writes`` dicts -- for any drain schedule.
    """

    def test_windows_match_cumulative_diffs(self):
        deployment, session, urls = build_deployment()
        router = deployment.router
        chooser = ZipfChooser(self_count := 6, theta=1.2, seed=11)
        last_reads: dict[str, int] = {}
        last_writes: dict[str, int] = {}
        for round_index in range(5):
            drive_reads(deployment, session, chooser, self_count,
                        count=7 + round_index)
            expected: dict[str, int] = {}
            for current, last in ((router.prefix_reads, last_reads),
                                  (router.prefix_writes, last_writes)):
                for prefix, count in current.items():
                    delta = count - last.get(prefix, 0)
                    if delta > 0:
                        expected[prefix] = expected.get(prefix, 0) + delta
            last_reads = dict(router.prefix_reads)
            last_writes = dict(router.prefix_writes)
            assert router.take_traffic_window() == expected

    def test_drained_windows_partition_the_traffic(self):
        deployment, session, urls = build_deployment()
        router = deployment.router
        chooser = RoundRobinChooser(6)
        drained: dict[str, int] = {}
        for _ in range(3):
            drive_reads(deployment, session, chooser, 6, count=9)
            for prefix, count in router.take_traffic_window().items():
                drained[prefix] = drained.get(prefix, 0) + count
        # Nothing noted since the last drain: the window is empty ...
        assert router.take_traffic_window() == {}
        # ... and everything ever noted is in exactly one drained window.
        cumulative: dict[str, int] = {}
        for counters in (router.prefix_reads, router.prefix_writes):
            for prefix, count in counters.items():
                cumulative[prefix] = cumulative.get(prefix, 0) + count
        assert drained == cumulative


class TestBalancerGovernance:
    PREFIXES = 6

    def run_skewed(self, move_budget, cooldown_ticks, ticks=8, seed=42):
        deployment, session, urls = build_deployment(prefixes=self.PREFIXES)
        balancer = deployment.enable_balancer(BalancerConfig(
            window_ops_min=6, move_budget=move_budget,
            cooldown_ticks=cooldown_ticks, imbalance_tolerance=1.05,
            split_threshold=0.9))
        chooser = ZipfChooser(self.PREFIXES, theta=1.2, seed=seed)
        for _ in range(ticks):
            drive_reads(deployment, session, chooser, self.PREFIXES, 24)
            balancer.tick()
        return deployment, session, urls, balancer

    @pytest.mark.parametrize("move_budget", [1, 2])
    def test_move_budget_never_exceeded(self, move_budget):
        deployment, session, urls, balancer = self.run_skewed(
            move_budget=move_budget, cooldown_ticks=1)
        assert balancer.moves_issued > 0        # the balancer did act
        for summary in balancer.history:
            assert len(summary["moves"]) <= move_budget
        assert balancer.stats()["max_moves_per_tick"] <= move_budget
        assert_all_readable(deployment, session, urls)

    @pytest.mark.parametrize("cooldown_ticks", [2, 3])
    def test_cooldown_between_moves_of_one_prefix(self, cooldown_ticks):
        deployment, session, urls, balancer = self.run_skewed(
            move_budget=2, cooldown_ticks=cooldown_ticks, ticks=10)
        last_moved: dict[str, int] = {}
        for summary in balancer.history:
            for move in summary["moves"]:
                prefix = move["prefix"]
                if prefix in last_moved:
                    assert summary["tick"] - last_moved[prefix] \
                        >= cooldown_ticks, (
                        f"{prefix} moved at tick {last_moved[prefix]} and "
                        f"again at {summary['tick']} inside the "
                        f"{cooldown_ticks}-tick cooldown")
                last_moved[prefix] = summary["tick"]
        assert_all_readable(deployment, session, urls)

    def test_uniform_workload_converges_to_no_moves(self):
        """Equal per-prefix traffic: after at most a few corrective moves
        (hash placement can be lumpy), the strict-improvement rule makes
        the balancer go quiet -- and stay quiet while traffic continues."""

        deployment, session, urls = build_deployment(prefixes=self.PREFIXES)
        balancer = deployment.enable_balancer(BalancerConfig(
            window_ops_min=6, move_budget=2, cooldown_ticks=1,
            imbalance_tolerance=1.25))
        chooser = RoundRobinChooser(self.PREFIXES)
        moves_by_tick = []
        for _ in range(10):
            drive_reads(deployment, session, chooser, self.PREFIXES, 24)
            moves_by_tick.append(len(balancer.tick()["moves"]))
        # quiet tail: the last ticks issue no moves even though traffic
        # kept flowing through them
        assert moves_by_tick[-3:] == [0, 0, 0], moves_by_tick
        assert balancer.splits == 0
        assert_all_readable(deployment, session, urls)

    def test_noisy_uniform_workload_does_not_thrash(self):
        """Randomly-uniform traffic jitters the per-window loads, so the
        tolerance band has to absorb the noise: with a band wider than
        the sampling error the balancer settles instead of chasing it."""

        deployment, session, urls = build_deployment(prefixes=self.PREFIXES)
        balancer = deployment.enable_balancer(BalancerConfig(
            window_ops_min=6, move_budget=2, cooldown_ticks=1,
            imbalance_tolerance=2.0))
        chooser = UniformChooser(self.PREFIXES, seed=7)
        for _ in range(10):
            drive_reads(deployment, session, chooser, self.PREFIXES, 24)
            balancer.tick()
        assert balancer.moves_issued <= 3, balancer.history
        assert_all_readable(deployment, session, urls)

    def test_tick_without_traffic_does_nothing(self):
        deployment, session, urls, balancer = self.run_skewed(
            move_budget=2, cooldown_ticks=1, ticks=2)
        before = balancer.moves_issued
        summary = balancer.tick()       # empty window
        assert not summary["acted"]
        assert summary["moves"] == [] and summary["splits"] == []
        assert balancer.moves_issued == before


class TestSplitMergeRoundTrip:
    def test_split_move_merge_preserves_every_link(self):
        """Split a prefix, scatter its sub-prefixes, bring them home,
        merge -- every committed link readable at every step, epoch
        strictly monotone."""

        deployment, session, urls = build_deployment(prefixes=3,
                                                     docs_per_prefix=4)
        pmap = deployment.router.placement
        prefix = "/b00"
        owner = pmap.owner_of(prefix)
        other = next(name for name in deployment.shard_names
                     if name != owner)
        epochs = [pmap.epoch]

        split = deployment.split_prefix(prefix)
        epochs.append(pmap.epoch)
        assert split["pins"] and all(shard == owner
                                     for shard in split["pins"].values())
        assert_all_readable(deployment, session, urls)

        # scatter: one sub-prefix to another shard
        sub = sorted(split["pins"])[0]
        assert deployment.rebalance_prefix(sub, other)["moved"]
        epochs.append(pmap.epoch)
        assert_all_readable(deployment, session, urls)
        # a spread subtree refuses to merge
        with pytest.raises(PlacementError, match="co-locate"):
            deployment.merge_prefix(prefix)

        # bring it home and merge
        assert deployment.rebalance_prefix(sub, owner)["moved"]
        epochs.append(pmap.epoch)
        merged = deployment.merge_prefix(prefix)
        epochs.append(pmap.epoch)
        assert merged["shard"] == owner
        assert prefix not in pmap.split_depths
        assert pmap.prefix_of(f"{prefix}/d0/doc0000.dat") == prefix
        assert_all_readable(deployment, session, urls)
        assert epochs == sorted(set(epochs)), epochs     # strictly monotone

    def test_merged_prefix_is_movable_again(self):
        deployment, session, urls = build_deployment(prefixes=2,
                                                     docs_per_prefix=3)
        pmap = deployment.router.placement
        prefix = "/b01"
        owner = pmap.owner_of(prefix)
        other = next(name for name in deployment.shard_names
                     if name != owner)
        deployment.split_prefix(prefix)
        deployment.merge_prefix(prefix)
        assert deployment.rebalance_prefix(prefix, other)["moved"]
        assert pmap.owner_of(prefix) == other
        assert_all_readable(deployment, session, urls)


class TestIdleSplitIsMergedBack:
    """``PlacementBalancer._try_merge``, reached the way ``tick`` reaches
    it: one prefix runs hot until the balancer splits it, some of its
    sub-prefixes are moved away, the traffic stops, and after
    ``merge_idle_ticks`` quiet ticks the balancer brings the pieces home
    (budgeted) and collapses the split."""

    PREFIXES = 3
    IDLE_TICKS = 3

    def split_and_scatter(self, seed, move_budget, scatter):
        """Returns the deployment with one balancer-made split whose
        *scatter* sub-prefixes (seed-chosen) live on other shards."""

        rng = random.Random(seed)
        docs = rng.randint(4, 6)        # one sub-prefix per document
        deployment, session, urls = build_deployment(
            prefixes=self.PREFIXES, docs_per_prefix=docs)
        balancer = deployment.enable_balancer(BalancerConfig(
            window_ops_min=6, move_budget=move_budget, cooldown_ticks=1,
            imbalance_tolerance=1.05, split_threshold=0.5,
            merge_idle_ops=1, merge_idle_ticks=self.IDLE_TICKS))
        pmap = deployment.router.placement
        deployment.router.take_traffic_window()   # the ingest is not traffic
        hot = rng.randrange(self.PREFIXES)
        parent = f"/b{hot:02d}"
        # Every routed operation hits one prefix: no move can reduce the
        # maximum load, so the balancer splits it (needs no budget).
        drive_reads(deployment, session, SimpleNamespace(choose=lambda: hot),
                    self.PREFIXES, 12, docs_per_prefix=docs)
        summary = balancer.tick()
        assert [split["prefix"] for split in summary["splits"]] == [parent]
        assert summary["moves"] == []
        pins = {sub: shard for sub, shard in pmap.overrides.items()
                if sub != parent and path_under(parent, sub)}
        assert len(pins) == docs and len(set(pins.values())) == 1
        home = next(iter(pins.values()))
        away = [name for name in deployment.shard_names if name != home]
        scattered = sorted(rng.sample(sorted(pins), scatter))
        for sub in scattered:
            assert deployment.rebalance_prefix(sub,
                                               rng.choice(away))["moved"]
        return deployment, session, urls, balancer, parent, home, scattered

    @pytest.mark.parametrize("seed, move_budget, scatter", [
        (3, 1, 0),              # nothing scattered: merged outright
        (20261002, 1, 1),       # co-locate one piece, then merge
        (77, 1, 2),             # two pieces, one per tick
        (4242, 2, 2),           # two pieces in one tick
    ])
    def test_pieces_come_home_within_budget_then_the_split_merges(
            self, seed, move_budget, scatter):
        deployment, session, urls, balancer, parent, home, scattered = \
            self.split_and_scatter(seed, move_budget, scatter)
        pmap = deployment.router.placement
        epoch_before = pmap.epoch
        idle = balancer.run(self.IDLE_TICKS + 2)

        # Quiet until the subtree has been idle long enough ...
        for summary in idle[:self.IDLE_TICKS - 1]:
            assert summary["moves"] == [] and summary["merges"] == []
        # ... then the minority pieces go to the majority holder, at most
        # ``move_budget`` per tick, and nothing else moves.
        moves = [move for summary in idle for move in summary["moves"]]
        assert all(len(summary["moves"]) <= move_budget for summary in idle)
        assert sorted(move["prefix"] for move in moves) == scattered
        assert all(move["dest"] == home for move in moves)
        # The tick after the last piece arrives merges the parent.
        colocate_ticks = -(-scatter // move_budget)
        merged_at = self.IDLE_TICKS + colocate_ticks
        assert [(summary["tick"] - idle[0]["tick"] + 1, summary["merges"])
                for summary in idle if summary["merges"]] == \
            [(merged_at, [{"prefix": parent, "shard": home,
                           "epoch": pmap.epoch}])]
        assert balancer.stats()["merges"] == 1
        assert balancer.stats()["moves_skipped_budget"] == \
            (1 if scatter > move_budget else 0)
        assert parent not in pmap.split_depths
        assert parent not in balancer._split_idle
        assert pmap.owner_of(parent) == home
        # One epoch bump per move and one for the merge.
        assert pmap.epoch == epoch_before + scatter + 1
        assert all(pmap.prefix_of(path) == parent
                   for path in deployment.linked_paths(home)
                   if path_under(parent, path))
        assert_all_readable(deployment, session, urls)
        assert audit_committed_links(deployment, session, TABLE, "doc_id",
                                     "body", 1e9) == 0

    def test_without_budget_the_pieces_stay_and_nothing_merges(self):
        deployment, session, urls, balancer, parent, home, scattered = \
            self.split_and_scatter(seed=909, move_budget=0, scatter=1)
        pmap = deployment.router.placement
        epoch_before = pmap.epoch
        idle = balancer.run(self.IDLE_TICKS + 2)
        assert all(summary["moves"] == [] and summary["merges"] == []
                   for summary in idle)
        # Every due tick wanted one co-location move and had no budget.
        assert [summary["skipped_budget"] for summary in idle] == \
            [0] * (self.IDLE_TICKS - 1) + [1, 1, 1]
        assert balancer.stats()["moves_skipped_budget"] == 3
        assert balancer.stats()["merges"] == 0
        assert parent in pmap.split_depths
        assert balancer._split_idle[parent] == self.IDLE_TICKS + 2
        assert pmap.owner_of(scattered[0]) != home
        assert pmap.epoch == epoch_before
        assert_all_readable(deployment, session, urls)
        assert audit_committed_links(deployment, session, TABLE, "doc_id",
                                     "body", 1e9) == 0

    def test_a_down_shard_defers_the_merge_until_it_is_back(self):
        """While a shard cannot list its files the subtree's holders are
        unknown: the due merge is retried every tick, raises nothing and
        moves nothing, and completes once the shard has recovered."""

        deployment, session, urls, balancer, parent, home, scattered = \
            self.split_and_scatter(seed=5150, move_budget=1, scatter=1)
        pmap = deployment.router.placement
        holder = pmap.owner_of(scattered[0])
        deployment.crash_shard(holder)
        down = balancer.run(self.IDLE_TICKS + 1)
        assert all(summary["moves"] == [] and summary["merges"] == []
                   and summary["refused"] == 0 for summary in down)
        deployment.recover_shard(holder)
        back = balancer.run(2)
        assert [move["prefix"] for move in back[0]["moves"]] == scattered
        assert [merge["prefix"] for merge in back[1]["merges"]] == [parent]
        assert_all_readable(deployment, session, urls)
        assert audit_committed_links(deployment, session, TABLE, "doc_id",
                                     "body", 1e9) == 0
