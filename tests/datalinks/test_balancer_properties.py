"""Seeded property tests for the autonomous placement balancer.

Five governance properties, each driven by deterministic (seeded)
traffic so failures replay exactly:

* the per-tick move budget is never exceeded;
* a moved prefix is never moved again inside its cooldown window;
* on a *uniform* workload the balancer converges: once the load is
  within tolerance it issues no further moves, however long the traffic
  keeps running;
* a split whose sub-prefix is scattered and brought home round-trips:
  every committed link still resolves, and the placement epoch only ever
  moves forward;
* a split is never undone: an idle split subtree keeps its depth and its
  pieces, and renewed traffic moves the pieces, never the parent.

``TestSplitRefusals`` checks the map's own split rules directly.
"""

import random
from types import SimpleNamespace

import pytest

from repro.datalinks.balancer import BalancerConfig
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.placement import PlacementMap, path_under
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


class TestSplitRoundTrip:
    def test_split_scatter_return_preserves_every_link(self):
        """Split a prefix, scatter a sub-prefix, bring it home -- every
        committed link readable at every step, epoch strictly monotone."""

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

        # bring it home
        assert deployment.rebalance_prefix(sub, owner)["moved"]
        epochs.append(pmap.epoch)
        assert pmap.owner_of(sub) == owner
        assert prefix in pmap.split_depths
        assert_all_readable(deployment, session, urls)
        assert epochs == sorted(set(epochs)), epochs     # strictly monotone


class TestBalancerSplitIsNeverUndone:
    """A split the balancer makes stays: once the traffic is gone, the
    split subtree keeps its depth and every piece stays where it was put,
    so the map's depth stays bounded by the directory depth.  When the
    traffic comes back, the balancer moves the pieces, never the parent."""

    PREFIXES = 3
    IDLE_TICKS = 4

    def split_and_scatter(self, seed, scatter):
        """Returns the deployment with one balancer-made split whose
        *scatter* sub-prefixes (seed-chosen) live on other shards."""

        rng = random.Random(seed)
        docs = rng.randint(4, 6)        # one sub-prefix per document
        deployment, session, urls = build_deployment(
            prefixes=self.PREFIXES, docs_per_prefix=docs)
        balancer = deployment.enable_balancer(BalancerConfig(
            window_ops_min=6, move_budget=2, cooldown_ticks=1,
            imbalance_tolerance=1.05, split_threshold=0.5))
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
        for sub in sorted(rng.sample(sorted(pins), scatter)):
            assert deployment.rebalance_prefix(sub,
                                               rng.choice(away))["moved"]
        return deployment, session, urls, balancer, parent, hot, docs

    @pytest.mark.parametrize("seed, scatter", [
        (3, 0),                 # nothing scattered
        (20261002, 1),
        (77, 2),
        (4242, 3),
    ])
    def test_an_idle_split_stays_and_its_pieces_stay_put(self, seed, scatter):
        deployment, session, urls, balancer, parent, _, _ = \
            self.split_and_scatter(seed, scatter)
        pmap = deployment.router.placement
        placed = dict(pmap.overrides)
        epoch_before = pmap.epoch
        idle = [balancer.tick() for _ in range(self.IDLE_TICKS)]

        assert all(not summary["acted"] and summary["moves"] == []
                   and summary["splits"] == [] for summary in idle)
        assert pmap.split_depths[parent] == 2
        assert pmap.overrides == placed
        assert pmap.epoch == epoch_before
        assert balancer.stats()["splits"] == 1
        # every linked path under the parent still routes by its piece
        for name in deployment.shard_names:
            for path in deployment.linked_paths(name):
                if path_under(parent, path):
                    assert pmap.prefix_of(path) != parent
                    assert pmap.shard_of(path) == name
        assert_all_readable(deployment, session, urls)
        assert audit_committed_links(deployment, session, TABLE, "doc_id",
                                     "body", 1e9) == 0

    def test_renewed_traffic_moves_pieces_and_never_the_parent(self):
        deployment, session, urls, balancer, parent, hot, docs = \
            self.split_and_scatter(seed=909, scatter=0)
        pmap = deployment.router.placement
        summaries = []
        for _ in range(3):
            drive_reads(deployment, session,
                        SimpleNamespace(choose=lambda: hot), self.PREFIXES,
                        12, docs_per_prefix=docs)
            summaries.append(balancer.tick())
        moves = [move for summary in summaries for move in summary["moves"]]
        assert moves
        assert all(move["prefix"] != parent and path_under(parent,
                                                           move["prefix"])
                   for move in moves)
        assert all(len(summary["moves"]) <= 2 for summary in summaries)
        assert all(split["prefix"] != parent for summary in summaries
                   for split in summary["splits"])
        assert len({pmap.owner_of(move["prefix"]) for move in moves} |
                   {pmap.owner_of(parent)}) > 1
        assert_all_readable(deployment, session, urls)
        assert audit_committed_links(deployment, session, TABLE, "doc_id",
                                     "body", 1e9) == 0


class TestSplitRefusals:
    """``PlacementMap.split_prefix`` deepens a subtree once, and only
    deeper; a path shallower than the split keeps its own prefix."""

    def placement(self):
        return PlacementMap(["shard0", "shard1", "shard2"])

    def test_a_second_split_of_one_prefix_is_refused(self):
        pmap = self.placement()
        epoch = pmap.split_prefix("/b00", 2, {})
        with pytest.raises(PlacementError, match="already split"):
            pmap.split_prefix("/b00", 3, {})
        assert pmap.split_depths == {"/b00": 2}
        assert (pmap.epoch, pmap.splits) == (epoch, 1)

    @pytest.mark.parametrize("depth", [0, 1])
    def test_a_split_that_does_not_deepen_is_refused(self, depth):
        pmap = self.placement()
        with pytest.raises(PlacementError, match="does not deepen"):
            pmap.split_prefix("/b00", depth, {"/b00/d0": "shard1"})
        assert pmap.split_depths == {} and pmap.overrides == {}
        assert (pmap.epoch, pmap.splits) == (1, 0)

    def test_a_moving_prefix_is_split_only_after_its_hand_off(self):
        pmap = self.placement()
        pmap.begin_move("/b00", "shard1")
        with pytest.raises(PlacementError, match="being rebalanced"):
            pmap.split_prefix("/b00", 2, {})
        pmap.abort_move("/b00")
        assert pmap.split_prefix("/b00", 2, {"/b00/d0": "shard2"}) == 2
        assert pmap.shard_of("/b00/d0/doc.dat") == "shard2"

    def test_the_split_depth_is_bounded_by_the_path_depth(self):
        pmap = self.placement()
        pmap.split_prefix("/b00", 5, {})
        assert pmap.prefix_of("/b00/d0/doc.dat") == "/b00/d0/doc.dat"
        assert pmap.prefix_of("/b00/d1") == "/b00/d1"
        assert pmap.prefix_of("/b00") == "/b00"
        assert pmap.prefix_of("/b01/d0/doc.dat") == "/b01"
