"""Autonomous placement balancing: the self-driving control plane.

PR 5 made placement *dynamic* (epoched :class:`~repro.datalinks.placement.PlacementMap`,
online :func:`~repro.datalinks.placement.rebalance_prefix`), but every move
was operator-driven.  This module closes the loop: a
:class:`PlacementBalancer` watches the per-prefix routed read/write
counters the :class:`~repro.datalinks.routing.ReplicationRouter` already
keeps, detects skew, and issues the moves itself.

Design
------
* **Caller-ticked daemon on its own clock domain.**  Like the archiver,
  the balancer has no thread: the cluster operator (or an experiment
  harness) calls :meth:`PlacementBalancer.tick` periodically.  Each tick
  runs on the ``"balancer"`` clock domain and executes its moves under
  :func:`~repro.simclock.synchronized_call` against the deployment's
  coordinator domain, so control-plane work genuinely overlaps foreground
  traffic in simulated time and the moves' cost lands on both timelines.
* **Windows, not history.**  The router accumulates per-prefix traffic
  deltas as it notes each routed operation, and a tick drains them
  (:meth:`~repro.datalinks.routing.ReplicationRouter.take_traffic_window`);
  the drained delta is the traffic *window* the decisions are based on,
  and a tick costs O(prefixes touched this window).  Ticks whose window is
  thinner than ``window_ops_min`` make no balancing decisions (too little
  signal).
* **Governed, not greedy.**  At most ``move_budget`` moves per tick, a
  per-prefix ``cooldown_ticks`` re-move lockout, and every move must
  *strictly reduce the maximum shard load* for the window
  (``ops[prefix] + load[dest] < load[source]``).  The strict-improvement
  rule is what makes the balancer convergent: on a stable workload the
  max load can only step down a finite number of times, after which the
  balancer goes quiet instead of thrashing prefixes back and forth.
* **Split when moving cannot help.**  A single prefix hotter than
  ``split_threshold`` of its whole shard cannot be fixed by moving it --
  the hotspot just changes address.  The balancer then *splits* the
  prefix (:meth:`~repro.datalinks.sharding.ShardedDataLinksDeployment.split_prefix`):
  the map's effective routing depth deepens under that subtree, existing
  sub-prefixes stay pinned where they are, and the very next window sees
  per-sub-prefix counters it can move independently.  A split is never
  undone, so the map's depth stays bounded by the directory depth.

Every decision is recorded: per-tick summaries in
:attr:`PlacementBalancer.history` and cumulative counters in
:meth:`PlacementBalancer.stats` (surfaced through
``ShardedDataLinksDeployment.stats()["balancer"]``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlacementError, ReproError
from repro.simclock import synchronized_call


@dataclass
class BalancerConfig:
    """Knobs of the autonomous balancer."""

    #: Minimum routed operations in a tick's window before the balancer
    #: acts; thinner windows are noise.
    window_ops_min: int = 16
    #: Maximum rebalance moves issued per tick.
    move_budget: int = 2
    #: A moved prefix may not move again for this many ticks.
    cooldown_ticks: int = 2
    #: A shard is overloaded when its window load exceeds this multiple
    #: of the fair share (total / shards).
    imbalance_tolerance: float = 1.25
    #: Split a prefix when it alone carries at least this fraction of its
    #: shard's window load and moving it whole cannot reduce the maximum.
    split_threshold: float = 0.5


class PlacementBalancer:
    """Watches routed traffic and rebalances prefix placement by itself."""

    def __init__(self, deployment, config: BalancerConfig | None = None):
        self.deployment = deployment
        self.config = config if config is not None else BalancerConfig()
        #: The balancer's own timeline, like the archive domain: planning
        #: and moves overlap foreground traffic instead of serializing
        #: with it.
        self.clock = deployment.clocks.domain("balancer")
        #: ``prefix -> first tick at which it may move again``.
        self._cooldown_until: dict[str, int] = {}
        self.ticks = 0
        self.moves_issued = 0
        self.moves_refused = 0
        self.moves_skipped_budget = 0
        self.moves_skipped_cooldown = 0
        self.splits = 0
        #: One summary dict per tick, in order.
        self.history: list[dict] = []

    # ------------------------------------------------------------------ window --
    def _window(self) -> dict[str, int]:
        """Per-prefix routed operations since the previous tick.

        The router accumulates the per-window deltas as traffic is noted
        (:meth:`~repro.datalinks.routing.ReplicationRouter.take_traffic_window`),
        so a tick costs O(prefixes touched this window) -- the balancer
        used to re-copy and diff the full cumulative counter dicts, which
        is O(prefixes ever touched) per tick.
        """

        return self.deployment.router.take_traffic_window()

    def _movable(self, prefix: str, tick: int, summary: dict) -> bool:
        pmap = self.deployment.router.placement
        if pmap.is_moving(prefix) or prefix in pmap.split_depths:
            return False
        if self._cooldown_until.get(prefix, 0) > tick:
            self.moves_skipped_cooldown += 1
            summary["skipped_cooldown"] += 1
            return False
        return True

    def _move(self, prefix: str, dest: str, tick: int, summary: dict) -> bool:
        """Issue one governed move; returns whether it succeeded."""

        deployment = self.deployment
        try:
            with synchronized_call(self.clock, deployment.clock):
                result = deployment.rebalance_prefix(prefix, dest)
        except (PlacementError, ReproError):
            # A refused move (in-flight opens, pending archive jobs, a
            # node down mid-protocol...) is back-pressure, not a fault;
            # the cooldown keeps the balancer from hammering the prefix.
            self.moves_refused += 1
            self._cooldown_until[prefix] = tick + self.config.cooldown_ticks
            summary["refused"] += 1
            return False
        self.moves_issued += 1
        self._cooldown_until[prefix] = tick + self.config.cooldown_ticks
        summary["moves"].append({"prefix": prefix, "source": result["source"],
                                 "dest": dest, "epoch": result["epoch"]})
        return True

    # --------------------------------------------------------------- balancing --
    def _rebalance(self, window: dict[str, int], tick: int,
                   summary: dict) -> None:
        """Move hot prefixes off overloaded shards; split when stuck."""

        config = self.config
        budget = config.move_budget
        pmap = self.deployment.router.placement
        shards = self.deployment.shard_names
        load = {name: 0 for name in shards}
        by_owner: dict[str, dict[str, int]] = {name: {} for name in shards}
        for prefix, ops in window.items():
            owner = pmap.owner_of(prefix)
            if owner not in load:
                continue
            load[owner] += ops
            by_owner[owner][prefix] = ops
        fair = sum(load.values()) / max(1, len(shards))

        while True:
            source = max(load, key=lambda name: load[name])
            if load[source] <= config.imbalance_tolerance * fair:
                return
            dest = min(load, key=lambda name: load[name])
            candidates = sorted(by_owner[source],
                                key=lambda p: by_owner[source][p],
                                reverse=True)
            moved = False
            for prefix in candidates:
                ops = by_owner[source][prefix]
                if ops + load[dest] >= load[source]:
                    # Moving this prefix cannot strictly reduce the max
                    # load; smaller candidates cannot either once the
                    # hottest ones are exhausted, but they may still fit.
                    continue
                if not self._movable(prefix, tick, summary):
                    continue
                if budget <= 0:
                    self.moves_skipped_budget += 1
                    summary["skipped_budget"] += 1
                    return
                if self._move(prefix, dest, tick, summary):
                    budget -= 1
                    load[source] -= ops
                    load[dest] += ops
                    del by_owner[source][prefix]
                    by_owner[dest][prefix] = ops
                    moved = True
                    break
            if not moved:
                break
        # No strictly-improving move exists.  If one prefix dominates the
        # shard, deepen the map under it so the *next* window can spread
        # its subtrees (at most one split per tick).
        if not summary["splits"] and candidates:
            hottest = candidates[0]
            if by_owner[source][hottest] >= \
                    config.split_threshold * load[source] \
                    and hottest not in pmap.split_depths \
                    and not pmap.is_moving(hottest):
                try:
                    with synchronized_call(self.clock, self.deployment.clock):
                        result = self.deployment.split_prefix(hottest)
                except (PlacementError, ReproError):
                    return
                self.splits += 1
                summary["splits"].append(
                    {"prefix": hottest, "depth": result["depth"],
                     "epoch": result["epoch"]})

    # -------------------------------------------------------------------- tick --
    def tick(self) -> dict:
        """One balancing pass; returns this tick's decision summary."""

        self.ticks += 1
        tick = self.ticks
        window = self._window()
        total = sum(window.values())
        summary = {"tick": tick, "window_ops": total, "moves": [],
                   "splits": [], "refused": 0,
                   "skipped_budget": 0, "skipped_cooldown": 0,
                   "acted": total >= self.config.window_ops_min}
        if summary["acted"]:
            self._rebalance(window, tick, summary)
        self.history.append(summary)
        return summary

    # ------------------------------------------------------------------- stats --
    def stats(self) -> dict:
        return {
            "ticks": self.ticks,
            "moves_issued": self.moves_issued,
            "moves_refused": self.moves_refused,
            "moves_skipped_budget": self.moves_skipped_budget,
            "moves_skipped_cooldown": self.moves_skipped_cooldown,
            "splits": self.splits,
            "move_budget": self.config.move_budget,
            "max_moves_per_tick": max(
                (len(entry["moves"]) for entry in self.history), default=0),
        }
