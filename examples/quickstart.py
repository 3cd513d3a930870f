#!/usr/bin/env python3
"""Quickstart: link a file, read it through the file system, update it in place.

This walks through the core loop of the paper:

1. build a DataLinks system (host database + one file server);
2. create a table with a DATALINK column in ``rfd`` mode (reads stay with the
   file system, writes are managed by the database);
3. put a file on the file server and link it by inserting a row;
4. read the file through the ordinary file-system API;
5. update it *in place* with a write token -- no unlink/relink needed;
6. watch the automatically maintained metadata and the archived version
   (the newest one is kept, plus any a retained backup would restore);
7. scale out: shard linked files over several DLFMs with WAL group commit
   and batched link pipelines;
8. replicate: give every shard a witness replica fed by the primary's
   repository WAL stream.  Healthy witnesses serve *follower reads*
   (load-balanced by the replication-aware router over every witness
   with nothing unapplied); a primary downed by ``crash(node)`` fails over to a witness
   promoted to a **full primary** -- reads *and* link/unlink writes keep
   flowing -- and fail-back restarts the ex-primary and catches it up
   over a *reversed* WAL stream from its last-applied LSN instead of a
   full resync;
9. rebalance *online*: placement is no longer a hash frozen at deployment
   time but a versioned ``PlacementMap`` with a **placement epoch** --
   ``rebalance_prefix(prefix, dest)`` moves a hot URL prefix to another
   shard under a two-phase-commit hand-off (repository rows, archived
   version chain and file content; the destination's witnesses mirrored
   in the same step), while old URLs keep resolving: the router maps
   every URL to the prefix's *current* owner, and the fenced ex-owner
   answers straggler writes with a ``PlacementEpochError`` redirect.

How simulated time works (see ``repro/simclock.py`` for the full story):
every *node* -- the host database, each file server, the archive mover --
owns its own ``ClockDomain`` and advances it by charging calibrated
primitive costs.  Domains max-merge at real synchronization points (IPC
round trips, two-phase-commit barriers, synchronous mirrors), while
pipelined traffic (link batches, WAL shipping) lets the receiver work on
its own timeline without blocking the sender, so N shards genuinely
overlap.  ``system.clock`` is the host node's domain;
``system.clocks.global_now()`` is the cluster wall clock (the max over all
domains) that experiments report.  Benchmarks then quote *simulated*
milliseconds calibrated against the paper's Section 3.2 measurements.

Scale-out knobs (step 7):

* ``ShardedDataLinksDeployment(shards, flush_policy=..., group_commit_window=...)``
  hash-partitions files over N file servers by URL prefix and queues commits
  so one log force and one prepare/commit message per shard cover a batch;
* ``Session.insert_many`` / ``DataLinksEngine.insert_many`` ship one batched
  link message per enlisted shard for a multi-row INSERT;
* ``DataLinksSystem(flush_policy="group", group_commit_window=n)`` builds a
  system with WAL group commit on (the default ``"immediate"`` is the
  classic one-force-per-commit protocol);
* ``ShardedDataLinksDeployment(..., replication=True, witnesses=N)`` adds
  witness replicas per shard and a ``ReplicationRouter`` that owns roles
  and routes: reads round-robin over the serving node plus every witness
  with nothing unapplied and a current copy of the file
  (``ReplicatedShard.serves_read``); ``fail_over(shard)``
  promotes the best witness to a full primary (epoch-fenced, so the
  deposed ex-primary cannot serve stale tokens -- or take split-brain
  writes) and ``fail_back(shard)`` rejoins the recovered ex-primary over
  the reversed WAL stream before rotating the lease back;
* ``deployment.rebalance_prefix(prefix, dest_shard)`` (step 9) moves a
  prefix online; ``deployment.stats()["routing"]["placement"]`` shows the
  placement epoch, the moved-prefix overrides and any hand-off in flight;
* ``deployment.enable_balancer(BalancerConfig(...))`` (step 10) attaches
  the self-driving placement balancer: each ``tick()`` diffs the router's
  per-prefix traffic counters and issues budgeted, cooldown-governed
  ``rebalance_prefix`` moves (splitting a prefix deeper when moving it
  whole cannot help, merging it back once the heat is gone).

Bench scale tiers (``python -m repro.bench``): ``--smoke`` runs every
experiment on tiny configs in under a second (the tier-1 CI gate and the
committed ``BENCH_smoke.json`` artifact live there), the default tier runs
the paper-scale configs, and ``--scale large`` is the committed capacity
tier (``BENCH_large.json``): E14 as a true million-op run (each variant's
``link_ops`` counts >10^6 charged simulated primitives, <60s wall) and E9
with 1,200 reader sessions plus a 10 -> 10^4 concurrent-session sweep
reporting throughput and p50/p99 read latency per step through the bulk
``get_datalink_many`` token handout.  Regenerate it with
``python -m repro.bench --scale large --profile --best-of 2`` from the
repo root and commit the artifact; tier-1 checks its shape and acceptance
bars cheaply, while ``REPRO_LARGE_BENCH=1 python -m pytest
tests/test_bench_artifact.py`` re-runs the full identity + budget gates.
``--profile`` records a deterministic per-experiment
function-call count (``profile_calls``) next to the cProfile table, and
``--best-of N`` records every wall-clock sample so CI can tell a
regression from a noisy neighbor.

Run with:  python examples/quickstart.py
"""

from repro import (
    Column,
    ControlMode,
    DataLinksSystem,
    DatalinkOptions,
    DataType,
    TableSchema,
    datalink_column,
)


def main() -> None:
    # 1. A system: host DB + DataLinks engine + one file server ("fs1").
    system = DataLinksSystem()
    system.add_file_server("fs1")

    # 2. A table whose "body" column is a DATALINK in rfd mode.
    system.create_table(TableSchema("documents", [
        Column("doc_id", DataType.INTEGER, nullable=False),
        Column("title", DataType.TEXT),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFD)),
        Column("body_size", DataType.INTEGER),
        Column("body_mtime", DataType.TIMESTAMP),
    ], primary_key=("doc_id",)))
    system.register_metadata_columns("documents", "body", "body_size", "body_mtime")

    # 3. An application session; put a file on the file server and link it.
    alice = system.session("alice", uid=1001)
    url = alice.put_file("fs1", "/docs/welcome.html", b"<html>Welcome, v1</html>")
    alice.insert("documents", {"doc_id": 1, "title": "Welcome page", "body": url,
                               "body_size": 0, "body_mtime": 0.0})
    system.run_archiver()            # archive the initial version asynchronously
    print(f"linked {url}")

    # 4. Read through the plain file-system API (rfd: no token needed to read).
    content = alice.fs("fs1").read_file("/docs/welcome.html")
    print(f"read {len(content)} bytes through the file system API: {content!r}")

    # A direct write is rejected: the database manages write access now.
    try:
        alice.fs("fs1").write_file("/docs/welcome.html", b"defaced", create=False)
    except Exception as error:
        print(f"direct write rejected as expected: {error}")

    # 5. Update in place: get a write token from the database, open, write, close.
    write_url = alice.get_datalink("documents", {"doc_id": 1}, "body", access="write")
    print(f"write token URL: {write_url}")
    with alice.update_file(write_url, truncate=True) as update:
        update.replace(b"<html>Welcome, v2 -- updated in place!</html>")
    system.run_archiver()

    # 6. Metadata was updated in the same transaction; the newest version is
    #    kept (no backup would restore the one it superseded).
    row = system.host_db.select_one("documents", {"doc_id": 1}, lock=False)
    print(f"new content: {alice.fs('fs1').read_file('/docs/welcome.html')!r}")
    print(f"metadata maintained by the DBMS: size={row['body_size']} "
          f"mtime={row['body_mtime']:.3f}")
    versions = system.file_server("fs1").dlfm.repository.versions("/docs/welcome.html")
    print(f"archived versions: {[v['version_no'] for v in versions]}")
    print(f"simulated time spent: {system.clocks.global_now() * 1000:.2f} ms "
          f"(cluster wall clock; host domain at "
          f"{system.clock.now() * 1000:.2f} ms)")

    # 7. Scale out: shard files over 4 DLFMs, batch the links, group-commit.
    from repro.datalinks.sharding import ShardedDataLinksDeployment

    deployment = ShardedDataLinksDeployment(shards=4, flush_policy="group",
                                            group_commit_window=4)
    deployment.create_table(TableSchema("pages", [
        Column("page_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFF)),
    ], primary_key=("page_id",)))
    bob = deployment.session("bob", uid=1002)
    for batch in range(4):
        txn = deployment.begin()
        rows = []
        for index in range(8):
            page_id = batch * 8 + index
            path = f"/site{page_id % 16}/page{page_id}.html"
            url = deployment.put_file(bob, path, f"<html>{page_id}</html>".encode())
            rows.append({"page_id": page_id, "body": url})
        deployment.engine.insert_many("pages", rows, txn)  # 1 link msg per shard
        deployment.commit(txn)   # enqueued; every 4th commit drains the group
    deployment.drain()
    stats = deployment.stats()
    print(f"sharded deployment: {stats['linked_files_per_shard']} "
          f"with only {stats['host_log_flushes']} host log flushes")
    domains = stats["clock_domains"]
    print(f"clock domains: cluster wall clock "
          f"{domains['global_now_ms']:.2f} ms while per-shard work overlapped "
          f"({ {name: round(ms, 2) for name, ms in domains['charged_ms_per_domain'].items()} } "
          f"ms charged per node)")

    # 8. Replicate: witness replicas consume each primary's WAL stream, so a
    #    shard crash no longer stops reads -- or, since failover is
    #    writable, links and unlinks.
    replicated = ShardedDataLinksDeployment(shards=2, replication=True)
    replicated.create_table(TableSchema("articles", [
        Column("article_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RDB)),
    ], primary_key=("article_id",)))
    carol = replicated.session("carol", uid=1003)
    path = "/news/today.html"
    url = replicated.put_file(carol, path, b"<html>breaking news</html>")
    carol.insert("articles", {"article_id": 1, "body": url})
    replicated.system.run_archiver()
    replicated.system.flush_logs()   # drain group commit: witness catches up

    # Follower reads: the router round-robins token-validated reads over
    # the primary and every witness with nothing unapplied.
    shard = replicated.shard_of(path)
    read_url = carol.get_datalink("articles", {"article_id": 1}, "body",
                                  access="read", ttl=1e9)
    for _ in range(2):
        replicated.read_url(carol, read_url)
    roles = replicated.stats()["routing"]
    print(f"follower reads: {roles['reads_by_role']} over roles "
          f"{roles['roles'][shard]}")

    replicated.crash(shard)                  # primary dies mid-traffic...
    promotion = replicated.fail_over(shard)  # ...witness becomes full primary
    print(f"primary {shard} crashed; witness {promotion['serving']} promoted "
          f"at epoch {promotion['epoch']}")
    print(f"same token, same URL, read via the witness: "
          f"{replicated.read_url(carol, read_url)!r}")

    # Writable failover: the promoted witness takes the link branch and the
    # 2PC vote for a brand-new article while the home primary is still down.
    url2 = replicated.put_file(carol, "/news/update.html",
                               b"<html>filed during the outage</html>")
    carol.insert("articles", {"article_id": 2, "body": url2})
    print(f"linked {url2} while {shard} was down "
          f"(served by {promotion['serving']})")

    # Fail-back: the ex-primary restarts and rejoins over the *reversed* WAL
    # stream (catching up from its last-applied LSN -- no full resync),
    # then the lease rotates home and the outage-era article is there.
    summary = replicated.fail_back(shard)
    rejoin = summary.get("rejoin", {})
    print(f"failed back to {shard} via {rejoin.get('mode', 'rotation')} "
          f"({rejoin.get('caught_up_records', 0)} records caught up): "
          f"{replicated.read_url(carol, read_url)!r}")
    read_url2 = carol.get_datalink("articles", {"article_id": 2}, "body",
                                   access="read", ttl=1e9)
    print(f"outage-era article served by the home primary: "
          f"{replicated.read_url(carol, read_url2)!r}")

    # 9. Rebalance online: move the hot /news prefix to the other shard
    #    under a 2PC hand-off -- rows, version chain and content relink to
    #    the destination DLFM, its witnesses get the mirror in the same
    #    step, and the placement epoch bumps atomically at commit.
    replicated.system.run_archiver()
    other = next(name for name in replicated.shard_names if name != shard)
    summary = replicated.rebalance_prefix("/news", other)
    print(f"rebalanced /news: {summary['moved_files']} files + "
          f"{summary['moved_versions']} archived versions moved "
          f"{summary['source']} -> {summary['dest']} "
          f"(placement epoch {summary['epoch']})")
    # The old URL still names the old shard; the router resolves it to the
    # new owner, whose token secret signed the fresh read token.
    read_url = carol.get_datalink("articles", {"article_id": 1}, "body",
                                  access="read", ttl=1e9)
    print(f"old URL, new owner: {replicated.read_url(carol, read_url)!r}")
    placement = replicated.stats()["routing"]["placement"]
    print(f"placement map: epoch {placement['epoch']}, "
          f"overrides {placement['overrides']}")
    # A straggler write addressed to the fenced ex-owner is redirected.
    try:
        replicated.shard(shard).dlfm.check_placement("/news/today.html")
    except Exception as error:
        print(f"stale write to {shard} refused: {error}")

    # 10. Self-driving placement: the balancer runs on its own clock
    #     domain, diffs the router's per-prefix traffic counters each
    #     tick, and issues budgeted, cooldown-governed rebalance moves on
    #     its own -- no operator in the loop.
    from repro.datalinks.balancer import BalancerConfig

    balancer = replicated.enable_balancer(BalancerConfig(
        window_ops_min=8, move_budget=1, cooldown_ticks=2))
    for index in range(4):
        cat_url = replicated.put_file(
            carol, f"/cat{index}/story.html",
            f"<html>category {index}</html>".encode())
        carol.insert("articles", {"article_id": 10 + index, "body": cat_url})
    replicated.system.run_archiver()
    replicated.system.flush_logs()
    # Two of the four /cat prefixes necessarily share a shard; hammer that
    # pair so the shard runs hot.
    by_shard: dict = {}
    for index in range(4):
        owner = replicated.shard_of(f"/cat{index}/story.html")
        by_shard.setdefault(owner, []).append(index)
    crowded = max(by_shard, key=lambda name: len(by_shard[name]))
    hot, warm = by_shard[crowded][:2]
    for index, reads in ((hot, 12), (warm, 6)):
        token = carol.get_datalink("articles", {"article_id": 10 + index},
                                   "body", access="read", ttl=1e9)
        for _ in range(reads):
            replicated.read_url(carol, token)
    summary = balancer.tick()
    for move in summary["moves"]:
        print(f"balancer moved hot prefix {move['prefix']} "
              f"{move['source']} -> {move['dest']} on its own "
              f"(tick {summary['tick']}, {summary['window_ops']} window ops)")
    quiet = balancer.tick()          # no fresh traffic: the balancer idles
    stats = balancer.stats()
    print(f"balancer: {stats['moves_issued']} move(s) issued, max "
          f"{stats['max_moves_per_tick']}/tick within budget "
          f"{stats['move_budget']}; quiet tick acted={quiet['acted']}")


if __name__ == "__main__":
    main()
