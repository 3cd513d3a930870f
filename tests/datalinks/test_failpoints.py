"""The one failpoint table (:mod:`repro.util.failpoints`).

Every registered point is reachable, a misspelled point cannot be armed,
and the commit protocol, every WAL shipper and replica applier, promotion
and the rebalance hand-off all fire into the engine's one table.
"""

from collections import Counter

import pytest

from repro.datalinks import engine as engine_module
from repro.datalinks import placement, replication
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.datalinks.sharding import ShardedDataLinksDeployment
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.util import failpoints
from repro.util.failpoints import POINTS, FailpointTable

TABLE = "fired_docs"
FIRING_MODULES = (engine_module, placement, replication)


@pytest.fixture(scope="module")
def scenario():
    """A commit, a group commit, a rebalance and a fail-over on a replicated
    two-shard deployment, every registered point armed with a counting hook
    and every ``fire`` call's table recorded.

    Returns ``(deployment, fired points, tables fired into)``.
    """

    deployment = ShardedDataLinksDeployment(2, replication=True)
    deployment.create_table(TableSchema(TABLE, [
        Column("doc_id", DataType.INTEGER, nullable=False),
        datalink_column("body", DatalinkOptions(control_mode=ControlMode.RFF,
                                                recovery=False)),
    ], primary_key=("doc_id",)))
    session = deployment.session("alice", uid=1001)
    paths = {}
    for index in range(1000):
        paths.setdefault(deployment.shard_of(f"/zone{index}/doc.dat"),
                         f"/zone{index}/doc.dat")
        if len(paths) == 2:
            break

    fired = Counter()
    scopes = {"<server>": list(deployment.engine._servers),
              "<shard>": deployment.shard_names}
    for name in POINTS:
        point, _, scope = name.rpartition(":")
        for key in ([f"{point}:{s}" for s in scopes[scope]]
                    if scope in scopes else [name]):
            deployment.engine.failpoints[key] = (
                lambda name=name: fired.update([name]))

    tables = []

    def recording(table, point, scope=None):
        tables.append(table)
        failpoints.fire(table, point, scope)

    def link_both(first_id):
        host_txn = deployment.begin()
        deployment.engine.insert_many(TABLE, [
            {"doc_id": first_id + index,
             "body": deployment.put_file(session, f"{paths[shard]}.{first_id}",
                                         b"payload")}
            for index, shard in enumerate(sorted(paths))], host_txn)
        return host_txn

    with pytest.MonkeyPatch.context() as patch:
        for module in FIRING_MODULES:
            patch.setattr(module, "fire", recording)
        deployment.engine.commit(link_both(0))
        deployment.engine.commit_group([link_both(2)])
        deployment.system.flush_logs()
        deployment.rebalance_prefix(
            deployment.router.prefix_of(paths["shard0"]), "shard1")
        deployment.crash("shard0")
        deployment.fail_over("shard0")
    return deployment, fired, tables


def test_every_registered_point_fires(scenario):
    _, fired, _ = scenario
    assert sorted(set(POINTS) - set(fired)) == []


@pytest.mark.parametrize("name", [
    "commit:mid_flsh",              # a typo
    "commit:prepared",              # a scoped point without its scope
    "commit:prepared:",             # ... with an empty scope
    "commit:begin:shard0",          # a scope on an unscoped point
    "replicate:ship",               # replication points are per shard
    "rebalance:prepare:shard0",
    "commit:prepared:<server>",     # the registry's placeholder itself
])
def test_arming_an_unregistered_name_raises(name):
    table = FailpointTable()
    with pytest.raises(ValueError, match="unregistered failpoint"):
        table[name] = lambda: None
    with pytest.raises(ValueError, match="unregistered failpoint"):
        table.update({name: lambda: None})
    assert not table


def test_every_component_fires_into_the_engine_table(scenario):
    deployment, _, tables = scenario
    table = deployment.engine.failpoints
    assert tables and all(fired_into is table for fired_into in tables)
    shippers = [shipper for replica in deployment.replicas.values()
                for shipper in replica._streams.values()]
    appliers = [node.dlfm.replica for replica in deployment.replicas.values()
                for node in replica.nodes.values()
                if node.dlfm.replica is not None]
    assert shippers and appliers
    for component in shippers + appliers:
        assert component._failpoints is table
