"""The paper's contribution: DataLinks with database-managed file update.

Layout mirrors the system architecture (Figure 1 of the paper):

* :mod:`repro.datalinks.control_modes` -- the DATALINK column control modes
  (``nff``/``rff``/``rfb``/``rdb`` plus the new update modes ``rfd``/``rdd``);
* :mod:`repro.datalinks.tokens` -- read/write access tokens embedded in file
  names;
* :mod:`repro.datalinks.engine` -- the DataLinks engine inside the host DBMS
  (link/unlink on SQL operations, token generation, two-phase commit);
* :mod:`repro.datalinks.dlfm` -- the DataLinks File Manager on each file
  server (repository, daemons, Sync table, versioning, archive, backup);
* :mod:`repro.datalinks.dlfs` -- the stackable DataLinks File System layer;
* :mod:`repro.datalinks.uip` -- the update-in-place file-update session;
* :mod:`repro.datalinks.baselines` -- CICO, CAU, unlink/relink and
  BLOB-in-database comparators from Section 3;
* :mod:`repro.datalinks.sharding` -- the scale-out layer: hash-partitioned
  multi-DLFM deployments with a group-commit queue and batched link
  pipelines;
* :mod:`repro.datalinks.routing` -- the replication-aware routing layer:
  per-prefix placement, per-node roles (serving/witness/fenced) and
  load-balanced read routes with a follower-read staleness bound;
* :mod:`repro.datalinks.placement` -- epoched placement: the versioned
  :class:`~repro.datalinks.placement.PlacementMap` every placement
  consumer validates an epoch against, and the online
  ``rebalance_prefix`` hand-off that moves a URL prefix between shards
  under a two-phase commit (witnesses co-moving with it);
* :mod:`repro.datalinks.replication` -- per-shard witness replicas fed by
  the serving node's repository WAL stream, with epoch-fenced *writable*
  failover and reversed-ship fail-back.
"""

from repro.datalinks.control_modes import AccessControl, ControlMode
from repro.datalinks.tokens import AccessToken, TokenManager, TokenType
from repro.datalinks.datalink_type import DatalinkOptions, OnUnlink

__all__ = [
    "AccessControl",
    "ControlMode",
    "AccessToken",
    "TokenManager",
    "TokenType",
    "DatalinkOptions",
    "OnUnlink",
]
