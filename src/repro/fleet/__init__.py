"""Sharded multi-tile serving: replicas, routing, rolling recovery.

The horizontal scaling layer over :mod:`repro.serve`: a large layer is
row-partitioned into per-tile artifacts (:mod:`repro.fleet.plan`),
the whole tiled layer is served by N independent replica lanes (each
one a :class:`~repro.serve.service.CrossbarService` over a
:class:`~repro.xbar.tiling.TiledPair`), each request goes whole to one
live replica and is replayed on a sibling if that replica dies
(:mod:`repro.fleet.router`), and drifted replicas are reprogrammed in
rolling fashion without dropping below quorum
(:mod:`repro.fleet.health`).  :class:`~repro.fleet.service.FleetService`
wires the pieces together.
"""

from repro.fleet.health import RollingReprogrammer, restore_replica
from repro.fleet.plan import (
    FleetConfig,
    ProgrammedFleet,
    fleet_key,
    program_fleet,
)
from repro.fleet.router import FleetRouter, NoLiveReplicaError, ShardGroup
from repro.fleet.service import FleetService
from repro.serve.scheduler import ReplicaDeadError

__all__ = [
    "FleetConfig",
    "FleetRouter",
    "FleetService",
    "NoLiveReplicaError",
    "ProgrammedFleet",
    "ReplicaDeadError",
    "RollingReprogrammer",
    "ShardGroup",
    "fleet_key",
    "program_fleet",
    "restore_replica",
]
