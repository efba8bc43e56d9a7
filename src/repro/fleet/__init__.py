"""Sharded multi-tile serving: replicas, routing, in-place repair.

The horizontal scaling layer over :mod:`repro.serve`: a large layer is
row-partitioned into per-tile artifacts (:mod:`repro.fleet.plan`),
the whole tiled layer is served by N independent replica lanes (each
one a :class:`~repro.serve.service.CrossbarService` over a
:class:`~repro.xbar.tiling.TiledPair`), each request goes whole to one
live replica and is replayed on a sibling if that replica dies
(:mod:`repro.fleet.router`), and each replica restores its own drifted
tiles to the golden shard snapshots in place, between batches.
:class:`~repro.fleet.service.FleetService` wires the pieces together.
"""

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
    "ShardGroup",
    "fleet_key",
    "program_fleet",
]
