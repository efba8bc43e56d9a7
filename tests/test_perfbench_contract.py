"""The program surface the benchmark in ``perfbench/`` relies on.

The benchmark wraps entry points by class and attribute name, builds
services with fixed keywords and catches named errors.  It changes only
together with the benchmark itself, so these tests keep a refactor of
the program from breaking it silently.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import install  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def _current(owner, attr):
    # Tracer.patch reads a class attribute from the class's own
    # __dict__, so a method inherited from a base class is not found.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_tracer_installs_and_restores_every_attribute():
    tracer = Tracer()
    try:
        install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, raw in patched:
            assert _current(owner, attr) is not raw, (owner, attr)
    finally:
        tracer.close()
    for owner, attr, raw in patched:
        assert _current(owner, attr) is raw, (owner, attr)


def test_serving_classes_define_the_traced_methods_themselves():
    from repro.fleet.router import FleetRouter, ShardGroup
    from repro.fleet.service import FleetService
    from repro.pipeline.engine import PipelineEngine
    from repro.serve.engine import InferenceEngine
    from repro.serve.health import DriftMonitor
    from repro.serve.service import CrossbarService

    for owner, attr in [
        (CrossbarService, "remap"),
        (FleetService, "submit"),
        (FleetRouter, "submit"),
        (ShardGroup, "submit"),
        (InferenceEngine, "forward"),
        (DriftMonitor, "discrepancy"),
        *[
            (PipelineEngine, method)
            for method in (
                "submit", "submit_recall", "_recall_iterate",
                "_recall_pos", "_recall_neg", "_on_stage",
            )
        ],
    ]:
        assert attr in owner.__dict__, (owner.__name__, attr)


@pytest.fixture(scope="module")
def artifact():
    from repro.serve import ProgramConfig, program_array

    return program_array(
        ProgramConfig(
            scheme="vortex", image_size=7, n_train=120, r_wire=2.5,
            ir_mode="nodal", seed=3,
        )
    )


def test_single_array_service_keeps_the_benchmark_surface(artifact):
    from repro.serve import CrossbarService, DriftPolicy

    service = CrossbarService(
        artifact,
        policy=DriftPolicy(threshold=0.3, check_every=10**9),
        nodal_solver="lu",
    )
    try:
        for attr in ("pair", "engine", "monitor", "log"):
            assert getattr(service, attr) is not None, attr
        x = artifact.probes[0]
        assert (
            service.predict(x, timeout=30.0).tolist()
            == service.engine.forward(x).tolist()
        )
        assert service.monitor.check() is None
        assert service.log.requests
    finally:
        service.close()


def test_request_records_keep_the_fields_the_benchmark_reads(artifact):
    # Outcome.keep_requests reads batch_size and queue_s record by record.
    from repro.serve import CrossbarService

    service = CrossbarService(artifact)
    try:
        service.forward(artifact.probes[:3], timeout=30.0)
        service.predict(artifact.probes[0], timeout=30.0)
    finally:
        service.close()
    assert len(service.log.requests) == 2
    for record in service.log.requests:
        assert record.batch_size >= 1
        assert record.queue_s >= 0.0


def test_fleet_block_forward_equals_row_by_row_predict():
    # fleet-ideal checks forward() of a block against the tiled read.
    import numpy as np

    from repro.fleet import FleetConfig, FleetService, program_fleet

    config = FleetConfig(
        n_rows=32, cols=4, tile_rows=8, sigma=0.3, r_wire=2.5, seed=1,
        ir_mode="ideal", n_probes=4,
    )
    w = np.random.default_rng(2).uniform(-1.0, 1.0, (32, 4))
    fleet = program_fleet(config, w)
    x = np.random.default_rng(3).random((16, 32))
    with FleetService(fleet, replicas=2) as service:
        block = service.forward(x, timeout=30.0)
        rows = np.stack([service.predict(row, timeout=30.0) for row in x])
    assert np.array_equal(block, rows)
    assert np.array_equal(block, fleet.build_tiled().matvec(x, "ideal"))


def test_benchmark_error_imports():
    from repro.fleet import NoLiveReplicaError, ReplicaDeadError
    from repro.serve import DeadlineExceededError, ServeOverloadedError

    for error in (
        NoLiveReplicaError, ReplicaDeadError, DeadlineExceededError,
        ServeOverloadedError,
    ):
        assert issubclass(error, RuntimeError)
