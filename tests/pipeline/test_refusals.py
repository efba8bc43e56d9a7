"""Every service refuses at the call, and refuses a bad read mode early.

``CrossbarService``, ``FleetService`` and ``PipelineService`` share one
request contract: a query the service cannot take (wrong width, full
queue, no live replica) raises from ``submit`` itself, so a caller
handles refusals in one place whatever it serves.  For a pipeline that
is the first stage's refusal; what a later stage refuses arrives on the
future.  A bad ``ir_mode`` raises when the service is built, before
any worker thread starts, instead of failing every query.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    FleetService,
    NoLiveReplicaError,
    program_fleet,
)
from repro.pipeline import PipelineService
from repro.serve import CrossbarService, ServeOverloadedError
from repro.serve.artifact import ProgramConfig, program_array

SERVICES = ("crossbar", "fleet", "pipeline")


@pytest.fixture(scope="module")
def crossbar_artifact():
    return program_array(
        ProgramConfig(scheme="old", image_size=7, n_train=100, seed=2)
    )


@pytest.fixture(scope="module")
def fleet_plan():
    config = FleetConfig(n_rows=20, cols=4, tile_rows=8, seed=7, n_probes=4)
    w = np.random.default_rng(1).uniform(-1, 1, (20, 4))
    return program_fleet(config, w)


@pytest.fixture
def make(request):
    """Build one service kind over its small artifact."""

    def build(kind: str, **kwargs):
        if kind == "crossbar":
            artifact = request.getfixturevalue("crossbar_artifact")
            return CrossbarService(artifact, **kwargs)
        if kind == "fleet":
            plan = request.getfixturevalue("fleet_plan")
            return FleetService(plan, replicas=1, **kwargs)
        artifact = request.getfixturevalue("mlp_artifact")
        return PipelineService(artifact, replicas=1, **kwargs)

    return build


def _width(service) -> int:
    if isinstance(service, CrossbarService):
        return service.engine.n_features
    if isinstance(service, FleetService):
        return service.fleet.config.n_rows
    return service.artifact.config.n_features


def _first_stage_engines(service) -> list:
    if isinstance(service, CrossbarService):
        return [service.engine]
    if isinstance(service, PipelineService):
        service = service.layer_services[0]
    return [r.engine for r in service.group.replicas]


class _GatedTarget:
    """Hardware whose reads wait for a gate: holds the worker busy."""

    def __init__(self, target, gate: threading.Event):
        self._target = target
        self._gate = gate

    def __getattr__(self, name):
        return getattr(self._target, name)

    def matvec(self, x, ir_mode="ideal"):
        self._gate.wait(timeout=30.0)
        return self._target.matvec(x, ir_mode)


@pytest.mark.parametrize("kind", SERVICES)
class TestRefusedAtTheCall:
    def test_wrong_width_raises(self, make, kind):
        with make(kind) as service:
            with pytest.raises(ValueError, match="width|shape"):
                service.submit(np.ones(_width(service) + 1))

    def test_full_first_stage_raises(self, make, kind):
        gate = threading.Event()
        with make(kind, max_batch=1, max_queue=1) as service:
            for engine in _first_stage_engines(service):
                engine.target = _GatedTarget(engine.target, gate)
            row = np.full(_width(service), 0.5)
            accepted = []
            try:
                with pytest.raises(ServeOverloadedError):
                    for _ in range(8):
                        accepted.append(service.submit(row))
            finally:
                gate.set()
            assert accepted
            for future in accepted:
                assert future.result(timeout=30.0) is not None


@pytest.mark.parametrize("kind", ["fleet", "pipeline"])
def test_no_live_replica_raises_at_the_call(make, kind):
    # A single array has no replicas to lose.
    with make(kind) as service:
        if kind == "fleet":
            service.kill_replica(0)
        else:
            service.kill_replica(0, 0)
        with pytest.raises(NoLiveReplicaError):
            service.submit(np.full(_width(service), 0.5))


def test_later_stage_refusal_lands_on_the_future(mlp_artifact):
    with PipelineService(mlp_artifact, replicas=1) as service:
        service.kill_replica(1, 0)
        future = service.submit(np.full(_width(service), 0.5))
        with pytest.raises(NoLiveReplicaError):
            future.result(timeout=30.0)


def test_recall_refusal_raises_at_the_call(bsb_artifact):
    with PipelineService(bsb_artifact, replicas=1) as service:
        service.kill_replica(0, 0)
        probe = np.zeros(bsb_artifact.config.n_features)
        with pytest.raises(NoLiveReplicaError):
            service.engine.submit_recall(probe)
        with pytest.raises(NoLiveReplicaError):
            service.submit(probe)


@pytest.mark.parametrize("kind", SERVICES)
@pytest.mark.parametrize(
    ("ir_mode", "message"),
    [("fixed_pont", "must be one of"),
     ("fixed_point", "removed.*--ir-mode nodal")],
)
def test_bad_ir_mode_raises_at_construction(make, kind, ir_mode, message):
    make(kind).close()  # build the artifact outside the thread count
    threads = threading.active_count()
    with pytest.raises(ValueError, match=message):
        make(kind, ir_mode=ir_mode)
    assert threading.active_count() == threads
