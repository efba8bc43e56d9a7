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


def test_benchmark_error_imports():
    from repro.fleet import NoLiveReplicaError, ReplicaDeadError
    from repro.serve import DeadlineExceededError, ServeOverloadedError

    for error in (
        NoLiveReplicaError, ReplicaDeadError, DeadlineExceededError,
        ServeOverloadedError,
    ):
        assert issubclass(error, RuntimeError)
