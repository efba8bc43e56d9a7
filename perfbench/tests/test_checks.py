"""Every workload's output check accepts the reference and rejects a
perturbed answer or report hash."""

import hashlib
import types

import numpy as np
import pytest

from perfbench.workloads import (
    CheckFailed, FleetIdeal, PipelineBSB, ServeNodalRepair, Sweep,
)


def one_ulp(a: np.ndarray) -> np.ndarray:
    bad = a.copy()
    bad.flat[0] = np.nextafter(bad.flat[0], np.inf)
    return bad


def test_sweep_rejects_a_different_report_hash():
    sweep = Sweep(0)
    text = "report\n=== a ===\n=== b ===\n=== c ===\n=== d ===\n=== log ===\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    sweep.hashes = [digest, digest]
    sweep.sections = text.count("\n=== ")
    sweep.check(digest)
    with pytest.raises(CheckFailed):
        sweep.check(hashlib.sha256(b"other").hexdigest())
    sweep.hashes.append(hashlib.sha256(b"drifted").hexdigest())
    with pytest.raises(CheckFailed):
        sweep.check(digest)


def test_sweep_rejects_a_report_missing_a_section():
    sweep = Sweep(0)
    sweep.hashes = ["x"]
    sweep.sections = len(Sweep.EXPERIMENTS)
    with pytest.raises(CheckFailed):
        sweep.check("x")


def test_fleet_rejects_a_perturbed_answer():
    fleet = FleetIdeal(3)
    fleet.build()
    try:
        rows = fleet.queries[:8]
        served = fleet.service.forward(rows, timeout=60.0)
    finally:
        fleet.close()
    expected = fleet.fleet.build_tiled().matvec(rows, "ideal")
    FleetIdeal.check(served, expected)
    with pytest.raises(CheckFailed):
        FleetIdeal.check(one_ulp(served), expected)


@pytest.fixture(scope="module")
def served_array():
    workload = ServeNodalRepair(3)
    workload.build()
    yield workload
    workload.close()


def test_serve_rejects_a_perturbed_burst(served_array):
    rows = served_array.queries[:4]
    futures = [served_array.service.submit(r) for r in rows]
    got = {i: f.result(timeout=60.0) for i, f in enumerate(futures)}
    expected = served_array.service.engine.forward(rows)
    ServeNodalRepair.check_burst(got, expected)
    got[2] = one_ulp(got[2])
    with pytest.raises(CheckFailed):
        ServeNodalRepair.check_burst(got, expected)


def test_serve_rejects_a_repair_left_over_threshold():
    limit = ServeNodalRepair.THRESHOLD
    good = types.SimpleNamespace(action="remap", recovered_discrepancy=limit)
    ServeNodalRepair.check_repair(good)
    with pytest.raises(CheckFailed):
        ServeNodalRepair.check_repair(types.SimpleNamespace(
            action="remap", recovered_discrepancy=limit * 1.01,
        ))
    with pytest.raises(CheckFailed):
        ServeNodalRepair.check_repair(None)


def test_serve_drift_injection_crosses_and_repair_restores(served_array):
    served_array._inject_drift()
    event = served_array.service.monitor.check()
    ServeNodalRepair.check_repair(event)
    assert event.discrepancy > ServeNodalRepair.THRESHOLD


def test_pipeline_rejects_a_perturbed_state():
    pipe = PipelineBSB(3)
    pipe.build()
    try:
        states = {
            k: pipe.service.predict(pipe.probes[k], timeout=60.0)
            for k in range(3)
        }
    finally:
        pipe.close()
    expected = pipe.reference()
    PipelineBSB.check(states, expected)
    states[1] = one_ulp(states[1])
    with pytest.raises(CheckFailed):
        PipelineBSB.check(states, expected)
