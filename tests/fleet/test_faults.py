"""Fault paths under sustained mixed load: in-place restore, then kill."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from repro.devices.retention import RetentionConfig, age_pair
from repro.fleet import FleetConfig, FleetService, program_fleet
from repro.serve.health import DriftPolicy

N_ROWS = 24
COLS = 4
CLIENTS = 4


def wait_for(condition, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def test_reprogram_then_kill_under_load_drops_nothing():
    config = FleetConfig(
        n_rows=N_ROWS, cols=COLS, tile_rows=8, sigma=0.2, r_wire=2.5,
        seed=5, ir_mode="nodal", n_probes=4,
    )
    w = np.random.default_rng(2).uniform(-1, 1, (N_ROWS, COLS))
    fleet = program_fleet(config, w)
    pool = np.random.default_rng(3).random((64, N_ROWS))
    reference = fleet.build_tiled().matvec(pool, "nodal")
    service = FleetService(
        fleet, replicas=2, max_queue=1024,
        policy=DriftPolicy(threshold=0.05, check_every=1),
    )
    victim, sibling = service.group.replicas
    stop, entered, release = (threading.Event() for _ in range(3))
    sent: list[list[tuple[int, int, object]]] = [[] for _ in range(CLIENTS)]

    def client(c: int) -> None:
        rng = np.random.default_rng(100 + c)
        while not stop.is_set():
            lo = int(rng.integers(0, len(pool) - 8))
            k = int(rng.integers(1, 9))
            sent[c].append((lo, k, service.submit(pool[lo : lo + k])))
            time.sleep(0.001)

    def answered(lane: str) -> int:
        return service.stats().get("lanes", {}).get(lane, {}).get(
            "answered", 0
        )

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)
    ]
    # Switch threads often, so hand-offs between the clients, the lane
    # workers and the router callbacks interleave finely.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        wait_for(lambda: answered("r0") > 0 and answered("r1") > 0)
        # Age one tile of the victim just after one of its reads is
        # answered: the lane's own check after that batch restores the
        # tile before its next read, so no answer is ever read from
        # the aged hardware.
        forward = victim.engine.forward
        aged = threading.Event()

        def read_then_age(x):
            answer = forward(x)
            if not aged.is_set():
                age_pair(
                    victim.engine.target.tiles[1], 3e5,
                    RetentionConfig(nu_median=0.05, nu_sigma=0.5),
                    np.random.default_rng(11),
                )
                aged.set()
            return answer

        victim.engine.forward = read_then_age
        wait_for(lambda: any(
            e.action == "restore" for e in service.log.health_events
        ))
        event = service.log.health_events[0]
        assert event.discrepancy > 0.05
        assert event.recovered_discrepancy == 0.0
        assert victim.alive
        before = answered("r0")
        wait_for(lambda: answered("r0") > before)
        # Kill the sibling with a read in flight and blocks queued
        # behind it: the router must replay every one on the victim.
        sibling_forward = sibling.engine.forward

        def held_forward(x):
            entered.set()
            release.wait(10.0)
            return sibling_forward(x)

        sibling.engine.forward = held_forward
        assert entered.wait(30.0)
        wait_for(lambda: sibling.depth >= 1)
        timer = threading.Timer(0.05, release.set)
        timer.start()
        service.kill_replica(1)
        timer.join()
        after = answered("r0")
        wait_for(lambda: answered("r0") > after + 20)
    finally:
        release.set()
        stop.set()
        for thread in threads:
            thread.join(30.0)
        service.close()
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)

    futures = [item for lane in sent for item in lane]
    assert all(future.done() for _, _, future in futures)
    for lo, k, future in futures:
        assert np.array_equal(
            future.result(timeout=0), reference[lo : lo + k]
        )
    stats = service.stats()
    assert stats["dropped"] == 0
    assert stats["answered"] == sum(k for _, k, _ in futures)
    assert [
        (e.replica, e.action) for e in service.log.health_events
    ] == [(0, "restore"), (1, "kill")]
