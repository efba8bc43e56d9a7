"""Served pipelines: bit-identity, telemetry, health, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.retention import RetentionConfig, age_pair
from repro.nn.bsb import noisy_probe
from repro.nn.mlp import MLPOnCrossbars
from repro.pipeline import (
    PipelineConfig,
    PipelineService,
    offline_engine,
    program_pipeline,
)
from repro.runtime.telemetry import RunLog
from repro.serve.health import DriftPolicy
from repro.xbar.crossbar import IR_MODES


class TestServedMLP:
    def test_served_equals_offline_bit_for_bit(
        self, mlp_config, mlp_artifact
    ):
        x = mlp_config.dataset().x_test[:16]
        expected = offline_engine(mlp_artifact).forward(x)
        with PipelineService(mlp_artifact) as service:
            assert np.array_equal(service.forward(x, timeout=30.0),
                                  expected)

    def test_ir_mode_override_tracks_offline(
        self, mlp_config, mlp_artifact
    ):
        x = mlp_config.dataset().x_test[:8]
        expected = offline_engine(
            mlp_artifact, ir_mode="fixed_point"
        ).forward(x)
        with PipelineService(
            mlp_artifact, ir_mode="fixed_point"
        ) as service:
            assert np.array_equal(service.forward(x, timeout=30.0),
                                  expected)

    def test_nodal_serves_bit_identical(self, mlp_config, mlp_artifact):
        # The end-to-end acceptance smoke: a whole served pipeline in
        # ir_mode="nodal" matches the offline engine exactly.
        x = mlp_config.dataset().x_test[:4]
        expected = offline_engine(
            mlp_artifact, ir_mode="nodal"
        ).forward(x)
        with PipelineService(mlp_artifact, ir_mode="nodal") as service:
            assert np.array_equal(service.forward(x, timeout=60.0),
                                  expected)

    def test_replicas_do_not_change_results(
        self, mlp_config, mlp_artifact
    ):
        x = mlp_config.dataset().x_test[:8]
        expected = offline_engine(mlp_artifact).forward(x)
        with PipelineService(mlp_artifact, replicas=2) as service:
            assert np.array_equal(service.forward(x, timeout=30.0),
                                  expected)

    def test_predict_single_query(self, mlp_config, mlp_artifact):
        x = mlp_config.dataset().x_test[0]
        expected = offline_engine(mlp_artifact).predict(x)
        with PipelineService(mlp_artifact) as service:
            assert np.array_equal(
                service.predict(x, timeout=30.0), expected
            )


class TestServedBSB:
    def test_recall_equals_offline_bit_for_bit(self, bsb_artifact):
        offline = offline_engine(bsb_artifact)
        with PipelineService(bsb_artifact) as service:
            for proto in bsb_artifact.prototypes[:2]:
                probe = proto.copy()
                probe[:5] = -probe[:5]
                expected = offline.recall(probe)
                got = service.recall(probe, timeout=30.0)
                assert np.array_equal(got.state, expected.state)
                assert got.iterations == expected.iterations
                assert got.converged == expected.converged

    def test_forward_returns_states_and_counts_recalls(
        self, bsb_artifact
    ):
        with PipelineService(bsb_artifact) as service:
            probes = bsb_artifact.prototypes[:2]
            states = service.forward(probes, timeout=30.0)
            assert states.shape == probes.shape
            status = service.status()
            assert status["recall"]["recalls"] == 2
            assert status["recall"]["converged"] == 2


@pytest.fixture(scope="module")
def wired_mlp_artifact():
    """An MLP pipeline on wires with resistance, so nodal reads differ."""
    return program_pipeline(PipelineConfig(
        kind="mlp", image_size=7, n_train=120, hidden=12, epochs=40,
        sigma=0.3, r_wire=2.5, tile_rows=20, seed=3, n_probes=8,
    ))


class TestServedUnderWireResistance:
    @pytest.mark.parametrize("ir_mode", IR_MODES)
    def test_served_mlp_equals_both_offline_paths(
        self, wired_mlp_artifact, ir_mode
    ):
        artifact = wired_mlp_artifact
        x = artifact.config.dataset().x_test[:12]
        offline = offline_engine(artifact, ir_mode=ir_mode).forward(x)
        reference = MLPOnCrossbars(
            artifact.mlp_weights(),
            artifact.layers[0].build_tiled(),
            artifact.layers[1].build_tiled(),
            hidden_gain=artifact.hidden_gain,
        )
        assert np.array_equal(offline, reference.scores(x, ir_mode))
        with PipelineService(artifact, ir_mode=ir_mode) as service:
            assert np.array_equal(
                service.forward(x, timeout=60.0), offline
            )
            assert service.status()["deadline_misses"] == 0

    def test_concurrent_recalls_equal_offline(self, bsb_artifact):
        # Every probe in flight at once: lanes interleave the recall
        # loops, and each still replays its offline loop exactly.
        rng = np.random.default_rng(2)
        probes = [
            noisy_probe(p, 0.15, rng)
            for p in bsb_artifact.prototypes for _ in range(3)
        ]
        offline = offline_engine(bsb_artifact)
        with PipelineService(bsb_artifact) as service:
            futures = [service.submit(p) for p in probes]
            served = [f.result(timeout=60.0) for f in futures]
            assert service.status()["deadline_misses"] == 0
        for probe, state in zip(probes, served):
            assert np.array_equal(state, offline.recall(probe).state)


class TestTelemetry:
    def test_status_inventory(self, mlp_artifact):
        with PipelineService(mlp_artifact) as service:
            status = service.status()
        assert status["kind"] == "mlp"
        assert status["n_layers"] == 2
        assert status["ir_mode"] == mlp_artifact.config.ir_mode
        assert len(status["layers"]) == 2
        for i, layer in enumerate(status["layers"]):
            assert layer["layer"] == i
            assert layer["shape"] == list(mlp_artifact.shapes[i])
            assert layer["scale"] == mlp_artifact.scales[i]
        # Every lane is inventoried with its queue counters, and the
        # labels carry the layer prefix the run log aggregates by.
        assert status["deadline_misses"] == 0
        for name, lane in status["queues"].items():
            assert name.startswith("layer")
            assert lane["depth"] == 0
            assert lane["deadline_misses"] == 0

    def test_stats_split_by_stage(self, mlp_config, mlp_artifact):
        log = RunLog()
        x = mlp_config.dataset().x_test[:6]
        with PipelineService(mlp_artifact, log=log) as service:
            service.forward(x, timeout=30.0)
            stats = service.stats()
        assert set(stats["stages"]) == {"layer0", "layer1"}
        for stage in stats["stages"].values():
            assert stage["answered"] >= 6
            assert stage["dropped"] == 0
            assert stage["mean_latency_s"] > 0.0

    def test_bsb_stats_carry_recall_summary(self, bsb_artifact):
        with PipelineService(bsb_artifact) as service:
            service.recall(bsb_artifact.prototypes[0], timeout=30.0)
            stats = service.stats()
        assert stats["recall"]["recalls"] == 1


class TestHealth:
    def test_drifted_layer_replica_recovers(
        self, mlp_config, mlp_artifact
    ):
        x = mlp_config.dataset().x_test[:4]
        expected = offline_engine(mlp_artifact).forward(x)
        with PipelineService(
            mlp_artifact, replicas=2,
            policy=DriftPolicy(threshold=0.05),
        ) as service:
            victim = service.layer_services[1].groups[0].replicas[0]
            age_pair(
                victim.engine.target, 3e5,
                RetentionConfig(nu_median=0.05, nu_sigma=0.5),
                np.random.default_rng(11),
            )
            events = service.run_recovery_cycle()
            assert set(events) == {"layer0", "layer1"}
            assert events["layer0"] == []
            assert [e.action for e in events["layer1"]] == ["reprogram"]
            # Post-recovery traffic is exact again.
            assert np.array_equal(
                service.forward(x, timeout=30.0), expected
            )

    def test_killed_replica_is_covered_by_its_sibling(
        self, mlp_config, mlp_artifact
    ):
        x = mlp_config.dataset().x_test[:4]
        expected = offline_engine(mlp_artifact).forward(x)
        with PipelineService(mlp_artifact, replicas=2) as service:
            service.kill_replica(layer=0, shard=0, replica=0)
            assert np.array_equal(
                service.forward(x, timeout=30.0), expected
            )


class TestLifecycle:
    def test_close_refuses_new_work(self, mlp_artifact):
        service = PipelineService(mlp_artifact)
        service.close()
        with pytest.raises(RuntimeError):
            service.predict(
                np.zeros(mlp_artifact.shapes[0][0]), timeout=5.0
            )
