"""Engine semantics: staged chain, recall loop, offline bit-identity."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.nn.bsb import bsb_recall, noisy_probe
from repro.nn.mlp import MLPOnCrossbars
from repro.pipeline import (
    DirectLane,
    PipelineEngine,
    offline_engine,
    stage_activation,
)
from repro.xbar.crossbar import IR_MODES


class TestStageActivation:
    def test_matches_reference_expression(self, rng):
        out = rng.normal(size=(5, 8))
        gain = 0.7
        expected = np.clip(np.maximum(out, 0.0) * gain, 0.0, 1.0)
        assert np.array_equal(stage_activation(out, gain), expected)


class TestValidation:
    def test_engine_rejects_bad_wiring(self, mlp_artifact):
        lane = DirectLane(mlp_artifact.layers[0].build_tiled())
        with pytest.raises(ValueError, match="lane"):
            PipelineEngine(lanes=[], scales=[])
        with pytest.raises(ValueError, match="scales"):
            PipelineEngine(lanes=[lane], scales=[1.0, 2.0])
        with pytest.raises(ValueError, match="kind"):
            PipelineEngine(lanes=[lane], scales=[1.0], kind="rnn")
        with pytest.raises(ValueError, match="dynamics"):
            PipelineEngine(lanes=[lane], scales=[1.0], kind="bsb")

    def test_bsb_engine_is_single_layer(self, bsb_artifact):
        lane = DirectLane(bsb_artifact.layers[0].build_tiled())
        with pytest.raises(ValueError, match="single"):
            PipelineEngine(
                lanes=[lane, lane], scales=[1.0, 1.0], kind="bsb",
                dynamics=bsb_artifact.bsb_dynamics(),
            )

    def test_recall_rejected_on_mlp(self, mlp_artifact):
        engine = offline_engine(mlp_artifact)
        with pytest.raises(ValueError, match="BSB"):
            engine.submit_recall(np.zeros(49))


class TestDirectLane:
    def test_answers_immediately_and_ignores_deadline(
        self, mlp_artifact
    ):
        fleet = mlp_artifact.layers[0]
        lane = DirectLane(fleet.build_tiled(), "ideal")
        x = np.full(fleet.shape[0], 0.5)
        future = lane.submit(x, deadline_s=0.0)
        assert future.done()
        assert np.array_equal(
            future.result(), fleet.build_tiled().matvec(x, "ideal")
        )


class TestMLPOfflineIdentity:
    @pytest.mark.parametrize("ir_mode", IR_MODES)
    def test_forward_matches_mlp_on_crossbars(
        self, mlp_config, mlp_artifact, ir_mode
    ):
        # The tentpole contract, per read model: the staged engine over
        # restored tiles equals the offline two-crossbar deployment
        # float for float.
        x = mlp_config.dataset().x_test[:12]
        reference = MLPOnCrossbars(
            mlp_artifact.mlp_weights(),
            mlp_artifact.layers[0].build_tiled(),
            mlp_artifact.layers[1].build_tiled(),
            hidden_gain=mlp_artifact.hidden_gain,
        )
        engine = offline_engine(mlp_artifact, ir_mode=ir_mode)
        assert np.array_equal(
            engine.forward(x), reference.scores(x, ir_mode)
        )

    def test_single_query_matches_batch_row(
        self, mlp_config, mlp_artifact
    ):
        x = mlp_config.dataset().x_test[:6]
        engine = offline_engine(mlp_artifact)
        batch = engine.forward(x)
        for i, row in enumerate(x):
            assert np.array_equal(engine.predict(row), batch[i])


class TestBSBOfflineIdentity:
    def test_recall_matches_bipolar_hardware_loop(
        self, bsb_config, bsb_artifact
    ):
        # The engine's phase-split recall must replay the offline
        # hardware loop exactly: same states, same iteration counts.
        tiled = bsb_artifact.layers[0].build_tiled()
        scale = bsb_artifact.scales[0]
        mode = bsb_config.ir_mode

        def hw_matvec(v):
            pos = tiled.matvec(np.clip(v, 0.0, 1.0), mode)
            neg = tiled.matvec(np.clip(-v, 0.0, 1.0), mode)
            return (pos - neg) * scale

        engine = offline_engine(bsb_artifact)
        rng = np.random.default_rng(7)
        for proto in bsb_artifact.prototypes:
            probe = proto * rng.choice(
                [1.0, -1.0], size=proto.size, p=[0.9, 0.1]
            )
            expected = bsb_recall(
                probe, bsb_artifact.bsb_dynamics(), matvec=hw_matvec
            )
            got = engine.recall(probe)
            assert np.array_equal(got.state, expected.state)
            assert got.iterations == expected.iterations
            assert got.converged == expected.converged

    def test_block_recall_retires_each_row_like_its_solo_loop(
        self, bsb_config, bsb_artifact
    ):
        # A budget between the probes' iteration counts: some rows
        # saturate early, the rest retire unconverged at the budget.
        dynamics = dataclasses.replace(
            bsb_artifact.bsb_dynamics(), max_iterations=20
        )
        tiled = bsb_artifact.layers[0].build_tiled()
        scale = bsb_artifact.scales[0]
        mode = bsb_config.ir_mode

        def hw_matvec(v):
            pos = tiled.matvec(np.clip(v, 0.0, 1.0), mode)
            neg = tiled.matvec(np.clip(-v, 0.0, 1.0), mode)
            return (pos - neg) * scale

        rng = np.random.default_rng(4)
        probes = np.stack([
            noisy_probe(p, 0.2, rng)
            for p in bsb_artifact.prototypes for _ in range(2)
        ])
        expected = [bsb_recall(p, dynamics, matvec=hw_matvec) for p in probes]
        assert {e.converged for e in expected} == {True, False}
        engine = PipelineEngine(
            [DirectLane(tiled, mode)], [scale], kind="bsb",
            dynamics=dynamics,
        )
        got = engine.recall(probes)
        assert len(got) == len(probes)
        for g, e in zip(got, expected):
            assert np.array_equal(g.state, e.state)
            assert (g.iterations, g.converged) == (e.iterations, e.converged)
        stats = engine.recall_stats()
        assert stats["recalls"] == len(probes)
        assert stats["converged"] == sum(e.converged for e in expected)
        assert stats["mean_iterations"] == (
            sum(e.iterations for e in expected) / len(probes)
        )
        assert np.array_equal(
            engine.forward(probes), np.stack([e.state for e in expected])
        )

    def test_submit_resolves_to_state_vector(self, bsb_artifact):
        engine = offline_engine(bsb_artifact)
        probe = bsb_artifact.prototypes[0]
        assert np.array_equal(
            engine.submit(probe).result(timeout=5.0),
            engine.recall(probe).state,
        )

    def test_recall_stats_accumulate(self, bsb_artifact):
        engine = offline_engine(bsb_artifact)
        assert engine.recall_stats()["recalls"] == 0
        for proto in bsb_artifact.prototypes[:2]:
            engine.recall(proto)
        stats = engine.recall_stats()
        assert stats["recalls"] == 2
        assert stats["converged"] == 2
        assert stats["mean_iterations"] >= 1.0
