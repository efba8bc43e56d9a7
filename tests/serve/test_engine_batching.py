"""Batched reads must be bit-identical to looping single-vector reads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import CrossbarConfig, VariationConfig
from repro.core.amp import RowMapping
from repro.fleet import FleetConfig, program_fleet
from repro.runtime.telemetry import RunLog
from repro.serve.engine import InferenceEngine
from repro.serve.scheduler import BatchScheduler
from repro.xbar.crossbar import IR_MODES, Crossbar
from repro.xbar.mapping import WeightScaler
from repro.xbar.pair import DifferentialCrossbar


def make_crossbar(rows=6, cols=4, r_wire=2.5, seed=0) -> Crossbar:
    xbar = Crossbar(
        config=CrossbarConfig(rows=rows, cols=cols, r_wire=r_wire),
        variation=VariationConfig(sigma=0.3),
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed + 1)
    d = xbar.device
    xbar.program(
        rng.uniform(d.g_off, d.g_on, size=(rows, cols)),
        with_cycle_noise=False,
    )
    return xbar


class TestBatchedReadEquivalence:
    """The tentpole contract: one batched read == s single reads."""

    @pytest.mark.parametrize("ir_mode", IR_MODES)
    @given(
        x=arrays(
            float, (5, 6),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_read_matches_looped_read(self, ir_mode, x):
        xbar = make_crossbar()
        batched = xbar.read(x, ir_mode)
        looped = np.stack([xbar.read(xi, ir_mode) for xi in x])
        assert batched.shape == (5, 4)
        assert np.array_equal(batched, looped)

    @pytest.mark.parametrize("ir_mode", IR_MODES)
    def test_single_vector_shape_preserved(self, ir_mode):
        xbar = make_crossbar()
        x = np.linspace(0.0, 1.0, 6)
        assert xbar.read(x, ir_mode).shape == (4,)

    def test_nodal_cache_invalidated_by_reprogramming(self):
        xbar = make_crossbar()
        x = np.linspace(0.0, 1.0, 6)
        before = xbar.read(x, "nodal")
        d = xbar.device
        xbar.program(
            np.full(xbar.shape, 0.5 * (d.g_on + d.g_off)),
            with_cycle_noise=False,
        )
        after = xbar.read(x, "nodal")
        fresh = Crossbar(
            config=xbar.config, rng=np.random.default_rng(9)
        )
        fresh.array.restore_state(xbar.conductance)
        assert not np.array_equal(before, after)
        assert np.allclose(after, fresh.read(x, "nodal"))

    def test_nodal_cache_invalidated_by_defect_injection(self):
        xbar = make_crossbar()
        x = np.full(6, 0.7)
        before = xbar.read(x, "nodal")
        defects = xbar.array.defects.copy()
        defects[2, 1] = -1  # stuck at HRS
        xbar.array.defects = defects
        after = xbar.read(x, "nodal")
        assert not np.array_equal(before, after)


class TestInferenceEngine:
    def make_pair(self, rows=8, cols=4, seed=1) -> DifferentialCrossbar:
        pair = DifferentialCrossbar(
            scaler=WeightScaler(1.0),
            config=CrossbarConfig(rows=rows, cols=cols, r_wire=0.0),
            variation=VariationConfig(sigma=0.2),
            rng=np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed + 1)
        pair.program_weights(
            rng.uniform(-1.0, 1.0, size=(rows, cols)),
            with_cycle_noise=False,
        )
        return pair

    def test_microbatching_is_invisible(self):
        pair = self.make_pair()
        x = np.random.default_rng(2).uniform(0.0, 1.0, size=(13, 8))
        one_shot = InferenceEngine(pair, microbatch=64).forward(x)
        chunked = InferenceEngine(pair, microbatch=3).forward(x)
        assert np.array_equal(one_shot, chunked)

    def test_mapping_routes_logical_inputs(self):
        pair = self.make_pair(rows=8)
        mapping = RowMapping(
            assignment=np.array([5, 2, 7, 0, 1]), n_physical=8
        )
        engine = InferenceEngine(pair, mapping=mapping)
        assert engine.n_features == 5
        x = np.random.default_rng(3).uniform(0.0, 1.0, size=(4, 5))
        direct = pair.matvec(mapping.inputs_to_physical(x), "ideal")
        assert np.array_equal(engine.forward(x), direct)

    def test_predict_returns_argmax(self):
        pair = self.make_pair()
        engine = InferenceEngine(pair)
        x = np.random.default_rng(4).uniform(0.0, 1.0, size=(6, 8))
        scores = engine.forward(x)
        assert np.array_equal(
            engine.predict(x), np.argmax(scores, axis=1)
        )
        assert engine.predict(x[0]) == int(np.argmax(scores[0]))

    def test_width_mismatch_rejected(self):
        engine = InferenceEngine(self.make_pair())
        with pytest.raises(ValueError, match="input width"):
            engine.forward(np.zeros(5))

    def test_replace_mapping_checks_width(self):
        pair = self.make_pair(rows=8)
        engine = InferenceEngine(
            pair,
            mapping=RowMapping(
                assignment=np.arange(5), n_physical=8
            ),
        )
        with pytest.raises(ValueError, match="logical rows"):
            engine.replace_mapping(
                RowMapping(assignment=np.arange(6), n_physical=8)
            )


class TestScheduledNodalReads:
    """Queries served through the scheduler over wired hardware."""

    def test_200_queries_all_answered_exactly(self):
        rows, cols = 96, 10
        pair = DifferentialCrossbar(
            scaler=WeightScaler(1.0),
            config=CrossbarConfig(rows=rows, cols=cols, r_wire=2.5),
            variation=VariationConfig(sigma=0.3),
            rng=np.random.default_rng(42),
        )
        pair.program_weights(
            np.random.default_rng(43).uniform(-1.0, 1.0, (rows, cols)),
            with_cycle_noise=False,
        )
        queries = np.random.default_rng(44).uniform(size=(200, rows))
        log = RunLog()
        engine = InferenceEngine(pair, ir_mode="nodal", microbatch=64)
        with BatchScheduler(
            engine, max_batch=64, max_queue=200, log=log
        ) as scheduler:
            futures = [scheduler.submit(q) for q in queries]
            served = np.stack([f.result(timeout=60.0) for f in futures])
        assert np.array_equal(served, pair.matvec(queries, "nodal"))
        summary = log.serve_summary()
        assert summary["answered"] == 200
        assert summary["dropped"] == 0

    def test_engine_over_tiled_pair_matches_tiled_matvec(self):
        # A 128-row layer in four 32-row tiles, each read by its own
        # sparse nodal solve, then reduced digitally.
        config = FleetConfig(
            n_rows=128, cols=10, tile_rows=32, sigma=0.3, r_wire=2.5,
            seed=42, ir_mode="nodal", n_probes=8,
        )
        w = np.random.default_rng(42).uniform(-1, 1, (128, 10))
        tiled = program_fleet(config, w).build_tiled()
        queries = np.random.default_rng(43).random((96, 128))
        engine = InferenceEngine(tiled, ir_mode="nodal", microbatch=64)
        with BatchScheduler(engine, max_batch=16, max_queue=96) as sched:
            futures = [sched.submit(q) for q in queries]
            served = np.stack([f.result(timeout=60.0) for f in futures])
        assert np.array_equal(served, tiled.matvec(queries, "nodal"))
