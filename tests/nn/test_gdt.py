"""Tests for the software subgradient trainer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.gdt import GDTConfig, train_gdt, train_gdt_stacked
from repro.nn.linear import one_vs_all_targets
from repro.nn.objectives import robust_hinge_gradient, robust_hinge_loss


def separable_problem(rng, n=60, d=6):
    """Linearly separable 3-class toy problem."""
    centers = np.array(
        [[2.0, 0, 0, 0, 0, 0], [0, 2.0, 0, 0, 0, 0], [0, 0, 2.0, 0, 0, 0]]
    )
    labels = rng.integers(0, 3, n)
    x = centers[labels] + 0.15 * rng.standard_normal((n, d))
    return np.clip(x, 0, None), labels


class TestTraining:
    def test_separable_problem_fits(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        result = train_gdt(x, y, config=GDTConfig(epochs=200))
        preds = np.argmax(x @ result.weights, axis=1)
        assert np.mean(preds == labels) > 0.95

    def test_loss_decreases_overall(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        result = train_gdt(x, y, config=GDTConfig(epochs=100))
        assert result.loss_history[-1] < result.loss_history[0]

    def test_deterministic(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        r1 = train_gdt(x, y, config=GDTConfig(epochs=50))
        r2 = train_gdt(x, y, config=GDTConfig(epochs=50))
        assert np.array_equal(r1.weights, r2.weights)

    def test_warm_start_respected(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        w0 = np.full((6, 3), 0.1)
        result = train_gdt(
            x, y, config=GDTConfig(epochs=1, learning_rate=0.0,
                                   momentum=0.0, l2=0.0),
            w_init=w0,
        )
        assert np.allclose(result.weights, w0)

    def test_penalty_scale_changes_solution(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        plain = train_gdt(x, y, penalty_scale=0.0,
                          config=GDTConfig(epochs=100))
        robust = train_gdt(x, y, penalty_scale=1.0,
                           config=GDTConfig(epochs=100))
        assert not np.allclose(plain.weights, robust.weights)

    def test_l2_shrinks_weights(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        light = train_gdt(x, y, config=GDTConfig(epochs=100, l2=1e-5))
        heavy = train_gdt(x, y, config=GDTConfig(epochs=100, l2=1e-1))
        assert np.linalg.norm(heavy.weights) < np.linalg.norm(light.weights)

    def test_tolerance_early_stop(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        result = train_gdt(
            x, y, config=GDTConfig(epochs=5000, tolerance=1e-3)
        )
        assert result.converged
        assert len(result.loss_history) < 5000


class TestValidation:
    def test_mismatched_samples_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            train_gdt(np.ones((4, 2)), np.ones((5, 1)))

    def test_bad_w_init_shape_rejected(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        with pytest.raises(ValueError, match="w_init"):
            train_gdt(x, y, w_init=np.zeros((2, 2)))

    def test_negative_penalty_scale_rejected(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        with pytest.raises(ValueError, match="penalty_scale"):
            train_gdt(x, y, penalty_scale=-0.1)


def two_call_gdt(x, y, penalty_scale, cfg, w_init):
    """The trainer before its epoch was fused: gradient and loss each
    evaluate their own forward pass through the public objectives."""
    n, m = x.shape[1], y.shape[1]
    w = np.zeros((n, m)) if w_init is None else np.array(w_init, dtype=float)
    velocity = np.zeros_like(w)
    lr = cfg.learning_rate
    history = []
    converged = False
    prev_loss = np.inf
    for _ in range(cfg.epochs):
        grad = robust_hinge_gradient(x, w, y, penalty_scale)
        if cfg.l2 > 0:
            grad = grad + cfg.l2 * w
        velocity = cfg.momentum * velocity - lr * grad
        w = w + velocity
        lr *= cfg.decay
        loss = robust_hinge_loss(x, w, y, penalty_scale)
        if cfg.l2 > 0:
            loss += 0.5 * cfg.l2 * float(np.sum(w * w))
        history.append(loss)
        if abs(prev_loss - loss) < cfg.tolerance:
            converged = True
            break
        prev_loss = loss
    return w, history, converged


class TestFusedEpochBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.integers(1, 40),
        n=st.integers(1, 12),
        m=st.integers(1, 5),
        penalty_scale=st.one_of(
            st.just(0.0),
            st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
        ),
        l2=st.sampled_from([0.0, 3e-4, 0.05]),
        warm=st.booleans(),
        tolerance=st.sampled_from([1e-7, 1e-3, 3e-2]),
        epochs=st.integers(0, 60),
    )
    @example(
        seed=0, s=1200, n=196, m=10, penalty_scale=0.3, l2=3e-4,
        warm=False, tolerance=1e-7, epochs=120,
    )
    def test_matches_two_call_loop(
        self, seed, s, n, m, penalty_scale, l2, warm, tolerance, epochs
    ):
        rng = np.random.default_rng(seed)
        x = rng.random((s, n))
        y = one_vs_all_targets(rng.integers(0, m, s), m)
        w_init = 0.1 * rng.standard_normal((n, m)) if warm else None
        cfg = GDTConfig(epochs=epochs, l2=l2, tolerance=tolerance)
        result = train_gdt(x, y, penalty_scale, cfg, w_init)
        w, history, converged = two_call_gdt(x, y, penalty_scale, cfg, w_init)
        assert np.array_equal(result.weights, w)
        assert result.loss_history == history
        assert result.converged == converged

    def test_large_tolerance_stops_both_early(self, rng):
        x, labels = separable_problem(rng)
        y = one_vs_all_targets(labels, 3)
        cfg = GDTConfig(epochs=500, tolerance=1e-3)
        result = train_gdt(x, y, 0.2, cfg)
        _, history, converged = two_call_gdt(x, y, 0.2, cfg, None)
        assert result.converged and converged
        assert result.loss_history == history
        assert len(history) < cfg.epochs


SCALES = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
    ),
    min_size=1,
    max_size=8,
)
SWEEP_SCALES = [0.0, 0.09, 0.19, 0.29, 0.49, 0.79, 0.2, 0.39]


class TestStackedBitIdentity:
    """Every slice of a stacked descent is its solo training, bit for bit.

    The stack computes its products as wide BLAS calls where the
    library is shown to compute each column as it would alone, and
    slice by slice elsewhere; this property is what holds the two
    paths to the single-problem trainer.
    """

    @staticmethod
    def _check(seed, s, n, m, scales, l2, warm, tolerance, epochs):
        rng = np.random.default_rng(seed)
        x = rng.random((s, n))
        y = one_vs_all_targets(rng.integers(0, m, s), m)
        w_inits = [
            0.1 * rng.standard_normal((n, m)) if warm[g % len(warm)] else None
            for g in range(len(scales))
        ]
        cfg = GDTConfig(epochs=epochs, l2=l2, tolerance=tolerance)
        stacked = train_gdt_stacked(x, y, scales, cfg, w_inits)
        assert len(stacked) == len(scales)
        for result, scale, w_init in zip(stacked, scales, w_inits):
            w, history, converged = two_call_gdt(x, y, scale, cfg, w_init)
            assert np.array_equal(result.weights, w)
            assert result.loss_history == history
            assert result.converged == converged
        return stacked

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.integers(1, 320),
        n=st.integers(1, 64),
        m=st.integers(1, 10),
        scales=SCALES,
        l2=st.sampled_from([0.0, 3e-4, 0.05]),
        warm=st.lists(st.booleans(), min_size=1, max_size=8),
        tolerance=st.sampled_from([1e-7, 1e-4, 1e-3, 3e-2]),
        epochs=st.integers(0, 40),
    )
    @example(
        seed=0, s=1200, n=196, m=10, scales=SWEEP_SCALES, l2=3e-4,
        warm=[False], tolerance=1e-7, epochs=120,
    )
    @example(
        seed=1, s=1200, n=784, m=10, scales=SWEEP_SCALES, l2=3e-4,
        warm=[False, True], tolerance=1e-4, epochs=30,
    )
    def test_slices_match_solo_training(
        self, seed, s, n, m, scales, l2, warm, tolerance, epochs
    ):
        self._check(seed, s, n, m, scales, l2, warm, tolerance, epochs)

    def test_slices_stop_at_different_epochs(self):
        # Per-slice early stopping freezes a converged slice while the
        # rest of the stack keeps descending.
        stacked = self._check(
            seed=3, s=300, n=50, m=4, scales=[0.0, 0.05, 0.3, 0.8],
            l2=3e-4, warm=[False, True], tolerance=1e-3, epochs=200,
        )
        lengths = [len(r.loss_history) for r in stacked]
        assert len(set(lengths)) > 1
        assert any(r.converged for r in stacked)

    def test_rejects_mismatched_starting_points(self):
        x, y = np.ones((4, 2)), np.ones((4, 1))
        with pytest.raises(ValueError):
            train_gdt_stacked(x, y, [0.0, 0.1], w_inits=[None])
        with pytest.raises(ValueError):
            train_gdt_stacked(x, y, [])
        with pytest.raises(ValueError):
            train_gdt_stacked(x, y, [0.1, -0.1])
