"""Property-based tests of core-algorithm invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.greedy import greedy_mapping, optimal_mapping
from repro.core.self_tuning import injected_rate
from repro.core.sensitivity import mapping_order, row_sensitivity
from repro.core.swv import clipped_weight_error, swv_pair, swv_single
from repro.nn.objectives import robust_hinge_loss
from repro.xbar.mapping import WeightScaler


class TestSWVProperties:
    @given(
        w=arrays(float, (4, 3),
                 elements=st.floats(min_value=-1, max_value=1)),
        scale=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_paper_swv_scales_linearly_in_weights(self, w, scale):
        theta = np.full((6, 3), 0.3)
        base = swv_single(w, theta)
        scaled = swv_single(scale * w, theta)
        assert np.allclose(scaled, scale * base, rtol=1e-9, atol=1e-9)

    @given(
        w=arrays(float, (4, 3),
                 elements=st.floats(min_value=-1, max_value=1)),
        scale=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_clip_aware_swv_is_scale_invariant(self, w, scale):
        # The clip-aware form normalises internally (mirroring the
        # programming stage), so a global weight rescaling changes
        # nothing.  Subnormal maxima make 1/|w|max overflow to inf --
        # a float-range artifact outside the property's scope.
        assume(not w.any() or np.abs(w).max() >= 1e-6)
        rng = np.random.default_rng(0)
        theta = rng.normal(0, 0.5, (6, 3))
        scaler = WeightScaler(1.0)
        a = swv_pair(w, theta, theta, scaler)
        b = swv_pair(scale * w, theta, theta, scaler)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    @given(u=st.floats(min_value=0.0, max_value=1.0),
           theta=st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_clipped_error_bounded_by_range(self, u, theta):
        scaler = WeightScaler(1.0)
        err = float(
            clipped_weight_error(u, np.array([[theta]]), scaler)[0, 0]
        )
        # The realised conductance stays inside [g_off, g_on], so the
        # weight error can never exceed the full representable span.
        assert 0.0 <= err <= scaler.w_max + 1e-12

    def test_zero_theta_zero_error(self):
        scaler = WeightScaler(1.0)
        err = clipped_weight_error(
            np.linspace(0, 1, 5), np.zeros((5,)), scaler
        )
        assert np.allclose(err, 0.0)


class TestMappingProperties:
    @given(
        swv=arrays(float, (5, 7),
                   elements=st.integers(min_value=0, max_value=100).map(
                       float
                   )),
        shift=st.integers(min_value=0, max_value=50).map(float),
    )
    @settings(max_examples=20, deadline=None)
    def test_greedy_invariant_to_constant_cost_shift(self, swv, shift):
        # Integer-valued costs keep the comparison exact: a constant
        # shift cannot reorder preferences (only float rounding could).
        a = greedy_mapping(swv)
        b = greedy_mapping(swv + shift)
        assert np.array_equal(a, b)

    @given(
        swv=arrays(float, (5, 7),
                   elements=st.floats(min_value=0, max_value=10)),
    )
    @settings(max_examples=20, deadline=None)
    def test_optimal_invariant_to_positive_scaling(self, swv):
        a = optimal_mapping(swv)
        cost_a = swv[np.arange(5), a].sum()
        b = optimal_mapping(3.0 * swv)
        cost_b = swv[np.arange(5), b].sum()
        assert cost_a == pytest.approx(cost_b)


# Subnormal weights: x_i * |w_ij| used to underflow, so the plain and
# the gained inputs ranked their rows differently.
_SUBNORMAL_W = np.full((5, 3), 5e-324)
# Subnormals beside a normal-range peak in the same matrix.
_MIXED_SCALE_W = np.full((5, 3), 5e-324)
_MIXED_SCALE_W[0, 0] = 0.75


class TestSensitivityProperties:
    @given(
        w=arrays(float, (5, 3),
                 elements=st.floats(min_value=-1, max_value=1)),
        gain=st.floats(min_value=0.1, max_value=10.0),
    )
    @example(w=_SUBNORMAL_W, gain=2.0)
    @example(w=_MIXED_SCALE_W, gain=1.5)
    @settings(max_examples=20, deadline=None)
    def test_order_invariant_to_uniform_gains(self, w, gain):
        x = np.linspace(0.1, 1.0, 5)
        a = mapping_order(w, x)
        b = mapping_order(gain * w, x)
        c = mapping_order(w, np.clip(gain * x, 0, None))
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_row_sensitivity_additive_over_columns(self, rng):
        w = rng.uniform(-1, 1, (6, 4))
        x = rng.random(6)
        total = row_sensitivity(w, x)
        parts = sum(
            row_sensitivity(w[:, [j]], x) for j in range(4)
        )
        assert np.allclose(total, parts)


class TestObjectiveProperties:
    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_feasibility_is_scale_invariant(self, scale):
        # If weights satisfy the robust constraints with slack, any
        # up-scaling keeps them feasible (loss 0): margin and penalty
        # are both 1-homogeneous in W.
        rng = np.random.default_rng(1)
        x = rng.random((12, 5))
        w = rng.uniform(-1, 1, (5, 2))
        y = np.sign(x @ w)
        y[y == 0] = 1.0
        big = 10.0 * w  # comfortably feasible at penalty 0.1
        if robust_hinge_loss(x, big, y, 0.1) == 0.0:
            assert robust_hinge_loss(x, scale * big, y, 0.1) <= (
                robust_hinge_loss(x, big, y, 0.1) + 1e-12
            ) or scale >= 1.0


class TestInjectedRateProperties:
    def test_monotone_degradation_in_sigma_on_average(self, tiny_dataset):
        from repro.core.vat import VATConfig, train_vat
        from repro.nn.gdt import GDTConfig

        ds = tiny_dataset
        w = train_vat(
            ds.x_train, ds.y_train, 10,
            VATConfig(gamma=0.0, gdt=GDTConfig(epochs=40)),
        ).weights
        rng = np.random.default_rng(3)
        thetas = rng.standard_normal((10,) + w.shape)
        rates = [
            injected_rate(w, ds.x_test, ds.y_test, s, 10,
                          rng, thetas=thetas)
            for s in (0.0, 0.5, 1.0, 2.0)
        ]
        assert rates[0] >= rates[1] >= rates[2] >= rates[3]
