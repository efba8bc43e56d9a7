"""Tests for the fabricated memristor array."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.config import CrossbarConfig, DeviceConfig, VariationConfig
from repro.devices.defects import STUCK_AT_LRS, apply_defects_to_conductance
from repro.devices.memristor import MemristorArray
from repro.devices.retention import RetentionConfig, age_array
from repro.xbar.crossbar import Crossbar
from repro.xbar.ir_drop import read_column_gains
from repro.xbar.matmul import batch_invariant_matmul
from repro.xbar.programming import execute_plan, plan_programming


def make_array(sigma=0.0, sigma_cycle=0.0, defect_rate=0.0, seed=0,
               shape=(8, 4)):
    return MemristorArray(
        shape,
        device=DeviceConfig(),
        variation=VariationConfig(
            sigma=sigma, sigma_cycle=sigma_cycle, defect_rate=defect_rate
        ),
        rng=np.random.default_rng(seed),
    )


class TestConstruction:
    def test_starts_at_hrs(self):
        array = make_array()
        assert np.allclose(array.conductance, array.device.g_off)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            MemristorArray((0, 4))

    def test_theta_fixed_at_fabrication(self):
        array = make_array(sigma=0.5)
        theta_before = array.theta.copy()
        array.program_conductance(np.full((8, 4), 1e-5))
        assert np.array_equal(array.theta, theta_before)

    def test_describe(self):
        array = make_array(sigma=0.5)
        d = array.describe()
        assert d["rows"] == 8 and d["cols"] == 4
        assert d["theta_std"] > 0


class TestOpenLoopProgramming:
    def test_ideal_array_lands_on_target(self):
        array = make_array()
        target = np.full((8, 4), 2e-5)
        achieved = array.program_conductance(target)
        assert np.allclose(achieved, target)

    def test_variation_multiplies_target(self):
        array = make_array(sigma=0.5, seed=3)
        target = np.full((8, 4), 1e-5)
        achieved = array.program_conductance(target, with_cycle_noise=False)
        expected = np.clip(
            target * np.exp(array.theta),
            array.device.g_off,
            array.device.g_on,
        )
        assert np.allclose(achieved, expected)

    def test_result_clipped_to_physical_range(self):
        array = make_array(sigma=2.0, seed=5)
        target = np.full((8, 4), 5e-5)
        achieved = array.program_conductance(target)
        assert np.all(achieved >= array.device.g_off - 1e-15)
        assert np.all(achieved <= array.device.g_on + 1e-15)

    def test_out_of_range_target_rejected(self):
        array = make_array()
        with pytest.raises(ValueError, match="g_off"):
            array.program_conductance(np.full((8, 4), 1.0))

    def test_shape_mismatch_rejected(self):
        array = make_array()
        with pytest.raises(ValueError, match="shape"):
            array.program_conductance(np.full((2, 2), 1e-5))

    def test_cycle_noise_varies_between_programmings(self):
        array = make_array(sigma_cycle=0.05)
        target = np.full((8, 4), 1e-5)
        a = array.program_conductance(target).copy()
        b = array.program_conductance(target)
        assert not np.allclose(a, b)


class TestCloseLoopUpdates:
    def test_update_moves_conductance(self):
        array = make_array()
        g0 = array.conductance.copy()
        array.update_conductance(np.full((8, 4), 1e-6))
        assert np.all(array.conductance > g0)

    def test_efficiency_scales_update(self):
        a1 = make_array()
        a2 = make_array()
        delta = np.full((8, 4), 1e-6)
        g1 = a1.update_conductance(delta, efficiency=1.0)
        g2 = a2.update_conductance(delta, efficiency=0.5)
        moved1 = g1 - a1.device.g_off
        moved2 = g2 - a2.device.g_off
        assert np.allclose(moved2, 0.5 * moved1)

    def test_update_respects_rails(self):
        array = make_array()
        array.update_conductance(np.full((8, 4), 1.0))
        assert np.allclose(array.conductance, array.device.g_on)
        array.update_conductance(np.full((8, 4), -1.0))
        assert np.allclose(array.conductance, array.device.g_off)

    def test_stuck_cells_ignore_updates(self):
        array = make_array(defect_rate=0.5, seed=2)
        stuck = array.is_stuck()
        assert np.any(stuck)
        g_before = array.conductance.copy()
        array.update_conductance(np.full((8, 4), 1e-5))
        assert np.allclose(array.conductance[stuck], g_before[stuck])

    def test_update_shape_mismatch_rejected(self):
        array = make_array()
        with pytest.raises(ValueError, match="shape"):
            array.update_conductance(np.zeros((3, 3)))


class TestReset:
    def test_reset_to_hrs(self):
        array = make_array()
        array.program_conductance(np.full((8, 4), 5e-5))
        array.reset_to_hrs()
        assert np.allclose(array.conductance, array.device.g_off)


def recomputed(array):
    """The conductances of the current device state, from scratch."""
    return apply_defects_to_conductance(
        array.switching.conductance_of(array.state), array.defects,
        array.device,
    )


def physically_program(array):
    plan = plan_programming(
        array.switching, array.state, np.full(array.shape, 3e-5)
    )
    execute_plan(array, plan)


class TestConductanceMemo:
    """Conductances are computed once per device state, read-only."""

    def test_returned_array_is_read_only(self):
        array = make_array()
        with pytest.raises(ValueError, match="read-only"):
            array.conductance[0, 0] = 1.0
        achieved = array.program_conductance(np.full((8, 4), 2e-5))
        with pytest.raises(ValueError, match="read-only"):
            achieved += 1.0

    def test_repeated_reads_share_one_array(self):
        array = make_array(sigma=0.3, defect_rate=0.2, seed=1)
        array.program_conductance(np.full((8, 4), 2e-5))
        assert array.conductance is array.conductance

    @pytest.mark.parametrize("write", [
        lambda a: a.program_conductance(np.full(a.shape, 4e-5)),
        lambda a: a.update_conductance(np.full(a.shape, 1e-6)),
        lambda a: a.reset_to_hrs(),
        lambda a: a.restore_state(conductance=np.full(a.shape, 3e-5)),
        lambda a: a.restore_state(defects=np.full(a.shape, STUCK_AT_LRS)),
        lambda a: age_array(
            a, 1e4, RetentionConfig(nu_median=0.05),
            np.random.default_rng(3),
        ),
        physically_program,
    ], ids=[
        "program", "update", "reset", "restore-conductance",
        "restore-defects", "age", "physical-programming",
    ])
    def test_every_writer_yields_fresh_conductances(self, write):
        array = make_array(sigma=0.3, sigma_cycle=0.05, defect_rate=0.2,
                           seed=4)
        array.program_conductance(np.full(array.shape, 2e-5))
        before = array.conductance
        write(array)
        after = array.conductance
        assert after is not before
        assert not after.flags.writeable
        assert np.array_equal(after, recomputed(array))
        assert not np.array_equal(after, before)

    def test_copies_recompute_a_read_only_array(self):
        array = make_array(sigma=0.3, defect_rate=0.2, seed=1)
        array.program_conductance(np.full((8, 4), 2e-5))
        for clone in (copy.deepcopy(array),
                      pickle.loads(pickle.dumps(array))):
            assert not clone.conductance.flags.writeable
            assert np.array_equal(clone.conductance, array.conductance)

    def test_reference_read_follows_a_reprogram(self):
        xbar = Crossbar(
            CrossbarConfig(rows=8, cols=4, r_wire=2.5),
            variation=VariationConfig(sigma=0.3, sigma_cycle=0.05),
            rng=np.random.default_rng(2),
        )
        x = np.linspace(0.0, 1.0, 8)

        def expected():
            g = recomputed(xbar.array)
            return (
                xbar.config.v_read
                * batch_invariant_matmul(x, g)
                * read_column_gains(
                    g, np.full(8, 0.5), xbar.config.r_wire,
                    xbar.config.v_read,
                )
            )

        for write in (
            lambda: xbar.program(np.full((8, 4), 2e-5)),
            lambda: xbar.program(np.full((8, 4), 4e-5)),
            lambda: xbar.update(np.full((8, 4), -1e-6)),
        ):
            write()
            assert np.array_equal(xbar.read(x, "reference"), expected())
