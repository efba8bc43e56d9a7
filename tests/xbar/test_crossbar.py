"""Tests for the Crossbar read/program unit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense
from repro.config import CrossbarConfig, VariationConfig
from repro.xbar.crossbar import IR_MODES, Crossbar


def make_crossbar(rows=16, cols=4, r_wire=2.5, sigma=0.0, seed=0,
                  sense=None):
    return Crossbar(
        config=CrossbarConfig(rows=rows, cols=cols, r_wire=r_wire),
        variation=VariationConfig(sigma=sigma, sigma_cycle=0.0),
        rng=np.random.default_rng(seed),
        sense=sense,
    )


class TestReadModes:
    def test_invalid_mode_rejected(self):
        xbar = make_crossbar()
        with pytest.raises(ValueError, match="ir_mode"):
            xbar.read(np.ones(16), "magic")

    def test_retired_fixed_point_mode_points_to_nodal(self):
        assert IR_MODES == ("ideal", "reference", "nodal")
        xbar = make_crossbar()
        with pytest.raises(ValueError, match="removed.*--ir-mode nodal"):
            xbar.read(np.ones(16), "fixed_point")

    def test_all_modes_agree_without_wire_resistance(self, rng):
        xbar = make_crossbar(r_wire=0.0)
        xbar.program(np.full((16, 4), 2e-5))
        x = rng.random(16)
        baseline = xbar.read(x, "ideal")
        for mode in IR_MODES:
            assert np.allclose(xbar.read(x, mode), baseline)

    def test_modes_rank_consistently_with_wire_resistance(self, rng):
        xbar = make_crossbar(rows=48, r_wire=2.5)
        xbar.program(np.full((48, 4), 8e-5))
        x = rng.random(48)
        xbar.set_reference_input(x)
        ideal = xbar.read(x, "ideal")
        reference = xbar.read(x, "reference")
        nodal = xbar.read(x, "nodal")
        assert np.all(nodal < ideal)
        assert np.all(reference < ideal)
        assert np.allclose(reference, nodal, rtol=0.02)

    def test_reference_mode_tracks_nodal(self, rng):
        xbar = make_crossbar(rows=48, r_wire=2.5)
        xbar.program(np.full((48, 4), 5e-5))
        x = rng.random((20, 48)) * 0.4
        xbar.set_reference_input(x.mean(axis=0))
        ref = xbar.read(x, "reference")
        nodal = xbar.read(x, "nodal")
        assert np.allclose(ref, nodal, rtol=0.08)

    def test_batch_read_shape(self, rng):
        xbar = make_crossbar()
        out = xbar.read(rng.random((7, 16)), "ideal")
        assert out.shape == (7, 4)

    def test_sense_chain_applied(self):
        adc = ADC(4, 1e-2)
        xbar = make_crossbar(sense=CurrentSense(adc=adc))
        xbar.program(np.full((16, 4), 3.3e-5))
        out = xbar.read(np.ones(16), "ideal")
        assert np.allclose(out % adc.lsb, 0.0, atol=1e-15)


class TestProgramAndUpdate:
    def test_program_sets_conductance(self):
        xbar = make_crossbar()
        target = np.full((16, 4), 4e-5)
        xbar.program(target, with_cycle_noise=False)
        assert np.allclose(xbar.conductance, target)

    def test_update_accumulates(self):
        xbar = make_crossbar()
        g0 = xbar.conductance.copy()
        xbar.update(np.full((16, 4), 1e-6), with_cycle_noise=False)
        assert np.allclose(xbar.conductance, g0 + 1e-6)

    def test_reference_factors_invalidated_on_program(self, rng):
        xbar = make_crossbar(rows=32, r_wire=2.5)
        xbar.program(np.full((32, 4), 2e-5))
        x = rng.random(32)
        before = xbar.read(x, "reference")
        xbar.program(np.full((32, 4), 9e-5))
        after = xbar.read(x, "reference")
        assert not np.allclose(before, after)

    def test_reference_input_validated(self):
        xbar = make_crossbar()
        with pytest.raises(ValueError, match="shape"):
            xbar.set_reference_input(np.ones(5))


class TestSingleCellRead:
    def test_reads_cell_conductance(self):
        xbar = make_crossbar(r_wire=0.0)
        target = np.full((16, 4), 2e-5)
        target[3, 2] = 7e-5
        xbar.program(target, with_cycle_noise=False)
        current = xbar.read_single_cell(3, 2)
        assert current == pytest.approx(7e-5 * xbar.config.v_read)

    def test_custom_read_voltage(self):
        xbar = make_crossbar(r_wire=0.0)
        xbar.program(np.full((16, 4), 2e-5), with_cycle_noise=False)
        assert xbar.read_single_cell(0, 0, v_read=0.5) == pytest.approx(1e-5)
