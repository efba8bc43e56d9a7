"""Tests for stuck-at defect modelling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DeviceConfig
from repro.devices.defects import (
    HEALTHY,
    STUCK_AT_HRS,
    STUCK_AT_LRS,
    apply_defects_to_conductance,
    count_defects,
)


@pytest.fixture
def device() -> DeviceConfig:
    return DeviceConfig()


class TestApplyDefects:
    def test_overwrites_only_defective_cells(self, device):
        g = np.full((2, 2), 5e-5)
        defects = np.array([[HEALTHY, STUCK_AT_LRS],
                            [STUCK_AT_HRS, HEALTHY]])
        out = apply_defects_to_conductance(g, defects, device)
        assert out[0, 0] == 5e-5
        assert out[0, 1] == device.g_on
        assert out[1, 0] == device.g_off
        assert out[1, 1] == 5e-5

    def test_input_not_mutated(self, device):
        g = np.full((2, 2), 5e-5)
        defects = np.full((2, 2), STUCK_AT_LRS)
        apply_defects_to_conductance(g, defects, device)
        assert np.all(g == 5e-5)

    def test_shape_mismatch_raises(self, device):
        with pytest.raises(ValueError, match="shape"):
            apply_defects_to_conductance(
                np.ones((2, 3)), np.zeros((2, 2), dtype=int), device
            )


class TestCountDefects:
    def test_counts(self):
        defects = np.array([[0, 1, -1], [0, 0, 1]])
        counts = count_defects(defects)
        assert counts == {
            "healthy": 3,
            "stuck_at_lrs": 2,
            "stuck_at_hrs": 1,
        }
