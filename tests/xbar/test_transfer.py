"""The cached transfer matrix answers exactly one state.

A nodal read with grounded bit lines is ``(x * v_read) @ T``, where
``T`` is cached per network.  Every write that changes what a read
returns must hand the next read a freshly built ``T``: programming,
close-loop updates, snapshot restores, retention aging and defect
injection (all through the device-state version), and a direct
``update_conductance`` on a network.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CrossbarConfig, VariationConfig
from repro.devices.defects import STUCK_AT_LRS
from repro.devices.retention import RetentionConfig, age_pair
from repro.xbar.mapping import WeightScaler
from repro.xbar.nodal import CrossbarNetwork
from repro.xbar.pair import DifferentialCrossbar

ROWS, COLS = 9, 4


def make_pair(seed: int = 0) -> DifferentialCrossbar:
    pair = DifferentialCrossbar(
        scaler=WeightScaler(1.0),
        config=CrossbarConfig(rows=ROWS, cols=COLS, r_wire=2.5),
        variation=VariationConfig(sigma=0.3),
        rng=np.random.default_rng(seed),
    )
    pair.program_weights(
        np.random.default_rng(seed + 1).uniform(-1.0, 1.0, (ROWS, COLS)),
        with_cycle_noise=False,
    )
    return pair


def inputs() -> np.ndarray:
    return np.random.default_rng(7).uniform(size=(5, ROWS))


def fresh_read(xbar, x: np.ndarray) -> np.ndarray:
    """The read a network built from scratch on this state returns."""
    network = CrossbarNetwork(xbar.conductance, xbar.config.r_wire)
    return network.read_batch(x, xbar.config.v_read)


class TestCrossbarTriggers:
    """One test per write that bumps the device-state version."""

    def check(self, write) -> None:
        pair = make_pair()
        xbar = pair.positive
        x = inputs()
        before = xbar.read(x, "nodal")
        stale = xbar._network.transfer_matrix()
        write(pair)
        after = xbar.read(x, "nodal")
        assert xbar._network.transfer_matrix() is not stale
        assert not np.array_equal(after, before)
        assert np.array_equal(after, fresh_read(xbar, x))

    def test_program(self):
        def write(pair):
            d = pair.positive.device
            pair.positive.program(
                np.full((ROWS, COLS), 0.5 * (d.g_on + d.g_off)),
                with_cycle_noise=False,
            )

        self.check(write)

    def test_update(self):
        def write(pair):
            pair.positive.update(
                np.full((ROWS, COLS), 2e-6), with_cycle_noise=False
            )

        self.check(write)

    def test_restore_conductances(self):
        def write(pair):
            donor = make_pair(seed=5)
            pair.restore_conductances(
                donor.positive.conductance, donor.negative.conductance
            )

        self.check(write)

    def test_age_pair(self):
        def write(pair):
            age_pair(
                pair, 3e5, RetentionConfig(nu_median=0.05),
                np.random.default_rng(3),
            )

        self.check(write)

    def test_defect_injection(self):
        def write(pair):
            defects = pair.positive.array.defects.copy()
            defects[2, 1] = STUCK_AT_LRS
            pair.positive.array.defects = defects

        self.check(write)


class TestNetworkUpdate:
    def test_network_update_conductance(self):
        pair = make_pair()
        network = CrossbarNetwork(
            pair.positive.conductance, pair.positive.config.r_wire
        )
        x = inputs()
        network.read_batch(x)
        stale = network.transfer_matrix()
        network.update_conductance(pair.negative.conductance)
        assert network.transfer_matrix() is not stale
        assert np.array_equal(
            network.read_batch(x),
            CrossbarNetwork(
                pair.negative.conductance, pair.positive.config.r_wire
            ).read_batch(x),
        )


class TestFactorLifetime:
    @pytest.mark.parametrize("m", [3, 12])
    def test_no_superlu_factor_left_after_nodal_read(self, m):
        """The lu factor is built and dropped inside the read.

        A SuperLU object kept on the crossbar's cached network would be
        released by whichever thread next changes the state, which is
        not, in general, the thread that built it.
        """
        from repro.xbar.crossbar import Crossbar

        xbar = Crossbar(
            CrossbarConfig(rows=6, cols=m, r_wire=2.5),
            rng=np.random.default_rng(0),
        )
        xbar.read(np.full(6, 0.5), "nodal")
        network = xbar._network
        assert network._transfer is not None
        assert network._lu is None
