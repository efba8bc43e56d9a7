"""Physics property tests for the nodal ground truth.

The sparse-LU solution must be a valid circuit, checked against an
operator coded here independently of the factorising path
(:func:`nodal_operator_apply`): Kirchhoff's current law holds at every
node, the current the
drivers inject equals the current the terminations collect, and the
batched read path is exactly the looped one -- including at nonzero
bit-line termination voltages (the regression of the silent
grounded-bit-line assumption the old ``read_batch`` carried).

Grounded reads go through the cached transfer matrix ``T``; the
per-input splu ``solve`` stays the oracle it is checked against.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CrossbarConfig, VariationConfig
from repro.xbar.crossbar import Crossbar
from repro.xbar.nodal import CrossbarNetwork

GEOMETRIES = [(8, 5), (3, 7), (16, 16), (30, 1), (1, 6)]

#: KCL residual budget relative to the driving current scale.  Sparse
#: LU lands many orders of magnitude inside it.
KCL_RTOL = 1e-6

#: Agreement of reads through the transfer matrix with the per-input
#: splu oracle, relative to the largest oracle current.
TRANSFER_RTOL = 1e-12


def random_conductance(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return 1e-4 * np.exp(0.6 * rng.normal(size=(n, m)))


def read_inputs(n, seed=1, batch=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(batch, n))


def _wire_degrees(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Wire-conductance multiplicity per node of each plane.

    Returns ``(deg_top, deg_bottom)`` where ``deg_top`` (shape ``(m,)``)
    counts the wire segments incident on column position ``j`` of any
    word line (neighbours plus the left-end driver) and ``deg_bottom``
    (shape ``(n,)``) the segments at row position ``i`` of any bit line
    (neighbours plus the bottom-end termination).
    """
    deg_top = np.zeros(m)
    deg_top[1:] += 1.0
    deg_top[:-1] += 1.0
    deg_top[0] += 1.0
    deg_bottom = np.zeros(n)
    deg_bottom[1:] += 1.0
    deg_bottom[:-1] += 1.0
    deg_bottom[n - 1] += 1.0
    return deg_top, deg_bottom


def nodal_operator_apply(
    g: np.ndarray, r_wire: float, v: np.ndarray
) -> np.ndarray:
    """Matrix-free apply of the nodal Laplacian to plane-shaped vectors.

    Args:
        g: Device conductances, shape ``(n, m)``.
        r_wire: Wire segment resistance (> 0).
        v: Node voltages with the planes stacked on axis ``-3``:
            ``v[..., 0, :, :]`` is the top (word-line) plane,
            ``v[..., 1, :, :]`` the bottom (bit-line) plane.

    Returns:
        ``A @ v`` in the same layout, from elementwise and
        shifted-slice arithmetic only: no assembled matrix, no factor.
    """
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    n, m = v.shape[-2:]
    g_w = 1.0 / r_wire
    deg_top, deg_bottom = _wire_degrees(n, m)
    vt = v[..., 0, :, :]
    vb = v[..., 1, :, :]
    out_t = (g + g_w * deg_top) * vt - g * vb
    out_t[..., :, 1:] -= g_w * vt[..., :, :-1]
    out_t[..., :, :-1] -= g_w * vt[..., :, 1:]
    out_b = (g + g_w * deg_bottom[:, None]) * vb - g * vt
    out_b[..., 1:, :] -= g_w * vb[..., :-1, :]
    out_b[..., :-1, :] -= g_w * vb[..., 1:, :]
    return np.stack([out_t, out_b], axis=-3)


def _solution_residual(network, v_rows, v_cols, solution):
    """KCL residual ``A v - b`` at every node, as one (2, n, m) array.

    ``A v`` comes from the matrix-free operator apply (independently
    coded from the factorising path), ``b`` from the driver
    currents, so a small residual certifies both the solve and the
    assembly against each other.
    """
    n, m = network.n, network.m
    g_w = 1.0 / network.r_wire
    v = np.stack([solution.v_top, solution.v_bottom])
    applied = nodal_operator_apply(network.g, network.r_wire, v)
    b = np.zeros((2, n, m))
    b[0, :, 0] = np.asarray(v_rows) * g_w
    b[1, n - 1, :] += np.broadcast_to(np.asarray(v_cols, dtype=float), (m,)) * g_w
    return applied - b


class TestOperatorApply:
    @pytest.mark.parametrize("n,m", GEOMETRIES + [(100, 10)])
    def test_matches_assembled_matrix(self, n, m):
        """A @ v computed matrix-free equals the lu path's assembly."""
        g = random_conductance(n, m)
        network = CrossbarNetwork(g, 2.5)
        rng = np.random.default_rng(3)
        v_flat = rng.normal(size=2 * n * m)
        # Solve then re-apply: A (A^-1 b) must reproduce b.
        x = network._get_lu().solve(v_flat)
        applied = nodal_operator_apply(
            g, 2.5, x.reshape(2, n, m)
        ).reshape(-1)
        assert np.allclose(applied, v_flat, atol=1e-12 * np.abs(v_flat).max())


class TestKCL:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    def test_current_conservation_every_node(self, n, m):
        """KCL holds at every node, not only the sensed boundary."""
        network = CrossbarNetwork(random_conductance(n, m), 2.5)
        rng = np.random.default_rng(1)
        v_rows = rng.uniform(size=n)
        v_cols = rng.uniform(size=m) * 0.1
        solution = network.solve(v_rows, v_cols)
        residual = _solution_residual(network, v_rows, v_cols, solution)
        scale = np.abs(v_rows).max() / network.r_wire
        assert np.abs(residual).max() / scale <= KCL_RTOL

    def test_driver_current_balance(self):
        """Injected word-line current equals collected column current.

        The network has no other terminals, so conservation over the
        whole circuit forces sum(driver currents) == sum(column
        currents) whenever the terminations are grounded.
        """
        n, m = 20, 6
        network = CrossbarNetwork(random_conductance(n, m), 2.5)
        rng = np.random.default_rng(2)
        v_rows = rng.uniform(size=n)
        solution = network.solve(v_rows, 0.0)
        g_w = 1.0 / network.r_wire
        injected = np.sum((v_rows - solution.v_top[:, 0]) * g_w)
        collected = np.sum(solution.column_current)
        assert injected == pytest.approx(collected, rel=1e-6)

    def test_device_currents_sum_to_column_current(self):
        """Per-column device currents equal what the termination sees.

        Within one bit line the device currents all flow to the bottom
        termination (no other exit), so their sum must match
        ``column_current`` when the bit lines are grounded.
        """
        n, m = 12, 4
        network = CrossbarNetwork(random_conductance(n, m), 2.5)
        solution = network.solve(np.linspace(0.1, 1.0, n), 0.0)
        per_column = solution.device_current.sum(axis=0)
        np.testing.assert_allclose(
            per_column, solution.column_current, rtol=1e-6
        )


class TestStructureCache:
    def test_values_only_rewrite_is_bit_identical(self):
        """update_conductance must equal a from-scratch build exactly."""
        g1 = random_conductance(9, 4, seed=1)
        g2 = random_conductance(9, 4, seed=2)
        x = read_inputs(9)
        network = CrossbarNetwork(g1, 2.5)
        network.read_batch(x)  # force assembly of g1's factor
        network.update_conductance(g2)
        fresh = CrossbarNetwork(g2, 2.5)
        assert np.array_equal(network.read_batch(x), fresh.read_batch(x))

    def test_structure_survives_update(self):
        network = CrossbarNetwork(random_conductance(6, 3), 2.5)
        network.read_batch(read_inputs(6))
        structure = network._structure
        assert structure is not None
        network.update_conductance(random_conductance(6, 3, seed=9))
        assert network._structure is structure

    def test_update_validates_shape_and_sign(self):
        network = CrossbarNetwork(random_conductance(4, 3), 2.5)
        with pytest.raises(ValueError, match="expected shape"):
            network.update_conductance(np.ones((3, 4)) * 1e-5)
        with pytest.raises(ValueError, match="positive"):
            network.update_conductance(np.zeros((4, 3)))


class TestReadBatchEquivalence:
    def test_read_batch_equals_looped_read(self):
        network = CrossbarNetwork(random_conductance(10, 4), 2.5)
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(6, 10))
        batched = network.read_batch(x, 0.9)
        for s in range(6):
            np.testing.assert_allclose(
                batched[s], network.read(x[s], 0.9),
                rtol=1e-9, atol=1e-18,
            )

    def test_read_batch_supports_nonzero_v_cols(self):
        """Regression: the batched path honours v_cols.

        The pre-subsystem ``read_batch`` silently computed
        ``v_bottom * g_w`` -- correct only for grounded bit lines.  The
        batched current must now equal the looped ``solve`` current at
        any termination voltage, per input and shared alike.
        """
        n, m = 9, 5
        network = CrossbarNetwork(random_conductance(n, m), 2.5)
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(4, n))
        shared = rng.uniform(size=m) * 0.2
        per_input = rng.uniform(size=(4, m)) * 0.2
        for v_cols in (shared, per_input):
            batched = network.read_batch(x, 1.0, v_cols=v_cols)
            for s in range(4):
                vc = v_cols if v_cols.ndim == 1 else v_cols[s]
                looped = network.solve(x[s], vc).column_current
                np.testing.assert_allclose(
                    batched[s], looped, rtol=1e-9,
                    atol=1e-12 * np.abs(looped).max(),
                )

    def test_single_input_shape(self):
        network = CrossbarNetwork(random_conductance(5, 3), 2.5)
        single = network.read_batch(np.full(5, 0.5))
        assert single.shape == (3,)
        np.testing.assert_allclose(single, network.read(np.full(5, 0.5)))


class TestBatchedSolvePaths:
    def test_solve_batch_equals_looped_solve(self):
        n, m = 11, 4
        network = CrossbarNetwork(random_conductance(n, m), 2.5)
        rng = np.random.default_rng(5)
        v_rows = rng.uniform(size=(5, n))
        v_cols = rng.uniform(size=(5, m)) * 0.3
        batch = network.solve_batch(v_rows, v_cols)
        assert batch.v_top.shape == (5, n, m)
        for b in range(5):
            one = network.solve(v_rows[b], v_cols[b])
            np.testing.assert_allclose(
                batch.v_top[b], one.v_top, rtol=1e-9, atol=1e-15
            )
            np.testing.assert_allclose(
                batch.column_current[b], one.column_current,
                rtol=1e-9, atol=1e-15,
            )

    def test_program_voltages_batch_equals_looped(self):
        n, m = 14, 6
        network = CrossbarNetwork(random_conductance(n, m), 2.5)
        cells = np.array(
            [(0, 0), (n - 1, m - 1), (n // 2, m // 2), (0, m - 1)]
        )
        batch = network.program_voltages_batch(cells, 2.9)
        for idx, (row, col) in enumerate(cells):
            one = network.program_voltages(int(row), int(col), 2.9)
            np.testing.assert_allclose(
                batch.device_voltage[idx], one.device_voltage,
                rtol=1e-12, atol=1e-15,
            )

    def test_program_voltages_batch_validates_cells(self):
        network = CrossbarNetwork(random_conductance(4, 4), 2.5)
        with pytest.raises(IndexError, match="outside"):
            network.program_voltages_batch([(0, 0), (4, 0)], 2.9)
        with pytest.raises(ValueError, match="pairs"):
            network.program_voltages_batch(np.zeros((2, 3), dtype=int),
                                           2.9)


def _rel_error(value, reference):
    return np.abs(value - reference).max() / np.abs(reference).max()


class TestTransferMatrix:
    @given(
        n=st.integers(1, 24),
        m=st.integers(1, 24),
        r_wire=st.floats(0.1, 50.0),
        seed=st.integers(0, 2**16),
    )
    @example(n=20, m=6, r_wire=2.5, seed=0)  # n > m
    @example(n=5, m=17, r_wire=2.5, seed=1)  # n < m
    @example(n=9, m=9, r_wire=10.0, seed=2)  # n == m
    @example(n=30, m=1, r_wire=0.5, seed=3)  # one bit line
    @example(n=1, m=12, r_wire=25.0, seed=4)  # one word line
    @example(n=64, m=64, r_wire=2.5, seed=5)  # beyond the drawn sizes
    @settings(max_examples=30, deadline=None)
    def test_reads_match_per_input_splu(self, n, m, r_wire, seed):
        network = CrossbarNetwork(random_conductance(n, m, seed), r_wire)
        x = np.random.default_rng(seed + 1).uniform(size=(3, n))
        through_t = network.read_batch(x, 0.9)
        oracle = np.stack(
            [network.solve(row * 0.9, 0.0).column_current for row in x]
        )
        assert _rel_error(through_t, oracle) <= TRANSFER_RTOL

    @given(
        n=st.integers(1, 24),
        m=st.integers(1, 24),
        r_wire=st.floats(0.1, 50.0),
        seed=st.integers(0, 2**16),
    )
    @example(n=20, m=6, r_wire=2.5, seed=0)
    @example(n=5, m=17, r_wire=2.5, seed=1)
    @settings(max_examples=30, deadline=None)
    def test_reciprocity_orientations_agree(self, n, m, r_wire, seed):
        """Driving bit lines or word lines yields the same ``T``."""
        network = CrossbarNetwork(random_conductance(n, m, seed), r_wire)
        by_bit_lines = network._build_transfer(True)
        by_word_lines = network._build_transfer(False)
        assert by_bit_lines.shape == by_word_lines.shape == (n, m)
        assert _rel_error(by_bit_lines, by_word_lines) <= TRANSFER_RTOL

    @pytest.mark.parametrize("rows,cols", [(20, 6), (5, 17)])
    def test_crossbar_batched_read_is_looped_read(self, rows, cols):
        xbar = Crossbar(
            CrossbarConfig(rows=rows, cols=cols, r_wire=2.5),
            variation=VariationConfig(sigma=0.3),
            rng=np.random.default_rng(0),
        )
        d = xbar.device
        xbar.program(
            np.random.default_rng(1).uniform(d.g_off, d.g_on, (rows, cols)),
            with_cycle_noise=False,
        )
        x = np.random.default_rng(2).uniform(size=(33, rows))
        looped = np.stack([xbar.read(row, "nodal") for row in x])
        for batch in range(1, 34):
            assert np.array_equal(xbar.read(x[:batch], "nodal"),
                                  looped[:batch])


class TestServedNodalReads:
    def test_service_matches_engine_across_a_repair(self):
        from repro.devices.retention import RetentionConfig, age_pair
        from repro.serve import (
            CrossbarService,
            DriftPolicy,
            ProgramConfig,
            program_array,
        )

        artifact = program_array(ProgramConfig(
            scheme="vortex", image_size=7, n_train=150, sigma=0.3,
            r_wire=2.5, ir_mode="nodal", seed=0,
        ))
        queries = np.random.default_rng(3).uniform(
            size=(12, artifact.n_logical)
        )
        service = CrossbarService(
            artifact,
            policy=DriftPolicy(threshold=0.05, check_every=10**9),
        )
        try:
            def served_equals_offline():
                futures = [service.submit(q) for q in queries]
                served = np.stack([f.result(timeout=60) for f in futures])
                return np.array_equal(
                    served, service.engine.forward(queries)
                )

            assert served_equals_offline()
            age_pair(
                service.pair, 3e5,
                RetentionConfig(nu_median=0.05, nu_sigma=0.5),
                np.random.default_rng(11),
            )
            event = service.monitor.check()
            assert event is not None and event.action == "remap"
            assert served_equals_offline()
        finally:
            service.close()
