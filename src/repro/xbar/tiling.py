"""Row-wise crossbar tiling: large layers across multiple arrays.

A 784-input layer on a single crossbar pays the full bit-line IR-drop
of 784 wire segments (Table 1's tension: more features, worse wires).
Deployments instead *tile*: the weight matrix is split row-wise across
several smaller pairs whose column currents are summed digitally after
sensing.  Columns shorten by the tile count, so the IR regime improves
quadratically while the feature count is preserved -- the architectural
counterpart of the paper's algorithmic compensation.

``TiledPair`` exposes the same programming/read surface as
:class:`repro.xbar.pair.DifferentialCrossbar` for the row-partitioned
case, reusing one scaler so the digital summation is consistent.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense
from repro.config import CrossbarConfig, DeviceConfig, VariationConfig
from repro.seeding import ensure_rng
from repro.xbar.mapping import WeightScaler
from repro.xbar.pair import DifferentialCrossbar

__all__ = ["TiledPair", "split_rows"]


def split_rows(n_rows: int, tile_rows: int) -> list[tuple[int, int]]:
    """Row ranges ``[(start, stop), ...]`` of a row-wise tiling."""
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if tile_rows < 1:
        raise ValueError("tile_rows must be >= 1")
    return [
        (start, min(start + tile_rows, n_rows))
        for start in range(0, n_rows, tile_rows)
    ]


class TiledPair:
    """A weight matrix row-partitioned across differential-pair tiles.

    Args:
        scaler: Shared weight <-> conductance map (one normalisation
            across all tiles keeps the digital sum meaningful).
        n_rows: Logical input count of the layer.
        cols: Output columns.
        tile_rows: Rows per tile (the last tile may be smaller).
        config: Per-tile crossbar parameters; its ``rows`` field is
            overridden by the tiling.
        device: Device parameters shared by the tiles.
        variation: Variability statistics (independent draws per tile).
        rng: Fabrication randomness.
        adc_bits: Optional per-tile differential ADC resolution
            (``None`` senses ideally); each tile auto-ranges via
            :meth:`calibrate_sense`.
    """

    def __init__(
        self,
        scaler: WeightScaler,
        n_rows: int,
        cols: int,
        tile_rows: int,
        config: CrossbarConfig | None = None,
        device: DeviceConfig | None = None,
        variation: VariationConfig | None = None,
        rng: np.random.Generator | None = None,
        adc_bits: int | None = None,
    ):
        base = config if config is not None else CrossbarConfig()
        rng = ensure_rng(rng, "repro.xbar.tiling.TiledCrossbar")
        self.scaler = scaler
        self.n_rows = int(n_rows)
        self.cols = int(cols)
        self.ranges = split_rows(n_rows, tile_rows)
        self.tiles: list[DifferentialCrossbar] = []
        for start, stop in self.ranges:
            tile_cfg = CrossbarConfig(
                rows=stop - start,
                cols=cols,
                r_wire=base.r_wire,
                v_read=base.v_read,
            )
            diff_sense = None
            if adc_bits is not None:
                full_scale = (
                    tile_cfg.v_read
                    * (device or DeviceConfig()).g_range
                    * tile_cfg.rows
                    * 0.02
                )
                diff_sense = CurrentSense(
                    adc=ADC(adc_bits, full_scale, bipolar=True)
                )
            self.tiles.append(
                DifferentialCrossbar(
                    scaler=scaler,
                    config=tile_cfg,
                    device=device,
                    variation=variation,
                    rng=rng,
                    diff_sense=diff_sense,
                )
            )

    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.cols)

    def _split(self, array: np.ndarray, axis: int) -> list[np.ndarray]:
        return [
            np.take(array, np.arange(start, stop), axis=axis)
            for start, stop in self.ranges
        ]

    # ------------------------------------------------------------------
    def program_weights(
        self, weights: np.ndarray, with_cycle_noise: bool = True
    ) -> None:
        """Open-loop program all tiles from one signed weight matrix.

        The normalisation is global (one scale for the whole layer) so
        the digitally summed outputs reproduce ``x @ W`` up to the
        common factor.
        """
        w = np.asarray(weights, dtype=float)
        if w.shape != self.shape:
            raise ValueError(
                f"weights shape {w.shape} != layer shape {self.shape}"
            )
        peak = float(np.max(np.abs(w)))
        if peak > 0:
            w = w * (self.scaler.w_max / peak)
        for tile, w_tile in zip(self.tiles, self._split(w, axis=0)):
            tile.program_weights(w_tile, with_cycle_noise)

    def partial_matvec(  # repro-lint: batch-invariant
        self, x: np.ndarray, ir_mode: str = "ideal"
    ) -> list[np.ndarray]:
        """Per-tile weight-domain partial outputs, in tile order.

        Each tile sees its own row slice of ``x`` and returns its
        digitised contribution to ``x @ W``; :meth:`matvec` is exactly
        the left-to-right sum of this list.  A fleet's drift monitor
        compares each partial to its shard's programming-time
        baseline, so every tile is judged on its own.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_rows:
            raise ValueError(
                f"input width {x.shape[-1]} != layer rows {self.n_rows}"
            )
        return [
            tile.matvec(x[..., start:stop], ir_mode)
            for tile, (start, stop) in zip(self.tiles, self.ranges)
        ]

    @staticmethod
    def reduce_partials(parts: list[np.ndarray]) -> np.ndarray:
        """Left-to-right digital sum of per-tile partial outputs.

        The one true accumulation order: :meth:`matvec` and any other
        consumer of :meth:`partial_matvec` must reduce through this
        helper so their results stay bit-identical regardless of where
        the partials were computed.
        """
        if not parts:
            raise ValueError("no partial outputs to reduce")
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total

    def matvec(  # repro-lint: batch-invariant
        self, x: np.ndarray, ir_mode: str = "ideal"
    ) -> np.ndarray:
        """Digitally summed tile outputs ``~ x @ W`` (normalised).

        Accepts a single query ``(n_rows,)`` or a batch
        ``(s, n_rows)``; a batch delegates to each tile's batched
        :meth:`~repro.xbar.crossbar.Crossbar.read` (one multi-RHS
        solve per tile under ``'nodal'``) and is bit-identical to
        looping the single-query path over the batch rows.
        """
        return self.reduce_partials(self.partial_matvec(x, ir_mode))

    def effective_weights(self) -> np.ndarray:
        """Realised (normalised) weights concatenated across tiles."""
        return np.concatenate(
            [tile.effective_weights() for tile in self.tiles], axis=0
        )

    def calibrate_sense(self, x_calibration: np.ndarray) -> None:
        """Auto-range every tile's differential ADC on its input slice."""
        x_cal = np.atleast_2d(np.asarray(x_calibration, dtype=float))
        for tile, x_tile in zip(self.tiles, self._split(x_cal, axis=-1)):
            tile.calibrate_sense(x_tile)

    def set_reference_input(self, x_reference: np.ndarray) -> None:
        """Propagate reference input statistics to every tile."""
        x_ref = np.asarray(x_reference, dtype=float)
        for tile, x_tile in zip(self.tiles, self._split(x_ref, axis=-1)):
            tile.set_reference_input(x_tile)
