"""Single memristor crossbar: analog vector-matrix multiplication.

Ties together the device array (:mod:`repro.devices.memristor`), the
IR-drop models (:mod:`repro.xbar.ir_drop`, :mod:`repro.xbar.nodal`) and
the sensing chain (:mod:`repro.circuits.sensing`) into the unit the
training schemes operate on: input voltages on the word lines, output
currents on the bit lines (Section 2.2.1 of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.circuits.sensing import CurrentSense
from repro.config import CrossbarConfig, DeviceConfig, VariationConfig
from repro.devices.memristor import MemristorArray
from repro.xbar.ir_drop import read_column_gains
from repro.xbar.matmul import batch_invariant_matmul, trial_stacked_matmul
from repro.xbar.nodal import CrossbarNetwork

__all__ = [
    "Crossbar",
    "IR_MODES",
    "batch_invariant_matmul",
    "trial_stacked_matmul",
    "validate_ir_mode",
]

IR_MODES = ("ideal", "reference", "nodal")


def validate_ir_mode(ir_mode: str) -> str:
    """Return ``ir_mode`` if it is one of :data:`IR_MODES`, else raise.

    The one check behind every ``ir_mode`` a caller can set.  The
    retired wire-iteration mode's error names its replacement (see
    ``docs/ir_drop.md``).
    """
    if ir_mode in IR_MODES:
        return ir_mode
    if ir_mode == "fixed_point":
        raise ValueError(
            f"ir_mode {ir_mode!r} was removed: the nodal read is exact "
            "and cheaper; use ir_mode='nodal' (--ir-mode nodal)"
        )
    raise ValueError(f"ir_mode must be one of {IR_MODES}, got {ir_mode!r}")


class Crossbar:
    """An ``n x m`` memristor crossbar with configurable read fidelity.

    Args:
        config: Geometry and interconnect parameters.
        device: Nominal device parameters.
        variation: Device variability statistics.
        rng: Random generator (fabrication draw + cycle noise).
        sense: Optional sensing chain applied to read currents;
            ``None`` senses ideally.

    The read model fidelity is selected per call via ``ir_mode``:

    * ``'ideal'`` -- zero wire resistance, ``I = v_read * (x @ G)``.
    * ``'reference'`` -- effective conductances attenuated at a cached
      reference input (cheap, used inside large sweeps).
    * ``'nodal'`` -- full sparse nodal analysis (ground truth).
    """

    def __init__(
        self,
        config: CrossbarConfig | None = None,
        device: DeviceConfig | None = None,
        variation: VariationConfig | None = None,
        rng: np.random.Generator | None = None,
        sense: CurrentSense | None = None,
    ):
        self.config = config if config is not None else CrossbarConfig()
        self.device = device if device is not None else DeviceConfig()
        self.array = MemristorArray(
            (self.config.rows, self.config.cols),
            device=self.device,
            variation=variation,
            rng=rng,
        )
        self.sense = sense
        self._reference_factors: np.ndarray | None = None
        self._reference_input: np.ndarray | None = None
        # Cached read models, valid only for one device state: the
        # version stamp detects any state change (programming, aging,
        # defect injection) and forces a rebuild.
        self._network: CrossbarNetwork | None = None
        self._network_version: int = -1
        self._reference_version: int = -1

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def conductance(self) -> np.ndarray:
        """Actual device conductances, shape ``(rows, cols)``, read-only
        (cached per device state; see :attr:`MemristorArray.conductance`)."""
        return self.array.conductance

    # ------------------------------------------------------------------
    # programming
    # ------------------------------------------------------------------
    def program(self, target_g: np.ndarray, with_cycle_noise: bool = True):
        """Open-loop program all cells toward target conductances."""
        return self.array.program_conductance(target_g, with_cycle_noise)

    def update(
        self,
        delta_g: np.ndarray,
        efficiency: np.ndarray | float = 1.0,
        with_cycle_noise: bool = True,
    ):
        """Close-loop incremental conductance update."""
        return self.array.update_conductance(
            delta_g, efficiency, with_cycle_noise
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def set_reference_input(self, x_reference: np.ndarray) -> None:
        """Set the input statistics used by the ``'reference'`` model."""
        x_reference = np.asarray(x_reference, dtype=float)
        if x_reference.shape != (self.shape[0],):
            raise ValueError(
                f"x_reference must have shape ({self.shape[0]},)"
            )
        self._reference_input = x_reference
        self._reference_factors = None

    def _get_reference_factors(self) -> np.ndarray:
        """Per-column gain factors of the fast ``'reference'`` model."""
        version = self.array.state_version
        if self._reference_factors is None or self._reference_version != version:
            x_ref = self._reference_input
            if x_ref is None:
                x_ref = np.full(self.shape[0], 0.5)
            self._reference_factors = read_column_gains(
                self.conductance,
                x_ref,
                self.config.r_wire,
                self.config.v_read,
            )
            self._reference_version = version
        return self._reference_factors

    def _get_network(self) -> CrossbarNetwork:
        """Nodal network of the current state, transfer matrix cached.

        Building the network's transfer matrix (a factorisation plus
        min(rows, cols) solves) is the dominant cost of a nodal read;
        caching the network keyed on the device-state version means
        every query against an unchanged programmed state is one
        fixed-order matmul, while any reprogramming, drift aging or
        defect injection hands the next read a new network.
        """
        version = self.array.state_version
        if self._network is None or self._network_version != version:
            self._network = CrossbarNetwork(self.conductance, self.config.r_wire)
            self._network_version = version
        return self._network

    def read(  # repro-lint: batch-invariant
        self, x: np.ndarray, ir_mode: str = "ideal"
    ) -> np.ndarray:
        """Sensed bit-line currents for input(s) ``x`` in [0, 1].

        Args:
            x: Input features, shape ``(rows,)`` or batch ``(s, rows)``.
            ir_mode: One of :data:`IR_MODES`.

        Returns:
            Currents in Ampere, shape ``(cols,)`` or ``(s, cols)``.
        """
        validate_ir_mode(ir_mode)
        x = np.asarray(x, dtype=float)
        v_read = self.config.v_read
        if ir_mode == "ideal" or self.config.r_wire == 0:
            currents = v_read * batch_invariant_matmul(x, self.conductance)
        elif ir_mode == "reference":
            currents = (
                v_read
                * batch_invariant_matmul(x, self.conductance)
                * self._get_reference_factors()
            )
        else:  # nodal: the cached network alone, no conductance fetch
            currents = self._get_network().read_batch(x, v_read)
        if self.sense is not None:
            currents = self.sense.sense(currents)
        return currents

    def read_single_cell(
        self, row: int, col: int, v_read: float | None = None
    ) -> float:
        """Pre-test read of one cell (others assumed quiescent).

        Drives only word line ``row`` and senses only bit line ``col``;
        the AMP pre-test keeps all other cells at HRS so sneak currents
        are negligible (Section 4.2.1), making the ideal single-cell
        current the faithful model here.  Sensing-chain effects (noise,
        ADC quantisation) still apply.
        """
        v = v_read if v_read is not None else self.config.v_read
        current = v * self.conductance[row, col]
        if self.sense is not None:
            current = float(self.sense.sense(current))
        return float(current)
