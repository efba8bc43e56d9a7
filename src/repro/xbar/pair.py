"""Differential crossbar pair: signed weights on positive hardware.

The paper represents a signed weight matrix with two crossbars holding
the absolute values of the positive and negative weights respectively
(Section 2.2.1).  ``DifferentialCrossbar`` packages the two arrays, the
shared :class:`~repro.xbar.mapping.WeightScaler`, and the differential
read so the training schemes can think in weight space while every
hardware effect (variation, IR-drop, sensing) is applied in conductance
space.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense
from repro.config import CrossbarConfig, DeviceConfig, VariationConfig
from repro.seeding import ensure_rng
from repro.xbar.crossbar import Crossbar
from repro.xbar.mapping import WeightScaler

__all__ = ["DifferentialCrossbar"]


class DifferentialCrossbar:
    """A pair of crossbars realising a signed weight matrix.

    Args:
        scaler: Weight <-> conductance mapping (fixes ``w_max``).
        config: Crossbar geometry shared by both arrays.
        device: Device parameters shared by both arrays.
        variation: Variability statistics (independent fabrication draws
            for the two arrays).
        rng: Random generator; both arrays draw from it so a single
            seed reproduces the full fabricated pair.
        sense: Optional per-array sensing chain (pre-test style reads).
        diff_sense: Optional sensing chain applied to the *differential*
            column current ``I+ - I-``.  Subtracting in the analog
            domain before conversion is the standard differential-pair
            sense design and avoids quantising two large currents only
            to subtract them digitally.
    """

    def __init__(
        self,
        scaler: WeightScaler,
        config: CrossbarConfig | None = None,
        device: DeviceConfig | None = None,
        variation: VariationConfig | None = None,
        rng: np.random.Generator | None = None,
        sense: CurrentSense | None = None,
        diff_sense: CurrentSense | None = None,
    ):
        self.scaler = scaler
        self.config = config if config is not None else CrossbarConfig()
        self.diff_sense = diff_sense
        self.digital_gains: np.ndarray | None = None
        rng = ensure_rng(rng, "repro.xbar.pair.DifferentialCrossbar")
        self.positive = Crossbar(self.config, device, variation, rng, sense)
        self.negative = Crossbar(self.config, device, variation, rng, sense)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.positive.shape

    def program_weights(
        self, weights: np.ndarray, with_cycle_noise: bool = True
    ) -> None:
        """Open-loop program both arrays from a signed weight matrix."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != self.shape:
            raise ValueError(
                f"weights shape {weights.shape} != crossbar shape {self.shape}"
            )
        g_pos, g_neg = self.scaler.weights_to_pair(weights)
        self.positive.program(g_pos, with_cycle_noise)
        self.negative.program(g_neg, with_cycle_noise)
        self.digital_gains = None

    def program_conductances(
        self,
        g_pos: np.ndarray,
        g_neg: np.ndarray,
        with_cycle_noise: bool = True,
    ) -> None:
        """Open-loop program both arrays from explicit targets."""
        self.positive.program(g_pos, with_cycle_noise)
        self.negative.program(g_neg, with_cycle_noise)
        self.digital_gains = None

    def restore_conductances(
        self,
        g_pos: np.ndarray,
        g_neg: np.ndarray,
        theta_pos: np.ndarray | None = None,
        theta_neg: np.ndarray | None = None,
        defects_pos: np.ndarray | None = None,
        defects_neg: np.ndarray | None = None,
    ) -> None:
        """Noise-free restore of both arrays from a persisted snapshot.

        The counterpart of :meth:`program_conductances` for artifact
        loading (:mod:`repro.serve.artifact`): the devices adopt the
        snapshot conductances, variation maps and defect maps exactly,
        without any programming stochasticity, so a serving process
        reconstructs the programmed hardware bit-for-bit.
        """
        self.positive.array.restore_state(g_pos, theta_pos, defects_pos)
        self.negative.array.restore_state(g_neg, theta_neg, defects_neg)

    def effective_weights(self) -> np.ndarray:
        """Signed weights actually realised by the programmed devices."""
        return self.scaler.pair_to_weights(
            self.positive.conductance, self.negative.conductance
        )

    def set_reference_input(self, x_reference: np.ndarray) -> None:
        """Propagate reference input statistics to both arrays."""
        self.positive.set_reference_input(x_reference)
        self.negative.set_reference_input(x_reference)

    def calibrate_sense(
        self,
        x_calibration: np.ndarray,
        margin: float = 1.5,
        quantile: float = 0.999,
    ) -> None:
        """Auto-range the differential ADC to the observed signal swing.

        Mimics the programmable-gain calibration every mixed-signal
        read-out performs after programming: the full-scale range is
        set to a small multiple of the differential-current swing seen
        on a calibration batch, so the fixed bit count is spent on the
        actual signal rather than on a worst-case bound.  Without this
        step a converter ranged for an n-row worst case wastes its
        codes -- fatally so for tall crossbars whose score swing does
        not grow with n.

        No-op when the pair has no differential ADC.
        """
        if self.diff_sense is None or self.diff_sense.adc is None:
            return
        x_cal = np.atleast_2d(np.asarray(x_calibration, dtype=float))
        i_diff = (
            self.positive.read(x_cal, "ideal")
            - self.negative.read(x_cal, "ideal")
        )
        peak = float(np.quantile(np.abs(i_diff), quantile))
        old_adc = self.diff_sense.adc
        floor = self.config.v_read * self.positive.device.g_off
        full_scale = max(peak * margin, floor)
        self.diff_sense.adc = ADC(
            old_adc.bits, full_scale, bipolar=old_adc.bipolar
        )

    def matvec(  # repro-lint: batch-invariant
        self, x: np.ndarray, ir_mode: str = "ideal"
    ) -> np.ndarray:
        """Weight-domain outputs ``~ x @ W`` through the hardware path.

        Args:
            x: Input features in [0, 1], ``(rows,)`` or ``(s, rows)``.
            ir_mode: Read fidelity (see :class:`~repro.xbar.crossbar.Crossbar`).

        Returns:
            Outputs in weight units, ``(cols,)`` or ``(s, cols)``.
        """
        i_pos = self.positive.read(x, ir_mode)
        i_neg = self.negative.read(x, ir_mode)
        i_diff = i_pos - i_neg
        if self.diff_sense is not None:
            i_diff = self.diff_sense.sense(i_diff)
        scores = self.scaler.currents_to_outputs(
            i_diff, 0.0, self.config.v_read
        )
        if self.digital_gains is not None:
            scores = scores * self.digital_gains
        return scores

    def calibrate_digital_gains(
        self,
        x_calibration: np.ndarray,
        intended_weights: np.ndarray,
        ir_mode: str = "ideal",
    ) -> np.ndarray:
        """Fit per-column digital gain corrections after programming.

        The deployer knows the weights it intended to program, so it
        can drive calibration inputs, compare the sensed scores with
        the intended ones, and store a per-column digital multiplier --
        the standard post-programming calibration, and the read-path
        counterpart of the paper's [10] IR-drop compensation.  A single
        gain per column corrects the systematic column-level errors
        (bit-line attenuation, positive/negative array gain imbalance)
        while leaving the per-cell variation -- the paper's subject --
        untouched.

        Args:
            x_calibration: Calibration input batch ``(s, rows)``.
            intended_weights: The weight matrix the programming aimed
                for, shape ``(rows, cols)``.
            ir_mode: Read model used for the calibration reads.

        Returns:
            The fitted gain vector, shape ``(cols,)``.
        """
        x_cal = np.atleast_2d(np.asarray(x_calibration, dtype=float))
        intended = x_cal @ np.asarray(intended_weights, dtype=float)
        self.digital_gains = None
        sensed = self.matvec(x_cal, ir_mode)
        num = np.sum(sensed * intended, axis=0)
        den = np.sum(sensed * sensed, axis=0)
        gains = np.where(den > 0, num / np.where(den == 0, 1.0, den), 1.0)
        self.digital_gains = np.clip(gains, 0.1, 10.0)
        return self.digital_gains

    def theta_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Ground-truth persistent variation of the two arrays."""
        return (
            self.positive.array.theta.copy(),
            self.negative.array.theta.copy(),
        )
