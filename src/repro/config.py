"""Global configuration objects shared across the Vortex reproduction.

The values collected here mirror the experimental setup of the DAC'15
paper: nominal on/off resistances of 10 kOhm / 1 MOhm, a 784x10 crossbar
for 28x28 MNIST-style images, a wire resistance of 2.5 Ohm for the
IR-drop studies, and a default device-variation sigma of 0.6.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class DeviceConfig:
    """Nominal memristor device parameters.

    Attributes:
        r_on: Nominal low-resistance-state (LRS) resistance in Ohm.
        r_off: Nominal high-resistance-state (HRS) resistance in Ohm.
        v_set: Programming voltage magnitude for SET (toward LRS) in Volt.
        v_reset: Programming voltage magnitude for RESET (toward HRS) in Volt.
        v_half_ratio: Fraction of the full programming voltage seen by
            half-selected devices under the V/2 scheme.
        v0_set: Characteristic voltage of the exponential SET dynamics.
        v0_reset: Characteristic voltage of the exponential RESET dynamics.
        k_set: SET rate prefactor in 1/second.
        k_reset: RESET rate prefactor in 1/second.
    """

    r_on: float = 10e3
    r_off: float = 1e6
    v_set: float = 2.9
    v_reset: float = 2.9
    v_half_ratio: float = 0.5
    v0_set: float = 0.207
    v0_reset: float = 0.207
    k_set: float = 22.6
    k_reset: float = 22.6

    @property
    def g_on(self) -> float:
        """On-state (maximum) conductance in Siemens."""
        return 1.0 / self.r_on

    @property
    def g_off(self) -> float:
        """Off-state (minimum) conductance in Siemens."""
        return 1.0 / self.r_off

    @property
    def g_range(self) -> float:
        """Programmable conductance span ``g_on - g_off`` in Siemens."""
        return self.g_on - self.g_off


@dataclasses.dataclass(frozen=True)
class VariationConfig:
    """Statistical model of memristor variability.

    The paper adopts the lognormal parametric-variation model of
    Lee et al. (VLSIT'12): a device programmed toward target resistance
    ``r`` lands at ``r * exp(theta)`` with ``theta ~ N(0, sigma**2)``.
    Cycle-to-cycle (switching) variation is modelled the same way with a
    much smaller ``sigma_cycle`` and a fresh draw per programming event.

    Attributes:
        sigma: Standard deviation of the persistent (parametric,
            device-to-device) log-multiplier ``theta``.
        sigma_cycle: Standard deviation of the per-programming-event
            (cycle-to-cycle) lognormal switching variation.
        defect_rate: Probability that a device is a stuck-at defect.
        defect_lrs_fraction: Fraction of defects stuck at LRS (the rest
            are stuck at HRS).
        distribution: Shape of the persistent ``theta`` distribution:
            ``'lognormal'`` (theta normal -- the paper's model from
            [14]), ``'uniform'`` (theta uniform, matched std), or
            ``'heavy_tailed'`` (Student-t theta with 4 dof, matched
            std).  The paper notes its techniques "are not restricted
            to any particular variation models"; these alternatives
            exercise that claim.
    """

    sigma: float = 0.6
    sigma_cycle: float = 0.03
    defect_rate: float = 0.0
    defect_lrs_fraction: float = 0.5
    distribution: str = "lognormal"


@dataclasses.dataclass(frozen=True)
class CrossbarConfig:
    """Crossbar array geometry and interconnect parameters.

    Attributes:
        rows: Number of word lines (inputs), ``n`` in the paper.
        cols: Number of bit lines (outputs), ``m`` in the paper.
        r_wire: Resistance of one wire segment between adjacent
            cross-points, in Ohm (the paper uses 2.5 Ohm).
        v_read: Read voltage applied on the word lines during inference
            and sensing, in Volt.
    """

    rows: int = 784
    cols: int = 10
    r_wire: float = 2.5
    v_read: float = 1.0


@dataclasses.dataclass(frozen=True)
class SensingConfig:
    """Peripheral sensing-circuit parameters.

    Attributes:
        adc_bits: ADC resolution in bits (the paper fixes 6 bits after
            the Fig. 8 sweep).
        sense_repeats: Number of repeated sense operations averaged
            during pre-testing to suppress switching variation.
        full_scale_margin: Head-room multiplier applied to the largest
            expected current when choosing the ADC full-scale range.
    """

    adc_bits: int = 6
    sense_repeats: int = 4
    full_scale_margin: float = 1.0


DEFAULT_DEVICE = DeviceConfig()
DEFAULT_VARIATION = VariationConfig()
DEFAULT_CROSSBAR = CrossbarConfig()
DEFAULT_SENSING = SensingConfig()
