"""Column-current sensing chain.

Combines a (optional) thermal/readout noise source with an ADC into the
sense path used for both computation and pre-testing.  The paper's CLD
scheme requires "accurately sensing the memristor (output current from
the crossbar) in the real-time" (Section 1); this module is where that
accuracy is bounded.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.adc import ADC
from repro.seeding import ensure_rng

__all__ = ["CurrentSense"]


class CurrentSense:
    """Current sensing front-end: additive noise followed by an ADC.

    Args:
        adc: Quantiser applied to the (noisy) current; ``None`` models
            an ideal infinite-resolution sense amplifier.
        noise_std: Standard deviation of additive Gaussian readout
            noise, in the same units as the sensed current (A).
        rng: Random generator for the noise draws; a noiseless sense
            draws nothing and needs none.
    """

    def __init__(
        self,
        adc: ADC | None = None,
        noise_std: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std}")
        self.adc = adc
        self.noise_std = float(noise_std)
        self.rng = rng
        if self.noise_std > 0:
            self.rng = ensure_rng(rng, "repro.circuits.sensing.CurrentSense")

    def sense(self, current: np.ndarray | float) -> np.ndarray:
        """One sensing operation on a current (or array of currents)."""
        i = np.asarray(current, dtype=float)
        if self.noise_std > 0:
            i = i + self.rng.normal(0.0, self.noise_std, size=i.shape)
        if self.adc is not None:
            i = self.adc.quantize(i)
        return i

    @property
    def resolution(self) -> float:
        """Smallest distinguishable current step (A); 0 if ideal."""
        return self.adc.lsb if self.adc is not None else 0.0
