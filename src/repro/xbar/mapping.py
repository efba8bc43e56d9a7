"""Weight <-> conductance mapping for differential crossbar pairs.

A neural-network weight matrix has signed entries, but memristor
conductances are positive, so the paper represents ``W`` with two
crossbars holding the magnitudes of the positive and negative parts
(Section 2.2.1, citing Hu et al.).  ``WeightScaler`` owns the affine
map between weight magnitude and conductance:

    g = g_off + (|w| / w_max) * (g_on - g_off)

and its inverse.  Keeping the map in one object guarantees that
programming targets and read-back interpretation stay consistent.
"""

from __future__ import annotations

import numpy as np

from repro.config import DeviceConfig

__all__ = ["WeightScaler", "split_signed"]


def split_signed(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a signed matrix into (positive part, negative-part magnitude)."""
    w = np.asarray(weights, dtype=float)
    return np.maximum(w, 0.0), np.maximum(-w, 0.0)


class WeightScaler:
    """Affine mapping between weight magnitudes and conductances.

    Args:
        w_max: Weight magnitude that maps to full conductance ``g_on``.
            Weights beyond ``w_max`` are clipped at programming time.
        device: Device parameters supplying the conductance range.
        write_levels: Number of programmable conductance levels per
            device (multi-level-cell operation, as in the paper's
            device reference [14]).  0 or ``None`` means continuous
            analog programming; otherwise targets snap to the nearest
            of ``write_levels`` uniform levels across
            ``[g_off, g_on]``.
    """

    def __init__(
        self,
        w_max: float,
        device: DeviceConfig | None = None,
        write_levels: int | None = None,
    ):
        if w_max <= 0:
            raise ValueError(f"w_max must be positive, got {w_max}")
        if write_levels is not None and write_levels < 2 and write_levels != 0:
            raise ValueError(
                f"write_levels must be >= 2 (or 0/None), got {write_levels}"
            )
        self.w_max = float(w_max)
        self.device = device if device is not None else DeviceConfig()
        self.write_levels = int(write_levels) if write_levels else 0

    @classmethod
    def for_weights(
        cls,
        weights: np.ndarray,
        device: DeviceConfig | None = None,
        headroom: float = 1.0,
    ) -> "WeightScaler":
        """Scaler sized to a concrete weight matrix.

        Args:
            weights: The matrix whose largest magnitude sets ``w_max``.
            device: Device parameters.
            headroom: Multiplier > 1 leaves programming headroom so that
                positive variation draws do not saturate at ``g_on``.
        """
        w_max = float(np.max(np.abs(weights)))
        if w_max == 0:
            w_max = 1.0
        return cls(w_max * headroom, device)

    # ------------------------------------------------------------------
    def magnitude_to_conductance(self, magnitude: np.ndarray) -> np.ndarray:
        """Conductance targets for non-negative weight magnitudes.

        With ``write_levels`` set, targets snap to the device's
        discrete programmable levels.
        """
        mag = np.asarray(magnitude, dtype=float)
        if np.any(mag < 0):
            raise ValueError("magnitudes must be non-negative")
        d = self.device
        frac = np.clip(mag / self.w_max, 0.0, 1.0)
        if self.write_levels:
            step = 1.0 / (self.write_levels - 1)
            frac = np.round(frac / step) * step
        return d.g_off + frac * d.g_range

    def conductance_to_magnitude(self, conductance: np.ndarray) -> np.ndarray:
        """Weight magnitudes represented by conductances."""
        d = self.device
        g = np.asarray(conductance, dtype=float)
        return (g - d.g_off) / d.g_range * self.w_max

    # ------------------------------------------------------------------
    def weights_to_pair(
        self, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Conductance targets for the positive and negative crossbars."""
        pos, neg = split_signed(weights)
        return (
            self.magnitude_to_conductance(pos),
            self.magnitude_to_conductance(neg),
        )

    def pair_to_weights(
        self, g_pos: np.ndarray, g_neg: np.ndarray
    ) -> np.ndarray:
        """Effective signed weights realised by a conductance pair."""
        return self.conductance_to_magnitude(
            np.asarray(g_pos, dtype=float)
        ) - self.conductance_to_magnitude(np.asarray(g_neg, dtype=float))

    def currents_to_outputs(  # repro-lint: batch-invariant
        self, i_pos: np.ndarray, i_neg: np.ndarray, v_read: float
    ) -> np.ndarray:
        """Convert differential currents back to weight-domain outputs.

        Inverts the read chain ``I = v_read * x @ G``: the differential
        current divided by ``v_read * g_range / w_max`` recovers
        ``x @ W`` up to the offset cancelled by the differential pair.
        """
        d = self.device
        scale = v_read * d.g_range / self.w_max
        return (
            np.asarray(i_pos, dtype=float) - np.asarray(i_neg, dtype=float)
        ) / scale
