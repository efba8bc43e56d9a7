"""Stuck-at defect modelling for memristor crossbars.

Section 4.2.2 of the paper notes that fabrication defects leave cells
stuck at HRS or LRS, and that AMP detects them as devices with extreme
variation and routes high-impact weight rows away from them.  This
module provides the defect map representation and overwrites defective
cells with their stuck conductances, so that the rest of the pipeline
(pre-testing, SWV, greedy mapping) sees a stuck cell as a device with
extreme variation and needs no special cases.
"""

from __future__ import annotations

import numpy as np

from repro.config import DeviceConfig

__all__ = [
    "STUCK_AT_LRS",
    "STUCK_AT_HRS",
    "HEALTHY",
    "apply_defects_to_conductance",
    "count_defects",
]

HEALTHY = 0
STUCK_AT_LRS = 1
STUCK_AT_HRS = -1


def apply_defects_to_conductance(
    conductance: np.ndarray,
    defects: np.ndarray,
    device: DeviceConfig | None = None,
) -> np.ndarray:
    """Overwrite defective cells with their stuck conductances."""
    device = device if device is not None else DeviceConfig()
    g = np.array(conductance, dtype=float, copy=True)
    if g.shape != defects.shape:
        raise ValueError(
            f"defect map shape {defects.shape} does not match conductance "
            f"shape {g.shape}"
        )
    g[defects == STUCK_AT_LRS] = device.g_on
    g[defects == STUCK_AT_HRS] = device.g_off
    return g


def count_defects(defects: np.ndarray) -> dict[str, int]:
    """Summary counts of a defect map."""
    return {
        "healthy": int(np.sum(defects == HEALTHY)),
        "stuck_at_lrs": int(np.sum(defects == STUCK_AT_LRS)),
        "stuck_at_hrs": int(np.sum(defects == STUCK_AT_HRS)),
    }
