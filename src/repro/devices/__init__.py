"""Memristor device physics substrate.

Switching dynamics, lognormal variation models, stuck-at defects, and
the fabricated :class:`MemristorArray` used by the crossbar layer.
"""

from repro.devices.defects import (
    HEALTHY,
    STUCK_AT_HRS,
    STUCK_AT_LRS,
    apply_defects_to_conductance,
    count_defects,
)
from repro.devices.memristor import MemristorArray
from repro.devices.retention import (
    RetentionConfig,
    age_array,
    age_pair,
    drift_factor,
    equivalent_sigma_at,
    sample_drift_exponents,
)
from repro.devices.switching import SwitchingModel, switching_rate
from repro.devices.variation import (
    THETA_DISTRIBUTIONS,
    VariationModel,
    lognormal_multipliers,
    sample_standard_thetas,
)

__all__ = [
    "HEALTHY",
    "STUCK_AT_HRS",
    "STUCK_AT_LRS",
    "THETA_DISTRIBUTIONS",
    "MemristorArray",
    "RetentionConfig",
    "SwitchingModel",
    "VariationModel",
    "age_array",
    "age_pair",
    "apply_defects_to_conductance",
    "count_defects",
    "drift_factor",
    "equivalent_sigma_at",
    "lognormal_multipliers",
    "sample_drift_exponents",
    "sample_standard_thetas",
    "switching_rate",
]
