"""The paper's contribution: VAT, AMP, self-tuning, OLD/CLD baselines,
and the integrated Vortex pipeline."""

from repro.core.amp import (
    AMPResult,
    RowMapping,
    effective_sigma,
    program_amp,
    row_read_factors,
    run_amp,
)
from repro.core.base import (
    HardwareSpec,
    TrainingOutcome,
    build_pair,
    hardware_test_rate,
)
from repro.core.cld import CLDConfig, train_cld
from repro.core.greedy import greedy_mapping, optimal_mapping
from repro.core.old import (
    OLDConfig,
    program_pair_open_loop,
    program_pair_physical,
    train_old,
)
from repro.core.pretest import (
    PretestResult,
    pretest_array,
    pretest_pair,
    robust_sigma,
)
from repro.core.self_tuning import (
    GammaScanPoint,
    SelfTuningConfig,
    TuneResult,
    injected_rate,
    tune_gamma,
)
from repro.core.sensitivity import cell_sensitivity, mapping_order, row_sensitivity
from repro.core.swv import position_cost, swv_pair, swv_single
from repro.core.vat import VATConfig, train_vat, train_vat_stacked
from repro.core.vortex import VortexConfig, VortexResult, run_vortex
from repro.core.write_verify import (
    WriteVerifyConfig,
    WriteVerifyStats,
    program_pair_write_verify,
)

__all__ = [
    "AMPResult",
    "CLDConfig",
    "GammaScanPoint",
    "HardwareSpec",
    "OLDConfig",
    "PretestResult",
    "RowMapping",
    "SelfTuningConfig",
    "TrainingOutcome",
    "TuneResult",
    "VATConfig",
    "VortexConfig",
    "VortexResult",
    "WriteVerifyConfig",
    "WriteVerifyStats",
    "build_pair",
    "cell_sensitivity",
    "effective_sigma",
    "greedy_mapping",
    "hardware_test_rate",
    "injected_rate",
    "mapping_order",
    "optimal_mapping",
    "position_cost",
    "pretest_array",
    "pretest_pair",
    "program_amp",
    "program_pair_open_loop",
    "program_pair_physical",
    "program_pair_write_verify",
    "robust_sigma",
    "row_read_factors",
    "row_sensitivity",
    "run_amp",
    "run_vortex",
    "swv_pair",
    "swv_single",
    "train_cld",
    "train_old",
    "train_vat",
    "train_vat_stacked",
    "tune_gamma",
]
