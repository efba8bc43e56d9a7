"""Vortex: variation-aware training for memristor crossbars.

A full reproduction of Liu et al., "Vortex: Variation-aware Training
for Memristor X-bar" (DAC 2015): the memristor device and crossbar
circuit substrates, the OLD and CLD baseline training schemes, the VAT
robust training objective, the AMP adaptive row mapping, and the
integrated Vortex pipeline, together with drivers regenerating every
table and figure of the paper's evaluation.

Quick start::

    import numpy as np
    from repro import (
        HardwareSpec, WeightScaler, build_pair, make_dataset,
        run_vortex,
    )

    ds = make_dataset(n_train=1000, n_test=500, seed=1)
    spec = HardwareSpec()
    scaler = WeightScaler(1.0)
    pair = build_pair(spec, scaler, np.random.default_rng(0),
                      rows=ds.n_features)
    result = run_vortex(pair, ds.x_train, ds.y_train, n_classes=10,
                        rng=np.random.default_rng(1))
    print("test rate:", result.test_rate(pair, ds.x_test, ds.y_test))
"""

from repro.config import (
    CrossbarConfig,
    DeviceConfig,
    SensingConfig,
    VariationConfig,
)
from repro.core import (
    AMPResult,
    CLDConfig,
    HardwareSpec,
    OLDConfig,
    RowMapping,
    SelfTuningConfig,
    TrainingOutcome,
    VATConfig,
    VortexConfig,
    VortexResult,
    build_pair,
    hardware_test_rate,
    program_pair_open_loop,
    program_pair_physical,
    run_amp,
    run_vortex,
    train_cld,
    train_old,
    train_vat,
    tune_gamma,
)
from repro.data import Dataset, make_dataset
from repro.nn import one_vs_all_targets, train_gdt
from repro.runtime import RunLog, RuntimeConfig, use_run_log, use_runtime
from repro.xbar import Crossbar, DifferentialCrossbar, WeightScaler

__version__ = "1.0.0"

__all__ = [
    "AMPResult",
    "CLDConfig",
    "Crossbar",
    "CrossbarConfig",
    "Dataset",
    "DeviceConfig",
    "DifferentialCrossbar",
    "HardwareSpec",
    "OLDConfig",
    "RowMapping",
    "RunLog",
    "RuntimeConfig",
    "SelfTuningConfig",
    "SensingConfig",
    "TrainingOutcome",
    "VATConfig",
    "VariationConfig",
    "VortexConfig",
    "VortexResult",
    "WeightScaler",
    "build_pair",
    "hardware_test_rate",
    "make_dataset",
    "one_vs_all_targets",
    "program_pair_open_loop",
    "program_pair_physical",
    "run_amp",
    "run_vortex",
    "train_cld",
    "train_gdt",
    "train_old",
    "train_vat",
    "tune_gamma",
    "use_run_log",
    "use_runtime",
]
