"""Neural-network substrate: linear one-vs-all model, GDT, metrics."""

from repro.nn.bsb import (
    BSBConfig,
    BSBResult,
    bsb_recall,
    noisy_probe,
    recall_success_rate,
    train_bsb_weights,
)
from repro.nn.gdt import GDTConfig, GDTResult, train_gdt, train_gdt_stacked
from repro.nn.mlp import MLPConfig, MLPOnCrossbars, MLPWeights, train_mlp
from repro.nn.linear import add_bias_feature, one_vs_all_targets
from repro.nn.metrics import rate_from_scores
from repro.nn.objectives import (
    hinge_gradient,
    hinge_loss,
    robust_hinge_gradient,
    robust_hinge_loss,
    variation_penalty,
)
from repro.nn.split import Split, stratified_split

__all__ = [
    "BSBConfig",
    "BSBResult",
    "GDTConfig",
    "GDTResult",
    "MLPConfig",
    "MLPOnCrossbars",
    "MLPWeights",
    "Split",
    "add_bias_feature",
    "bsb_recall",
    "hinge_gradient",
    "hinge_loss",
    "noisy_probe",
    "one_vs_all_targets",
    "rate_from_scores",
    "recall_success_rate",
    "robust_hinge_gradient",
    "robust_hinge_loss",
    "stratified_split",
    "train_bsb_weights",
    "train_gdt",
    "train_gdt_stacked",
    "train_mlp",
    "variation_penalty",
]
