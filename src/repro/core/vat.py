"""VAT: variation-aware training (Section 4.1, Eqs. 3-10).

The paper's core algorithmic contribution.  VAT rewrites the hinge
training constraint of Eq. 3 to budget for the lognormal weight
variation the crossbar will inject:

1. Linearise ``exp(theta) ~ alpha_0 + alpha_1 * theta`` (Eq. 5;
   ``alpha_0 = alpha_1 = 1`` to first order around ``theta = 0``).
2. Upper-bound the variation penalty by Cauchy-Schwarz (Eq. 7):
   ``sum_q x_q w_q theta_q <= ||theta||_2 * ||x (.) w||_2``.
3. Bound ``||theta||_2 <= rho`` at a chi-square confidence level
   (Section 4.1.1 text before Eq. 8).
4. Scale the penalty by ``gamma`` in [0, 1] to trade training rate for
   variation tolerance (Eq. 10, Fig. 4).

The resulting robust hinge problem is solved in software by the
subgradient trainer of :mod:`repro.nn.gdt`.  :func:`train_vat_stacked`
trains several problems on one dataset -- a gamma or sigma scan -- as
one stacked descent, each bit-identical to its :func:`train_vat`.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np
from scipy.stats import norm

from repro.analysis.chi2 import rho_bound
from repro.core.base import TrainingOutcome
from repro.nn.gdt import GDTConfig, train_gdt_stacked
from repro.nn.linear import one_vs_all_targets
from repro.nn.metrics import rate_from_scores

__all__ = ["VATConfig", "train_vat", "train_vat_stacked"]


@dataclasses.dataclass(frozen=True)
class VATConfig:
    """VAT hyper-parameters.

    Attributes:
        gamma: Penalty scaling ``gamma`` of Eq. 10; 0 recovers the
            conventional GDT objective.
        sigma: Device-variation standard deviation assumed by the
            penalty; in the integrated flow this is the (post-AMP)
            estimate from pre-testing (Section 4.3).
        confidence: Confidence level for the ``rho`` bound.
        gdt: Underlying subgradient-trainer hyper-parameters.
        alpha1: Linearisation slope ``alpha_1`` of Eq. 5.
        bound: Which confidence bound sizes the penalty:

            * ``'gaussian'`` (default) -- the output deviation
              ``sum_q x_q w_q theta_q`` is itself Gaussian with
              standard deviation ``sigma * ||x (.) w||_2``, so the
              tight one-sided bound is ``z_c * sigma``.  This
              calibration places the Fig. 4 test-rate peak in the
              paper's 0.2-0.4 gamma range.
            * ``'chi2'`` -- the paper's Section 4.1.1 derivation:
              Cauchy-Schwarz plus a chi-square bound on
              ``||theta||_2``, giving ``rho = sigma * sqrt(chi2_c(n))``.
              Far more conservative (it budgets for a worst-case theta
              *direction*), which compresses the useful gamma range
              toward 0; the two differ only by a rescaling of gamma.
    """

    gamma: float = 0.2
    sigma: float = 0.6
    confidence: float = 0.95
    gdt: GDTConfig = dataclasses.field(default_factory=GDTConfig)
    alpha1: float = 1.0
    bound: str = "gaussian"

    def penalty_scale(self, n_rows: int) -> float:
        """The combined coefficient ``gamma * alpha_1 * rho`` of Eq. 10.

        Because both the margin and the penalty scale linearly with the
        weights, the quantity that decides feasibility is the
        scale-invariant coherence ``||x (.) w||_2 / (x . w)``.
        """
        if not 0.0 <= self.gamma:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.bound == "chi2":
            rho = rho_bound(self.sigma, n_rows, self.confidence)
        elif self.bound == "gaussian":
            rho = float(norm.ppf(self.confidence)) * self.sigma
        else:
            raise ValueError(
                f"bound must be 'gaussian' or 'chi2', got {self.bound!r}"
            )
        return self.gamma * self.alpha1 * rho


def train_vat(
    x: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    config: VATConfig | None = None,
    w_init: np.ndarray | None = None,
) -> TrainingOutcome:
    """Train a one-vs-all classifier with the VAT robust objective.

    Args:
        x: Training inputs ``(s, n)`` in [0, 1].
        labels: Integer training labels ``(s,)``.
        n_classes: Number of output columns.
        config: VAT hyper-parameters (``gamma = 0`` degenerates to
            conventional GDT, the software stage of OLD).
        w_init: Optional warm start.

    Returns:
        A :class:`~repro.core.base.TrainingOutcome`; diagnostics hold
        the penalty scale and loss history.
    """
    cfg = config if config is not None else VATConfig()
    return train_vat_stacked(x, labels, n_classes, (cfg,), (w_init,))[0]


def train_vat_stacked(
    x: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    configs: Sequence[VATConfig],
    w_inits: Sequence[np.ndarray | None] | None = None,
) -> list[TrainingOutcome]:
    """Train one classifier per config as one stacked descent.

    Outcome ``g`` is bit-identical to ``train_vat(x, labels, n_classes,
    configs[g], w_inits[g])``.  The configs may differ in everything
    that sets the penalty (gamma, sigma, confidence, bound, alpha1) but
    must share one trainer setting ``gdt``.

    Args:
        x: Training inputs ``(s, n)`` in [0, 1].
        labels: Integer training labels ``(s,)``.
        n_classes: Number of output columns.
        configs: One VAT problem per slice.
        w_inits: Optional warm start per slice.

    Returns:
        One :class:`~repro.core.base.TrainingOutcome` per config.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if len({cfg.gdt for cfg in configs}) > 1:
        raise ValueError("stacked VAT configs must share one gdt config")
    y = one_vs_all_targets(labels, n_classes)
    scales = [cfg.penalty_scale(x.shape[1]) for cfg in configs]
    results = train_gdt_stacked(
        x, y, scales, configs[0].gdt if configs else None, w_inits
    )
    return [
        TrainingOutcome(
            weights=result.weights,
            training_rate=rate_from_scores(x @ result.weights, labels),
            diagnostics={
                "gamma": cfg.gamma,
                "penalty_scale": scale,
                "loss_history": result.loss_history,
                "converged": result.converged,
            },
        )
        for cfg, scale, result in zip(configs, scales, results)
    ]
