"""Gamma self-tuning by validation under injected variation (Fig. 5).

Fig. 4 shows the test rate under variation peaks at an interior
``gamma``; Section 4.1.3 selects it automatically: split the training
samples into a large training group and a small validation group,
train at each candidate ``gamma``, *inject* modelled device variations
into the trained weights, and keep the ``gamma`` whose validation rate
under injection is highest.  The procedure mirrors regularisation
selection in classical ML, with the injection playing the role of the
deployment distribution.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.base import TrainingOutcome
from repro.core.vat import VATConfig, train_vat, train_vat_stacked
from repro.devices.variation import sample_standard_thetas
from repro.nn.gdt import GDTConfig
from repro.nn.metrics import rate_from_scores
from repro.nn.split import stratified_split
from repro.seeding import ensure_rng

__all__ = ["SelfTuningConfig", "GammaScanPoint", "TuneResult", "tune_gamma",
           "injected_rate", "injected_rate_looped"]

DEFAULT_GAMMAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0)


@dataclasses.dataclass(frozen=True)
class SelfTuningConfig:
    """Self-tuning loop parameters.

    Attributes:
        gammas: Candidate penalty scalings to scan.
        val_fraction: Share of the training samples held out for
            validation (the paper's "small group").
        n_injections: Independent variation injections averaged per
            candidate (Monte-Carlo estimate of the deployed rate).
        confidence: Confidence level for the rho bound.
        bound: Penalty bound family passed to VAT ('gaussian'/'chi2').
        distribution: Shape of the theta draws injected during
            validation; matches the device model assumed for
            deployment ('lognormal' is the paper's).
        gdt: Subgradient-trainer settings shared by all candidates.
        warm_start: Reuse the previous candidate's weights as the next
            initial point (large speed-up on fine gamma grids); when
            off, the candidates train as one stacked descent.
    """

    gammas: Sequence[float] = DEFAULT_GAMMAS
    val_fraction: float = 0.2
    n_injections: int = 8
    confidence: float = 0.95
    bound: str = "gaussian"
    distribution: str = "lognormal"
    gdt: GDTConfig = dataclasses.field(default_factory=GDTConfig)
    warm_start: bool = True


@dataclasses.dataclass
class GammaScanPoint:
    """Rates observed for one candidate gamma.

    Attributes:
        gamma: The candidate value.
        training_rate: Rate on the (large) training group, no
            variation.
        validation_rate_clean: Rate on the validation group, no
            variation injected.
        validation_rate_injected: Mean rate on the validation group
            over the variation injections -- the selection criterion.
    """

    gamma: float
    training_rate: float
    validation_rate_clean: float
    validation_rate_injected: float


@dataclasses.dataclass
class TuneResult:
    """Outcome of the gamma scan.

    Attributes:
        best_gamma: The selected penalty scaling.
        scan: Per-candidate rates, in scan order.
        weights: Weights retrained at ``best_gamma`` on *all* training
            samples (the paper's "final training process").
    """

    best_gamma: float
    scan: list[GammaScanPoint]
    weights: np.ndarray


def injected_rate(
    weights: np.ndarray,
    x: np.ndarray,
    labels: np.ndarray,
    sigma: float,
    n_injections: int,
    rng: np.random.Generator | None = None,
    thetas: np.ndarray | None = None,
) -> float:
    """Mean classification rate under per-cell lognormal injection.

    Models deployment on a varying crossbar: each injection multiplies
    every weight by an independent ``exp(theta)`` draw, exactly the
    paper's validation step ("we first model the memristor variations
    and inject them into the weight matrix W").

    All injections are evaluated in one batched forward pass: the
    ``(n_injections, n, m)`` injected-weight stack goes through a
    single fixed-accumulation einsum instead of a Python loop of full
    matmuls.  The einsum reduces each injection slice in the same
    order a per-injection einsum would, so the batched evaluation is
    bit-identical to :func:`injected_rate_looped` (the loop-of-slices
    reference retained for the property tests).

    Args:
        thetas: Optional pre-drawn injection angles of shape
            ``(n_injections,) + weights.shape`` (standard normal; they
            are scaled by ``sigma`` here).  Supplying the same draws
            for every candidate turns the gamma scan into a paired
            comparison, removing most of the Monte-Carlo noise from
            the selection.
    """
    thetas = _validated_thetas(weights, n_injections, rng, thetas)
    x = np.asarray(x, dtype=float)
    if sigma > 0:
        w_all = weights * np.exp(sigma * thetas)
    else:
        w_all = np.broadcast_to(
            weights, (n_injections,) + weights.shape
        )
    scores = np.einsum("sn,knm->ksm", x, w_all)
    total = 0.0
    for k in range(n_injections):
        total += rate_from_scores(scores[k], labels)
    return total / n_injections


def injected_rate_looped(
    weights: np.ndarray,
    x: np.ndarray,
    labels: np.ndarray,
    sigma: float,
    n_injections: int,
    rng: np.random.Generator | None = None,
    thetas: np.ndarray | None = None,
) -> float:
    """Reference per-injection loop for :func:`injected_rate`.

    Evaluates one injection at a time with the same fixed-accumulation
    einsum the batched path uses per slice.  Kept as the oracle for
    the bit-identity property tests; production code should call
    :func:`injected_rate`.
    """
    thetas = _validated_thetas(weights, n_injections, rng, thetas)
    x = np.asarray(x, dtype=float)
    total = 0.0
    for k in range(n_injections):
        if sigma > 0:
            w_injected = weights * np.exp(sigma * thetas[k])
        else:
            w_injected = weights
        scores = np.einsum("sn,nm->sm", x, w_injected)
        total += rate_from_scores(scores, labels)
    return total / n_injections


def _validated_thetas(
    weights: np.ndarray,
    n_injections: int,
    rng: np.random.Generator | None,
    thetas: np.ndarray | None,
) -> np.ndarray:
    if n_injections < 1:
        raise ValueError(f"n_injections must be >= 1, got {n_injections}")
    if thetas is None:
        if rng is None:
            raise ValueError("need an rng when thetas are not supplied")
        return rng.standard_normal((n_injections,) + weights.shape)
    if thetas.shape != (n_injections,) + weights.shape:
        raise ValueError(
            f"thetas shape {thetas.shape} != "
            f"{(n_injections,) + weights.shape}"
        )
    return thetas


def _scan_point(
    outcome: TrainingOutcome,
    x_val: np.ndarray,
    y_val: np.ndarray,
    sigma: float,
    cfg: SelfTuningConfig,
    thetas: np.ndarray,
) -> GammaScanPoint:
    """Validate one trained candidate, clean and under injection.

    The shared ``thetas`` make the validation a paired comparison.
    """
    clean = rate_from_scores(x_val @ outcome.weights, y_val)
    injected = injected_rate(
        outcome.weights, x_val, y_val, sigma, cfg.n_injections,
        rng=None, thetas=thetas,
    )
    return GammaScanPoint(
        gamma=outcome.diagnostics["gamma"],
        training_rate=outcome.training_rate,
        validation_rate_clean=clean,
        validation_rate_injected=injected,
    )


def tune_gamma(
    x: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    sigma: float,
    config: SelfTuningConfig | None = None,
    rng: np.random.Generator | None = None,
) -> TuneResult:
    """Run the Fig. 5 self-tuning loop and return the tuned weights.

    Args:
        x: All training inputs ``(s, n)``.
        labels: Integer labels ``(s,)``.
        n_classes: Output columns.
        sigma: Device-variation model parameter used both inside the
            VAT penalty and for the validation injections; in the
            integrated Vortex flow this is the post-AMP effective
            sigma (Section 4.3).
        config: Loop parameters.
        rng: Randomness for the split and the injections.

    Returns:
        A :class:`TuneResult`; ``weights`` come from the final
        all-samples retraining at the selected gamma.
    """
    cfg = config if config is not None else SelfTuningConfig()
    if len(cfg.gammas) == 0:
        raise ValueError("need at least one candidate gamma")
    rng = ensure_rng(rng, "repro.core.self_tuning.tune_gamma")
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)

    split = stratified_split(labels, cfg.val_fraction, rng)
    x_tr, y_tr, x_val, y_val = split.apply(x, labels)

    # Common random numbers: one set of injection draws shared by all
    # candidates makes the scan a paired comparison.
    n_weights_shape = (x.shape[1], n_classes)
    thetas = sample_standard_thetas(
        rng, cfg.distribution, (cfg.n_injections,) + n_weights_shape
    )

    configs = [
        VATConfig(
            gamma=float(gamma), sigma=sigma, confidence=cfg.confidence,
            bound=cfg.bound, gdt=cfg.gdt,
        )
        for gamma in cfg.gammas
    ]
    w_prev: np.ndarray | None = None
    if cfg.warm_start:
        # Each candidate starts from the previous solution: an
        # inherently sequential chain.
        outcomes = []
        for vat_cfg in configs:
            outcomes.append(
                train_vat(x_tr, y_tr, n_classes, vat_cfg, w_init=w_prev)
            )
            w_prev = outcomes[-1].weights
    else:
        # Independent cold-start candidates: one stacked descent, each
        # slice bit-identical to its own cold-start training.
        outcomes = train_vat_stacked(x_tr, y_tr, n_classes, configs)
    scan = [
        _scan_point(outcome, x_val, y_val, sigma, cfg, thetas)
        for outcome in outcomes
    ]

    best_gamma = float(cfg.gammas[0])
    best_injected = -np.inf
    for point in scan:
        if point.validation_rate_injected > best_injected:
            best_injected = point.validation_rate_injected
            best_gamma = point.gamma

    final_cfg = dataclasses.replace(configs[0], gamma=best_gamma)
    final = train_vat(x, labels, n_classes, final_cfg, w_init=w_prev)
    return TuneResult(best_gamma=best_gamma, scan=scan, weights=final.weights)
