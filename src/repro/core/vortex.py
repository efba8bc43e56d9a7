"""Vortex: the integrated VAT + AMP training pipeline (Section 4).

The paper's full scheme, stacking its two complementary techniques
(Section 4.3):

1. **Pre-test** the fabricated pair to measure the per-device
   variations and the crossbar's effective sigma.
2. **Self-tune** VAT's gamma on a validation split with variation
   injection (Fig. 5) and train the weights.
3. **AMP**: map the trained weight rows onto physical rows so the
   sensitive weights land on well-behaved devices (Algorithm 1);
   redundancy rows widen the choice.
4. **Integrate**: AMP lowers the variation the computation actually
   sees, so VAT is re-tuned against the smaller *effective* sigma --
   "a smaller penalty of variation will be introduced in VAT, leading
   to potentially higher training rate and test rate".
5. **Program** the physical weights open-loop with deterministic
   IR-drop compensation, and route the inputs through the mapping.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import SensingConfig
from repro.core.amp import AMPResult, RowMapping, run_amp
from repro.core.base import hardware_test_rate
from repro.core.old import OLDConfig, program_pair_open_loop
from repro.core.pretest import pretest_pair
from repro.core.self_tuning import SelfTuningConfig, TuneResult, tune_gamma
from repro.nn.metrics import rate_from_scores
from repro.seeding import ensure_rng
from repro.xbar.pair import DifferentialCrossbar

__all__ = ["VortexConfig", "VortexResult", "run_vortex"]


@dataclasses.dataclass(frozen=True)
class VortexConfig:
    """Pipeline configuration.

    Attributes:
        self_tuning: Gamma-scan settings (Fig. 5 loop).
        sensing: Pre-test ADC resolution and repeats.
        programming: Open-loop programming / IR-compensation settings.
        use_amp: Enable the adaptive-mapping stage.
        amp_method: ``'greedy'`` (Algorithm 1) or ``'optimal'``.
        integrate: Re-tune VAT against the post-AMP effective sigma
            (the Section 4.3 integration).
    """

    self_tuning: SelfTuningConfig = dataclasses.field(
        default_factory=SelfTuningConfig
    )
    sensing: SensingConfig = dataclasses.field(default_factory=SensingConfig)
    programming: OLDConfig = dataclasses.field(default_factory=OLDConfig)
    use_amp: bool = True
    amp_method: str = "greedy"
    integrate: bool = True


@dataclasses.dataclass
class VortexResult:
    """Everything the pipeline produced.

    Attributes:
        weights: Final logical weight matrix ``(n_logical, m)``.
        mapping: Row assignment applied to weights and inputs.
        gamma: Selected penalty scaling (post-integration value).
        sigma_pretest: Sigma estimated from the raw pre-test.
        sigma_effective: Residual sigma after AMP (equals the pre-test
            value when AMP is disabled).
        training_rate: Software rate of the final weights on the
            training samples.
        tune: Full gamma-scan record of the final tuning pass.
        amp: AMP details, or ``None`` when disabled.
    """

    weights: np.ndarray
    mapping: RowMapping
    gamma: float
    sigma_pretest: float
    sigma_effective: float
    training_rate: float
    tune: TuneResult
    amp: AMPResult | None

    def route_inputs(self, x: np.ndarray) -> np.ndarray:
        """Map logical inputs onto the physical word lines."""
        return self.mapping.inputs_to_physical(x)

    def test_rate(
        self,
        pair: DifferentialCrossbar,
        x: np.ndarray,
        labels: np.ndarray,
        ir_mode: str = "ideal",
    ) -> float:
        """Hardware test rate of the programmed pair on a dataset."""
        return hardware_test_rate(
            pair, x, labels, ir_mode, input_map=self.route_inputs
        )


def run_vortex(
    pair: DifferentialCrossbar,
    x_train: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    config: VortexConfig | None = None,
    rng: np.random.Generator | None = None,
) -> VortexResult:
    """Execute the full Vortex flow on a fabricated pair.

    Args:
        pair: Fabricated differential crossbar; may have more rows than
            the feature count (redundancy).  Programmed in place.
        x_train: Training inputs ``(s, n_logical)`` in [0, 1].
        labels: Integer training labels.
        n_classes: Output columns.
        config: Pipeline configuration.
        rng: Randomness (pre-test noise, tuning split, injections).

    Returns:
        A :class:`VortexResult`; the pair is left programmed and ready
        for :meth:`VortexResult.test_rate`.
    """
    cfg = config if config is not None else VortexConfig()
    rng = ensure_rng(rng, "repro.core.vortex.run_vortex")
    x_train = np.asarray(x_train, dtype=float)
    labels = np.asarray(labels)
    n_logical = x_train.shape[1]
    if n_logical > pair.shape[0]:
        raise ValueError(
            f"{n_logical} features exceed {pair.shape[0]} physical rows"
        )

    # 1. Pre-test: measure the fabricated variations.
    pretest = pretest_pair(pair, cfg.sensing, rng=rng)
    sigma_hat = pretest.sigma_estimate

    # 2. First tuning pass against the raw sigma.
    tune = tune_gamma(
        x_train, labels, n_classes, sigma_hat, cfg.self_tuning, rng
    )
    weights = tune.weights
    gamma = tune.best_gamma

    amp_result: AMPResult | None = None
    sigma_eff = sigma_hat
    x_mean = x_train.mean(axis=0)
    if cfg.use_amp:
        # 3. Map the trained rows onto the measured fabric.
        amp_result = run_amp(
            pair, weights, x_mean, cfg.sensing, cfg.amp_method, rng,
            pretest=pretest,
        )
        sigma_eff = amp_result.effective_sigma
        mapping = amp_result.mapping

        if cfg.integrate and sigma_eff < sigma_hat:
            # 4. Integration: re-tune against the reduced sigma, then
            # refresh the mapping for the new weights (pre-test reused;
            # no extra measurements).
            tune = tune_gamma(
                x_train, labels, n_classes, sigma_eff, cfg.self_tuning, rng
            )
            weights = tune.weights
            gamma = tune.best_gamma
            amp_result = run_amp(
                pair, weights, x_mean, method=cfg.amp_method,
                pretest=pretest,
            )
            sigma_eff = amp_result.effective_sigma
            mapping = amp_result.mapping
    else:
        mapping = RowMapping(
            assignment=np.arange(n_logical), n_physical=pair.shape[0]
        )

    # 5. Program the physical weights open-loop (IR-compensated).
    w_physical = mapping.weights_to_physical(weights)
    x_ref_physical = mapping.inputs_to_physical(x_mean)
    program_pair_open_loop(
        pair, w_physical, cfg.programming, x_reference=x_ref_physical
    )

    training_rate = rate_from_scores(x_train @ weights, labels)
    return VortexResult(
        weights=weights,
        mapping=mapping,
        gamma=gamma,
        sigma_pretest=sigma_hat,
        sigma_effective=sigma_eff,
        training_rate=training_rate,
        tune=tune,
        amp=amp_result,
    )
