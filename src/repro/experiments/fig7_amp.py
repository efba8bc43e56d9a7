"""Fig. 7: effectiveness of AMP across the gamma sweep.

Repeats the Fig. 4 sweep on *hardware*: for every gamma, the trained
weights are programmed onto fabricated crossbar pairs twice -- once
with the identity row mapping ("before AMP") and once with the greedy
sensitivity-ordered mapping of Algorithm 1 ("after AMP").  AMP lifts
the whole test-rate curve and moves its peak to a smaller gamma,
because the effective variation the computation sees is reduced
(the paper reports the optimum moving from 0.4 to 0.2).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterator, Sequence

import numpy as np

from repro.analysis.montecarlo import run_monte_carlo
from repro.core.amp import program_amp
from repro.core.base import (
    HardwareSpec,
    Slot,
    batched_slot_rates,
    build_pair,
    slot_rates,
)
from repro.core.old import OLDConfig, program_pair_open_loop
from repro.core.pretest import pretest_pair
from repro.core.vat import VATConfig
from repro.config import CrossbarConfig, VariationConfig
from repro.data.datasets import N_CLASSES
from repro.experiments.common import (
    ExperimentScale,
    get_dataset,
    train_vat_once,
)
from repro.xbar.mapping import WeightScaler

__all__ = ["AMPStudyResult", "run_fig7"]


@dataclasses.dataclass(frozen=True)
class AMPStudyResult:
    """Per-gamma hardware rates before and after AMP.

    Attributes:
        gammas: Swept penalty scalings.
        training_rate: Software training rate per gamma.
        test_before_amp: Mean hardware test rate, identity mapping.
        test_after_amp: Mean hardware test rate, greedy AMP mapping.
        best_gamma_before: Peak location of the before-AMP curve.
        best_gamma_after: Peak location of the after-AMP curve.
        sigma: Fabrication variation level.
    """

    gammas: np.ndarray
    training_rate: np.ndarray
    test_before_amp: np.ndarray
    test_after_amp: np.ndarray
    best_gamma_before: float
    best_gamma_after: float
    sigma: float

    def rows(self) -> list[tuple[float, float, float, float]]:
        """(gamma, training, before-AMP, after-AMP) rows."""
        return [
            (float(g), float(tr), float(b), float(a))
            for g, tr, b, a in zip(
                self.gammas, self.training_rate,
                self.test_before_amp, self.test_after_amp,
            )
        ]


def _fig7_programmed(
    rng: np.random.Generator,
    spec: HardwareSpec,
    scaler: WeightScaler,
    weights_per_gamma: list[np.ndarray],
    x_mean: np.ndarray,
) -> Iterator[Slot]:
    """One fabrication draw, programmed twice per gamma.

    Yields the pair after each programming step: per gamma, once with
    the identity placement ("before AMP") and once with the greedy
    mapping of Algorithm 1 on the measured fabric ("after AMP").  Every
    draw comes from ``rng``, so the fabric is worker-count independent.
    """
    pair = build_pair(spec, scaler, rng)
    pretest = pretest_pair(pair, spec.sensing, rng=rng)
    for weights in weights_per_gamma:
        program_pair_open_loop(pair, weights, OLDConfig())
        yield pair, None
        yield pair, program_amp(pair, weights, x_mean, pretest, OLDConfig())


def _fig7_trial(
    rng: np.random.Generator,
    spec: HardwareSpec,
    scaler: WeightScaler,
    weights_per_gamma: list[np.ndarray],
    x_test: np.ndarray,
    y_test: np.ndarray,
    x_mean: np.ndarray,
) -> np.ndarray:
    """One fabrication draw: (before-AMP, after-AMP) rates per gamma.

    Module-level so the engine can dispatch fabrication trials to
    worker processes.
    """
    rates = slot_rates(
        _fig7_programmed(rng, spec, scaler, weights_per_gamma, x_mean),
        x_test, y_test, spec.ir_mode,
    )
    return rates.reshape(-1, 2).T


def _fig7_trial_batch(
    rngs: Sequence[np.random.Generator],
    spec: HardwareSpec,
    scaler: WeightScaler,
    weights_per_gamma: list[np.ndarray],
    x_test: np.ndarray,
    y_test: np.ndarray,
    x_mean: np.ndarray,
) -> np.ndarray:
    """Trial-batched kernel for :func:`_fig7_trial`.

    The same programmed states, read as one stacked hardware pass per
    (gamma, mapping kind) slot by :func:`batched_slot_rates`, which is
    where the wall-clock of this experiment lives.
    """
    rates = batched_slot_rates(
        [
            _fig7_programmed(rng, spec, scaler, weights_per_gamma, x_mean)
            for rng in rngs
        ],
        x_test, y_test, spec, scaler,
    )
    return rates.reshape(len(rngs), -1, 2).transpose(0, 2, 1)


def run_fig7(
    scale: ExperimentScale | None = None,
    sigma: float = 0.6,
    image_size: int = 14,
    adc_bits: int = 6,
) -> AMPStudyResult:
    """Run the Fig. 7 AMP-effectiveness study.

    Args:
        scale: Sample counts, epochs, gamma grid, fabrication trials.
        sigma: Fabrication variation.
        image_size: Benchmark resolution.
        adc_bits: Pre-test and read ADC resolution.

    Returns:
        An :class:`AMPStudyResult`.
    """
    scale = scale if scale is not None else ExperimentScale()
    ds = get_dataset(scale, image_size)
    n = ds.n_features
    spec = HardwareSpec(
        variation=VariationConfig(sigma=sigma),
        crossbar=CrossbarConfig(rows=n, cols=N_CLASSES, r_wire=0.0),
    )
    spec = dataclasses.replace(
        spec, sensing=dataclasses.replace(spec.sensing, adc_bits=adc_bits)
    )
    scaler = WeightScaler(1.0)
    x_mean = ds.x_train.mean(axis=0)

    # Train once per gamma (shared across fabrication trials, and with
    # the Fig. 4 sweep of the same grid).
    outcomes = train_vat_once(
        scale, image_size,
        [VATConfig(gamma=float(gamma), sigma=sigma, gdt=scale.gdt())
         for gamma in scale.gammas],
    )

    trial_args = dict(
        spec=spec, scaler=scaler,
        weights_per_gamma=[o.weights for o in outcomes],
        x_test=ds.x_test, y_test=ds.y_test, x_mean=x_mean,
    )
    summary = run_monte_carlo(
        functools.partial(_fig7_trial, **trial_args),
        trials=scale.mc_trials,
        seed=scale.seed + 70,
        label="fig7",
        batch_trial=functools.partial(_fig7_trial_batch, **trial_args),
    )
    before = summary.mean[0]
    after = summary.mean[1]

    gammas = np.asarray(scale.gammas, dtype=float)
    return AMPStudyResult(
        gammas=gammas,
        training_rate=np.asarray([o.training_rate for o in outcomes]),
        test_before_amp=before,
        test_after_amp=after,
        best_gamma_before=float(gammas[int(np.argmax(before))]),
        best_gamma_after=float(gammas[int(np.argmax(after))]),
        sigma=sigma,
    )
