"""Fig. 4: VAT's trade-off between variation tolerance and training rate.

Sweeping the penalty scaling ``gamma`` from 0 to 1 (Eq. 10) at a fixed
device variation: the training rate falls as the constraint tightens;
the clean test rate (no variation) falls with it; but the test rate
*under* variation first rises to an interior peak -- the whole point of
VAT -- before the over-tight constraint erodes it again.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.core.base import TrainingOutcome
from repro.core.self_tuning import injected_rate
from repro.core.vat import VATConfig, train_vat
from repro.data.datasets import N_CLASSES
from repro.experiments.common import (
    ExperimentScale,
    get_dataset,
    memoised_vat,
    train_vat_once,
)
from repro.nn.metrics import rate_from_scores
from repro.runtime.executor import parallel_map

__all__ = ["VATTradeoffResult", "run_fig4"]


def _gamma_point(
    problem: tuple[VATConfig, TrainingOutcome | None],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    n_injections: int,
    thetas: np.ndarray,
) -> tuple[np.ndarray, TrainingOutcome]:
    """One sweep point: (training, clean test, injected test) rates.

    Pure given its inputs (the injection draws are pre-drawn and
    shared), so the engine can run the gamma grid on worker processes
    with results bit-identical to the serial sweep.  ``problem`` is the
    config and its memoised outcome, if the parent already holds one;
    only a config without one is trained.  The training outcome comes
    back too, for the parent's training memo.
    """
    cfg, outcome = problem
    if outcome is None:
        outcome = train_vat(x_train, y_train, N_CLASSES, cfg)
    clean = rate_from_scores(x_test @ outcome.weights, y_test)
    injected = injected_rate(
        outcome.weights, x_test, y_test, cfg.sigma, n_injections,
        thetas=thetas,
    )
    return np.array([outcome.training_rate, clean, injected]), outcome


@dataclasses.dataclass(frozen=True)
class VATTradeoffResult:
    """Per-gamma rates of the Fig. 4 sweep.

    Attributes:
        gammas: Swept penalty scalings.
        training_rate: Rate on the training samples (clean weights).
        test_rate_clean: "Test rate (w/o variation)" of the paper.
        test_rate_injected: "Test rate (w/ variation)": mean over
            Monte-Carlo lognormal injections.
        sigma: Variation level of the injections and the penalty.
        best_gamma: Arg-max of the injected test rate.
    """

    gammas: np.ndarray
    training_rate: np.ndarray
    test_rate_clean: np.ndarray
    test_rate_injected: np.ndarray
    sigma: float
    best_gamma: float

    def rows(self) -> list[tuple[float, float, float, float]]:
        """(gamma, training, clean test, injected test) rows."""
        return [
            (float(g), float(tr), float(tc), float(ti))
            for g, tr, tc, ti in zip(
                self.gammas,
                self.training_rate,
                self.test_rate_clean,
                self.test_rate_injected,
            )
        ]


def run_fig4(
    scale: ExperimentScale | None = None,
    sigma: float = 0.6,
    image_size: int = 14,
) -> VATTradeoffResult:
    """Run the Fig. 4 gamma sweep.

    Args:
        scale: Sample counts, epochs, gamma grid, injection count.
        sigma: Device-variation level (pre-AMP, so the raw fabrication
            sigma).
        image_size: Benchmark resolution (14x14 keeps the sweep fast;
            pass 28 for the paper's full crossbar).

    Returns:
        A :class:`VATTradeoffResult`.
    """
    scale = scale if scale is not None else ExperimentScale()
    ds = get_dataset(scale, image_size)

    # Common injection draws across gammas (paired comparison).
    shape = (scale.n_injections, ds.n_features, N_CLASSES)
    thetas = np.random.default_rng(scale.seed + 41).standard_normal(shape)

    configs = [
        VATConfig(gamma=float(g), sigma=sigma, gdt=scale.gdt())
        for g in scale.gammas
    ]
    # A config Fig. 7 or Fig. 8 already trained is not trained again.
    problems = [
        (cfg, memoised_vat(scale, image_size, cfg)) for cfg in configs
    ]
    points = parallel_map(
        functools.partial(
            _gamma_point,
            x_train=ds.x_train, y_train=ds.y_train,
            x_test=ds.x_test, y_test=ds.y_test,
            n_injections=scale.n_injections, thetas=thetas,
        ),
        problems,
        label="fig4",
    )
    # Fig. 7 and Fig. 8 train some of these problems again; hand them
    # the outcomes, wherever they were trained.
    for cfg, (_, outcome) in zip(configs, points):
        train_vat_once(scale, image_size, cfg, outcome)
    rates = np.asarray([point for point, _ in points])
    gammas = np.asarray(scale.gammas, dtype=float)
    injected_arr = rates[:, 2]
    return VATTradeoffResult(
        gammas=gammas,
        training_rate=rates[:, 0],
        test_rate_clean=rates[:, 1],
        test_rate_injected=injected_arr,
        sigma=sigma,
        best_gamma=float(gammas[int(np.argmax(injected_arr))]),
    )
