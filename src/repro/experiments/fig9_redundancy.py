"""Fig. 9: design redundancy vs test rate, and the headline comparison.

Section 5.3: extra physical rows widen AMP's pool of candidate
placements, and the benefit grows with the device variation (at
``sigma = 0.8`` the no-redundancy test rate is lowest and gains most).
The figure also carries the paper's headline: Vortex beats conventional
OLD and CLD (both without redundancy) by 29.6 and 26.4 percentage
points on average.  All schemes run under the same realistic hardware:
device variation, the differential ADC, and the paper's
programming-path IR-drop (Eq. 2 skew for CLD; deterministic
compensation for the open-loop schemes) -- inference reads are ideal,
matching the paper's convention.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterator, Sequence

import numpy as np

from repro.analysis.montecarlo import run_monte_carlo
from repro.analysis.overhead import CostModel
from repro.core.amp import program_amp
from repro.core.base import (
    HardwareSpec,
    Slot,
    batched_slot_rates,
    build_pair,
    slot_rates,
)
from repro.core.cld import CLDConfig, train_cld
from repro.core.old import OLDConfig, program_pair_open_loop, train_old
from repro.core.pretest import pretest_pair
from repro.core.self_tuning import SelfTuningConfig, tune_gamma
from repro.config import CrossbarConfig, VariationConfig
from repro.data.datasets import N_CLASSES
from repro.experiments.common import ExperimentScale, get_dataset
from repro.xbar.mapping import WeightScaler

__all__ = ["RedundancyStudyResult", "run_fig9", "DEFAULT_REDUNDANCY",
           "DEFAULT_SIGMAS"]

DEFAULT_REDUNDANCY = (0, 25, 50, 100)
DEFAULT_SIGMAS = (0.4, 0.6, 0.8)


@dataclasses.dataclass(frozen=True)
class RedundancyStudyResult:
    """Fig. 9 grid plus the headline averages.

    Attributes:
        redundancy: Extra-row counts ``p`` swept.
        sigmas: Variation levels swept.
        vortex_rate: Vortex test rates, ``(len(sigmas), len(p))``.
        old_rate: OLD (no redundancy) test rate per sigma.
        cld_rate: CLD (no redundancy) test rate per sigma.
        vortex_gain_over_old: Mean Vortex(p=0) - OLD, percentage points.
        vortex_gain_over_cld: Mean Vortex(p=0) - CLD, percentage points.
        area_overhead: Fractional macro-area overhead of each
            redundancy level (the figure's x-axis is literally
            "overhead"), shape ``(len(redundancy),)``.
    """

    redundancy: np.ndarray
    sigmas: np.ndarray
    vortex_rate: np.ndarray
    old_rate: np.ndarray
    cld_rate: np.ndarray
    vortex_gain_over_old: float
    vortex_gain_over_cld: float
    area_overhead: np.ndarray


def _fig9_programmed(
    rng: np.random.Generator,
    spec: HardwareSpec,
    scaler: WeightScaler,
    old_weights: np.ndarray,
    vortex_weights: np.ndarray,
    paper_programming: OLDConfig,
    redundancy: tuple[int, ...],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_mean: np.ndarray,
) -> Iterator[Slot]:
    """One fabrication draw per scheme: OLD, CLD, then Vortex per ``p``.

    Yields each freshly fabricated pair once it is programmed; every
    stochastic element flows from ``rng``, so values are worker-count
    independent.
    """
    n = spec.crossbar.rows
    # --- OLD baseline (p = 0). ---
    pair = build_pair(spec, scaler, rng)
    program_pair_open_loop(
        pair, old_weights, paper_programming, x_reference=x_mean
    )
    yield pair, None
    # --- CLD baseline (p = 0). ---
    pair = build_pair(spec, scaler, rng)
    train_cld(
        pair, x_train, y_train, N_CLASSES,
        CLDConfig(ir_mode_read="ideal"), rng,
    )
    yield pair, None
    # --- Vortex at each redundancy level. ---
    for extra in redundancy:
        pair = build_pair(spec, scaler, rng, rows=n + extra)
        pretest = pretest_pair(pair, spec.sensing, rng=rng)
        yield pair, program_amp(
            pair, vortex_weights, x_mean, pretest, paper_programming
        )


def _fig9_trial(
    rng: np.random.Generator,
    spec: HardwareSpec,
    scaler: WeightScaler,
    old_weights: np.ndarray,
    vortex_weights: np.ndarray,
    paper_programming: OLDConfig,
    redundancy: tuple[int, ...],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    x_mean: np.ndarray,
) -> np.ndarray:
    """One fabrication draw: ``[OLD, CLD, Vortex(p) ...]`` rates.

    Module-level so the engine can dispatch fabrication trials to
    worker processes.
    """
    return slot_rates(
        _fig9_programmed(
            rng, spec, scaler, old_weights, vortex_weights,
            paper_programming, redundancy, x_train, y_train, x_mean,
        ),
        x_test, y_test, spec.ir_mode,
    )


def _fig9_trial_batch(
    rngs: Sequence[np.random.Generator],
    spec: HardwareSpec,
    scaler: WeightScaler,
    old_weights: np.ndarray,
    vortex_weights: np.ndarray,
    paper_programming: OLDConfig,
    redundancy: tuple[int, ...],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    x_mean: np.ndarray,
) -> np.ndarray:
    """Trial-batched kernel for :func:`_fig9_trial`.

    The same programmed states, read as one stacked hardware pass per
    scheme/redundancy slot by :func:`batched_slot_rates`.
    """
    return batched_slot_rates(
        [
            _fig9_programmed(
                rng, spec, scaler, old_weights, vortex_weights,
                paper_programming, redundancy, x_train, y_train, x_mean,
            )
            for rng in rngs
        ],
        x_test, y_test, spec, scaler,
    )


def run_fig9(
    scale: ExperimentScale | None = None,
    redundancy: tuple[int, ...] = DEFAULT_REDUNDANCY,
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS,
    image_size: int = 14,
    r_wire: float = 2.5,
) -> RedundancyStudyResult:
    """Run the Fig. 9 redundancy sweep.

    Args:
        scale: Sample counts, epochs, gamma grid, fabrication trials.
        redundancy: Extra physical row counts ``p``.
        sigmas: Variation levels.
        image_size: Benchmark resolution (14 for the quick suite, 28
            for the paper's 784-row setup).
        r_wire: Wire resistance shared by every scheme.

    Returns:
        A :class:`RedundancyStudyResult`.
    """
    scale = scale if scale is not None else ExperimentScale()
    ds = get_dataset(scale, image_size)
    n = ds.n_features
    scaler = WeightScaler(1.0)
    x_mean = ds.x_train.mean(axis=0)
    base_cfg = CrossbarConfig(rows=n, cols=N_CLASSES, r_wire=r_wire)

    # OLD's software stage is variation-blind: train once.  The open
    # loop compensates programming-time IR-drop deterministically and
    # reads are not IR-modelled (paper convention), so the read-side
    # corrections stay off.
    old_weights = train_old(
        ds.x_train, ds.y_train, N_CLASSES,
        OLDConfig(gdt=scale.gdt()),
    ).weights
    paper_programming = OLDConfig(
        compensate_ir_drop=False, digital_calibration=False
    )

    vortex = np.zeros((len(sigmas), len(redundancy)))
    old_rates = np.zeros(len(sigmas))
    cld_rates = np.zeros(len(sigmas))
    for si, sigma in enumerate(sigmas):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=sigma),
            crossbar=base_cfg,
            ir_mode="ideal",
        )
        # Vortex's software stage: gamma self-tuned at this sigma.
        tune = tune_gamma(
            ds.x_train, ds.y_train, N_CLASSES, sigma,
            SelfTuningConfig(
                gammas=scale.gammas, n_injections=scale.n_injections,
                gdt=scale.gdt(),
            ),
            np.random.default_rng(scale.seed + 90 + si),
        )
        trial_args = dict(
            spec=spec, scaler=scaler, old_weights=old_weights,
            vortex_weights=tune.weights,
            paper_programming=paper_programming,
            redundancy=tuple(int(p) for p in redundancy),
            x_train=ds.x_train, y_train=ds.y_train,
            x_test=ds.x_test, y_test=ds.y_test, x_mean=x_mean,
        )
        summary = run_monte_carlo(
            functools.partial(_fig9_trial, **trial_args),
            trials=scale.mc_trials,
            seed=scale.seed + 900 + si,
            label=f"fig9[sigma={sigma:g}]",
            batch_trial=functools.partial(_fig9_trial_batch, **trial_args),
        )
        old_rates[si] = summary.mean[0]
        cld_rates[si] = summary.mean[1]
        vortex[si] = summary.mean[2:]

    cost = CostModel()
    sensing_bits = HardwareSpec().sensing.adc_bits
    area_overhead = np.asarray([
        cost.area_overhead(base_cfg, sensing_bits, int(p))
        for p in redundancy
    ])

    p0 = vortex[:, 0]
    return RedundancyStudyResult(
        redundancy=np.asarray(redundancy),
        sigmas=np.asarray(sigmas, dtype=float),
        vortex_rate=vortex,
        old_rate=old_rates,
        cld_rate=cld_rates,
        vortex_gain_over_old=float(np.mean(p0 - old_rates) * 100.0),
        vortex_gain_over_cld=float(np.mean(p0 - cld_rates) * 100.0),
        area_overhead=area_overhead,
    )
