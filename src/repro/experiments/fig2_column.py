"""Fig. 2: CLD vs OLD output discrepancy on a memristor column.

The paper's motivating experiment (Section 3.1): a column of 100
memristors is trained so that with every word line at 1 V the column
outputs 1 mA.  Over a 1000-run Monte-Carlo sweep of the variation
sigma, OLD's output discrepancy grows steadily -- it pre-calculates the
programming with no knowledge of each device's deviation -- while CLD
holds a small, flat discrepancy bounded only by its sensing resolution.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from repro.analysis.lognormal import (
    stacked_cycle_multipliers,
    stacked_parametric_thetas,
)
from repro.analysis.montecarlo import run_monte_carlo
from repro.circuits.adc import ADC
from repro.config import DeviceConfig, VariationConfig
from repro.devices.memristor import MemristorArray
from repro.devices.variation import lognormal_multipliers
from repro.experiments.common import ExperimentScale

__all__ = ["ColumnStudyResult", "ColumnTrialConfig", "run_fig2",
           "DEFAULT_SIGMAS"]

DEFAULT_SIGMAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclasses.dataclass(frozen=True)
class ColumnStudyResult:
    """Discrepancy curves of the Fig. 2 study.

    Attributes:
        sigmas: Swept variation levels.
        old_discrepancy: Mean relative output error of OLD per sigma.
        cld_discrepancy: Mean relative output error of CLD per sigma.
        old_std: Trial standard deviation of the OLD error.
        cld_std: Trial standard deviation of the CLD error.
        n_trials: Monte-Carlo runs per point.
    """

    sigmas: np.ndarray
    old_discrepancy: np.ndarray
    cld_discrepancy: np.ndarray
    old_std: np.ndarray
    cld_std: np.ndarray
    n_trials: int

    def rows(self) -> list[tuple[float, float, float]]:
        """(sigma, OLD error, CLD error) rows for tabular printing."""
        return [
            (float(s), float(o), float(c))
            for s, o, c in zip(
                self.sigmas, self.old_discrepancy, self.cld_discrepancy
            )
        ]


@dataclasses.dataclass(frozen=True)
class ColumnTrialConfig:
    """Everything that determines one Fig. 2 column trial.

    Frozen so it can serve directly as the artifact-cache key of the
    Monte-Carlo sweep (see :func:`repro.runtime.cache.stable_key`).
    """

    sigma: float
    n_devices: int
    target_current: float
    v_read: float
    adc_bits: int
    cld_iterations: int


def _column_trial(
    rng: np.random.Generator, cfg: ColumnTrialConfig
) -> np.ndarray:
    """One fabrication draw: returns (old_error, cld_error)."""
    sigma = cfg.sigma
    n_devices = cfg.n_devices
    target_current = cfg.target_current
    v_read = cfg.v_read
    adc_bits = cfg.adc_bits
    cld_iterations = cfg.cld_iterations
    device = DeviceConfig()
    variation = VariationConfig(sigma=sigma)
    # Uniform target: every device carries an equal share.
    g_target = target_current / (n_devices * v_read)
    targets = np.full((n_devices, 1), g_target)

    # --- OLD: program once, blind to the variations. ---
    array = MemristorArray((n_devices, 1), device, variation, rng)
    achieved = array.program_conductance(targets)
    i_old = v_read * float(achieved.sum())

    # --- CLD: program-and-sense feedback on the same fabric. ---
    array.reset_to_hrs()
    adc = ADC(adc_bits, 2.0 * target_current)
    for _ in range(cld_iterations):
        i_sensed = float(adc.quantize(v_read * array.conductance.sum()))
        error = target_current - i_sensed
        if abs(error) < adc.lsb:
            break
        # Spread the correction uniformly across the column.
        delta_g = np.full(
            (n_devices, 1), error / (n_devices * v_read) * 0.5
        )
        array.update_conductance(delta_g)
    i_cld = v_read * float(array.conductance.sum())

    return np.array(
        [
            abs(i_old - target_current) / target_current,
            abs(i_cld - target_current) / target_current,
        ]
    )


def _column_trial_batch(  # repro-lint: batch-invariant
    rngs: Sequence[np.random.Generator],
    cfg: ColumnTrialConfig,
) -> np.ndarray:
    """Trial-batched kernel for :func:`_column_trial`.

    Replays the scalar trial's draws per trial -- fabrication thetas,
    one programming cycle draw, then one cycle draw per *active* CLD
    iteration, each from that trial's own generator -- and performs all
    device math on ``(T, n, 1)`` stacks.  Every array operation here is
    elementwise or a trailing-axes reduction, both of which NumPy
    evaluates identically per trial slice, so the output is
    bit-identical to looping :func:`_column_trial` over the same
    generators.
    """
    n_trials = len(rngs)
    device = DeviceConfig()
    variation = VariationConfig(sigma=cfg.sigma)
    g_off, g_range = device.g_off, device.g_range
    v_read = cfg.v_read
    target_current = cfg.target_current
    shape = (cfg.n_devices, 1)
    g_target = target_current / (cfg.n_devices * v_read)
    targets = np.full(shape, g_target)

    # Fabrication: each trial's persistent thetas from its own stream.
    thetas = stacked_parametric_thetas(
        rngs, cfg.sigma, variation.distribution, shape
    )
    exp_thetas = np.exp(thetas)

    # --- OLD: one open-loop programming event per trial. ---
    achieved = targets * exp_thetas
    if variation.sigma_cycle > 0:
        achieved = achieved * stacked_cycle_multipliers(
            rngs, variation.sigma_cycle, shape
        )
    achieved = np.clip(achieved, g_off, device.g_on)
    state = np.clip((achieved - g_off) / g_range, 0.0, 1.0)
    g_old = g_off + state * g_range
    i_old = v_read * np.sum(g_old, axis=(1, 2))

    # --- CLD: program-and-sense feedback on the same fabric. ---
    state = np.zeros((n_trials,) + shape)
    adc = ADC(cfg.adc_bits, 2.0 * target_current)
    # Trials leave the feedback loop independently: a converged trial
    # stops updating *and stops drawing cycle noise*, exactly like the
    # scalar trial's early break.
    active = np.asarray([True] * n_trials)
    for _ in range(cfg.cld_iterations):
        g = g_off + state * g_range
        i_sensed = adc.quantize(v_read * np.sum(g, axis=(1, 2)))
        error = target_current - i_sensed
        active &= ~(np.abs(error) < adc.lsb)
        if not active.any():
            break
        delta = error / (cfg.n_devices * v_read) * 0.5
        step = delta[:, None, None] * exp_thetas
        if variation.sigma_cycle > 0:
            for t in np.nonzero(active)[0]:
                step[t] = step[t] * lognormal_multipliers(
                    rngs[t], variation.sigma_cycle, shape
                )
        g_new = np.clip(g + step, g_off, device.g_on)
        state_new = np.clip((g_new - g_off) / g_range, 0.0, 1.0)
        state[active] = state_new[active]
    g_cld = g_off + state * g_range
    i_cld = v_read * np.sum(g_cld, axis=(1, 2))

    return np.stack(
        [
            np.abs(i_old - target_current) / target_current,
            np.abs(i_cld - target_current) / target_current,
        ],
        axis=1,
    )


def run_fig2(
    scale: ExperimentScale | None = None,
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS,
    n_devices: int = 100,
    target_current: float = 1e-3,
    v_read: float = 1.0,
    adc_bits: int = 6,
    cld_iterations: int = 60,
) -> ColumnStudyResult:
    """Run the Fig. 2 Monte-Carlo column study.

    Args:
        scale: Controls the Monte-Carlo trial count.
        sigmas: Variation levels to sweep.
        n_devices: Column height (the paper uses 100).
        target_current: Training goal at full drive (1 mA).
        v_read: Word-line voltage (1 V).
        adc_bits: CLD sensing resolution.
        cld_iterations: Feedback-iteration budget for CLD.

    Returns:
        A :class:`ColumnStudyResult` with one point per sigma.
    """
    scale = scale if scale is not None else ExperimentScale()
    old_mean, cld_mean, old_std, cld_std = [], [], [], []
    for idx, sigma in enumerate(sigmas):
        trial_cfg = ColumnTrialConfig(
            sigma=float(sigma),
            n_devices=n_devices,
            target_current=target_current,
            v_read=v_read,
            adc_bits=adc_bits,
            cld_iterations=cld_iterations,
        )
        summary = run_monte_carlo(
            functools.partial(_column_trial, cfg=trial_cfg),
            trials=scale.column_mc_trials,
            seed=scale.seed + idx,
            cache_config=trial_cfg,
            label=f"fig2[sigma={sigma:g}]",
            batch_trial=functools.partial(_column_trial_batch, cfg=trial_cfg),
        )
        old_mean.append(summary.mean[0])
        cld_mean.append(summary.mean[1])
        old_std.append(summary.std[0])
        cld_std.append(summary.std[1])
    return ColumnStudyResult(
        sigmas=np.asarray(sigmas, dtype=float),
        old_discrepancy=np.asarray(old_mean),
        cld_discrepancy=np.asarray(cld_mean),
        old_std=np.asarray(old_std),
        cld_std=np.asarray(cld_std),
        n_trials=scale.column_mc_trials,
    )
