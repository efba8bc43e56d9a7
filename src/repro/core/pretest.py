"""AMP pre-testing: estimating per-device variation (Section 4.2.1).

After fabrication, every memristor is programmed toward a reference
state and its achieved resistance is sensed; repeating the
program-and-sense cycle and averaging suppresses the cycle-to-cycle
switching variation, leaving an estimate of the *persistent* parametric
deviation ``theta`` of each device.  The measurement chain is bounded
by the ADC resolution, which is exactly the lever of the paper's Fig. 8
study.

The pre-test keeps all other devices at HRS with grounded unselected
word lines, so sneak paths are suppressed; the residual measurement
error here is quantisation plus readout noise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense
from repro.config import SensingConfig
from repro.devices.memristor import MemristorArray
from repro.xbar.pair import DifferentialCrossbar

__all__ = ["PretestResult", "pretest_array", "pretest_pair", "robust_sigma"]


@dataclasses.dataclass
class PretestResult:
    """Outcome of pre-testing a differential pair.

    Attributes:
        theta_pos: Estimated persistent theta of the positive array.
        theta_neg: Estimated persistent theta of the negative array.
        sigma_estimate: Robust estimate of the variation sigma fitted
            to all measurements (defect outliers resisted via MAD).
        target_conductance: Reference conductance used for the test.
    """

    theta_pos: np.ndarray
    theta_neg: np.ndarray
    sigma_estimate: float
    target_conductance: float


def robust_sigma(theta_samples: np.ndarray) -> float:
    """MAD-based sigma estimate, robust to stuck-at outliers.

    ``sigma ~ 1.4826 * median(|theta - median(theta)|)`` for normal
    data; stuck-at defects appear as extreme thetas and barely move the
    median.
    """
    theta = np.asarray(theta_samples, dtype=float).ravel()
    if theta.size < 2:
        raise ValueError("need at least 2 samples")
    med = np.median(theta)
    return float(1.4826 * np.median(np.abs(theta - med)))


def pretest_array(
    array: MemristorArray,
    adc: ADC,
    repeats: int = 4,
    target_fraction: float | None = None,
    v_read: float = 1.0,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Estimate the persistent theta of every device in one array.

    Args:
        array: Fabricated device array (state is clobbered; the array
            is left reset to HRS, its pre-programming idle state).
        adc: Converter quantising the single-cell sense current.
        repeats: Program-and-sense cycles averaged per device
            ("we may need to sense multiple times to eliminate the
            impacts of switching variations").
        target_fraction: Reference state as a fraction of the
            conductance range; defaults to the geometric mid-point of
            ``[g_off, g_on]``, which keeps lognormal draws on-scale.
        v_read: Sensing voltage.
        noise_std: Additive readout-noise standard deviation (A).
        rng: Randomness for the readout noise.

    Returns:
        Estimated theta map, shape ``array.shape``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    d = array.device
    if target_fraction is None:
        g_target = float(np.sqrt(d.g_on * d.g_off))
    else:
        if not 0.0 < target_fraction <= 1.0:
            raise ValueError(
                f"target_fraction must be in (0, 1], got {target_fraction}"
            )
        g_target = d.g_off + target_fraction * d.g_range
    sense = CurrentSense(adc=adc, noise_std=noise_std, rng=rng)

    acc = np.zeros(array.shape)
    targets = np.full(array.shape, g_target)
    for _ in range(repeats):
        achieved = array.program_conductance(targets, with_cycle_noise=True)
        currents = v_read * achieved
        acc += sense.sense(currents)
    mean_g = acc / (repeats * v_read)
    mean_g = np.maximum(mean_g, d.g_off * 1e-3)
    array.reset_to_hrs()
    return np.log(mean_g / g_target)


def pretest_pair(
    pair: DifferentialCrossbar,
    sensing: SensingConfig | None = None,
    adc: ADC | None = None,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> PretestResult:
    """Pre-test both arrays of a differential pair.

    Args:
        pair: Fabricated pair (arrays are left reset to HRS).
        sensing: Resolution/repeat settings; defaults used if omitted.
        adc: Explicit converter; built from ``sensing`` when omitted
            (full scale covering one on-state device).
        noise_std: Additive readout noise (A).
        rng: Randomness for readout noise.

    Returns:
        A :class:`PretestResult` with per-device theta estimates.
    """
    cfg = sensing if sensing is not None else SensingConfig()
    device = pair.positive.device
    v_read = pair.config.v_read
    if adc is None:
        adc = ADC(cfg.adc_bits, v_read * device.g_on * cfg.full_scale_margin)
    theta_pos = pretest_array(
        pair.positive.array, adc, cfg.sense_repeats,
        v_read=v_read, noise_std=noise_std, rng=rng,
    )
    theta_neg = pretest_array(
        pair.negative.array, adc, cfg.sense_repeats,
        v_read=v_read, noise_std=noise_std, rng=rng,
    )
    g_target = float(np.sqrt(device.g_on * device.g_off))
    sigma = robust_sigma(np.concatenate([theta_pos.ravel(), theta_neg.ravel()]))
    return PretestResult(
        theta_pos=theta_pos,
        theta_neg=theta_neg,
        sigma_estimate=sigma,
        target_conductance=g_target,
    )
