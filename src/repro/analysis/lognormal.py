"""Lognormal distribution fitting and batched variation sampling.

The AMP pre-test programs every device to a reference state and senses
the achieved resistance; "the obtained distribution should follow
lognormal distribution" (Section 4.2.1).  Fitting the measured
multipliers recovers the crossbar's effective ``sigma``, which the
integrated Vortex flow feeds back into VAT's self-tuning (Section 4.3).

Beyond fitting, this module hosts the *stacked* samplers used by the
trial-batched Monte-Carlo kernels
(:func:`repro.runtime.executor.map_trials_batched`): given the list of
per-trial child generators of a chunk, they draw each trial's
variation tensor from its own stream -- in exactly the order the
scalar device model would -- and stack the results into one
``(T,) + shape`` array.  Stream identity per trial is the load-bearing
property: it is what keeps a vectorised kernel bit-identical to the
looped trial it replaces.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np
from scipy import stats

from repro.devices.variation import (
    lognormal_multipliers,
    sample_standard_thetas,
)

__all__ = [
    "LognormalFit",
    "fit_lognormal_multipliers",
    "ks_lognormal",
    "stacked_standard_thetas",
    "stacked_parametric_thetas",
    "stacked_cycle_multipliers",
]


@dataclasses.dataclass(frozen=True)
class LognormalFit:
    """Maximum-likelihood fit of ``value = exp(theta)``, theta ~ N(mu, s^2).

    Attributes:
        mu: Mean of the underlying normal.
        sigma: Standard deviation of the underlying normal.
        n: Sample count.
    """

    mu: float
    sigma: float
    n: int


def fit_lognormal_multipliers(multipliers: np.ndarray) -> LognormalFit:
    """Fit lognormal parameters to positive multiplier samples.

    Args:
        multipliers: Measured ``g_actual / g_target`` ratios (> 0).

    Returns:
        The MLE :class:`LognormalFit` (``sigma`` uses ddof=1).
    """
    values = np.asarray(multipliers, dtype=float).ravel()
    if values.size < 2:
        raise ValueError("need at least 2 samples to fit")
    if np.any(values <= 0):
        raise ValueError("multipliers must be strictly positive")
    theta = np.log(values)
    return LognormalFit(
        mu=float(theta.mean()),
        sigma=float(theta.std(ddof=1)),
        n=values.size,
    )


def ks_lognormal(multipliers: np.ndarray, fit: LognormalFit) -> float:
    """Kolmogorov-Smirnov p-value of samples against a fitted lognormal.

    A large p-value means the pre-test distribution is consistent with
    the lognormal model the paper assumes.
    """
    values = np.asarray(multipliers, dtype=float).ravel()
    if np.any(values <= 0):
        raise ValueError("multipliers must be strictly positive")
    result = stats.kstest(
        np.log(values), "norm", args=(fit.mu, fit.sigma)
    )
    return float(result.pvalue)


def stacked_standard_thetas(  # repro-lint: batch-invariant
    rngs: Sequence[np.random.Generator],
    distribution: str,
    shape: tuple[int, ...],
) -> np.ndarray:
    """Per-trial unit-std theta draws, stacked to ``(T,) + shape``.

    Trial ``t`` of the result is *exactly*
    ``sample_standard_thetas(rngs[t], distribution, shape)`` -- each
    generator advances precisely as it would in the scalar trial, so a
    batched kernel built on this stack reproduces the looped path
    bit-for-bit.
    """
    return np.stack([
        sample_standard_thetas(rng, distribution, shape) for rng in rngs
    ])


def stacked_parametric_thetas(  # repro-lint: batch-invariant
    rngs: Sequence[np.random.Generator],
    sigma: float,
    distribution: str,
    shape: tuple[int, ...],
) -> np.ndarray:
    """Per-trial persistent device thetas, stacked to ``(T,) + shape``.

    Mirrors ``VariationModel.sample_parametric_theta`` per trial,
    including its ``sigma == 0`` short-circuit (zeros, *no* stream
    advance) -- the batched and scalar paths must consume identical
    numbers of draws from every generator.
    """
    if sigma == 0:
        return np.zeros((len(rngs),) + shape)
    return sigma * stacked_standard_thetas(rngs, distribution, shape)


def stacked_cycle_multipliers(  # repro-lint: batch-invariant
    rngs: Sequence[np.random.Generator],
    sigma_cycle: float,
    shape: tuple[int, ...],
) -> np.ndarray:
    """Per-trial cycle-to-cycle multipliers, stacked to ``(T,) + shape``.

    Trial ``t`` equals ``lognormal_multipliers(rngs[t], sigma_cycle,
    shape)``; ``sigma_cycle == 0`` returns ones without advancing any
    stream, matching the scalar model.
    """
    if sigma_cycle == 0:
        return np.ones((len(rngs),) + shape)
    return np.stack([
        lognormal_multipliers(rng, sigma_cycle, shape) for rng in rngs
    ])
