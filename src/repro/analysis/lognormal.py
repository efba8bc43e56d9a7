"""Batched lognormal variation sampling.

Device variation is lognormal: "the obtained distribution should
follow lognormal distribution" (Section 4.2.1).  This module hosts the
*stacked* samplers used by the trial-batched Monte-Carlo kernels
(:func:`repro.runtime.executor.map_trials_batched`): given the list of
per-trial child generators of a chunk, they draw each trial's
variation tensor from its own stream -- in exactly the order the
scalar device model would -- and stack the results into one
``(T,) + shape`` array.  Stream identity per trial is the load-bearing
property: it is what keeps a vectorised kernel bit-identical to the
looped trial it replaces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.devices.variation import (
    lognormal_multipliers,
    sample_standard_thetas,
)

__all__ = [
    "stacked_standard_thetas",
    "stacked_parametric_thetas",
    "stacked_cycle_multipliers",
]


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
