"""Retention drift: conductance relaxation after programming.

Programmed memristor conductances are not permanent: the filamentary
state relaxes over time, conventionally modelled as a power law
(``g`` drifting toward HRS with a per-device drift exponent ``nu``).
The paper folds all device imperfections into its variation model;
retention is the *time-dependent* member of that family, and VAT's
penalty budget extends to it naturally -- drift looks like extra
effective variation accumulated between refreshes.

Model: a device programmed to ``g_prog`` at time 0 reads at time ``t``

    g(t) = g_off + (g_prog - g_off) * (1 + t / t0) ** (-nu)

with ``nu`` a persistent, per-device lognormal-ish positive exponent.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.devices.memristor import MemristorArray
from repro.seeding import ensure_rng

if TYPE_CHECKING:
    from repro.xbar.pair import DifferentialCrossbar

__all__ = [
    "RetentionConfig",
    "sample_drift_exponents",
    "drift_factor",
    "age_array",
    "age_pair",
    "equivalent_sigma_at",
]


@dataclasses.dataclass(frozen=True)
class RetentionConfig:
    """Power-law drift parameters.

    Attributes:
        nu_median: Median per-device drift exponent.
        nu_sigma: Lognormal spread of the exponent across devices.
        t0: Drift onset time constant in seconds.
    """

    nu_median: float = 0.02
    nu_sigma: float = 0.5
    t0: float = 1.0


def sample_drift_exponents(
    config: RetentionConfig,
    shape: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Persistent per-device drift exponents (positive, lognormal)."""
    if config.nu_median < 0:
        raise ValueError("nu_median must be >= 0")
    if config.nu_median == 0:
        return np.zeros(shape)
    return config.nu_median * np.exp(
        rng.normal(0.0, config.nu_sigma, size=shape)
    )


def drift_factor(
    nu: np.ndarray | float, elapsed: float, t0: float
) -> np.ndarray:
    """Fractional remaining programmed window after ``elapsed`` seconds."""
    if elapsed < 0:
        raise ValueError("elapsed must be >= 0")
    if t0 <= 0:
        raise ValueError("t0 must be > 0")
    return (1.0 + elapsed / t0) ** (-np.asarray(nu, dtype=float))


def age_array(
    array: MemristorArray,
    elapsed: float,
    config: RetentionConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Relax an array's conductances by ``elapsed`` seconds of drift.

    The per-device exponents are sampled once (first call) and cached
    on the array, so repeated aging is consistent: two 100 s steps
    equal one 200 s step for the same device.

    Args:
        array: Fabricated device array (mutated in place).
        elapsed: Additional idle time in seconds.
        config: Drift parameters.
        rng: Randomness for the one-time exponent draw.

    Returns:
        The conductance array after aging.
    """
    nu = getattr(array, "_retention_nu", None)
    if nu is None:
        rng = ensure_rng(rng, "repro.devices.retention.age_array")
        nu = sample_drift_exponents(config, array.shape, rng)
        array._retention_nu = nu  # cached: exponents are persistent
        array._retention_age = 0.0
    t1 = array._retention_age
    t2 = t1 + elapsed
    d = array.device
    g = array.conductance
    window = g - d.g_off
    ratio = drift_factor(nu, t2, config.t0) / drift_factor(nu, t1, config.t0)
    g_aged = d.g_off + window * ratio
    array.state = array.switching.state_of(
        np.clip(g_aged, d.g_off, d.g_on)
    )
    array._retention_age = t2
    return array.conductance


def age_pair(
    pair: DifferentialCrossbar,
    elapsed: float,
    config: RetentionConfig,
    rng: np.random.Generator | None = None,
) -> None:
    """Age both arrays of a differential pair."""
    rng = ensure_rng(rng, "repro.devices.retention.age_pair")
    age_array(pair.positive.array, elapsed, config, rng)
    age_array(pair.negative.array, elapsed, config, rng)


def equivalent_sigma_at(
    config: RetentionConfig, elapsed: float, n_samples: int = 20000,
    rng: np.random.Generator | None = None,
) -> float:
    """Std of the drift log-multiplier at ``elapsed`` seconds.

    The drift multiplier ``(1 + t/t0)^(-nu)`` acts on the programmed
    window exactly like a (one-sided) variation multiplier; its
    log-standard-deviation is the extra sigma a variation-aware
    training budget should cover for a refresh interval of
    ``elapsed``.  Estimated by sampling the exponent distribution.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    nu = sample_drift_exponents(config, (n_samples,), rng)
    log_mult = -nu * np.log1p(elapsed / config.t0)
    return float(np.std(log_mult))
