"""Fig. 8: ADC resolution vs test rate.

The ADC bounds two things at once: the accuracy of AMP's pre-test
measurements (a coarse converter cannot tell a good device from a bad
one, so the mapping decays toward random) and the precision of the
computation-path reads.  The paper sweeps 4 to 8 bits at several
variation levels and finds the test rate saturating at 6 bits; this
driver regenerates that sweep with Vortex's VAT+AMP flow (fixed gamma,
no redundancy, exactly the paper's "no redundancy is added in this
analysis" setup).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.analysis.montecarlo import run_monte_carlo
from repro.core.amp import program_amp
from repro.core.base import HardwareSpec, build_pair, hardware_test_rate
from repro.core.old import OLDConfig
from repro.core.pretest import pretest_pair
from repro.core.vat import VATConfig
from repro.config import CrossbarConfig, SensingConfig, VariationConfig
from repro.data.datasets import N_CLASSES
from repro.experiments.common import (
    ExperimentScale,
    get_dataset,
    train_vat_once,
)
from repro.xbar.mapping import WeightScaler

__all__ = ["ADCStudyResult", "run_fig8", "DEFAULT_BITS", "DEFAULT_SIGMAS"]

DEFAULT_BITS = (4, 5, 6, 7, 8)
DEFAULT_SIGMAS = (0.4, 0.6, 0.8)


@dataclasses.dataclass(frozen=True)
class ADCStudyResult:
    """Test-rate grid of the Fig. 8 sweep.

    Attributes:
        bits: Swept ADC resolutions.
        sigmas: Variation levels (one curve each).
        test_rate: Mean test rate, shape ``(len(sigmas), len(bits))``.
        gamma: Fixed VAT gamma used throughout.
    """

    bits: np.ndarray
    sigmas: np.ndarray
    test_rate: np.ndarray
    gamma: float

    def saturation_bits(self, tolerance: float = 0.01) -> list[int]:
        """Per-sigma smallest resolution within ``tolerance`` of max."""
        result = []
        for row in self.test_rate:
            peak = row.max()
            ok = np.flatnonzero(row >= peak - tolerance)
            result.append(int(self.bits[ok[0]]))
        return result


def _fig8_trial(
    rng: np.random.Generator,
    sigma: float,
    bits: tuple[int, ...],
    n: int,
    weights: np.ndarray,
    scaler: WeightScaler,
    x_test: np.ndarray,
    y_test: np.ndarray,
    x_mean: np.ndarray,
) -> np.ndarray:
    """One fabrication, measured at every ADC resolution.

    Module-level so the engine can dispatch trials to worker
    processes; the fabrication seed and every pre-test draw flow from
    the trial generator, so values are worker-count independent.
    """
    rates = np.zeros(len(bits))
    # One fabrication per trial, measured at every resolution.
    fab_seed = rng.integers(2**31)
    for bi, b in enumerate(bits):
        spec = HardwareSpec(
            variation=VariationConfig(sigma=sigma),
            crossbar=CrossbarConfig(
                rows=n, cols=N_CLASSES, r_wire=0.0
            ),
            sensing=SensingConfig(adc_bits=int(b)),
        )
        pair = build_pair(
            spec, scaler, np.random.default_rng(fab_seed)
        )
        pretest = pretest_pair(pair, spec.sensing, rng=rng)
        mapping = program_amp(pair, weights, x_mean, pretest, OLDConfig())
        rates[bi] = hardware_test_rate(
            pair, x_test, y_test, spec.ir_mode,
            input_map=mapping.inputs_to_physical,
        )
    return rates


def run_fig8(
    scale: ExperimentScale | None = None,
    bits: tuple[int, ...] = DEFAULT_BITS,
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS,
    gamma: float = 0.3,
    image_size: int = 14,
) -> ADCStudyResult:
    """Run the Fig. 8 ADC-resolution sweep.

    Args:
        scale: Sample counts, epochs, fabrication trials.
        bits: ADC resolutions to sweep.
        sigmas: Variation levels to sweep.
        gamma: Fixed VAT penalty scaling (the figure isolates the ADC
            effect, so gamma is held constant).
        image_size: Benchmark resolution.

    Returns:
        An :class:`ADCStudyResult`.
    """
    scale = scale if scale is not None else ExperimentScale()
    ds = get_dataset(scale, image_size)
    n = ds.n_features
    scaler = WeightScaler(1.0)
    x_mean = ds.x_train.mean(axis=0)

    outcomes = train_vat_once(
        scale, image_size,
        [VATConfig(gamma=gamma, sigma=sigma, gdt=scale.gdt())
         for sigma in sigmas],
    )
    rates = np.zeros((len(sigmas), len(bits)))
    for si, (sigma, outcome) in enumerate(zip(sigmas, outcomes)):
        summary = run_monte_carlo(
            functools.partial(
                _fig8_trial,
                sigma=float(sigma), bits=tuple(int(b) for b in bits),
                n=n, weights=outcome.weights, scaler=scaler,
                x_test=ds.x_test, y_test=ds.y_test, x_mean=x_mean,
            ),
            trials=scale.mc_trials,
            seed=scale.seed + 80 + si,
            label=f"fig8[sigma={sigma:g}]",
        )
        rates[si] = summary.mean
    return ADCStudyResult(
        bits=np.asarray(bits),
        sigmas=np.asarray(sigmas, dtype=float),
        test_rate=rates,
        gamma=gamma,
    )
