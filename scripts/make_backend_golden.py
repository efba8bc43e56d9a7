"""Regenerate the golden outputs that pin the kernels' numerics.

``tests/backend/test_golden.py`` pins the array kernels to the exact
values they produced before an array-namespace shim was put under them
(and later removed again).  This script reproduces that capture: it
exercises forward reads, the batched Monte-Carlo evaluator, the stacked
variation samplers and a programmed-artifact inference pass at fixed
seeds, and writes the results to
``tests/backend/golden_pre_refactor.npz``.

It must only be re-run when a PR *intentionally* changes reference
numerics (and says so); the whole point of the file is that routine
refactors cannot.

Usage::

    PYTHONPATH=src python scripts/make_backend_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests" / "backend" / "golden_pre_refactor.npz"
)


def capture() -> dict[str, np.ndarray]:
    import functools

    from repro.config import CrossbarConfig, VariationConfig
    from repro.core.base import (
        HardwareSpec,
        batched_hardware_test_rates,
        build_pair,
    )
    from repro.analysis.lognormal import stacked_standard_thetas
    from repro.experiments.fig2_column import (
        ColumnTrialConfig,
        _column_trial_batch,
    )
    from repro.runtime.executor import map_trials_batched, trial_rng
    from repro.serve.artifact import ProgramConfig, program_array
    from repro.serve.engine import InferenceEngine
    from repro.xbar.mapping import WeightScaler
    from repro.xbar.tiling import TiledPair

    out: dict[str, np.ndarray] = {}
    rng = np.random.default_rng(20260808)

    # -- forward reads: differential pair, ideal + reference ----------
    spec = HardwareSpec(
        variation=VariationConfig(sigma=0.4),
        crossbar=CrossbarConfig(rows=24, cols=6, r_wire=0.0),
        ir_mode="ideal",
    )
    scaler = WeightScaler(1.0, spec.device)
    pair = build_pair(spec, scaler, np.random.default_rng(11))
    weights = rng.normal(0.0, 0.4, size=(24, 6))
    pair.program_weights(weights)
    x = rng.random((9, 24))
    pair.calibrate_sense(x)
    out["pair_x"] = x
    out["pair_matvec_ideal"] = pair.matvec(x, "ideal")
    pair.set_reference_input(x.mean(axis=0))
    out["pair_matvec_reference"] = pair.matvec(x, "reference")
    out["pair_read_pos_ideal"] = pair.positive.read(x, "ideal")

    # -- tiled partial reductions -------------------------------------
    tiled = TiledPair(
        scaler, n_rows=30, cols=5, tile_rows=8,
        variation=VariationConfig(sigma=0.3),
        rng=np.random.default_rng(5),
    )
    w_tiled = rng.normal(0.0, 0.3, size=(30, 5))
    tiled.program_weights(w_tiled)
    xt = rng.random((7, 30))
    out["tiled_x"] = xt
    out["tiled_matvec"] = tiled.matvec(xt, "ideal")

    # -- batched hardware test rates ----------------------------------
    T = 5
    g_lo = spec.device.g_off
    g_hi = spec.device.g_on
    g_pos = rng.uniform(g_lo, g_hi, size=(T, 24, 6))
    g_neg = rng.uniform(g_lo, g_hi, size=(T, 24, 6))
    labels = rng.integers(0, 6, size=9)
    out["rates_labels"] = labels
    out["rates"] = batched_hardware_test_rates(
        g_pos, g_neg, x, labels, spec, scaler, trial_block=2
    )

    # -- stacked variation draws --------------------------------------
    rngs = [trial_rng(777, i) for i in range(4)]
    out["stacked_thetas"] = stacked_standard_thetas(
        rngs, "lognormal", (6, 3)
    )

    # -- trial-batched Monte-Carlo kernel -----------------------------
    cfg = ColumnTrialConfig(
        sigma=0.5, n_devices=40, target_current=1e-3, v_read=1.0,
        adc_bits=6, cld_iterations=30,
    )
    out["mc_batched"] = map_trials_batched(
        functools.partial(_column_trial_batch, cfg=cfg),
        trials=12, seed=99, jobs=1,
    )

    # -- programmed-artifact serving pass -----------------------------
    artifact = program_array(
        ProgramConfig(
            scheme="vortex", image_size=7, n_train=80, sigma=0.3,
            seed=3, n_probes=8,
        )
    )
    engine = InferenceEngine.from_artifact(artifact)
    xs = np.random.default_rng(21).random((5, artifact.n_logical))
    out["serve_x"] = xs
    out["serve_scores"] = engine.forward(xs)
    return out


def main() -> None:
    arrays = capture()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(GOLDEN_PATH, **arrays)
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")
    for name, value in arrays.items():
        print(f"  {name}: shape={value.shape} dtype={value.dtype}")


if __name__ == "__main__":
    main()
