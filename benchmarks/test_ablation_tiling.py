"""Ablation: crossbar tiling vs the Table 1 size tension.

Table 1 shows the paper's dilemma: bigger crossbars carry more image
features but longer bit lines.  The architectural resolution is
tiling -- split the 784-row layer across shorter tiles and sum
digitally.  This bench measures classifier accuracy through the full
read-path IR physics (the nodal wire solve) as the tile height
shrinks, at fixed total feature count.
"""

from __future__ import annotations

import numpy as np
from conftest import print_series

from repro.config import CrossbarConfig, VariationConfig
from repro.core.old import OLDConfig, train_old
from repro.experiments import get_dataset
from repro.nn.metrics import rate_from_scores
from repro.xbar.mapping import WeightScaler
from repro.xbar.tiling import TiledPair

TILE_FRACTIONS = (1, 2, 4)  # full layer, halves, quarters
SIGMA = 0.3


def _run(scale, image_size, r_wire):
    ds = get_dataset(scale, image_size)
    n = ds.n_features
    weights = train_old(ds.x_train, ds.y_train, 10,
                        OLDConfig(gdt=scale.gdt())).weights
    trials = max(2, scale.mc_trials)
    rows = []
    for fraction in TILE_FRACTIONS:
        tile_rows = int(np.ceil(n / fraction))
        rate = 0.0
        for seed in range(trials):
            tiled = TiledPair(
                WeightScaler(1.0),
                n_rows=n,
                cols=10,
                tile_rows=tile_rows,
                config=CrossbarConfig(rows=n, cols=10, r_wire=r_wire),
                variation=VariationConfig(sigma=SIGMA),
                rng=np.random.default_rng(7700 + seed),
                adc_bits=6,
            )
            tiled.program_weights(weights)
            tiled.calibrate_sense(ds.x_test[:128])
            scores = tiled.matvec(ds.x_test, "nodal")
            rate += rate_from_scores(scores, ds.y_test)
        rows.append((fraction, tile_rows, rate / trials))
    return rows


def test_ablation_tiling(benchmark, scale, image_size, r_wire):
    rows = benchmark.pedantic(
        lambda: _run(scale, image_size, r_wire), rounds=1, iterations=1
    )
    print_series(
        f"Ablation - tiling vs read-path IR-drop (sigma={SIGMA}, "
        f"r_wire={r_wire}, full wire physics)",
        f"{'tiles':>6s} {'rows/tile':>10s} {'test rate':>11s}",
        (f"{f:6d} {t:10d} {r:11.3f}" for f, t, r in rows),
    )
    # Shorter bit lines must not hurt, and the finest tiling must beat
    # the monolithic layer under real read-path wire physics.
    rates = [r for _, _, r in rows]
    assert rates[-1] > rates[0]
