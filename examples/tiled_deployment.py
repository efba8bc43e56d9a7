"""Resolving Table 1's size tension with crossbar tiling.

Table 1 of the paper exposes a dilemma: the 784-row crossbar carries
the full image (best features) but the longest bit lines (worst
IR-drop), while the 49-row crossbar has short wires but quarter-scale
images.  The architectural answer is *tiling*: keep all 784 features
and split them across shorter tiles whose outputs are summed digitally.
This example measures classifier accuracy through the full read-path
wire physics (the nodal solve) as the tile height shrinks.

Run:  python examples/tiled_deployment.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CrossbarConfig,
    OLDConfig,
    VariationConfig,
    WeightScaler,
    make_dataset,
    train_old,
)
from repro.nn.gdt import GDTConfig
from repro.nn.metrics import rate_from_scores
from repro.xbar.tiling import TiledPair

R_WIRE = 2.5
SIGMA = 0.3
TILE_ROWS = (784, 392, 196, 98)


def main() -> None:
    dataset = make_dataset(n_train=1500, n_test=800, seed=7)
    n = dataset.n_features  # 784: the paper's full-resolution crossbar
    weights = train_old(
        dataset.x_train, dataset.y_train, 10,
        OLDConfig(gdt=GDTConfig(epochs=150)),
    ).weights
    software = rate_from_scores(
        dataset.x_test @ weights, dataset.y_test
    )
    print(f"784-feature classifier, software ceiling {software:.3f}")
    print(f"read path: full wire physics, r_wire = {R_WIRE} Ohm, "
          f"device sigma = {SIGMA}\n")
    print(f"{'tiles':>6s} {'rows/tile':>10s} {'test rate':>11s}")

    for tile_rows in TILE_ROWS:
        rates = []
        for seed in range(2):
            tiled = TiledPair(
                WeightScaler(1.0),
                n_rows=n,
                cols=10,
                tile_rows=tile_rows,
                config=CrossbarConfig(rows=n, cols=10, r_wire=R_WIRE),
                variation=VariationConfig(sigma=SIGMA),
                rng=np.random.default_rng(40 + seed),
                adc_bits=6,
            )
            tiled.program_weights(weights)
            tiled.calibrate_sense(dataset.x_test[:128])
            scores = tiled.matvec(dataset.x_test, "nodal")
            rates.append(rate_from_scores(scores, dataset.y_test))
        n_tiles = int(np.ceil(n / tile_rows))
        print(f"{n_tiles:6d} {tile_rows:10d} {np.mean(rates):11.3f}")


if __name__ == "__main__":
    main()
