"""Shard planning: one large layer, many per-tile artifacts.

`repro.serve` deploys exactly one differential pair; anything wider
than a single array has nowhere to run.  The fleet layer starts here:
a :class:`FleetConfig` describes one large logical layer, and
:func:`program_fleet` fabricates it as a
:class:`~repro.xbar.tiling.TiledPair` (one shared
:class:`~repro.xbar.mapping.WeightScaler`, so the digital sum across
shards stays meaningful), programs it, and snapshots every tile as its
own :class:`~repro.serve.artifact.ProgrammedArray` — the same bundle
format single-array serving uses, so each shard restores, serves and
drift-monitors with the existing machinery.

Per-shard probe baselines are the tile's *partial* outputs
(:meth:`TiledPair.partial_matvec`), not the full layer outputs, so a
drift monitor can judge every tile on its own: one aged tile among
many is not diluted by the healthy ones.

:class:`ProgrammedFleet` is the persisted plan — the config plus the
ordered shard bundles — and can rebuild the equivalent single
``TiledPair`` (:meth:`ProgrammedFleet.build_tiled`), which is the
bit-identity reference the router is tested against.  It also offers
the few artifact members a serving lane reads (``build_pair``,
``restore``, ``probes``, ``baseline``, ``ir_mode``, ``mapping``,
``metadata``), so every fleet replica is one
:class:`~repro.serve.service.CrossbarService` over a whole
``TiledPair``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import CrossbarConfig, DeviceConfig, VariationConfig
from repro.core.amp import RowMapping
from repro.runtime.cache import ArtifactCache, stable_key
from repro.seeding import ensure_rng
from repro.serve.artifact import ProgrammedArray
from repro.xbar.crossbar import validate_ir_mode
from repro.xbar.mapping import WeightScaler
from repro.xbar.tiling import TiledPair, split_rows

__all__ = [
    "FleetConfig",
    "ProgrammedFleet",
    "fleet_key",
    "program_fleet",
]


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Everything that determines a programmed fleet's hardware.

    Frozen and hashable so it doubles as the artifact cache key: any
    field change produces a different key (rule REP003).

    Attributes:
        n_rows: Logical input width of the sharded layer.
        cols: Output columns (shared by every shard).
        tile_rows: Rows per shard; the last shard may be smaller.
        sigma: Persistent device variation of the fabricated tiles.
        r_wire: Wire resistance per crossbar segment (ohm).
        seed: Master seed for fabrication and probe generation.
        ir_mode: Read-fidelity model every shard serves with.
        n_probes: Drift-monitor probe count (full-width probes; each
            shard keeps its row slice).
    """

    n_rows: int
    cols: int = 10
    tile_rows: int = 32
    sigma: float = 0.15
    r_wire: float = 0.0
    seed: int = 0
    ir_mode: str = "ideal"
    n_probes: int = 16

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {self.n_rows}")
        if self.cols < 1:
            raise ValueError(f"cols must be >= 1, got {self.cols}")
        if self.tile_rows < 1:
            raise ValueError(
                f"tile_rows must be >= 1, got {self.tile_rows}"
            )
        if self.n_probes < 1:
            raise ValueError(
                f"n_probes must be >= 1, got {self.n_probes}"
            )
        validate_ir_mode(self.ir_mode)

    @property
    def ranges(self) -> list[tuple[int, int]]:
        """Row range of every shard, in shard order."""
        return split_rows(self.n_rows, self.tile_rows)

    @property
    def n_shards(self) -> int:
        return len(self.ranges)


def fleet_key(config: FleetConfig, weights: np.ndarray) -> str:
    """Stable cache key of the fleet a (config, weights) pair produces."""
    return stable_key(
        "fleet", {"config": config, "weights": np.asarray(weights)}
    )


def _shard_key(manifest_key: str, shard_index: int) -> str:
    return stable_key(
        "fleet_shard", {"fleet": manifest_key, "shard": shard_index}
    )


@dataclasses.dataclass
class ProgrammedFleet:
    """A programmed shard plan: the config plus ordered tile bundles.

    Attributes:
        config: The :class:`FleetConfig` that produced the fleet.
        shards: One :class:`~repro.serve.artifact.ProgrammedArray` per
            row range, in shard order.  Shard ``i`` covers rows
            ``config.ranges[i]``; its probes/baseline are its row slice
            of the fleet probes and its *partial* contribution to the
            fleet baseline.
    """

    config: FleetConfig
    shards: list[ProgrammedArray]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return self.config.ranges

    @property
    def shape(self) -> tuple[int, int]:
        return (self.config.n_rows, self.config.cols)

    # -- the artifact members a serving lane reads --------------------
    scheme = "fleet"
    # A fleet routes inputs straight to the tile rows: the engine's
    # identity routing.
    mapping = None

    @property
    def ir_mode(self) -> str:
        return self.config.ir_mode

    @property
    def metadata(self) -> dict:
        """Provenance a lane reads: the seed of its repair draws."""
        return {"scheme": self.scheme, "seed": self.config.seed}

    @property
    def probes(self) -> np.ndarray:
        """Full-width probe inputs, reassembled from the shard slices."""
        return np.concatenate(
            [shard.probes for shard in self.shards], axis=1
        )

    @property
    def baseline(self) -> list[np.ndarray]:
        """Programming-time probe outputs, one partial per shard.

        Their left-to-right reduction is the full layer's baseline; a
        drift monitor compares each tile to its own part.
        """
        return [shard.baseline for shard in self.shards]

    def restore(self, tiled: TiledPair) -> None:
        """Reprogram every tile of ``tiled`` to its shard snapshot."""
        for tile, shard in zip(tiled.tiles, self.shards):
            shard.restore(tile)

    # -- persistence ---------------------------------------------------
    def save(self, cache: ArtifactCache, key: str) -> str:
        """Persist the manifest and every shard bundle under ``key``."""
        for i, shard in enumerate(self.shards):
            shard.save(cache, _shard_key(key, i))
        cache.put_json(
            key,
            {
                "kind": "fleet_manifest",
                "config": dataclasses.asdict(self.config),
                "n_shards": self.n_shards,
            },
        )
        return key

    @classmethod
    def load(cls, cache: ArtifactCache, key: str) -> "ProgrammedFleet":
        """Load a fleet; raises ``KeyError`` when any piece is missing."""
        doc = cache.get_json(key)
        if doc is None or doc.get("kind") != "fleet_manifest":
            raise KeyError(f"no fleet manifest under key {key!r}")
        # Older manifests carry a "backend" field; numpy was the only
        # one that ever programmed or served, so it is dropped.
        fields = {k: v for k, v in doc["config"].items() if k != "backend"}
        config = FleetConfig(**fields)
        shards = [
            ProgrammedArray.load(cache, _shard_key(key, i))
            for i in range(int(doc["n_shards"]))
        ]
        return cls(config=config, shards=shards)

    # -- reconstruction ------------------------------------------------
    def build_tiled(self) -> TiledPair:
        """The single-machine equivalent of the fleet, bit-for-bit.

        Rebuilds one :class:`~repro.xbar.tiling.TiledPair` whose tiles
        adopt the shard snapshots noise-free.  Its ``matvec`` is the
        ground truth the scatter-gather router must reproduce exactly.
        """
        c = self.config
        first = self.shards[0]
        device = DeviceConfig(**first.metadata["device"])
        tiled = TiledPair(
            WeightScaler(first.w_max, device),
            n_rows=c.n_rows,
            cols=c.cols,
            tile_rows=c.tile_rows,
            config=CrossbarConfig(
                rows=c.n_rows, cols=c.cols, r_wire=c.r_wire
            ),
            device=device,
            variation=VariationConfig(sigma=0.0, sigma_cycle=0.0),
            rng=np.random.default_rng(0),
        )
        self.restore(tiled)
        if c.ir_mode == "reference":
            tiled.set_reference_input(
                np.concatenate([s.x_mean for s in self.shards])
            )
        return tiled

    # A fleet replica lane serves the whole rebuilt layer.
    build_pair = build_tiled


def program_fleet(
    config: FleetConfig,
    weights: np.ndarray,
    probes: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> ProgrammedFleet:
    """Fabricate, program and snapshot a sharded layer per ``config``.

    Args:
        config: Geometry, variation and serving parameters.
        weights: Signed logical weights ``(n_rows, cols)``.  Normalised
            globally (one peak across the whole layer), exactly as
            :meth:`TiledPair.program_weights` does.
        probes: Optional drift probes ``(p, n_rows)`` in [0, 1]; drawn
            uniformly from ``rng`` when omitted.
        rng: Randomness override; derived from ``config.seed`` when
            omitted, so identical inputs produce identical fleets.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (config.n_rows, config.cols):
        raise ValueError(
            f"weights shape {w.shape} != fleet shape "
            f"{(config.n_rows, config.cols)}"
        )
    if rng is None:
        rng = np.random.default_rng(config.seed)
    rng = ensure_rng(rng, "repro.fleet.plan.program_fleet")

    device = DeviceConfig()
    scaler = WeightScaler(1.0, device)
    tiled = TiledPair(
        scaler,
        n_rows=config.n_rows,
        cols=config.cols,
        tile_rows=config.tile_rows,
        config=CrossbarConfig(
            rows=config.n_rows, cols=config.cols, r_wire=config.r_wire
        ),
        device=device,
        variation=VariationConfig(sigma=config.sigma),
        rng=rng,
    )
    tiled.program_weights(w)

    if probes is None:
        probes = rng.random((config.n_probes, config.n_rows))
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != config.n_rows:
        raise ValueError(
            f"probes must be (p, {config.n_rows}), got {probes.shape}"
        )

    if config.ir_mode == "reference":
        tiled.set_reference_input(probes.mean(axis=0))
    partials = tiled.partial_matvec(probes, config.ir_mode)

    peak = float(np.max(np.abs(w)))
    w_norm = w * (scaler.w_max / peak) if peak > 0 else w

    shards = []
    for i, ((start, stop), tile) in enumerate(
        zip(config.ranges, tiled.tiles)
    ):
        rows = stop - start
        shards.append(
            ProgrammedArray.snapshot(
                tile,
                ir_mode=config.ir_mode,
                weights=w_norm[start:stop].copy(),
                mapping=RowMapping(
                    assignment=np.arange(rows), n_physical=rows
                ),
                x_mean=probes[:, start:stop].mean(axis=0),
                probes=probes[:, start:stop].copy(),
                baseline=partials[i],
                provenance={
                    "scheme": "fleet",
                    "sigma": config.sigma,
                    "seed": config.seed,
                    "shard_index": i,
                    "row_start": start,
                    "row_stop": stop,
                    "n_shards": config.n_shards,
                },
            )
        )
    return ProgrammedFleet(config=config, shards=shards)
