"""Pipeline planning: trained network in, programmed layer stack out.

`repro.fleet` serves one sharded layer; the workloads the paper's
story actually cares about — MNIST-like classification through a
hidden layer, BSB associative recall — are *multi-layer* (or
iterative) programs over crossbar reads.  This module turns a trained
network into a served product:

* :class:`PipelineConfig` is the frozen recipe (workload kind,
  dataset geometry, training hyper-parameters, fabric variation,
  tiling, read model) and doubles as the artifact cache key.
* :func:`program_pipeline` trains (or recalls from cache) the
  network, programs every layer once as its own
  :class:`~repro.fleet.plan.ProgrammedFleet` — tiled through
  :class:`~repro.xbar.tiling.TiledPair` when the layer is wider than a
  tile — calibrates the inter-layer digital gain, and snapshots the
  whole stack as a :class:`PipelineArtifact`.
* :class:`PipelineArtifact` persists bit-identically: the restored
  stack reproduces the programming-time hardware exactly, so the
  served forward pass can be checked against the offline
  :class:`~repro.nn.mlp.MLPOnCrossbars` / :func:`~repro.nn.bsb.bsb_recall`
  references float for float.

Layer probes chain: layer ``k+1``'s drift probes are the pipeline's
probe inputs *as transformed by the programmed layers before it*, so
every per-layer drift monitor watches the distribution the layer
actually serves.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data import Dataset, make_dataset
from repro.fleet.plan import FleetConfig, ProgrammedFleet, program_fleet
from repro.nn.bsb import BSBConfig, train_bsb_weights
from repro.nn.mlp import MLPConfig, MLPWeights, train_mlp
from repro.runtime.cache import ArtifactCache, stable_key
from repro.xbar.crossbar import validate_ir_mode

__all__ = [
    "PIPELINE_KINDS",
    "PipelineConfig",
    "PipelineArtifact",
    "bsb_prototypes",
    "pipeline_key",
    "program_pipeline",
    "trained_weights_key",
]

PIPELINE_KINDS = ("mlp", "bsb")


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a programmed pipeline.

    Frozen and hashable so it doubles as the artifact cache key
    (rule REP003): any field change produces a different key.

    Attributes:
        kind: Workload: ``'mlp'`` (two-layer classifier) or ``'bsb'``
            (auto-associative recall).
        image_size: Side length of the benchmark images (7/14/28).
        n_train: Training-sample count.
        hidden: MLP hidden-layer width (ignored for ``'bsb'``).
        epochs: MLP training epochs (ignored for ``'bsb'``).
        n_prototypes: Stored BSB patterns, one per digit class
            (ignored for ``'mlp'``).
        sigma: Persistent device variation of the fabricated tiles.
        r_wire: Wire resistance per crossbar segment (ohm).
        tile_rows: Rows per shard in every layer's fleet.
        seed: Master seed: dataset rendering, weight init, fabrication.
        ir_mode: Read-fidelity model the pipeline serves with.
        n_probes: Drift-monitor probe count per layer.
    """

    kind: str = "mlp"
    image_size: int = 7
    n_train: int = 300
    hidden: int = 32
    epochs: int = 200
    n_prototypes: int = 4
    sigma: float = 0.15
    r_wire: float = 0.0
    tile_rows: int = 32
    seed: int = 0
    ir_mode: str = "ideal"
    n_probes: int = 16

    def __post_init__(self) -> None:
        if self.kind not in PIPELINE_KINDS:
            raise ValueError(
                f"kind must be one of {PIPELINE_KINDS}, got {self.kind!r}"
            )
        if self.image_size not in (7, 14, 28):
            raise ValueError(
                f"image_size must be 7, 14 or 28, got {self.image_size}"
            )
        for field in ("n_train", "hidden", "epochs", "n_prototypes",
                      "tile_rows", "n_probes"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if self.n_probes > self.n_train:
            raise ValueError(
                f"n_probes ({self.n_probes}) cannot exceed n_train "
                f"({self.n_train})"
            )
        if self.n_prototypes > 10:
            raise ValueError(
                f"n_prototypes must be <= 10 digit classes, got "
                f"{self.n_prototypes}"
            )
        validate_ir_mode(self.ir_mode)

    @property
    def n_features(self) -> int:
        return self.image_size * self.image_size

    def mlp_config(self) -> MLPConfig:
        """The software training recipe this pipeline deploys."""
        return MLPConfig(
            hidden=self.hidden, epochs=self.epochs, seed=self.seed
        )

    def bsb_config(self) -> BSBConfig:
        """The recall dynamics this pipeline serves."""
        return BSBConfig()

    def dataset(self) -> Dataset:
        """Render the benchmark corpus the pipeline is built from."""
        data = make_dataset(
            n_train=self.n_train, n_test=2 * self.n_train,
            seed=self.seed,
        )
        if self.image_size != 28:
            data = data.undersampled(self.image_size)
        return data


def pipeline_key(config: PipelineConfig) -> str:
    """Stable cache key of the pipeline a config produces."""
    return stable_key("pipeline", {"config": config})


def trained_weights_key(config: PipelineConfig) -> str:
    """Stable cache key of the *software* training outcome.

    Keyed on the frozen training sub-config (:class:`MLPConfig` /
    :class:`BSBConfig`) plus the dataset recipe, so retraining is
    skipped whenever the pipeline fabric (sigma, tiling, ir_mode)
    changes but the network itself does not.
    """
    if config.kind == "mlp":
        training: object = config.mlp_config()
    else:
        training = config.bsb_config()
    return stable_key("pipeline_weights", {
        "kind": config.kind,
        "training": training,
        "image_size": config.image_size,
        "n_train": config.n_train,
        "n_prototypes": config.n_prototypes,
        "seed": config.seed,
    })


def _layer_key(manifest_key: str, layer_index: int) -> str:
    return stable_key(
        "pipeline_layer",
        {"pipeline": manifest_key, "layer": layer_index},
    )


def bsb_prototypes(dataset: Dataset, n_prototypes: int) -> np.ndarray:
    """Bipolar class prototypes: thresholded per-class pixel means.

    Ties the BSB workload to the same MNIST-like corpus the classifier
    serves: prototype ``c`` is the mean training image of digit ``c``,
    binarised to {-1, +1} at its own mean intensity.  Deterministic
    for a fixed dataset.
    """
    protos = []
    for label in range(n_prototypes):
        members = dataset.x_train[dataset.y_train == label]
        if members.shape[0] == 0:
            raise ValueError(
                f"dataset has no training samples of class {label}"
            )
        mean = members.mean(axis=0)
        protos.append(np.where(mean >= mean.mean(), 1.0, -1.0))
    return np.stack(protos, axis=0)


@dataclasses.dataclass
class PipelineArtifact:
    """A programmed pipeline: per-layer fleets plus the digital recipe.

    Attributes:
        config: The :class:`PipelineConfig` that produced the stack.
        layers: One :class:`~repro.fleet.plan.ProgrammedFleet` per
            weight layer, in forward order.
        scales: Digital restore gain per layer (``max |w|`` of the
            layer's logical weights; the fleet programs the normalised
            weights and the scale is re-applied after the read).
        hidden_gain: Calibrated inter-layer digital gain (MLP); 1.0
            for BSB.
        activation: Digital recipe between/around the reads.  For
            ``'mlp'``: ``{"kind": "relu_clip"}``.  For ``'bsb'``:
            ``{"kind": "bsb", "alpha", "lam", "max_iterations"}``.
        layer_weights: The exact logical (signed, unnormalised)
            weights each layer was programmed from — the offline
            reference is rebuilt from these, byte for byte.
        prototypes: Stored BSB patterns ``(k, n)`` (``None`` for MLP).
    """

    config: PipelineConfig
    layers: list[ProgrammedFleet]
    scales: list[float]
    hidden_gain: float
    activation: dict
    layer_weights: list[np.ndarray]
    prototypes: np.ndarray | None = None

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def shapes(self) -> list[tuple[int, int]]:
        """Logical (rows, cols) of every layer, in forward order."""
        return [fleet.shape for fleet in self.layers]

    def mlp_weights(self) -> MLPWeights:
        """The trained software parameters (MLP pipelines only)."""
        if self.config.kind != "mlp":
            raise ValueError("not an MLP pipeline")
        return MLPWeights(
            w1=self.layer_weights[0], w2=self.layer_weights[1]
        )

    def bsb_dynamics(self) -> BSBConfig:
        """The recall dynamics recorded at programming time."""
        if self.activation.get("kind") != "bsb":
            raise ValueError("not a BSB pipeline")
        return BSBConfig(
            alpha=float(self.activation["alpha"]),
            lam=float(self.activation["lam"]),
            max_iterations=int(self.activation["max_iterations"]),
        )

    # -- persistence ---------------------------------------------------
    def save(self, cache: ArtifactCache, key: str) -> str:
        """Persist the manifest, array payloads and every layer fleet."""
        for i, fleet in enumerate(self.layers):
            fleet.save(cache, _layer_key(key, i))
        arrays = {
            f"w{i}": np.asarray(w, dtype=float)
            for i, w in enumerate(self.layer_weights)
        }
        if self.prototypes is not None:
            arrays["prototypes"] = np.asarray(
                self.prototypes, dtype=float
            )
        cache.put_arrays(key, **arrays)
        cache.put_json(key, {
            "kind": "pipeline_manifest",
            "config": dataclasses.asdict(self.config),
            "n_layers": self.n_layers,
            "scales": [float(s) for s in self.scales],
            "hidden_gain": float(self.hidden_gain),
            "activation": self.activation,
        })
        return key

    @classmethod
    def load(cls, cache: ArtifactCache, key: str) -> "PipelineArtifact":
        """Load a pipeline; ``KeyError`` when any piece is missing."""
        doc = cache.get_json(key)
        if doc is None or doc.get("kind") != "pipeline_manifest":
            raise KeyError(f"no pipeline manifest under key {key!r}")
        arrays = cache.get_arrays(key)
        if arrays is None:
            raise KeyError(f"no pipeline arrays under key {key!r}")
        n_layers = int(doc["n_layers"])
        # Older manifests carry a "backend" field; numpy was the only
        # one that ever programmed or served, so it is dropped.
        fields = {k: v for k, v in doc["config"].items() if k != "backend"}
        return cls(
            config=PipelineConfig(**fields),
            layers=[
                ProgrammedFleet.load(cache, _layer_key(key, i))
                for i in range(n_layers)
            ],
            scales=[float(s) for s in doc["scales"]],
            hidden_gain=float(doc["hidden_gain"]),
            activation=dict(doc["activation"]),
            layer_weights=[arrays[f"w{i}"] for i in range(n_layers)],
            prototypes=arrays.get("prototypes"),
        )


def _trained_weights(
    config: PipelineConfig,
    dataset: Dataset,
    cache: ArtifactCache | None,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Train the software network, or recall it from the cache.

    Returns ``(layer_weights, prototypes)``; the cache round-trips the
    arrays bit-identically, so a cached pipeline programs the exact
    conductances a cold one would.
    """
    key = trained_weights_key(config)
    if cache is not None:
        cached = cache.get_arrays(key)
        if cached is not None:
            n = int(cached["n_layers"][0])
            return (
                [cached[f"w{i}"] for i in range(n)],
                cached.get("prototypes"),
            )
    if config.kind == "mlp":
        weights = train_mlp(
            dataset.x_train, dataset.y_train, n_classes=10,
            config=config.mlp_config(),
        )
        layer_weights = [weights.w1, weights.w2]
        prototypes = None
    else:
        prototypes = bsb_prototypes(dataset, config.n_prototypes)
        layer_weights = [
            train_bsb_weights(prototypes, config.bsb_config())
        ]
    if cache is not None:
        arrays = {
            f"w{i}": w for i, w in enumerate(layer_weights)
        }
        arrays["n_layers"] = np.array([len(layer_weights)])
        if prototypes is not None:
            arrays["prototypes"] = prototypes
        cache.put_arrays(key, **arrays)
    return layer_weights, prototypes


def program_pipeline(
    config: PipelineConfig,
    dataset: Dataset | None = None,
    cache: ArtifactCache | None = None,
) -> PipelineArtifact:
    """Train, program and snapshot a full inference pipeline.

    Each layer is fabricated and programmed as its own
    :class:`~repro.fleet.plan.ProgrammedFleet` (layer ``k`` seeds its
    fabric with ``config.seed + k``, so layers carry independent
    variation draws).  Drift probes chain through the *programmed*
    hardware: layer ``k+1`` is probed with layer ``k``'s calibrated
    outputs on the pipeline probe inputs, which is exactly what it
    will see in serving.

    Args:
        config: The pipeline recipe.
        dataset: Pre-rendered corpus override; rendered from the
            config when omitted (same seed, same corpus).
        cache: Optional artifact cache: trained software weights are
            recalled from it, and the finished artifact is stored
            under :func:`pipeline_key`.
    """
    if dataset is None:
        dataset = config.dataset()
    if dataset.n_features != config.n_features:
        raise ValueError(
            f"dataset features {dataset.n_features} != config "
            f"image_size^2 ({config.n_features})"
        )
    layer_weights, prototypes = _trained_weights(config, dataset, cache)

    def layer_fleet(index: int, w: np.ndarray,
                    probes: np.ndarray) -> ProgrammedFleet:
        fleet_config = FleetConfig(
            n_rows=w.shape[0],
            cols=w.shape[1],
            tile_rows=config.tile_rows,
            sigma=config.sigma,
            r_wire=config.r_wire,
            seed=config.seed + index,
            ir_mode=config.ir_mode,
            n_probes=probes.shape[0],
        )
        return program_fleet(fleet_config, w, probes=probes)

    scales = [
        float(np.max(np.abs(w))) or 1.0 for w in layer_weights
    ]
    if config.kind == "mlp":
        probes0 = dataset.x_train[: config.n_probes].copy()
        fleet0 = layer_fleet(0, layer_weights[0], probes0)
        tiled0 = fleet0.build_tiled()
        # Calibrate the inter-layer gain on the training inputs, read
        # through the *programmed* first layer — the same 0.999-quantile
        # rule MLPOnCrossbars.program applies.
        hidden_cal = np.maximum(
            tiled0.matvec(dataset.x_train, config.ir_mode) * scales[0],
            0.0,
        )
        peak = float(np.quantile(hidden_cal, 0.999))
        hidden_gain = 1.0 / peak if peak > 0 else 1.0
        probes1 = np.clip(
            np.maximum(
                tiled0.matvec(probes0, config.ir_mode) * scales[0], 0.0
            ) * hidden_gain,
            0.0, 1.0,
        )
        fleets = [fleet0, layer_fleet(1, layer_weights[1], probes1)]
        activation = {"kind": "relu_clip"}
    else:
        # BSB states are bipolar; the drift probes are the two
        # word-line drive phases of the stored prototypes, which is
        # what recall traffic actually applies to the array.
        probes0 = np.concatenate([
            np.clip(prototypes, 0.0, 1.0),
            np.clip(-prototypes, 0.0, 1.0),
        ], axis=0)
        fleets = [layer_fleet(0, layer_weights[0], probes0)]
        dynamics = config.bsb_config()
        hidden_gain = 1.0
        activation = {
            "kind": "bsb",
            "alpha": dynamics.alpha,
            "lam": dynamics.lam,
            "max_iterations": dynamics.max_iterations,
        }

    artifact = PipelineArtifact(
        config=config,
        layers=fleets,
        scales=scales,
        hidden_gain=hidden_gain,
        activation=activation,
        layer_weights=[np.asarray(w, dtype=float)
                       for w in layer_weights],
        prototypes=prototypes,
    )
    if cache is not None:
        artifact.save(cache, pipeline_key(config))
    return artifact
