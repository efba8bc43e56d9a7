"""Programmed-array artifacts: persist and restore deployed crossbars.

Training and programming a crossbar is expensive (pre-test, gamma
tuning, AMP, open-loop programming); serving it should not repeat any
of that.  A :class:`ProgrammedArray` is the complete deployment bundle
of one programmed differential pair -- the achieved conductances, the
AMP input permutation, the ground-truth device variation and defect
maps, the calibrated gains, and a probe set with its programming-time
baseline outputs -- stored through the artifact cache under a stable
key derived from the :class:`ProgramConfig` that produced it.

Every snapshot is taken one way (:meth:`ProgrammedArray.snapshot`,
used for a single array and for every fleet shard) and restored one
way (:meth:`ProgrammedArray.restore`).  Restoring is exact:
:meth:`ProgrammedArray.build_pair` reconstructs the hardware and
adopts the snapshot state noise-free, so a serving process sees
bit-for-bit the array the programming run left behind.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense
from repro.config import CrossbarConfig, DeviceConfig, VariationConfig
from repro.core.amp import RowMapping
from repro.core.base import HardwareSpec, build_pair
from repro.core.cld import train_cld
from repro.core.old import program_pair_open_loop, train_old
from repro.core.vortex import run_vortex
from repro.data import make_dataset
from repro.runtime.cache import ArtifactCache, stable_key
from repro.seeding import ensure_rng
from repro.xbar.crossbar import validate_ir_mode
from repro.xbar.mapping import WeightScaler
from repro.xbar.pair import DifferentialCrossbar

__all__ = [
    "ProgramConfig",
    "ProgrammedArray",
    "artifact_key",
    "program_array",
]

SCHEMES = ("vortex", "old", "cld")


@dataclasses.dataclass(frozen=True)
class ProgramConfig:
    """Everything that determines a programmed-array artifact.

    Frozen and hashable so it doubles as the artifact cache key (rule
    REP003): any field change produces a different key, and a re-run
    with identical settings is a pure cache read.

    Attributes:
        scheme: Training scheme: ``'vortex'``, ``'old'`` or ``'cld'``.
        image_size: Benchmark resolution (7, 14 or 28).
        n_train: Training samples.
        sigma: Persistent device variation of the fabricated pair.
        r_wire: Wire resistance per crossbar segment (ohm).
        redundancy: Extra physical rows for AMP to choose from
            (ignored by CLD, which trains the fabric in place).
        seed: Master seed for fabrication, pre-test and training.
        ir_mode: Read-fidelity model used at serving time.
        n_probes: Size of the drift-monitor probe set.
    """

    scheme: str = "vortex"
    image_size: int = 7
    n_train: int = 300
    sigma: float = 0.3
    r_wire: float = 0.0
    redundancy: int = 8
    seed: int = 0
    ir_mode: str = "ideal"
    n_probes: int = 32

    def __post_init__(self) -> None:
        validate_ir_mode(self.ir_mode)


def artifact_key(config: ProgramConfig) -> str:
    """Stable cache key of the artifact a config produces."""
    return stable_key("programmed_array", {"config": config})


# The array fields of a snapshot, in their ``.npz`` order.
_ARRAY_FIELDS = (
    "weights", "assignment", "g_pos", "g_neg", "theta_pos", "theta_neg",
    "defects_pos", "defects_neg", "x_mean", "probes", "baseline",
)


@dataclasses.dataclass
class ProgrammedArray:
    """Deployment snapshot of one programmed differential pair.

    Attributes:
        scheme: Training scheme that produced the array.
        w_max: Weight magnitude mapped to full conductance.
        ir_mode: Read model the array was deployed for.
        weights: Logical weight matrix ``(n_logical, cols)``.
        assignment: AMP permutation ``assignment[p] = q``.
        n_physical: Physical rows (>= logical rows).
        g_pos: Achieved positive-array conductances ``(n_physical, cols)``.
        g_neg: Achieved negative-array conductances.
        theta_pos: Ground-truth persistent variation, positive array.
        theta_neg: Ground-truth persistent variation, negative array.
        defects_pos: Stuck-at defect map, positive array.
        defects_neg: Stuck-at defect map, negative array.
        x_mean: Mean input activity per logical feature.
        probes: Drift-monitor probe inputs ``(p, n_logical)``.
        baseline: Programming-time probe outputs ``(p, cols)`` -- the
            reference the drift monitor compares against.
        digital_gains: Calibrated per-column gains, or ``None``.
        metadata: Hardware description (crossbar/device/ADC fields)
            plus provenance (seed, training rate, gamma).
    """

    scheme: str
    w_max: float
    ir_mode: str
    weights: np.ndarray
    assignment: np.ndarray
    n_physical: int
    g_pos: np.ndarray
    g_neg: np.ndarray
    theta_pos: np.ndarray
    theta_neg: np.ndarray
    defects_pos: np.ndarray
    defects_neg: np.ndarray
    x_mean: np.ndarray
    probes: np.ndarray
    baseline: np.ndarray
    digital_gains: np.ndarray | None
    metadata: dict

    @classmethod
    def snapshot(
        cls,
        pair: DifferentialCrossbar,
        *,
        ir_mode: str,
        weights: np.ndarray,
        mapping: RowMapping,
        x_mean: np.ndarray,
        probes: np.ndarray,
        baseline: np.ndarray,
        provenance: dict,
    ) -> "ProgrammedArray":
        """Freeze a programmed pair into a deployment snapshot.

        The device state (conductances, variation and defect maps,
        digital gains) is copied off ``pair``; the metadata records its
        hardware description (crossbar, device, ADC) followed by
        ``provenance``, whose ``"scheme"`` names the snapshot's scheme.
        """
        adc = None
        if pair.diff_sense is not None and pair.diff_sense.adc is not None:
            a = pair.diff_sense.adc
            adc = {
                "bits": a.bits, "full_scale": a.full_scale,
                "bipolar": a.bipolar,
            }
        return cls(
            scheme=provenance["scheme"],
            w_max=pair.scaler.w_max,
            ir_mode=ir_mode,
            weights=np.asarray(weights, dtype=float),
            assignment=mapping.assignment.copy(),
            n_physical=mapping.n_physical,
            g_pos=pair.positive.array.conductance.copy(),
            g_neg=pair.negative.array.conductance.copy(),
            theta_pos=pair.positive.array.theta.copy(),
            theta_neg=pair.negative.array.theta.copy(),
            defects_pos=pair.positive.array.defects.copy(),
            defects_neg=pair.negative.array.defects.copy(),
            x_mean=x_mean,
            probes=probes,
            baseline=np.asarray(baseline, dtype=float),
            digital_gains=(
                None if pair.digital_gains is None
                else pair.digital_gains.copy()
            ),
            metadata={
                "crossbar": dataclasses.asdict(pair.config),
                "device": dataclasses.asdict(pair.positive.device),
                "adc": adc,
                **provenance,
            },
        )

    @property
    def mapping(self) -> RowMapping:
        """The AMP row assignment as a routing object."""
        return RowMapping(
            assignment=self.assignment, n_physical=self.n_physical
        )

    @property
    def n_logical(self) -> int:
        return int(self.assignment.size)

    # -- persistence ---------------------------------------------------
    def save(self, cache: ArtifactCache, key: str) -> str:
        """Persist the bundle under ``key`` (one ``.npz`` + one ``.json``)."""
        arrays = {name: getattr(self, name) for name in _ARRAY_FIELDS}
        if self.digital_gains is not None:
            arrays["digital_gains"] = self.digital_gains
        cache.put_arrays(key, **arrays)
        cache.put_json(
            key,
            {
                "scheme": self.scheme,
                "w_max": self.w_max,
                "ir_mode": self.ir_mode,
                "n_physical": self.n_physical,
                "metadata": self.metadata,
            },
        )
        return key

    @classmethod
    def load(cls, cache: ArtifactCache, key: str) -> "ProgrammedArray":
        """Load a bundle; raises ``KeyError`` when either half is missing."""
        doc = cache.get_json(key)
        arrays = cache.get_arrays(key)
        if doc is None or arrays is None:
            raise KeyError(f"no programmed-array artifact under key {key!r}")
        fields = {name: arrays[name] for name in _ARRAY_FIELDS}
        fields["assignment"] = fields["assignment"].astype(int)
        return cls(
            scheme=doc["scheme"],
            w_max=float(doc["w_max"]),
            ir_mode=doc["ir_mode"],
            n_physical=int(doc["n_physical"]),
            digital_gains=arrays.get("digital_gains"),
            metadata=doc["metadata"],
            **fields,
        )

    # -- reconstruction ------------------------------------------------
    def restore(self, pair: DifferentialCrossbar) -> None:
        """Return ``pair``'s devices to the snapshot state, noise-free.

        Conductances, variation maps and defect maps are adopted
        exactly, without programming stochasticity.
        """
        pair.restore_conductances(
            self.g_pos, self.g_neg,
            theta_pos=self.theta_pos, theta_neg=self.theta_neg,
            defects_pos=self.defects_pos, defects_neg=self.defects_neg,
        )

    def build_pair(self) -> DifferentialCrossbar:
        """Reconstruct the programmed hardware, bit-for-bit.

        A fresh pair is fabricated from the recorded hardware
        description (the fabrication draw is irrelevant -- it is
        immediately overwritten), then every array adopts the snapshot
        conductances, variation maps and defect maps noise-free via
        :meth:`restore`.
        """
        m = self.metadata
        device = DeviceConfig(**m["device"])
        # Older snapshots pin a "nodal_solver" ("lu", "schur", "cg" or
        # None); sparse LU is now the only one and answers the same
        # circuit, so the field is dropped.
        config = CrossbarConfig(**{
            k: v for k, v in m["crossbar"].items() if k != "nodal_solver"
        })
        scaler = WeightScaler(self.w_max, device)
        diff_sense = None
        if m.get("adc") is not None:
            adc = ADC(
                int(m["adc"]["bits"]),
                float(m["adc"]["full_scale"]),
                bipolar=bool(m["adc"]["bipolar"]),
            )
            diff_sense = CurrentSense(adc=adc)
        pair = DifferentialCrossbar(
            scaler=scaler,
            config=config,
            device=device,
            variation=VariationConfig(sigma=0.0, sigma_cycle=0.0),
            rng=np.random.default_rng(0),
            diff_sense=diff_sense,
        )
        self.restore(pair)
        if self.digital_gains is not None:
            pair.digital_gains = np.asarray(self.digital_gains, dtype=float)
        if self.ir_mode == "reference":
            pair.set_reference_input(
                self.mapping.inputs_to_physical(self.x_mean)
            )
        return pair


def program_array(
    config: ProgramConfig,
    rng: np.random.Generator | None = None,
) -> ProgrammedArray:
    """Train, program and snapshot a crossbar per ``config``.

    Runs the configured scheme end to end on a freshly fabricated
    pair, replays the probe set through the deployment read path to
    record the programming-time baseline, and packages everything a
    serving process needs into a :class:`ProgrammedArray`.

    Args:
        config: What to program (scheme, scale, variation, seed).
        rng: Randomness override; derived from ``config.seed`` when
            omitted, so identical configs produce identical artifacts.
    """
    if config.scheme not in SCHEMES:
        raise ValueError(
            f"scheme must be one of {SCHEMES}, got {config.scheme!r}"
        )
    if rng is None:
        rng = np.random.default_rng(config.seed)
    rng = ensure_rng(rng, "repro.serve.artifact.program_array")

    dataset = make_dataset(
        n_train=config.n_train, n_test=64, seed=config.seed
    )
    if config.image_size != 28:
        dataset = dataset.undersampled(config.image_size)
    n_features = dataset.n_features
    x_train = dataset.x_train
    x_mean = x_train.mean(axis=0)

    spec = HardwareSpec(
        variation=VariationConfig(sigma=config.sigma),
        crossbar=CrossbarConfig(
            rows=n_features, cols=10, r_wire=config.r_wire
        ),
        ir_mode=config.ir_mode,
    )
    scaler = WeightScaler(1.0, spec.device)
    extra: dict = {}

    if config.scheme == "cld":
        # CLD trains the fabric itself; inputs already address physical
        # rows, so redundancy has nothing to choose from.
        pair = build_pair(spec, scaler, rng, rows=n_features)
        outcome = train_cld(
            pair, x_train, dataset.y_train, n_classes=10, rng=rng
        )
        weights = outcome.weights
        mapping = RowMapping(
            assignment=np.arange(n_features), n_physical=n_features
        )
        extra["training_rate"] = outcome.training_rate
    elif config.scheme == "old":
        pair = build_pair(
            spec, scaler, rng, rows=n_features + config.redundancy
        )
        outcome = train_old(x_train, dataset.y_train, n_classes=10)
        weights = outcome.weights
        mapping = RowMapping(
            assignment=np.arange(n_features),
            n_physical=n_features + config.redundancy,
        )
        program_pair_open_loop(
            pair,
            mapping.weights_to_physical(weights),
            x_reference=mapping.inputs_to_physical(x_mean),
        )
        extra["training_rate"] = outcome.training_rate
    else:  # vortex
        pair = build_pair(
            spec, scaler, rng, rows=n_features + config.redundancy
        )
        result = run_vortex(
            pair, x_train, dataset.y_train, n_classes=10, rng=rng
        )
        weights = result.weights
        mapping = result.mapping
        extra.update(
            training_rate=result.training_rate,
            gamma=result.gamma,
            sigma_effective=result.sigma_effective,
        )

    probes = x_train[: min(config.n_probes, x_train.shape[0])].copy()
    # Deployment-time calibration: range the sense chain to the probe
    # traffic before recording the baseline the monitor compares to.
    pair.calibrate_sense(mapping.inputs_to_physical(probes))
    baseline = pair.matvec(
        mapping.inputs_to_physical(probes), config.ir_mode
    )

    return ProgrammedArray.snapshot(
        pair,
        ir_mode=config.ir_mode,
        weights=weights,
        mapping=mapping,
        x_mean=x_mean,
        probes=probes,
        baseline=baseline,
        provenance={
            "scheme": config.scheme,
            "sigma": config.sigma,
            "image_size": config.image_size,
            "seed": config.seed,
            **extra,
        },
    )
