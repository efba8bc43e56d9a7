"""Shared types and hardware-evaluation harness for the training schemes.

All three schemes (OLD, CLD, Vortex) are ultimately judged the same
way: program a *fabricated* (variation-bearing) differential crossbar
pair, run the test samples through the hardware read path, and report
the classification rate (the paper's "test rate").  This module owns
that common machinery so every experiment compares schemes on an
identical footing.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.circuits.adc import ADC
from repro.circuits.sensing import CurrentSense
from repro.config import (
    CrossbarConfig,
    DeviceConfig,
    SensingConfig,
    VariationConfig,
)
from repro.nn.metrics import rate_from_scores
from repro.xbar.crossbar import trial_stacked_matmul, validate_ir_mode
from repro.xbar.mapping import WeightScaler
from repro.xbar.pair import DifferentialCrossbar

if TYPE_CHECKING:
    from repro.core.amp import RowMapping

# One programmed state of a Monte-Carlo trial: the pair as programmed,
# and the AMP mapping its inputs go through (``None`` for identity).
Slot = tuple[DifferentialCrossbar, "RowMapping | None"]

__all__ = [
    "HardwareSpec",
    "TrainingOutcome",
    "build_pair",
    "hardware_test_rate",
    "batched_hardware_test_rates",
    "slot_rates",
    "batched_slot_rates",
    "ideal_read_path",
]


@dataclasses.dataclass(frozen=True)
class HardwareSpec:
    """Everything that defines the hardware platform of an experiment.

    Attributes:
        device: Nominal memristor parameters.
        variation: Variability statistics of the fabrication process.
        crossbar: Geometry and wire resistance.
        sensing: ADC resolution and pre-test repeat count.
        ir_mode: Read-fidelity model used for inference
            (see :data:`repro.xbar.crossbar.IR_MODES`).
        quantize_read: Apply the ADC to inference reads as well (the
            paper's computation path always senses through the ADC).
        score_headroom: Differential-ADC range sizing: the converter
            covers differential currents up to
            ``v_read * g_range * rows * score_headroom`` -- i.e. the
            output swing of a column whose average active weight
            magnitude is ``score_headroom`` of full scale.  Matching
            the converter to the realistic signal swing (instead of the
            all-devices-on worst case) is what makes a 6-bit ADC
            workable, as the paper's setup assumes.
    """

    device: DeviceConfig = dataclasses.field(default_factory=DeviceConfig)
    variation: VariationConfig = dataclasses.field(
        default_factory=VariationConfig
    )
    crossbar: CrossbarConfig = dataclasses.field(
        default_factory=CrossbarConfig
    )
    sensing: SensingConfig = dataclasses.field(default_factory=SensingConfig)
    ir_mode: str = "ideal"
    quantize_read: bool = True
    score_headroom: float = 0.02

    def __post_init__(self) -> None:
        validate_ir_mode(self.ir_mode)

    def with_rows(self, rows: int) -> "HardwareSpec":
        """Copy of the spec with a different crossbar row count."""
        return dataclasses.replace(
            self, crossbar=dataclasses.replace(self.crossbar, rows=rows)
        )

    def diff_adc(self, rows: int | None = None) -> ADC | None:
        """Bipolar ADC for the differential read path, or ``None``."""
        if not self.quantize_read:
            return None
        n = rows if rows is not None else self.crossbar.rows
        full_scale = (
            self.crossbar.v_read
            * self.device.g_range
            * n
            * self.score_headroom
        )
        return ADC(self.sensing.adc_bits, full_scale, bipolar=True)

    def pretest_adc(self) -> ADC:
        """ADC instance for single-cell pre-test reads.

        Pre-testing senses one device at a time, so the converter range
        only has to cover a single on-state device current.
        """
        full_scale = (
            self.crossbar.v_read
            * self.device.g_on
            * self.sensing.full_scale_margin
        )
        return ADC(self.sensing.adc_bits, full_scale)


@dataclasses.dataclass
class TrainingOutcome:
    """Common result record of any training scheme.

    Attributes:
        weights: The weight matrix in software (target) form, shape
            ``(rows, cols)`` of the *physical* crossbar.
        training_rate: Classification rate on the training samples.
        diagnostics: Scheme-specific extras (loss curves, chosen gamma,
            mapping permutation, ...).
    """

    weights: np.ndarray
    training_rate: float
    diagnostics: dict = dataclasses.field(default_factory=dict)


def build_pair(
    spec: HardwareSpec,
    scaler: WeightScaler,
    rng: np.random.Generator,
    rows: int | None = None,
) -> DifferentialCrossbar:
    """Fabricate a differential pair according to a hardware spec.

    Args:
        spec: Hardware platform description.
        scaler: Weight <-> conductance map for the pair.
        rng: Fabrication randomness (persistent variation draws).
        rows: Optional row-count override (e.g. redundancy rows).
    """
    config = spec.crossbar
    if rows is not None:
        config = dataclasses.replace(config, rows=rows)
    diff_sense = None
    # The converter range is sized to the workload's signal swing --
    # the spec's logical row count -- not to the physical row count:
    # redundancy rows idle at the g_off baseline and add no swing.
    adc = spec.diff_adc(spec.crossbar.rows)
    if adc is not None:
        diff_sense = CurrentSense(adc=adc)
    return DifferentialCrossbar(
        scaler=scaler,
        config=config,
        device=spec.device,
        variation=spec.variation,
        rng=rng,
        diff_sense=diff_sense,
    )


def hardware_test_rate(
    pair: DifferentialCrossbar,
    x: np.ndarray,
    labels: np.ndarray,
    ir_mode: str,
    input_map: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Test rate of a programmed pair through the hardware read path.

    Args:
        pair: Programmed differential crossbar.
        x: Test inputs ``(s, n_logical)`` in [0, 1].
        labels: Integer test labels.
        ir_mode: Read fidelity.
        input_map: Optional routing of logical inputs onto physical
            rows (used by AMP); identity when omitted.
    """
    x_phys = np.asarray(x, dtype=float)
    if input_map is not None:
        x_phys = input_map(x_phys)
    if x_phys.ndim == 2:
        # Post-programming calibration, as a real deployment performs:
        # the fast read model learns the workload's input statistics
        # and the sense chain auto-ranges to the observed signal swing.
        if ir_mode == "reference":
            pair.set_reference_input(x_phys.mean(axis=0))
        pair.calibrate_sense(x_phys[: min(len(x_phys), 256)])
    scores = pair.matvec(x_phys, ir_mode)
    return rate_from_scores(scores, labels)


def ideal_read_path(spec: HardwareSpec) -> bool:
    """Whether inference reads reduce to the plain einsum branch.

    True exactly when :meth:`repro.xbar.crossbar.Crossbar.read` takes
    its first (ideal) branch for this spec's ``ir_mode`` -- the regime
    the batched Monte-Carlo evaluator replicates.
    """
    return spec.ir_mode == "ideal" or spec.crossbar.r_wire == 0


def batched_hardware_test_rates(  # repro-lint: batch-invariant
    g_pos: np.ndarray,
    g_neg: np.ndarray,
    x: np.ndarray,
    labels: np.ndarray,
    spec: HardwareSpec,
    scaler: WeightScaler,
    trial_block: int = 16,
) -> np.ndarray:
    """Test rates of a stack of programmed pairs, one hardware pass.

    The Monte-Carlo ensemble counterpart of :func:`hardware_test_rate`
    for the ideal read path (:func:`ideal_read_path` must hold):
    ``g_pos``/``g_neg`` carry the snapshot conductances of ``T``
    fabricated-and-programmed pairs, and the whole ensemble is pushed
    through the read chain at once -- fixed-accumulation einsum matvec,
    per-trial sense auto-ranging (the ``calibrate_sense`` quantile and
    floor), per-trial bipolar ADC quantisation, weight-domain scaling,
    argmax.  Every step is elementwise, a trailing-axes reduction, or a
    per-slice einsum, so trial ``t`` of the result equals programming a
    single pair with those conductances and calling
    :func:`hardware_test_rate` -- bit-for-bit.

    Digital gain calibration is not modelled here: callers must only
    snapshot pairs whose ``digital_gains`` are unset (true for every
    ideal-read experiment; the open-loop calibration is gated on
    ``r_wire > 0``).

    Args:
        g_pos: Positive-array conductances, ``(T, rows, cols)``.
        g_neg: Negative-array conductances, ``(T, rows, cols)``.
        x: Physical inputs -- ``(s, rows)`` shared by every trial, or
            ``(T, s, rows)`` when the (AMP) input routing differs per
            trial.
        labels: Integer test labels, ``(s,)``.
        spec: Hardware platform (ADC sizing, v_read, device range).
        scaler: Weight <-> conductance map of the pairs.
        trial_block: Trials evaluated per einsum call; purely a memory
            knob -- per-slice identity makes any value bit-identical.

    Returns:
        Per-trial test rates, shape ``(T,)``.
    """
    if not ideal_read_path(spec):
        raise ValueError(
            "batched_hardware_test_rates only replicates the ideal read "
            f"path (ir_mode={spec.ir_mode!r}, r_wire={spec.crossbar.r_wire})"
        )
    g_pos = np.asarray(g_pos, dtype=float)
    g_neg = np.asarray(g_neg, dtype=float)
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    n_trials = g_pos.shape[0]
    v_read = spec.crossbar.v_read
    adc = spec.diff_adc(spec.crossbar.rows)
    scale = v_read * scaler.device.g_range / scaler.w_max
    fs_floor = v_read * spec.device.g_off

    blocks = []
    for start in range(0, n_trials, max(1, trial_block)):
        stop = min(start + max(1, trial_block), n_trials)
        gp, gn = g_pos[start:stop], g_neg[start:stop]
        xb = x if x.ndim == 2 else x[start:stop]
        i_diff = (
            v_read * trial_stacked_matmul(xb, gp)
            - v_read * trial_stacked_matmul(xb, gn)
        )
        if adc is not None:
            # Per-trial sense auto-ranging, then the mid-rise bipolar
            # quantiser with each trial's full scale broadcast in.
            x_cal = xb[:256] if xb.ndim == 2 else xb[:, :256]
            i_cal = (
                v_read * trial_stacked_matmul(x_cal, gp)
                - v_read * trial_stacked_matmul(x_cal, gn)
            )
            peak = np.quantile(np.abs(i_cal), 0.999, axis=(1, 2))
            fs = np.maximum(peak * 1.5, fs_floor)[:, None, None]
            levels = 2 ** adc.bits
            lo = -fs
            lsb = (2 * fs) / levels
            codes = np.round((np.clip(i_diff, lo, fs) - lo) / lsb)
            i_diff = lo + np.clip(codes, 0, levels - 1) * lsb
        scores = (i_diff - 0.0) / scale
        preds = np.argmax(scores, axis=2)
        blocks.append(np.mean(preds == labels[None, :], axis=1))
    if not blocks:
        return np.zeros(0)
    return np.concatenate(blocks)


def slot_rates(
    slots: Iterable[Slot],
    x: np.ndarray,
    labels: np.ndarray,
    ir_mode: str,
) -> np.ndarray:
    """Test rate of every programmed state a trial yields, in order.

    ``slots`` is a trial's ``*_programmed`` generator: each yielded
    pair is read with :func:`hardware_test_rate` before the generator
    resumes (and reprograms it) -- the looped reference of
    :func:`batched_slot_rates`.
    """
    return np.array([
        hardware_test_rate(
            pair, x, labels, ir_mode,
            input_map=None if mapping is None else mapping.inputs_to_physical,
        )
        for pair, mapping in slots
    ])


def batched_slot_rates(
    trials: Sequence[Iterable[Slot]],
    x: np.ndarray,
    labels: np.ndarray,
    spec: HardwareSpec,
    scaler: WeightScaler,
) -> np.ndarray:
    """:func:`slot_rates` of a chunk of trials, one stacked read per slot.

    Runs every trial's generator to the end, keeping each yielded
    pair's conductances (read-only per device state, so no copy) and
    mapping; reads draw nothing, so deferring them leaves every stream
    unchanged.  Slot ``k`` of all trials is then one
    :func:`batched_hardware_test_rates` call, so row ``t`` of the
    ``(len(trials), slots)`` result equals ``slot_rates`` of trial
    ``t`` bit for bit.  A non-ideal read path (:func:`ideal_read_path`)
    cannot be stacked and loops :func:`slot_rates` instead.
    """
    if not ideal_read_path(spec):
        return np.stack([
            slot_rates(slots, x, labels, spec.ir_mode) for slots in trials
        ])
    x = np.asarray(x, dtype=float)
    snapshots = [
        [
            (
                pair.positive.conductance,
                pair.negative.conductance,
                None if mapping is None else mapping.assignment,
            )
            for pair, mapping in slots
        ]
        for slots in trials
    ]
    n_trials = len(snapshots)
    rates = np.empty((n_trials, len(snapshots[0])))
    for k in range(rates.shape[1]):
        g_pos = np.stack([trial[k][0] for trial in snapshots])
        g_neg = np.stack([trial[k][1] for trial in snapshots])
        x_k = x
        if snapshots[0][k][2] is not None:
            x_k = np.zeros((n_trials, x.shape[0], g_pos.shape[1]))
            for t, trial in enumerate(snapshots):
                x_k[t][:, trial[k][2]] = x
        rates[:, k] = batched_hardware_test_rates(
            g_pos, g_neg, x_k, labels, spec, scaler
        )
    return rates
