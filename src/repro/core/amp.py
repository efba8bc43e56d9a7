"""AMP: adaptive mapping of computations to crossbar rows (Section 4.2).

The hardware half of Vortex.  AMP pre-tests the fabricated crossbar to
learn each device's persistent variation, ranks the weight rows by
their sensitivity (Eq. 11), and assigns them to physical rows so that
high-impact weights land on well-behaved devices (Eq. 12, Algorithm 1).
Redundant rows enlarge the candidate pool; stuck-at defects surface as
extreme measured variations and are avoided the same way.

The assignment is realised without touching the fabric: "switching two
rows in weight matrix together with their inputs does not change the
output of the multiplication" (Fig. 6) -- the input signals are simply
routed to the permuted rows.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.greedy import greedy_mapping, optimal_mapping
from repro.core.pretest import PretestResult, pretest_pair, robust_sigma
from repro.core.old import OLDConfig, program_pair_open_loop
from repro.core.sensitivity import mapping_order, row_sensitivity
from repro.core.swv import position_cost, swv_pair
from repro.config import SensingConfig
from repro.xbar.ir_drop import read_attenuation_reference
from repro.xbar.mapping import WeightScaler
from repro.xbar.pair import DifferentialCrossbar

__all__ = [
    "RowMapping",
    "AMPResult",
    "run_amp",
    "program_amp",
    "effective_sigma",
    "row_read_factors",
]


@dataclasses.dataclass
class RowMapping:
    """A logical-row -> physical-row assignment.

    Attributes:
        assignment: ``assignment[p] = q`` places weight row ``p`` on
            physical row ``q``; entries are distinct.
        n_physical: Total physical rows (>= logical rows; the excess
            are unused redundancy).
    """

    assignment: np.ndarray
    n_physical: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=int)
        if a.ndim != 1:
            raise ValueError("assignment must be 1-D")
        if len(set(a.tolist())) != a.size:
            raise ValueError("assignment must be injective")
        if a.size > self.n_physical or np.any(a < 0) or np.any(
            a >= self.n_physical
        ):
            raise ValueError("assignment targets outside the physical rows")
        self.assignment = a

    @property
    def n_logical(self) -> int:
        return self.assignment.size

    def weights_to_physical(self, weights: np.ndarray) -> np.ndarray:
        """Scatter logical weight rows onto the physical matrix.

        Unused physical rows get zero weights (their devices idle at
        the ``g_off`` baseline on both arrays).
        """
        w = np.asarray(weights, dtype=float)
        if w.shape[0] != self.n_logical:
            raise ValueError(
                f"weights rows {w.shape[0]} != logical rows {self.n_logical}"
            )
        physical = np.zeros((self.n_physical, w.shape[1]))
        physical[self.assignment] = w
        return physical

    def inputs_to_physical(self, x: np.ndarray) -> np.ndarray:
        """Route logical input features to their physical word lines."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.n_logical:
            raise ValueError(
                f"input width {x.shape[1]} != logical rows {self.n_logical}"
            )
        physical = np.zeros((x.shape[0], self.n_physical))
        physical[:, self.assignment] = x
        return physical[0] if single else physical


@dataclasses.dataclass
class AMPResult:
    """Outcome of the AMP flow.

    Attributes:
        mapping: The chosen row assignment.
        pretest: Per-device variation estimates that drove it.
        swv: The cost matrix used (``(n_logical, n_physical)``).
        effective_sigma: Residual weighted variation after mapping --
            the quantity VAT's self-tuning consumes in the integrated
            flow (Section 4.3).
    """

    mapping: RowMapping
    pretest: PretestResult
    swv: np.ndarray
    effective_sigma: float


def effective_sigma(
    mapping: RowMapping,
    weights: np.ndarray,
    theta_pos: np.ndarray,
    theta_neg: np.ndarray,
    scaler: WeightScaler | None = None,
) -> float:
    """Weight-magnitude-weighted residual sigma after mapping.

    Collects the *realised* log-multipliers of the devices that carry
    the mapped weights -- bounded by the conductance rails when a
    ``scaler`` is supplied, since a clipped excursion never reaches the
    computation -- and returns their |w|-weighted RMS.  This is the
    effective variation the computation still sees, which is what a
    smaller VAT penalty should budget for after AMP (Section 4.3).
    """
    w = np.asarray(weights, dtype=float)
    q = mapping.assignment
    w_pos = np.maximum(w, 0.0)
    w_neg = np.maximum(-w, 0.0)
    t_pos = np.asarray(theta_pos)[q, :]
    t_neg = np.asarray(theta_neg)[q, :]
    weight_mass = w_pos.sum() + w_neg.sum()
    if weight_mass <= 0:
        return robust_sigma(np.concatenate([t_pos.ravel(), t_neg.ravel()]))
    if scaler is not None:
        w_peak = float(np.max(np.abs(w)))
        scale = 1.0 / w_peak if w_peak > 0 else 1.0
        d = scaler.device
        thetas = []
        for mag, theta in ((w_pos, t_pos), (w_neg, t_neg)):
            g = d.g_off + np.clip(mag * scale, 0.0, 1.0) * d.g_range
            g_actual = np.clip(g * np.exp(theta), d.g_off, d.g_on)
            thetas.append(np.log(g_actual / g))
        t_pos, t_neg = thetas
    weighted_sq = np.sum(w_pos * t_pos**2) + np.sum(w_neg * t_neg**2)
    return float(np.sqrt(weighted_sq / weight_mass))


def row_read_factors(
    pair: DifferentialCrossbar,
    weights: np.ndarray,
    x_mean: np.ndarray,
) -> np.ndarray:
    """Mean read delivery factor of each physical row.

    Estimated at a representative uniform loading (the mean absolute
    mapped weight spread over all physical rows) so the factors depend
    only on the geometry and wire resistance, not on a particular
    mapping.  Returns all-ones when the crossbar has no wire
    resistance.
    """
    n_physical = pair.shape[0]
    r_wire = pair.config.r_wire
    if r_wire == 0:
        return np.ones(n_physical)
    device = pair.positive.device
    scaler = pair.scaler
    w = np.asarray(weights, dtype=float)
    mean_mag = float(np.mean(np.abs(w)))
    g_uniform = np.full(
        pair.shape,
        device.g_off + min(mean_mag / scaler.w_max, 1.0) * device.g_range,
    )
    drive = float(np.mean(x_mean)) if np.mean(x_mean) > 0 else 0.5
    factors = read_attenuation_reference(
        g_uniform, np.full(n_physical, drive), r_wire,
        pair.config.v_read,
    )
    return factors.mean(axis=1)


def run_amp(
    pair: DifferentialCrossbar,
    weights: np.ndarray,
    x_mean: np.ndarray,
    sensing: SensingConfig | None = None,
    method: str = "greedy",
    rng: np.random.Generator | None = None,
    pretest: PretestResult | None = None,
    position_weight: float = 0.0,
) -> AMPResult:
    """Run the full AMP flow on a fabricated pair.

    Args:
        pair: Fabricated differential crossbar (possibly with more
            physical rows than ``weights`` has logical rows -- the
            redundancy of Section 5.3).
        weights: Signed weight matrix ``(n_logical, m)``.
        x_mean: Mean input activity per logical feature (Eq. 11 needs
            the expected drive).
        sensing: Pre-test ADC resolution and repeats.
        method: ``'greedy'`` (Algorithm 1) or ``'optimal'``
            (Hungarian assignment).
        rng: Readout-noise randomness for the pre-test.
        pretest: Reuse an existing pre-test instead of re-measuring.
        position_weight: Trade-off weight of the read-path position
            penalty (see :func:`repro.core.swv.position_cost`); 0
            reproduces the paper's Algorithm 1 exactly, > 0 makes the
            mapping IR-position-aware (only meaningful when reads are
            IR-modelled).

    Returns:
        An :class:`AMPResult`; apply ``result.mapping`` to both the
        weights (before programming) and the inputs (at run time).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[1] != pair.shape[1]:
        raise ValueError(
            f"weights have {weights.shape[1]} columns, pair has "
            f"{pair.shape[1]}"
        )
    if weights.shape[0] > pair.shape[0]:
        raise ValueError(
            f"{weights.shape[0]} weight rows exceed {pair.shape[0]} "
            "physical rows"
        )
    if position_weight < 0:
        raise ValueError(
            f"position_weight must be >= 0, got {position_weight}"
        )
    if pretest is None:
        pretest = pretest_pair(pair, sensing, rng=rng)
    swv = swv_pair(weights, pretest.theta_pos, pretest.theta_neg, pair.scaler)
    if position_weight > 0:
        factors = row_read_factors(pair, weights, x_mean)
        swv = swv + position_weight * position_cost(
            row_sensitivity(weights, x_mean), factors
        )
    order = mapping_order(weights, x_mean)
    if method == "greedy":
        assignment = greedy_mapping(swv, order)
    elif method == "optimal":
        assignment = optimal_mapping(swv)
    else:
        raise ValueError(f"method must be 'greedy' or 'optimal', got {method!r}")
    mapping = RowMapping(assignment=assignment, n_physical=pair.shape[0])
    sigma_eff = effective_sigma(
        mapping, weights, pretest.theta_pos, pretest.theta_neg,
        scaler=pair.scaler,
    )
    return AMPResult(
        mapping=mapping,
        pretest=pretest,
        swv=swv,
        effective_sigma=sigma_eff,
    )


def program_amp(
    pair: DifferentialCrossbar,
    weights: np.ndarray,
    x_mean: np.ndarray,
    pretest: PretestResult,
    config: OLDConfig | None = None,
) -> RowMapping:
    """Place the weight rows by Algorithm 1 and program them open-loop.

    The one placement step of every AMP experiment and of the serving
    lane's drift repair: :func:`run_amp` on an existing pre-test (so it
    draws nothing), then :func:`~repro.core.old.program_pair_open_loop`
    with the weights and the IR-drop reference input both routed
    through the chosen mapping.

    Args:
        pair: Fabricated pair to program.
        weights: Signed logical weights ``(n_logical, m)``.
        x_mean: Mean input activity per logical feature.
        pretest: The pair's measured variations.
        config: Open-loop programming settings (``OLDConfig()`` when
            omitted).

    Returns:
        The mapping the pair was programmed with; route run-time
        inputs through ``mapping.inputs_to_physical``.
    """
    mapping = run_amp(pair, weights, x_mean, pretest=pretest).mapping
    program_pair_open_loop(
        pair,
        mapping.weights_to_physical(weights),
        config,
        x_reference=mapping.inputs_to_physical(x_mean),
    )
    return mapping
