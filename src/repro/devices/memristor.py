"""Physical memristor array: state, persistent variation, programming.

``MemristorArray`` is the device-level substrate under the crossbar
model.  It owns, per cell:

* the internal switching state ``s`` in [0, 1] (see
  :mod:`repro.devices.switching`),
* a persistent parametric-variation angle ``theta`` sampled once at
  construction (fabrication), and
* a stuck-at defect flag.

Programming a cell toward a target conductance lands at
``g_target * exp(theta + eta)`` (clipped into the physical range),
where ``eta`` is a fresh cycle-to-cycle draw -- exactly the model used
throughout the paper.  Incremental (close-loop) updates scale the
requested conductance change by the same persistent multiplier, so the
feedback loop of CLD sees a consistent, device-specific gain error that
it can regress away, while open-loop programming is blind to it.
"""

from __future__ import annotations

import numpy as np

from repro.config import DeviceConfig, VariationConfig
from repro.devices.defects import (
    STUCK_AT_HRS,
    STUCK_AT_LRS,
    apply_defects_to_conductance,
)
from repro.devices.switching import SwitchingModel
from repro.seeding import ensure_rng
from repro.devices.variation import VariationModel

__all__ = ["MemristorArray"]


class MemristorArray:
    """A fabricated array of memristors with persistent variation.

    Args:
        shape: Array shape ``(rows, cols)``.
        device: Nominal device parameters.
        variation: Variation statistics; ``sigma=0`` yields an ideal
            array.
        rng: Random generator used both for the one-time fabrication
            draw and the per-event cycle noise.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        device: DeviceConfig | None = None,
        variation: VariationConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.shape = tuple(shape)
        if len(self.shape) != 2 or min(self.shape) < 1:
            raise ValueError(f"shape must be (rows, cols), got {shape}")
        self.device = device if device is not None else DeviceConfig()
        self.switching = SwitchingModel(self.device)
        self.variation = VariationModel(
            variation if variation is not None else VariationConfig(),
            ensure_rng(rng, "repro.devices.memristor.MemristorArray"),
        )
        # Monotone counter bumped on every state/defect write; consumers
        # (e.g. the crossbar's cached nodal factorisation) compare it to
        # detect that their view of the conductances went stale.
        self.state_version = 0
        # ``(state_version, g)`` of the last conductance computed, kept
        # as one pair so a reader never matches a stale ``g`` to a new
        # version.
        self._conductance_memo: tuple[int, np.ndarray | None] = (-1, None)
        # Fabrication: one persistent theta and defect flag per device.
        self.theta = self.variation.sample_parametric_theta(self.shape)
        self.defects = self.variation.sample_defects(self.shape)
        # All devices start at HRS (state 0), the post-forming idle state.
        self.state = np.zeros(self.shape, dtype=float)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def state(self) -> np.ndarray:
        """Internal switching states in [0, 1], shape ``shape``."""
        return self._state

    @state.setter
    def state(self, value: np.ndarray) -> None:
        self._state = value
        self.state_version += 1

    @property
    def defects(self) -> np.ndarray:
        """Stuck-at defect map (0 healthy, +1 LRS, -1 HRS)."""
        return self._defects

    @defects.setter
    def defects(self, value: np.ndarray) -> None:
        self._defects = value
        self.state_version += 1

    @property
    def conductance(self) -> np.ndarray:
        """Actual cell conductances (S), honouring stuck-at defects.

        Computed once per ``state_version`` and returned read-only: every
        read of an unchanged device state shares one array, so a caller
        that needs to modify it must copy it first.
        """
        # Version before state, so a concurrent write can only make the
        # pair look stale (a recompute), never fresh.
        version = self.state_version
        memo = self._conductance_memo
        if memo[0] != version:
            g = apply_defects_to_conductance(
                self.switching.conductance_of(self.state),
                self.defects,
                self.device,
            )
            g.flags.writeable = False
            memo = (version, g)
            self._conductance_memo = memo
        return memo[1]

    def __getstate__(self) -> dict:
        # Copies and pickles drop the memo: numpy restores arrays
        # writeable, and the copy recomputes a read-only one on demand.
        state = self.__dict__.copy()
        state["_conductance_memo"] = (-1, None)
        return state

    @property
    def resistance(self) -> np.ndarray:
        """Actual cell resistances (Ohm)."""
        return 1.0 / self.conductance

    # ------------------------------------------------------------------
    # open-loop programming
    # ------------------------------------------------------------------
    def program_conductance(
        self,
        target: np.ndarray,
        with_cycle_noise: bool = True,
    ) -> np.ndarray:
        """Open-loop program every cell toward a target conductance.

        The achieved conductance is the target scaled by each device's
        persistent lognormal multiplier (plus cycle noise), clipped to
        the physical range -- the programming pulses themselves are
        assumed pre-calculated from the nominal switching model, which
        is the open-loop (OLD) abstraction of Section 2.2.3.

        Args:
            target: Target conductances, shape ``(rows, cols)``, inside
                ``[g_off, g_on]``.
            with_cycle_noise: Include the cycle-to-cycle component.

        Returns:
            The achieved conductance array.
        """
        target = np.asarray(target, dtype=float)
        if target.shape != self.shape:
            raise ValueError(
                f"target shape {target.shape} != array shape {self.shape}"
            )
        d = self.device
        if np.any(target < d.g_off - 1e-15) or np.any(target > d.g_on + 1e-15):
            raise ValueError("targets must lie within [g_off, g_on]")
        achieved = self.variation.apply(target, self.theta, with_cycle_noise)
        achieved = np.clip(achieved, d.g_off, d.g_on)
        self.state = self.switching.state_of(achieved)
        return self.conductance

    # ------------------------------------------------------------------
    # close-loop incremental programming
    # ------------------------------------------------------------------
    def update_conductance(
        self,
        delta_g: np.ndarray,
        efficiency: np.ndarray | float = 1.0,
        with_cycle_noise: bool = True,
    ) -> np.ndarray:
        """Apply incremental conductance changes (close-loop step).

        Each requested change is scaled by the device's persistent
        multiplier ``exp(theta)``, optional cycle noise, and an external
        ``efficiency`` factor (e.g. the IR-drop induced nonlinearity
        factor of Section 3.2), then clipped to the physical range.
        Stuck-at cells ignore updates.

        Args:
            delta_g: Requested conductance changes (S), shape
                ``(rows, cols)``.
            efficiency: Per-cell multiplier in (0, 1] modelling degraded
                programming voltage; scalar or broadcastable array.
            with_cycle_noise: Include cycle-to-cycle noise on the step.

        Returns:
            The conductance array after the update.
        """
        delta_g = np.asarray(delta_g, dtype=float)
        if delta_g.shape != self.shape:
            raise ValueError(
                f"delta shape {delta_g.shape} != array shape {self.shape}"
            )
        step = delta_g * np.exp(self.theta) * np.asarray(efficiency, dtype=float)
        if with_cycle_noise and self.variation.config.sigma_cycle > 0:
            step = step * self.variation.sample_cycle(self.shape)
        d = self.device
        g = self.switching.conductance_of(self.state)
        g = np.clip(g + step, d.g_off, d.g_on)
        self.state = self.switching.state_of(g)
        return self.conductance

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def reset_to_hrs(self) -> None:
        """Erase: return every healthy cell to HRS."""
        self.state = np.zeros(self.shape, dtype=float)

    def restore_state(
        self,
        conductance: np.ndarray | None = None,
        theta: np.ndarray | None = None,
        defects: np.ndarray | None = None,
    ) -> None:
        """Overwrite device state from a persisted snapshot, noise-free.

        Unlike :meth:`program_conductance`, nothing stochastic happens:
        the internal states are set so that the array reproduces the
        snapshot conductances exactly.  Used when a serving process
        reconstructs a programmed crossbar from an artifact bundle
        (:mod:`repro.serve.artifact`) -- programming already happened
        elsewhere, restoring must not redraw any variation.

        Args:
            conductance: Cell conductances to reproduce (clipped into
                the physical range).
            theta: Persistent variation map to adopt (kept for later
                re-pretests / remaps on the restored array).
            defects: Stuck-at defect map to adopt.
        """
        if theta is not None:
            theta = np.asarray(theta, dtype=float)
            if theta.shape != self.shape:
                raise ValueError(
                    f"theta shape {theta.shape} != array shape {self.shape}"
                )
            self.theta = theta
        if defects is not None:
            defects = np.asarray(defects, dtype=int)
            if defects.shape != self.shape:
                raise ValueError(
                    f"defects shape {defects.shape} != array shape "
                    f"{self.shape}"
                )
            self.defects = defects
        if conductance is not None:
            g = np.asarray(conductance, dtype=float)
            if g.shape != self.shape:
                raise ValueError(
                    f"conductance shape {g.shape} != array shape "
                    f"{self.shape}"
                )
            d = self.device
            self.state = self.switching.state_of(np.clip(g, d.g_off, d.g_on))

    def is_stuck(self) -> np.ndarray:
        """Boolean mask of defective cells."""
        return self.defects != 0

    def describe(self) -> dict[str, float]:
        """Summary statistics of the fabricated array."""
        return {
            "rows": float(self.shape[0]),
            "cols": float(self.shape[1]),
            "theta_std": float(np.std(self.theta)),
            "stuck_lrs": float(np.sum(self.defects == STUCK_AT_LRS)),
            "stuck_hrs": float(np.sum(self.defects == STUCK_AT_HRS)),
        }
