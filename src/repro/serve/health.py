"""Drift monitoring: replay probes, compare to the programmed baseline.

A programmed crossbar degrades in service: retention drift relaxes the
conductances toward HRS and devices can fail stuck-at.  Both surface
the same way the paper's Fig. 2 surfaces fabrication variation --
as a growing relative discrepancy between the column outputs and what
the deployer expects.  The monitor replays a fixed probe set between
request batches, measures exactly that discrepancy against the
*programming-time* baseline, and invokes its lane's repair when the
policy threshold is crossed: the paper's own answer to degradation,
applied to the same hardware in place (see
:meth:`repro.serve.service.CrossbarService.repair`).

The baseline is never refreshed after a repair: recovery is only
claimed when the array again produces the outputs it produced when it
was first programmed, not merely when it stops getting worse.

A tiled layer (a fleet replica) keeps one baseline part per tile and
replays the probes as one :meth:`~repro.xbar.tiling.TiledPair.partial_matvec`,
so each tile is judged against its own programming-time partial and
the layer reads as drifted when any tile does.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.runtime.telemetry import HealthEvent
from repro.serve.engine import InferenceEngine

if TYPE_CHECKING:
    from repro.fleet.plan import ProgrammedFleet
    from repro.serve.artifact import ProgrammedArray

__all__ = ["DriftMonitor", "DriftPolicy"]


@dataclasses.dataclass(frozen=True)
class DriftPolicy:
    """When to check for drift and when to act on it.

    Attributes:
        threshold: Relative probe discrepancy that triggers action
            (the Fig. 2 metric: mean |y - y0| over mean |y0|).
        check_every: Request batches between probe replays; probes
            cost a hardware read, so checking every batch would tax
            throughput.
    """

    threshold: float = 0.1
    check_every: int = 5

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(
                f"threshold must be > 0, got {self.threshold}"
            )
        if self.check_every < 1:
            raise ValueError(
                f"check_every must be >= 1, got {self.check_every}"
            )


class DriftMonitor:
    """Probe-replay health check that repairs on a threshold crossing.

    Callable so it plugs directly into
    :class:`~repro.serve.scheduler.BatchScheduler`'s ``on_batch`` hook.

    Args:
        engine: Engine whose hardware is being watched (the probes run
            through the same routed read path requests use).
        probes: Logical probe inputs ``(p, n_features)``.
        baseline: Programming-time probe outputs ``(p, cols)``, or one
            ``(p, cols)`` partial per tile when the engine serves a
            :class:`~repro.xbar.tiling.TiledPair`.
        repair: Callback ``(discrepancy) -> HealthEvent`` invoked on a
            threshold crossing: it repairs the hardware in place,
            re-measures it and returns the recorded event.
        policy: Thresholds and cadence.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        probes: np.ndarray,
        baseline: np.ndarray,
        repair: Callable[[float], HealthEvent],
        policy: DriftPolicy | None = None,
    ):
        self.engine = engine
        self.probes = np.asarray(probes, dtype=float)
        self.baseline = baseline
        for part in self._parts(self.baseline):
            if self.probes.shape[0] != part.shape[0]:
                raise ValueError(
                    f"{self.probes.shape[0]} probes but "
                    f"{part.shape[0]} baseline rows"
                )
        self.policy = policy if policy is not None else DriftPolicy()
        self.repair = repair
        self._batches_seen = 0

    @classmethod
    def for_artifact(
        cls,
        engine: InferenceEngine,
        artifact: ProgrammedArray | ProgrammedFleet,
        repair: Callable[[float], HealthEvent],
        policy: DriftPolicy | None = None,
    ) -> DriftMonitor:
        """Monitor ``engine`` serving the hardware of ``artifact``.

        The baseline is the artifact's programming-time probe outputs,
        read under the artifact's own read model.  An engine serving a
        different read model replays the probes under that model at
        construction instead, while the hardware is still as
        programmed, so the gap between the two read models never
        reads as drift.
        """
        monitor = cls(
            engine,
            probes=artifact.probes,
            baseline=artifact.baseline,
            repair=repair,
            policy=policy,
        )
        if engine.ir_mode != artifact.ir_mode:
            monitor.baseline = monitor.read_probes()
        return monitor

    @property
    def baseline(self) -> np.ndarray | list[np.ndarray]:
        """Programming-time probe outputs, whole or one part per tile."""
        return self._baseline

    @baseline.setter
    def baseline(self, value: np.ndarray | list[np.ndarray]) -> None:
        self._baseline = (
            [np.asarray(part, dtype=float) for part in value]
            if isinstance(value, list)
            else np.asarray(value, dtype=float)
        )
        # The discrepancy's denominator, mean |y0| per part, is fixed
        # for as long as the baseline is, so every check reuses it.
        self._denominators = [
            float(np.mean(np.abs(part)))
            for part in self._parts(self._baseline)
        ]

    @staticmethod
    def _parts(outputs) -> list[np.ndarray]:
        return outputs if isinstance(outputs, list) else [outputs]

    def read_probes(self) -> np.ndarray | list[np.ndarray]:
        """Replay the probes, shaped like the baseline (per tile or not)."""
        if isinstance(self.baseline, list):
            return self.engine.target.partial_matvec(
                self.probes, self.engine.ir_mode
            )
        return self.engine.forward(self.probes)

    def tile_discrepancies(self) -> list[float]:
        """Probe discrepancy of every baseline part (one per tile).

        The paper's Fig. 2 column-output metric: mean absolute output
        deviation normalised by the mean absolute baseline output.
        """
        return [
            _relative_discrepancy(y, y0, denom)
            for y, y0, denom in zip(
                self._parts(self.read_probes()),
                self._parts(self.baseline),
                self._denominators,
            )
        ]

    def discrepancy(self) -> float:
        """Current probe discrepancy vs the programming-time baseline:
        the worst tile's, so one drifted tile is enough to act on."""
        return max(self.tile_discrepancies())

    def check(self) -> HealthEvent | None:
        """Replay the probes; repair if over threshold.

        Returns the repair's recorded event, or ``None`` while the
        discrepancy is within the threshold.
        """
        value = self.discrepancy()
        if value <= self.policy.threshold:
            return None
        return self.repair(value)

    def __call__(self) -> None:
        """Per-batch hook: check every ``policy.check_every`` batches."""
        self._batches_seen += 1
        if self._batches_seen % self.policy.check_every == 0:
            self.check()


def _relative_discrepancy(
    y: np.ndarray, baseline: np.ndarray, denom: float
) -> float:
    """``mean |y - y0| / denom``, with ``denom = mean |y0|`` precomputed."""
    if denom == 0.0:
        return float(np.mean(np.abs(y)))
    return float(np.mean(np.abs(y - baseline)) / denom)
