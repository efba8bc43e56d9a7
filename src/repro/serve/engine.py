"""Vectorized batched forward pass over a programmed crossbar.

The expensive part of a hardware-faithful read is the IR-drop solve.
With the bit lines grounded a nodal read is linear in its input, so
each crossbar state pays once for a transfer matrix ``T`` (one sparse
factorisation and min(rows, cols) solves) and every input vector after
that is a fixed-order ``x @ T`` (see
:meth:`~repro.xbar.nodal.CrossbarNetwork.transfer_matrix`).  Reading
queries as a matrix rather than one at a time still saves the Python
dispatch per query.

The engine wraps any matvec-capable target (a
:class:`~repro.xbar.pair.DifferentialCrossbar` or a
:class:`~repro.xbar.tiling.TiledPair`), routes logical inputs through
the AMP permutation, and reads a whole batch in one hardware read (a
scheduler batch is at most ``max_batch`` rows, and every read path is
linear in its rows).
"""

from __future__ import annotations

import numpy as np

from repro.core.amp import RowMapping
from repro.serve.artifact import ProgrammedArray
from repro.xbar.crossbar import validate_ir_mode

__all__ = ["InferenceEngine"]


class InferenceEngine:
    """Batched inference over a programmed (possibly tiled) pair.

    Args:
        target: Programmed hardware exposing ``matvec(x, ir_mode)``.
        mapping: AMP input routing; identity when ``None``.
        ir_mode: Read-fidelity model for every forward pass (checked
            here, not at the first read).
    """

    def __init__(
        self,
        target,
        mapping: RowMapping | None = None,
        ir_mode: str = "ideal",
    ):
        self.target = target
        self.mapping = mapping
        self.ir_mode = validate_ir_mode(ir_mode)

    @classmethod
    def from_artifact(
        cls,
        artifact: ProgrammedArray,
        ir_mode: str | None = None,
    ) -> "InferenceEngine":
        """Reconstruct the hardware from a snapshot and wrap it."""
        return cls(
            target=artifact.build_pair(),
            mapping=artifact.mapping,
            ir_mode=ir_mode if ir_mode is not None else artifact.ir_mode,
        )

    @property
    def n_features(self) -> int:
        """Logical input width the engine accepts."""
        if self.mapping is not None:
            return self.mapping.n_logical
        return self.target.shape[0]

    def replace_mapping(self, mapping: RowMapping) -> None:
        """Swap the input routing (after a drift-triggered remap)."""
        if (
            self.mapping is not None
            and mapping.n_logical != self.mapping.n_logical
        ):
            raise ValueError(
                f"new mapping has {mapping.n_logical} logical rows, "
                f"engine serves {self.mapping.n_logical}"
            )
        self.mapping = mapping

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Weight-domain scores for a batch of logical inputs.

        Args:
            x: Inputs in [0, 1], ``(n_features,)`` or
                ``(s, n_features)``.

        Returns:
            Scores ``(cols,)`` or ``(s, cols)``.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = x[None, :] if single else x
        if xb.shape[1] != self.n_features:
            raise ValueError(
                f"input width {xb.shape[1]} != engine width "
                f"{self.n_features}"
            )
        if self.mapping is not None:
            xb = self.mapping.inputs_to_physical(xb)
        scores = self.target.matvec(xb, self.ir_mode)
        return scores[0] if single else scores

    def predict(self, x: np.ndarray) -> np.ndarray | int:
        """Argmax class prediction(s) for logical input(s)."""
        scores = self.forward(x)
        if scores.ndim == 1:
            return int(np.argmax(scores))
        return np.argmax(scores, axis=1)
