"""Software gradient-descent training (GDT) of the linear network.

The reference trainer behind both OLD (which trains in software and
programs once) and the idealised upper bounds in the experiments.  It
minimises the (optionally robust) hinge objective of
:mod:`repro.nn.objectives` by full-batch subgradient descent with
momentum and step decay -- deterministic given the initial weights, so
experiments reproduce bit-for-bit from a seed.

Each epoch makes one forward pass: the margins and penalty norms at the
updated weights give that epoch's loss and are kept for the next
epoch's subgradient, the inputs are squared once per call, and the
penalty is not evaluated at all when its scale is zero.  The result is
bit-identical to evaluating :func:`~repro.nn.objectives.robust_hinge_gradient`
and :func:`~repro.nn.objectives.robust_hinge_loss` separately each
epoch.

:func:`train_gdt_stacked` descends a stack of problems that share the
inputs, targets and trainer settings -- a gamma or sigma scan -- as one
``(n, G*m)`` weight block, so each epoch's products are a few wide BLAS
calls instead of ``G`` narrow ones.  Each slice keeps its own loss
history and tolerance test (a converged slice is frozen and dropped
from the block) and is bit-identical to training it alone; see
:func:`repro.nn.objectives._sliced_product` for what that rests on.
:func:`train_gdt` is the one-slice stack.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.nn.objectives import (
    _check_scale,
    _forward,
    _gradient,
    _hinge,
    _loss,
)

__all__ = ["GDTConfig", "GDTResult", "train_gdt", "train_gdt_stacked"]


@dataclasses.dataclass(frozen=True)
class GDTConfig:
    """Hyper-parameters of the software subgradient trainer.

    Attributes:
        learning_rate: Initial step size ``alpha`` (Eq. 1).
        momentum: Heavy-ball momentum coefficient.
        epochs: Number of full-batch iterations.
        decay: Multiplicative step decay applied each epoch.
        l2: Optional ridge regularisation on the weights.
        tolerance: Early-stop when the loss improvement over an epoch
            falls below this value.
    """

    learning_rate: float = 0.5
    momentum: float = 0.9
    epochs: int = 300
    decay: float = 0.999
    l2: float = 3e-4
    tolerance: float = 1e-7


@dataclasses.dataclass
class GDTResult:
    """Outcome of a software training run.

    Attributes:
        weights: Trained weight matrix ``(n, m)``.
        loss_history: Objective value after each epoch.
        converged: Whether the tolerance criterion fired before the
            epoch budget ran out.
    """

    weights: np.ndarray
    loss_history: list[float]
    converged: bool


def train_gdt(
    x: np.ndarray,
    y: np.ndarray,
    penalty_scale: float = 0.0,
    config: GDTConfig | None = None,
    w_init: np.ndarray | None = None,
) -> GDTResult:
    """Train a weight matrix on {-1,+1} one-vs-all targets.

    Args:
        x: Inputs ``(s, n)`` (bias feature already appended if wanted).
        y: Targets ``(s, m)`` in {-1, +1}.
        penalty_scale: ``gamma * rho`` of the VAT robust hinge; 0 gives
            the conventional GDT objective of Eq. 3.
        config: Trainer hyper-parameters.
        w_init: Starting weights; zeros when omitted.

    Returns:
        A :class:`GDTResult`.
    """
    return train_gdt_stacked(x, y, (penalty_scale,), config, (w_init,))[0]


def train_gdt_stacked(
    x: np.ndarray,
    y: np.ndarray,
    penalty_scales: Sequence[float],
    config: GDTConfig | None = None,
    w_inits: Sequence[np.ndarray | None] | None = None,
) -> list[GDTResult]:
    """Train one weight matrix per penalty scale, as one stacked descent.

    Slice ``g`` of the result is bit-identical to
    ``train_gdt(x, y, penalty_scales[g], config, w_inits[g])``.

    Args:
        x: Inputs ``(s, n)`` shared by every slice.
        y: Targets ``(s, m)`` in {-1, +1} shared by every slice.
        penalty_scales: One ``gamma * rho`` per slice.
        config: Trainer hyper-parameters shared by every slice.
        w_inits: One starting point (or ``None`` for zeros) per slice;
            all zeros when omitted.

    Returns:
        One :class:`GDTResult` per slice, in ``penalty_scales`` order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cfg = config if config is not None else GDTConfig()
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("X must be (s, n) and Y (s, m) with matching s")
    n, m = x.shape[1], y.shape[1]
    scales = [float(scale) for scale in penalty_scales]
    if not scales:
        raise ValueError("need at least one penalty scale")
    for scale in scales:
        _check_scale(scale)
    inits = [None] * len(scales) if w_inits is None else list(w_inits)
    if len(inits) != len(scales):
        raise ValueError(
            f"{len(inits)} starting points for {len(scales)} slices"
        )
    starts = []
    for w_init in inits:
        w = np.zeros((n, m)) if w_init is None else np.asarray(
            w_init, dtype=float
        )
        if w.shape != (n, m):
            raise ValueError(f"w_init shape {w.shape} != ({n}, {m})")
        starts.append(w)

    # Penalised slices first, so the penalty products run on a column
    # prefix of the block and skip the unpenalised slices entirely.
    live = sorted(range(len(scales)), key=lambda g: scales[g] == 0)
    x2 = x * x
    w = np.hstack([starts[g] for g in live])
    targets, pen_scale = _stack_terms(y, [scales[g] for g in live])
    forward = _forward(x, x2, w, targets, pen_scale, m)
    velocity = np.zeros_like(w)
    lr = cfg.learning_rate
    histories: list[list[float]] = [[] for _ in scales]
    prev_loss = [np.inf] * len(live)
    results: list[GDTResult | None] = [None] * len(scales)
    for _ in range(cfg.epochs):
        grad = _gradient(x, x2, w, targets, *forward, pen_scale, m)
        if cfg.l2 > 0:
            grad = grad + cfg.l2 * w
        velocity = cfg.momentum * velocity - lr * grad
        w = w + velocity
        lr *= cfg.decay
        forward = _forward(x, x2, w, targets, pen_scale, m)
        hinge = _hinge(forward[0], forward[2])
        keep = []
        for j, g in enumerate(live):
            cols = slice(j * m, (j + 1) * m)
            loss = _loss(hinge[:, cols])
            if cfg.l2 > 0:
                loss += 0.5 * cfg.l2 * float(np.sum(w[:, cols] * w[:, cols]))
            histories[g].append(loss)
            if abs(prev_loss[j] - loss) < cfg.tolerance:
                results[g] = GDTResult(
                    weights=w[:, cols].copy(),
                    loss_history=histories[g],
                    converged=True,
                )
            else:
                prev_loss[j] = loss
                keep.append(j)
        if len(keep) < len(live):
            # Freeze the converged slices: drop their columns.
            live = [live[j] for j in keep]
            if not live:
                break
            prev_loss = [prev_loss[j] for j in keep]
            kept = np.concatenate(
                [np.arange(j * m, (j + 1) * m) for j in keep]
            )
            # C order, as a solo training keeps them: an indexed copy
            # comes out Fortran-ordered, which BLAS multiplies
            # differently.
            w = np.ascontiguousarray(w[:, kept])
            velocity = np.ascontiguousarray(velocity[:, kept])
            targets, pen_scale = _stack_terms(y, [scales[g] for g in live])
            forward = _forward(x, x2, w, targets, pen_scale, m)
    for j, g in enumerate(live):
        results[g] = GDTResult(
            weights=w[:, j * m:(j + 1) * m].copy(),
            loss_history=histories[g],
            converged=False,
        )
    return results


def _stack_terms(
    y: np.ndarray, scales: list[float]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Targets and per-column penalty scales of a block of slices.

    Every slice shares the targets ``y``; the penalised slices come
    first, so their scales cover a column prefix (``None`` when no
    slice is penalised).
    """
    penalised = [scale for scale in scales if scale > 0]
    pen_scale = np.repeat(penalised, y.shape[1]) if penalised else None
    return np.tile(y, len(scales)), pen_scale
