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
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.nn.objectives import _check_scale, _forward, _gradient, _loss

__all__ = ["GDTConfig", "GDTResult", "train_gdt"]


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cfg = config if config is not None else GDTConfig()
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("X must be (s, n) and Y (s, m) with matching s")
    n, m = x.shape[1], y.shape[1]

    if w_init is None:
        w = np.zeros((n, m))
    else:
        w = np.array(w_init, dtype=float, copy=True)
        if w.shape != (n, m):
            raise ValueError(f"w_init shape {w.shape} != ({n}, {m})")

    _check_scale(penalty_scale)

    x2 = x * x
    margin, pen_norm = _forward(x, x2, w, y, penalty_scale)
    velocity = np.zeros_like(w)
    lr = cfg.learning_rate
    history: list[float] = []
    converged = False
    prev_loss = np.inf
    for _ in range(cfg.epochs):
        grad = _gradient(x, x2, w, y, margin, pen_norm, penalty_scale)
        if cfg.l2 > 0:
            grad = grad + cfg.l2 * w
        velocity = cfg.momentum * velocity - lr * grad
        w = w + velocity
        lr *= cfg.decay
        margin, pen_norm = _forward(x, x2, w, y, penalty_scale)
        loss = _loss(margin, pen_norm, penalty_scale)
        if cfg.l2 > 0:
            loss += 0.5 * cfg.l2 * float(np.sum(w * w))
        history.append(loss)
        if abs(prev_loss - loss) < cfg.tolerance:
            converged = True
            break
        prev_loss = loss
    return GDTResult(weights=w, loss_history=history, converged=converged)
