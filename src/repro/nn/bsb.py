"""Brain-State-in-a-Box (BSB) associative recall.

The paper's close-loop baseline descends from BSB training on memristor
crossbars (its ref. [9], Hu et al., and ref. [6], the BSB recall
function realised with crossbars).  BSB is an auto-associative
attractor network: stored prototypes are corners of the hypercube
``[-1, 1]^n``, and recall iterates

    x(t+1) = clip(alpha * W @ x(t) + lambda * x(t), -1, 1)

until the state saturates at a corner.  This module provides the
software model -- training rule, recall dynamics, and quality metrics
-- and a hardware recall loop that runs the matrix-vector product
through a differential crossbar pair, making BSB a second workload for
every training scheme in :mod:`repro.core`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.xbar.crossbar import batch_invariant_matmul

__all__ = [
    "BSBConfig",
    "BSBResult",
    "train_bsb_weights",
    "bsb_recall",
    "bsb_recall_batch",
    "recall_success_rate",
    "recalled",
    "noisy_probe",
    "noisy_probes",
]


@dataclasses.dataclass(frozen=True)
class BSBConfig:
    """BSB dynamics and training parameters.

    Attributes:
        alpha: Feedback gain on the weight product.
        lam: Leakage gain on the current state (``lambda`` in the BSB
            literature).
        max_iterations: Recall iteration budget.
        train_lr: Learning rate of the prototype-storage rule.
        train_epochs: Passes of the storage rule over the prototypes.
    """

    alpha: float = 0.35
    lam: float = 1.0
    max_iterations: int = 60
    train_lr: float = 0.2
    train_epochs: int = 200


@dataclasses.dataclass
class BSBResult:
    """Outcome of one recall run.

    Attributes:
        state: Final state vector in ``[-1, 1]^n``.
        iterations: Iterations executed before saturation (or the
            budget).
        converged: Whether every component saturated to +-1.
    """

    state: np.ndarray
    iterations: int
    converged: bool


def train_bsb_weights(
    prototypes: np.ndarray, config: BSBConfig | None = None
) -> np.ndarray:
    """Store prototype patterns as BSB attractors.

    Uses the iterative error-correction rule of the BSB literature
    (and of the paper's ref. [9]): for each prototype ``p``,

        W <- W + lr * (p - W p) p^T / n

    which drives ``W p -> p`` (prototypes become eigenvectors with
    eigenvalue ~1, hence stable corners of the saturating dynamics).

    Args:
        prototypes: Patterns in {-1, +1}, shape ``(k, n)``.
        config: Training parameters.

    Returns:
        Weight matrix ``(n, n)``.
    """
    cfg = config if config is not None else BSBConfig()
    protos = np.asarray(prototypes, dtype=float)
    if protos.ndim != 2:
        raise ValueError("prototypes must be (k, n)")
    if not np.all(np.isin(protos, (-1.0, 1.0))):
        raise ValueError("prototypes must be bipolar (+-1)")
    k, n = protos.shape
    w = np.zeros((n, n))
    for _ in range(cfg.train_epochs):
        error_norm = 0.0
        for p in protos:
            err = p - w @ p
            w += cfg.train_lr * np.outer(err, p) / n
            error_norm += float(np.linalg.norm(err))
        if error_norm / k < 1e-6:
            break
    return w


def _resolve_matvec(
    matvec: Callable[[np.ndarray], np.ndarray] | None,
    weights: np.ndarray | None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Exactly-one-of validation shared by the recall entry points.

    The software fallback routes through
    :func:`~repro.xbar.crossbar.batch_invariant_matmul` (einsum with a
    fixed accumulation order), so a state recalled alone and the same
    state recalled inside a batch produce bit-identical trajectories —
    the same contract the hardware read path already honours.
    """
    if (matvec is None) == (weights is None):
        raise ValueError("pass exactly one of matvec / weights")
    if matvec is None:
        wt = np.ascontiguousarray(np.asarray(weights, dtype=float).T)
        matvec = lambda v: batch_invariant_matmul(v, wt)  # noqa: E731
    return matvec


def bsb_recall(
    probe: np.ndarray,
    config: BSBConfig | None = None,
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
    weights: np.ndarray | None = None,
) -> BSBResult:
    """Run the saturating BSB recall dynamics from a probe state.

    Args:
        probe: Initial state, shape ``(n,)``, values in [-1, 1].
        config: Dynamics parameters.
        matvec: The ``W @ x`` implementation -- pass a crossbar's
            read path for hardware recall.  Exactly one of ``matvec``
            and ``weights`` must be given.
        weights: Software weight matrix alternative to ``matvec``.

    Returns:
        A :class:`BSBResult`.
    """
    cfg = config if config is not None else BSBConfig()
    matvec = _resolve_matvec(matvec, weights)
    state = np.clip(np.asarray(probe, dtype=float), -1.0, 1.0)
    for iteration in range(1, cfg.max_iterations + 1):
        state = np.clip(
            cfg.alpha * np.asarray(matvec(state)) + cfg.lam * state,
            -1.0,
            1.0,
        )
        if np.all(np.abs(state) >= 1.0 - 1e-12):
            return BSBResult(state=state, iterations=iteration,
                             converged=True)
    return BSBResult(state=state, iterations=cfg.max_iterations,
                     converged=False)


def bsb_recall_batch(
    probes: np.ndarray,
    config: BSBConfig | None = None,
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
    weights: np.ndarray | None = None,
) -> list[BSBResult]:
    """Recall many probes through one batched read per iteration.

    Semantically a loop of :func:`bsb_recall` over the rows of
    ``probes`` — and bit-identical to that loop, because every read
    path involved is batch-invariant — but each iteration drives all
    still-active states through ``matvec`` as a single batch, so a
    crossbar (or a served fleet) sees one batched read instead of one
    read per probe.  A state that saturates is frozen at its
    convergence iteration and leaves the active batch, exactly as the
    looped dynamics would have stopped it.

    Args:
        probes: Initial states, shape ``(k, n)``.
        config: Dynamics parameters.
        matvec: Batched ``W @ x`` implementation mapping ``(b, n)`` to
            ``(b, n)`` (hardware read paths already are).  Exactly one
            of ``matvec`` and ``weights`` must be given.
        weights: Software weight matrix alternative to ``matvec``.

    Returns:
        One :class:`BSBResult` per probe row, in probe order.
    """
    cfg = config if config is not None else BSBConfig()
    matvec = _resolve_matvec(matvec, weights)
    states = np.clip(
        np.atleast_2d(np.asarray(probes, dtype=float)), -1.0, 1.0
    )
    k = states.shape[0]
    results: list[BSBResult | None] = [None] * k
    active = np.arange(k)
    for iteration in range(1, cfg.max_iterations + 1):
        if active.size == 0:
            break
        sub = states[active]
        updated = np.clip(
            cfg.alpha * np.asarray(matvec(sub)) + cfg.lam * sub,
            -1.0,
            1.0,
        )
        states[active] = updated
        saturated = np.all(np.abs(updated) >= 1.0 - 1e-12, axis=1)
        for row in active[saturated]:
            results[row] = BSBResult(
                state=states[row].copy(),
                iterations=iteration,
                converged=True,
            )
        active = active[~saturated]
    for row in active:
        results[row] = BSBResult(
            state=states[row].copy(),
            iterations=cfg.max_iterations,
            converged=False,
        )
    return results  # type: ignore[return-value]


def noisy_probe(
    prototype: np.ndarray,
    flip_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """A prototype with a fraction of its components sign-flipped."""
    p = np.asarray(prototype, dtype=float).copy()
    if not 0.0 <= flip_fraction <= 1.0:
        raise ValueError("flip_fraction must be in [0, 1]")
    n_flip = int(round(flip_fraction * p.size))
    idx = rng.choice(p.size, size=n_flip, replace=False)
    p[idx] = -p[idx]
    return p


def noisy_probes(
    prototypes: np.ndarray,
    flip_fraction: float,
    rng: np.random.Generator,
    probes_per_prototype: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy probes of every prototype and each probe's source index.

    The probes are drawn prototype-major, ``probes_per_prototype`` of
    each, so the ``rng`` stream is consumed in a fixed order.
    """
    protos = np.asarray(prototypes, dtype=float)
    probes = np.stack([
        noisy_probe(p, flip_fraction, rng)
        for p in protos
        for _ in range(probes_per_prototype)
    ], axis=0)
    sources = np.repeat(np.arange(protos.shape[0]), probes_per_prototype)
    return probes, sources


def recalled(
    states: np.ndarray, prototypes: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """Which final states recall their source prototype.

    A state counts as recalled when its signs match its source
    prototype on more components than any other stored prototype and
    on at least 95 % of all components.
    """
    protos = np.asarray(prototypes, dtype=float)
    signs = np.sign(states)
    agreements = (signs[:, None, :] == protos[None, :, :]).mean(axis=2)
    own = agreements[np.arange(len(signs)), sources]
    return (own >= 0.95) & (own >= agreements.max(axis=1) - 1e-12)


def recall_success_rate(
    prototypes: np.ndarray,
    flip_fraction: float,
    rng: np.random.Generator,
    config: BSBConfig | None = None,
    matvec: Callable[[np.ndarray], np.ndarray] | None = None,
    weights: np.ndarray | None = None,
    probes_per_prototype: int = 8,
) -> float:
    """Fraction of noisy probes recalled to their own prototype.

    The probes (:func:`noisy_probes`, exactly the stream the
    historical per-probe loop consumed from ``rng``) are recalled in
    one :func:`bsb_recall_batch` call and scored by :func:`recalled`,
    so the rate is bit-identical to the looped computation while
    costing one batched read per recall iteration.  ``matvec``, when
    given, must therefore accept ``(b, n)`` batches; crossbar read
    paths already do.
    """
    probes, sources = noisy_probes(
        prototypes, flip_fraction, rng, probes_per_prototype
    )
    results = bsb_recall_batch(
        probes, config, matvec=matvec, weights=weights
    )
    states = np.stack([r.state for r in results], axis=0)
    hits = recalled(states, prototypes, sources)
    return float(np.sum(hits)) / len(results)
