"""Seed-discipline helpers: every stochastic path gets an explicit RNG.

The reproducibility contract (``docs/determinism.md``, rule REP001)
requires all randomness to flow from a seeded
:class:`numpy.random.Generator` supplied by the caller.  Public APIs
that take randomness route it through :func:`ensure_rng`, which
accepts every seeded form and refuses ``None`` with a
:class:`TypeError` naming the API, so a missing generator fails loudly
instead of drawing from a hidden default.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ensure_rng"]


def ensure_rng(
    rng: (
        np.random.Generator
        | np.random.BitGenerator
        | np.random.SeedSequence
        | int
        | None
    ),
    context: str,
) -> np.random.Generator:
    """Coerce an ``rng`` argument into a :class:`~numpy.random.Generator`.

    Accepts a ready generator (returned as-is), a
    :class:`~numpy.random.BitGenerator` (wrapped without reseeding, so
    its stream position is preserved), or an integer seed or a
    :class:`~numpy.random.SeedSequence` (wrapped).

    Args:
        rng: The caller-supplied randomness, in any accepted form.
        context: Dotted API name, shown when ``rng`` is missing.

    Raises:
        TypeError: ``rng`` is ``None``.
    """
    if rng is None:
        raise TypeError(
            f"{context}: no rng/seed was provided; pass an explicit "
            "seeded np.random.Generator (or an integer seed)"
        )
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.BitGenerator):
        return np.random.Generator(rng)
    return np.random.default_rng(rng)
